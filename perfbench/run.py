#!/usr/bin/env python3
"""cohortnet benchmark: the CLI pipeline on three workloads, end to end and per layer.

    python3 perfbench/run.py --workload gn400_cli --seed 1 --seconds 36 --trace 0

Run from the root of a cohortnet checkout.  The benchmark writes the
workload's inputs from ``--seed``, then runs the workload's fixed sequence of
``python -m cohortnet ...`` commands (``PYTHONPATH=src``, one fresh process
per command, one at a time) pass after pass for ``--seconds`` seconds, and
checks the artifacts.  With ``--trace 1`` it also replays the same sequence
in-process with a span around every layer call (see traced.py) and reports
per-layer numbers instead of end-to-end ones.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
the metrics listed in BENCHMARK.json.  Scratch files go to
``.perfbench_work/`` and the span dump to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import checks
import cohortgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics the last line carries

MIN_PASSES = 2  # byte-identity needs a second pass to compare against
SETUP_REPEATS = 11
START_REPEATS = 7
COMMAND_TIMEOUT_S = 60.0
K_MAX = 15
SEMESTER = "s5"

# Median calibration sample on the reference machine in its fast state (2-CPU
# Xeon, CPython 3.11.7); the scale of the end-to-end times on the last line.
CALIBRATION_REF_S = 0.0190
# Calibration samples taken after every command and every set-up repeat; a
# timed item is scaled by the median of the samples just before and just after it.
CAL_SAMPLES = 3


@dataclass(frozen=True)
class Step:
    name: str  # per-command metric group: <name>_s
    argv: tuple[str, ...]  # arguments after ``python -m cohortnet``
    # exit 3 here is a documented refusal that check_artifacts verifies against
    # the benchmark's reference; a verified refusal is a correct outcome
    checked_refusal: bool = False


@dataclass(frozen=True)
class Command:
    group: str
    wall: float
    cpu: float
    calibration: int  # index of the first calibration sample taken right after it


@dataclass
class Pass:
    commands: list[Command] = field(default_factory=list)
    rss_kb: int = 0

    @property
    def wall(self) -> float:
        """A pass's wall time is the sum of its commands' wall times."""
        return sum(c.wall for c in self.commands)

    def totals(self, weight: Callable[[Command], float]) -> dict[str, float]:
        """Weighted wall and CPU sums: pass_s, pass_cpu_s and one per command group."""
        out = {"pass_s": 0.0, "pass_cpu_s": 0.0}
        for c in self.commands:
            out["pass_s"] += c.wall * weight(c)
            out["pass_cpu_s"] += c.cpu * weight(c)
            out[f"{c.group}_s"] = out.get(f"{c.group}_s", 0.0) + c.wall * weight(c)
        return out


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    refused: int = 0  # checked refusals, not failed
    problems: list[str] = field(default_factory=list)
    refusals: list[str] = field(default_factory=list)  # checked against the reference
    failures: list[str] = field(default_factory=list)  # unchecked refusals: failed operations
    calibration: list[float] = field(default_factory=list)


_RING = 120
_RING_NBRS = [sorted({(i + d) % _RING for d in (1, -1, 5, -5, 17)}) for i in range(_RING)]


def calibration_sample() -> float:
    """Seconds for a fixed Brandes-style pass over a ring lattice (about 19 ms).

    A shared host's speed drifts by up to 75% over minutes while other tenants
    load it.  Samples taken between commands measure that drift within the
    run, so ``end_to_end`` can put the times on one scale.
    """
    start = time.perf_counter()
    edge_sums: dict[tuple[int, int], float] = {}
    for s in range(_RING):
        sigma, dist, preds = [0] * _RING, [-1] * _RING, [[] for _ in range(_RING)]
        sigma[s], dist[s] = 1, 0
        stack, queue = [], deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in _RING_NBRS[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * _RING
        while stack:
            w = stack.pop()
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
                key = (v, w) if v < w else (w, v)
                edge_sums[key] = edge_sums.get(key, 0.0) + sigma[v] * coeff
    return time.perf_counter() - start


def calibrate(outcome: Outcome) -> int:
    """Take CAL_SAMPLES calibration samples; return the index of the first."""
    first = len(outcome.calibration)
    outcome.calibration += [calibration_sample() for _ in range(CAL_SAMPLES)]
    return first


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("COHORTNET_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], stderr_path: Path) -> tuple[int, float, float, int]:
    """Run one child to completion; return (exit code, wall s, cpu s, max rss KiB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def cohortnet(*args: object) -> list[str]:
    return [sys.executable, "-m", "cohortnet", *map(str, args)]


# -- workloads -------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    setup: Callable[[Path, int], None]  # (input dir, seed)
    steps: Callable[[Path, Path, int], list[Step]]  # (input dir, pass dir, seed)
    ties: Callable[[Path, Path], Path]  # (input dir, pass dir) -> edge list of the cohort
    communities: tuple[str, ...] = ()  # step dirs holding partition.csv + modularity_curve.csv
    eigenvector: tuple[str, ...] = ()  # step dirs of analyze --measure eigenvector
    betweenness: tuple[tuple[str, bool], ...] = ()  # (step dir, directed)
    representatives: tuple[tuple[str, int], ...] = ()  # (step dir, top N)


def _setup_demo(inp: Path, seed: int) -> None:
    code, *_ = run_child(cohortnet("demo", "--seed", seed + 1, "--out-dir", inp / "cohort_b"),
                         inp / "setup.stderr")
    if code:
        raise RuntimeError(f"demo --seed {seed + 1} exited {code}")


def _analyze(cohort: Path, out: Path, group: str, step_dir: str, *flags: str) -> Step:
    return Step(group, ("analyze", str(cohort), *flags, "--out-dir", str(out / step_dir)),
                checked_refusal="eigenvector" in flags)


def _steps_demo(inp: Path, out: Path, seed: int) -> list[Step]:
    cohort = out / "ingest" / "cohort.json"
    partition = out / "communities" / "partition.csv"
    return [
        Step("demo", ("demo", "--seed", str(seed), "--out-dir", str(out / "demo"))),
        Step("ingest", ("ingest", "--roster", str(out / "demo" / "roster.csv"),
                        "--edges", str(out / "demo" / "edges.csv"), "--out", str(cohort))),
        _analyze(cohort, out, "analyze_communities", "communities", "--communities"),
        _analyze(cohort, out, "analyze_betweenness", "betweenness",
                 "--measure", "betweenness", "--top", "3"),
        _analyze(cohort, out, "analyze_measures", "eigenvector", "--measure", "eigenvector"),
        Step("classify", ("classify", str(cohort), "--partition", str(partition),
                          "--out-dir", str(out / "classify"))),
        Step("plan", ("plan", str(cohort), "--out-dir", str(out / "plan"))),
        Step("report", ("report", str(cohort), str(inp / "cohort_b" / "cohort.json"),
                        "--out-dir", str(out / "report"))),
        Step("export", ("export", str(cohort), "--format", "dot", "--partition", str(partition),
                        "--semester", SEMESTER, "--out-dir", str(out / "export_dot"))),
        Step("export", ("export", str(cohort), "--format", "graphml",
                        "--out-dir", str(out / "export_graphml"))),
    ]


def _setup_synthetic(n: int):
    """Structure seed 0 for every ``--seed``: the analysis work stays the same
    while the ids, genders and marks, and so the files, change with the seed."""
    def setup(inp: Path, seed: int) -> None:
        cohortgen.write(inp, n, seed, structure_seed=0)
    return setup


def _steps_gn400(inp: Path, out: Path, seed: int) -> list[Step]:
    cohort = out / "ingest" / "cohort.json"
    partition = out / "communities" / "partition.csv"
    return [
        Step("ingest", ("ingest", "--roster", str(inp / "roster.csv"),
                        "--edges", str(inp / "edges.csv"), "--out", str(cohort))),
        _analyze(cohort, out, "analyze_communities", "communities",
                 "--communities", "--k-max", str(K_MAX)),
        Step("classify", ("classify", str(cohort), "--partition", str(partition),
                          "--semester", SEMESTER, "--out-dir", str(out / "classify"))),
        Step("plan", ("plan", str(cohort), "--partition", str(partition),
                      "--semester", SEMESTER, "--out-dir", str(out / "plan"))),
    ]


def _steps_central800(inp: Path, out: Path, seed: int) -> list[Step]:
    cohort = out / "ingest" / "cohort.json"
    return [
        Step("ingest", ("ingest", "--roster", str(inp / "roster.csv"),
                        "--adjacency", str(inp / "adjacency.csv"), "--out", str(cohort))),
        _analyze(cohort, out, "analyze_betweenness", "betweenness",
                 "--measure", "betweenness", "--top", "5"),
        _analyze(cohort, out, "analyze_measures", "betweenness_undirected",
                 "--measure", "betweenness", "--mode", "undirected"),
        _analyze(cohort, out, "analyze_measures", "closeness", "--measure", "closeness"),
        _analyze(cohort, out, "analyze_measures", "eigenvector", "--measure", "eigenvector"),
        Step("export", ("export", str(cohort), "--format", "graphml", "--semester", SEMESTER,
                        "--partition", str(inp / "planted.csv"),
                        "--out-dir", str(out / "export_graphml"))),
        Step("report", ("report", str(cohort), "--semester", SEMESTER,
                        "--out-dir", str(out / "report"))),
    ]


WORKLOADS = {
    "demo100_cli": Workload(
        setup=_setup_demo, steps=_steps_demo,
        ties=lambda inp, out: out / "demo" / "edges.csv",
        communities=("communities",), eigenvector=("eigenvector",),
        betweenness=(("betweenness", True),), representatives=(("betweenness", 3),)),
    "gn400_cli": Workload(
        setup=_setup_synthetic(400), steps=_steps_gn400,
        ties=lambda inp, out: inp / "edges.csv", communities=("communities",)),
    "central800_cli": Workload(
        setup=_setup_synthetic(800), steps=_steps_central800,
        ties=lambda inp, out: inp / "edges.csv", eigenvector=("eigenvector",),
        betweenness=(("betweenness", True), ("betweenness_undirected", False)),
        representatives=(("betweenness", 5),)),
}


# -- passes and checks -----------------------------------------------------------------

def describe(argv: tuple[str, ...]) -> str:
    """The command without its paths, for messages."""
    return " ".join(a for a in argv if not a.startswith("/") and a not in ("--out", "--out-dir"))


def run_pass(steps: list[Step], outcome: Outcome, stderr_path: Path) -> Pass:
    """Run the commands one after another, with a calibration sample after each."""
    result = Pass()
    for step in steps:
        code, wall, cpu, rss_kb = run_child(cohortnet(*step.argv), stderr_path)
        result.commands.append(Command(step.name, wall, cpu, calibrate(outcome)))
        outcome.attempted += 1
        result.rss_kb = max(result.rss_kb, rss_kb)
        if code:
            lines = stderr_path.read_text(errors="replace").strip().splitlines()
            note(outcome, step, code == 3, f"{describe(step.argv)} exited {code}: "
                                           f"{lines[-1] if lines else ''}")
    return result


def note(outcome: Outcome, step: Step, refusal: bool, message: str) -> None:
    """Record a command that did not succeed.

    A refusal (exit 3) of a step whose refusal check_artifacts verifies is a
    correct outcome.  Any other refusal is a failed operation, and any other
    error is a failed operation and a wrong output.
    """
    if refusal and step.checked_refusal:
        outcome.refused += 1
        target = outcome.refusals
    else:
        outcome.failed += 1
        target = outcome.failures if refusal else outcome.problems
    if message not in target:
        target.append(message)


def _ties(path: Path) -> list[tuple[int, int]]:
    rows = path.read_text().split()[1:]
    return [(int(s), int(t)) for s, t in (row.split(",") for row in rows)]


def check_artifacts(workload: Workload, inp: Path, out: Path,
                    refusals: list[str]) -> tuple[list[str], float | None]:
    """Run every output check on one pass; return (problems, selected Q).

    ``refusals`` are the messages of the checked refusals seen so far; an
    eigenvector step that wrote no scores must be among them.
    """
    problems: list[str] = []
    best_q = None
    try:
        ties = _ties(workload.ties(inp, out))
        nodes = sorted({v for tie in ties for v in tie})
        for step_dir in workload.communities:
            found, best_q = checks.check_communities(out / step_dir, nodes, ties, K_MAX)
            problems += found
        for step_dir, directed in workload.betweenness:
            problems += checks.check_betweenness(out / step_dir / "centrality_betweenness.csv",
                                                 nodes, ties, directed)
        for step_dir, top in workload.representatives:
            problems += checks.check_representatives(out / step_dir, top)
        for step_dir in workload.eigenvector:
            refused = not (out / step_dir / "centrality_eigenvector.csv").exists()
            if refused and not any("--measure eigenvector" in r for r in refusals):
                problems.append(f"{step_dir}: no centrality_eigenvector.csv and no refusal")
            problems += checks.check_eigenvector(out / step_dir, nodes, ties, refused)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"artifact missing or malformed: {exc}")
    return problems, best_q


def cli_passes(workload: Workload, inp: Path, work: Path, seed: int, budget: float,
               min_passes: int, outcome: Outcome) -> list[Pass]:
    """Run CLI passes until ``budget`` seconds are used; every pass must match the first."""
    passes: list[Pass] = []
    elapsed: list[float] = []  # per pass, calibration and checks included
    first: dict[str, str] | None = None
    start = time.perf_counter()
    while True:
        out = work / f"pass-{len(passes)}"
        began = time.perf_counter()
        passes.append(run_pass(workload.steps(inp, out, seed), outcome, work / "stderr.txt"))
        digest = checks.digest_tree(out)
        if first is None:
            first = digest
        else:
            if digest != first:
                changed = sorted(k for k in digest.keys() | first.keys()
                                 if digest.get(k) != first.get(k))
                outcome.problems.append(f"pass {len(passes) - 1} differs from pass 0 in {changed}")
            shutil.rmtree(out)
        elapsed.append(time.perf_counter() - began)
        if (len(passes) >= min_passes
                and time.perf_counter() + statistics.median(elapsed) > start + budget):
            return passes


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, no percentile has 10 samples beyond it"
    return f"p{100 * (n - 10) / n:.0f}={sorted(values)[n - 11]:.4f}, n={n}"


# -- the two kinds of run --------------------------------------------------------------

def end_to_end(workload: Workload, inp: Path, work: Path, seed: int, seconds: float,
               setup: list[tuple[float, int]], outcome: Outcome,
               report: list[str]) -> dict[str, float]:
    passes = cli_passes(workload, inp, work, seed, seconds, MIN_PASSES, outcome)
    problems, best_q = check_artifacts(workload, inp, work / "pass-0", outcome.refusals)
    outcome.problems += problems
    cal = outcome.calibration

    def speed(i: int) -> float:
        """Reference-speed factor of an item whose samples after it start at ``i``."""
        return CALIBRATION_REF_S / statistics.median(cal[max(0, i - CAL_SAMPLES):i + CAL_SAMPLES])

    raw: dict[str, list[float]] = {"setup_s": [t for t, _ in setup]}
    scaled: dict[str, list[float]] = {"setup_s": [t * speed(i) for t, i in setup]}
    for p in passes:
        for name, value in p.totals(lambda c: 1.0).items():
            raw.setdefault(name, []).append(value)
        for name, value in p.totals(lambda c: speed(c.calibration)).items():
            scaled.setdefault(name, []).append(value)
    report.append(f"machine speed: calibration median {statistics.median(cal) * 1e3:.2f} ms "
                  f"(n={len(cal)}); reference {CALIBRATION_REF_S * 1e3:.1f} ms")
    metrics = {}
    for name, values in scaled.items():
        metrics[name] = statistics.median(values)
        report.append(f"{name} = {metrics[name]:.4f} s at reference speed ({tail(values)}; "
                      f"raw median {statistics.median(raw[name]):.4f} s)")
    metrics["peak_rss_mb"] = max(p.rss_kb for p in passes) / 1024
    report.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB (max over children)")
    report.append(f"error_rate = {outcome.failed / outcome.attempted:.4f} ratio "
                  f"({outcome.failed} of {outcome.attempted} commands failed)")
    report.append(f"refusals = {outcome.refused} of {outcome.attempted} commands "
                  f"(checked against the reference, not failed)")
    if best_q is not None:
        report.append(f"best_q = {best_q!r} Q (higher is better)")
    return metrics


def _subprocess_seconds(code: str) -> float:
    """Time measured inside a fresh interpreter by ``code``, which prints it."""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S, check=True)
    return float(done.stdout)


def per_layer(workload: Workload, inp: Path, work: Path, seed: int, seconds: float,
              outcome: Outcome, report: list[str], dump: Path,
              units: dict[str, str]) -> dict[str, float]:
    import traced
    from cohortnet.errors import AnalysisError

    start = time.perf_counter()
    interp = statistics.median(
        run_child([sys.executable, "-c", "pass"], work / "stderr.txt")[1]
        for _ in range(START_REPEATS))
    imports = statistics.median(_subprocess_seconds(
        "import time; t = time.perf_counter(); import cohortnet.cli; "
        "print(time.perf_counter() - t)") for _ in range(START_REPEATS))
    # about 40% of the time for untraced CLI passes (they give pass_s for the
    # overhead), the rest for traced in-process passes
    passes = cli_passes(workload, inp, work, seed, 0.4 * seconds, 1, outcome)
    problems, _ = check_artifacts(workload, inp, work / "pass-0", outcome.refusals)
    outcome.problems += problems

    tracer = traced.Tracer()
    walls: list[float] = []
    deadline = start + seconds
    while True:
        out = work / f"traced-{tracer.pass_id}"
        began = time.perf_counter()
        steps = workload.steps(inp, out, seed)
        outcome.attempted += len(steps)
        for step, exc in traced.run_pass(tracer, steps):
            note(outcome, step, isinstance(exc, AnalysisError),
                 f"traced {describe(step.argv)} raised {type(exc).__name__}: {exc}")
        partition = (out / workload.communities[0] / "partition.csv" if workload.communities
                     else inp / "planted.csv")
        traced.probe(tracer, out / "ingest" / "cohort.json", partition)
        shutil.rmtree(out)
        walls.append(time.perf_counter() - began)
        tracer.pass_id += 1
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
    tracer.dump(dump)

    layers = traced.layer_medians(tracer)
    layers["cli.interpreter_start_s"] = interp
    layers["cli.import_s"] = imports
    layers["community.modularity_s"] = (layers.get("community.modularity_s", 0.0)
                                        / traced.MODULARITY_REPEATS)
    if "community.girvan_newman_s" in layers:
        layers["community.division_self_s"] = (
            layers["community.girvan_newman_s"]
            - layers["community.snapshots"] * layers["community.modularity_s"])
    removals = layers.get("community.removals", 0.0)
    layers["community.split_ratio"] = layers.get("community.splits", 0.0) / removals if removals else 0.0
    traced_cli = statistics.median(traced.command_seconds(tracer).values())
    layers["trace.overhead_s"] = (statistics.median(p.wall for p in passes)
                                  - len(steps) * (interp + imports) - traced_cli)
    for name in sorted(layers):
        unit = units.get(name) or ("s" if name.endswith("_s") else "count")
        report.append(f"{name} = {layers[name]:.6g} {unit}")
    report.append(f"traced passes: {tracer.pass_id}; spans written to {dump.relative_to(ROOT)}")
    return layers


def declared_value(metrics: dict[str, float], name: str) -> float:
    """A declared metric's value; a counter the workload never touched is 0."""
    if name in metrics or not name.endswith("_s"):
        return metrics.get(name, 0.0)
    raise KeyError(f"BENCHMARK.json declares {name}, which this run did not measure")


def environment() -> str:
    import networkx

    return (f"python {platform.python_version()} ({platform.python_implementation()}), "
            f"nproc {os.cpu_count()}, usable cpus {len(os.sched_getaffinity(0))}, "
            f"{platform.machine()} {platform.platform()}, networkx {networkx.__version__}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cohortnet" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'cohortnet'} not found; run from a cohortnet checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    inp = work / "input"
    report = [f"workload {args.workload} ({why}), seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace}", f"environment: {environment()}"]
    try:
        outcome = Outcome()
        setup = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(inp, ignore_errors=True)
            inp.mkdir(parents=True)
            began = time.perf_counter()
            workload.setup(inp, args.seed)
            setup.append((time.perf_counter() - began, calibrate(outcome)))
        # compile the program's bytecode once, as an installed copy would have it
        run_child([sys.executable, "-c", "import cohortnet.cli"], work / "stderr.txt")
        if args.trace:
            dump = OUT / f"trace-{args.workload}-{args.seed}.json"
            metrics = per_layer(workload, inp, work, args.seed, args.seconds, outcome,
                                report, dump, wanted)
        else:
            metrics = end_to_end(workload, inp, work, args.seed, args.seconds, setup,
                                 outcome, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in report:
        print(line)
    for refusal in outcome.refusals:
        print(f"refused, checked against the reference: {refusal}")
    for failure in outcome.failures:
        print(f"refused (counted as failed): {failure}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": declared_value(metrics, name), "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
