"""Traced in-process run: the CLI's sequence of library calls, one span per layer call.

Each workload step is replayed by calling the public function of each module
in the order ``cohortnet.cli`` calls it, wrapped in a span named
``<module>.<function>``.  Spans record name, start, end, parent span and pass
id; they stay in memory until :meth:`Tracer.dump`.  Nothing inside the
program is instrumented, so a layer's self time is the duration of its span.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from cohortnet import centrality, community, demo, intervention, model, stats
from cohortnet import io_formats as iof
from cohortnet.errors import CohortNetError

MODULARITY_REPEATS = 20  # one modularity call is well under a millisecond


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.pass_id = 0
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "pass": self.pass_id})
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        self.counts[self.pass_id][name] += value

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per pass: span name -> summed self time (duration minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            out[s["pass"]][s["name"]] += s["end"] - s["start"] - child_time[i]
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")


# -- file access, counted ------------------------------------------------------

def _read(t: Tracer, path: Path) -> bytes:
    data = path.read_bytes()
    t.count("io_formats.bytes_read", len(data))
    return data


def _write(t: Tracer, path: Path, data: bytes | str) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    t.count("io_formats.bytes_written", len(data))


def _load(t: Tracer, path: Path):
    return t.call("io_formats.load_cohort", iof.load_cohort, _read(t, path))


def _semester(cohort, opts: dict) -> str:
    return opts.get("semester") or cohort.semesters()[0]


def _csv(t: Tracer, fn, *args):
    return t.call("io_formats.csv_writers", fn, *args)


# -- GN counters, replayed from the division trace ------------------------------

def _count_division(t: Tracer, view, trace) -> None:
    """Kernel calls and BFS sources that ``girvan_newman`` spent on ``trace``.

    Mirrors its bookkeeping: every component with an edge gets one kernel call
    at the start, the split-off component of each removal one call, and each
    call runs one BFS per member.
    """
    adjacency = {v: set(view.adjacency[v]) for v in view.nodes}
    comp_of: dict[int, int] = {}
    members: list[set[int]] = []
    calls = sources = 0

    def refresh(cid: int) -> None:
        nonlocal calls, sources
        if any(adjacency[v] for v in members[cid]):
            calls += 1
            sources += len(members[cid])

    def reach(start: int) -> set[int]:
        seen, frontier = {start}, [start]
        while frontier:
            for w in adjacency[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    for v in sorted(view.nodes):
        if v not in comp_of:
            members.append(reach(v))
            comp_of.update((x, len(members) - 1) for x in members[-1])
            refresh(len(members) - 1)
    for step in trace.steps:
        u, v = step.removed_edge
        adjacency[u].discard(v)
        adjacency[v].discard(u)
        cid = comp_of[u]
        reached = reach(u)
        if v in reached:
            refresh(cid)
            continue
        members.append(members[cid] - reached)
        members[cid] = reached
        comp_of.update((x, len(members) - 1) for x in members[-1])
        refresh(cid)
        refresh(len(members) - 1)
    splits = sum(1 for s in trace.steps if s.partition is not None)
    t.count("community.removals", len(trace.steps))
    t.count("community.splits", splits)
    t.count("community.snapshots", splits + (trace.initial is not None))
    t.count("community.kernel_calls", calls)
    t.count("community.kernel_sources", sources)


def _communities(t: Tracer, cohort, k_max: int):
    view = t.call("model.symmetrize", model.symmetrize, cohort.network,
                  model.SymmetrizeRule.UNION)
    trace = t.call("community.girvan_newman", community.girvan_newman, view, stop_at_k=k_max)
    best, curve = t.call("community.best_partition", community.best_partition, view, trace, k_max)
    _count_division(t, view, trace)
    return view, best, curve


# -- one mirror per CLI command --------------------------------------------------

def _demo(t: Tracer, opts: dict, out: Path) -> None:
    cohort, _ = t.call("demo.generate_demo_cohort", demo.generate_demo_cohort, int(opts["seed"]))
    _write(t, out / "roster.csv", _csv(t, iof.export_roster, cohort.students))
    _write(t, out / "edges.csv", _csv(t, iof.export_edges, cohort.network))
    _write(t, out / "cohort.json", t.call("io_formats.save_cohort", iof.save_cohort, cohort))


def _ingest(t: Tracer, opts: dict, out: Path) -> None:
    roster = t.call("io_formats.parse_roster", iof.parse_roster, _read(t, Path(opts["roster"])))
    if "edges" in opts:
        ties = t.call("io_formats.parse_edges", iof.parse_edges, _read(t, Path(opts["edges"])))
    else:
        ties = t.call("io_formats.parse_adjacency", iof.parse_adjacency,
                      _read(t, Path(opts["adjacency"])))
    cohort = t.call("model.make_cohort", model.make_cohort, roster, ties, "cohort")
    _write(t, Path(opts["out"]), t.call("io_formats.save_cohort", iof.save_cohort, cohort))


def _analyze(t: Tracer, opts: dict, out: Path) -> None:
    cohort = _load(t, Path(opts["cohort"]))
    net = cohort.network
    if opts.get("communities"):
        _, best, curve = _communities(t, cohort, int(opts.get("k-max", 15)))
        _write(t, out / "modularity_curve.csv", _csv(t, iof.curve_csv, curve))
        _write(t, out / "partition.csv", _csv(t, iof.partition_csv, best))
        return
    measure = opts["measure"]
    if measure == "betweenness":
        mode = centrality.Mode(opts.get("mode", "directed"))
        t.count("centrality.brandes_sources", len(net.nodes))
        scores = t.call(f"centrality.betweenness_{mode.value}", centrality.betweenness, net, mode)
    else:
        scores = t.call(f"centrality.{measure}", getattr(centrality, measure), net)
    _write(t, out / f"centrality_{measure}.csv", _csv(t, iof.scores_csv, scores))
    if "top" in opts:
        t.count("centrality.brandes_sources", 2 * len(net.nodes))
        ranked = t.call("centrality.rank_representatives", centrality.rank_representatives,
                        net, int(opts["top"]))
        again = t.call("centrality.betweenness_directed", centrality.betweenness, net,
                       centrality.Mode.DIRECTED)
        _write(t, out / "representatives.csv",
               _csv(t, iof.representatives_csv, ranked, again.scores))


def _partition(t: Tracer, cohort, opts: dict):
    if "partition" not in opts:
        return _communities(t, cohort, int(opts.get("k-max", 15)))[1]
    p = t.call("io_formats.parse_partition_csv", iof.parse_partition_csv,
               _read(t, Path(opts["partition"])))
    t.call("io_formats.check_coverage", iof.check_coverage, cohort.network, p, None)
    return p


def _classify(t: Tracer, opts: dict, out: Path) -> None:
    cohort = _load(t, Path(opts["cohort"]))
    marks = cohort.marks_for(_semester(cohort, opts))
    partition = _partition(t, cohort, opts)
    perfs = t.call("stats.cluster_performance", stats.cluster_performance, partition, marks)
    _write(t, out / "clusters.csv", _csv(t, iof.clusters_csv, perfs))


def _plan(t: Tracer, opts: dict, out: Path) -> None:
    cohort = _load(t, Path(opts["cohort"]))
    semester = _semester(cohort, opts)
    marks = cohort.marks_for(semester)
    partition = _partition(t, cohort, opts)
    plan = t.call("intervention.plan_intervention", intervention.plan_intervention,
                  cohort.network, partition, marks, intervention.InterventionPolicy())
    profiles = t.call("intervention.predicted_group_profile",
                      intervention.predicted_group_profile, plan, marks)
    report = _csv(t, iof.plan_report, plan, profiles, semester)
    _write(t, out / "plan.csv", _csv(t, iof.plan_csv, plan))
    _write(t, out / "plan_report.txt", report)


def _report(t: Tracer, opts: dict, out: Path) -> None:
    cohorts = [_load(t, Path(p)) for p in opts["cohorts"]]
    lists = []
    for cohort in cohorts:
        marks = cohort.marks_for(_semester(cohort, opts))
        lists.append([marks[v] for v in sorted(marks)])
    summaries = []
    for label, values in zip("ab", lists):
        summary = t.call("stats.summarize", stats.summarize, values, 5)
        summaries.append(summary)
        _write(t, out / f"summary_{label}.csv", _csv(t, iof.summary_csv, summary))
        _write(t, out / f"histogram_{label}.csv", _csv(t, iof.histogram_csv, summary))
    if len(lists) == 2:
        cmp = t.call("stats.compare_groups", stats.compare_groups, lists[0], lists[1], 5)
        text = _csv(t, iof.report_text, summaries[0], "cohort a", cmp, "cohort b")
    else:
        text = _csv(t, iof.report_text, summaries[0], "cohort a")
    _write(t, out / "report.txt", text)


def _export(t: Tracer, opts: dict, out: Path) -> None:
    cohort = _load(t, Path(opts["cohort"]))
    marks = cohort.marks_for(opts["semester"]) if "semester" in opts else None
    partition = None
    if "partition" in opts:
        partition = t.call("io_formats.parse_partition_csv", iof.parse_partition_csv,
                           _read(t, Path(opts["partition"])))
    fmt = iof.GraphFormat(opts.get("format", "dot"))
    data = t.call(f"io_formats.export_{fmt.value}", iof.export_graph, cohort.network, fmt,
                  genders=cohort.genders(), marks=marks, partition=partition)
    _write(t, out / f"graph.{fmt.value}", data)


MIRRORS = {"demo": _demo, "ingest": _ingest, "analyze": _analyze, "classify": _classify,
           "plan": _plan, "report": _report, "export": _export}


def parse_argv(argv: tuple[str, ...]) -> dict:
    """The few CLI flags the workloads use, as a dict; positionals under "cohorts"."""
    opts: dict = {"command": argv[0], "cohorts": []}
    it = iter(argv[1:])
    for token in it:
        if token == "--communities":
            opts["communities"] = True
        elif token.startswith("--"):
            opts[token[2:]] = next(it)
        else:
            opts["cohorts"].append(token)
    if opts["cohorts"]:
        opts["cohort"] = opts["cohorts"][0]
    return opts


def run_pass(t: Tracer, steps) -> list[tuple[object, CohortNetError]]:
    """Replay ``steps`` (each with ``.name`` and ``.argv``) in-process; return
    the steps that raised, each with its error."""
    errors = []
    for step in steps:
        opts = parse_argv(step.argv)
        with t.span(f"cmd.{step.name}"):
            try:
                MIRRORS[opts["command"]](t, opts, Path(opts.get("out-dir", ".")))
            except CohortNetError as exc:  # the CLI would exit non-zero here
                errors.append((step, exc))
    return errors


def probe(t: Tracer, cohort_path: Path, partition_path: Path) -> None:
    """Calls outside the CLI order: one edge betweenness of the undivided view,
    and ``MODULARITY_REPEATS`` modularity calls on it."""
    with t.span("probe"):
        cohort = iof.load_cohort(cohort_path.read_bytes())
        view = model.symmetrize(cohort.network, model.SymmetrizeRule.UNION)
        partition = iof.parse_partition_csv(partition_path.read_bytes())
        t.call("community.edge_betweenness", community.edge_betweenness, view)
        for _ in range(MODULARITY_REPEATS):
            t.call("community.modularity", community.modularity, view, partition)


def layer_medians(t: Tracer) -> dict[str, float]:
    """Median over passes of each span's per-pass self time (``<name>_s``) and counter."""
    per_pass = t.self_times()
    passes = sorted(set(per_pass) | set(t.counts))
    spans = {n for p in per_pass.values() for n in p}
    counters = {n for c in t.counts.values() for n in c}
    out = {f"{n}_s": statistics.median(per_pass[p].get(n, 0.0) for p in passes) for n in spans}
    out.update({n: statistics.median(t.counts[p].get(n, 0.0) for p in passes) for n in counters})
    return out


def command_seconds(t: Tracer) -> dict[int, float]:
    """Per pass: the summed duration of the replayed CLI commands (probes excluded)."""
    out: dict[int, float] = defaultdict(float)
    for s in t.spans:
        if s["parent"] is None and s["name"].startswith("cmd."):
            out[s["pass"]] += s["end"] - s["start"]
    return out
