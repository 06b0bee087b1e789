"""Every output of the three benchmark workloads, pinned byte for byte.

The test runs the step lists of ``perfbench/run.py``'s workloads at seed 7 in
process, in a temporary working directory with relative paths, and compares
each command's exit code, stdout hash and stderr hash, and every file's
sha256, with ``workload_manifest.json``. It reads ``perfbench/`` and edits
nothing there. Betweenness forks its workers when more than one CPU is
usable, so the same test under ``taskset -c 0`` checks that one CPU writes
the same bytes as all of them.

To print the entries this CPython writes, run

    PYTHONPATH=src python3 tests/test_workload_bytes.py EMPTY_DIR
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import logging
import os
import sys
from pathlib import Path

from cohortnet.centrality import _usable_cpus
from cohortnet.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("workload_manifest.json")
SEED = 7


def _perfbench_run():
    bench = ROOT / "perfbench"
    if str(bench) not in sys.path:  # run.py imports checks and cohortgen
        sys.path.insert(0, str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv):
    """[exit code, stdout sha256, stderr sha256] of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    root = logging.getLogger()
    saved = root.handlers[:]
    root.handlers.clear()  # so the CLI's logging.basicConfig binds this command's stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        root.handlers[:] = saved
    return [code, _sha(out.getvalue().encode()), _sha(err.getvalue().encode())]


def run_workloads():
    """Run every workload at SEED in the working directory; return its entries."""
    bench = _perfbench_run()
    entries = {}
    for name, workload in sorted(bench.WORKLOADS.items()):
        inp, out = Path(name, "input"), Path(name, "pass")
        inp.mkdir(parents=True)
        if workload.setup is bench._setup_demo:  # it starts a child in the checkout
            argv = ["demo", "--seed", str(SEED + 1), "--out-dir", str(inp / "cohort_b")]
            entries[f"{name} $ {' '.join(argv)}"] = _run(argv)
        else:
            workload.setup(inp, SEED)
        for step in workload.steps(inp, out, SEED):
            entries[f"{name} $ {' '.join(step.argv)}"] = _run(list(step.argv))
        for path in sorted(Path(name).rglob("*")):
            if path.is_file():
                entries[path.as_posix()] = _sha(path.read_bytes())
    return entries


def test_workload_outputs_match_manifest(tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("COHORTNET_")]:
        monkeypatch.delenv(key)
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.chdir(tmp_path)
    got = run_workloads()
    assert got == json.loads(MANIFEST.read_text())
    # gn400_cli's division loop and central800_cli's betweenness fork on two CPUs or more
    assert bool(forks) == (_usable_cpus() > 1)


if __name__ == "__main__":
    os.chdir(sys.argv[1])
    print(json.dumps(run_workloads(), indent=1, sort_keys=True))
