"""Import cost: the CLI loads only what a command runs, and the lazy package namespace."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohortnet

SRC = Path(__file__).resolve().parents[1] / "src"

NOT_LOADED_BY_CLI_IMPORT = (
    "cohortnet.centrality", "cohortnet.community", "cohortnet.intervention",
    "cohortnet.stats", "cohortnet.demo",
    "statistics", "decimal", "fractions", "xml.etree.ElementTree",
)


def loaded_modules(code: str, cwd: Path) -> set[str]:
    """The names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"],
        cwd=cwd, env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return set(done.stdout.split())


# betweenness forks its workers with os.fork; no pool module is needed
PROCESS_POOLS = {"multiprocessing", "concurrent.futures"}

# The records are NamedTuples and logging is imported only where a warning is
# emitted, so no command that does not warn loads these.
START_UP_COSTS = {"dataclasses", "inspect", "logging"}

QUICK_START = (
    ["demo", "--out-dir", "out"],
    ["ingest", "--roster", "out/roster.csv", "--edges", "out/edges.csv",
     "--out", "out/cohort.json"],
    ["analyze", "out/cohort.json", "--communities", "--k-max", "15", "--out-dir", "out"],
    ["analyze", "out/cohort.json", "--measure", "betweenness", "--top", "3", "--out-dir", "out"],
    ["classify", "out/cohort.json", "--partition", "out/partition.csv", "--out-dir", "out"],
    ["plan", "out/cohort.json", "--partition", "out/partition.csv", "--out-dir", "out"],
    ["report", "out/cohort.json", "--out-dir", "out"],
    ["export", "out/cohort.json", "--format", "dot", "--semester", "s5",
     "--partition", "out/partition.csv", "--out-dir", "out"],
    ["export", "out/cohort.json", "--format", "graphml", "--out-dir", "out"],
)


def test_cli_import_skips_analysis_modules(tmp_path):
    loaded = loaded_modules("import cohortnet.cli", tmp_path)
    assert "cohortnet.cli" in loaded
    assert sorted(loaded & (set(NOT_LOADED_BY_CLI_IMPORT) | PROCESS_POOLS)) == []


def test_quick_start_loads_no_start_up_costs(tmp_path):
    # what a bare interpreter loads (site hooks, say) is not the program's doing
    ours = START_UP_COSTS - loaded_modules("pass", tmp_path)
    assert sorted(loaded_modules("import cohortnet.cli", tmp_path) & ours) == []
    for argv in QUICK_START:
        loaded = loaded_modules(
            f"from cohortnet.cli import main\nassert main({argv!r}) == 0", tmp_path
        )
        assert (argv[0], sorted(loaded & ours)) == (argv[0], [])


def run_cli(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "cohortnet", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=60)


def test_dedupe_warning_on_stderr(tmp_path):
    (tmp_path / "r.csv").write_text("id,gender,mark_s5\n1,M,80\n2,F,55\n")
    (tmp_path / "e.csv").write_text("source,target\n1,2\n1,2\n")
    done = run_cli(["ingest", "--roster", "r.csv", "--edges", "e.csv", "--dedupe",
                    "--out", "c.json"], tmp_path)
    assert done.returncode == 0
    assert done.stderr == b"WARNING: duplicate nomination (1, 2) ignored\n"


def test_eigenvector_warning_on_stderr(tmp_path):
    (tmp_path / "c.json").write_text(
        '{"label": "t", "edges": [[1, 2], [2, 1], [2, 3]], "students": ['
        '{"id": 1, "gender": "M", "marks": {}}, {"id": 2, "gender": "F", "marks": {}}, '
        '{"id": 3, "gender": "F", "marks": {}}]}'
    )
    done = run_cli(["analyze", "c.json", "--measure", "eigenvector", "--out-dir", "out"],
                   tmp_path)
    assert done.returncode == 0
    assert done.stderr == (
        b"WARNING: network contains non-reciprocal ties; scores were computed on the "
        b"union-symmetrized view and may not reflect the directed structure\n"
    )
    assert (tmp_path / "out" / "centrality_eigenvector.csv").is_file()


def test_communities_load_no_process_pool(tmp_path):
    # one 150-node component: large enough for the kernel to fork its workers
    n = 150
    cohort = {"label": "t", "edges": [[i, (i + 1) % n] for i in range(n)],
              "students": [{"id": i, "gender": "F", "marks": {}} for i in range(n)]}
    (tmp_path / "c.json").write_text(json.dumps(cohort))
    loaded = loaded_modules(
        "from cohortnet.cli import main\n"
        "assert main(['analyze', 'c.json', '--communities', '--k-max', '3', "
        "'--out-dir', 'out']) == 0",
        tmp_path,
    )
    assert "cohortnet.community" in loaded
    assert sorted(loaded & PROCESS_POOLS) == []
    assert (tmp_path / "out" / "partition.csv").is_file()


def test_ingest_runs_without_analysis_modules(tmp_path):
    (tmp_path / "r.csv").write_text("id,gender,mark_s5\n1,M,80\n2,F,55\n")
    (tmp_path / "e.csv").write_text("source,target\n1,2\n")
    loaded = loaded_modules(
        "from cohortnet.cli import main\n"
        "assert main(['ingest', '--roster', 'r.csv', '--edges', 'e.csv', '--out', 'c.json']) == 0",
        tmp_path,
    )
    assert sorted(loaded & set(NOT_LOADED_BY_CLI_IMPORT)) == []
    assert (tmp_path / "c.json").is_file()


@pytest.mark.parametrize("command", [
    ["export", "c.json", "--partition", "p.csv", "--out-dir", "out"],
    ["classify", "c.json", "--partition", "p.csv", "--out-dir", "out"],
])
def test_given_partition_loads_no_graph_analysis(tmp_path, command):
    (tmp_path / "c.json").write_text(
        '{"label": "t", "edges": [[1, 2]], "students": ['
        '{"id": 1, "gender": "M", "marks": {"s5": 80.0}}, '
        '{"id": 2, "gender": "F", "marks": {"s5": 55.0}}]}'
    )
    (tmp_path / "p.csv").write_text("node,cluster\n1,0\n2,1\n")
    loaded = loaded_modules(
        f"from cohortnet.cli import main\nassert main({command!r}) == 0", tmp_path
    )
    assert sorted(loaded & {"cohortnet.community", "cohortnet.centrality"}) == []


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(cohortnet)
    for name in cohortnet.__all__:
        assert getattr(cohortnet, name) is not None
        assert name in listed
    assert cohortnet.__version__


def test_model_enums_resolve_without_centrality(tmp_path):
    # Measure and Mode live in model; centrality would also load threading and signal
    bare = loaded_modules("pass", tmp_path)
    loaded = loaded_modules("from cohortnet import Measure, Mode", tmp_path)
    assert "cohortnet.model" in loaded
    assert sorted((loaded - bare) & {"cohortnet.centrality", "threading", "signal"}) == []


def test_kmax_sweep_script_runs(tmp_path):
    # the script resolves its names through the lazy package namespace
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, str(SRC.parent / "scripts" / "kmax_sweep.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "planted communities: 12"
    assert "  k_max= 15  ->  k= 11, Q=0.8316" in lines
    assert "rule=intersection (163 undirected edges)" in lines


def test_benchmark_replay_names_resolve():
    # perfbench/traced.py replays the CLI through the library; a name it reads
    # that was renamed or deleted would otherwise fail only a benchmark run
    tree = ast.parse((SRC.parent / "perfbench" / "traced.py").read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cohortnet")]
    modules = {alias.asname or alias.name: f"cohortnet.{alias.name}"
               for node in imports if node.module == "cohortnet" for alias in node.names}
    names = [(node.module, alias.name)
             for node in imports if node.module != "cohortnet" for alias in node.names]
    names += sorted({(modules[node.value.id], node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in modules})
    assert ("cohortnet.intervention", "InterventionPolicy") in names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_submodule_import_through_package():
    from cohortnet import Mode, centrality

    assert centrality.Mode is Mode


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(cohortnet, "no_such_name")
    assert not hasattr(cohortnet, "no_such_name")
