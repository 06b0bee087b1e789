"""Import cost: the CLI loads only what a command runs, and the lazy package namespace."""

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


def test_cli_import_skips_analysis_modules(tmp_path):
    loaded = loaded_modules("import cohortnet.cli", tmp_path)
    assert "cohortnet.cli" in loaded
    assert sorted(loaded & (set(NOT_LOADED_BY_CLI_IMPORT) | PROCESS_POOLS)) == []


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


def test_submodule_import_through_package():
    from cohortnet import Measure, centrality

    assert centrality.Measure is Measure


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(cohortnet, "no_such_name")
    assert not hasattr(cohortnet, "no_such_name")
