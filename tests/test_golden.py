"""Golden output lock: sha256 of every artifact of the seed-7 demo pipeline.

A refactor or speed-up that changes no behaviour must leave every hash
below untouched. A deliberate behaviour change updates the table and says so.
"""

import hashlib

import pytest

from cohortnet.cli import main
from cohortnet.io_formats import export_adjacency, load_cohort

GOLDEN = {
    "roster.csv": "3f93a8cc68edff1b4bbee5059f82ead3cc25ddf15c45607e861156fbcf4bcd03",
    "edges.csv": "6a6275439e9049d776c34cd8041d192807595af1bd5248bb30c69636eba8775e",
    "cohort.json": "b364751cc058d2b872abc57fab3da457c4b6095b144b8e8cbf58d6923930da33",
    "ingested.json": "b364751cc058d2b872abc57fab3da457c4b6095b144b8e8cbf58d6923930da33",
    "modularity_curve.csv": "7083a70fa52ca9a20285735921c6df83ec3c8e9314aece3feaa821d1660c8428",
    "partition.csv": "da1a79d7c3a26bd9aa3f8177537d935ef223d55187e4946bd2ba0f5f30d21033",
    "centrality_betweenness.csv": "e953e6a33e63505a53e35207ede1a9ed85ada5fb64eaf377ff6f59763721cc04",
    "representatives.csv": "aeb31d8e6a8d68f6b9a63a2b384e7a8fbab089934a91b0ed767567909f73c3b1",
    "clusters.csv": "15ffdf4624933a624a07a9f570dd65c772646c4e3baac4595d1fc319c431aaa6",
    "plan.csv": "23465081a16530cdc5883dc26ed774e5684c300fcd747e7bab3e1978102f4188",
    "plan_report.txt": "a0b49675da42e5dfb81b6da766279388da31730da5d9433561f42a5c166f9b63",
    "summary_a.csv": "e8f40b8e24e08c0a3a5908de40e22d81a98e3421ceb4d923c8098e5584c67566",
    "histogram_a.csv": "f2c272e99ca6f1ad3e27f00917f606120e5c27a9e4ba2fc73f90ef2b011e6aeb",
    "report.txt": "8e8622dfc9878d5978adb2dbbef73bef39e8fd17e595ce03ee7f5354e8b57f54",
    "graph.dot": "5bef26d31f4993e52af5bd63aa7c184b06b3ea3cb7c9a6a76f66d6d096b5f54a",
    "graph.graphml": "dd2c81da3938de04b64d264b0776e9b1fd2e2783c4e4c82ca6005fc054f9e420",
}
# `analyze --measure closeness --top 3` on the same cohort. Closeness sums
# integer distances, so every supported CPython writes these bytes.
CLOSENESS_CSV = "4c9e2a3ec9d90c9b799b9d6b94832b54441febca97d54aa3a4592ef6dea394e0"
# `analyze --measure eigenvector`. The power iteration sums each row with
# math.fsum, which is correctly rounded, so every supported CPython writes these.
EIGENVECTOR_CSV = "66d1f01e12c42d0a8064437ba9c81919e76003f3aeda198ffa54ed6cf3aa49e0"


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def demo_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    d = ["--out-dir", str(out)]
    cohort = str(out / "cohort.json")
    partition = str(out / "partition.csv")
    assert main(["demo", "--seed", "7"] + d) == 0
    matrix = export_adjacency(load_cohort((out / "cohort.json").read_bytes()).network)
    (out / "adjacency_lf.csv").write_bytes(matrix)
    (out / "adjacency_crlf.csv").write_bytes(matrix.replace(b"\n", b"\r\n"))
    commands = [
        ["ingest", "--roster", str(out / "roster.csv"), "--edges", str(out / "edges.csv"),
         "--label", "demo", "--out", str(out / "ingested.json")],
        *(["ingest", "--roster", str(out / "roster.csv"),
           "--adjacency", str(out / f"adjacency_{eol}.csv"),
           "--label", "demo", "--out", str(out / f"ingested_{eol}.json")]
          for eol in ("lf", "crlf")),
        ["analyze", cohort, "--communities"],
        ["analyze", cohort, "--measure", "betweenness", "--top", "3"],
        ["classify", cohort, "--partition", partition],
        ["plan", cohort],
        ["report", cohort],
        ["export", cohort, "--format", "dot", "--semester", "s5", "--partition", partition],
        ["export", cohort, "--format", "graphml"],
    ]
    for argv in commands:
        assert main(argv + d) == 0, argv
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_hash(demo_out, name):
    assert _sha(demo_out / name) == GOLDEN[name]


@pytest.mark.parametrize("eol", ["lf", "crlf"])
def test_ingest_adjacency_matches_edge_list(demo_out, eol):
    # the demo's ties as an exported matrix: the same ties and label, the same file
    assert _sha(demo_out / f"ingested_{eol}.json") == GOLDEN["ingested.json"]


def test_top_with_closeness_keeps_representatives(demo_out, tmp_path):
    assert main(["analyze", str(demo_out / "cohort.json"), "--measure", "closeness",
                 "--top", "3", "--out-dir", str(tmp_path)]) == 0
    assert _sha(tmp_path / "representatives.csv") == GOLDEN["representatives.csv"]
    assert _sha(tmp_path / "centrality_closeness.csv") == CLOSENESS_CSV


def test_eigenvector_scores_are_pinned(demo_out, tmp_path):
    assert main(["analyze", str(demo_out / "cohort.json"), "--measure", "eigenvector",
                 "--out-dir", str(tmp_path)]) == 0
    assert _sha(tmp_path / "centrality_eigenvector.csv") == EIGENVECTOR_CSV
