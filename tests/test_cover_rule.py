"""The coverage rule ("every node has a mark; every node has a cluster") lives in
model._check_cover alone; every site refuses with its one text, which lists
each uncovered node in ascending order."""

import re

import pytest

from cohortnet import AssignmentPlan, Partition, PerfClass, PlanGroup, Role, Student, make_cohort
from cohortnet.cli import main
from cohortnet.community import modularity
from cohortnet.errors import DataError
from cohortnet.intervention import predicted_group_profile
from cohortnet.io_formats import check_coverage, save_cohort
from cohortnet.stats import cluster_performance
from conftest import mknet, mkview

NODES = range(1, 7)
EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]
MARKS = {v: 60.0 + v for v in NODES if v not in (5, 2)}  # nodes 5 and 2 have none
CLUSTERS = {v: v % 2 for v in NODES if v not in (5, 2)}  # nodes 5 and 2 have none
EVERYONE = Partition(assignment={v: v % 2 for v in NODES}, k=2)
PLAN = AssignmentPlan(groups=(
    PlanGroup(0, 0, PerfClass.HIGH, tuple(NODES), dict.fromkeys(NODES, Role.PRESERVED)),))


@pytest.mark.parametrize("call, message", [
    (lambda: make_cohort([Student(id=v, marks={"s5": MARKS[v]} if v in MARKS else {})
                          for v in NODES], EDGES, "t").marks_for("s5"),
     "no s5 mark for node(s) [2, 5]"),
    (lambda: check_coverage(mknet(EDGES), Partition(assignment=CLUSTERS, k=2), None),
     "no cluster for node(s) [2, 5]"),
    (lambda: check_coverage(mknet(EDGES), None, MARKS), "no mark for node(s) [2, 5]"),
    (lambda: cluster_performance(EVERYONE, MARKS), "no mark for node(s) [2, 5]"),
    (lambda: predicted_group_profile(PLAN, MARKS), "no mark for node(s) [2, 5]"),
    (lambda: modularity(mkview(EDGES), Partition(assignment=CLUSTERS, k=2)),
     "no cluster for node(s) [2, 5]"),
], ids=["marks_for", "check_coverage-cluster", "check_coverage-mark", "cluster_performance",
        "predicted_group_profile", "modularity"])
def test_library_site_names_every_uncovered_node(call, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("command", [
    ["classify"], ["plan"], ["report"], ["export", "--semester", "s5"],
], ids=["classify", "plan", "report", "export"])
def test_cli_refuses_a_student_without_the_semester(tmp_path, capsys, command):
    students = [Student(id=v, marks={} if v == 3 else {"s5": 80.0}) for v in NODES]
    (tmp_path / "c.json").write_bytes(save_cohort(make_cohort(students, EDGES, "t")))
    out = tmp_path / "out"
    assert main([command[0], str(tmp_path / "c.json"), *command[1:],
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr() == ("", "data error: no s5 mark for node(s) [3]\n")
    assert not out.exists()
