"""The record types' contract: keyword construction, field-wise ==, immutability,
validation on construction, cached properties and defaults that are not shared."""

import contextlib
import re
from pathlib import Path

import pytest

from cohortnet import (
    AssignmentPlan,
    CentralityScores,
    ClusterPerformance,
    Cohort,
    DistributionSummary,
    DivisionStep,
    DivisionTrace,
    FriendshipNetwork,
    Gender,
    GroupComparison,
    GroupProfile,
    InterventionPolicy,
    Measure,
    Mode,
    ModularityCurve,
    Partition,
    PerfClass,
    PlanGroup,
    Role,
    RunConfig,
    Shape,
    Student,
    SymmetrizeRule,
    UndirectedView,
)
from cohortnet.errors import DataError, UsageError

PARTITION = {"assignment": {1: 0, 2: 1}, "k": 2, "q": 0.25}
NETWORK = {"label": "t", "nodes": frozenset({1, 2}), "edges": frozenset({(1, 2)})}
SUMMARY = {
    "n": 3, "mean": 70.0, "median": 70.0, "minimum": 60.0, "maximum": 80.0,
    "stddev": 10.0, "skew": 0.0, "shape": Shape.APPROX_SYMMETRIC, "bin_width": 5,
    "histogram": ((60.0, 1), (70.0, 1), (80.0, 1)),
}
PLAN_GROUP = {
    "index": 0, "anchor_cluster": 1, "anchor_perf": PerfClass.HIGH, "members": (1, 2),
    "roles": {1: Role.PRESERVED, 2: Role.DISPERSED}, "overflow": True,
}

# record type -> (keyword arguments, a field, another value for that field);
# InterventionPolicy is RunConfig under another name, so it has no entry of its own
RECORDS = {
    Student: ({"id": 1, "gender": Gender.FEMALE, "marks": {"s5": 80.0}}, "id", 2),
    FriendshipNetwork: (NETWORK, "label", "u"),
    UndirectedView: (
        {"nodes": frozenset({1, 2}), "edges": frozenset({(1, 2)}),
         "rule": SymmetrizeRule.UNION},
        "rule", SymmetrizeRule.INTERSECTION,
    ),
    Partition: (PARTITION, "q", 0.5),
    Cohort: (
        {"network": FriendshipNetwork(**NETWORK), "students": (Student(id=1), Student(id=2))},
        "students", (Student(id=1),),
    ),
    RunConfig: (
        {"high_t": 80.0, "low_t": 50.0, "k_max": 10, "bin_width": 10, "min_group": 2,
         "max_group": 20, "keep_low_subgroups": False,
         "symmetrize": SymmetrizeRule.INTERSECTION, "out_dir": Path("x")},
        "k_max", 11,
    ),
    CentralityScores: (
        {"measure": Measure.DEGREE, "mode": Mode.DIRECTED, "scores": {1: 2.0},
         "in_scores": {1: 1.0}, "out_scores": {1: 1.0}},
        "scores", {1: 3.0},
    ),
    DivisionStep: (
        {"removed_edge": (1, 2), "component_count": 2, "partition": Partition(**PARTITION)},
        "component_count", 3,
    ),
    DivisionTrace: (
        {"initial": Partition(**PARTITION),
         "steps": (DivisionStep(removed_edge=(1, 2), component_count=2, partition=None),)},
        "steps", (),
    ),
    ModularityCurve: ({"points": ((1, 0.0), (2, 0.25))}, "points", ((1, 0.0),)),
    DistributionSummary: (SUMMARY, "mean", 71.0),
    ClusterPerformance: (
        {"cluster": 0, "members": (1, 2), "mean_mark": 75.0, "perf": PerfClass.HIGH},
        "perf", PerfClass.LOW,
    ),
    GroupComparison: (
        {"summary_a": DistributionSummary(**SUMMARY), "summary_b": DistributionSummary(**SUMMARY),
         "mean_difference": 0.0},
        "mean_difference", 1.0,
    ),
    PlanGroup: (PLAN_GROUP, "overflow", False),
    AssignmentPlan: ({"groups": (PlanGroup(**PLAN_GROUP),), "notes": ("n",)}, "notes", ()),
    GroupProfile: (
        {"index": 0, "size": 2, "mean_mark": 75.0, "high_origin": 1, "dispersed": 1},
        "size", 3,
    ),
}
RECORD_NAMES = [cls.__name__ for cls in RECORDS]


def test_intervention_policy_is_the_run_config():
    assert InterventionPolicy is RunConfig


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_NAMES)
def test_keyword_construction(cls):
    kwargs, _, _ = RECORDS[cls]
    record = cls(**kwargs)
    assert {name: getattr(record, name) for name in kwargs} == kwargs


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_NAMES)
def test_equality_is_field_wise(cls):
    kwargs, name, other = RECORDS[cls]
    assert cls(**kwargs) == cls(**kwargs)
    assert cls(**kwargs) != cls(**{**kwargs, name: other})


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_NAMES)
def test_fields_cannot_be_reassigned(cls):
    kwargs, name, other = RECORDS[cls]
    record = cls(**kwargs)
    with pytest.raises(AttributeError):
        setattr(record, name, other)
    assert getattr(record, name) == kwargs[name]


@pytest.mark.parametrize("build, error, message", [
    (lambda: Student(id=-1), DataError, "student id -1 must be non-negative"),
    (lambda: Student(id=1, marks={"s5": 101.0}), DataError,
     "student 1, semester 's5': mark 101.0 outside [0, 100]"),
    (lambda: Student(id=True), DataError, "student id True is not an integer"),
    (lambda: Student(id=1, marks={"s5": True}), DataError,
     "student 1, semester 's5': mark True is not a number"),
    (lambda: Partition(assignment={}, k=0), DataError, "a partition needs at least one node"),
    (lambda: Partition(assignment={1: 0, 2: 2}, k=2), DataError,
     "cluster ids must be exactly 0..1, got [0, 2]"),
    (lambda: RunConfig(low_t=70.0, high_t=70.0), UsageError,
     "need low_t < high_t, got 70.0 >= 70.0"),
    (lambda: RunConfig(k_max=1), UsageError, "k_max must be >= 2, got 1"),
    (lambda: RunConfig(bin_width=0), UsageError, "bin_width must be >= 1, got 0"),
    (lambda: RunConfig(min_group=5, max_group=4), UsageError,
     "need 1 <= min_group <= max_group, got 5..4"),
    (lambda: InterventionPolicy(low_t=80.0, high_t=70.0), UsageError,
     "need low_t < high_t, got 80.0 >= 70.0"),
    (lambda: InterventionPolicy(min_group=0), UsageError,
     "need 1 <= min_group <= max_group, got 0..18"),
], ids=[
    "student-id", "student-mark", "student-bool-id", "student-bool-mark", "partition-empty", "partition-not-dense",
    "config-thresholds", "config-k-max", "config-bin-width", "config-group-size",
    "policy-thresholds", "policy-group-size",
])
def test_invalid_records_are_refused(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        build()
    assert caught.type is error


@pytest.mark.parametrize("record, name, value, error, message", [
    (Student(id=1), "id", -1, DataError, "student id -1 must be non-negative"),
    (Partition(**PARTITION), "k", 3, DataError, "cluster ids must be exactly 0..2"),
    (RunConfig(), "k_max", 1, UsageError, "k_max must be >= 2, got 1"),
    (InterventionPolicy(), "low_t", 90.0, UsageError, "need low_t < high_t, got 90.0 >= 70.0"),
], ids=["Student", "Partition", "RunConfig", "InterventionPolicy"])
def test_replace_checks_like_construction(record, name, value, error, message):
    with pytest.raises(error, match=re.escape(message)):
        record._replace(**{name: value})
    assert record._replace()._asdict() == record._asdict()


@pytest.mark.parametrize("build, prop", [
    (lambda: FriendshipNetwork(**NETWORK), "out_adjacency"),
    (lambda: UndirectedView(nodes=frozenset({1, 2, 3}), edges=frozenset({(1, 2)}),
                            rule=SymmetrizeRule.UNION), "adjacency"),
], ids=["out_adjacency", "adjacency"])
def test_cached_property_is_computed_once(build, prop):
    record = build()
    first = getattr(record, prop)
    assert getattr(record, prop) is first
    assert first  # computed from the fields, not an empty placeholder
    assert record == build()  # the cache takes no part in equality


def test_defaults_are_not_shared():
    first = Student(id=1)
    first.marks["s5"] = 50.0
    assert Student(id=2).marks == {}
    scores = CentralityScores(measure=Measure.DEGREE, mode=Mode.DIRECTED, scores={})
    with contextlib.suppress(AttributeError):  # an immutable default cannot be changed
        scores.warnings.append("w")
    again = CentralityScores(measure=Measure.DEGREE, mode=Mode.DIRECTED, scores={})
    assert len(again.warnings) == 0
