import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cohortnet import (
    InterventionPolicy,
    Partition,
    PerfClass,
    Role,
    SymmetrizeRule,
    cluster_performance,
    plan_intervention,
    predicted_group_profile,
    symmetrize,
)
from cohortnet.errors import AnalysisError, DataError, UsageError
from cohortnet.io_formats import plan_csv, plan_report

from conftest import mknet
from oracles import plan_intervention_ref


def example_case(keep):
    """Two High triads plus one Low pair with a reciprocal tie."""
    net = mknet([(1, 2), (2, 1), (4, 5), (5, 4), (7, 8), (8, 7), (3, 7)],
                nodes=set(range(1, 9)))
    p = Partition(assignment={1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1, 7: 2, 8: 2}, k=3)
    marks = {1: 80, 2: 82, 3: 78, 4: 75, 5: 77, 6: 79, 7: 50, 8: 52}
    policy = InterventionPolicy(max_group=6, keep_low_subgroups=keep)
    return net, p, marks, policy


class TestPlanExamples:
    def test_all_high_is_identity(self):
        net = mknet([(1, 2), (3, 4)], nodes={1, 2, 3, 4})
        p = Partition(assignment={1: 0, 2: 0, 3: 1, 4: 1}, k=2)
        marks = {1: 90, 2: 85, 3: 88, 4: 91}
        plan = plan_intervention(net, p, marks, InterventionPolicy())
        assert [set(g.members) for g in plan.groups] == [{1, 2}, {3, 4}]
        assert all(r is Role.PRESERVED for g in plan.groups for r in g.roles.values())

    def test_reciprocal_pair_kept_together(self):
        plan = plan_intervention(*example_case(keep=True))
        assert [set(g.members) for g in plan.groups] == [{1, 2, 3, 7, 8}, {4, 5, 6}]
        g0 = plan.groups[0]
        assert g0.roles[7] is Role.DISPERSED and g0.roles[8] is Role.DISPERSED
        assert g0.roles[1] is Role.PRESERVED

    def test_singletons_balanced_across_groups(self):
        plan = plan_intervention(*example_case(keep=False))
        assert [set(g.members) for g in plan.groups] == [{1, 2, 3, 7}, {4, 5, 6, 8}]

    def test_average_cluster_untouched(self):
        net = mknet([(7, 8), (8, 7)], nodes=set(range(1, 9)))
        p = Partition(assignment={1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2, 8: 2}, k=3)
        marks = {1: 90, 2: 88, 3: 65, 4: 64, 5: 66, 6: 63, 7: 40, 8: 45}
        plan = plan_intervention(net, p, marks, InterventionPolicy(max_group=10))
        by_anchor = {g.anchor_cluster: g for g in plan.groups}
        assert set(by_anchor[1].members) == {3, 4, 5, 6}
        assert by_anchor[1].anchor_perf is PerfClass.AVERAGE
        assert set(by_anchor[0].members) == {1, 2, 7, 8}  # only High group receives

    def test_no_high_cluster_refused(self):
        net = mknet([], nodes={1, 2})
        p = Partition(assignment={1: 0, 2: 1}, k=2)
        with pytest.raises(AnalysisError, match="no cluster mean reaches high_t=70.0"):
            plan_intervention(net, p, {1: 50, 2: 55}, InterventionPolicy())

    def test_missing_mark(self):
        net = mknet([], nodes={1, 2})
        p = Partition(assignment={1: 0, 2: 0}, k=1)
        with pytest.raises(DataError, match="node 2 has no mark"):
            plan_intervention(net, p, {1: 80}, InterventionPolicy())

    def test_bad_policy_thresholds(self):
        with pytest.raises(UsageError, match="need low_t < high_t, got 60 >= 60"):
            InterventionPolicy(high_t=60, low_t=60)

    def test_oversized_unit_overflows_smallest_group(self):
        net = mknet(
            [(10, 11), (11, 10), (11, 12), (12, 11), (12, 13), (13, 12)],
            nodes={1, 2, 3, 10, 11, 12, 13},
        )
        p = Partition(
            assignment={1: 0, 2: 0, 3: 0, 10: 1, 11: 1, 12: 1, 13: 1}, k=2
        )
        marks = {1: 90, 2: 85, 3: 88, 10: 40, 11: 42, 12: 44, 13: 41}
        plan = plan_intervention(net, p, marks, InterventionPolicy(max_group=5))
        assert len(plan.groups) == 1
        assert plan.groups[0].overflow
        assert set(plan.groups[0].members) == {1, 2, 3, 10, 11, 12, 13}
        assert plan.notes

    def test_profile_counts(self):
        plan = plan_intervention(*example_case(keep=True))
        marks = example_case(keep=True)[2]
        profiles = predicted_group_profile(plan, marks)
        assert profiles[0].size == 5
        assert profiles[0].dispersed == 2
        assert profiles[0].high_origin == 3
        assert profiles[0].mean_mark == pytest.approx((80 + 82 + 78 + 50 + 52) / 5)
        assert profiles[1].dispersed == 0

    def test_profile_missing_mark(self):
        plan = plan_intervention(*example_case(keep=True))
        marks = {v: m for v, m in example_case(keep=True)[2].items() if v != 7}
        with pytest.raises(DataError, match="node 7 has no mark"):
            predicted_group_profile(plan, marks)

    def test_profile_simple_mean(self):
        net = mknet([], nodes={1, 2})
        p = Partition(assignment={1: 0, 2: 1}, k=2)
        marks = {1: 80, 2: 40}
        plan = plan_intervention(net, p, marks, InterventionPolicy(max_group=2))
        profiles = predicted_group_profile(plan, marks)
        merged = [pr for pr in profiles if pr.size == 2]
        assert merged and merged[0].mean_mark == pytest.approx(60.0)
        assert merged[0].dispersed == 1


@st.composite
def cohort_cases(draw):
    n = draw(st.integers(6, 40))
    k = draw(st.integers(2, 6))
    nodes = list(range(n))
    assignment = {v: draw(st.integers(0, k - 1)) for v in nodes}
    used = sorted(set(assignment.values()))
    dense = {c: i for i, c in enumerate(used)}
    assignment = {v: dense[c] for v, c in assignment.items()}
    k = len(used)
    marks = {}
    for v in nodes:
        if assignment[v] == 0:
            marks[v] = float(draw(st.integers(80, 100)))  # guaranteed High cluster
        else:
            marks[v] = float(draw(st.integers(20, 100)))
    pair_pool = [(a, b) for a in nodes for b in nodes if a != b]
    edges = draw(st.sets(st.sampled_from(pair_pool), max_size=3 * n))
    reciprocal = draw(st.sets(st.sampled_from(pair_pool), max_size=n))
    for a, b in reciprocal:
        edges |= {(a, b), (b, a)}
    net = mknet(sorted(edges), nodes=set(nodes))
    policy = InterventionPolicy(
        max_group=draw(st.integers(2, n)),
        keep_low_subgroups=draw(st.booleans()),
    )
    return net, Partition(assignment=assignment, k=k), marks, policy


@settings(max_examples=120, deadline=None)
@given(cohort_cases())
def test_plan_invariants(case):
    net, p, marks, policy = case
    plan = plan_intervention(net, p, marks, policy)

    # the groups partition the cohort
    placed = [m for g in plan.groups for m in g.members]
    assert len(placed) == len(set(placed)) == len(p.assignment)

    perfs = cluster_performance(p, marks, policy.high_t, policy.low_t)
    by_class = {c.cluster: c.perf for c in perfs}
    group_of = {m: g.index for g in plan.groups for m in g.members}

    # High (and Average) clusters stay together
    for c in perfs:
        if c.perf is not PerfClass.LOW:
            assert len({group_of[m] for m in c.members}) == 1

    # reciprocal co-placement inside Low clusters
    if policy.keep_low_subgroups:
        inter = symmetrize(net, SymmetrizeRule.INTERSECTION)
        for a, b in inter.edges:
            if (
                p.assignment[a] == p.assignment[b]
                and by_class[p.assignment[a]] is PerfClass.LOW
            ):
                assert group_of[a] == group_of[b]

    # only High groups receive, and capacity is respected unless flagged
    for g in plan.groups:
        if any(r is Role.DISPERSED for r in g.roles.values()):
            assert g.anchor_perf is PerfClass.HIGH
        if g.anchor_perf is PerfClass.HIGH and not g.overflow:
            started = sum(1 for r in g.roles.values() if r is Role.PRESERVED)
            assert len(g.members) <= max(policy.max_group, started)

    # deterministic, byte for byte
    again = plan_intervention(net, p, marks, policy)
    assert again == plan
    assert plan_csv(again) == plan_csv(plan)


@settings(max_examples=120, deadline=None)
@given(cohort_cases())
def test_recipient_balance_bounded_by_largest_unit(case):
    net, p, marks, policy = case
    plan = plan_intervention(net, p, marks, policy)
    receivers = [
        g for g in plan.groups
        if any(r is Role.DISPERSED for r in g.roles.values())
    ]
    if not receivers:
        return
    unit_sizes = []
    perfs = cluster_performance(p, marks, policy.high_t, policy.low_t)
    inter = symmetrize(net, SymmetrizeRule.INTERSECTION)
    for c in perfs:
        if c.perf is not PerfClass.LOW:
            continue
        if policy.keep_low_subgroups:
            unit_sizes += [len(u) for u in inter.induced(c.members).components()]
        else:
            unit_sizes += [1] * len(c.members)
    sizes = [len(g.members) for g in receivers]
    assert max(sizes) - min(sizes) <= max(unit_sizes)


@st.composite
def planner_cases(draw):
    """Any network, partition, marks and policy, a High cluster or none: each cluster's
    marks come from a high, middling or low band, and the thresholds vary."""
    n = draw(st.integers(1, 30))
    nodes = list(range(n))
    assignment = {v: draw(st.integers(0, 5)) for v in nodes}
    dense = {c: i for i, c in enumerate(sorted(set(assignment.values())))}
    assignment = {v: dense[c] for v, c in assignment.items()}
    bands = [draw(st.sampled_from([(75, 100), (50, 80), (20, 65)])) for _ in dense]
    marks = {v: float(draw(st.integers(*bands[assignment[v]]))) for v in nodes}
    pair_pool = [(a, b) for a in nodes for b in nodes if a != b]
    ties = st.sets(st.sampled_from(pair_pool), max_size=2 * n) if pair_pool else st.just(set())
    edges = draw(ties)
    for a, b in draw(ties):  # reciprocal pairs, which keep_low_subgroups keeps together
        edges |= {(a, b), (b, a)}
    low_t = draw(st.integers(40, 75))
    max_group = draw(st.integers(1, n + 2))
    policy = InterventionPolicy(
        high_t=draw(st.integers(low_t + 1, 85)),
        low_t=low_t,
        min_group=draw(st.integers(1, max_group)),
        max_group=max_group,
        keep_low_subgroups=draw(st.booleans()),
    )
    return mknet(sorted(edges), nodes=set(nodes)), Partition(assignment, len(dense)), marks, policy


@settings(max_examples=200, deadline=None)
@given(planner_cases())
def test_plan_matches_frozen_planner(case):
    marks = case[2]
    try:
        expected = plan_intervention_ref(*case)
    except AnalysisError as exc:
        event("refused: no High cluster")
        with pytest.raises(AnalysisError) as refused:
            plan_intervention(*case)
        assert str(refused.value) == str(exc)
        return
    plan = plan_intervention(*case)
    event(f"overflow: {any(g.overflow for g in plan.groups)}")
    event(f"min_group note: {any('min_group' in note for note in plan.notes)}")
    assert plan == expected
    assert plan_csv(plan) == plan_csv(expected)
    assert (plan_report(plan, predicted_group_profile(plan, marks), "s5")
            == plan_report(expected, predicted_group_profile(expected, marks), "s5"))
