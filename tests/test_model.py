import pytest
from hypothesis import given, settings

from cohortnet import (
    Student,
    SymmetrizeRule,
    build_network,
    symmetrize,
)
from cohortnet.errors import DataError

from conftest import mknet
from strategies import directed_networks


def roster(*ids):
    return [Student(id=i) for i in ids]


class TestBuildNetwork:
    def test_basic_construction(self):
        net = build_network(roster(1, 2, 3), [(1, 2), (2, 1)], "f5")
        assert len(net.nodes) == 3
        assert len(net.edges) == 2
        assert net.label == "f5"

    def test_self_loop_rejected(self):
        with pytest.raises(DataError, match=r"self-nomination \(1, 1\) is not allowed"):
            build_network(roster(1, 2), [(1, 1)], "t")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DataError, match=r"nomination \(1, 2\) appears more than once"):
            build_network(roster(1, 2), [(1, 2), (1, 2)], "t")

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(DataError, match="edge target 9 is not in the roster"):
            build_network(roster(1, 2), [(1, 9)], "t")
        with pytest.raises(DataError, match="edge source 9 is not in the roster"):
            build_network(roster(1, 2), [(9, 1)], "t")

    def test_duplicate_roster_id_rejected(self):
        with pytest.raises(DataError, match="student id 1 appears more than once in the roster"):
            build_network(roster(1, 1), [], "t")

    def test_invalid_mark_rejected(self):
        with pytest.raises(DataError, match=r"mark 105\.0 outside \[0, 100\]"):
            Student(id=1, marks={"s5": 105.0})

    def test_negative_id_rejected(self):
        with pytest.raises(DataError, match="student id -1 must be non-negative"):
            Student(id=-1)


class TestSymmetrize:
    def test_union_single_edge(self):
        view = symmetrize(mknet([(1, 2)]), SymmetrizeRule.UNION)
        assert view.edges == frozenset({(1, 2)})

    def test_intersection_single_edge_empty(self):
        view = symmetrize(mknet([(1, 2)]), SymmetrizeRule.INTERSECTION)
        assert view.edges == frozenset()

    def test_intersection_reciprocal_pair(self):
        view = symmetrize(mknet([(1, 2), (2, 1)]), SymmetrizeRule.INTERSECTION)
        assert view.edges == frozenset({(1, 2)})


def weak_components(net):
    return symmetrize(net, SymmetrizeRule.UNION).components()


class TestWeakComponents:
    def test_edge_plus_isolated(self):
        comps = weak_components(mknet([(1, 2)], nodes={3}))
        assert comps == [{1, 2}, {3}]

    def test_all_isolated(self):
        comps = weak_components(mknet([], nodes={1, 2, 3, 4}))
        assert comps == [{1}, {2}, {3}, {4}]

    def test_two_directed_triangles(self):
        comps = weak_components(
            mknet([(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
        )
        assert comps == [{1, 2, 3}, {4, 5, 6}]

    def test_ordering_size_then_min_id(self):
        comps = weak_components(mknet([(5, 6)], nodes={1, 2}))
        assert comps == [{5, 6}, {1}, {2}]


@settings(max_examples=80)
@given(directed_networks())
def test_intersection_subset_of_union(net):
    union = symmetrize(net, SymmetrizeRule.UNION)
    inter = symmetrize(net, SymmetrizeRule.INTERSECTION)
    assert inter.edges <= union.edges
    assert inter.nodes == union.nodes == net.nodes


@settings(max_examples=80)
@given(directed_networks())
def test_weak_components_partition_nodes(net):
    comps = weak_components(net)
    seen = set()
    for comp in comps:
        assert not comp & seen
        seen |= comp
    assert seen == set(net.nodes)


@settings(max_examples=80)
@given(directed_networks())
def test_reciprocity_one_iff_views_equal(net):
    reciprocal = all((t, s) in net.edges for s, t in net.edges)
    union = symmetrize(net, SymmetrizeRule.UNION)
    inter = symmetrize(net, SymmetrizeRule.INTERSECTION)
    assert reciprocal == (union.edges == inter.edges)
