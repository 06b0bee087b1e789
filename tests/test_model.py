import logging

import pytest
from hypothesis import given, settings

from cohortnet import (
    Student,
    SymmetrizeRule,
    build_network,
    pendant_vertices,
    reciprocity_rate,
    symmetrize,
    weak_components,
)
from cohortnet.errors import (
    DuplicateEdge,
    DuplicateId,
    EmptyEdgeSet,
    InvalidId,
    InvalidMark,
    SelfLoop,
    UnknownId,
)

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
        with pytest.raises(SelfLoop):
            build_network(roster(1, 2), [(1, 1)], "t")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_network(roster(1, 2), [(1, 2), (1, 2)], "t")

    def test_duplicate_edge_deduped_with_flag(self, caplog):
        with caplog.at_level(logging.WARNING):
            net = build_network(roster(1, 2), [(1, 2), (1, 2)], "t", dedupe=True)
        assert net.edges == frozenset({(1, 2)})
        assert any("duplicate nomination" in r.message for r in caplog.records)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownId, match="edge target 9 is not in the roster"):
            build_network(roster(1, 2), [(1, 9)], "t")
        with pytest.raises(UnknownId, match="edge source 9 is not in the roster"):
            build_network(roster(1, 2), [(9, 1)], "t")

    def test_duplicate_roster_id_rejected(self):
        with pytest.raises(DuplicateId):
            build_network(roster(1, 1), [], "t")

    def test_invalid_mark_rejected(self):
        with pytest.raises(InvalidMark):
            Student(id=1, marks={"s5": 105.0})

    def test_negative_id_rejected(self):
        with pytest.raises(InvalidId):
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


class TestPendantVertices:
    def test_path(self):
        net = mknet([(1, 2), (2, 1), (2, 3), (3, 2)])
        assert pendant_vertices(net) == {1, 3}

    def test_triangle(self):
        net = mknet([(1, 2), (2, 3), (3, 1)])
        assert pendant_vertices(net) == set()

    def test_star(self):
        net = mknet([(0, 1), (0, 2), (0, 3)])
        assert pendant_vertices(net) == {1, 2, 3}


class TestReciprocity:
    def test_fully_reciprocal(self):
        assert reciprocity_rate(mknet([(1, 2), (2, 1)])) == 1.0

    def test_one_way(self):
        assert reciprocity_rate(mknet([(1, 2)])) == 0.0

    def test_two_thirds(self):
        assert reciprocity_rate(mknet([(1, 2), (2, 1), (1, 3)])) == pytest.approx(2 / 3)

    def test_empty_edge_set(self):
        with pytest.raises(EmptyEdgeSet):
            reciprocity_rate(mknet([], nodes={1}))


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
    if not net.edges:
        return
    rate = reciprocity_rate(net)
    union = symmetrize(net, SymmetrizeRule.UNION)
    inter = symmetrize(net, SymmetrizeRule.INTERSECTION)
    assert (rate == 1.0) == (union.edges == inter.edges)
