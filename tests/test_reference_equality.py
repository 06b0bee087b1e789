"""Optimized graph code against frozen references.

The references in ``oracles`` are the loops as they stood before they were
optimized or rewritten. Every comparison is exact: a change that reorders a
floating-point addition fails here, even when the change is in the last bit.
"""

import pytest
from hypothesis import given, settings

from cohortnet import (
    Mode,
    SymmetrizeRule,
    best_partition,
    betweenness,
    edge_betweenness,
    eigenvector,
    girvan_newman,
    symmetrize,
)
from cohortnet.community import _edge_betweenness_subset
from cohortnet.errors import EmptyEdgeSet, EmptyTrace, NoConvergence

from conftest import mknet, mkview
from oracles import (
    best_partition_ref,
    brandes_ref,
    edge_betweenness_subset_ref,
    girvan_newman_ref,
    index_adjacency_ref,
    planted_community_edges,
    power_iteration_ref,
)
from strategies import directed_networks, undirected_views


def _betweenness_ref(net, mode):
    order = sorted(net.nodes)
    if mode is Mode.DIRECTED:
        raw = brandes_ref(order, index_adjacency_ref(order, net.out_adjacency))
    else:
        union = symmetrize(net, SymmetrizeRule.UNION).adjacency
        raw = [x / 2.0 for x in brandes_ref(order, index_adjacency_ref(order, union))]
    return dict(zip(order, raw))


def _assert_betweenness_exact(net):
    for mode in Mode:
        assert betweenness(net, mode).scores == _betweenness_ref(net, mode)


def _assert_edge_betweenness_exact(view):
    members = sorted(view.nodes)
    assert edge_betweenness(view) == edge_betweenness_subset_ref(members, view.adjacency)
    # the division loop calls the kernel per component, on mutable adjacency sets
    adjacency = {v: set(view.adjacency[v]) for v in view.nodes}
    for comp in view.components():
        ms = sorted(comp)
        assert _edge_betweenness_subset(ms, adjacency) == edge_betweenness_subset_ref(
            ms, adjacency
        )


def _assert_eigenvector_exact(view):
    order = sorted(view.nodes)
    expected = power_iteration_ref(index_adjacency_ref(order, view.adjacency))
    if not view.edges:
        with pytest.raises(EmptyEdgeSet):
            eigenvector(view)
    elif expected is None:
        with pytest.raises(NoConvergence):
            eigenvector(view)
    else:
        assert eigenvector(view).scores == dict(zip(order, expected))


@settings(max_examples=150, deadline=None)
@given(directed_networks(max_nodes=16))
def test_node_betweenness_matches_reference(net):
    _assert_betweenness_exact(net)


@settings(max_examples=150, deadline=None)
@given(undirected_views(max_nodes=16))
def test_edge_betweenness_matches_reference(view):
    _assert_edge_betweenness_exact(view)


@settings(max_examples=100, deadline=None)
@given(undirected_views(max_nodes=16))
def test_power_iteration_matches_reference(view):
    _assert_eigenvector_exact(view)


def test_planted_communities_n400_match_reference():
    nodes, edges = planted_community_edges(seed=400)
    net = mknet(edges, nodes)
    view = symmetrize(net, SymmetrizeRule.UNION)
    assert len(view.components()) == 1
    _assert_betweenness_exact(net)
    _assert_edge_betweenness_exact(view)
    _assert_eigenvector_exact(view)


def _selection(view, trace, k_max, select):
    try:
        return select(view, trace, k_max)
    except EmptyTrace as exc:
        return str(exc)


def _assert_division_exact(view, stop_at_k=None):
    trace = girvan_newman(view, stop_at_k=stop_at_k)
    assert trace == girvan_newman_ref(view, stop_at_k=stop_at_k)
    for k_max in range(1, min(len(view.nodes), 16) + 2):
        expected = _selection(view, trace, k_max, best_partition_ref)
        assert _selection(view, trace, k_max, best_partition) == expected


def _cycle(n, start=0):
    return [(start + i, start + (i + 1) % n) for i in range(n)]


TIE_HEAVY = {
    "edgeless": mkview([], nodes={3, 1, 2}),
    "single_edge_plus_isolated": mkview([(4, 9)], nodes={0, 7}),
    "cycle_9": mkview(_cycle(9)),
    "two_equal_cycles": mkview(_cycle(6) + _cycle(6, start=10)),
    "complete_6": mkview([(a, b) for a in range(6) for b in range(a + 1, 6)]),
    "grid_4x4": mkview(
        [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
        + [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)]
    ),
    "petersen": mkview(_cycle(5) + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
    # best Q reached at several k: k=1, 2 on the first; k=2, 3, 4 on the second
    "q_tie_cycle_4": mkview(_cycle(4)),
    "q_tie_k2_k3_k4": mkview([(0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (2, 6), (4, 5)]),
    "star_and_path": mkview([(0, i) for i in range(1, 6)] + [(10, 11), (11, 12)]),
}


@pytest.mark.parametrize("name", sorted(TIE_HEAVY))
def test_division_loop_matches_reference_on_tie_heavy_views(name):
    view = TIE_HEAVY[name]
    _assert_division_exact(view)
    _assert_division_exact(view, stop_at_k=3)


@settings(max_examples=100, deadline=None)
@given(undirected_views(max_nodes=12))
def test_division_loop_matches_reference(view):
    _assert_division_exact(view)


def test_division_loop_planted_n400_matches_reference():
    nodes, edges = planted_community_edges(seed=401)
    view = symmetrize(mknet(edges, nodes), SymmetrizeRule.UNION)
    _assert_division_exact(view, stop_at_k=15)
