"""Optimized shortest-path and power-iteration code against frozen references.

The references in ``oracles`` are the loops as they stood before
optimization. Every comparison is exact: an optimization that reorders a
floating-point addition fails here, even when the change is in the last bit.
"""

import pytest
from hypothesis import given, settings

from cohortnet import Mode, betweenness, edge_betweenness, eigenvector, symmetrize
from cohortnet import SymmetrizeRule
from cohortnet.community import _edge_betweenness_subset
from cohortnet.errors import EmptyEdgeSet, NoConvergence

from conftest import mknet
from oracles import (
    brandes_ref,
    edge_betweenness_subset_ref,
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
        raw = [x / 2.0 for x in brandes_ref(order, index_adjacency_ref(order, net.union_adjacency))]
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
