"""networkx as an independent oracle at sizes the path-enumeration oracles cannot reach.

The frozen copies in ``oracles.py`` pin the library to its own earlier code;
networkx shares no code with either, so a defect both copies carry (a block
of sources left out of the fold, say) shows up here.
"""

import pytest

from cohortnet import (
    Mode,
    SymmetrizeRule,
    betweenness,
    closeness,
    edge_betweenness,
    generate_demo_cohort,
    girvan_newman,
    modularity,
    partition_from_blocks,
    symmetrize,
)

from conftest import mknet
from oracles import planted_community_edges

nx = pytest.importorskip("networkx")

RTOL = 1e-9  # perfbench/checks.py's tolerance for the same comparison


def _demo(seed):
    cohort, planted = generate_demo_cohort(seed)
    return cohort.network, planted


def _planted(seed, n):
    nodes, edges = planted_community_edges(seed=seed, n=n)
    net = mknet(edges, nodes)
    return net, partition_from_blocks(
        [{v for v in nodes if v // 7 == b} for b in range(-(-n // 7))])


# 1, 2 and 7 blocks of 64 sources
CASES = {"planted30": lambda: _planted(30, 30), "demo7": lambda: _demo(7),
         "planted400": lambda: _planted(400, 400)}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    """A connected network of 30-400 nodes, its union view, a partition, and networkx copies."""
    net, partition = CASES[request.param]()
    view = symmetrize(net, SymmetrizeRule.UNION)
    directed = nx.DiGraph()
    directed.add_nodes_from(net.nodes)
    directed.add_edges_from(net.edges)
    undirected = nx.Graph()
    undirected.add_nodes_from(view.nodes)
    undirected.add_edges_from(view.edges)
    return net, view, partition, directed, undirected


def test_node_betweenness(case):
    net, _, _, directed, undirected = case
    for mode, graph in ((Mode.DIRECTED, directed), (Mode.UNDIRECTED, undirected)):
        expected = nx.betweenness_centrality(graph, normalized=False)
        assert betweenness(net, mode).scores == pytest.approx(expected, rel=RTOL)


def test_edge_betweenness(case):
    _, view, _, _, undirected = case
    expected = {(min(e), max(e)): x for e, x in
                nx.edge_betweenness_centrality(undirected, normalized=False).items()}
    assert edge_betweenness(view) == pytest.approx(expected, rel=RTOL)


def test_closeness(case):
    net, _, _, _, undirected = case
    assert closeness(net).scores == pytest.approx(nx.closeness_centrality(undirected), rel=1e-12)


def test_modularity(case):
    _, view, partition, _, undirected = case
    for p in (partition, partition_from_blocks([set(view.nodes)])):
        expected = nx.community.modularity(undirected, p.clusters())
        assert modularity(view, p) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", [7, 11])
def test_each_girvan_newman_removal_is_a_maximum(seed):
    # networkx ranks the edges of the graph as it stands before each removal
    view = symmetrize(generate_demo_cohort(seed)[0].network, SymmetrizeRule.UNION)
    graph = nx.Graph(view.edges)
    for step in girvan_newman(view, stop_at_k=15).steps:
        eb = {(min(e), max(e)): x for e, x in
              nx.edge_betweenness_centrality(graph, normalized=False).items()}
        top, runner_up = sorted(eb.values(), reverse=True)[:2]
        if top - runner_up > RTOL * top:
            assert step.removed_edge == max(eb, key=eb.get)
        else:  # a near-tie: which of the tied edges goes waits for ROADMAP item 1
            assert eb[step.removed_edge] == pytest.approx(top, rel=RTOL)
        graph.remove_edge(*step.removed_edge)
