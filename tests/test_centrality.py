import os
import random

import pytest
from hypothesis import given, settings

from cohortnet import (
    Mode,
    centrality,
    betweenness,
    closeness,
    degree,
    eigenvector,
    rank_representatives,
    symmetrize,
    SymmetrizeRule,
)
from cohortnet.errors import AnalysisError

from conftest import mknet, symmetric_cases, symmetric_network
from oracles import node_betweenness_brute
from strategies import directed_networks


class TestBetweenness:
    def test_directed_path(self):
        scores = betweenness(mknet([(1, 2), (2, 3)]), Mode.DIRECTED).scores
        assert scores == {1: 0.0, 2: 1.0, 3: 0.0}

    def test_undirected_four_cycle(self):
        # brute force over all geodesics: each node carries half of the one
        # opposite pair routed through it
        net = mknet([(1, 2), (2, 3), (3, 4), (4, 1)])
        scores = betweenness(net, Mode.UNDIRECTED).scores
        assert scores == {v: pytest.approx(0.5) for v in (1, 2, 3, 4)}

    def test_undirected_star_center(self):
        # C(4,2) = 6 leaf pairs, all through the center
        net = mknet([(0, 1), (0, 2), (0, 3), (0, 4)])
        scores = betweenness(net, Mode.UNDIRECTED).scores
        assert scores[0] == pytest.approx(6.0)
        assert all(scores[v] == 0.0 for v in (1, 2, 3, 4))

    def test_complete_graph_all_zero(self):
        edges = [(a, b) for a in range(5) for b in range(5) if a != b]
        net = mknet(edges)
        assert all(v == 0.0 for v in betweenness(net, Mode.DIRECTED).scores.values())
        assert all(v == 0.0 for v in betweenness(net, Mode.UNDIRECTED).scores.values())

    @settings(max_examples=60, deadline=None)
    @given(directed_networks(max_nodes=7))
    def test_matches_brute_force_directed(self, net):
        fast = betweenness(net, Mode.DIRECTED).scores
        slow = node_betweenness_brute(net.nodes, net.edges, directed=True)
        for v in net.nodes:
            assert fast[v] == pytest.approx(slow[v], abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(directed_networks(max_nodes=7))
    def test_matches_brute_force_undirected(self, net):
        fast = betweenness(net, Mode.UNDIRECTED).scores
        undirected = {(min(a, b), max(a, b)) for a, b in net.edges}
        slow = node_betweenness_brute(net.nodes, undirected, directed=False)
        for v in net.nodes:
            assert fast[v] == pytest.approx(slow[v], abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(directed_networks(max_nodes=7))
    def test_total_mass_matches_oracle(self, net):
        # the summed scores equal the oracle's interior-vertex mass over all
        # reachable ordered pairs at distance >= 2
        fast = betweenness(net, Mode.DIRECTED).scores
        slow = node_betweenness_brute(net.nodes, net.edges, directed=True)
        assert sum(fast.values()) == pytest.approx(sum(slow.values()), abs=1e-9)


class TestCloseness:
    def test_path(self):
        scores = closeness(mknet([(1, 2), (2, 3)])).scores
        assert scores[2] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(2 / 3)
        assert scores[3] == pytest.approx(2 / 3)

    def test_disconnected_refused(self):
        with pytest.raises(AnalysisError, match="2 components"):
            closeness(mknet([(1, 2), (3, 4)]))

    def test_complete_graph(self):
        edges = [(a, b) for a in range(4) for b in range(4) if a < b]
        scores = closeness(mknet(edges)).scores
        assert all(s == pytest.approx(1.0) for s in scores.values())

    def test_single_node_scores_zero(self):
        assert closeness(mknet([], nodes={1})).scores == {1: 0.0}


class TestEigenvector:
    def test_triangle_symmetry(self):
        scores = eigenvector(mknet([(1, 2), (2, 3), (3, 1)])).scores
        assert all(s == pytest.approx(1.0, abs=1e-8) for s in scores.values())

    def test_directed_input_warned(self):
        result = eigenvector(mknet([(1, 2), (2, 3)]))
        assert result.warnings

    def test_reciprocal_input_not_warned(self):
        result = eigenvector(mknet([(1, 2), (2, 1)]))
        assert not result.warnings

    def test_path_scores(self):
        # dominant eigenvector of the 3-path is (1, sqrt(2), 1)
        scores = eigenvector(mknet([(1, 2), (2, 3)])).scores
        assert scores[2] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(0.7071067811865475, abs=1e-8)
        assert scores[3] == pytest.approx(0.7071067811865475, abs=1e-8)

    def test_empty_edge_set(self):
        with pytest.raises(AnalysisError, match="eigenvector centrality needs at least one edge"):
            eigenvector(mknet([], nodes={1, 2}))

    def test_max_score_is_one(self):
        result = eigenvector(mknet([(1, 2), (2, 3), (1, 4), (4, 2)]))
        assert max(result.scores.values()) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(directed_networks(max_nodes=7))
    def test_relabel_invariance(self, net):
        if not net.edges:
            return
        base = eigenvector(net).scores
        shift = 100
        relabeled = mknet([(a + shift, b + shift) for a, b in net.edges],
                          nodes={v + shift for v in net.nodes})
        moved = eigenvector(relabeled).scores
        for v in net.nodes:
            assert moved[v + shift] == pytest.approx(base[v], abs=1e-8)


class TestDegree:
    def test_single_edge(self):
        result = degree(mknet([(1, 2)]))
        assert result.out_scores[1] == 1 and result.in_scores[2] == 1
        assert result.out_scores[2] == 0 and result.in_scores[1] == 0

    def test_isolated_node(self):
        result = degree(mknet([], nodes={7}))
        assert result.scores[7] == 0.0

    def test_reciprocal_pair_total(self):
        result = degree(mknet([(1, 2), (2, 1)]))
        assert result.scores == {1: 2.0, 2: 2.0}


class TestRankRepresentatives:
    def test_directed_path_tie_break(self):
        net = mknet([(1, 2), (2, 3), (3, 4)])
        assert rank_representatives(net, 2) == [2, 3]

    def test_star_center(self):
        net = mknet([(1, 0), (2, 0), (0, 3), (0, 4)])
        assert rank_representatives(net, 1) == [0]

    def test_edgeless_smallest_id(self):
        assert rank_representatives(mknet([], nodes={5, 3, 9}), 1) == [3]

    def test_k_too_large(self):
        with pytest.raises(AnalysisError, match=r"k=3 outside 1\.\.2"):
            rank_representatives(mknet([(1, 2)]), 3)

    @pytest.mark.parametrize("name", symmetric_cases(
        {"heawood", "pappus", "desargues", "moebius_kantor", "cubical", "dodecahedral"}))
    def test_symmetric_graph_ranks_ascending_ids(self, name):
        # the float sums pick: heawood [12, 2, 3], pappus [14, 16, 17], desargues [0, 5, 8],
        # moebius_kantor [0, 1, 3], cubical [1, 2, 3], dodecahedral [5, 10, 2]
        assert rank_representatives(symmetric_network(name), 3) == [0, 1, 2]

    def test_deterministic(self):
        rng = random.Random(42)
        edges = {(rng.randrange(12), rng.randrange(12)) for _ in range(40)}
        edges = [(a, b) for a, b in edges if a != b]
        net = mknet(edges, nodes=set(range(12)))
        first = rank_representatives(net, 5)
        for _ in range(3):
            assert rank_representatives(net, 5) == first


class TestUsableCpus:
    """A cgroup v2 CPU quota caps the CPUs the Brandes passes fork for."""

    @pytest.mark.parametrize("cpu_max, expected", [
        ("max 100000\n", 4),
        ("150000 100000\n", 1),
        ("200000 100000\n", 2),
        ("50000 100000\n", 1),  # under one CPU: never below 1
        ("800000 100000\n", 4),  # above the affinity mask: the mask caps it
        (None, 4),  # no file, as on cgroup v1
    ])
    def test_quota_caps_the_affinity_mask(self, monkeypatch, tmp_path, cpu_max, expected):
        path = tmp_path / "cpu.max"
        if cpu_max is not None:
            path.write_text(cpu_max)
        monkeypatch.setattr(centrality, "CPU_MAX_PATH", str(path))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert centrality._usable_cpus() == expected
