import ast
from pathlib import Path

import pytest
from hypothesis import given, settings

from cohortnet import (
    Partition,
    community,
    SymmetrizeRule,
    best_partition,
    edge_betweenness,
    generate_demo_cohort,
    girvan_newman,
    modularity,
    partition_from_blocks,
    symmetrize,
)
from cohortnet.errors import AnalysisError, DataError

from conftest import mkview, symmetric_cases, symmetric_network
from oracles import edge_betweenness_brute, girvan_newman_ref, modularity_brute
from strategies import undirected_views


def two_cliques(s, bridge=True):
    """Two s-cliques {0..s-1} and {s..2s-1}, optionally joined by one edge."""
    edges = [(a, b) for a in range(s) for b in range(a + 1, s)]
    edges += [(a + s, b + s) for a, b in list(edges)]
    if bridge:
        edges.append((s - 1, s))
    return mkview(edges)


class TestPartition:
    def test_dense_ids_enforced(self):
        with pytest.raises(DataError):
            Partition(assignment={1: 0, 2: 2}, k=3)

    def test_blocks_numbered_by_min_member(self):
        p = partition_from_blocks([{5, 6}, {1, 2}])
        assert p.assignment == {1: 0, 2: 0, 5: 1, 6: 1}


class TestEdgeBetweenness:
    def test_path(self):
        eb = edge_betweenness(mkview([(1, 2), (2, 3)]))
        assert eb == {(1, 2): pytest.approx(2.0), (2, 3): pytest.approx(2.0)}

    def test_single_edge(self):
        assert edge_betweenness(mkview([(1, 2)])) == {(1, 2): pytest.approx(1.0)}

    def test_barbell_bridge_strict_max(self, barbell_view):
        eb = edge_betweenness(barbell_view)
        bridge = eb.pop((2, 3))
        assert bridge == pytest.approx(9.0)  # 3x3 cross pairs all use the bridge
        assert all(bridge > v for v in eb.values())

    @settings(max_examples=60, deadline=None)
    @given(undirected_views(max_nodes=7))
    def test_matches_brute_force(self, view):
        fast = edge_betweenness(view)
        slow = edge_betweenness_brute(view.nodes, view.edges)
        assert set(fast) == set(slow)
        for e in fast:
            assert fast[e] == pytest.approx(slow[e], abs=1e-9)


class TestModularity:
    def test_single_cluster_is_zero(self):
        view = mkview([(1, 2), (2, 3), (3, 1), (1, 4)])
        p = Partition(assignment={v: 0 for v in view.nodes}, k=1)
        assert modularity(view, p) == pytest.approx(0.0, abs=1e-15)

    def test_two_disjoint_triangles(self):
        view = mkview([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        p = partition_from_blocks([{0, 1, 2}, {3, 4, 5}])
        assert modularity(view, p) == pytest.approx(0.5)

    def test_two_k5_plus_bridge(self):
        view = two_cliques(5)
        p = partition_from_blocks([set(range(5)), set(range(5, 10))])
        assert modularity(view, p) == pytest.approx(19 / 42)

    def test_empty_edge_set(self):
        view = mkview([], nodes={1, 2})
        with pytest.raises(AnalysisError, match="modularity is undefined on an empty edge set"):
            modularity(view, Partition(assignment={1: 0, 2: 0}, k=1))

    def test_unassigned_node(self):
        view = mkview([(1, 2)])
        with pytest.raises(DataError, match=r"^no cluster for node\(s\) \[2\]$"):
            modularity(view, Partition(assignment={1: 0}, k=1))

    @settings(max_examples=100, deadline=None)
    @given(undirected_views(max_nodes=8))
    def test_matches_rational_oracle(self, view):
        if not view.edges:
            return
        blocks = view.components()
        p = partition_from_blocks(blocks)
        got = modularity(view, p)
        want = modularity_brute(view.edges, p.assignment)
        assert got == float(want)

    @settings(max_examples=60, deadline=None)
    @given(undirected_views(max_nodes=7))
    def test_all_singletons_not_positive(self, view):
        if not view.edges:
            return
        p = partition_from_blocks([{v} for v in view.nodes])
        assert modularity(view, p) <= 1e-15


class TestGirvanNewman:
    def test_edgeless_empty_trace(self):
        trace = girvan_newman(mkview([], nodes={1, 2, 3}))
        assert trace.steps == () and trace.initial is None
        assert trace.snapshots() == []

    def test_barbell_bridge_removed_first(self, barbell_view):
        trace = girvan_newman(barbell_view)
        assert trace.steps[0].removed_edge == (2, 3)

    def test_path_tie_break_lexicographic(self):
        trace = girvan_newman(mkview([(1, 2), (2, 3)]))
        assert trace.steps[0].removed_edge == (1, 2)

    def test_deterministic(self, barbell_view):
        a = girvan_newman(barbell_view)
        b = girvan_newman(barbell_view)
        assert [s.removed_edge for s in a.steps] == [s.removed_edge for s in b.steps]

    @settings(max_examples=40, deadline=None)
    @given(undirected_views(max_nodes=7))
    def test_trace_invariants(self, view):
        trace = girvan_newman(view)
        removed = [s.removed_edge for s in trace.steps]
        assert len(removed) == len(view.edges)
        assert set(removed) == set(view.edges)
        counts = [s.component_count for s in trace.steps]
        assert counts == sorted(counts)
        if trace.steps:
            assert counts[-1] == len(view.nodes)

    @settings(max_examples=40, deadline=None)
    @given(undirected_views(max_nodes=7))
    def test_snapshots_are_nested_refinements(self, view):
        snaps = girvan_newman(view).snapshots()
        for earlier, later in zip(snaps, snaps[1:]):
            coarse = {frozenset(b) for b in earlier.clusters()}
            for block in later.clusters():
                assert any(block <= big for big in coarse)

    @pytest.mark.parametrize("name", symmetric_cases(
        {"heawood", "pappus", "desargues", "moebius_kantor", "dodecahedral"}))
    def test_symmetric_graph_first_removal_is_smallest_edge(self, name):
        # the float sums pick: heawood (3, 12), pappus (12, 17), desargues (0, 19),
        # moebius_kantor (0, 15), dodecahedral (1, 2)
        view = symmetrize(symmetric_network(name), SymmetrizeRule.UNION)
        assert girvan_newman(view, stop_at_k=2).steps[0].removed_edge == (0, 1)

    def test_stop_at_k_is_a_prefix(self, barbell_view):
        full = girvan_newman(barbell_view)
        stopped = girvan_newman(barbell_view, stop_at_k=2)
        assert stopped.steps == full.steps[: len(stopped.steps)]
        assert stopped.steps[-1].component_count == 2

    def test_stop_at_k_skips_the_last_refresh(self, monkeypatch, barbell_view):
        # the bridge's removal reaches k=2, so neither triangle's leader is needed
        kernel, calls = community._edge_betweenness_subset, []

        def counted(members, adjacency):
            calls.append(members)
            return kernel(members, adjacency)

        monkeypatch.setattr(community, "_edge_betweenness_subset", counted)
        trace = girvan_newman(barbell_view, stop_at_k=2)
        assert calls == [[0, 1, 2, 3, 4, 5]]
        assert trace == girvan_newman_ref(barbell_view, stop_at_k=2)


class TestBestPartition:
    def test_barbell(self, barbell_view):
        trace = girvan_newman(barbell_view)
        best, curve = best_partition(barbell_view, trace, k_max=15)
        assert best.k == 2
        assert curve[2] == pytest.approx(5 / 14, abs=1e-4)
        assert best.clusters() == [{0, 1, 2}, {3, 4, 5}]
        assert list(curve) == sorted(curve)

    def test_two_disjoint_triangles(self):
        view = mkview([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        best, curve = best_partition(view, girvan_newman(view), k_max=15)
        assert best.k == 2
        assert curve[2] == pytest.approx(0.5)

    def test_single_triangle_keeps_trivial_partition(self):
        view = mkview([(0, 1), (1, 2), (0, 2)])
        best, curve = best_partition(view, girvan_newman(view), k_max=15)
        assert best.k == 1
        assert curve[1] == pytest.approx(0.0, abs=1e-15)

    def test_empty_trace_refused(self):
        view = mkview([], nodes={1, 2})
        with pytest.raises(AnalysisError, match=r"no partition snapshots \(edgeless view\)"):
            best_partition(view, girvan_newman(view), k_max=15)

    @pytest.mark.parametrize("s", [4, 5, 6, 7, 8])
    def test_planted_two_cliques_recovered(self, s):
        view = two_cliques(s)
        best, _ = best_partition(view, girvan_newman(view), k_max=15)
        assert best.clusters() == [set(range(s)), set(range(s, 2 * s))]

    def test_exact_q_tie_goes_to_smaller_k(self):
        # k=3 and k=4 both have Q = 23/72; a float sum cluster by cluster put k=4 an ulp higher
        view = mkview([(0, 2), (0, 5), (0, 7), (1, 3), (2, 3), (2, 6)], nodes={4})
        best, curve = best_partition(view, girvan_newman(view), k_max=8)
        assert curve[3] == curve[4]
        assert best.k == 3

    def test_scores_only_the_snapshots_it_can_pick(self, monkeypatch):
        # Q exists once: girvan_newman only divides, best_partition scores each k <= k_max once
        real, scored = community.modularity, []

        def counted(view, p):
            scored.append(p.k)
            return real(view, p)

        monkeypatch.setattr(community, "modularity", counted)
        view = two_cliques(5)
        trace = girvan_newman(view)
        assert scored == []
        assert [p.k for p in trace.snapshots()] == list(range(1, 11))
        _, curve = best_partition(view, trace, k_max=4)
        assert scored == [1, 2, 3, 4]
        assert list(curve.items()) == [(p.k, real(view, p)) for p in trace.snapshots()[:4]]

    def test_partition_carries_no_q(self):
        assert Partition._fields == ("assignment", "k")

    def test_only_best_partition_calls_modularity(self):
        callers = set()
        for path in Path(community.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef):
                    callers.update(fn.name for node in ast.walk(fn)
                                   if isinstance(node, ast.Call)
                                   and getattr(node.func, "id", getattr(node.func, "attr", None))
                                   == "modularity")
        assert callers == {"best_partition"}

    @settings(max_examples=400, deadline=None)
    @given(undirected_views(max_nodes=12))
    def test_selects_smallest_k_of_highest_exact_q(self, view):
        if not view.edges:
            return
        trace = girvan_newman(view)
        exact = {p.k: modularity_brute(view.edges, p.assignment) for p in trace.snapshots()}
        top = max(exact.values())
        best, _ = best_partition(view, trace, k_max=len(view.nodes))
        assert best.k == min(k for k, q in exact.items() if q == top)


def pair_agreement(a, b):
    """Share of node pairs that ``a`` and ``b`` both put together or both apart."""
    nodes = sorted(a)
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    same = sum((a[u] == a[v]) == (b[u] == b[v]) for u, v in pairs)
    return same / len(pairs)


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 11])
def test_demo_communities_match_planted(seed):
    # the selected partition agrees with the 12 planted communities on 0.983-0.994 of pairs
    cohort, planted = generate_demo_cohort(seed)
    view = symmetrize(cohort.network, SymmetrizeRule.UNION)
    best, _ = best_partition(view, girvan_newman(view, stop_at_k=15), k_max=15)
    assert pair_agreement(planted.assignment, best.assignment) >= 0.98
