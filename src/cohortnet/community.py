"""Girvan-Newman divisive community detection with modularity selection.

The divisive loop removes the undirected edge with the highest geodesic
edge betweenness, recomputing betweenness after every removal, until no
edges remain. Each time the removal splits a component, the resulting
partition is snapshotted. Selection scores each snapshot it may pick by its
modularity Q against the original (undivided) view, so the curve is comparable.

Q follows the Newman-Girvan definition: Q = sum_c (e_cc - a_c^2), where
e_cc is the fraction of edges with both endpoints in cluster c and a_c is
the fraction of edge endpoints attached to c.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import NamedTuple

from .centrality import _fold_sources, _index_adjacency, _shortest_path_dag, top_k
from .errors import AnalysisError
from .model import Partition, UndirectedView, _check_cover, _components, partition_from_blocks


class DivisionStep(NamedTuple):
    removed_edge: tuple[int, int]
    component_count: int
    partition: Partition | None  # set when the removal split a component


class DivisionTrace(NamedTuple):
    initial: Partition | None  # None only for an edgeless view
    steps: tuple[DivisionStep, ...]

    def snapshots(self) -> list[Partition]:
        snaps = [self.initial] if self.initial is not None else []
        snaps.extend(s.partition for s in self.steps if s.partition is not None)
        return snaps


def edge_betweenness(view: UndirectedView) -> dict[tuple[int, int], float]:
    """Geodesic betweenness per edge, each unordered node pair counted once."""
    return _edge_betweenness_subset(sorted(view.nodes), view.adjacency)


def _edge_betweenness_subset(
    members: list[int], adjacency: Mapping[int, Iterable[int]]
) -> dict[tuple[int, int], float]:
    """Brandes-style edge accumulation restricted to ``members``.

    ``members`` must be closed under ``adjacency`` (e.g. a connected
    component, or a whole view).
    """
    nbrs = _index_adjacency(members, adjacency)
    n = len(members)
    edges = [(i, j) for i, row in enumerate(nbrs) for j in row if i < j]
    edge_id: list[dict[int, int]] = [{} for _ in range(n)]  # edge_id[w][v]: id of {v, w}
    for k, (i, j) in enumerate(edges):
        edge_id[i][j] = edge_id[j][i] = k

    def add_contributions(lo: int, hi: int, acc: list[float]) -> None:
        # a BFS from s reaches each edge from one end at most, so it adds to each edge once
        for s in range(lo, hi):
            seen, sigma, preds = _shortest_path_dag(s, nbrs)
            delta = [0.0] * n
            for w in seen[:0:-1]:  # reverse BFS order, the source itself excluded
                coeff = (1.0 + delta[w]) / sigma[w]
                ids = edge_id[w]
                for v in preds[w]:
                    c = sigma[v] * coeff
                    acc[ids[v]] += c
                    delta[v] += c

    eb = _fold_sources(n, len(edges), add_contributions)
    # every unordered pair was counted from both endpoints
    return {(members[i], members[j]): val / 2.0 for (i, j), val in zip(edges, eb)}


def modularity(view: UndirectedView, p: Partition) -> float:
    """Newman-Girvan Q of ``p`` on ``view``, correctly rounded."""
    m = len(view.edges)
    if m == 0:
        raise AnalysisError("modularity is undefined on an empty edge set")
    assignment = p.assignment
    _check_cover(view.nodes, assignment, "cluster")
    inside = 0
    ends = [0] * p.k  # each cluster's degree sum
    for u, v in view.edges:
        cu, cv = assignment[u], assignment[v]
        ends[cu] += 1
        ends[cv] += 1
        if cu == cv:
            inside += 1
    # Q over the shared denominator 4m^2: one int/int division, so equal Q are equal floats
    return (4 * m * inside - sum(e * e for e in ends)) / (4 * m * m)


def girvan_newman(view: UndirectedView, *, stop_at_k: int | None = None) -> DivisionTrace:
    """Divisive trace of repeated highest-edge-betweenness removals.

    Each component's top edge and the removal among those leaders are both
    chosen by ``top_k``: highest betweenness, ties to the lexicographically
    smallest edge, which makes the trace deterministic. ``stop_at_k``
    optionally halts the division once the partition has that many
    clusters; by default the loop runs until no edges remain.
    """
    if not view.edges:
        return DivisionTrace(initial=None, steps=())

    adjacency: dict[int, set[int]] = {v: set(view.adjacency[v]) for v in view.nodes}
    blocks = _components(view.nodes, adjacency)
    initial = partition_from_blocks(blocks)

    comp_members = dict(enumerate(sorted(block) for block in blocks))
    comp_of = {v: cid for cid, members in comp_members.items() for v in members}
    leaders: dict[tuple[int, int], float] = {}  # each component's top edge and its value

    def refresh(members: list[int]) -> None:
        if any(adjacency[v] for v in members):
            eb = _edge_betweenness_subset(members, adjacency)
            [edge] = top_k(eb, 1)
            leaders[edge] = eb[edge]

    steps: list[DivisionStep] = []
    count = len(comp_members)  # component ids are 0..count-1
    limit = len(view.nodes) if stop_at_k is None else stop_at_k  # n singletons: no edge left
    if count < limit:
        for members in comp_members.values():
            refresh(members)
    while leaders:
        [edge] = top_k(leaders, 1)
        del leaders[edge]
        u, v = edge
        adjacency[u].discard(v)
        adjacency[v].discard(u)

        # does the component survive the removal?
        cid = comp_of[u]
        parts = _components(comp_members[cid], adjacency)
        snapshot: Partition | None = None
        if len(parts) > 1:
            comp_members[cid], comp_members[count] = (sorted(p) for p in parts)
            comp_of.update(dict.fromkeys(comp_members[count], count))
            count += 1
            snapshot = partition_from_blocks(comp_members.values())
        steps.append(DivisionStep(removed_edge=edge, component_count=count, partition=snapshot))
        if count >= limit:  # no removal follows, so the parts' leaders are never read
            break
        if snapshot is not None:
            refresh(comp_members[count - 1])
        refresh(comp_members[cid])
    return DivisionTrace(initial=initial, steps=tuple(steps))


def best_partition(
    view: UndirectedView, trace: DivisionTrace, k_max: int
) -> tuple[Partition, dict[int, float]]:
    """Highest-Q snapshot with k <= k_max, ties to the smallest k; only those are scored.

    Returns it and the curve ``{k: Q}`` of the scored snapshots, in ascending k.
    """
    all_snaps = trace.snapshots()
    snaps = [p for p in all_snaps if p.k <= k_max]
    if not snaps:
        if all_snaps:
            raise AnalysisError(
                f"the undivided view already has {all_snaps[0].k} components, "
                f"more than k_max={k_max}"
            )
        raise AnalysisError("the trace has no partition snapshots (edgeless view)")
    qs = [modularity(view, p) for p in snaps]
    # snapshots come in ascending k and index finds the first maximum, so ties go to the smaller k
    best = snaps[qs.index(max(qs))]
    return best, {p.k: q for p, q in zip(snaps, qs)}
