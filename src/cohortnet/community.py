"""Girvan-Newman divisive community detection with modularity selection.

The divisive loop removes the undirected edge with the highest geodesic
edge betweenness, recomputing betweenness after every removal, until no
edges remain. Each time the removal splits a component, the resulting
partition is snapshotted together with its modularity Q, computed against
the original (undivided) view so the whole curve is mutually comparable.

Q follows the Newman-Girvan definition: Q = sum_c (e_cc - a_c^2), where
e_cc is the fraction of edges with both endpoints in cluster c and a_c is
the fraction of edge endpoints attached to c.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .centrality import _shortest_path_dag
from .errors import DataError, EmptyEdgeSet, EmptyTrace, UnassignedNode
from .model import UndirectedView, _components

DEFAULT_K_MAX = 15


@dataclass(frozen=True)
class Partition:
    """Node -> cluster assignment with dense cluster ids 0..k-1."""

    assignment: dict[int, int]
    k: int
    q: float | None = None

    def __post_init__(self) -> None:
        if not self.assignment:
            raise DataError("a partition needs at least one node")
        used = set(self.assignment.values())
        if used != set(range(self.k)):
            raise DataError(
                f"cluster ids must be exactly 0..{self.k - 1}, got {sorted(used)}"
            )

    def clusters(self) -> list[set[int]]:
        out: list[set[int]] = [set() for _ in range(self.k)]
        for node, cid in self.assignment.items():
            out[cid].add(node)
        return out


def partition_from_blocks(blocks: list[set[int]], q: float | None = None) -> Partition:
    """Number blocks by ascending smallest member so ids are reproducible."""
    ordered = sorted(blocks, key=min)
    assignment = {node: cid for cid, block in enumerate(ordered) for node in block}
    return Partition(assignment=assignment, k=len(ordered), q=q)


@dataclass(frozen=True)
class DivisionStep:
    removed_edge: tuple[int, int]
    component_count: int
    partition: Partition | None  # set when the removal split a component


@dataclass(frozen=True)
class DivisionTrace:
    initial: Partition | None  # None only for an edgeless view
    steps: tuple[DivisionStep, ...]

    def snapshots(self) -> list[Partition]:
        snaps = [self.initial] if self.initial is not None else []
        snaps.extend(s.partition for s in self.steps if s.partition is not None)
        return snaps


@dataclass(frozen=True)
class ModularityCurve:
    points: tuple[tuple[int, float], ...]  # (k, Q), k strictly increasing


def edge_betweenness(view: UndirectedView) -> dict[tuple[int, int], float]:
    """Geodesic betweenness per edge, each unordered node pair counted once."""
    members = sorted(view.nodes)
    adjacency = {v: view.adjacency[v] for v in members}
    return _edge_betweenness_subset(members, adjacency)


def _edge_betweenness_subset(
    members: list[int], adjacency: Mapping[int, frozenset[int] | set[int]]
) -> dict[tuple[int, int], float]:
    """Brandes-style edge accumulation restricted to ``members``.

    ``members`` must be closed under ``adjacency`` (e.g. a connected
    component, or a whole view).
    """
    idx = {v: i for i, v in enumerate(members)}
    nbrs = [sorted(idx[w] for w in adjacency[v]) for v in members]
    n = len(members)
    eb: dict[tuple[int, int], float] = {}
    for i, row in enumerate(nbrs):
        for j in row:
            if i < j:
                eb[(i, j)] = 0.0
    for s in range(n):
        seen, sigma, preds = _shortest_path_dag(s, nbrs)
        delta = [0.0] * n
        for w in reversed(seen):
            if w == s:
                continue
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                c = sigma[v] * coeff
                eb[(v, w) if v < w else (w, v)] += c
                delta[v] += c
    # every unordered pair was counted from both endpoints
    return {(members[i], members[j]): val / 2.0 for (i, j), val in eb.items()}


def modularity(view: UndirectedView, p: Partition) -> float:
    """Newman-Girvan Q of ``p`` on ``view``."""
    m = len(view.edges)
    if m == 0:
        raise EmptyEdgeSet("modularity is undefined on an empty edge set")
    assignment = p.assignment
    for v in view.nodes:
        if v not in assignment:
            raise UnassignedNode(f"node {v} has no cluster assignment")
    intra = [0] * p.k
    degree_sum = [0] * p.k
    for v, nbrs in view.adjacency.items():
        degree_sum[assignment[v]] += len(nbrs)
    for u, v in view.edges:
        if assignment[u] == assignment[v]:
            intra[assignment[u]] += 1
    two_m = 2.0 * m
    return sum(intra[c] / m - (degree_sum[c] / two_m) ** 2 for c in range(p.k))


def girvan_newman(view: UndirectedView, *, stop_at_k: int | None = None) -> DivisionTrace:
    """Divisive trace of repeated highest-edge-betweenness removals.

    Ties on the betweenness maximum are broken by the lexicographically
    smallest edge (min endpoint id, then max endpoint id), which makes the
    trace deterministic. ``stop_at_k`` optionally halts the division once
    the partition has that many clusters; by default the loop runs until no
    edges remain.
    """
    if not view.edges:
        return DivisionTrace(initial=None, steps=())

    def scored(blocks: list[set[int]]) -> Partition:
        p = partition_from_blocks(blocks)
        return Partition(assignment=p.assignment, k=p.k, q=modularity(view, p))

    adjacency: dict[int, set[int]] = {v: set(view.adjacency[v]) for v in view.nodes}
    blocks = _components(view.nodes, adjacency)
    initial = scored(blocks)

    comp_members: dict[int, list[int]] = {}
    # per-component cache: (edge betweenness map, max value, tie-broken edge)
    eb_cache: dict[int, tuple[dict[tuple[int, int], float], float, tuple[int, int]]] = {}
    next_cid = 0
    for block in blocks:
        comp_members[next_cid] = sorted(block)
        next_cid += 1

    def refresh(cid: int) -> None:
        members = comp_members[cid]
        if not any(adjacency[v] for v in members):
            eb_cache.pop(cid, None)
            return
        eb = _edge_betweenness_subset(members, adjacency)
        best_edge = min(eb, key=lambda e: (-eb[e], e))
        eb_cache[cid] = (eb, eb[best_edge], best_edge)

    for cid in list(comp_members):
        refresh(cid)

    steps: list[DivisionStep] = []
    count = len(comp_members)
    if stop_at_k is not None and count >= stop_at_k:
        return DivisionTrace(initial=initial, steps=())

    while eb_cache:
        target_cid, (_, _, edge) = max(
            eb_cache.items(), key=lambda item: (item[1][1], (-item[1][2][0], -item[1][2][1]))
        )
        u, v = edge
        adjacency[u].discard(v)
        adjacency[v].discard(u)

        # does the component survive the removal?
        members = comp_members[target_cid]
        reached = {u}
        frontier = [u]
        while frontier:
            x = frontier.pop()
            for w in adjacency[x]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        snapshot: Partition | None = None
        if v in reached:
            refresh(target_cid)
        else:
            rest = [x for x in members if x not in reached]
            comp_members[target_cid] = sorted(reached)
            comp_members[next_cid] = rest
            refresh(target_cid)
            refresh(next_cid)
            next_cid += 1
            count += 1
            snapshot = scored([set(ms) for ms in comp_members.values()])
        steps.append(DivisionStep(removed_edge=edge, component_count=count, partition=snapshot))
        if stop_at_k is not None and count >= stop_at_k:
            break
    return DivisionTrace(initial=initial, steps=tuple(steps))


def best_partition(
    view: UndirectedView, trace: DivisionTrace, k_max: int = DEFAULT_K_MAX
) -> tuple[Partition, ModularityCurve]:
    """Highest-Q snapshot with k <= k_max; ties go to the smallest k."""
    all_snaps = trace.snapshots()
    snaps = [p for p in all_snaps if p.k <= k_max]
    if not snaps:
        if all_snaps:
            raise EmptyTrace(
                f"the undivided view already has {all_snaps[0].k} components, "
                f"more than k_max={k_max}"
            )
        raise EmptyTrace("the trace has no partition snapshots (edgeless view)")
    best = snaps[0]
    for p in snaps[1:]:  # snapshots come in ascending k, so strict > keeps ties small
        assert p.q is not None and best.q is not None
        if p.q > best.q:
            best = p
    curve = ModularityCurve(points=tuple((p.k, p.q) for p in snaps))  # type: ignore[misc]
    return best, curve
