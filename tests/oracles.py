"""Brute-force reference implementations, kept independent of the library.

Betweenness oracles enumerate every simple path between a node pair and
keep the shortest ones; modularity is evaluated straight from the edge
list in exact rational arithmetic. These deliberately share no code with
the fast paths they check. The frozen references at the end are copies of
earlier library loops, kept so optimized code can be held to exact equality;
the division-loop copy builds the library's result types so whole traces
compare with ==, and the matrix-parser copy reads its table with the
library's own CSV reader, so that only the cell checks differ. The GraphML
copy is the xml.etree writer whose bytes the text writer reproduces, and the
planner copy builds each group as a mutable draft before its PlanGroup record.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from fractions import Fraction
from types import SimpleNamespace

from cohortnet import (
    AssignmentPlan,
    DivisionStep,
    DivisionTrace,
    ModularityCurve,
    Partition,
    PerfClass,
    PlanGroup,
    Role,
    SymmetrizeRule,
    cluster_performance,
    modularity,
    partition_from_blocks,
    symmetrize,
)
from cohortnet.errors import AnalysisError, DataError
from cohortnet.io_formats import _fields, _parse_id, _table


def enumerate_geodesics(nodes, succ, s, t):
    """All shortest simple paths s -> t, found by exhaustive DFS."""
    best_len = math.inf
    best: list[tuple[int, ...]] = []

    def walk(path, seen):
        nonlocal best_len, best
        v = path[-1]
        if v == t:
            if len(path) < best_len:
                best_len = len(path)
                best = [tuple(path)]
            elif len(path) == best_len:
                best.append(tuple(path))
            return
        if len(path) >= best_len:
            return
        for w in succ.get(v, ()):
            if w not in seen:
                path.append(w)
                seen.add(w)
                walk(path, seen)
                seen.discard(w)
                path.pop()

    walk([s], {s})
    return best


def _succ(nodes, edges, directed):
    succ = {v: set() for v in nodes}
    for a, b in edges:
        succ[a].add(b)
        if not directed:
            succ[b].add(a)
    return succ


def node_betweenness_brute(nodes, edges, directed):
    """Fractional geodesic counts per interior node, pair by pair."""
    nodes = sorted(nodes)
    succ = _succ(nodes, edges, directed)
    bc = {v: 0.0 for v in nodes}
    if directed:
        pairs = [(s, t) for s in nodes for t in nodes if s != t]
    else:
        pairs = [(s, t) for i, s in enumerate(nodes) for t in nodes[i + 1 :]]
    for s, t in pairs:
        paths = enumerate_geodesics(nodes, succ, s, t)
        if not paths:
            continue
        weight = 1.0 / len(paths)
        for path in paths:
            for v in path[1:-1]:
                bc[v] += weight
    return bc


def edge_betweenness_brute(nodes, undirected_edges):
    """Fractional geodesic counts per undirected edge, each pair once."""
    nodes = sorted(nodes)
    succ = _succ(nodes, undirected_edges, directed=False)
    eb = {(min(a, b), max(a, b)): 0.0 for a, b in undirected_edges}
    for i, s in enumerate(nodes):
        for t in nodes[i + 1 :]:
            paths = enumerate_geodesics(nodes, succ, s, t)
            if not paths:
                continue
            weight = 1.0 / len(paths)
            for path in paths:
                for a, b in zip(path, path[1:]):
                    eb[(min(a, b), max(a, b))] += weight
    return eb


def modularity_brute(undirected_edges, assignment):
    """Newman-Girvan Q as an exact Fraction, straight from the edge list."""
    m = len(undirected_edges)
    clusters = set(assignment.values())
    intra = {c: 0 for c in clusters}
    ends = {c: 0 for c in clusters}
    for a, b in undirected_edges:
        ends[assignment[a]] += 1
        ends[assignment[b]] += 1
        if assignment[a] == assignment[b]:
            intra[assignment[a]] += 1
    return sum(
        Fraction(intra[c], m) - (Fraction(ends[c], 2 * m)) ** 2 for c in clusters
    )


def skewness_brute(xs):
    """Adjusted Fisher-Pearson g1 written out longhand.

    Deviations are divided by the largest one first: g1 does not change under
    scaling, and squaring a raw deviation such as 1e-172 underflows to 0.
    """
    n = len(xs)
    mean = sum(xs) / n
    scale = max(abs(x - mean) for x in xs)
    ds = [(x - mean) / scale for x in xs]
    s = math.sqrt(sum(d ** 2 for d in ds) / (n - 1))
    return n / ((n - 1) * (n - 2)) * sum((d / s) ** 3 for d in ds)


def random_directed_graph(rng: random.Random, max_nodes=7, edge_prob=0.35):
    n = rng.randint(2, max_nodes)
    nodes = list(range(n))
    edges = [
        (a, b) for a in nodes for b in nodes if a != b and rng.random() < edge_prob
    ]
    return nodes, edges


def random_undirected_edges(rng: random.Random, max_nodes=8, edge_prob=0.45):
    n = rng.randint(2, max_nodes)
    nodes = list(range(n))
    edges = [
        (a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
        if rng.random() < edge_prob
    ]
    return nodes, edges


# -- frozen references ---------------------------------------------------------
# Verbatim copies of the library's shortest-path and power-iteration loops as
# they stood before those loops were optimized. The optimized code must match
# them exactly (==, not approximately): same additions in the same order.
# The betweenness loops take a ``block_size``: the library sums its sources in
# fixed blocks, each from 0.0, and folds the block sums in order. None sums
# every source in one block, as the loops did when they were frozen.


def _block_ends(s, n, block_size):
    """Whether source ``s`` of ``n`` is the last of its block."""
    return s == n - 1 or block_size is not None and (s + 1) % block_size == 0


def index_adjacency_ref(order, adjacency):
    idx = {v: i for i, v in enumerate(order)}
    return [sorted(idx[w] for w in adjacency[v]) for v in order]


def brandes_ref(order: list[int], nbrs: list[list[int]], block_size=None) -> list[float]:
    """Accumulate shortest-path dependencies source by source (ascending id)."""
    n = len(order)
    total = [0.0] * n
    bc = [0.0] * n
    for s in range(n):
        sigma = [0] * n
        dist = [-1] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma[s] = 1
        dist[s] = 0
        stack: list[int] = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            dv = dist[v]
            sv = sigma[v]
            for w in nbrs[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sv
                    preds[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
        if _block_ends(s, n, block_size):
            total = [t + b for t, b in zip(total, bc)]
            bc = [0.0] * n
    return total


def edge_betweenness_subset_ref(members, adjacency, block_size=None):
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
    total = dict(eb)
    for s in range(n):
        sigma = [0] * n
        dist = [-1] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma[s] = 1
        dist[s] = 0
        stack: list[int] = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            dv = dist[v]
            sv = sigma[v]
            for w in nbrs[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sv
                    preds[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                c = sigma[v] * coeff
                eb[(v, w) if v < w else (w, v)] += c
                delta[v] += c
        if _block_ends(s, n, block_size):
            total = {e: t + eb[e] for e, t in total.items()}
            eb = dict.fromkeys(eb, 0.0)
    # every unordered pair was counted from both endpoints
    return {(members[i], members[j]): val / 2.0 for (i, j), val in total.items()}


def power_iteration_ref(nbrs, tol=1e-10, cap=1000):
    """Power iteration on A + I, max scaled to 1; None if it does not settle."""
    n = len(nbrs)
    x = [1.0] * n
    for _ in range(cap):
        y = [x[i] + math.fsum(x[j] for j in nbrs[i]) for i in range(n)]
        top = max(y)
        y = [v / top for v in y]
        if max(abs(y[i] - x[i]) for i in range(n)) < tol:
            x = y
            break
        x = y
    else:
        return None
    return x


def closeness_ref(nbrs):
    """Closeness by one BFS per source: (n-1) / sum of distances, 0.0 for a lone node."""
    n = len(nbrs)
    scores = []
    for i in range(n):
        dist = [-1] * n
        dist[i] = 0
        seen = [i]
        for u in seen:  # the visit list doubles as the queue
            d1 = dist[u] + 1
            for w in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = d1
                    seen.append(w)
        total = sum(dist)  # connected, so every distance is set
        scores.append((n - 1) / total if total else 0.0)
    return scores


def planted_community_edges(seed, n=400, intra_prob=0.55, reciprocal_prob=0.6):
    """Directed ties of a seeded cohort of ``n`` students in communities of 4-12.

    Communities are tied internally at ``intra_prob`` per pair and joined by
    a ring of cross ties plus a few random ones, so the union view is
    connected.
    """
    rng = random.Random(seed)
    communities = []
    start = 0
    while start < n:
        size = min(rng.randint(4, 12), n - start)
        communities.append(list(range(start, start + size)))
        start += size
    edges = set()
    for members in communities:
        for a, b in zip(members, members[1:]):
            edges.add((a, b))
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if rng.random() >= intra_prob:
                    continue
                if rng.random() < reciprocal_prob:
                    edges.update([(a, b), (b, a)])
                else:
                    edges.add((a, b) if rng.random() < 0.5 else (b, a))
    k = len(communities)
    for c in range(k):
        edges.add((rng.choice(communities[c]), rng.choice(communities[(c + 1) % k])))
    for _ in range(2 * k // 3):
        a, b = rng.sample(range(k), 2)
        edges.add((rng.choice(communities[a]), rng.choice(communities[b])))
    return list(range(n)), sorted(edges)


def components_ref(nodes, adjacency):
    seen: set[int] = set()
    comps: list[set[int]] = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adjacency.get(v, ()):
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        comps.append(comp)
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


def girvan_newman_ref(view, *, stop_at_k=None, block_size=None):
    """The division loop with its own per-component BFS and full eb cache."""
    if not view.edges:
        return DivisionTrace(initial=None, steps=())

    def scored(blocks: list[set[int]]) -> Partition:
        p = partition_from_blocks(blocks)
        return Partition(assignment=p.assignment, k=p.k, q=modularity(view, p))

    adjacency: dict[int, set[int]] = {v: set(view.adjacency[v]) for v in view.nodes}
    blocks = components_ref(view.nodes, adjacency)
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
        eb = edge_betweenness_subset_ref(members, adjacency, block_size)
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


def best_partition_ref(view, trace, k_max=15):
    """Highest-Q snapshot with k <= k_max; ties go to the smallest k."""
    all_snaps = trace.snapshots()
    snaps = [p for p in all_snaps if p.k <= k_max]
    if not snaps:
        if all_snaps:
            raise AnalysisError(
                f"the undivided view already has {all_snaps[0].k} components, "
                f"more than k_max={k_max}"
            )
        raise AnalysisError("the trace has no partition snapshots (edgeless view)")
    best = snaps[0]
    for p in snaps[1:]:  # snapshots come in ascending k, so strict > keeps ties small
        assert p.q is not None and best.q is not None
        if p.q > best.q:
            best = p
    curve = ModularityCurve(points=tuple((p.k, p.q) for p in snaps))  # type: ignore[misc]
    return best, curve


def parse_adjacency_ref(data):
    """The matrix parser that checks every cell in turn, column by column."""
    header_line, header, rows = _table(data, "adjacency")
    if len(header) < 2:
        raise DataError("adjacency header needs at least one id column", line=header_line)
    ids = [_parse_id(cell, header_line) for cell in header[1:]]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate id in adjacency header", line=header_line)
    n = len(ids)
    body = list(rows)
    if len(body) != n:
        raise DataError(
            f"{n} id columns but {len(body)} data rows", line=body[-1][0] if body else header_line
        )
    edges = []
    for pos, (line, row) in enumerate(_fields(body, n + 1)):
        row_id = _parse_id(row[0], line)
        if row_id != ids[pos]:
            raise DataError(
                f"row label {row_id} does not match header order (expected {ids[pos]})",
                line=line,
            )
        for col, cell in enumerate(row[1:]):
            if cell not in ("0", "1"):
                raise DataError(
                    f"column {col + 2}: entry {cell!r} is not 0 or 1", line=line
                )
            if cell == "1":
                if ids[col] == row_id:
                    raise DataError(f"diagonal entry for id {row_id} is 1", line=line)
                edges.append((row_id, ids[col]))
    return edges


def save_cohort_ref(cohort):
    """The cohort file as json's own indent encoder writes it."""
    doc = {
        "label": cohort.network.label,
        "students": [
            {
                "id": s.id,
                "gender": s.gender.value,
                "marks": {sem: s.marks[sem] for sem in sorted(s.marks)},
            }
            for s in sorted(cohort.students, key=lambda s: s.id)
        ],
        "edges": [list(e) for e in sorted(cohort.network.edges)],
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def export_graphml_ref(net, genders, marks, partition):
    """The GraphML export as xml.etree builds, indents and serializes it."""
    import xml.etree.ElementTree as ET

    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    keys = []
    if genders is not None:
        keys.append(("d_gender", "gender", "string"))
    if marks is not None:
        keys.append(("d_mark", "mark", "double"))
    if partition is not None:
        keys.append(("d_cluster", "cluster", "int"))
    for key_id, name, typ in keys:
        ET.SubElement(
            root, "key", id=key_id, attrib={"for": "node"},
            **{"attr.name": name, "attr.type": typ},
        )
    graph = ET.SubElement(root, "graph", id=net.label, edgedefault="directed")
    for v in sorted(net.nodes):
        node = ET.SubElement(graph, "node", id=str(v))
        if genders is not None and v in genders:
            ET.SubElement(node, "data", key="d_gender").text = genders[v].value
        if marks is not None:
            ET.SubElement(node, "data", key="d_mark").text = repr(float(marks[v]))
        if partition is not None:
            ET.SubElement(node, "data", key="d_cluster").text = str(partition.assignment[v])
    for src, tgt in sorted(net.edges):
        ET.SubElement(graph, "edge", source=str(src), target=str(tgt))
    ET.indent(root)
    return ET.tostring(root, encoding="UTF-8", xml_declaration=True) + b"\n"


def plan_intervention_ref(net, p, marks, policy):
    """The planner that fills a SimpleNamespace draft per group, then copies it into a
    PlanGroup whose roles come from the draft's own set of dispersed members."""
    perfs = cluster_performance(p, marks, policy.high_t, policy.low_t)
    if not any(c.perf is PerfClass.HIGH for c in perfs):
        raise AnalysisError(
            f"no cluster mean reaches high_t={policy.high_t}; dispersal needs at "
            "least one high-performing cluster to host the moved students"
        )

    drafts = []
    low_clusters = []
    for perf in perfs:
        if perf.perf is PerfClass.LOW:
            low_clusters.append(perf)
            continue
        drafts.append(
            SimpleNamespace(
                index=len(drafts),
                anchor_cluster=perf.cluster,
                anchor_perf=perf.perf,
                members=list(perf.members),
                dispersed=set(),
                overflow=False,
            )
        )

    reciprocal = symmetrize(net, SymmetrizeRule.INTERSECTION)
    units = []
    for perf in low_clusters:
        if policy.keep_low_subgroups:
            sub = reciprocal.induced(perf.members)
            units.extend(sorted(comp) for comp in sub.components())
        else:
            units.extend([m] for m in perf.members)
    units.sort(key=lambda u: (-len(u), u[0]))

    recipients = [d for d in drafts if d.anchor_perf is PerfClass.HIGH]
    notes = []
    for unit in units:
        takers = [d for d in recipients if len(d.members) + len(unit) <= policy.max_group]
        pool = takers if takers else recipients
        target = min(pool, key=lambda d: (len(d.members), d.index))
        if not takers:
            target.overflow = True
            notes.append(
                f"group {target.index} exceeds max_group={policy.max_group}: no "
                f"group could take the unit {unit} within bounds"
            )
        target.members.extend(unit)
        target.dispersed.update(unit)

    groups = []
    for d in drafts:
        if len(d.members) < policy.min_group:
            notes.append(
                f"group {d.index} has {len(d.members)} members, below "
                f"min_group={policy.min_group}"
            )
        roles = {
            m: (Role.DISPERSED if m in d.dispersed else Role.PRESERVED)
            for m in sorted(d.members)
        }
        groups.append(
            PlanGroup(
                index=d.index,
                anchor_cluster=d.anchor_cluster,
                anchor_perf=d.anchor_perf,
                members=tuple(sorted(d.members)),
                roles=roles,
                overflow=d.overflow,
            )
        )
    return AssignmentPlan(groups=tuple(groups), notes=tuple(notes))
