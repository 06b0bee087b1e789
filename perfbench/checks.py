"""Output checks: each returns a list of problems, empty when the artifact is right.

The reference values come from the benchmark's own code (modularity,
eigenvector) or from networkx (betweenness), never from the program under test.
"""

from __future__ import annotations

import csv
import hashlib
import io
from pathlib import Path

# Relative tolerance for betweenness against networkx; the two sum the same
# dependencies in a different order, so only the last bits may differ.
BETWEENNESS_RTOL = 1e-9
Q_ATOL = 1e-12

# Eigenvector centrality as documented: power iteration on A + I of the union
# view, maximum scaled to 1, stopping once no score moves by EIGEN_TOL, and a
# refusal (NoConvergence, exit 3) after EIGEN_CAP iterations.
EIGEN_TOL = 1e-10
EIGEN_CAP = 1000
# Either verdict is accepted when the reference stops within this share of the
# cap, since another summation order can move the stopping iteration a little.
EIGEN_CAP_MARGIN = 0.02
EIGEN_ATOL = 1e-6


def _table(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text())))[1:]


def read_partition(path: Path) -> dict[int, int]:
    return {int(v): int(c) for v, c in _table(path)}


def modularity(nodes: list[int], ties: list[tuple[int, int]],
               assignment: dict[int, int]) -> float:
    """Newman-Girvan Q on the union (undirected) view of ``ties``."""
    edges = {(min(s, t), max(s, t)) for s, t in ties}
    m = len(edges)
    intra: dict[int, int] = {}
    degree: dict[int, int] = {}
    for u, v in edges:
        for x in (u, v):
            degree[assignment[x]] = degree.get(assignment[x], 0) + 1
        if assignment[u] == assignment[v]:
            intra[assignment[u]] = intra.get(assignment[u], 0) + 1
    return sum(intra.get(c, 0) / m - (degree.get(c, 0) / (2.0 * m)) ** 2
               for c in sorted(set(assignment[v] for v in nodes)))


def check_communities(out_dir: Path, nodes: list[int], ties: list[tuple[int, int]],
                      k_max: int) -> tuple[list[str], float | None]:
    """Check partition.csv and modularity_curve.csv; return (problems, selected Q)."""
    problems = []
    assignment = read_partition(out_dir / "partition.csv")
    curve = {int(k): float(q) for k, q in _table(out_dir / "modularity_curve.csv")}
    if sorted(assignment) != sorted(nodes):
        problems.append("partition.csv does not cover exactly the cohort's nodes")
        return problems, None
    k = len(set(assignment.values()))
    if k > k_max:
        problems.append(f"selected k={k} exceeds k_max={k_max}")
    if k not in curve:
        problems.append(f"selected k={k} missing from modularity_curve.csv")
        return problems, None
    q = modularity(nodes, ties, assignment)
    if abs(curve[k] - q) > Q_ATOL:
        problems.append(f"curve Q={curve[k]!r} at k={k} but the partition has Q={q!r}")
    best_k = max(curve, key=lambda c: (curve[c], -c))
    if best_k != k:
        problems.append(f"selected k={k} but the curve peaks at k={best_k}")
    return problems, curve[k]


def _scores(path: Path) -> dict[int, float]:
    return {int(v): float(s) for v, s in _table(path)}


def check_betweenness(path: Path, nodes: list[int], ties: list[tuple[int, int]],
                      directed: bool) -> list[str]:
    import networkx as nx

    graph = nx.DiGraph() if directed else nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(ties)
    want = nx.betweenness_centrality(graph, normalized=False)
    got = _scores(path)
    if sorted(got) != sorted(want):
        return [f"{path.name} does not list exactly the cohort's nodes"]
    bad = [v for v in want if abs(got[v] - want[v]) > BETWEENNESS_RTOL * max(1.0, abs(want[v]))]
    if bad:
        v = bad[0]
        return [f"{path.name}: {len(bad)} node(s) differ from networkx "
                f"{nx.__version__}, e.g. node {v}: {got[v]!r} vs {want[v]!r}"]
    return []


def power_iteration(nodes: list[int], ties: list[tuple[int, int]],
                    cap: int) -> tuple[dict[int, float] | None, int]:
    """Eigenvector scores on the union view and the iterations they took,
    or (None, cap) when they do not settle within ``cap`` iterations."""
    index = {v: i for i, v in enumerate(nodes)}
    nbrs: list[set[int]] = [set() for _ in nodes]
    for s, t in ties:
        nbrs[index[s]].add(index[t])
        nbrs[index[t]].add(index[s])
    order = [sorted(ns) for ns in nbrs]
    x = [1.0] * len(nodes)
    for iteration in range(1, cap + 1):
        y = [x[i] + sum(x[j] for j in ns) for i, ns in enumerate(order)]
        top = max(y)
        y = [v / top for v in y]
        if max(abs(a - b) for a, b in zip(x, y)) < EIGEN_TOL:
            return {v: y[i] for v, i in index.items()}, iteration
        x = y
    return None, cap


def check_eigenvector(out_dir: Path, nodes: list[int], ties: list[tuple[int, int]],
                      refused: bool) -> list[str]:
    """centrality_eigenvector.csv must match the reference, or, if the command
    refused, the reference must not settle within the cap either."""
    want, iterations = power_iteration(nodes, ties, round(EIGEN_CAP * (1 + EIGEN_CAP_MARGIN)))
    if refused:
        if want is not None and iterations < EIGEN_CAP * (1 - EIGEN_CAP_MARGIN):
            return [f"eigenvector refused, but the reference settles after {iterations} "
                    f"of {EIGEN_CAP} iterations"]
        return []
    if want is None:
        return [f"eigenvector written, but the reference does not settle within "
                f"{iterations} iterations"]
    got = _scores(out_dir / "centrality_eigenvector.csv")
    if sorted(got) != sorted(want):
        return ["centrality_eigenvector.csv does not list exactly the cohort's nodes"]
    bad = [v for v in want if abs(got[v] - want[v]) > EIGEN_ATOL]
    if bad:
        v = bad[0]
        return [f"centrality_eigenvector.csv: {len(bad)} node(s) differ from the reference, "
                f"e.g. node {v}: {got[v]!r} vs {want[v]!r}"]
    return []


def check_representatives(out_dir: Path, top: int) -> list[str]:
    """representatives.csv must be the top ``top`` written scores, ties to ascending id."""
    scores = _scores(out_dir / "centrality_betweenness.csv")
    want = sorted(scores, key=lambda v: (-scores[v], v))[:top]
    rows = _table(out_dir / "representatives.csv")
    got = [int(node) for _, node, _ in rows]
    problems = []
    if got != want:
        problems.append(f"representatives {got} but the written scores rank {want}")
    if [int(rank) for rank, _, _ in rows] != list(range(1, len(rows) + 1)):
        problems.append("representatives.csv ranks are not 1..N")
    if any(float(s) != scores[int(v)] for _, v, s in rows):
        problems.append("representatives.csv scores differ from centrality_betweenness.csv")
    return problems


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}
