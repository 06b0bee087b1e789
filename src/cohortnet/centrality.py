"""Node centrality measures and representative ranking.

Betweenness is unnormalized geodesic betweenness with fractional splitting
across equal-length shortest paths: score(v) is the sum over node pairs
(s, t), s != v != t, of sigma_st(v) / sigma_st, where sigma_st counts
shortest s-t paths and sigma_st(v) those passing through v. Directed mode
counts ordered pairs on the directed graph; undirected mode counts each
unordered pair once on the union view. Unreachable pairs contribute 0.

Closeness and eigenvector centrality both come with applicability caveats
on this kind of data: closeness refuses disconnected networks outright, and
eigenvector centrality runs on the union-symmetrized view, recording a
warning when the network contains non-reciprocal ties.
"""

from __future__ import annotations

import operator
import os
import signal
import threading
from array import array
from collections import deque
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import BinaryIO

from .errors import DisconnectedGraph, EmptyEdgeSet, KTooLarge, NoConvergence
from .model import (  # Measure and Mode are re-exported from here
    FriendshipNetwork,
    Measure,
    Mode,
    SymmetrizeRule,
    UndirectedView,
    symmetrize,
)

POWER_ITERATION_TOL = 1e-10
POWER_ITERATION_CAP = 1000
# A forked worker costs more than it saves on a block of fewer BFS sources,
# so a pass forks only from 2 * FORK_MIN_BLOCK sources on.
FORK_MIN_BLOCK = 64
# Every child holds its whole block of rows until the parent reads it, so the
# children together hold up to n_sources * width doubles. A pass whose rows
# exceed this many bytes runs on one CPU, in memory linear in width.
FORK_MAX_ROW_BYTES = 32 << 20

DIRECTED_INPUT_WARNING = (
    "network contains non-reciprocal ties; scores were computed on the "
    "union-symmetrized view and may not reflect the directed structure"
)


@dataclass(frozen=True)
class CentralityScores:
    measure: Measure
    mode: Mode
    scores: dict[int, float]
    warnings: list[str] = field(default_factory=list)
    # populated for Measure.DEGREE only
    in_scores: dict[int, float] | None = None
    out_scores: dict[int, float] | None = None


def _index_adjacency(
    order: list[int], adjacency: Mapping[int, Iterable[int]]
) -> list[list[int]]:
    idx = {v: i for i, v in enumerate(order)}
    return [sorted(idx[w] for w in adjacency[v]) for v in order]


def _shortest_path_dag(
    s: int, nbrs: list[list[int]]
) -> tuple[list[int], list[int], list[list[int]]]:
    """BFS from ``s``: visit order, shortest-path counts and predecessors.

    The visit order doubles as the queue. Nodes are visited in
    nondecreasing distance, so walking it backwards is a valid order for
    dependency accumulation. ``preds[w]`` stays None for unreached ``w`` and
    for ``s`` itself.
    """
    n = len(nbrs)
    sigma = [0] * n
    dist = [-1] * n
    preds: list[list[int]] = [None] * n  # type: ignore[list-item]  # set on discovery
    sigma[s] = 1
    dist[s] = 0
    seen = [s]
    for v in seen:
        d1 = dist[v] + 1
        sv = sigma[v]
        for w in nbrs[v]:
            dw = dist[w]
            if dw < 0:
                dist[w] = d1
                sigma[w] = sv
                preds[w] = [v]
                seen.append(w)
            elif dw == d1:
                sigma[w] += sv
                preds[w].append(v)
    return seen, sigma, preds


def _usable_cpus() -> int:
    """CPUs this process may run on; a cgroup CPU quota is not detected."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return 1


def _fork_block(row_of: Callable[[int], list[float]], lo: int, hi: int) -> tuple[int, BinaryIO]:
    """Fork a child that writes rows lo .. hi-1 to a pipe as raw doubles.

    Returns the child's pid and the read end. The child never returns: it
    exits 0 once every row is written, and 1 if anything fails.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            rows = array("d")
            for s in range(lo, hi):
                rows.fromlist(row_of(s))
            data = memoryview(rows).cast("B")
            while data:
                data = data[os.write(write_fd, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _fold_sources(
    n_sources: int, width: int, row_of: Callable[[int], list[float]]
) -> list[float]:
    """Entry-wise sum of ``row_of(s)`` for s = 0 .. n_sources-1, in ascending s.

    Every entry receives the same additions in the same order however the
    rows are computed, so the result is bit-for-bit that of a serial loop.
    With more than one usable CPU, ``os.fork``, no other thread alive and
    at most FORK_MAX_ROW_BYTES of rows, the sources are cut into contiguous
    blocks, one per CPU but none under FORK_MIN_BLOCK sources, and every
    block but the first goes to a forked child. The parent computes the
    first block, then folds each child's rows in block order; rows a child
    did not deliver it computes itself.
    """
    add = operator.add
    acc = [0.0] * width
    workers = 1
    if (0 < 8 * n_sources * width <= FORK_MAX_ROW_BYTES and hasattr(os, "fork")
            and threading.active_count() == 1):
        workers = max(1, min(_usable_cpus(), n_sources // FORK_MIN_BLOCK))
    bounds = [n_sources * k // workers for k in range(workers + 1)]
    blocks: list[tuple[int | None, int, int]] = [(None, bounds[0], bounds[1])]
    live: dict[int, BinaryIO] = {}  # children not yet reaped -> read end of their pipe
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            try:
                pid, pipe = _fork_block(row_of, lo, hi)
                live[pid] = pipe
            except OSError:  # no child: the parent computes this block as well
                pid = None
            blocks.append((pid, lo, hi))
        row = array("d", bytes(8 * width))
        for pid, lo, hi in blocks:
            if pid is not None:
                with live[pid] as pipe:
                    while lo < hi and pipe.readinto(row) == 8 * width:
                        acc = list(map(add, acc, row))
                        lo += 1
                os.waitpid(pid, 0)
                del live[pid]
            for s in range(lo, hi):  # the parent's block, or rows its child did not deliver
                acc = list(map(add, acc, row_of(s)))
    finally:  # interrupted or failed: leave no child behind
        for pid, pipe in live.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return acc


def _brandes(order: list[int], nbrs: list[list[int]]) -> list[float]:
    """Accumulate shortest-path dependencies source by source (ascending id)."""
    n = len(order)

    def dependencies(s: int) -> list[float]:
        seen, sigma, preds = _shortest_path_dag(s, nbrs)
        delta = [0.0] * n
        for w in seen[:0:-1]:  # reverse BFS order, the source itself excluded
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
        delta[s] = 0.0  # a source is no intermediate of its own paths
        return delta

    return _fold_sources(n, n, dependencies)


def betweenness(net: FriendshipNetwork, mode: Mode = Mode.DIRECTED) -> CentralityScores:
    """Unnormalized geodesic betweenness in the requested mode."""
    order = sorted(net.nodes)
    if mode is Mode.DIRECTED:
        nbrs = _index_adjacency(order, net.out_adjacency)
        raw = _brandes(order, nbrs)
    else:
        nbrs = _index_adjacency(order, symmetrize(net, SymmetrizeRule.UNION).adjacency)
        # summing over all sources counts each unordered pair twice
        raw = [x / 2.0 for x in _brandes(order, nbrs)]
    return CentralityScores(
        measure=Measure.BETWEENNESS,
        mode=mode,
        scores={v: raw[i] for i, v in enumerate(order)},
    )


def closeness(net: FriendshipNetwork) -> CentralityScores:
    """Closeness on the union view: score(v) = (n-1) / sum of distances.

    Raises :class:`DisconnectedGraph` when the union view is not connected;
    callers wanting per-component numbers should analyse components
    separately.
    """
    view = symmetrize(net, SymmetrizeRule.UNION)
    comps = view.components()
    if len(comps) > 1:
        raise DisconnectedGraph(
            f"network has {len(comps)} components; closeness requires a "
            "connected network"
        )
    order = sorted(net.nodes)
    n = len(order)
    nbrs = _index_adjacency(order, view.adjacency)
    scores: dict[int, float] = {}
    for i, v in enumerate(order):
        dist = [-1] * n
        dist[i] = 0
        total = 0
        queue = deque([i])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    total += dist[w]
                    queue.append(w)
        scores[v] = (n - 1) / total if total else 0.0
    return CentralityScores(measure=Measure.CLOSENESS, mode=Mode.UNDIRECTED, scores=scores)


def eigenvector(net: FriendshipNetwork | UndirectedView) -> CentralityScores:
    """Dominant-eigenvector scores on the union view, max component scaled to 1.

    Power iteration runs on A + I so the dominant eigenvalue is strictly
    separated even on bipartite graphs. A directed network with at least one
    non-reciprocal tie gets a recorded warning rather than a refusal.
    """
    warnings: list[str] = []
    if isinstance(net, FriendshipNetwork):
        view = symmetrize(net, SymmetrizeRule.UNION)
        if any((t, s) not in net.edges for s, t in net.edges):
            warnings.append(DIRECTED_INPUT_WARNING)
    else:
        view = net
    if not view.edges:
        raise EmptyEdgeSet("eigenvector centrality needs at least one edge")

    order = sorted(view.nodes)
    nbrs = _index_adjacency(order, view.adjacency)
    x = [1.0] * len(order)
    for _ in range(POWER_ITERATION_CAP):
        get = x.__getitem__
        # x[i] + (0 + neighbours): sum(row, x[i]) would add in another order
        y = [xi + sum(map(get, row)) for xi, row in zip(x, nbrs)]
        top = max(y)
        y = [v / top for v in y]
        if max(map(abs, map(operator.sub, y, x))) < POWER_ITERATION_TOL:
            x = y
            break
        x = y
    else:
        raise NoConvergence(
            f"power iteration did not converge within {POWER_ITERATION_CAP} iterations"
        )
    return CentralityScores(
        measure=Measure.EIGENVECTOR,
        mode=Mode.UNDIRECTED,
        scores={v: x[i] for i, v in enumerate(order)},
        warnings=warnings,
    )


def degree(net: FriendshipNetwork) -> CentralityScores:
    """In-, out- and total degree per node (directed counting)."""
    ins = dict.fromkeys(net.nodes, 0.0)
    for _, tgt in net.edges:
        ins[tgt] += 1.0
    outs = {v: float(len(net.out_adjacency[v])) for v in net.nodes}
    total = {v: ins[v] + outs[v] for v in net.nodes}
    return CentralityScores(
        measure=Measure.DEGREE,
        mode=Mode.DIRECTED,
        scores=total,
        in_scores=ins,
        out_scores=outs,
    )


def top_k(scores: Mapping[int, float], k: int) -> list[int]:
    """The k highest-scoring nodes, ties broken by ascending id."""
    if not 1 <= k <= len(scores):
        raise KTooLarge(f"k={k} outside 1..{len(scores)}")
    return sorted(scores, key=lambda v: (-scores[v], v))[:k]


def rank_representatives(net: FriendshipNetwork, k: int) -> list[int]:
    """Top-k nodes by directed betweenness, ties broken by ascending id."""
    return top_k(betweenness(net, Mode.DIRECTED).scores, k)
