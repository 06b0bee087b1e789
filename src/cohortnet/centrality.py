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

import heapq
import operator
import os
import signal
import threading
from array import array
from collections.abc import Callable, Iterable, Mapping
from typing import NamedTuple, TypeVar

from .errors import DisconnectedGraph, EmptyEdgeSet, KTooLarge, NoConvergence
from .model import (
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
# The children write their rows into one in-memory file that lives until the
# pass ends, up to n_sources * width doubles. A pass whose rows exceed this
# many bytes runs on one CPU, in memory linear in width.
FORK_MAX_ROW_BYTES = 32 << 20
CPU_MAX_PATH = "/sys/fs/cgroup/cpu.max"  # cgroup v2 CPU quota, read by _usable_cpus
_Key = TypeVar("_Key", int, tuple[int, int])  # what top_k ranks: a node id or an edge

DIRECTED_INPUT_WARNING = (
    "network contains non-reciprocal ties; scores were computed on the "
    "union-symmetrized view and may not reflect the directed structure"
)


class CentralityScores(NamedTuple):
    measure: Measure
    mode: Mode
    scores: dict[int, float]
    warnings: tuple[str, ...] = ()
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
    """CPUs this process may run on, capped by a cgroup v2 CPU quota."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return 1
    try:  # "<quota> <period>" in microseconds; "max <period>" or no file means no quota
        with open(CPU_MAX_PATH, "rb") as f:
            quota, period = f.read().split()
        return max(1, min(cpus, int(quota) // int(period)))
    except (OSError, ValueError):
        return cpus


def _fold_sources(
    n_sources: int, width: int, row_of: Callable[[int], list[float]]
) -> list[float]:
    """Entry-wise sum of ``row_of(s)`` for s = 0 .. n_sources-1, in ascending s.

    Every entry receives the same additions in the same order however the
    rows are computed, so the result is bit-for-bit that of a serial loop.
    With more than one usable CPU, ``os.memfd_create``, no other thread
    alive and at most FORK_MAX_ROW_BYTES of rows, the sources are cut into
    contiguous blocks, one per CPU but none under FORK_MIN_BLOCK sources.
    Forked children write every block but the first into one in-memory file,
    row s at byte 8 * width * s; the parent computes the first block, then
    folds the others in order, recomputing any block whose child failed.
    """
    acc = [0.0] * width
    row_bytes = 8 * width
    workers = 1
    if (0 < row_bytes * n_sources <= FORK_MAX_ROW_BYTES and hasattr(os, "memfd_create")
            and threading.active_count() == 1):
        workers = max(1, min(_usable_cpus(), n_sources // FORK_MIN_BLOCK))
    fd = -1
    live: set[int] = set()  # children not yet reaped
    try:
        try:
            fd = os.memfd_create("cohortnet-rows") if workers > 1 else -1
        except OSError:  # no in-memory file (EMFILE, ENOMEM): stay on one CPU
            workers = 1
        bounds = [n_sources * k // workers for k in range(workers + 1)]
        blocks = [(0, bounds[0], bounds[1])]  # (pid, lo, hi); pid 0: no child
        for lo, hi in zip(bounds[1:], bounds[2:]):
            try:
                pid = os.fork()
            except OSError:  # no child: the parent computes this block as well
                blocks.append((0, lo, hi))
                continue
            if pid == 0:  # exit 1 at the first short write, 0 once every row is written
                try:
                    os._exit(any(os.pwrite(fd, array("d", row_of(s)), row_bytes * s) != row_bytes
                                 for s in range(lo, hi)))
                finally:  # row_of or pwrite raised
                    os._exit(1)
            live.add(pid)
            blocks.append((pid, lo, hi))
        row = array("d", bytes(row_bytes))
        for pid, lo, hi in blocks:
            delivered = pid in live and os.waitpid(pid, 0)[1] == 0
            live.discard(pid)
            for s in range(lo, hi):  # the parent's block, or one whose child failed
                if delivered:
                    os.preadv(fd, [row], row_bytes * s)
                acc = list(map(operator.add, acc, row if delivered else row_of(s)))
    finally:  # interrupted or failed: leave no child and no file behind
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if fd >= 0:
            os.close(fd)
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
        seen = [i]
        for u in seen:  # the visit list doubles as the queue
            d1 = dist[u] + 1
            for w in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = d1
                    seen.append(w)
        total = sum(dist)  # connected, so every distance is set
        scores[v] = (n - 1) / total if total else 0.0
    return CentralityScores(measure=Measure.CLOSENESS, mode=Mode.UNDIRECTED, scores=scores)


def eigenvector(net: FriendshipNetwork | UndirectedView) -> CentralityScores:
    """Dominant-eigenvector scores on the union view, max component scaled to 1.

    Power iteration runs on A + I so the dominant eigenvalue is strictly
    separated even on bipartite graphs. A directed network with at least one
    non-reciprocal tie gets a recorded warning rather than a refusal.
    """
    warnings: tuple[str, ...] = ()
    if isinstance(net, FriendshipNetwork):
        view = symmetrize(net, SymmetrizeRule.UNION)
        if any((t, s) not in net.edges for s, t in net.edges):
            warnings = (DIRECTED_INPUT_WARNING,)
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


def top_k(scores: Mapping[_Key, float], k: int) -> list[_Key]:
    """The k highest-scoring node ids or edges, ties broken by the smaller one."""
    if not 1 <= k <= len(scores):
        raise KTooLarge(f"k={k} outside 1..{len(scores)}")
    # equal to sorted(...)[:k]; for k=1 a single min() pass
    return heapq.nsmallest(k, scores, key=lambda v: (-scores[v], v))


def rank_representatives(net: FriendshipNetwork, k: int) -> list[int]:
    """Top-k nodes by directed betweenness, ties broken by ascending id."""
    return top_k(betweenness(net, Mode.DIRECTED).scores, k)
