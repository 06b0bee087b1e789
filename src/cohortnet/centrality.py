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
import itertools
import math
import mmap
import operator
import os
import signal
import threading
from array import array
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import reduce
from typing import NamedTuple, TypeVar

from .errors import AnalysisError
from .model import FriendshipNetwork, Mode, SymmetrizeRule, symmetrize

POWER_ITERATION_TOL = 1e-10
POWER_ITERATION_CAP = 1000
# Betweenness sums its BFS sources in fixed blocks of this many; a forked worker
# costs more than it saves on fewer, so a pass forks only from two full blocks on.
FORK_MIN_BLOCK = 64
CPU_MAX_PATH = "/sys/fs/cgroup/cpu.max"  # cgroup v2 CPU quota, read by _usable_cpus
_Key = TypeVar("_Key", int, tuple[int, int])  # what top_k ranks: a node id or an edge

DIRECTED_INPUT_WARNING = (
    "network contains non-reciprocal ties; scores were computed on the "
    "union-symmetrized view and may not reflect the directed structure"
)


class CentralityScores(NamedTuple):
    scores: dict[int, float]
    warnings: tuple[str, ...] = ()
    # populated by degree only
    in_scores: dict[int, float] | None = None
    out_scores: dict[int, float] | None = None


def _index_adjacency(
    order: list[int], adjacency: Mapping[int, Iterable[int]]
) -> list[list[int]]:
    idx = {v: i for i, v in enumerate(order)}
    return [sorted(idx[w] for w in adjacency[v]) for v in order]


def _row_getters(nbrs: list[list[int]]) -> list[Callable[[list], Sequence]]:
    """Per row, a callable taking a list to its entries at the row's indices, in order."""
    # itemgetter(j) returns x[j] bare and itemgetter() raises, so a row with
    # fewer than two entries takes a slice of length 0 or 1 instead
    return [operator.itemgetter(*row) if len(row) > 1
            else operator.itemgetter(slice(row[0], row[0] + 1) if row else slice(0))
            for row in nbrs]


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
    n_sources: int, width: int, add_sources: Callable[[int, int, list[float]], None]
) -> list[float]:
    """Entry-wise sum over sources 0 .. n_sources-1, in fixed blocks of FORK_MIN_BLOCK.

    ``add_sources(lo, hi, acc)`` adds sources lo .. hi-1 in order into ``acc``.
    Each block's sum starts at 0.0 and the block sums are added in order, so
    the result does not depend on which process sums which block. With more
    than one usable CPU, no other thread alive and two full blocks, each worker
    sums a contiguous run of blocks: forked children write block b's sum into
    row b of one shared anonymous mapping, and the parent sums the first run,
    then folds the rest in order, recomputing a failed child's blocks.
    """
    n_blocks = -(-n_sources // FORK_MIN_BLOCK)

    def block_sum(b: int) -> list[float]:
        acc = [0.0] * width
        add_sources(b * FORK_MIN_BLOCK, min(n_sources, (b + 1) * FORK_MIN_BLOCK), acc)
        return acc

    total = [0.0] * width
    workers = 1
    # probe the CPUs only when a fork can follow
    if n_sources >= 2 * FORK_MIN_BLOCK and width and threading.active_count() == 1:
        workers = min(_usable_cpus(), n_sources // FORK_MIN_BLOCK)
    live: set[int] = set()  # children not yet reaped
    try:
        try:  # an anonymous mapping is shared: the parent reads what a child writes
            if workers > 1:
                rows = memoryview(mmap.mmap(-1, 8 * width * n_blocks)).cast("d")
        except OSError:  # no mapping (ENOMEM): stay on one CPU
            workers = 1
        bounds = [n_blocks * k // workers for k in range(workers + 1)]
        runs = [(0, bounds[0], bounds[1])]  # (pid, first block, end block); pid 0: no child
        for lo, hi in zip(bounds[1:], bounds[2:]):
            try:
                pid = os.fork()
            except OSError:  # no child: the parent computes these blocks as well
                runs.append((0, lo, hi))
                continue
            if pid == 0:  # exit 0 once every block's row is written
                try:
                    for b in range(lo, hi):
                        rows[width * b:width * (b + 1)] = array("d", block_sum(b))
                    os._exit(0)
                finally:  # add_sources raised
                    os._exit(1)
            live.add(pid)
            runs.append((pid, lo, hi))
        for pid, lo, hi in runs:
            delivered = pid in live and os.waitpid(pid, 0)[1] == 0
            live.discard(pid)
            for b in range(lo, hi):  # the parent's blocks, or those of a failed child
                row = rows[width * b:width * (b + 1)] if delivered else block_sum(b)
                total = list(map(operator.add, total, row))
    finally:  # interrupted or failed: leave no child behind
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return total


def _brandes(order: list[int], nbrs: list[list[int]]) -> list[float]:
    """Accumulate shortest-path dependencies source by source (ascending id)."""
    n = len(order)

    def add_dependencies(lo: int, hi: int, acc: list[float]) -> None:
        for s in range(lo, hi):
            seen, sigma, preds = _shortest_path_dag(s, nbrs)
            delta = [0.0] * n
            for w in seen[:0:-1]:  # reverse BFS order, the source itself excluded
                acc[w] += delta[w]  # final: the nodes farther from s came first
                coeff = (1.0 + delta[w]) / sigma[w]
                for v in preds[w]:
                    delta[v] += sigma[v] * coeff

    return _fold_sources(n, n, add_dependencies)


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
    return CentralityScores(scores={v: raw[i] for i, v in enumerate(order)})


def closeness(net: FriendshipNetwork) -> CentralityScores:
    """Closeness on the union view: score(v) = (n-1) / sum of distances.

    Raises :class:`AnalysisError` when the union view is not connected;
    callers wanting per-component numbers should analyse components
    separately.
    """
    view = symmetrize(net, SymmetrizeRule.UNION)
    order = sorted(net.nodes)
    n = len(order)
    rows = _row_getters(_index_adjacency(order, view.adjacency))
    # Bit s of reach[i] is set once dist(s, i) <= d: one multi-source BFS
    # (Then et al., PVLDB 2014) whose sweep d finds every node at distance d.
    reach = [1 << i for i in range(n)]
    totals = [0] * n  # exact integer sums of distances
    for d in itertools.count(1):
        grown = [reduce(operator.or_, row(reach), r) for r, row in zip(reach, rows)]
        if grown == reach:
            break
        totals = [t + d * (g ^ r).bit_count() for t, g, r in zip(totals, grown, reach)]
        reach = grown
    components = len(set(reach))  # each node's final reach is its component
    if components > 1:
        raise AnalysisError(
            f"network has {components} components; closeness requires a "
            "connected network"
        )
    scores = {v: (n - 1) / total if total else 0.0 for v, total in zip(order, totals)}
    return CentralityScores(scores=scores)


def eigenvector(net: FriendshipNetwork) -> CentralityScores:
    """Dominant-eigenvector scores on the union view, max component scaled to 1.

    Power iteration runs on A + I so the dominant eigenvalue is strictly
    separated even on bipartite graphs. A directed network with at least one
    non-reciprocal tie gets a recorded warning rather than a refusal.
    """
    view = symmetrize(net, SymmetrizeRule.UNION)
    warnings: tuple[str, ...] = ()
    if any((t, s) not in net.edges for s, t in net.edges):
        warnings = (DIRECTED_INPUT_WARNING,)
    if not view.edges:
        raise AnalysisError("eigenvector centrality needs at least one edge")

    order = sorted(view.nodes)
    rows = _row_getters(_index_adjacency(order, view.adjacency))
    x = [1.0] * len(order)
    watch = 0  # the score that moved most at the last full scan
    for _ in range(POWER_ITERATION_CAP):
        # fsum is correctly rounded, so the scores are the same on every CPython
        y = [xi + math.fsum(row(x)) for xi, row in zip(x, rows)]
        top = max(y)
        y = [v / top for v in y]
        # no full scan can pass while the watched score still moves by TOL or more
        if abs(y[watch] - x[watch]) < POWER_ITERATION_TOL:
            moves = list(map(abs, map(operator.sub, y, x)))
            largest = max(moves)
            if largest < POWER_ITERATION_TOL:
                x = y
                break
            watch = moves.index(largest)
        x = y
    else:
        raise AnalysisError(
            f"power iteration did not converge within {POWER_ITERATION_CAP} iterations"
        )
    return CentralityScores(scores={v: x[i] for i, v in enumerate(order)}, warnings=warnings)


def degree(net: FriendshipNetwork) -> CentralityScores:
    """In-, out- and total degree per node (directed counting)."""
    ins = dict.fromkeys(net.nodes, 0.0)
    for _, tgt in net.edges:
        ins[tgt] += 1.0
    outs = {v: float(len(net.out_adjacency[v])) for v in net.nodes}
    total = {v: ins[v] + outs[v] for v in net.nodes}
    return CentralityScores(scores=total, in_scores=ins, out_scores=outs)


def top_k(scores: Mapping[_Key, float], k: int) -> list[_Key]:
    """The k highest-scoring node ids or edges, ties broken by the smaller one."""
    if not 1 <= k <= len(scores):
        raise AnalysisError(f"k={k} outside 1..{len(scores)}")
    # equal to sorted(...)[:k]; for k=1 a single min() pass
    return heapq.nsmallest(k, scores, key=lambda v: (-scores[v], v))


def rank_representatives(net: FriendshipNetwork, k: int) -> list[int]:
    """Top-k nodes by directed betweenness, ties broken by ascending id."""
    return top_k(betweenness(net, Mode.DIRECTED).scores, k)
