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
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from functools import reduce
from typing import NamedTuple, TypeVar

from .errors import AnalysisError
from .model import FriendshipNetwork, Mode, SymmetrizeRule, symmetrize

POWER_ITERATION_TOL = 1e-10
POWER_ITERATION_CAP = 1000
# Betweenness sums its BFS sources in fixed blocks of this many; a peer costs more
# than it saves on fewer, so a pass is split over peers only from two full blocks on.
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


class _Peers:
    """The processes of one peer group: rank 0 is the caller, ranks 1.. its forked peers.

    Every peer runs the same code, so each makes the same sequence of folds.
    Each peer has an inbox pipe, written by the caller and by the peer before
    it, and a pipe up to the caller.
    """

    def __init__(self) -> None:
        self.rank = 0
        self.size = 1
        self.folds = 0  # every fold counts, so a peer that skips one sends the wrong number
        self.splits = 0  # split folds; their parity picks the half of ``rows`` they write
        self.half = 0  # doubles in each half of ``rows``
        self.rows: memoryview | None = None  # one shared anonymous mapping, cast to doubles
        self.links: list[tuple[int, int, int]] = []  # the caller's: (pid, up read, inbox write)
        self.fds: set[int] = set()  # every pipe end the caller holds
        self.link = (-1, -1)  # a peer's: (inbox read, up write)
        self.next = -1  # the next peer's inbox write end

    def fold(
        self, n_sources: int, width: int, add_sources: Callable[[int, int, list[float]], None]
    ) -> list[float]:
        """Entry-wise sum over sources 0 .. n_sources-1, in fixed blocks of FORK_MIN_BLOCK.

        ``add_sources(lo, hi, acc)`` adds sources lo .. hi-1 in order into ``acc``.
        Each block's sum starts at 0.0 and the block sums are added in order.
        With two peers and two full blocks or more, each peer sums one of even
        contiguous ranges of sources and writes its block sums into the shared
        mapping. A block that a range boundary cuts is begun by the owner of
        its first source, which sums its part first and hands it on; the next
        range's owner adds its own sources to that sum, in order, so the block
        sum keeps its bits. After one barrier every peer folds every block sum,
        so all peers get the same result, whichever process summed which source.
        """
        self.folds += 1
        block = FORK_MIN_BLOCK

        def summed(lo: int, hi: int) -> list[float]:
            acc = [0.0] * width
            add_sources(lo, hi, acc)
            return acc

        def serial() -> list[float]:
            total = [0.0] * width
            for lo in range(0, n_sources, block):
                total = list(map(operator.add, total, summed(lo, min(n_sources, lo + block))))
            return total

        peers = min(self.size, n_sources // block)  # each range holds a full block or more
        if peers < 2:  # under two full blocks every peer sums every block
            return serial()
        self.splits += 1
        base = self.half * (self.splits % 2)  # peers may still read the last split fold's half

        def row(b: int) -> slice:
            return slice(base + width * b, base + width * (b + 1))

        if self.rank < peers:
            lo, hi = (-(-n_sources * p // peers) for p in (self.rank, self.rank + 1))
            first = -(-lo // block) * block  # the first block that begins in this range
            tail = hi // block * block if hi < n_sources else hi  # where the next range's block begins
            if tail < hi:  # begin that block first, so the next peer never waits long
                self.rows[row(tail // block)] = array("d", summed(tail, hi))
                try:
                    os.write(self.next, b"h")
                except OSError:  # the next peer is gone: the barrier ends the group
                    pass
            for start in range(first, tail, block):
                self.rows[row(start // block)] = array("d", summed(start, min(start + block, tail)))
            if first > lo:  # the block the last range began: add this range's sources to it
                if os.read(self.link[0], 1) != b"h":  # the caller ended the group
                    os._exit(0)
                acc = self.rows[row(lo // block)].tolist()
                add_sources(lo, first, acc)
                self.rows[row(lo // block)] = array("d", acc)
        if not self._barrier(b"%d %d %d\n" % (self.folds, n_sources, width)):
            return serial()  # the group ended: the caller, alone now, sums every source
        total = [0.0] * width
        for b in range(-(-n_sources // block)):
            total = list(map(operator.add, total, self.rows[row(b)]))
        return total

    def _barrier(self, message: bytes) -> bool:
        """Wait until every peer has written this fold's rows; False if the group ends here.

        Each peer sends ``message`` and waits for the caller's go. A peer that is
        gone, or whose message differs, ends the group.
        """
        if self.rank:
            inbox, up = self.link
            os.write(up, message)
            if os.read(inbox, 1) != b"+":  # the caller ended the group
                os._exit(0)
            return True
        try:
            if all(os.read(up, len(message) + 1) == message for _, up, _ in self.links):
                for _, _, inbox in self.links:
                    os.write(inbox, b"+")
                return True
        except OSError:  # a peer that is gone closed its end
            pass
        self.end()
        return False

    def end(self) -> None:
        """Kill and reap every peer and close the pipes: the caller goes on alone."""
        for pid, _, _ in self.links:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in self.fds:
            os.close(fd)
        self.links, self.fds, self.size = [], set(), 1


@contextmanager
def _peer_group(n_sources: int, width: int) -> Iterator[_Peers]:
    """A group for folds of up to ``n_sources`` sources and ``width`` entries.

    With more than one usable CPU, no other thread alive, two full blocks and a
    shared mapping, the caller forks min(CPUs, n_sources // FORK_MIN_BLOCK) - 1
    peers. They run the ``with`` body in lockstep with it and exit where it ends.
    A failed fork, pipe or mapping leaves the caller alone; on any exit of the
    body the caller kills and reaps the peers.
    """
    group = _Peers()
    caller = os.getpid()
    try:
        # probe the CPUs only when a fold can be split
        if n_sources >= 2 * FORK_MIN_BLOCK and width and threading.active_count() == 1:
            group.size = min(_usable_cpus(), n_sources // FORK_MIN_BLOCK)
        if group.size > 1:
            group.half = width * -(-n_sources // FORK_MIN_BLOCK)  # one row per block
            pipes: list[tuple[int, int]] = []  # an up pipe, then an inbox, per peer
            try:  # an anonymous mapping is shared: every peer reads what the others write
                group.rows = memoryview(mmap.mmap(-1, 2 * 8 * group.half)).cast("d")
                while len(pipes) < 2 * (group.size - 1):
                    pipes.append(os.pipe())
                    group.fds.update(pipes[-1])
            except OSError:  # no mapping (ENOMEM) or no pipes (EMFILE): stay on one CPU
                group.end()
        if group.size > 1:
            ups, inboxes = pipes[:group.size - 1], pipes[group.size - 1:]
            for rank, (up, inbox) in enumerate(zip(ups, inboxes), 1):
                try:
                    pid = os.fork()
                except OSError:  # no fork: stay on one CPU
                    group.end()
                    break
                if pid == 0:
                    nxt = inboxes[rank][1] if rank < len(inboxes) else -1
                    for fd in group.fds - {inbox[0], up[1], nxt}:
                        os.close(fd)
                    group.rank, group.links, group.fds = rank, [], set()
                    group.link, group.next = (inbox[0], up[1]), nxt
                    break
                os.close(up[1])
                os.close(inbox[0])
                group.fds -= {up[1], inbox[0]}
                group.links.append((pid, up[0], inbox[1]))
            else:
                group.next = inboxes[0][1]
        yield group
    finally:
        if os.getpid() != caller:  # a peer: the body ended or raised
            os._exit(0)
        group.end()


def _fold_sources(
    n_sources: int, width: int, add_sources: Callable[[int, int, list[float]], None]
) -> list[float]:
    """One ``_Peers.fold`` in a group of its own."""
    with _peer_group(n_sources, width) as group:
        return group.fold(n_sources, width, add_sources)


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
