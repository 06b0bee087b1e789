"""Optimized graph code against frozen references.

The references in ``oracles`` are the loops as they stood before they were
optimized or rewritten. Every comparison is exact: a change that reorders a
floating-point addition fails here, even when the change is in the last bit.
"""

import errno
import os
import signal
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortnet import (
    Mode,
    SymmetrizeRule,
    best_partition,
    betweenness,
    centrality,
    edge_betweenness,
    eigenvector,
    girvan_newman,
    modularity,
    partition_from_blocks,
    symmetrize,
)
from cohortnet.community import _edge_betweenness_subset
from cohortnet.errors import EmptyEdgeSet, EmptyTrace, NoConvergence

from conftest import mknet, mkview
from oracles import (
    best_partition_ref,
    brandes_ref,
    edge_betweenness_subset_ref,
    girvan_newman_ref,
    index_adjacency_ref,
    modularity_ref,
    planted_community_edges,
    power_iteration_ref,
)
from strategies import directed_networks, undirected_views


def _betweenness_ref(net, mode):
    order = sorted(net.nodes)
    if mode is Mode.DIRECTED:
        raw = brandes_ref(order, index_adjacency_ref(order, net.out_adjacency))
    else:
        union = symmetrize(net, SymmetrizeRule.UNION).adjacency
        raw = [x / 2.0 for x in brandes_ref(order, index_adjacency_ref(order, union))]
    return dict(zip(order, raw))


def _assert_betweenness_exact(net):
    for mode in Mode:
        assert betweenness(net, mode).scores == _betweenness_ref(net, mode)


def _assert_edge_betweenness_exact(view):
    members = sorted(view.nodes)
    assert edge_betweenness(view) == edge_betweenness_subset_ref(members, view.adjacency)
    # the division loop calls the kernel per component, on mutable adjacency sets
    adjacency = {v: set(view.adjacency[v]) for v in view.nodes}
    for comp in view.components():
        ms = sorted(comp)
        assert _edge_betweenness_subset(ms, adjacency) == edge_betweenness_subset_ref(
            ms, adjacency
        )


def _assert_eigenvector_exact(view):
    order = sorted(view.nodes)
    expected = power_iteration_ref(index_adjacency_ref(order, view.adjacency))
    if not view.edges:
        with pytest.raises(EmptyEdgeSet):
            eigenvector(view)
    elif expected is None:
        with pytest.raises(NoConvergence):
            eigenvector(view)
    else:
        assert eigenvector(view).scores == dict(zip(order, expected))


@settings(max_examples=150, deadline=None)
@given(directed_networks(max_nodes=16))
def test_node_betweenness_matches_reference(net):
    _assert_betweenness_exact(net)


@settings(max_examples=150, deadline=None)
@given(undirected_views(max_nodes=16))
def test_edge_betweenness_matches_reference(view):
    _assert_edge_betweenness_exact(view)


@settings(max_examples=100, deadline=None)
@given(undirected_views(max_nodes=16))
def test_power_iteration_matches_reference(view):
    _assert_eigenvector_exact(view)


def _partition_of(labels):
    """The partition whose clusters are the nodes sharing a label."""
    blocks = {}
    for v, label in labels.items():
        blocks.setdefault(label, set()).add(v)
    return partition_from_blocks(list(blocks.values()))


@settings(max_examples=150, deadline=None)
@given(undirected_views(max_nodes=16), st.data())
def test_modularity_matches_left_fold(view, data):
    if not view.edges:
        return
    labels = {v: data.draw(st.integers(0, 6)) for v in sorted(view.nodes)}
    p = _partition_of(labels)
    assert modularity(view, p) == modularity_ref(view, p)


def test_planted_communities_n400_match_reference():
    nodes, edges = planted_community_edges(seed=400)
    net = mknet(edges, nodes)
    view = symmetrize(net, SymmetrizeRule.UNION)
    assert len(view.components()) == 1
    _assert_betweenness_exact(net)
    _assert_edge_betweenness_exact(view)
    _assert_eigenvector_exact(view)
    for size in (3, 8, 40, 200):  # 134 down to 2 clusters
        p = _partition_of({v: v // size for v in view.nodes})
        assert modularity(view, p) == modularity_ref(view, p)


def _selection(view, trace, k_max, select):
    try:
        return select(view, trace, k_max)
    except EmptyTrace as exc:
        return str(exc)


def _assert_division_exact(view, stop_at_k=None):
    trace = girvan_newman(view, stop_at_k=stop_at_k)
    assert trace == girvan_newman_ref(view, stop_at_k=stop_at_k)
    for k_max in range(1, min(len(view.nodes), 16) + 2):
        expected = _selection(view, trace, k_max, best_partition_ref)
        assert _selection(view, trace, k_max, best_partition) == expected


def _cycle(n, start=0):
    return [(start + i, start + (i + 1) % n) for i in range(n)]


TIE_HEAVY = {
    "edgeless": mkview([], nodes={3, 1, 2}),
    "single_edge_plus_isolated": mkview([(4, 9)], nodes={0, 7}),
    "cycle_9": mkview(_cycle(9)),
    "two_equal_cycles": mkview(_cycle(6) + _cycle(6, start=10)),
    "complete_6": mkview([(a, b) for a in range(6) for b in range(a + 1, 6)]),
    "grid_4x4": mkview(
        [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
        + [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)]
    ),
    "petersen": mkview(_cycle(5) + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
    # best Q reached at several k: k=1, 2 on the first; k=2, 3, 4 on the second
    "q_tie_cycle_4": mkview(_cycle(4)),
    "q_tie_k2_k3_k4": mkview([(0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (2, 6), (4, 5)]),
    "star_and_path": mkview([(0, i) for i in range(1, 6)] + [(10, 11), (11, 12)]),
}


@pytest.mark.parametrize("name", sorted(TIE_HEAVY))
def test_division_loop_matches_reference_on_tie_heavy_views(name):
    view = TIE_HEAVY[name]
    _assert_division_exact(view)
    _assert_division_exact(view, stop_at_k=3)


@settings(max_examples=100, deadline=None)
@given(undirected_views(max_nodes=12))
def test_division_loop_matches_reference(view):
    _assert_division_exact(view)


def test_division_loop_planted_n400_matches_reference():
    nodes, edges = planted_community_edges(seed=401)
    view = symmetrize(mknet(edges, nodes), SymmetrizeRule.UNION)
    _assert_division_exact(view, stop_at_k=15)


# -- forked sources --------------------------------------------------------------
# The same comparisons with the kernels' sources split over forked children:
# the block size limit is lifted and the usable-CPU count is forced, so even
# two-node graphs fork one child per extra CPU.


@contextmanager
def forking(cpus, fork=None, min_block=1):
    """Fork with ``cpus`` usable CPUs and blocks of ``min_block`` sources or
    more; yields the forked pids."""
    real_fork = os.fork
    forks = []

    def counting_fork():
        pid = real_fork() if fork is None else fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(centrality, "FORK_MIN_BLOCK", min_block)
        mp.setattr(centrality, "_usable_cpus", lambda: cpus)
        mp.setattr(os, "fork", counting_fork)
        yield forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


CPUS = pytest.mark.parametrize("cpus", [2, 3])


@CPUS
@settings(max_examples=40, deadline=None)
@given(directed_networks(max_nodes=16))
def test_forked_node_betweenness_matches_reference(cpus, net):
    with forking(cpus) as forks:
        _assert_betweenness_exact(net)
    assert bool(forks) == (len(net.nodes) > 1)
    assert_no_child_left()


@CPUS
@settings(max_examples=40, deadline=None)
@given(undirected_views(max_nodes=16))
def test_forked_edge_betweenness_matches_reference(cpus, view):
    with forking(cpus) as forks:
        _assert_edge_betweenness_exact(view)
    assert bool(forks) == bool(view.edges)
    assert_no_child_left()


@CPUS
@settings(max_examples=25, deadline=None)
@given(undirected_views(max_nodes=12))
def test_forked_division_loop_matches_reference(cpus, view):
    with forking(cpus) as forks:
        _assert_division_exact(view)
    assert bool(forks) == bool(view.edges)
    assert_no_child_left()


def test_fold_keeps_source_order():
    # rows whose sums depend on the order of addition, on every block boundary
    def row_of(s):
        return [0.1 * (s + 1) ** k for k in range(-3, 4)]

    expected = [0.0] * 7
    for s in range(100):
        expected = [a + b for a, b in zip(expected, row_of(s))]
    for cpus in (1, 2, 3, 7):
        with forking(cpus):
            assert centrality._fold_sources(100, 7, row_of) == expected
    assert_no_child_left()


def _refuse_fork():
    raise AssertionError("forked where the pass should run on one CPU")


@pytest.mark.parametrize(
    "cpus, n_sources, n_forks", [(64, 127, 0), (64, 128, 1), (64, 200, 2), (2, 1000, 1)]
)
def test_blocks_hold_at_least_min_block_sources(cpus, n_sources, n_forks):
    fork = _refuse_fork if n_forks == 0 else None
    with forking(cpus, fork=fork, min_block=centrality.FORK_MIN_BLOCK) as forks:
        assert centrality._fold_sources(n_sources, 3, lambda s: [1.0, s, 2.0 * s]) == [
            float(n_sources), float(sum(range(n_sources))), 2.0 * sum(range(n_sources))
        ]
    assert len(forks) == n_forks
    assert_no_child_left()


def test_rows_over_the_byte_budget_stay_on_one_cpu(monkeypatch):
    def row_of(s):
        return [0.1 * s, 1.0]

    expected = centrality._fold_sources(300, 2, row_of)
    # 300 rows of 2 doubles are 4800 bytes
    monkeypatch.setattr(centrality, "FORK_MAX_ROW_BYTES", 4799)
    with forking(2, fork=_refuse_fork) as forks:
        assert centrality._fold_sources(300, 2, row_of) == expected
    assert forks == []
    monkeypatch.setattr(centrality, "FORK_MAX_ROW_BYTES", 4800)
    with forking(2) as forks:
        assert centrality._fold_sources(300, 2, row_of) == expected
    assert len(forks) == 1
    assert_no_child_left()


def test_planted_n400_on_one_cpu_matches_reference():
    # the serial path on a graph large enough to fork where CPUs allow
    nodes, edges = planted_community_edges(seed=400)
    net = mknet(edges, nodes)
    view = symmetrize(net, SymmetrizeRule.UNION)
    with forking(1, fork=_refuse_fork, min_block=centrality.FORK_MIN_BLOCK):
        _assert_betweenness_exact(net)
        _assert_edge_betweenness_exact(view)
        _assert_division_exact(view, stop_at_k=3)


# -- failing children and other threads ------------------------------------------

_nodes, _edges = planted_community_edges(seed=402, n=160)
PLANTED = symmetrize(mknet(_edges, _nodes), SymmetrizeRule.UNION)


def _in_child_pwrite(misbehave):
    """An ``os.pwrite`` that hands every row write to
    ``misbehave(real_pwrite, fd, data, offset, earlier)``. Only forked children
    write rows, and each counts its ``earlier`` writes in its own copy of ``calls``."""
    real_pwrite, calls = os.pwrite, []

    def pwrite(fd, data, offset):
        calls.append(offset)
        return misbehave(real_pwrite, fd, data, offset, len(calls) - 1)

    return pwrite


def _exit_at_first_row(real_pwrite, fd, data, offset, earlier):
    os._exit(1)


def _exit_mid_block(real_pwrite, fd, data, offset, earlier):
    if earlier == 3:
        os._exit(1)
    return real_pwrite(fd, data, offset)


def _write_half_rows(real_pwrite, fd, data, offset, earlier):
    return real_pwrite(fd, memoryview(data).cast("B")[: 4 * len(data)], offset)


def _kill_self(real_pwrite, fd, data, offset, earlier):
    os.kill(os.getpid(), signal.SIGKILL)


@CPUS
@pytest.mark.parametrize(
    "misbehave", [_exit_at_first_row, _exit_mid_block, _write_half_rows, _kill_self]
)
def test_failed_children_change_nothing(monkeypatch, cpus, misbehave):
    expected_edges = edge_betweenness_subset_ref(sorted(PLANTED.nodes), PLANTED.adjacency)
    net = mknet(sorted(PLANTED.edges), PLANTED.nodes)
    expected_nodes = _betweenness_ref(net, Mode.DIRECTED)
    monkeypatch.setattr(os, "pwrite", _in_child_pwrite(misbehave))
    with forking(cpus) as forks:
        assert edge_betweenness(PLANTED) == expected_edges
        assert betweenness(net, Mode.DIRECTED).scores == expected_nodes
    assert len(forks) == 2 * (cpus - 1)
    assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_no_file_descriptor_left(monkeypatch):
    parent = os.getpid()

    def row_of(s):
        return [1.0, float(s)]

    def interrupted(s):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return row_of(s)

    before = len(os.listdir("/proc/self/fd"))
    with forking(2) as forks:
        assert centrality._fold_sources(300, 2, row_of) == [300.0, 44850.0]
        monkeypatch.setattr(os, "pwrite", _in_child_pwrite(_exit_at_first_row))
        assert centrality._fold_sources(300, 2, row_of) == [300.0, 44850.0]
        with pytest.raises(KeyboardInterrupt):
            centrality._fold_sources(300, 2, interrupted)
    assert len(forks) == 3
    assert len(os.listdir("/proc/self/fd")) == before
    assert_no_child_left()


@pytest.mark.parametrize("memfd", ["raises", "missing"])
def test_no_in_memory_file_stays_on_one_cpu(monkeypatch, memfd):
    def no_memfd(*args):
        raise OSError(errno.EMFILE, "Too many open files")

    if memfd == "raises":
        monkeypatch.setattr(os, "memfd_create", no_memfd)
    else:
        monkeypatch.delattr(os, "memfd_create", raising=False)
    with forking(3, fork=_refuse_fork) as forks:
        assert edge_betweenness(PLANTED) == edge_betweenness_subset_ref(
            sorted(PLANTED.nodes), PLANTED.adjacency
        )
    assert forks == []


def test_failed_fork_computes_in_the_parent():
    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    with forking(3, fork=no_fork) as forks:
        assert edge_betweenness(PLANTED) == edge_betweenness_subset_ref(
            sorted(PLANTED.nodes), PLANTED.adjacency
        )
    assert forks == []


def test_parent_failure_kills_and_reaps_children():
    parent = os.getpid()

    def row_of(s):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return [1.0] * 4

    with forking(3) as forks, pytest.raises(KeyboardInterrupt):
        centrality._fold_sources(300, 4, row_of)
    assert len(forks) == 2
    assert_no_child_left()


def test_no_fork_while_another_thread_runs():
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        with forking(2, fork=_refuse_fork) as forks:
            assert edge_betweenness(PLANTED) == edge_betweenness_subset_ref(
                sorted(PLANTED.nodes), PLANTED.adjacency
            )
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert forks == []
