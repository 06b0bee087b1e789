"""Optimized graph code against frozen references.

The references in ``oracles`` are the loops as they stood before they were
optimized or rewritten. Every comparison is exact: a change that reorders a
floating-point addition fails here, even when the change is in the last bit.
The betweenness references sum their sources in blocks of the kernels'
``centrality.FORK_MIN_BLOCK``, read when they are called, as the kernels do.
"""

import errno
import mmap
import operator
import os
import signal
import threading
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohortnet import (
    Mode,
    SymmetrizeRule,
    best_partition,
    betweenness,
    centrality,
    closeness,
    edge_betweenness,
    eigenvector,
    girvan_newman,
    modularity,
    partition_from_blocks,
    symmetrize,
)
from cohortnet.community import _edge_betweenness_subset
from cohortnet.errors import AnalysisError

from conftest import SYMMETRIC, mknet, mkview, symmetric_network
from oracles import (
    best_partition_ref,
    brandes_ref,
    closeness_ref,
    edge_betweenness_subset_ref,
    girvan_newman_ref,
    index_adjacency_ref,
    modularity_brute,
    planted_community_edges,
    power_iteration_ref,
)
from strategies import directed_networks, undirected_views


def _betweenness_ref(net, mode):
    order = sorted(net.nodes)
    block = centrality.FORK_MIN_BLOCK
    if mode is Mode.DIRECTED:
        raw = brandes_ref(order, index_adjacency_ref(order, net.out_adjacency), block)
    else:
        union = symmetrize(net, SymmetrizeRule.UNION).adjacency
        raw = [x / 2.0 for x in brandes_ref(order, index_adjacency_ref(order, union), block)]
    return dict(zip(order, raw))


def _betweenness_refs(net):
    return {mode: _betweenness_ref(net, mode) for mode in Mode}


def _assert_betweenness_exact(net, refs=None):
    refs = refs or _betweenness_refs(net)
    for mode in Mode:
        assert betweenness(net, mode).scores == refs[mode]


def _edge_betweenness_refs(view):
    """The whole view's reference, then one per component on mutable adjacency
    sets, as the division loop calls the kernel."""
    adjacency = {v: set(view.adjacency[v]) for v in view.nodes}
    block = centrality.FORK_MIN_BLOCK
    return (edge_betweenness_subset_ref(sorted(view.nodes), view.adjacency, block),
            [edge_betweenness_subset_ref(sorted(comp), adjacency, block)
             for comp in view.components()])


def _assert_edge_betweenness_exact(view, refs=None):
    whole, per_component = refs or _edge_betweenness_refs(view)
    assert edge_betweenness(view) == whole
    adjacency = {v: set(view.adjacency[v]) for v in view.nodes}
    for comp, expected in zip(view.components(), per_component, strict=True):
        assert _edge_betweenness_subset(sorted(comp), adjacency) == expected


def _assert_closeness_exact(net):
    order = sorted(net.nodes)
    union = symmetrize(net, SymmetrizeRule.UNION).adjacency
    expected = closeness_ref(index_adjacency_ref(order, union))
    assert closeness(net).scores == dict(zip(order, expected))


def _assert_eigenvector_exact(view):
    order = sorted(view.nodes)
    expected = power_iteration_ref(index_adjacency_ref(order, view.adjacency))
    net = mknet(sorted(view.edges), view.nodes)  # its union view is ``view``
    if not view.edges:
        with pytest.raises(AnalysisError, match="eigenvector centrality needs at least one edge"):
            eigenvector(net)
    elif expected is None:
        with pytest.raises(AnalysisError, match="power iteration did not converge"):
            eigenvector(net)
    else:
        assert eigenvector(net).scores == dict(zip(order, expected))


@settings(max_examples=150, deadline=None)
@given(directed_networks(max_nodes=16))
def test_node_betweenness_matches_reference(net):
    _assert_betweenness_exact(net)


@settings(max_examples=150, deadline=None)
@given(undirected_views(max_nodes=16))
def test_edge_betweenness_matches_reference(view):
    _assert_edge_betweenness_exact(view)


@settings(max_examples=100, deadline=None)
@example(mkview([(0, 1), (0, 2), (1, 2)], nodes={3}))  # an isolated node: an empty row
@example(mkview([(0, 1), (0, 2), (1, 2), (2, 3)]))  # a pendant node: a one-entry row
@given(undirected_views(max_nodes=16))
def test_power_iteration_matches_reference(view):
    _assert_eigenvector_exact(view)


def _connected(view):
    """The network of ``view``'s edges plus one tie from each component to the next."""
    comps = view.components()
    bridges = [(min(a), min(b)) for a, b in zip(comps, comps[1:])]
    return mknet(sorted(view.edges) + bridges, view.nodes)


@settings(max_examples=150, deadline=None)
@given(undirected_views(min_nodes=1, max_nodes=16))
def test_closeness_matches_reference(view):
    _assert_closeness_exact(_connected(view))


CLOSENESS_GRAPHS = {
    **{name: symmetric_network(name) for name in SYMMETRIC},
    "path": mknet([(i, i + 1) for i in range(7)]),
    "star": mknet([(0, i) for i in range(1, 8)]),
    "one_node": mknet([], nodes={5}),
}


@pytest.mark.parametrize("name", sorted(CLOSENESS_GRAPHS))
def test_closeness_on_fixed_graphs_matches_reference(name):
    _assert_closeness_exact(CLOSENESS_GRAPHS[name])


def _partition_of(labels):
    """The partition whose clusters are the nodes sharing a label."""
    blocks = {}
    for v, label in labels.items():
        blocks.setdefault(label, set()).add(v)
    return partition_from_blocks(list(blocks.values()))


@settings(max_examples=150, deadline=None)
@given(undirected_views(max_nodes=16), st.data())
def test_modularity_is_the_rounded_rational(view, data):
    if not view.edges:
        return
    labels = {v: data.draw(st.integers(0, 6)) for v in sorted(view.nodes)}
    p = _partition_of(labels)
    assert modularity(view, p) == float(modularity_brute(view.edges, p.assignment))


@pytest.fixture(scope="module")
def planted400():
    """The seed-400 planted graph, its union view, their betweenness references
    and the reference division to k=15, computed once for the n=400 tests."""
    nodes, edges = planted_community_edges(seed=400)
    net = mknet(edges, nodes)
    view = symmetrize(net, SymmetrizeRule.UNION)
    division = girvan_newman_ref(view, stop_at_k=15, block_size=centrality.FORK_MIN_BLOCK)
    return net, view, _betweenness_refs(net), _edge_betweenness_refs(view), division


def test_planted_communities_n400_match_reference(planted400):
    net, view, node_refs, edge_refs, _ = planted400
    assert len(view.components()) == 1
    _assert_betweenness_exact(net, node_refs)
    _assert_edge_betweenness_exact(view, edge_refs)
    _assert_eigenvector_exact(view)
    _assert_closeness_exact(net)  # beyond the reach of path enumeration
    for size in (3, 8, 40, 200):  # 134 down to 2 clusters
        p = _partition_of({v: v // size for v in view.nodes})
        assert modularity(view, p) == float(modularity_brute(view.edges, p.assignment))


def _selection(view, trace, k_max, select):
    try:
        best, curve = select(view, trace, k_max)
    except AnalysisError as exc:
        return str(exc)
    return best, list(curve.items())  # the curve's k order is compared too


def _assert_division_exact(view, stop_at_k=None, ref=None):
    """``ref``, when given, is the reference trace to ``stop_at_k``, computed once."""
    if ref is None:
        ref = girvan_newman_ref(view, stop_at_k=stop_at_k, block_size=centrality.FORK_MIN_BLOCK)
    trace = girvan_newman(view, stop_at_k=stop_at_k)
    assert trace == ref
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


def _trace_to(trace, k):
    """The trace's steps up to the first that leaves ``k`` components: the trace to k."""
    end = next(i for i, step in enumerate(trace.steps) if step.component_count == k)
    return trace._replace(steps=trace.steps[:end + 1])


def test_division_loop_planted_n400_matches_reference(planted400):
    _, view, _, _, division = planted400
    _assert_division_exact(view, stop_at_k=15, ref=division)


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


def _add_rows(row_of):
    """An ``add_sources`` for ``_fold_sources`` that adds row_of(s) for each of its sources."""
    def add_sources(lo, hi, acc):
        for s in range(lo, hi):
            acc[:] = map(operator.add, acc, row_of(s))
    return add_sources


def _block_sums_ref(n_sources, width, row_of, block):
    total = [0.0] * width
    for lo in range(0, n_sources, block):
        acc = [0.0] * width
        for s in range(lo, min(n_sources, lo + block)):
            acc = [a + r for a, r in zip(acc, row_of(s))]
        total = [t + a for t, a in zip(total, acc)]
    return total


def test_fold_keeps_source_order():
    # rows whose sums depend on the order of addition, on every block boundary
    def row_of(s):
        return [0.1 * (s + 1) ** k for k in range(-3, 4)]

    sums = {block: _block_sums_ref(300, 7, row_of, block) for block in (1, 7, 64)}
    assert sums[1] != sums[64]  # the block size shows in the last bits
    for block, expected in sums.items():
        for cpus in (1, 2, 3, 7):
            with forking(cpus, min_block=block) as forks:
                assert centrality._fold_sources(300, 7, _add_rows(row_of)) == expected
            assert len(forks) == min(cpus, 300 // block) - 1
    assert_no_child_left()


def _refuse_fork():
    raise AssertionError("forked where the pass should run on one CPU")


@pytest.mark.parametrize(
    "cpus, n_sources, n_forks", [(64, 127, 0), (64, 128, 1), (64, 200, 2), (2, 1000, 1)]
)
def test_blocks_hold_at_least_min_block_sources(cpus, n_sources, n_forks):
    fork = _refuse_fork if n_forks == 0 else None
    with forking(cpus, fork=fork, min_block=centrality.FORK_MIN_BLOCK) as forks:
        assert centrality._fold_sources(n_sources, 3, _add_rows(lambda s: [1.0, s, 2.0 * s])) == [
            float(n_sources), float(sum(range(n_sources))), 2.0 * sum(range(n_sources))
        ]
    assert len(forks) == n_forks
    assert_no_child_left()


def test_planted_n400_on_one_cpu_matches_reference(planted400):
    # the serial path on a graph large enough to fork where CPUs allow
    net, view, node_refs, edge_refs, division = planted400
    with forking(1, fork=_refuse_fork, min_block=centrality.FORK_MIN_BLOCK):
        _assert_betweenness_exact(net, node_refs)
        _assert_edge_betweenness_exact(view, edge_refs)
        _assert_division_exact(view, stop_at_k=3, ref=_trace_to(division, 3))


@pytest.mark.parametrize("cpus", [2, 3, 5])
def test_planted_n400_matches_reference_on_any_cpu_count(planted400, cpus):
    # the same blocks however many workers share them, so the sums of one CPU
    net, view, node_refs, edge_refs, _ = planted400
    with forking(cpus, min_block=centrality.FORK_MIN_BLOCK) as forks:
        _assert_betweenness_exact(net, node_refs)
        _assert_edge_betweenness_exact(view, edge_refs)
    assert len(forks) == 4 * (cpus - 1)  # two node passes, the view and its one component
    assert_no_child_left()


# -- failing children and other threads ------------------------------------------

_nodes, _edges = planted_community_edges(seed=402, n=160)
PLANTED = symmetrize(mknet(_edges, _nodes), SymmetrizeRule.UNION)


def _in_child(misbehave):
    """A ``centrality.array`` that, in a forked child, hands each block's row to
    ``misbehave(real_array, typecode, values, earlier)``. A child turns each block
    sum into one row, and counts its ``earlier`` rows in its own copy of ``calls``."""
    parent, real_array, calls = os.getpid(), centrality.array, []

    def array(typecode, values):
        if os.getpid() == parent:
            return real_array(typecode, values)
        calls.append(None)
        return misbehave(real_array, typecode, values, len(calls) - 1)

    return array


def _exit_at_first_row(real_array, typecode, values, earlier):
    os._exit(1)


def _exit_mid_block(real_array, typecode, values, earlier):
    if earlier == 3:
        os._exit(1)
    return real_array(typecode, values)


def _kill_self(real_array, typecode, values, earlier):
    os.kill(os.getpid(), signal.SIGKILL)


@CPUS
@pytest.mark.parametrize(
    "misbehave", [_exit_at_first_row, _exit_mid_block, _kill_self]
)
def test_failed_children_change_nothing(monkeypatch, cpus, misbehave):
    net = mknet(sorted(PLANTED.edges), PLANTED.nodes)
    with forking(cpus) as forks:  # blocks of one source, as in a serial loop
        expected_edges = edge_betweenness_subset_ref(sorted(PLANTED.nodes), PLANTED.adjacency)
        expected_nodes = _betweenness_ref(net, Mode.DIRECTED)
        monkeypatch.setattr(centrality, "array", _in_child(misbehave))
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
        assert centrality._fold_sources(300, 2, _add_rows(row_of)) == [300.0, 44850.0]
        monkeypatch.setattr(centrality, "array", _in_child(_exit_at_first_row))
        assert centrality._fold_sources(300, 2, _add_rows(row_of)) == [300.0, 44850.0]
        with pytest.raises(KeyboardInterrupt):
            centrality._fold_sources(300, 2, _add_rows(interrupted))
    assert len(forks) == 3
    assert len(os.listdir("/proc/self/fd")) == before
    assert_no_child_left()


def test_no_shared_mapping_stays_on_one_cpu(monkeypatch):
    def no_mapping(*args):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", no_mapping)
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
        centrality._fold_sources(300, 4, _add_rows(row_of))
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
