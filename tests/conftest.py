import pytest

from cohortnet import Student, UndirectedView, build_network


def mknet(edges, nodes=(), label="t"):
    """Network over the ids appearing in ``edges`` plus ``nodes``."""
    ids = set(nodes) | {v for e in edges for v in e}
    roster = [Student(id=i) for i in sorted(ids)]
    return build_network(roster, sorted(edges), label)


def mkview(undirected_edges, nodes=()):
    ids = set(nodes) | {v for e in undirected_edges for v in e}
    edges = frozenset((min(a, b), max(a, b)) for a, b in undirected_edges)
    return UndirectedView(nodes=frozenset(ids), edges=edges)


def lcf_edges(n, shifts, repeats):
    """A cycle 0..n-1 plus a chord from i % n to (i + shift) % n (LCF notation)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i % n, (i + s) % n) for i, s in enumerate(shifts * repeats)]
    return edges


# Symmetric graphs: in exact arithmetic every edge ties with every other, and
# every node with every other. The LCF codes give networkx's generators.
SYMMETRIC = {
    "heawood": lcf_edges(14, [5, -5], 7),
    "pappus": lcf_edges(18, [5, 7, -7, 7, -7, -5], 3),
    "desargues": lcf_edges(20, [5, -5, 9, -9], 5),
    "moebius_kantor": lcf_edges(16, [5, -5], 8),
    "dodecahedral": lcf_edges(20, [10, 7, 4, -4, -7, 10, -4, 7, -7, 4], 2),
    "cubical": [(0, 1), (0, 3), (0, 4), (1, 2), (1, 7), (2, 3),
                (2, 6), (3, 5), (4, 5), (4, 7), (5, 6), (6, 7)],
    "petersen": [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
}


def symmetric_network(name):
    """``SYMMETRIC[name]`` with both directions of every tie."""
    return mknet({(a, b) for e in SYMMETRIC[name] for a, b in (e, e[::-1])})


def symmetric_cases(failing):
    """Every ``SYMMETRIC`` name; those in ``failing`` as strict xfails.

    Float sums of exactly tied values differ in their last bits, so the
    tie-break contract does not hold on those yet (ROADMAP item 1).
    """
    xfail = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    return [pytest.param(name, marks=xfail if name in failing else ())
            for name in sorted(SYMMETRIC)]


@pytest.fixture
def barbell_view():
    """Two triangles {0,1,2} and {3,4,5} joined by the bridge (2,3)."""
    return mkview([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
