"""Directed friendship-network data model.

A network is built from survey nominations: each directed edge (u, v) means
"u spends time with v". Friendship is not assumed to be reciprocal, so the
graph stays directed and undirected views are derived explicitly, either by
union (any nomination in either direction) or by intersection (reciprocal
ties only).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import DataError, UsageError


class Gender(str, Enum):
    MALE = "M"
    FEMALE = "F"
    UNSPECIFIED = "U"


class SymmetrizeRule(str, Enum):
    """How directed ties collapse into undirected ones."""

    UNION = "union"
    INTERSECTION = "intersection"


class Measure(str, Enum):
    """Node centrality measures (computed in ``centrality``)."""

    DEGREE = "degree"
    BETWEENNESS = "betweenness"
    CLOSENESS = "closeness"
    EIGENVECTOR = "eigenvector"


class Mode(str, Enum):
    """Whether betweenness counts directed or undirected shortest paths."""

    DIRECTED = "directed"
    UNDIRECTED = "undirected"


def _check_mark(value: float, context: str) -> None:
    if isinstance(value, bool):  # saved as JSON true, which load_cohort refuses
        raise DataError(f"{context}: mark {value!r} is not a number")
    if not 0.0 <= value <= 100.0:
        raise DataError(f"{context}: mark {value!r} outside [0, 100]")


# The run settings' rules that stats shares with RunConfig.
def _check_thresholds(high_t: float, low_t: float) -> None:
    if not low_t < high_t:
        raise UsageError(f"need low_t < high_t, got {low_t} >= {high_t}")


def _check_bin_width(bin_width: float) -> None:
    if bin_width < 1:
        raise UsageError(f"bin_width must be >= 1, got {bin_width}")


# Records are NamedTuples. One that checks its fields is a subclass whose __new__
# checks them and whose _make is _checked_make, since namedtuple's own _make (which
# _replace calls) skips __new__. One that caches a property has an instance __dict__.
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class _StudentFields(NamedTuple):
    id: int
    gender: Gender
    marks: dict[str, float]


class Student(_StudentFields):
    """One cohort member; marks are keyed by semester label (e.g. "s5")."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, id: int, gender: Gender = Gender.UNSPECIFIED,
                marks: dict[str, float] | None = None) -> Student:
        if isinstance(id, bool):
            raise DataError(f"student id {id!r} is not an integer")
        if id < 0:
            raise DataError(f"student id {id} must be non-negative")
        marks = {} if marks is None else marks
        for semester, mark in marks.items():
            _check_mark(mark, f"student {id}, semester {semester!r}")
        # stored as floats, so a cohort file reads back as the bytes it was saved as
        return super().__new__(cls, id, gender, {s: float(m) for s, m in marks.items()})


class _NetworkFields(NamedTuple):
    label: str
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]


class FriendshipNetwork(_NetworkFields):
    """Directed simple graph over student ids.

    Invariants (enforced by :func:`build_network`): no self-loops, no
    duplicate edges, every edge endpoint is a known node.
    """

    @cached_property
    def out_adjacency(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in self.nodes}
        for src, tgt in self.edges:
            nbrs[src].add(tgt)
        return {v: frozenset(n) for v, n in nbrs.items()}


class _ViewFields(NamedTuple):
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]
    rule: SymmetrizeRule


class UndirectedView(_ViewFields):
    """Undirected projection of a network; edges stored as (lo, hi) pairs."""

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in self.nodes}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(n) for v, n in nbrs.items()}

    def induced(self, keep: Iterable[int]) -> UndirectedView:
        """Subview on ``keep``; drops edges with an endpoint outside."""
        kept = frozenset(keep)
        edges = frozenset(e for e in self.edges if e[0] in kept and e[1] in kept)
        return UndirectedView(nodes=kept, edges=edges, rule=self.rule)

    def components(self) -> list[set[int]]:
        """Connected components, largest first, ties by smallest member id."""
        return _components(self.nodes, self.adjacency)


def _components(nodes: Iterable[int], adjacency: Mapping[int, Iterable[int]]) -> list[set[int]]:
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


class _PartitionFields(NamedTuple):
    assignment: dict[int, int]
    k: int
    q: float | None = None


class Partition(_PartitionFields):
    """Node -> cluster assignment with dense cluster ids 0..k-1."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, *args: object, **kwargs: object) -> Partition:
        self = super().__new__(cls, *args, **kwargs)
        if not self.assignment:
            raise DataError("a partition needs at least one node")
        used = set(self.assignment.values())
        if used != set(range(self.k)):
            raise DataError(
                f"cluster ids must be exactly 0..{self.k - 1}, got {sorted(used)}"
            )
        return self

    def clusters(self) -> list[set[int]]:
        out: list[set[int]] = [set() for _ in range(self.k)]
        for node, cid in self.assignment.items():
            out[cid].add(node)
        return out


def partition_from_blocks(blocks: list[set[int]]) -> Partition:
    """Number blocks by ascending smallest member so ids are reproducible."""
    ordered = sorted(blocks, key=min)
    assignment = {node: cid for cid, block in enumerate(ordered) for node in block}
    return Partition(assignment=assignment, k=len(ordered))


def build_network(
    roster: Iterable[Student],
    nominations: Iterable[tuple[int, int]],
    label: str,
    *,
    dedupe: bool = False,
) -> FriendshipNetwork:
    """Validate roster and nominations and assemble the directed network.

    With ``dedupe`` a repeated nomination is dropped with a warning instead
    of raising :class:`DataError`.
    """
    students = list(roster)
    ids = [s.id for s in students]
    nodes = frozenset(ids)
    if len(ids) != len(nodes):
        seen: set[int] = set()
        dup = next(i for i in ids if i in seen or seen.add(i))  # type: ignore[func-returns-value]
        raise DataError(f"student id {dup} appears more than once in the roster")
    for s in students:
        for semester, mark in s.marks.items():
            _check_mark(mark, f"student {s.id}, semester {semester!r}")

    edges: set[tuple[int, int]] = set()
    for src, tgt in nominations:
        if src == tgt:
            raise DataError(f"self-nomination ({src}, {tgt}) is not allowed")
        if src not in nodes:
            raise DataError(f"edge source {src} is not in the roster")
        if tgt not in nodes:
            raise DataError(f"edge target {tgt} is not in the roster")
        if (src, tgt) in edges:
            if dedupe:
                from logging import getLogger  # imported on this path only
                getLogger(__name__).warning("duplicate nomination (%s, %s) ignored", src, tgt)
                continue
            raise DataError(f"nomination ({src}, {tgt}) appears more than once")
        edges.add((src, tgt))
    return FriendshipNetwork(label=label, nodes=nodes, edges=frozenset(edges))


def symmetrize(net: FriendshipNetwork, rule: SymmetrizeRule) -> UndirectedView:
    """Undirected view: UNION keeps any tie, INTERSECTION only reciprocal ones."""
    if rule is SymmetrizeRule.UNION:
        pairs = {(min(s, t), max(s, t)) for s, t in net.edges}
    else:
        pairs = {(min(s, t), max(s, t)) for s, t in net.edges if (t, s) in net.edges}
    return UndirectedView(nodes=net.nodes, edges=frozenset(pairs), rule=rule)


class Cohort(NamedTuple):
    """A network plus the per-student attributes it was built from."""

    network: FriendshipNetwork
    students: tuple[Student, ...]

    def semesters(self) -> list[str]:
        labels: set[str] = set()
        for s in self.students:
            labels.update(s.marks)
        return sorted(labels)

    def marks_for(self, semester: str) -> dict[int, float]:
        """Marks of every student that has one for ``semester``."""
        return {s.id: s.marks[semester] for s in self.students if semester in s.marks}

    def genders(self) -> dict[int, Gender]:
        return {s.id: s.gender for s in self.students}


def make_cohort(
    roster: Iterable[Student],
    nominations: Iterable[tuple[int, int]],
    label: str,
    *,
    dedupe: bool = False,
) -> Cohort:
    students = tuple(sorted(roster, key=lambda s: s.id))
    net = build_network(students, nominations, label, dedupe=dedupe)
    return Cohort(network=net, students=students)
