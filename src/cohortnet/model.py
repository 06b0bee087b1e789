"""Directed friendship-network data model.

A network is built from survey nominations: each directed edge (u, v) means
"u spends time with v". Friendship is not assumed to be reciprocal, so the
graph stays directed and undirected views are derived explicitly, either by
union (any nomination in either direction) or by intersection (reciprocal
ties only).
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Mapping
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


def _check_mark(value: object, context: str) -> float:
    """The mark rule: an int or float, not a bool, in [0, 100]; returned as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):  # a bool saves as true
        raise DataError(f"{context}: mark {value!r} is not a number")
    try:
        mark = float(value)
    except OverflowError:  # an int past 1.8e308, which repr may not even spell
        raise DataError(f"{context}: mark too large for a float") from None
    if not 0.0 <= mark <= 100.0:
        raise DataError(f"{context}: mark {value!r} outside [0, 100]")
    return mark


def _check_id(value: object, what: str) -> int:
    """The id rule: an int, not a bool, not negative; an integral float counts as that int."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{what} {value!r} is not an integer")
    if value < 0:
        raise DataError(f"{what} {value} must be non-negative")
    return int(value)


def _check_cover(nodes: Iterable[int], covered: Container[int], what: str) -> None:
    """The coverage rule: every node has a ``what`` (a mark, a cluster)."""
    missing = sorted(v for v in nodes if v not in covered)
    if missing:
        raise DataError(f"no {what} for node(s) {missing}")


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
        id = _check_id(id, "student id")
        try:  # a member or its code
            gender = Gender(gender)
        except ValueError:
            raise DataError(f"student {id}: gender {gender!r} is not one of M, F, U") from None
        marks = {} if marks is None else marks
        if not isinstance(marks, dict):
            raise DataError(f"student {id}: marks {marks!r} is not an object")
        for s in marks:  # save_cohort and export_roster write only string labels
            if not isinstance(s, str):
                raise DataError(f"student {id}: semester {s!r} is not a string")
        # stored as floats, so a cohort file reads back as the bytes it was saved as
        return super().__new__(cls, id, gender, {
            s: _check_mark(m, f"student {id}, semester {s!r}") for s, m in marks.items()})


class _NetworkFields(NamedTuple):
    label: str
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]


class FriendshipNetwork(_NetworkFields):
    """Directed simple graph over student ids.

    Invariants (enforced by :func:`build_network`): a str label, no self-loops,
    no duplicate edges, every edge endpoint is a known int node.
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
        return UndirectedView(nodes=kept, edges=edges)

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
) -> FriendshipNetwork:
    """Validate roster and nominations and assemble the directed network."""
    if not isinstance(label, str):
        raise DataError(f"label {label!r} is not a string")
    students = list(roster)
    ids = [s.id for s in students]
    nodes = frozenset(ids)
    if len(ids) != len(nodes):
        seen: set[int] = set()
        dup = next(i for i in ids if i in seen or seen.add(i))  # type: ignore[func-returns-value]
        raise DataError(f"student id {dup} appears more than once in the roster")

    edges: set[tuple[int, int]] = set()
    for src, tgt in nominations:
        if type(src) is not int:  # True and 1.0 would pass `in nodes` as 1
            src = _check_id(src, "edge source")
        if type(tgt) is not int:
            tgt = _check_id(tgt, "edge target")
        if src == tgt:
            raise DataError(f"self-nomination ({src}, {tgt}) is not allowed")
        if src not in nodes:
            raise DataError(f"edge source {src} is not in the roster")
        if tgt not in nodes:
            raise DataError(f"edge target {tgt} is not in the roster")
        if (src, tgt) in edges:
            raise DataError(f"nomination ({src}, {tgt}) appears more than once")
        edges.add((src, tgt))
    return FriendshipNetwork(label=label, nodes=nodes, edges=frozenset(edges))


def symmetrize(net: FriendshipNetwork, rule: SymmetrizeRule) -> UndirectedView:
    """Undirected view: UNION keeps any tie, INTERSECTION only reciprocal ones."""
    if rule is SymmetrizeRule.UNION:
        pairs = {(min(s, t), max(s, t)) for s, t in net.edges}
    else:
        pairs = {(min(s, t), max(s, t)) for s, t in net.edges if (t, s) in net.edges}
    return UndirectedView(nodes=net.nodes, edges=frozenset(pairs))


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
        """Every node's mark for ``semester``; refused unless each node has one."""
        marks = {s.id: s.marks[semester] for s in self.students if semester in s.marks}
        _check_cover(self.network.nodes, marks, f"{semester} mark")
        return marks

    def genders(self) -> dict[int, Gender]:
        return {s.id: s.gender for s in self.students}


def make_cohort(
    roster: Iterable[Student],
    nominations: Iterable[tuple[int, int]],
    label: str,
) -> Cohort:
    students = tuple(sorted(roster, key=lambda s: s.id))
    net = build_network(students, nominations, label)
    return Cohort(network=net, students=students)
