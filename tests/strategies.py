"""Shared hypothesis strategies for graphs and cohorts."""

from __future__ import annotations

from hypothesis import strategies as st

from cohortnet import (
    Gender,
    Student,
    UndirectedView,
    build_network,
    make_cohort,
)


@st.composite
def directed_networks(draw, min_nodes=1, max_nodes=8, with_isolated=True):
    n = draw(st.integers(min_nodes, max_nodes))
    nodes = list(range(n))
    possible = [(a, b) for a in nodes for b in nodes if a != b]
    edges = draw(st.sets(st.sampled_from(possible)) if possible else st.just(set()))
    if not with_isolated:
        touched = {v for e in edges for v in e}
        nodes = sorted(touched) or [0]
    roster = [Student(id=v) for v in nodes]
    return build_network(roster, sorted(edges), "gen")


@st.composite
def undirected_views(draw, min_nodes=2, max_nodes=8):
    n = draw(st.integers(min_nodes, max_nodes))
    nodes = list(range(n))
    possible = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    edges = draw(st.sets(st.sampled_from(possible)) if possible else st.just(set()))
    return UndirectedView(nodes=frozenset(nodes), edges=frozenset(edges))


marks_lists = st.lists(
    st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=40
)


# Texts with the characters JSON must escape. st.text's default alphabet draws no lone
# surrogate; st.characters draws them unless told not to.
_ESCAPED = ['"', "\\", '\\"', "\x00\x1f\x7f", "\n\r\t", "s\u00e9m", "\u2028", "\U0001f600",
            "\u5b66\u671f"]
# Cohort labels: any str, the empty one and a lone surrogate included.
json_texts = st.one_of(st.text(max_size=6), st.sampled_from([*_ESCAPED, "\ud800"]))
# Semester labels: Student refuses an empty one and one with a lone surrogate, a CR or a NUL.
semester_texts = st.one_of(
    st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\r\0"),
            min_size=1, max_size=6),
    st.sampled_from([t.replace("\r", "").replace("\0", "") for t in _ESCAPED]),
)


@st.composite
def cohorts(draw, max_students=6):
    """Cohorts that make_cohort accepts: ids up to 12 digits, int and float marks."""
    ids = draw(st.lists(st.integers(0, 10**12 - 1), max_size=max_students, unique=True))
    marks = st.dictionaries(
        semester_texts, st.one_of(st.integers(0, 100), st.floats(0, 100)), max_size=3
    )
    roster = [
        Student(id=sid, gender=draw(st.sampled_from(Gender)), marks=draw(marks)) for sid in ids
    ]
    possible = [(a, b) for a in ids for b in ids if a != b]
    edges = draw(st.sets(st.sampled_from(possible)) if possible else st.just(set()))
    return make_cohort(roster, sorted(edges), draw(json_texts))
