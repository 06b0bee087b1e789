"""The id, gender and label rules live in model alone. `Student` checks its id
(model._check_id) and its gender; `build_network` checks the label and every tie
endpoint. The cohort loader and the roster parser pass raw values through, so a
record that builds is one that every writer can write."""

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohortnet import Gender, Student, build_network, make_cohort
from cohortnet.cli import main
from cohortnet.errors import DataError
from cohortnet.io_formats import (
    GraphFormat,
    export_edges,
    export_graph,
    export_roster,
    load_cohort,
    parse_edges,
    save_cohort,
)

PAIR = [Student(id=1), Student(id=2)]


def _refused(build, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("code, member", [
    ("M", Gender.MALE), ("F", Gender.FEMALE), ("U", Gender.UNSPECIFIED),
    (Gender.FEMALE, Gender.FEMALE),
])
def test_gender_code_becomes_a_member(code, member):
    student = Student(id=1, gender=code)
    assert student.gender is member
    assert Student(id=1)._replace(gender=code).gender is member


@pytest.mark.parametrize("gender, shown", [("X", "'X'"), (None, "None"), (1, "1"), ("m", "'m'")])
def test_gender_outside_the_codes_refused(gender, shown):
    message = f"student 4: gender {shown} is not one of M, F, U"
    _refused(lambda: Student(id=4, gender=gender), message)
    _refused(lambda: Student(id=4)._replace(gender=gender), message)


def test_integral_float_id_becomes_an_int():
    assert type(Student(id=3.0).id) is int and Student(id=3.0) == Student(id=3)


@pytest.mark.parametrize("sid, message", [
    (3.5, "student id 3.5 is not an integer"),
    (True, "student id True is not an integer"),
    ("3", "student id '3' is not an integer"),
    (float("inf"), "student id inf is not an integer"),
    (-1, "student id -1 must be non-negative"),
    (-2.0, "student id -2 must be non-negative"),
])
def test_id_outside_the_rule_refused(sid, message):
    _refused(lambda: Student(id=sid), message)


@pytest.mark.parametrize("tie, message", [
    ((True, 2), "edge source True is not an integer"),
    ((1, False), "edge target False is not an integer"),
    ((1, 2.5), "edge target 2.5 is not an integer"),
    (("1", 2), "edge source '1' is not an integer"),
])
def test_tie_endpoint_outside_the_rule_refused(tie, message):
    _refused(lambda: build_network(PAIR, [tie], "t"), message)


def test_integral_float_endpoint_stored_as_an_int():
    net = build_network(PAIR, [(1.0, 2)], "t")
    assert net.edges == {(1, 2)}
    assert all(type(v) is int for e in net.edges for v in e)
    assert export_edges(net) == b"source,target\n1,2\n"


@pytest.mark.parametrize("label", [5, None, b"x"])
def test_label_that_is_not_a_str_refused(label):
    _refused(lambda: make_cohort(PAIR, [], label), f"label {label!r} is not a string")


@pytest.mark.parametrize("doc, message", [
    ({"gender": "X"}, "student 1: gender 'X' is not one of M, F, U"),
    ({"label": 5}, "label 5 is not a string"),
    ({"edges": [[True, 2]]}, "edge source True is not an integer"),
    ({"edges": [[1, 0.5]]}, "edge target 0.5 is not an integer"),
    ({"id": 0.5}, "student id 0.5 is not an integer"),
], ids=["gender", "label", "bool-endpoint", "fractional-endpoint", "fractional-id"])
def test_cohort_file_refused(tmp_path, capsys, doc, message):
    students = [{"id": doc.get("id", 1), "gender": doc.get("gender", "U")},
                {"id": 2, "gender": "F"}]
    text = {"label": doc.get("label", "t"), "edges": doc.get("edges", []), "students": students}
    (tmp_path / "c.json").write_text(json.dumps(text))
    out = tmp_path / "out"
    assert main(["analyze", str(tmp_path / "c.json"), "--measure", "degree",
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr() == ("", f"data error: {message}\n")
    assert not out.exists()


def test_roster_gender_refused_on_its_line(tmp_path, capsys):
    (tmp_path / "r.csv").write_text("id,gender,mark_s5\n1,X,80\n")
    (tmp_path / "e.csv").write_text("source,target\n")
    out = tmp_path / "out"
    assert main(["ingest", "--roster", str(tmp_path / "r.csv"), "--edges",
                 str(tmp_path / "e.csv"), "--out", str(out / "c.json")]) == 2
    assert capsys.readouterr() == (
        "", "data error: line 2: student 1: gender 'X' is not one of M, F, U\n")
    assert not out.exists()


# Values a library caller might pass: some within each rule, some outside it.
ids = st.one_of(st.integers(-1, 5), st.integers(0, 5).map(float), st.booleans(),
                st.sampled_from([2.5, float("nan"), "3", None]))
genders = st.sampled_from([*Gender, "M", "F", "U", "X", "m", "", None, 1])
labels = st.one_of(st.text(st.characters(min_codepoint=0x20, max_codepoint=0xD7FF), max_size=4),
                   st.sampled_from([5, None, b"x", 1.0]))
marks = st.dictionaries(st.sampled_from(["s5", "s6"]),
                        st.one_of(st.integers(0, 101), st.floats(0, 100)), max_size=2)


@given(st.lists(st.tuples(ids, genders, marks), max_size=4),
       st.lists(st.tuples(ids, ids), max_size=4), labels)
def test_a_record_that_builds_is_written_and_read_back(rows, ties, label):
    try:
        cohort = make_cohort([Student(i, g, m) for i, g, m in rows], ties, label)
    except DataError:
        return
    net = cohort.network
    written = [export_roster(cohort.students), export_edges(net), save_cohort(cohort),
               *(export_graph(net, fmt, genders=cohort.genders()) for fmt in GraphFormat)]
    assert all(type(data) is bytes for data in written)
    assert load_cohort(written[2]) == cohort
    assert sorted(parse_edges(written[1])) == sorted(net.edges)
