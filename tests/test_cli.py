import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortnet import Gender, Student, make_cohort
from cohortnet.cli import main
from cohortnet.io_formats import save_cohort

ROSTER = "id,gender,mark_s5\n1,M,80\n2,F,55\n3,F,70\n"
EDGES = "source,target\n1,2\n2,3\n"
# a refused nomination names no line yet
NO_TIE_LOCATOR = pytest.mark.xfail(reason="ROADMAP item 3: no line locator yet")


def write_cohort(path, students, edges, label="t"):
    cohort = make_cohort(students, edges, label)
    path.write_bytes(save_cohort(cohort))
    return path


def path_cohort(tmp_path, name="path.json"):
    students = [Student(id=i, marks={"s5": 60.0 + i}) for i in (1, 2, 3)]
    return write_cohort(tmp_path / name, students, [(1, 2), (2, 3)])


def two_component_cohort(tmp_path):
    students = [Student(id=i, marks={"s5": 50.0}) for i in (1, 2, 3, 4)]
    return write_cohort(tmp_path / "two.json", students, [(1, 2), (3, 4)])


def barbell_cohort(tmp_path):
    students = [Student(id=i, marks={"s5": 70.0}) for i in range(6)]
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    return write_cohort(tmp_path / "barbell.json", students, edges)


class TestIngest:
    def test_roster_plus_edges(self, tmp_path, capsys):
        (tmp_path / "r.csv").write_text(ROSTER)
        (tmp_path / "e.csv").write_text(EDGES)
        out = tmp_path / "cohort.json"
        code = main(["ingest", "--roster", str(tmp_path / "r.csv"),
                     "--edges", str(tmp_path / "e.csv"), "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "2 ties" in capsys.readouterr().out

    def test_adjacency_source(self, tmp_path):
        (tmp_path / "r.csv").write_text(ROSTER)
        (tmp_path / "m.csv").write_text(",1,2,3\n1,0,1,0\n2,0,0,1\n3,0,0,0\n")
        code = main(["ingest", "--roster", str(tmp_path / "r.csv"),
                     "--adjacency", str(tmp_path / "m.csv"),
                     "--out", str(tmp_path / "c.json")])
        assert code == 0

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["ingest", "--roster", str(tmp_path / "nope.csv"),
                     "--edges", str(tmp_path / "nope2.csv"),
                     "--out", str(tmp_path / "c.json")])
        assert code == 2

    def test_duplicate_id_names_line(self, tmp_path, capsys):
        (tmp_path / "r.csv").write_text("id,gender,mark_s5\n1,M,80\n1,F,55\n")
        (tmp_path / "e.csv").write_text("source,target\n")
        code = main(["ingest", "--roster", str(tmp_path / "r.csv"),
                     "--edges", str(tmp_path / "e.csv"),
                     "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_dedupe_flag(self, tmp_path):
        (tmp_path / "r.csv").write_text(ROSTER)
        (tmp_path / "e.csv").write_text("source,target\n1,2\n1,2\n")
        base = ["ingest", "--roster", str(tmp_path / "r.csv"),
                "--edges", str(tmp_path / "e.csv"), "--out", str(tmp_path / "c.json")]
        assert main(base) == 2
        assert main(base + ["--dedupe"]) == 0
        (tmp_path / "plain.csv").write_text("source,target\n1,2\n")
        assert main(["ingest", "--roster", str(tmp_path / "r.csv"),
                     "--edges", str(tmp_path / "plain.csv"),
                     "--out", str(tmp_path / "plain.json")]) == 0
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


# Whole rows that parse, so some generated files are accepted, and fragments
# that break them: quotes, each line ending, NUL, U+2028, invalid UTF-8.
_CSV_PIECES = [
    b"1,M,50\n", b"2,F,\n", b"3,U,100\n", b"1,2\n", b"2,3\n", b"3,1\n",
    b"1,0,1,0\n", b"2,0,0,1\n", b"3,1,0,0\n", b"1", b"2", b"0", b"007", b"-1", b"M", b"X",
    b"55.5", b"", b",", b"\n", b"\r", b"\r\n", b'"', b'""', b"\x00", "\u2028".encode(),
    b"\xff", b"\xc3", b" ", b"mark_s5",
]


def _csv_bytes(header):
    """CSV-like bytes: usually `header`, then pieces of rows, whole and broken."""
    return st.tuples(
        st.sampled_from([header, header, b"", header[:-1], header + b",x"]),
        st.lists(st.sampled_from(_CSV_PIECES), max_size=30),
    ).map(lambda parts: parts[0] + b"".join(parts[1]))


# Config lines that parse, broken ones, and separators that end no line
# (form feed, U+0085, U+2028) beside the three that do.
_CONFIG_PIECES = [
    b"high_t=80\n", b"low_t=50\n", b"bin_width=5\n", b"k_max=3\n", b"symmetrize=union\n",
    b"keep_low_subgroups=yes\n", b"# note\n", b"bogus=1", b"k_max=abc", b"high_t", b"=", b"#",
    b" ", b"\n", b"\r", b"\r\n", b"\x0c", "\x85".encode(), "\u2028".encode(), b"\xff",
]


def _line_count(data):
    """Lines in `data` when only LF, CRLF and a lone CR end one."""
    ends = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
    return ends + (not data.endswith((b"\n", b"\r")))


def _mutated(base, pieces):
    """`base` after up to four edits, each deleting 0-3 bytes at a point and inserting a piece.

    Half the points follow a separator of `base`, where a whole piece keeps the syntax.
    """
    def apply(edits):
        data = base
        for at, cut, piece in edits:
            at = min(at, len(data))
            data = data[:at] + piece + data[at + cut:]
        return data

    seams = [i + 1 for i, byte in enumerate(base) if byte in b"[{,:\n"]
    at = st.one_of(st.integers(0, len(base)), st.sampled_from(seams))
    return st.lists(st.tuples(at, st.integers(0, 3), st.sampled_from(pieces)),
                    max_size=4).map(apply)


# Cluster 0 is High, 1 Low and 2 Average, so the unmutated files plan with exit 0.
_MARKS = {1: 80.0, 2: 90.0, 3: 50.0, 4: 55.0, 5: 65.0, 6: 66.0}
_COHORT = save_cohort(make_cohort(
    [Student(id=i, gender=Gender.FEMALE, marks={"s5": m}) for i, m in _MARKS.items()],
    [(1, 2), (2, 1), (3, 4), (4, 3), (5, 6), (2, 3), (4, 5)], "t"))
_PARTITION = b"node,cluster\n1,0\n2,0\n3,1\n4,1\n5,2\n6,2\n"
_JSON_PIECES = [
    b'"', b",", b"[", b"]", b"{", b"}", b":", b"0", b"1", b"7", b"-1", b"1.5", b"101", b"1e400",
    b"true", b"null", b'"s5"', b'"M"', b'"X"', b'"id"', b'"marks"', b'"edges"', b'"students"',
    b'"label"', b'"\\ud800"', b'"\\u0001"', b"", b" ", b"\n", b"\r", b"\r\n", b"\x00",
    "\u2028".encode(), b"\xff", b"\xc3",
]
# values a cohort file can hold in that place, half the time, or any JSON value
_JSON_VALUES = st.sampled_from([7, 50.0, 99.5, "M", "U", "s6"]) | st.recursive(
    st.none() | st.booleans() | st.integers(-1, 8)
    | st.sampled_from([1.5, 1e300, 10**400, float("nan"), float("inf")])
    | st.sampled_from(["M", "F", "X", "s5", "", "\ud800", "a\x01b"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "gender", "marks", "s5"]), inner, max_size=3),
    max_leaves=5,
)


@st.composite
def _cohort_edits(draw):
    """The cohort as JSON with one to three values replaced or keys deleted, at drawn paths."""
    doc = json.loads(_COHORT)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
            parent = node
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(keys))
            node = node[key]
        value = draw(_JSON_VALUES)
        if parent is None:
            doc = value
        elif isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            del parent[key]
        else:
            parent[key] = value
    return json.dumps(doc).encode()


def _assert_exits_cleanly(argv, out, data):
    """`main` exits 0-3, makes `out` only on exit 0, and names only lines that `data` has."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out-dir", str(out)])
    assert code in (0, 1, 2, 3)
    assert out.exists() == (code == 0)
    locators = re.findall(r"\bline (\d+)", err.getvalue())  # also a bare "line N", as json writes it
    assert all(1 <= int(n) <= _line_count(data) for n in locators)


class TestInputHardening:
    def test_non_utf8_roster_exit_2_with_offset(self, tmp_path, capsys):
        (tmp_path / "r.csv").write_bytes(b"id,gender,mark_s5\n1,M,\xff50\n")
        (tmp_path / "e.csv").write_text("source,target\n")
        code = main(["ingest", "--roster", str(tmp_path / "r.csv"),
                     "--edges", str(tmp_path / "e.csv"), "--out", str(tmp_path / "c.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "byte offset 22" in err

    @pytest.mark.parametrize("data, line, offset", [
        (b"id,gender,mark_s5\r1,M,\xff50\r", 2, 22),
        (b"id,gender,mark_s5\r\n1,M,50\r2,F,\xff\r\n", 3, 30),
    ], ids=["cr", "crlf-then-cr"])
    def test_non_utf8_after_cr_exit_2_with_line(self, tmp_path, capsys, data, line, offset):
        # a lone CR ends a line, as it does for the CSV reader
        (tmp_path / "r.csv").write_bytes(data)
        (tmp_path / "e.csv").write_text("source,target\n")
        out = tmp_path / "out"
        assert main(["ingest", "--roster", str(tmp_path / "r.csv"),
                     "--edges", str(tmp_path / "e.csv"), "--out", str(out / "c.json")]) == 2
        assert f"data error: line {line}: byte offset {offset}: " in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_exit_2_with_path_and_offset(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# thresholds\nhigh_t=\xff\n")
        assert main(["report", str(path_cohort(tmp_path)), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "line 2" in err and "byte offset 20" in err

    @pytest.mark.parametrize("kind, text, line", [
        ("roster", "", 1),
        ("roster", "id,gender,mark_s5,mark_s5\n1,M,80,80\n", 1),
        ("roster", "id,gender,mark_s5\n1,M\n", 2),
        ("roster", "id,gender,mark_s5\n1,M,abc\n", 2),
        ("edges", "", 1),
        ("edges", "source,target\n1,2,3\n", 2),
        ("adjacency", "", 1),
        ("adjacency", ",1,1\n1,0,0\n1,0,0\n", 1),
        ("adjacency", ",1,2\n2,0,0\n1,0,0\n", 2),
        ("partition", "", 1),
        ("partition", "node,cluster\n1\n", 2),
        ("partition", "id,cluster\n1,0\n", 1),
        ("partition", "node,cluster\n", 1),
        ("adjacency", "x\n", 1),
        ("roster", "id,gender,mark_s5\n1,M," + "5" * 200_000 + "\n", 2),
        ("roster", 'id,gender,mark_s5\n"1\n2",M,50\n', 2),
        ("roster", 'id,gender,"mark_s\n5"\n1,M,50\n2,X,40\n', 4),
    ], ids=[
        "roster-empty", "roster-duplicate-mark-column", "roster-field-count",
        "roster-mark-abc", "edges-empty", "edges-field-count", "adjacency-empty",
        "adjacency-duplicate-header-id", "adjacency-row-out-of-order", "partition-empty",
        "partition-field-count", "partition-header", "partition-header-only",
        "adjacency-no-id-column", "roster-cell-over-field-limit", "roster-quoted-id-spans-lines",
        "roster-line-after-multiline-header",
    ])
    def test_malformed_file_exit_2_with_line(self, tmp_path, capsys, kind, text, line):
        paths = {}
        for name, content in {"roster": ROSTER, "edges": EDGES, kind: text}.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(content)
        out = tmp_path / "out"
        if kind == "partition":
            argv = ["classify", str(path_cohort(tmp_path)), "--partition", str(paths[kind])]
        else:
            source = "adjacency" if kind == "adjacency" else "edges"
            argv = ["ingest", "--roster", str(paths["roster"]), f"--{source}",
                    str(paths[source]), "--out", str(out / "c.json")]
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert f"data error: line {line}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source, text, line, message", [
        pytest.param("edges", "source,target\n1,2\n1,2\n", 3,
                     "nomination (1, 2) appears more than once", id="edges-repeated",
                     marks=NO_TIE_LOCATOR),
        pytest.param("edges", "source,target\n1,9\n", 2, "edge target 9 is not in the roster",
                     id="edges-target-not-in-roster", marks=NO_TIE_LOCATOR),
        pytest.param("adjacency", ",1,9\n1,0,1\n9,0,0\n", 1, "9 is not in the roster",
                     id="adjacency-header-id-not-in-roster"),
        pytest.param("adjacency", ",1,2,9\n1,0,1,0\n2,0,0,0\n9,0,0,0\n", 1,
                     "9 is not in the roster", id="adjacency-header-id-without-ties"),
    ])
    def test_refused_tie_names_line(self, tmp_path, capsys, source, text, line, message):
        (tmp_path / "roster.csv").write_text(ROSTER)
        (tmp_path / "ties.csv").write_text(text)
        out = tmp_path / "out"
        assert main(["ingest", "--roster", str(tmp_path / "roster.csv"), f"--{source}",
                     str(tmp_path / "ties.csv"), "--out", str(out / "c.json")]) == 2
        err = capsys.readouterr().err
        assert f"data error: line {line}: " in err and message in err
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(roster=_csv_bytes(b"id,gender,mark_s5\n"), ties=_csv_bytes(b"source,target\n"),
           matrix=_csv_bytes(b",1,2,3\n"), use_matrix=st.booleans())
    def test_ingest_of_any_bytes_exits_cleanly(self, roster, ties, matrix, use_matrix):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "roster.csv").write_bytes(roster)
            (d / "ties.csv").write_bytes(matrix if use_matrix else ties)
            out = d / "out"
            code = main(["ingest", "--roster", str(d / "roster.csv"),
                         "--adjacency" if use_matrix else "--edges", str(d / "ties.csv"),
                         "--out", str(out / "c.json")])
            assert code in (0, 1, 2, 3)
            assert out.exists() == (code == 0)

    @settings(max_examples=100, deadline=None)
    @given(partition=_mutated(_PARTITION, [*_CSV_PIECES, b"node,cluster\n", b"4,1\n"]))
    def test_partition_of_any_bytes_exits_cleanly(self, partition):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "c.json").write_bytes(_COHORT)
            (d / "p.csv").write_bytes(partition)
            for command, *flags in (["classify"], ["plan"], ["export", "--semester", "s5"]):
                _assert_exits_cleanly([command, str(d / "c.json"), "--partition",
                                       str(d / "p.csv"), *flags], d / command, partition)

    @settings(max_examples=100, deadline=None)
    @given(cohort=st.one_of(_mutated(_COHORT, _JSON_PIECES), _cohort_edits()),
           measure=st.sampled_from(["--communities", "degree", "betweenness", "closeness",
                                    "eigenvector"]),
           fmt=st.sampled_from(["dot", "graphml"]))
    def test_cohort_of_any_bytes_exits_cleanly(self, cohort, measure, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "c.json").write_bytes(cohort)
            analyze = [measure] if measure == "--communities" else ["--measure", measure]
            commands = (["report"], ["export", "--format", fmt], ["analyze", *analyze])
            for command, *flags in commands:
                _assert_exits_cleanly([command, str(d / "c.json"), *flags], d / command, cohort)

    @settings(max_examples=200, deadline=None)
    @given(config=st.lists(st.sampled_from(_CONFIG_PIECES), max_size=20).map(b"".join))
    def test_config_of_any_bytes_exits_cleanly(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            cfg = d / "run.cfg"
            cfg.write_bytes(config)
            out = d / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["report", str(path_cohort(d)), "--config", str(cfg),
                             "--out-dir", str(out)])
            assert code in (0, 1, 2, 3)
            assert out.exists() == (code == 0)
            locators = re.findall(re.escape(str(cfg)) + r":(?: line)? ?(\d+):", err.getvalue())
            assert all(1 <= int(n) <= _line_count(config) for n in locators)

    @pytest.mark.parametrize("top", ["0", "1000"])
    def test_refused_command_writes_nothing(self, tmp_path, capsys, top):
        out = tmp_path / "out"
        assert main(["analyze", str(path_cohort(tmp_path)), "--measure", "degree",
                     "--top", top, "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err.startswith("analysis refused: ")
        assert not out.exists()

    @pytest.mark.parametrize("label, fmt", [
        ("\udcff", "dot"), ("\ud800", "dot"), ("\udcff", "graphml"), ("a\x01b", "graphml"),
    ], ids=["dot-surrogate-from-argv", "dot-surrogate-from-cohort-file", "graphml-surrogate",
            "graphml-control-character"])
    def test_unwritable_label_refused(self, tmp_path, capsys, label, fmt):
        cohort = tmp_path / "c.json"
        if label == "\ud800":  # the cohort file holds "label": "\ud800"
            cohort.write_text(path_cohort(tmp_path).read_text().replace('"t"', '"\\ud800"'))
        else:  # `ingest --label $'\xff'` reaches argv as "\udcff"
            (tmp_path / "r.csv").write_text(ROSTER)
            (tmp_path / "e.csv").write_text(EDGES)
            assert main(["ingest", "--roster", str(tmp_path / "r.csv"), "--edges",
                         str(tmp_path / "e.csv"), "--label", label, "--out", str(cohort)]) == 0
        out = tmp_path / "out"
        assert main(["export", str(cohort), "--format", fmt, "--out-dir", str(out)]) == 2
        assert f"{fmt} cannot carry" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_cohort_exit_2(self, tmp_path):
        (tmp_path / "c.json").write_bytes(b'{"label": "\xff"}')
        assert main(["analyze", str(tmp_path / "c.json"), "--measure", "degree",
                     "--out-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("student_id,edge", [
        (True, [1, 2]), (2.7, [1, 2]), (1, [True, 2]), (1, [1, 2.5]), (1, [1, 1e999]),
        ("1", [1, 2]), (1, ["1", 2]),
    ])
    def test_non_integer_cohort_ids_exit_2(self, tmp_path, capsys, student_id, edge):
        doc = {"label": "t", "edges": [edge],
               "students": [{"id": student_id, "gender": "U"}, {"id": 2, "gender": "U"}]}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["analyze", str(tmp_path / "c.json"), "--measure", "degree",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "is not an integer" in capsys.readouterr().err

    def test_integral_float_id_still_accepted(self, tmp_path):
        doc = {"label": "t", "edges": [[1.0, 2]],
               "students": [{"id": 1.0, "gender": "U"}, {"id": 2, "gender": "U"}]}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["analyze", str(tmp_path / "c.json"), "--measure", "degree",
                     "--out-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("marks,message", [
        ([1], "is not an object"), (None, "is not an object"),
        ({"s5": True}, "is not a number"), ({"s5": "85"}, "is not a number"),
        ({"s5": None}, "is not a number"), ({"s5": 10**400}, "too large"),
    ])
    def test_marks_not_an_object_of_numbers_exit_2(self, tmp_path, capsys, marks, message):
        doc = {"label": "t", "edges": [],
               "students": [{"id": 1, "gender": "U", "marks": marks}]}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["report", str(tmp_path / "c.json"), "--semester", "s5",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_non_string_label_exit_2(self, tmp_path):
        doc = {"label": 5, "edges": [], "students": [{"id": 1, "gender": "U"}]}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["export", str(tmp_path / "c.json"),
                     "--out-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("data, line", [
        (b"\n", 1), (b'{\r\r\r  "label": x}', 4), (b"", 1), (b'{"label": "t",\r\n', 1),
    ], ids=["lf-only", "lone-crs", "empty", "crlf-then-end"])
    def test_invalid_json_cohort_names_line(self, tmp_path, capsys, data, line):
        (tmp_path / "c.json").write_bytes(data)
        out = tmp_path / "out"
        assert main(["report", str(tmp_path / "c.json"), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: line {line}: cohort file is not valid JSON: ")
        assert not out.exists()

    def test_deeply_nested_cohort_exit_2(self, tmp_path, capsys):
        (tmp_path / "deep.json").write_text("[" * 100_000)
        out = tmp_path / "out"
        assert main(["report", str(tmp_path / "deep.json"), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error: cohort file")
        assert not out.exists()


@pytest.fixture
def int_digit_limit():
    """int() reads at most 4,300 digits (CPython's default) for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


LONG_ID = "1" * 5000


class TestOverLongIntegers:
    """A number with more digits than int() reads is refused, never a traceback."""

    @pytest.mark.parametrize("source, roster, ties, line", [
        ("edges", f"id,gender\n1,M\n{LONG_ID},F\n", "source,target\n", 3),
        ("edges", ROSTER, f"source,target\n1,2\n2,{LONG_ID}\n", 3),
        ("adjacency", ROSTER, f",1,{LONG_ID}\n1,0,0\n{LONG_ID},0,0\n", 1),
        ("adjacency", ROSTER, f",1,2\n1,0,1\n{LONG_ID},0,0\n", 3),
    ], ids=["roster-id", "edge-endpoint", "adjacency-header-id", "adjacency-row-label"])
    def test_ingest_refuses_with_line(self, tmp_path, capsys, int_digit_limit,
                                      source, roster, ties, line):
        (tmp_path / "roster.csv").write_text(roster)
        (tmp_path / "ties.csv").write_text(ties)
        out = tmp_path / "out"
        assert main(["ingest", "--roster", str(tmp_path / "roster.csv"), f"--{source}",
                     str(tmp_path / "ties.csv"), "--out", str(out / "c.json")]) == 2
        assert capsys.readouterr().err == (
            f"data error: line {line}: id of 5000 digits is over the limit of 4300 digits\n")
        assert not out.exists()

    def test_partition_node_refused_with_line(self, tmp_path, capsys, int_digit_limit):
        (tmp_path / "p.csv").write_text(f"node,cluster\n1,0\n{LONG_ID},1\n")
        out = tmp_path / "out"
        assert main(["classify", str(path_cohort(tmp_path)), "--partition",
                     str(tmp_path / "p.csv"), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "data error: line 3: id of 5000 digits is over the limit of 4300 digits\n")
        assert not out.exists()

    @pytest.mark.parametrize("student", [
        '{"id": ' + "1" * 5001 + ', "gender": "U", "marks": {"s5": 50}}',
        '{"id": 1, "gender": "U", "marks": {"s5": ' + "1" * 5001 + '}}',
    ], ids=["id", "integer-mark"])
    def test_cohort_file_refused(self, tmp_path, capsys, int_digit_limit, student):
        (tmp_path / "c.json").write_text(
            f'{{"label": "t", "edges": [], "students": [{student}]}}')
        out = tmp_path / "out"
        assert main(["report", str(tmp_path / "c.json"), "--semester", "s5",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "data error: cohort file: an integer is over the limit of 4300 digits\n")
        assert not out.exists()


class TestAnalyze:
    def test_betweenness_csv(self, tmp_path):
        cohort = path_cohort(tmp_path)
        out = tmp_path / "out"
        code = main(["analyze", str(cohort), "--measure", "betweenness",
                     "--out-dir", str(out)])
        assert code == 0
        rows = (out / "centrality_betweenness.csv").read_text().splitlines()
        assert rows[0] == "node,score"
        assert dict(r.split(",") for r in rows[1:])["2"] == "1.0"

    def test_closeness_refusal_exit_3(self, tmp_path, capsys):
        cohort = two_component_cohort(tmp_path)
        code = main(["analyze", str(cohort), "--measure", "closeness",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "components" in capsys.readouterr().err

    def test_communities_best_k(self, tmp_path, capsys):
        cohort = barbell_cohort(tmp_path)
        out = tmp_path / "out"
        code = main(["analyze", str(cohort), "--communities", "--k-max", "15",
                     "--out-dir", str(out)])
        assert code == 0
        assert "k=2" in capsys.readouterr().out
        rows = (out / "partition.csv").read_text().splitlines()[1:]
        clusters = {r.split(",")[1] for r in rows}
        assert len(clusters) == 2
        assert (out / "modularity_curve.csv").read_text().startswith("k,Q\n")

    def test_degree_and_representatives(self, tmp_path):
        cohort = path_cohort(tmp_path)
        out = tmp_path / "out"
        assert main(["analyze", str(cohort), "--measure", "degree",
                     "--out-dir", str(out)]) == 0
        header = (out / "centrality_degree.csv").read_text().splitlines()[0]
        assert header == "node,in_degree,out_degree,total"
        assert main(["analyze", str(cohort), "--measure", "betweenness",
                     "--top", "2", "--out-dir", str(out)]) == 0
        reps = (out / "representatives.csv").read_text().splitlines()
        assert reps[1].startswith("1,2,")  # rank 1 is the middle node

    def test_eigenvector_no_convergence_exit_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["demo", "--seed", "105", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(tmp_path / "cohort.json"), "--measure", "eigenvector",
                     "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "analysis refused: power iteration did not converge within 1000 iterations\n"
        )
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        cohort = barbell_cohort(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["analyze", str(cohort), "--communities",
                         "--out-dir", str(out)]) == 0
        for name in ("partition.csv", "modularity_curve.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestClassifyAndPlan:
    def plan_inputs(self, tmp_path):
        students = [
            Student(id=i, marks={"s5": m})
            for i, m in zip(range(1, 9), (80, 82, 78, 75, 77, 79, 50, 52))
        ]
        edges = [(1, 2), (2, 1), (4, 5), (5, 4), (7, 8), (8, 7), (3, 7)]
        cohort = write_cohort(tmp_path / "c.json", students, edges)
        partition = tmp_path / "p.csv"
        partition.write_text(
            "node,cluster\n1,0\n2,0\n3,0\n4,1\n5,1\n6,1\n7,2\n8,2\n"
        )
        return cohort, partition

    def test_classify(self, tmp_path):
        cohort, partition = self.plan_inputs(tmp_path)
        out = tmp_path / "out"
        code = main(["classify", str(cohort), "--partition", str(partition),
                     "--out-dir", str(out)])
        assert code == 0
        rows = (out / "clusters.csv").read_text().splitlines()
        assert rows[0] == "cluster,size,mean_mark,class"
        assert rows[1].endswith("high") and rows[3].endswith("low")

    def test_plan_matches_hand_trace(self, tmp_path):
        cohort, partition = self.plan_inputs(tmp_path)
        out = tmp_path / "out"
        code = main(["plan", str(cohort), "--partition", str(partition),
                     "--max-group", "6", "--out-dir", str(out)])
        assert code == 0
        rows = (out / "plan.csv").read_text().splitlines()
        assert rows == [
            "student,group,role",
            "1,0,preserved", "2,0,preserved", "3,0,preserved",
            "4,1,preserved", "5,1,preserved", "6,1,preserved",
            "7,0,dispersed", "8,0,dispersed",
        ]
        report = (out / "plan_report.txt").read_text()
        assert "2 groups" in report and "dispersed: 7 8" in report

    def test_keep_low_subgroups_from_config_file(self, tmp_path):
        cohort, partition = self.plan_inputs(tmp_path)
        cfg = tmp_path / "run.cfg"
        # as singletons, 7 goes to group 0, then 8 to group 1, now the smaller one
        singletons, pair = ["7,0,dispersed", "8,1,dispersed"], ["7,0,dispersed", "8,0,dispersed"]
        for spelling, tail in [("no", singletons), ("true", pair), ("yes", pair), ("1", pair)]:
            cfg.write_text(f"keep_low_subgroups={spelling}\n")
            out = tmp_path / f"out_{spelling}"
            assert main(["plan", str(cohort), "--partition", str(partition), "--max-group",
                         "6", "--config", str(cfg), "--out-dir", str(out)]) == 0
            assert (out / "plan.csv").read_text().splitlines()[-2:] == tail

    def test_group_bounds_notes_on_demo(self, tmp_path):
        assert main(["demo", "--out-dir", str(tmp_path)]) == 0
        out = tmp_path / "out"
        assert main(["plan", str(tmp_path / "cohort.json"), "--min-group", "15",
                     "--max-group", "15", "--out-dir", str(out)]) == 0
        notes = (out / "plan_report.txt").read_text().split("notes:\n")[1].splitlines()
        assert notes[0].startswith("  - group 3 exceeds max_group=15: no group could take")
        assert notes[-1] == "  - group 7 has 8 members, below min_group=15"

    def test_all_low_exit_3(self, tmp_path, capsys):
        students = [Student(id=i, marks={"s5": 40.0}) for i in (1, 2)]
        cohort = write_cohort(tmp_path / "low.json", students, [(1, 2)])
        code = main(["plan", str(cohort), "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "high" in capsys.readouterr().err.lower()

    def test_all_high_identity_plan(self, tmp_path):
        students = [Student(id=i, marks={"s5": 90.0}) for i in (1, 2, 3)]
        cohort = write_cohort(tmp_path / "hi.json", students, [(1, 2), (2, 3), (3, 1)])
        out = tmp_path / "out"
        assert main(["plan", str(cohort), "--out-dir", str(out)]) == 0
        rows = (out / "plan.csv").read_text().splitlines()[1:]
        assert all(r.endswith("preserved") for r in rows)


class TestReport:
    def test_single_cohort(self, tmp_path):
        cohort = path_cohort(tmp_path)
        out = tmp_path / "out"
        assert main(["report", str(cohort), "--out-dir", str(out)]) == 0
        assert (out / "summary_a.csv").exists()
        assert (out / "histogram_a.csv").exists()
        assert "mean" in (out / "report.txt").read_text()

    def test_two_identical_cohorts_zero_difference(self, tmp_path, capsys):
        a = path_cohort(tmp_path, "a.json")
        b = path_cohort(tmp_path, "b.json")
        out = tmp_path / "out"
        assert main(["report", str(a), str(b), "--out-dir", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "mean difference (cohort a - cohort b): +0.000" in text

    def test_missing_marks_exit_2(self, tmp_path):
        students = [Student(id=1, marks={"s5": 50.0}), Student(id=2)]
        cohort = write_cohort(tmp_path / "gap.json", students, [(1, 2)])
        code = main(["report", str(cohort), "--semester", "s5",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("empty_first", [True, False])
    def test_empty_cohort_exit_2_writes_nothing(self, tmp_path, capsys, empty_first):
        full = path_cohort(tmp_path)
        empty = write_cohort(tmp_path / "empty.json", [], [])
        pair = [empty, full] if empty_first else [full, empty]
        out = tmp_path / "out"
        assert main(["report", *map(str, pair), "--semester", "s5",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "data error: both groups need at least one mark\n"
        assert not out.exists()

    def test_three_cohorts_usage_error(self, tmp_path):
        a = path_cohort(tmp_path, "a.json")
        assert main(["report", str(a), str(a), str(a),
                     "--out-dir", str(tmp_path / "out")]) == 1


class TestExport:
    def test_dot_with_attributes(self, tmp_path):
        students = [Student(id=1, gender=Gender.MALE, marks={"s5": 100.0})]
        cohort = write_cohort(tmp_path / "one.json", students, [])
        partition = tmp_path / "p.csv"
        partition.write_text("node,cluster\n1,0\n")
        out = tmp_path / "out"
        code = main(["export", str(cohort), "--format", "dot", "--semester", "s5",
                     "--partition", str(partition), "--out-dir", str(out)])
        assert code == 0
        dot = (out / "graph.dot").read_text()
        assert "shape=circle" in dot and "width=1.00" in dot

    def test_graphml(self, tmp_path):
        cohort = path_cohort(tmp_path)
        out = tmp_path / "out"
        assert main(["export", str(cohort), "--format", "graphml",
                     "--out-dir", str(out)]) == 0
        assert (out / "graph.graphml").read_bytes().startswith(b"<?xml")


class TestDemoAndConfig:
    def test_demo_writes_sources(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--out-dir", str(out)]) == 0
        for name in ("roster.csv", "edges.csv", "cohort.json"):
            assert (out / name).exists()

    def test_unknown_flag_usage_error(self, tmp_path):
        assert main(["analyze", "x.json", "--measure", "betweenness",
                     "--bogus"]) == 1

    @pytest.mark.parametrize("command", ["analyze", "plan"])
    def test_symmetrize_help_lists_rule_names(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--symmetrize {union,intersection}" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["SymmetrizeRule.UNION", "bogus"])
    def test_unknown_symmetrize_rule_usage_error(self, tmp_path, capsys, value):
        cohort = barbell_cohort(tmp_path)
        assert main(["analyze", str(cohort), "--communities", "--symmetrize", value,
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --symmetrize: ")
        assert "union" in err and "intersection" in err

    def test_symmetrize_union_is_the_default(self, tmp_path):
        cohort = barbell_cohort(tmp_path)
        for out, flags in (("a", []), ("b", ["--symmetrize", "union"])):
            assert main(["analyze", str(cohort), "--communities", *flags,
                         "--out-dir", str(tmp_path / out)]) == 0
        assert ((tmp_path / "a" / "partition.csv").read_bytes()
                == (tmp_path / "b" / "partition.csv").read_bytes())

    @pytest.mark.parametrize("measure", ["closeness", "eigenvector", "betweenness", "degree"])
    def test_symmetrize_without_communities_usage_error(self, tmp_path, capsys, measure):
        # every measure fixes its own view, so the flag would be ignored
        out = tmp_path / "out"
        assert main(["analyze", str(path_cohort(tmp_path)), "--measure", measure,
                     "--symmetrize", "intersection", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "usage error: --symmetrize needs --communities: no --measure reads it\n")
        assert not out.exists()

    def test_symmetrize_config_key_still_read_with_measure(self, tmp_path):
        # classify and plan read the key, so a shared config file may set it
        (tmp_path / "run.cfg").write_text("symmetrize=intersection\n")
        assert main(["analyze", str(path_cohort(tmp_path)), "--measure", "closeness",
                     "--config", str(tmp_path / "run.cfg"),
                     "--out-dir", str(tmp_path / "out")]) == 0

    def test_bad_threshold_combo_usage_error(self, tmp_path):
        cohort = path_cohort(tmp_path)
        assert main(["plan", str(cohort), "--high-t", "50", "--low-t", "60",
                     "--out-dir", str(tmp_path / "out")]) == 1

    def test_config_file_and_flag_precedence(self, tmp_path):
        cohort = path_cohort(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bin_width=50\n# comment\n")
        out = tmp_path / "out1"
        assert main(["report", str(cohort), "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        assert len((out / "histogram_a.csv").read_text().splitlines()) == 2  # one bin
        out2 = tmp_path / "out2"
        assert main(["report", str(cohort), "--config", str(cfg), "--bins", "1",
                     "--out-dir", str(out2)]) == 0
        assert len((out2 / "histogram_a.csv").read_text().splitlines()) == 4  # 61..63

    def test_unknown_config_key_usage_error(self, tmp_path):
        cohort = path_cohort(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        assert main(["report", str(cohort), "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("text, line", [
        ("keep_low_subgroups=maybe\n", 1),
        ("# thresholds\nhigh_t 80\n", 2),
        ("k_max=abc\n", 1),
        ("\nsymmetrize=bogus\n", 2),
    ], ids=["bool", "no-equals", "int", "symmetrize"])
    def test_bad_config_line_usage_error(self, tmp_path, capsys, text, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["report", str(path_cohort(tmp_path)), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {cfg}:{line}: ")

    @pytest.mark.parametrize("data, line", [
        (b"low_t=50\x0cbogus=1\n", 1),
        ("low_t=50\x85bogus=1\n".encode(), 1),
        ("low_t=50\u2028bogus=1\n".encode(), 1),
        (b"# note\r\nbogus=1\r\n", 2),
        (b"# note\rbogus=1\r", 2),
        (b"# note\r# more\r\nbogus=1\n", 3),
    ], ids=["form-feed", "u0085", "u2028", "crlf", "cr", "cr-then-crlf"])
    def test_config_lines_end_only_at_lf_crlf_or_cr(self, tmp_path, capsys, data, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(data)
        assert main(["report", str(path_cohort(tmp_path)), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {cfg}:{line}: ")

    @pytest.mark.parametrize("command, flags, text, message", [
        ("plan", ["--high-t", "50", "--low-t", "60"], "high_t=50\nlow_t=60\n",
         "need low_t < high_t, got 60.0 >= 50.0"),
        ("plan", ["--min-group", "0"], "min_group=0\n",
         "need 1 <= min_group <= max_group, got 0..18"),
        ("report", ["--bins", "0"], "bin_width=0\n", "bin_width must be >= 1, got 0"),
        ("plan", ["--k-max", "1"], "k_max=1\n", "k_max must be >= 2, got 1"),
    ], ids=["thresholds", "group-bounds", "bin-width", "k-max"])
    def test_broken_setting_rule_usage_error(self, tmp_path, capsys, command, flags, text,
                                             message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        base = [command, str(path_cohort(tmp_path)), "--out-dir", str(tmp_path / "out")]
        for extra in (flags, ["--config", str(cfg)]):
            assert main(base + extra) == 1
            assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        cohort = path_cohort(tmp_path)
        monkeypatch.setenv("COHORTNET_OUT_DIR", str(tmp_path / "envout"))
        assert main(["report", str(cohort)]) == 0
        assert (tmp_path / "envout" / "report.txt").exists()

    def test_semester_required_when_ambiguous(self, tmp_path):
        students = [Student(id=1, marks={"s5": 50.0, "s6": 60.0})]
        cohort = write_cohort(tmp_path / "amb.json", students, [])
        assert main(["report", str(cohort), "--out-dir", str(tmp_path / "o")]) == 1
        assert main(["report", str(cohort), "--semester", "s6",
                     "--out-dir", str(tmp_path / "o")]) == 0
