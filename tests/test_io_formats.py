import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohortnet import (
    Gender,
    Partition,
    Student,
    build_network,
    make_cohort,
    reciprocity_rate,
)
from cohortnet.cli import main
from cohortnet.errors import (
    BadHeader,
    DataError,
    DuplicateId,
    InvalidGender,
    InvalidId,
    InvalidMark,
    MissingMark,
    NonBinaryEntry,
    NonSquareMatrix,
    SelfLoopEntry,
    UnassignedNode,
    UnknownNodeInPartition,
)
from cohortnet.io_formats import (
    GraphFormat,
    export_adjacency,
    export_edges,
    export_graph,
    export_roster,
    load_cohort,
    parse_adjacency,
    parse_edges,
    parse_partition_csv,
    parse_roster,
    save_cohort,
)

from conftest import mknet

ROSTER = "id,gender,mark_s5\n1,M,80\n2,F,55\n"

# DOT lexical classes: double-quoted string (backslash escapes the next
# character), identifier/numeral, edge operator, punctuation, whitespace.
_DOT_TOKEN = re.compile(
    r'"(?:[^"\\]|\\.)*"|[A-Za-z_0-9.]+|->|[{}\[\];,=]|\s+', re.DOTALL
)


def dot_tokens(text):
    """Tokenize DOT text, failing on any character no token class accepts."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _DOT_TOKEN.match(text, pos)
        assert m is not None, f"untokenizable DOT at {pos}: {text[pos:pos + 20]!r}"
        if not m.group().isspace():
            tokens.append(m.group())
        pos = m.end()
    return tokens


def dot_unquote(token):
    assert token[0] == token[-1] == '"'
    return re.sub(r"\\(.)", r"\1", token[1:-1], flags=re.DOTALL)


class TestRoster:
    def test_two_rows(self):
        students = parse_roster(ROSTER)
        assert len(students) == 2
        assert students[0].gender is Gender.MALE
        assert students[0].marks == {"s5": 80.0}

    def test_crlf_tolerated(self):
        assert parse_roster(ROSTER.replace("\n", "\r\n")) == parse_roster(ROSTER)

    def test_lines_end_only_at_lf_crlf_or_cr(self):
        assert parse_edges("source,target\r1,2\r\n2,1\n") == [(1, 2), (2, 1)]
        for sep in ("\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"):
            with pytest.raises(DataError) as err:
                parse_edges(f"source,target\n1,2{sep}2,1\n")
            assert err.value.line == 2

    def test_empty_cell_is_absent_mark(self):
        students = parse_roster("id,gender,mark_s5,mark_s6\n1,U,,70\n")
        assert students[0].marks == {"s6": 70.0}

    def test_duplicate_id_names_line(self):
        with pytest.raises(DuplicateId) as err:
            parse_roster("id,gender,mark_s5\n1,M,80\n1,F,55\n")
        assert err.value.line == 3

    def test_mark_out_of_range(self):
        with pytest.raises(InvalidMark) as err:
            parse_roster("id,gender,mark_s5\n1,M,105\n")
        assert err.value.line == 2

    def test_bad_gender(self):
        with pytest.raises(InvalidGender):
            parse_roster("id,gender,mark_s5\n1,X,80\n")

    def test_bad_header(self):
        with pytest.raises(BadHeader):
            parse_roster("ident,gender,mark_s5\n")
        with pytest.raises(BadHeader):
            parse_roster("id,gender,grade\n")


class TestEdges:
    def test_rows(self):
        assert parse_edges("source,target\n1,2\n2,1\n") == [(1, 2), (2, 1)]

    def test_bad_header(self):
        with pytest.raises(BadHeader):
            parse_edges("src,dst\n1,2\n")

    def test_self_loop_entry(self):
        with pytest.raises(SelfLoopEntry) as err:
            parse_edges("source,target\n3,3\n")
        assert err.value.line == 2


class TestIdCells:
    """Ids are ASCII digits, the only form the exports write back unchanged."""

    @pytest.mark.parametrize("cell", ["1_0", "+4", " 3", "3 ", "\u0663", "1.0", "0x1", "", "-"])
    def test_non_ascii_digit_id_refused(self, cell):
        with pytest.raises(InvalidId, match="is not an integer") as err:
            parse_edges(f"source,target\n1,2\n{cell},2\n")
        assert err.value.line == 3
        with pytest.raises(InvalidId, match="is not an integer"):
            parse_roster(f"id,gender\n{cell},M\n")
        with pytest.raises(InvalidId, match="is not an integer"):
            parse_partition_csv(f"node,cluster\n1,{cell}\n")

    def test_negative_id_refused(self):
        with pytest.raises(InvalidId, match="id -3 must be non-negative"):
            parse_edges("source,target\n-3,2\n")

    @pytest.mark.parametrize("cell", ["007", "00", "01", "0010"])
    def test_leading_zero_refused(self, cell):
        # int() reads these, but the exports would write them back without the zeros
        cases = [
            (parse_roster, f"id,gender\n1,M\n{cell},F\n", 3),
            (parse_edges, f"source,target\n1,2\n2,{cell}\n", 3),
            (parse_adjacency, f",1,{cell}\n1,0,1\n{cell},0,0\n", 1),
            (parse_partition_csv, f"node,cluster\n{cell},1\n", 2),
            (parse_partition_csv, f"node,cluster\n1,0\n2,{cell}\n", 3),
        ]
        for parse, text, line in cases:
            with pytest.raises(InvalidId, match="has a leading zero") as err:
                parse(text)
            assert err.value.line == line

    def test_zero_accepted(self):
        assert parse_edges("source,target\n0,10\n") == [(0, 10)]
        assert parse_partition_csv("node,cluster\n0,0\n10,1\n").assignment == {0: 0, 10: 1}

    def test_leading_zero_roster_exits_2_with_line(self, tmp_path, capsys):
        (tmp_path / "r.csv").write_text("id,gender,mark_s5\n1,M,80\n007,F,55\n")
        (tmp_path / "e.csv").write_text("source,target\n1,7\n")
        code = main(["ingest", "--roster", str(tmp_path / "r.csv"),
                     "--edges", str(tmp_path / "e.csv"), "--out", str(tmp_path / "c.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "'007'" in err
        assert not (tmp_path / "c.json").exists()


class TestAdjacency:
    def test_single_entry(self):
        data = ",1,2\n1,0,1\n2,0,0\n"
        assert parse_adjacency(data) == [(1, 2)]

    def test_non_square(self):
        with pytest.raises(NonSquareMatrix):
            parse_adjacency(",1,2,3\n1,0,1,0\n2,0,0,1\n")

    def test_row_too_wide(self):
        with pytest.raises(NonSquareMatrix) as err:
            parse_adjacency(",1,2\n1,0,1,1\n2,0,0\n")
        assert err.value.line == 2

    def test_diagonal_one(self):
        with pytest.raises(SelfLoopEntry):
            parse_adjacency(",1,2\n1,1,0\n2,0,0\n")

    def test_non_binary_entry(self):
        with pytest.raises(NonBinaryEntry) as err:
            parse_adjacency(",1,2\n1,0,2\n2,0,0\n")
        assert err.value.line == 2

    def test_symmetric_matrix_fully_reciprocal(self):
        data = ",1,2,3\n1,0,1,1\n2,1,0,0\n3,1,0,0\n"
        edges = parse_adjacency(data)
        net = build_network([Student(id=i) for i in (1, 2, 3)], edges, "t")
        assert reciprocity_rate(net) == 1.0


class TestGraphExport:
    def test_dot_styling(self):
        net = mknet([], nodes={1})
        data = export_graph(
            net,
            GraphFormat.DOT,
            genders={1: Gender.MALE},
            marks={1: 100.0},
            partition=Partition(assignment={1: 0}, k=1),
        ).decode()
        assert "shape=circle" in data
        assert "width=1.00" in data  # 0.2 + 0.8 * mark/100
        assert "fillcolor=green" in data

    def test_dot_empty_network(self):
        net = mknet([], nodes=set())
        data = export_graph(net, GraphFormat.DOT).decode()
        assert data.startswith("digraph") and data.rstrip().endswith("}")

    @given(st.text())
    def test_dot_label_is_one_quoted_token(self, label):
        net = mknet([(1, 2)], label=label)
        tokens = dot_tokens(export_graph(net, GraphFormat.DOT).decode())
        assert tokens[0] == "digraph" and tokens[2] == "{" and tokens[-1] == "}"
        assert dot_unquote(tokens[1]) == label
        assert tokens[3:-1] == ["1", ";", "2", ";", "1", "->", "2", ";"]

    @given(st.text())
    def test_graphml_label_is_the_graph_id(self, label):
        net = mknet([(1, 2)], label=label)
        try:
            data = export_graph(net, GraphFormat.GRAPHML)
        except DataError:
            return
        graph = ET.fromstring(data).find("{http://graphml.graphdrawing.org/xmlns}graph")
        assert graph.get("id") == label

    @pytest.mark.parametrize("fmt", list(GraphFormat))
    def test_label_format_cannot_carry_refused(self, fmt):
        labels = ["\ud800", "x\udcff"]
        if fmt is GraphFormat.GRAPHML:
            labels += ["\x00", "a\x01", "\ufffe"]
        for label in labels:
            with pytest.raises(DataError, match=f"{fmt.value} cannot carry"):
                export_graph(mknet([(1, 2)], label=label), fmt)

    def test_dot_label_injection_escaped(self):
        net = mknet([(1, 2)], label='x"]; evil \\')
        first = export_graph(net, GraphFormat.DOT).decode().splitlines()[0]
        assert first == 'digraph "x\\"]; evil \\\\" {'

    def test_deterministic_bytes(self):
        net = mknet([(2, 1), (1, 3)])
        for fmt in GraphFormat:
            assert export_graph(net, fmt) == export_graph(net, fmt)

    def test_graphml_typed_attributes(self):
        net = mknet([(1, 2)])
        data = export_graph(
            net,
            GraphFormat.GRAPHML,
            genders={1: Gender.FEMALE, 2: Gender.MALE},
            marks={1: 62.0, 2: 70.8},
            partition=Partition(assignment={1: 0, 2: 1}, k=2),
        )
        root = ET.fromstring(data)
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        keys = {k.get("attr.name"): k.get("attr.type") for k in root.iter(f"{ns}key")}
        assert keys == {"gender": "string", "mark": "double", "cluster": "int"}
        edges = list(root.iter(f"{ns}edge"))
        assert [(e.get("source"), e.get("target")) for e in edges] == [("1", "2")]

    def test_partition_must_cover_nodes(self):
        net = mknet([(1, 2)])
        with pytest.raises(UnassignedNode):
            export_graph(net, GraphFormat.DOT, partition=Partition(assignment={1: 0}, k=1))
        with pytest.raises(UnknownNodeInPartition):
            export_graph(
                net, GraphFormat.DOT,
                partition=Partition(assignment={1: 0, 2: 0, 9: 0}, k=1),
            )

    def test_marks_must_cover_nodes(self):
        net = mknet([(1, 2)])
        with pytest.raises(MissingMark):
            export_graph(net, GraphFormat.DOT, marks={1: 50.0})


class TestPartitionCsv:
    def test_round_trip_dense(self):
        p = parse_partition_csv("node,cluster\n1,5\n2,5\n3,9\n")
        assert p.assignment == {1: 0, 2: 0, 3: 1}
        assert p.k == 2

    def test_duplicate_node(self):
        with pytest.raises(DuplicateId):
            parse_partition_csv("node,cluster\n1,0\n1,1\n")


def random_cohort(rng):
    n = rng.randint(2, 12)
    students = []
    for i in range(n):
        marks = {}
        if rng.random() < 0.8:
            marks["s5"] = round(rng.uniform(0, 100), 1)
        if rng.random() < 0.5:
            marks["s6"] = float(rng.randint(0, 100))
        students.append(
            Student(id=i, gender=rng.choice(list(Gender)), marks=marks)
        )
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = sorted(rng.sample(pairs, k=rng.randint(0, len(pairs) // 2)))
    return make_cohort(students, edges, "rt")


class TestRoundTrips:
    def test_roster_edges_adjacency(self):
        rng = random.Random(99)
        for _ in range(25):
            cohort = random_cohort(rng)
            assert parse_roster(export_roster(cohort.students)) == list(cohort.students)
            assert (
                frozenset(parse_edges(export_edges(cohort.network)))
                == cohort.network.edges
            )
            assert (
                frozenset(parse_adjacency(export_adjacency(cohort.network)))
                == cohort.network.edges
            )

    def test_cohort_json(self):
        rng = random.Random(7)
        for _ in range(10):
            cohort = random_cohort(rng)
            again = load_cohort(save_cohort(cohort))
            assert again == cohort
            assert save_cohort(again) == save_cohort(cohort)

    def test_rebuilt_network_identical(self):
        net = mknet([(1, 2), (2, 1), (3, 1)], nodes={4})
        roster = [Student(id=i) for i in sorted(net.nodes)]
        rebuilt = build_network(roster, parse_edges(export_edges(net)), net.label)
        assert rebuilt == net

    def test_bad_json_is_data_error(self):
        with pytest.raises(DataError):
            load_cohort(b"{not json")
        with pytest.raises(DataError):
            load_cohort(b'{"label": "x"}')
