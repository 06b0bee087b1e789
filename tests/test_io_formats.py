import csv
import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohortnet import (
    Gender,
    Partition,
    Student,
    build_network,
    make_cohort,
    partition_from_blocks,
)
from cohortnet.cli import main
from cohortnet.errors import DataError
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
from oracles import export_graphml_ref, parse_adjacency_ref, save_cohort_ref
from strategies import cohorts, directed_networks

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
        with pytest.raises(DataError, match="duplicate student id 1") as err:
            parse_roster("id,gender,mark_s5\n1,M,80\n1,F,55\n")
        assert err.value.line == 3

    def test_mark_out_of_range(self):
        with pytest.raises(DataError, match=r"mark 105\.0 outside \[0, 100\]") as err:
            parse_roster("id,gender,mark_s5\n1,M,105\n")
        assert err.value.line == 2

    def test_bad_gender(self):
        with pytest.raises(DataError, match="gender 'X' is not one of M, F, U"):
            parse_roster("id,gender,mark_s5\n1,X,80\n")

    def test_bad_header(self):
        with pytest.raises(DataError, match="expected header starting with 'id,gender'"):
            parse_roster("ident,gender,mark_s5\n")
        with pytest.raises(DataError, match="mark column 'grade' must look like"):
            parse_roster("id,gender,grade\n")


class TestEdges:
    def test_rows(self):
        assert parse_edges("source,target\n1,2\n2,1\n") == [(1, 2), (2, 1)]

    def test_bad_header(self):
        with pytest.raises(DataError, match="expected header 'source,target'"):
            parse_edges("src,dst\n1,2\n")

    def test_self_loop_entry(self):
        with pytest.raises(DataError, match=r"self-nomination \(3, 3\)") as err:
            parse_edges("source,target\n3,3\n")
        assert err.value.line == 2


class TestIdCells:
    """Ids are ASCII digits, the only form the exports write back unchanged."""

    @pytest.mark.parametrize("cell", ["1_0", "+4", " 3", "3 ", "\u0663", "1.0", "0x1", "", "-"])
    def test_non_ascii_digit_id_refused(self, cell):
        with pytest.raises(DataError, match="is not an integer") as err:
            parse_edges(f"source,target\n1,2\n{cell},2\n")
        assert err.value.line == 3
        with pytest.raises(DataError, match="is not an integer"):
            parse_roster(f"id,gender\n{cell},M\n")
        with pytest.raises(DataError, match="is not an integer"):
            parse_partition_csv(f"node,cluster\n1,{cell}\n")

    def test_negative_id_refused(self):
        with pytest.raises(DataError, match="id -3 must be non-negative"):
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
            with pytest.raises(DataError, match="has a leading zero") as err:
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


def outcome(parse, data):
    """The rows parsed, or the refusal's class, message and line."""
    try:
        return parse(data)
    except DataError as exc:
        return type(exc), str(exc), exc.line


# Raw CSV cell texts the matrix parser refuses ('"0,1"' is one quoted cell);
# "1" is a fault only on the diagonal. The quoted '"0"' and '"1"' are read as
# bare cells, and like a NUL they send the whole text through the csv reader.
CELL_FAULTS = ["", "00", "01", "10", " 1", "-0", '"0,1"', "\uff11", "\uff10", "1",
               '"0"', '"1"', "\0", "0\0"]
LINE_ENDS = ["\n", "\r\n", "\r"]


def _retype(draw, row):
    """The row with a comma after its label moved, or one character after its
    label overwritten by a comma, 0 or 1; either way it keeps its length."""
    start = row.index(",") + 1
    if start == len(row):
        return row
    if draw(st.booleans()):
        i = draw(st.integers(start, len(row) - 1))
        return row[:i] + draw(st.sampled_from(",01")) + row[i + 1:]
    commas = [i for i, c in enumerate(row) if c == "," and i >= start]
    if not commas:
        return row
    i = draw(st.sampled_from(commas))
    rest = row[:i] + row[i + 1:]
    j = draw(st.integers(start, len(rest)))
    return rest[:j] + "," + rest[j:]


@st.composite
def faulty_matrices(draw):
    """A 0/1 matrix with a zero diagonal and up to four cells overwritten by
    faults, often in one row; ids in any order. Lines end at LF, CRLF or CR, the
    same in every line or mixed. A header id or a row label may be quoted, have a
    leading zero or name another row; a comma may be moved or a character
    overwritten, and blank or whitespace-only lines put between rows; sometimes
    only the header, or nothing, is left."""
    n = draw(st.integers(1, 6))
    ids = draw(st.permutations(range(10, 10 + n)))
    grid = [["0" if r == c else draw(st.sampled_from("01")) for c in range(n)] for r in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        r = draw(st.integers(0, n - 1))
        c = draw(st.one_of(st.just(r), st.integers(0, n - 1)))
        grid[r][c] = draw(st.sampled_from(CELL_FAULTS))
    header, labels = [str(i) for i in ids], [str(i) for i in ids]
    for names in (header, labels):  # quoted, with a leading zero, or another row's
        if draw(st.integers(0, 4)) == 0:
            k = draw(st.integers(0, n - 1))
            names[k] = draw(st.sampled_from([f'"{ids[k]}"', f"0{ids[k]}", str(ids[-1 - k])]))
    lines = [",".join(["", *header])]
    lines += [",".join([label, *row]) for label, row in zip(labels, grid)]
    if draw(st.integers(0, 2)) == 0:
        r = draw(st.integers(1, n))
        lines[r] = _retype(draw, lines[r])
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "", " ", "\t"])))
    if draw(st.integers(0, 9)) == 0:
        lines = lines[:draw(st.integers(0, 1))]
    if draw(st.booleans()):
        ends = [draw(st.sampled_from(LINE_ENDS))] * len(lines)
    else:
        ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines),
                             max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@pytest.fixture
def field_limit_20():
    """csv.field_size_limit() lowered to 20 characters for one test."""
    old = csv.field_size_limit(20)
    yield
    csv.field_size_limit(old)


class TestAdjacency:
    def test_single_entry(self):
        data = ",1,2\n1,0,1\n2,0,0\n"
        assert parse_adjacency(data) == [(1, 2)]

    def test_non_square(self):
        with pytest.raises(DataError, match="3 id columns but 2 data rows"):
            parse_adjacency(",1,2,3\n1,0,1,0\n2,0,0,1\n")

    def test_row_too_wide(self):
        with pytest.raises(DataError, match="expected 3 fields, got 4") as err:
            parse_adjacency(",1,2\n1,0,1,1\n2,0,0\n")
        assert err.value.line == 2

    def test_diagonal_one(self):
        with pytest.raises(DataError, match="diagonal entry for id 1 is 1"):
            parse_adjacency(",1,2\n1,1,0\n2,0,0\n")

    def test_non_binary_entry(self):
        with pytest.raises(DataError, match="column 3: entry '2' is not 0 or 1") as err:
            parse_adjacency(",1,2\n1,0,2\n2,0,0\n")
        assert err.value.line == 2

    @settings(max_examples=500)
    # "" and "00" together have the length and the zeros of two valid cells
    @example(",12,13,14,15\n12,0,1,0,0\n13,0,0,0,0\n14,0,0,00,\n15,0,0,0,0\n")
    @example(",10,11\r10,0,1\r\n\r11,1,0\n")  # a lone CR, CRLF and LF, and a blank line
    @example(",10,11\n10,0,1\n \n11,1,0\n")  # a whitespace-only line is a row
    @example(',10,11\n"10",0,1\n11,"1",0\n')  # quoted cells are read by the csv reader
    @example(",10,11\n10,0,1\n11,1\x00,0\n")  # a NUL: 3.10's csv refuses it, 3.11+ reads it
    @example(",10,11,12\n10,0,1,0\n11,,10,0\n12,0,0,0\n")  # a comma moved, same length
    @example(",10,11,12\n10,001,0\n11,0,0,0\n12,0,0,0\n")  # two cells of the right length
    @example(",10,11\n")
    @example("")
    @given(faulty_matrices())
    def test_matches_cell_by_cell_reference(self, text):
        assert outcome(parse_adjacency, text) == outcome(parse_adjacency_ref, text)

    @pytest.mark.parametrize("text, expected", [
        # every line is over the limit, every cell within it: the csv reader reads it
        ("," + ",".join(map(str, range(10, 20))) + "\n" + "".join(
            f"{i}," + ",".join("1" if i + 1 == j else "0" for j in range(10, 20)) + "\n"
            for i in range(10, 20)), [(i, i + 1) for i in range(10, 19)]),
        (",1,100000000000000000000\n1,0,1\n100000000000000000000,0,0\n",
         (DataError, "line 1: field larger than field limit (20)", 1)),
        ("1" * 21 + "\n", (DataError, "line 1: field larger than field limit (20)", 1)),
        ("1" * 20 + "\n",
         (DataError, "line 1: adjacency header needs at least one id column", 1)),
        # the header is refused before the csv reader reaches the long cell
        ("x\n" + "1" * 21 + "\n",
         (DataError, "line 1: adjacency header needs at least one id column", 1)),
        (",1,1\n" + "1" * 21 + "\n", (DataError, "line 1: duplicate id in adjacency header", 1)),
    ], ids=["long-lines", "long-id", "long-header-cell", "header-cell-at-limit",
            "bad-header-before-long-cell", "duplicate-id-before-long-cell"])
    def test_line_over_field_limit_matches_reference(self, field_limit_20, text, expected):
        assert outcome(parse_adjacency, text) == outcome(parse_adjacency_ref, text) == expected

    def test_symmetric_matrix_fully_reciprocal(self):
        data = ",1,2,3\n1,0,1,1\n2,1,0,0\n3,1,0,0\n"
        edges = parse_adjacency(data)
        net = build_network([Student(id=i) for i in (1, 2, 3)], edges, "t")
        assert all((t, s) in net.edges for s, t in net.edges)


# Labels of XML 1.0 Chars, weighted towards the ones an attribute value escapes
# and the apostrophe, which it does not.
xml_labels = st.text(st.one_of(
    st.sampled_from("&<>\"'\r\n\t"),
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD),
    st.characters(min_codepoint=0x10000),
))


@st.composite
def graphml_exports(draw):
    """(network, genders, marks, partition): each attribute map present or not,
    genders possibly missing some nodes."""
    base = draw(directed_networks(min_nodes=0, max_nodes=6))
    net = mknet(sorted(base.edges), base.nodes, label=draw(xml_labels))
    nodes = sorted(net.nodes)
    genders = draw(st.none() | st.dictionaries(st.sampled_from(nodes), st.sampled_from(Gender))
                   if nodes else st.sampled_from([None, {}]))
    marks = draw(st.none() | st.fixed_dictionaries(
        {v: st.integers(0, 100) | st.floats(0, 100) for v in nodes}))
    partition = None
    if nodes and draw(st.booleans()):
        labels = {v: draw(st.integers(0, 3)) for v in nodes}
        partition = partition_from_blocks(
            [{v for v in nodes if labels[v] == c} for c in set(labels.values())])
    return net, genders, marks, partition


class TestGraphExport:
    @example((mknet([], nodes=set()), None, None, None))
    @example((mknet([], nodes=set()), {}, {}, None))
    @given(graphml_exports())
    def test_graphml_is_the_etree_layout(self, export):
        net, genders, marks, partition = export
        data = export_graph(net, GraphFormat.GRAPHML, genders=genders, marks=marks,
                            partition=partition)
        assert data == export_graphml_ref(net, genders, marks, partition)

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
        with pytest.raises(DataError, match=r"partition misses node\(s\) \[2\]"):
            export_graph(net, GraphFormat.DOT, partition=Partition(assignment={1: 0}, k=1))
        with pytest.raises(DataError, match=r"partition mentions unknown node\(s\) \[9\]"):
            export_graph(
                net, GraphFormat.DOT,
                partition=Partition(assignment={1: 0, 2: 0, 9: 0}, k=1),
            )

    def test_marks_must_cover_nodes(self):
        net = mknet([(1, 2)])
        with pytest.raises(DataError, match=r"no mark for node\(s\) \[2\]"):
            export_graph(net, GraphFormat.DOT, marks={1: 50.0})


class TestPartitionCsv:
    def test_round_trip_dense(self):
        p = parse_partition_csv("node,cluster\n1,5\n2,5\n3,9\n")
        assert p.assignment == {1: 0, 2: 0, 3: 1}
        assert p.k == 2

    def test_duplicate_node(self):
        with pytest.raises(DataError, match="node 1 assigned twice"):
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
        # ids and marks equal to True and False; Student refuses the bools themselves,
        # which would be saved as JSON true and false and refused by load_cohort
        bool_alike = make_cohort([Student(id=1, marks={"s5": 1.0, "s6": 0.0}), Student(id=0)],
                                 [(0, 1)], "t")
        for cohort in [bool_alike] + [random_cohort(rng) for _ in range(10)]:
            again = load_cohort(save_cohort(cohort))
            assert again == cohort
            assert save_cohort(again) == save_cohort(cohort)

    @settings(max_examples=300)
    @example(make_cohort([], [], ""))
    @example(make_cohort([Student(id=0)], [], "t"))
    @given(cohorts())
    def test_cohort_file_is_json_indent_layout(self, cohort):
        assert save_cohort(cohort) == save_cohort_ref(cohort)

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
