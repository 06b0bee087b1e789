"""File formats: ingestion of roster/edge/adjacency tables and all exports.

Everything here is a pure bytes/str transform; callers own the file
handles. Output is UTF-8 with LF line endings and deterministically
ordered, so identical inputs always produce byte-identical files. Input
tolerates CRLF. Every refusal from a CSV parser carries a 1-based line
locator (`DataError.line`); `load_cohort` sets one only for a byte that is
not UTF-8.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import Enum
from typing import TYPE_CHECKING, TypeVar

from .errors import DataError
from .model import Cohort, FriendshipNetwork, Gender, Partition, Student, make_cohort

if TYPE_CHECKING:
    from .centrality import CentralityScores
    from .community import ModularityCurve
    from .intervention import AssignmentPlan, GroupProfile
    from .stats import DistributionSummary, GroupComparison

# Cluster colors, indexed by cluster id modulo the palette size. The first
# entries follow the usual sociogram conventions for this kind of figure.
PALETTE = (
    "green", "pink", "red", "lightgreen", "brown", "grey", "black",
    "yellow", "cyan", "orange", "purple", "blue", "magenta", "gold", "navy",
)

MARK_COLUMN_PREFIX = "mark_"


class GraphFormat(str, Enum):
    DOT = "dot"
    GRAPHML = "graphml"


def _lines(text: str) -> list[str]:
    """The text's lines: LF, CRLF and a lone CR each end one line, as in the csv reader."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _text(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"byte offset {exc.start}: 0x{data[exc.start]:02x} is not valid UTF-8",
            line=len(_lines(data[:exc.start].decode("utf-8"))),
        ) from None


def _csv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> bytes:
    """One CSV table: UTF-8, LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _table(
    data: bytes | str, name: str, expected: list[str] | None = None, *, prefix: bool = False
) -> tuple[int, list[str], Iterator[tuple[int, list[str]]]]:
    """The header's line, the header, and the body rows with 1-based lines, blanks skipped.

    `expected` is the exact header, or its first columns when `prefix` is set.
    """
    rows = _records(_text(data))
    header_line, header = next(rows, (1, None))
    if header is None:
        raise DataError(f"empty {name} file", line=1)
    if expected and (header[:len(expected)] if prefix else header) != expected:
        raise DataError(
            f"expected header {'starting with ' if prefix else ''}{','.join(expected)!r}, "
            f"got {','.join(header)!r}",
            line=header_line,
        )
    return header_line, header, rows


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """Non-blank CSV records and the line each starts on; a quoted cell may span lines."""
    reader = csv.reader(io.StringIO(text, newline=""))
    line = 1
    try:
        for row in reader:
            if row:
                yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(str(exc), line=line) from None


def _fields(rows: Iterable[tuple[int, list[str]]], width: int) -> Iterator[tuple[int, list[str]]]:
    """The rows, each checked to hold `width` fields as the caller reaches it."""
    for line, row in rows:
        if len(row) != width:
            raise DataError(f"expected {width} fields, got {len(row)}", line=line)
        yield line, row


def _parse_id(cell: str, line: int) -> int:
    """ASCII digits with no leading zero, the only form written back unchanged.

    int() would also take "1_0", "+4", " 3", "007" and non-ASCII digits.
    """
    if not (cell.isascii() and cell.removeprefix("-").isdigit()):
        raise DataError(f"id {cell!r} is not an integer", line=line)
    if cell.startswith("-"):
        raise DataError(f"id {cell} must be non-negative", line=line)
    if cell.startswith("0") and cell != "0":
        raise DataError(f"id {cell!r} has a leading zero", line=line)
    try:
        return int(cell)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise DataError(f"id of {len(cell)} digits is over the limit of "
                        f"{sys.get_int_max_str_digits()} digits", line=line) from None


# -- roster -------------------------------------------------------------------

def parse_roster(data: bytes | str) -> list[Student]:
    """Parse `id,gender,mark_<semester>...` rows into students."""
    header_line, header, body = _table(data, "roster", ["id", "gender"], prefix=True)
    semesters = []
    for col in header[2:]:
        if not col.startswith(MARK_COLUMN_PREFIX) or col == MARK_COLUMN_PREFIX:
            raise DataError(f"mark column {col!r} must look like 'mark_<semester>'",
                            line=header_line)
        semesters.append(col[len(MARK_COLUMN_PREFIX):])
    if len(set(semesters)) != len(semesters):
        raise DataError("duplicate mark column", line=header_line)

    students: list[Student] = []
    seen: set[int] = set()
    for line, row in _fields(body, len(header)):
        sid = _parse_id(row[0], line)
        if sid in seen:
            raise DataError(f"duplicate student id {sid}", line=line)
        seen.add(sid)
        try:
            gender = Gender(row[1])
        except ValueError:
            raise DataError(
                f"gender {row[1]!r} is not one of M, F, U", line=line
            ) from None
        marks: dict[str, float] = {}
        for semester, cell in zip(semesters, row[2:]):
            if cell == "":
                continue
            try:
                mark = float(cell)
            except ValueError:
                raise DataError(f"mark {cell!r} is not a number", line=line) from None
            if not 0.0 <= mark <= 100.0:
                raise DataError(f"mark {mark!r} outside [0, 100]", line=line)
            marks[semester] = mark
        students.append(Student(id=sid, gender=gender, marks=marks))
    return students


def export_roster(students: Sequence[Student]) -> bytes:
    semesters = sorted({sem for s in students for sem in s.marks})
    return _csv(
        ["id", "gender"] + [MARK_COLUMN_PREFIX + s for s in semesters],
        (
            [str(student.id), student.gender.value]
            + [repr(student.marks[sem]) if sem in student.marks else "" for sem in semesters]
            for student in sorted(students, key=lambda s: s.id)
        ),
    )


# -- edge list ----------------------------------------------------------------

def parse_edges(data: bytes | str) -> list[tuple[int, int]]:
    """Parse `source,target` rows into a directed nomination list."""
    _, _, body = _table(data, "edge", ["source", "target"])
    edges = []
    for line, row in _fields(body, 2):
        src = _parse_id(row[0], line)
        tgt = _parse_id(row[1], line)
        if src == tgt:
            raise DataError(f"self-nomination ({src}, {tgt})", line=line)
        edges.append((src, tgt))
    return edges


def export_edges(net: FriendshipNetwork) -> bytes:
    return _csv(["source", "target"], ([str(src), str(tgt)] for src, tgt in sorted(net.edges)))


# -- adjacency matrix ---------------------------------------------------------

_BINARY = frozenset(("0", "1"))
_Row = TypeVar("_Row")  # a body row: one line, or the csv reader's cells


def parse_adjacency(data: bytes | str) -> list[tuple[int, int]]:
    """Parse a square 0/1 matrix; entry (r, c) = 1 yields the edge (r, c)."""
    text = _text(data)
    ids, rows = _plain_matrix(text) or _csv_matrix(text)
    edges = []
    for row_id, bits in zip(ids, rows):
        col = bits.find("1")
        while col != -1:
            edges.append((row_id, ids[col]))
            col = bits.find("1", col + 1)
    return edges


def _matrix_head(
    header_line: int, header: list[str], rows: Iterable[tuple[int, _Row]]
) -> tuple[list[int], list[tuple[int, _Row]]]:
    """The header's ids and the body rows: the header is checked before a row is read
    (reading one may be refused), and the number of rows once all are read."""
    if len(header) < 2:
        raise DataError("adjacency header needs at least one id column", line=header_line)
    ids = [_parse_id(cell, header_line) for cell in header[1:]]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate id in adjacency header", line=header_line)
    body = list(rows)
    if len(body) != len(ids):
        raise DataError(
            f"{len(ids)} id columns but {len(body)} data rows",
            line=body[-1][0] if body else header_line,
        )
    return ids, body


def _plain_matrix(text: str) -> tuple[list[int], list[str]] | None:
    """The ids and each row's cells as one string of 0s and 1s, read without building
    cells; None when the csv reader must read the text, or when a row fails the checks
    here, so that _csv_matrix names the fault.

    A text with no quote, no NUL (3.10's csv refuses it, 3.11+ reads it) and no line
    over csv.field_size_limit() holds one csv record per non-blank line of _lines(text),
    and the record's cells are line.split(",").
    """
    if '"' in text or "\0" in text:
        return None
    lines = _lines(text)
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    records = [(num, line) for num, line in enumerate(lines, start=1) if line]
    if not records:
        return None
    (header_line, first), *rest = records
    header = first.split(",")
    ids, body = _matrix_head(header_line, header, rest)
    n = len(ids)
    width, commas = 2 * n - 1, "," * (n - 1)
    rows = []
    for pos, (_, row) in enumerate(body):
        label, _, cells = row.partition(",")
        bits = cells[::2]
        # header[pos + 1] passed _parse_id, so it is the only spelling of ids[pos]
        if not (len(cells) == width and cells[1::2] == commas and bits[pos] == "0"
                and bits.count("0") + bits.count("1") == n and label == header[pos + 1]):
            return None
        rows.append(bits)
    return ids, rows


def _csv_matrix(text: str) -> tuple[list[int], list[str]]:
    """The ids and each row's cells as one string, from the csv reader's cells; a row is
    refused for its width, then its label, then its first bad cell in column order."""
    ids, body = _matrix_head(*_table(text, "adjacency"))
    rows = []
    for pos, (line, row) in enumerate(_fields(body, len(ids) + 1)):
        row_id = _parse_id(row[0], line)
        if row_id != ids[pos]:
            raise DataError(
                f"row label {row_id} does not match header order (expected {ids[pos]})",
                line=line,
            )
        cells = row[1:]  # the diagonal is column pos: row_id == ids[pos] and ids are unique
        if not _BINARY.issuperset(cells) or cells[pos] == "1":
            col, cell = next((col, cell) for col, cell in enumerate(cells)
                             if cell not in _BINARY or col == pos and cell == "1")
            if cell == "1":
                raise DataError(f"diagonal entry for id {row_id} is 1", line=line)
            raise DataError(f"column {col + 2}: entry {cell!r} is not 0 or 1", line=line)
        rows.append("".join(cells))  # one character per column
    return ids, rows


def export_adjacency(net: FriendshipNetwork) -> bytes:
    ids = sorted(net.nodes)
    rows = []
    for src in ids:
        out = net.out_adjacency[src]
        rows.append([str(src)] + ["1" if tgt in out else "0" for tgt in ids])
    return _csv([""] + [str(i) for i in ids], rows)


# -- cohort container ---------------------------------------------------------

def _json_num(x: object) -> str:
    """A number as json.dumps writes it; repr is the same for an int or a finite float."""
    if type(x) is int or type(x) is float and math.isfinite(x):
        return repr(x)
    return json.dumps(x)


_JSON_GENDER = {g: json.dumps(g.value) for g in Gender}


def _json_block(items: Iterable[str], brackets: str, indent: str) -> str:
    """A JSON list or object whose items each start on a new, indented line; `[]` or
    `{}` when empty. The closing bracket goes on its own line at `indent`."""
    body = ",".join(items)
    return f"{brackets[0]}{body}\n{indent}{brackets[1]}" if body else brackets


def save_cohort(cohort: Cohort) -> bytes:
    """The bytes of json.dumps(doc, indent=2, sort_keys=True) plus a newline, built
    directly: json's indent encoder is pure Python and took most of the write."""
    students = sorted(cohort.students, key=lambda s: s.id)
    keys = {sem: json.dumps(sem) for s in students for sem in s.marks}
    rows = (
        f'\n    {{\n      "gender": {_JSON_GENDER[s.gender]},\n      "id": {_json_num(s.id)},'
        '\n      "marks": ' + _json_block(
            (f"\n        {keys[sem]}: {_json_num(s.marks[sem])}" for sem in sorted(s.marks)),
            "{}", "      ",
        ) + "\n    }"
        for s in students
    )
    edges = (
        f"\n    [\n      {_json_num(src)},\n      {_json_num(tgt)}\n    ]"
        for src, tgt in sorted(cohort.network.edges)
    )
    return (
        f'{{\n  "edges": {_json_block(edges, "[]", "  ")},'
        f'\n  "label": {json.dumps(cohort.network.label)},'
        f'\n  "students": {_json_block(rows, "[]", "  ")}\n}}\n'
    ).encode("utf-8")


def _json_id(value: object) -> int:
    """An id from a cohort file; strings, bools and fractional numbers are refused."""
    if type(value) is int:  # never a bool: type(True) is bool
        return value
    if isinstance(value, (str, bool)) or (isinstance(value, float) and not value.is_integer()):
        raise DataError(f"cohort file: id {value!r} is not an integer")
    return int(value)  # type: ignore[call-overload]


def _json_marks(value: object) -> dict[str, float]:
    """Marks from a cohort file: an object of numbers, so none is rewritten on save."""
    if not isinstance(value, dict):
        raise DataError(f"cohort file: marks {value!r} is not an object")
    for mark in value.values():
        if isinstance(mark, bool) or not isinstance(mark, (int, float)):
            raise DataError(f"cohort file: mark {mark!r} is not a number")
    return {k: float(v) for k, v in value.items()}


def load_cohort(data: bytes | str) -> Cohort:
    try:
        doc = json.loads(_text(data))
    except json.JSONDecodeError as exc:
        raise DataError(f"cohort file is not valid JSON: {exc}") from None
    except ValueError:  # an integer with more digits than sys.get_int_max_str_digits()
        raise DataError(f"cohort file: an integer is over the limit of "
                        f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:  # e.g. 100,000 nested "["
        raise DataError("cohort file nests its arrays or objects too deeply") from None
    try:
        label = doc["label"]
        if not isinstance(label, str):
            raise DataError(f"cohort file: label {label!r} is not a string")
        students = [
            Student(id=_json_id(s["id"]), gender=Gender(s["gender"]),
                    marks=_json_marks(s.get("marks", {})))
            for s in doc["students"]
        ]
        edges = [(_json_id(s), _json_id(t)) for s, t in doc["edges"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # a 400-digit mark
        raise DataError(f"cohort file has an unexpected shape: {exc}") from None
    return make_cohort(students, edges, label)


# -- graph export -------------------------------------------------------------

def _node_width(mark: float) -> float:
    return 0.2 + 0.8 * (mark / 100.0)


def check_coverage(
    net: FriendshipNetwork,
    partition: Partition | None,
    marks: Mapping[int, float] | None,
) -> None:
    if partition is not None:
        extra = set(partition.assignment) - set(net.nodes)
        if extra:
            raise DataError(
                f"partition mentions unknown node(s) {sorted(extra)}"
            )
        missing = set(net.nodes) - set(partition.assignment)
        if missing:
            raise DataError(f"partition misses node(s) {sorted(missing)}")
    if marks is not None:
        unmarked = set(net.nodes) - set(marks)
        if unmarked:
            raise DataError(f"no mark for node(s) {sorted(unmarked)}")


_DOT_SHAPES = {Gender.MALE: "circle", Gender.FEMALE: "square", Gender.UNSPECIFIED: "ellipse"}


def export_graph(
    net: FriendshipNetwork,
    fmt: GraphFormat,
    *,
    genders: Mapping[int, Gender] | None = None,
    marks: Mapping[int, float] | None = None,
    partition: Partition | None = None,
) -> bytes:
    """Serialize the directed graph with sociogram styling/attributes.

    DOT encodes gender as node shape (circle = male, square = female),
    mark as node width 0.2 + 0.8 * mark/100, and cluster as fill color
    from the fixed palette. GraphML carries the same attributes as typed
    node properties and leaves styling to the renderer.
    """
    check_coverage(net, partition, marks)
    if fmt is GraphFormat.DOT:  # UTF-8 cannot encode a lone surrogate
        bad = [c for c in net.label if "\ud800" <= c <= "\udfff"]
    else:  # XML 1.0 Char
        bad = [c for c in net.label if not (c in "\t\n\r" or " " <= c <= "\ud7ff"
                                            or "\ue000" <= c <= "\ufffd" or c >= "\U00010000")]
    if bad:
        raise DataError(f"label {net.label!r}: {fmt.value} cannot carry {bad[0]!r}")
    if fmt is GraphFormat.DOT:
        return _export_dot(net, genders, marks, partition)
    return _export_graphml(net, genders, marks, partition)


def _dot_quote(text: str) -> str:
    """A DOT double-quoted string; only backslash and quote need escaping."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _export_dot(net, genders, marks, partition) -> bytes:
    lines = [f"digraph {_dot_quote(net.label)} {{"]
    for v in sorted(net.nodes):
        attrs = []
        if genders is not None and v in genders:
            attrs.append(f"shape={_DOT_SHAPES[genders[v]]}")
        if marks is not None:
            attrs.append(f"width={_node_width(marks[v]):.2f}")
            attrs.append("fixedsize=true")
        if partition is not None:
            color = PALETTE[partition.assignment[v] % len(PALETTE)]
            attrs.append("style=filled")
            attrs.append(f"fillcolor={color}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {v}{suffix};")
    for src, tgt in sorted(net.edges):
        lines.append(f"  {src} -> {tgt};")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# how xml.etree escapes an attribute value, on every supported CPython
_XML_ATTR = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                           "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})


def _export_graphml(net, genders, marks, partition) -> bytes:
    """The bytes of xml.etree's indent() and tostring(xml_declaration=True), plus a newline."""
    lines = ["<?xml version='1.0' encoding='UTF-8'?>",
             '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">']
    keys = []
    if genders is not None:
        keys.append(("d_gender", "gender", "string"))
    if marks is not None:
        keys.append(("d_mark", "mark", "double"))
    if partition is not None:
        keys.append(("d_cluster", "cluster", "int"))
    lines += [f'  <key for="node" id="{key_id}" attr.name="{name}" attr.type="{typ}" />'
              for key_id, name, typ in keys]
    graph = f'  <graph id="{net.label.translate(_XML_ATTR)}" edgedefault="directed"'
    body = []
    for v in sorted(net.nodes):
        data = []
        if genders is not None and v in genders:
            data.append(f'      <data key="d_gender">{genders[v].value}</data>')
        if marks is not None:
            data.append(f'      <data key="d_mark">{float(marks[v])!r}</data>')
        if partition is not None:
            data.append(f'      <data key="d_cluster">{partition.assignment[v]}</data>')
        if data:
            body += [f'    <node id="{v}">', *data, "    </node>"]
        else:
            body.append(f'    <node id="{v}" />')
    body += [f'    <edge source="{s}" target="{t}" />' for s, t in sorted(net.edges)]
    lines += [graph + ">", *body, "  </graph>"] if body else [graph + " />"]
    lines.append("</graphml>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# -- analysis artifacts -------------------------------------------------------

def _num(x: float) -> str:
    return repr(float(x))


def scores_csv(scores: CentralityScores) -> bytes:
    """Degree scores (the only ones with in/out parts) get one column per part."""
    ins, outs, total = scores.in_scores, scores.out_scores, scores.scores
    if ins is not None:
        assert outs is not None
        return _csv(
            ["node", "in_degree", "out_degree", "total"],
            ([str(v), str(int(ins[v])), str(int(outs[v])), str(int(total[v]))]
             for v in sorted(total)),
        )
    return _csv(["node", "score"], ([str(v), _num(total[v])] for v in sorted(total)))


def representatives_csv(ranked: Sequence[int], scores: Mapping[int, float]) -> bytes:
    return _csv(
        ["rank", "node", "score"],
        ([str(rank), str(node), _num(scores[node])] for rank, node in enumerate(ranked, start=1)),
    )


def partition_csv(p: Partition) -> bytes:
    a = p.assignment
    return _csv(["node", "cluster"], ([str(node), str(a[node])] for node in sorted(a)))


def parse_partition_csv(data: bytes | str) -> Partition:
    """Read a node,cluster table; cluster labels are renumbered densely."""
    header_line, _, body = _table(data, "partition", ["node", "cluster"])
    raw: dict[int, int] = {}
    for line, row in _fields(body, 2):
        node = _parse_id(row[0], line)
        if node in raw:
            raise DataError(f"node {node} assigned twice", line=line)
        raw[node] = _parse_id(row[1], line)
    if not raw:
        raise DataError("partition file has no assignments", line=header_line)
    dense = {cid: i for i, cid in enumerate(sorted(set(raw.values())))}
    return Partition(assignment={v: dense[c] for v, c in raw.items()}, k=len(dense))


def curve_csv(curve: ModularityCurve) -> bytes:
    return _csv(["k", "Q"], ([str(k), _num(q)] for k, q in curve.points))


def clusters_csv(perfs: Iterable) -> bytes:
    return _csv(
        ["cluster", "size", "mean_mark", "class"],
        ([str(c.cluster), str(len(c.members)), _num(c.mean_mark), c.perf.value] for c in perfs),
    )


def plan_csv(plan: AssignmentPlan) -> bytes:
    table = sorted((m, g.index, g.roles[m].value) for g in plan.groups for m in g.members)
    return _csv(
        ["student", "group", "role"],
        ([str(student), str(group), role] for student, group, role in table),
    )


def plan_report(
    plan: AssignmentPlan, profiles: Sequence[GroupProfile], semester: str
) -> str:
    from .intervention import Role

    total = sum(len(g.members) for g in plan.groups)
    lines = [f"assignment plan: {len(plan.groups)} groups, {total} students"]
    by_index = {p.index: p for p in profiles}
    for g in plan.groups:
        p = by_index[g.index]
        flag = ", overflow" if g.overflow else ""
        lines.append(
            f"group {g.index} (anchor cluster {g.anchor_cluster}, "
            f"{g.anchor_perf.value}{flag}): size {p.size}, "
            f"mean {semester} mark {p.mean_mark:.1f}, "
            f"{p.high_origin} high-origin, {p.dispersed} dispersed"
        )
        preserved = [m for m in g.members if g.roles[m] is Role.PRESERVED]
        dispersed = [m for m in g.members if g.roles[m] is Role.DISPERSED]
        lines.append("  preserved: " + (" ".join(map(str, preserved)) or "-"))
        lines.append("  dispersed: " + (" ".join(map(str, dispersed)) or "-"))
    if plan.notes:
        lines.append("notes:")
        lines.extend(f"  - {note}" for note in plan.notes)
    return "\n".join(lines) + "\n"


def summary_csv(s: DistributionSummary) -> bytes:
    return _csv(
        ["n", "mean", "median", "min", "max", "stddev", "skewness", "shape"],
        [[
            str(s.n), _num(s.mean), _num(s.median), _num(s.minimum), _num(s.maximum),
            _num(s.stddev) if s.stddev is not None else "",
            _num(s.skew) if s.skew is not None else "",
            s.shape.value if s.shape is not None else "",
        ]],
    )


def histogram_csv(s: DistributionSummary) -> bytes:
    return _csv(["bin_lower", "count"],
                ([_num(lower), str(count)] for lower, count in s.histogram))


def _summary_block(title: str, s: DistributionSummary) -> list[str]:
    lines = [
        f"{title}: n={s.n}, mean={s.mean:.2f}, median={s.median:.2f}, "
        f"min={s.minimum:.1f}, max={s.maximum:.1f}"
    ]
    if s.stddev is not None:
        lines.append(f"  stddev={s.stddev:.2f}")
    if s.skew is not None and s.shape is not None:
        lines.append(f"  skewness={s.skew:.3f} ({s.shape.value})")
    return lines


def report_text(
    summary_a: DistributionSummary,
    label_a: str,
    comparison: GroupComparison | None = None,
    label_b: str | None = None,
) -> str:
    lines = _summary_block(label_a, summary_a)
    if comparison is not None and label_b is not None:
        lines += _summary_block(label_b, comparison.summary_b)
        lines.append(
            f"mean difference ({label_a} - {label_b}): {comparison.mean_difference:+.3f}"
        )
    return "\n".join(lines) + "\n"
