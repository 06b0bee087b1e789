"""File formats: ingestion of roster/edge/adjacency tables and all exports.

Everything here is a pure bytes/str transform; callers own the file
handles. Output is UTF-8 with LF line endings and deterministically
ordered, so identical inputs always produce byte-identical files. Input
tolerates CRLF. All parse errors carry a 1-based line locator.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import Enum
from typing import TYPE_CHECKING

from .errors import (
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


def _text(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(
            f"byte offset {exc.start}: 0x{data[exc.start]:02x} is not valid UTF-8", line=line
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
        raise BadHeader(f"empty {name} file", line=1)
    if expected and (header[:len(expected)] if prefix else header) != expected:
        raise BadHeader(
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


def _fields(
    rows: Iterable[tuple[int, list[str]]], width: int, error: type[DataError] = DataError
) -> Iterator[tuple[int, list[str]]]:
    """The rows, each checked to hold `width` fields as the caller reaches it."""
    for line, row in rows:
        if len(row) != width:
            raise error(f"expected {width} fields, got {len(row)}", line=line)
        yield line, row


def _parse_id(cell: str, line: int) -> int:
    """ASCII digits with no leading zero, the only form written back unchanged.

    int() would also take "1_0", "+4", " 3", "007" and non-ASCII digits.
    """
    if not (cell.isascii() and cell.removeprefix("-").isdigit()):
        raise InvalidId(f"id {cell!r} is not an integer", line=line)
    if cell.startswith("-"):
        raise InvalidId(f"id {cell} must be non-negative", line=line)
    if cell.startswith("0") and cell != "0":
        raise InvalidId(f"id {cell!r} has a leading zero", line=line)
    return int(cell)


# -- roster -------------------------------------------------------------------

def parse_roster(data: bytes | str) -> list[Student]:
    """Parse `id,gender,mark_<semester>...` rows into students."""
    header_line, header, body = _table(data, "roster", ["id", "gender"], prefix=True)
    semesters = []
    for col in header[2:]:
        if not col.startswith(MARK_COLUMN_PREFIX) or col == MARK_COLUMN_PREFIX:
            raise BadHeader(f"mark column {col!r} must look like 'mark_<semester>'",
                            line=header_line)
        semesters.append(col[len(MARK_COLUMN_PREFIX):])
    if len(set(semesters)) != len(semesters):
        raise BadHeader("duplicate mark column", line=header_line)

    students: list[Student] = []
    seen: set[int] = set()
    for line, row in _fields(body, len(header)):
        sid = _parse_id(row[0], line)
        if sid in seen:
            raise DuplicateId(f"duplicate student id {sid}", line=line)
        seen.add(sid)
        try:
            gender = Gender(row[1])
        except ValueError:
            raise InvalidGender(
                f"gender {row[1]!r} is not one of M, F, U", line=line
            ) from None
        marks: dict[str, float] = {}
        for semester, cell in zip(semesters, row[2:]):
            if cell == "":
                continue
            try:
                mark = float(cell)
            except ValueError:
                raise InvalidMark(f"mark {cell!r} is not a number", line=line) from None
            if not 0.0 <= mark <= 100.0:
                raise InvalidMark(f"mark {mark!r} outside [0, 100]", line=line)
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
            raise SelfLoopEntry(f"self-nomination ({src}, {tgt})", line=line)
        edges.append((src, tgt))
    return edges


def export_edges(net: FriendshipNetwork) -> bytes:
    return _csv(["source", "target"], ([str(src), str(tgt)] for src, tgt in sorted(net.edges)))


# -- adjacency matrix ---------------------------------------------------------

def parse_adjacency(data: bytes | str) -> list[tuple[int, int]]:
    """Parse a square 0/1 matrix; entry (r, c) = 1 yields the edge (r, c)."""
    header_line, header, rows = _table(data, "adjacency")
    if len(header) < 2:
        raise BadHeader("adjacency header needs at least one id column", line=header_line)
    ids = [_parse_id(cell, header_line) for cell in header[1:]]
    if len(set(ids)) != len(ids):
        raise BadHeader("duplicate id in adjacency header", line=header_line)
    n = len(ids)
    body = list(rows)
    if len(body) != n:
        raise NonSquareMatrix(
            f"{n} id columns but {len(body)} data rows", line=body[-1][0] if body else header_line
        )
    edges = []
    for pos, (line, row) in enumerate(_fields(body, n + 1, NonSquareMatrix)):
        row_id = _parse_id(row[0], line)
        if row_id != ids[pos]:
            raise BadHeader(
                f"row label {row_id} does not match header order (expected {ids[pos]})",
                line=line,
            )
        for col, cell in enumerate(row[1:]):
            if cell not in ("0", "1"):
                raise NonBinaryEntry(
                    f"column {col + 2}: entry {cell!r} is not 0 or 1", line=line
                )
            if cell == "1":
                if ids[col] == row_id:
                    raise SelfLoopEntry(f"diagonal entry for id {row_id} is 1", line=line)
                edges.append((row_id, ids[col]))
    return edges


def export_adjacency(net: FriendshipNetwork) -> bytes:
    ids = sorted(net.nodes)
    rows = []
    for src in ids:
        out = net.out_adjacency[src]
        rows.append([str(src)] + ["1" if tgt in out else "0" for tgt in ids])
    return _csv([""] + [str(i) for i in ids], rows)


# -- cohort container ---------------------------------------------------------

def save_cohort(cohort: Cohort) -> bytes:
    doc = {
        "label": cohort.network.label,
        "students": [
            {
                "id": s.id,
                "gender": s.gender.value,
                "marks": {sem: s.marks[sem] for sem in sorted(s.marks)},
            }
            for s in sorted(cohort.students, key=lambda s: s.id)
        ],
        "edges": [list(e) for e in sorted(cohort.network.edges)],
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _json_id(value: object) -> int:
    """An id from a cohort file; strings, bools and fractional numbers are refused."""
    if isinstance(value, (str, bool)) or (isinstance(value, float) and not value.is_integer()):
        raise InvalidId(f"cohort file: id {value!r} is not an integer")
    return int(value)  # type: ignore[call-overload]


def _json_marks(value: object) -> dict[str, float]:
    """Marks from a cohort file: an object of numbers, so none is rewritten on save."""
    if not isinstance(value, dict):
        raise DataError(f"cohort file: marks {value!r} is not an object")
    for mark in value.values():
        if isinstance(mark, bool) or not isinstance(mark, (int, float)):
            raise InvalidMark(f"cohort file: mark {mark!r} is not a number")
    return {k: float(v) for k, v in value.items()}


def load_cohort(data: bytes | str) -> Cohort:
    try:
        doc = json.loads(_text(data))
    except json.JSONDecodeError as exc:
        raise DataError(f"cohort file is not valid JSON: {exc}") from None
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
            raise UnknownNodeInPartition(
                f"partition mentions unknown node(s) {sorted(extra)}"
            )
        missing = set(net.nodes) - set(partition.assignment)
        if missing:
            raise UnassignedNode(f"partition misses node(s) {sorted(missing)}")
    if marks is not None:
        unmarked = set(net.nodes) - set(marks)
        if unmarked:
            raise MissingMark(f"no mark for node(s) {sorted(unmarked)}")


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


def _export_graphml(net, genders, marks, partition) -> bytes:
    import xml.etree.ElementTree as ET

    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    keys = []
    if genders is not None:
        keys.append(("d_gender", "gender", "string"))
    if marks is not None:
        keys.append(("d_mark", "mark", "double"))
    if partition is not None:
        keys.append(("d_cluster", "cluster", "int"))
    for key_id, name, typ in keys:
        ET.SubElement(
            root, "key", id=key_id, attrib={"for": "node"},
            **{"attr.name": name, "attr.type": typ},
        )
    graph = ET.SubElement(root, "graph", id=net.label, edgedefault="directed")
    for v in sorted(net.nodes):
        node = ET.SubElement(graph, "node", id=str(v))
        if genders is not None and v in genders:
            ET.SubElement(node, "data", key="d_gender").text = genders[v].value
        if marks is not None:
            ET.SubElement(node, "data", key="d_mark").text = repr(float(marks[v]))
        if partition is not None:
            ET.SubElement(node, "data", key="d_cluster").text = str(partition.assignment[v])
    for src, tgt in sorted(net.edges):
        ET.SubElement(graph, "edge", source=str(src), target=str(tgt))
    ET.indent(root)
    return ET.tostring(root, encoding="UTF-8", xml_declaration=True) + b"\n"


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
            raise DuplicateId(f"node {node} assigned twice", line=line)
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
