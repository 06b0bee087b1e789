"""The mark rule ("an int or float, not a bool, in [0, 100]") lives in model._check_mark
alone; every way a mark comes in is refused with one of its texts."""

import csv
import io
import json

import pytest

from cohortnet import Student
from cohortnet.cli import main
from cohortnet.errors import DataError
from cohortnet.stats import skewness, summarize

BAD_MARKS = [101, -1, True, "85", float("nan"), 10**400]
BAD_IDS = ["over-100", "negative", "bool", "string", "nan", "over-float-range"]
RULE_TEXTS = ("is not a number", "outside [0, 100]", "too large for a float")


def _refused_by_rule(message):
    return any(text in message for text in RULE_TEXTS)


@pytest.mark.parametrize("mark", BAD_MARKS, ids=BAD_IDS)
def test_roster_row_refused_on_its_line(tmp_path, capsys, mark):
    # the cell is the mark as JSON spells it: true, "85" (quotes kept), NaN, 400 digits
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [["id", "gender", "mark_s5"], ["1", "M", "80"], ["2", "F", json.dumps(mark)]])
    (tmp_path / "r.csv").write_text(buf.getvalue())
    (tmp_path / "e.csv").write_text("source,target\n")
    out = tmp_path / "out"
    assert main(["ingest", "--roster", str(tmp_path / "r.csv"), "--edges",
                 str(tmp_path / "e.csv"), "--out", str(out / "c.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: line 3: ") and _refused_by_rule(err)
    assert not out.exists()


@pytest.mark.parametrize("mark", BAD_MARKS, ids=BAD_IDS)
def test_cohort_file_refused(tmp_path, capsys, mark):
    doc = {"label": "t", "edges": [],
           "students": [{"id": 1, "gender": "U", "marks": {"s5": mark}}]}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["report", str(tmp_path / "c.json"), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: student 1, semester 's5': mark ")
    assert _refused_by_rule(err)
    assert not out.exists()


@pytest.mark.parametrize("mark", BAD_MARKS, ids=BAD_IDS)
def test_student_refused(mark):
    with pytest.raises(DataError) as caught:
        Student(id=1, marks={"s5": mark})
    assert _refused_by_rule(str(caught.value))


@pytest.mark.parametrize("mark", BAD_MARKS, ids=BAD_IDS)
def test_summarize_refused(mark):
    with pytest.raises(DataError) as caught:
        summarize([50.0, mark])
    assert str(caught.value).startswith("mark list, entry 1: ")
    assert _refused_by_rule(str(caught.value))


@pytest.mark.parametrize("mark", BAD_MARKS + [float("inf")], ids=BAD_IDS + ["inf"])
def test_skewness_refused(mark):
    # checked before the exact variance, which would raise ValueError on NaN, OverflowError on inf
    with pytest.raises(DataError) as caught:
        skewness([50.0, 60.0, mark])
    assert str(caught.value).startswith("mark list, entry 2: ")
    assert _refused_by_rule(str(caught.value))
