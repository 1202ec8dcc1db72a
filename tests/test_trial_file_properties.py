"""The trial and score readers against a per-line reference parser, on generated files.

The files mix tabs, runs of spaces, CRLF and CR line ends, blank lines, ``#``
comment lines (trial files) and non-ASCII ids, some holding U+00A0, which
``str.split`` takes for whitespace.  The readers must give the reference's rows
and line numbers, and fail at the reference's line, the first damaged one.
"""

import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from svkit import data  # noqa: E402
from svkit.errors import ParseError  # noqa: E402

LABELS = (data.TARGET, data.NONTARGET)
NBSP = "\u00a0"
ID = st.text(st.sampled_from(list("abyz0189-_.") + ["\u00e9", "\u00df", "\u0416", "\u65e5"]),
             min_size=1, max_size=5)
# an id holding U+00A0 is two fields to str.split
IDS = st.one_of(ID, ID, ID, st.builds(lambda a, b: a + NBSP + b, ID, ID))
# whitespace to str.split, but no line end to a file's lines: FF, GS, NEL, U+2028
SEP = st.sampled_from([" ", "  ", "\t", " \t", NBSP, "\x0c", "\x1d", "\x85", "\u2028"])
PAD = st.sampled_from(["", "", " ", "\t", "\u3000"])
END = st.sampled_from(["\n", "\n", "\r\n", "\r"])
SCORE = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                  st.floats(allow_nan=False, allow_infinity=False).map("%.17g".__mod__),
                  st.integers(-10**20, 10**20).map(str))
# damage to one line: a wrong field count, a bad label, a bad float or a nan
TRIAL_DAMAGE = st.sampled_from([["a"], ["a", "b", "target", "x"], ["a", "b", "maybe"],
                                ["a", "b", "Target"]])
SCORE_DAMAGE = st.sampled_from([["a", "b"], ["a", "b", "1", "2"], ["a", "b", "1.2.3"],
                                ["a", "b", "x"], ["a", "b", "nan"], ["a", "b", "-inf"]])


def reference_trials(path):
    """(line, enroll, test, label) of each trial, or the first bad line."""
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) not in (2, 3) or (len(fields) == 3 and fields[2] not in LABELS):
                return line_no
            rows.append((line_no, fields[0], fields[1], (fields + [None])[2]))
    return rows


def reference_scores(path):
    """(line, enroll, test, score as hex) of each line, or the first bad line."""
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            try:
                score = float(fields[2]) if len(fields) == 3 else math.nan
            except ValueError:
                score = math.nan
            if not math.isfinite(score):
                return line_no
            rows.append((line_no, fields[0], fields[1], score.hex()))
    return rows


def read_trials(path):
    try:
        trials = data.read_trials(path)
    except ParseError as exc:
        return exc.line_no
    return [(int(no), t.enroll_id, t.test_id, t.label) for no, t in zip(trials.lines, trials)]


def read_scores(path):
    try:
        scored = data.read_scores(path)
    except ParseError as exc:
        return exc.line_no
    return [(int(no), t.enroll_id, t.test_id, s.hex())
            for no, t, s in zip(scored.trials.lines, scored.trials, scored.scores.tolist())]


@st.composite
def lines(draw, record, comments: bool):
    """Records drawn from ``record``, with blank lines and, with ``comments``, comment lines."""
    kinds = ["record"] * 4 + ["blank"] + (["comment"] if comments else [])
    out = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind == "record":
            out.append(draw(record))
        elif kind == "comment":
            out.append([draw(st.sampled_from(["#", "#batch", "#x"]))]
                       + draw(st.lists(IDS, max_size=3)))
        else:
            out.append([])
    return out


@st.composite
def text(draw, rows):
    """The file of ``rows`` (lists of fields), with drawn separators, padding and line ends."""
    parts = []
    for fields in rows:
        body = "".join(f + draw(SEP) for f in fields[:-1]) + (fields[-1] if fields else "")
        line = draw(PAD) + body + draw(PAD) + draw(END)
        if parts and parts[-1].endswith("\r") and line.startswith("\n"):
            line = " " + line  # CR then LF would be one line end
        parts.append(line)
    if parts and draw(st.booleans()):
        parts[-1] = parts[-1].rstrip("\r\n")  # no line end after the last line
    return "".join(parts)


TRIAL_RECORD = st.builds(lambda e, t, label: [e, t] + label, IDS, IDS,
                         st.sampled_from([[], [data.TARGET], [data.NONTARGET]]))
SCORE_RECORD = st.builds(lambda e, t, s: [e, t, s], IDS, IDS, SCORE)


def _check(text_value, read, reference):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        path.write_text(text_value, encoding="utf-8", newline="")
        want = reference(path)
        assert read(path) == want
        return want


@settings(max_examples=200, deadline=None)
@given(draws=st.data())
def test_trial_reader_matches_the_reference(draws):
    rows = draws.draw(lines(TRIAL_RECORD, comments=True))
    _check(draws.draw(text(rows)), read_trials, reference_trials)


@settings(max_examples=200, deadline=None)
@given(draws=st.data())
def test_score_reader_matches_the_reference(draws):
    rows = draws.draw(lines(SCORE_RECORD, comments=False))
    _check(draws.draw(text(rows)), read_scores, reference_scores)


@pytest.mark.parametrize("record, damage, read, reference, comments", [
    (TRIAL_RECORD, TRIAL_DAMAGE, read_trials, reference_trials, True),
    (SCORE_RECORD, SCORE_DAMAGE, read_scores, reference_scores, False),
], ids=["trials", "scores"])
@settings(max_examples=100, deadline=None)
@given(draws=st.data())
def test_damaged_line_fails_at_the_reference_line(record, damage, read, reference, comments,
                                                  draws):
    clean = st.builds(lambda fields: [f.replace(NBSP, "") for f in fields], record)
    rows = draws.draw(lines(clean, comments))
    damaged = []
    for _ in range(draws.draw(st.integers(1, 3))):
        at = draws.draw(st.integers(0, len(rows)))
        rows.insert(at, draws.draw(damage))
        damaged = [d + (d >= at) for d in damaged] + [at]
    want = _check(draws.draw(text(rows)), read, reference)
    # every row is one line, so the first damaged row is the reference's line
    assert want == min(damaged) + 1
