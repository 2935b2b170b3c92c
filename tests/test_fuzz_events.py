"""Generated hostile event logs: hypothesis mutates the valid two-event
log of test_hostile and runs render in-process on each mutant, from a
file and from stdin, within RUN_S.  The exit must be 0 or 2-5 with no
traceback, both sources must give the same exit (and the same bytes when
it is 0), and a small model of the intake rules must predict it.

HYPOTHESIS_PROFILE=ci runs the same examples every time."""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from hapstep import cli

from conftest import within
from test_hostile import PAST_DIGIT_LIMIT, RUN_S, VALID, valid_paths  # noqa: F401 (a fixture)

#: each line of the valid log as field -> the JSON text of its value
RECORDS = [{field: json.dumps(value) for field, value in json.loads(line).items()}
           for line in VALID["events"].splitlines()]
#: what a number may become, besides the number as a JSON string
NUMBERS = ("NaN", "Infinity", "-Infinity", "1e308", "-1e308", "5e-324", "-0.0",
           "1" + "0" * 400, PAST_DIGIT_LIMIT, "true", "null")
#: bytes inserted into a line: a BOM, CR, a file separator, no UTF-8
INSERTS = (b"\xef\xbb\xbf", b"\r", b"\x1c", b"\xff")

_at = st.integers(0, 10 ** 6)  # an index, taken modulo what it indexes
_numbers = st.sampled_from(("t", "speed_kmh"))
record_edits = st.one_of(
    st.tuples(st.just("number"), _at, _numbers, st.sampled_from(NUMBERS)),
    st.tuples(st.just("string"), _at, _numbers),
    st.tuples(st.sampled_from(("drop", "repeat", "swap", "later", "lifted")), _at),
    st.tuples(st.just("foot"), _at, st.sampled_from(('"X"', '"l"', "1", "null"))),
    st.tuples(st.sampled_from(("add", "remove")), _at,
              st.sampled_from(("t", "foot", "speed_kmh", "kind", "x"))),
)
byte_edits = st.one_of(st.tuples(st.just("truncate"), _at, _at),
                       st.tuples(st.just("insert"), _at, _at, st.sampled_from(INSERTS)))


def _value(text):
    """The value of JSON ``text``; None for an integer past Python's digit limit."""
    try:
        return json.loads(text)
    except ValueError:
        return None


def _edit_records(records, edit):
    op, at, *arg = edit
    if not records:
        return records
    k = at % len(records)
    record = dict(records[k])
    if op == "drop":
        return records[:k] + records[k + 1:]
    if op == "repeat":
        return records[:k + 1] + records[k:]
    if op == "swap":
        return records[k + 1:k + 2] + records[k:k + 1] + records[:k] + records[k + 2:]
    if op == "number" and arg[0] in record:
        record[arg[0]] = arg[1]
    elif op == "string" and arg[0] in record:
        record[arg[0]] = json.dumps(record[arg[0]])
    elif op == "later" and type(t := _value(record.get("t", "null"))) in (int, float):
        record["t"] = json.dumps(t + 3601)
    elif op == "lifted":
        record["kind"] = '"lifted"'
    elif op == "foot":
        record["foot"] = arg[0]
    elif op == "add":
        record.setdefault(arg[0], {"kind": '"grounded"'}.get(arg[0], "1"))
    elif op == "remove":
        record.pop(arg[0], None)
    return records[:k] + [record] + records[k + 1:]


def _edit_bytes(lines, edit):
    op, at, pos, *insert = edit
    if not lines:
        return lines
    k = at % len(lines)
    line = lines[k]
    cut = pos % (len(line) + 1)
    line = line[:cut] if op == "truncate" else line[:cut] + insert[0] + line[cut:]
    return lines[:k] + [line] + lines[k + 1:]


@st.composite
def event_logs(draw):
    """The valid log's bytes after up to two record edits and a byte edit."""
    records = RECORDS
    for edit in draw(st.lists(record_edits, max_size=2)):
        records = _edit_records(records, edit)
    lines = [("{" + ", ".join(f'"{k}": {v}' for k, v in r.items()) + "}").encode()
             for r in records]
    for edit in draw(st.lists(byte_edits, max_size=1)):
        lines = _edit_bytes(lines, edit)
    return b"".join(line + b"\n" for line in lines)


def _number(value) -> bool:
    """A JSON number that is a finite float >= 0."""
    return type(value) in (int, float) and 0 <= value <= sys.float_info.max


def expected_exit(content: bytes) -> int:
    """The exit the intake rules give: the first faulty record decides.
    Not UTF-8, bad JSON (an integer past Python's digit limit included),
    a missing or wrong field, or a number that is not a finite float
    >= 0: 3.  An event before the previous one: 4.
    One more than 3600 s after it (or after 0), or past 86400 s: 3."""
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError:
        return 3
    previous = 0.0
    for line in re.split(r"\r\n|\r|\n", text):
        line = line.strip()  # str.strip: whitespace is more than JSON's
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:  # JSONDecodeError, or an int past the digit limit
            return 3
        if not (isinstance(record, dict) and _number(record.get("t"))
                and _number(record.get("speed_kmh")) and record.get("foot") in ("L", "R")
                and record.get("kind", "grounded") == "grounded"):
            return 3
        t = record["t"]
        if t < previous:
            return 4
        if t - previous > 3600 or t > 86400:
            return 3
        previous = t
    return 0


def _render(args, content, source):
    """(exit, output bytes or None, stderr) of render on ``content`` read
    from a file or from stdin; the exception instead of an exit when one
    escapes cli.main."""
    with tempfile.TemporaryDirectory() as tmp:
        events, out, err = Path(tmp, "events.ndjson"), Path(tmp, "out.csv"), io.StringIO()
        events.write_bytes(content)
        stdin = sys.stdin
        if source == "stdin":
            sys.stdin = io.TextIOWrapper(io.BytesIO(content), encoding="utf-8")
            events = "-"
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*args, "--events", str(events), "--out", str(out)])
        except Exception as exc:  # reported by the test with its input
            return repr(exc), None, ""
        finally:
            if source == "stdin":
                sys.stdin.close()
            sys.stdin = stdin
        return code, out.read_bytes() if code == 0 else None, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(content=event_logs())
def test_event_intake_exits_as_the_model_predicts(valid_paths, content):
    args = ["render", "--table", valid_paths["table"], "--calib-forward",
            valid_paths["forward"], "--calib-backward", valid_paths["backward"]]
    runs = [within(RUN_S, _render, args, content, source) for source in ("file", "stdin")]
    for code, _, err in runs:
        assert code in (0, 2, 3, 4, 5) and "Traceback" not in err, (content, code, err)
    assert runs[0][:2] == runs[1][:2], content
    assert runs[0][0] == expected_exit(content), (content, runs[0][2])
