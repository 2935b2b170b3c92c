"""Hostile-input corpus: every subcommand, run in-process through
cli.main, with each of its input files in turn replaced by a broken one
(the others stay valid), exits 0 or 2-5 and prints no traceback, within
a time bound.  A bad value in a table or curve file exits 2, an event
whose t or speed_kmh is not a JSON number, is an integer past Python's
digit limit, or is arrays nested past its recursion limit, exits 3, a
trace or time column on a clock past the float range exits 3, and a
trace whose finite forces sum past it compiles to exit 4.  A valid CSV
input with a row of several MB is accepted.  Each failure that one bad
input or argument reaches, and that no other test runs in this process,
exits with its code and message (REACHABLE); a table or curve holding an
integer past the digit limit, or arrays nested past the recursion limit,
exits 3 with Python's message led by the file's name."""

import io
import json
import re
import sys
from dataclasses import asdict

import numpy as np
import pytest

from hapstep import cli
from hapstep.profiles import SpeedProfileTable, Triangle, TriangularProfile
from hapstep.segmentation import detect_phases, segment_steps
from hapstep.synthetic import synthetic_walk
from hapstep.trace import write_trace

from conftest import make_curve, within


def _table():
    entry = TriangularProfile(brake=Triangle(0.0, 0.1, 0.3, -1.0),
                              drive=Triangle(0.4, 0.6, 0.9, 1.0),
                              duration_s=1.0, speed_kmh=2.5)
    return json.dumps(asdict(SpeedProfileTable(entries=(entry,), device_scale=1.0)))


def _valid_files():
    trace = io.StringIO()
    write_trace(synthetic_walk(n_steps=14, rng=np.random.default_rng(0))[0], trace)
    # a brake pulse, then a drive pulse
    rows = [(i / 1000, -0.5 if 100 <= i < 300 else 0.5 if 500 <= i < 700 else 0.0)
            for i in range(900)]
    return {
        "trace": trace.getvalue(),
        "points": "duty,peak_force\n0.4,1.2\n0.6,1.8\n0.8,2.4\n1.0,3.0\n",
        "commands": "t,signed_duty\n" + "".join(f"{t!r},{d!r}\n" for t, d in rows),
        "measured": "t,force\n" + "".join(f"{t!r},{3 * d!r}\n" for t, d in rows),
        "events": '{"t": 0.05, "foot": "L", "speed_kmh": 2.5}\n'
                  '{"t": 0.6, "foot": "R", "speed_kmh": 2.5}\n',
        "table": _table(),
        "forward": json.dumps(asdict(make_curve("forward"))),
        "backward": json.dumps(asdict(make_curve("backward"))),
        "scores": "participant,item,stimulus,speed_kmh,score\n" + "".join(
            f"p1,realism,{s},{v},{10 * i}\n" for i, (s, v) in enumerate(
                (s, v) for s in ("none", "vibration", "friction") for v in (1.0, 2.5, 4.0))),
        "config": "first = 4\nlast = 13\n",
    }


VALID = _valid_files()

# subcommand -> its (flag, file kind) inputs and other arguments
SUBCOMMANDS = {
    "ingest": ([("--trace", "trace")], []),
    "segment": ([("--trace", "trace")], []),
    "phases": ([("--trace", "trace")], []),
    "compile": ([("--traces", "trace")], []),
    "calibrate": ([("--points", "points")], ["--direction", "forward"]),
    "step-response": ([("--commanded", "commands"), ("--measured", "measured")], []),
    "render": ([("--events", "events"), ("--table", "table"),
                ("--calib-forward", "forward"), ("--calib-backward", "backward")], []),
    "vibstep": ([("--commands", "commands")], []),
    "simulate": ([("--events", "events"), ("--table", "table"),
                  ("--calib-forward", "forward"), ("--calib-backward", "backward")], []),
    "normalize": ([("--scores", "scores")], []),
}


def _header_then(text, rows):
    """``text`` up to its first plain line, the header, then ``rows(n)``
    for a header of n fields."""
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return ("\n".join(lines[:k + 1] + rows(lines[k].count(",") + 1)) + "\n").encode()


def _wrong_header(text):
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[k] = ",".join(f"x{j}" for j in range(lines[k].count(",") + 1))
    return ("\n".join(lines) + "\n").encode()


def _widen_first_row(text, field):
    """``text`` with each field of its first row below the header
    rewritten by ``field``."""
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    lines[k] = ",".join(map(field, lines[k].split(",")))
    return ("\n".join(lines) + "\n").encode()


def _subnormal_clock(text):
    """``text`` with its t column rewritten to 0, 5e-324, 1e-323, ...:
    strictly increasing and uniform, but 1 / step is inf."""
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[k].split(",").index("t")
    for n, i in enumerate(range(k + 1, len(lines))):
        fields = lines[i].split(",")
        fields[col] = repr(n * 5e-324)
        lines[i] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def _subnormal_header_rate(text):
    """Trace ``text`` without its t column and with header rate 5e-324:
    a positive, finite rate whose trace lasts longer than the float range."""
    header, *lines = text.splitlines()
    rows = [line.split(",", 1)[1] for line in lines]
    return "\n".join([re.sub(r"rate_hz=\S+", "rate_hz=5e-324", header), *rows, ""]).encode()


def _million_digits(field):
    """``field`` as the same number of a million digits: zeros after its sign."""
    sign = "-" if field.startswith("-") else ""
    return sign + "0" * 10 ** 6 + field[len(sign):]


HOSTILE = {
    "empty": lambda valid: b"",
    "not-utf8": lambda valid: b"\xff\xfe" + valid.encode(),
    "open-brace": lambda valid: b"{",
    "empty-list": lambda valid: b"[]",
    "null": lambda valid: b"null",
    "nan": lambda valid: b"NaN",
    "nan-inf-csv": lambda valid: _header_then(
        valid, lambda n: [",".join([v] * n) for v in ("nan", "inf", "-inf", "1e400")]),
    "wrong-header": _wrong_header,
    "ragged-rows": lambda valid: _header_then(valid, lambda n: ["1", ",".join(["1"] * (n + 1))]),
}


def _set(field, old, value):
    """A valid JSON file's text with ``field``'s first value ``old`` set to ``value``."""
    return lambda valid: valid.replace(f'"{field}": {old}', f'"{field}": {value}', 1).encode()


#: tables with one field out of range, or not a number: envelopes no run could sample
HOSTILE_TABLES = {f"{field}={value}": _set(field, old, value)
                  for field, old, value in (("duration_s", "1.0", "Infinity"),
                                            ("duration_s", "1.0", "1e9"),
                                            ("f_peak", "-1.0", "-Infinity"),
                                            ("t_onset", "0.0", "-Infinity"),
                                            ("device_scale", "1.0", "true"),
                                            ("f_peak", "-1.0", "false"),
                                            ("duration_s", "1.0", "1" + "0" * 400))}
#: calibration curves with a number field out of range, or that holds
#: another JSON value
HOSTILE_CURVES = {f"{field}={value}": _set(field, old, value)
                  for field, old, value in (("slope", "3.0", "0.0"),
                                            ("slope", "3.0", "true"),
                                            ("intercept", "0.0", "false"),
                                            ("r_squared", "1.0", '"x"'),
                                            ("r_squared", "1.0", "NaN"),
                                            ("min_duty", "0.0", "false"),
                                            ("intercept", "0.0", "1" + "0" * 400))}
#: a JSON integer past Python's 4,300-digit limit for int(str), which
#: json.loads raises on as a plain ValueError
PAST_DIGIT_LIMIT = "1" + "0" * 5000
#: JSON arrays nested past Python's recursion limit, which json.loads
#: raises RecursionError on
DEEP_NESTING = "[" * 10 ** 5 + "]" * 10 ** 5
#: event logs whose first t or speed_kmh is not a JSON number Python
#: reads: a string that float() would read, null, true, PAST_DIGIT_LIMIT
#: or DEEP_NESTING
HOSTILE_EVENTS = {f"{field}={value if len(value) < 9 else f'{len(value)}-chars'}":
                  _set(field, old, value)
                  for field, old in (("t", "0.05"), ("speed_kmh", "2.5"))
                  for value in (f'"{old}"', '"1_0"', "null", "true", PAST_DIGIT_LIMIT,
                                DEEP_NESTING)}
#: an input kind's own cases and the exit each must give: 2 for bad
#: configuration, 3 for a malformed record
HOSTILE_EXITS = {"table": (HOSTILE_TABLES, 2), "forward": (HOSTILE_CURVES, 2),
                 "backward": (HOSTILE_CURVES, 2), "events": (HOSTILE_EVENTS, 3)}

INPUTS = [(command, flag, kind) for command, (inputs, _) in SUBCOMMANDS.items()
          for flag, kind in inputs + [("--config", "config")]]


def _huge_brake_peak(channels):
    """The valid walk with the brake peak of its 7th step, one that
    compile keeps, at -1e308 on each of ``channels``: finite forces whose
    sum over both channels, or whose double, is past the float range."""
    walk = synthetic_walk(n_steps=14, rng=np.random.default_rng(0))[0]
    step = segment_steps(walk)[6]
    at = round((step.start_s + detect_phases(step).t_step1_peak) * walk.sample_rate_hz)
    for name in channels:
        getattr(walk, name)[at] = -1e308
    text = io.StringIO()
    write_trace(walk, text)
    return text.getvalue().encode()


#: traces of finite forces that segmentation sums or doubles past the float range
HUGE_FORCES = {"heel": ("heel_y",), "both-channels": ("thenar_y", "heel_y")}

#: valid CSV inputs whose first row is several MB: every field a number
#: of a million digits, or led by a megabyte of spaces
HUGE_ROWS = {
    "million-digit-numbers": lambda valid: _widen_first_row(valid, _million_digits),
    "megabyte-of-spaces": lambda valid: _widen_first_row(valid, lambda f: " " * 10 ** 6 + f),
}
#: seconds one run of a subcommand may take, on any input here (each took
#: under 0.1 s on a 2-core Xeon VM)
RUN_S = 5.0


@pytest.fixture(scope="module")
def valid_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    for name, text in VALID.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in VALID}


def _exit(valid_paths, tmp_path, monkeypatch, capsys, command, flag, kind, content):
    """The exit code of ``command`` with its ``kind`` input replaced by
    ``content`` (read from stdin for flag "-"); its stderr or exception
    instead when it exits otherwise than 0 or 2-5, or with a traceback."""
    inputs, extra = SUBCOMMANDS[command]
    files = dict(valid_paths, **{kind: str(tmp_path / kind)})
    (tmp_path / kind).write_bytes(content)
    argv = ["--config", files["config"], command, *extra]
    for input_flag, input_kind in inputs:
        argv += [input_flag, files[input_kind]]
    argv += ["--out", str(tmp_path / "out")]
    if command == "simulate":
        argv += ["--out-log", str(tmp_path / "log.csv")]
    if flag == "-":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(content),
                                                           encoding="utf-8"))
        argv[argv.index("--events") + 1] = "-"
    try:
        code = cli.main(argv)
    except Exception as exc:  # reported with the other cases, not alone
        return f"{type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    return code if code in (0, 2, 3, 4, 5) and "Traceback" not in err else err


@pytest.mark.parametrize("command,flag,kind", INPUTS + [("render", "-", "events")],
                         ids=lambda v: v.lstrip("-"))
def test_hostile_input_exits_cleanly(valid_paths, tmp_path, monkeypatch, capsys,
                                     command, flag, kind):
    own, expected = HOSTILE_EXITS.get(kind, ({}, None))
    corpus = {name: make(VALID[kind]) for name, make in {**HOSTILE, **own}.items()}
    exits = {name: within(RUN_S, _exit, valid_paths, tmp_path, monkeypatch, capsys,
                          command, flag, kind, content)
             for name, content in corpus.items()}
    assert all(isinstance(code, int) for code in exits.values()), exits
    assert all(exits[name] == expected for name in own), exits


@pytest.mark.parametrize("command,flag,kind",
                         [i for i in INPUTS if i[2] in ("trace", "commands", "measured")],
                         ids=lambda v: v.lstrip("-"))
def test_subnormal_clock_is_malformed_input(valid_paths, tmp_path, monkeypatch, capsys,
                                            command, flag, kind):
    """A t column whose steps are subnormal has no finite rate: exit 3,
    not a run on a made-up clock."""
    content = _subnormal_clock(VALID[kind])
    assert within(RUN_S, _exit, valid_paths, tmp_path, monkeypatch, capsys,
                  command, flag, kind, content) == 3


@pytest.mark.parametrize("command,flag,kind", [i for i in INPUTS if i[2] == "trace"],
                         ids=lambda v: v.lstrip("-"))
def test_subnormal_header_rate_is_malformed_input(valid_paths, tmp_path, monkeypatch,
                                                  capsys, command, flag, kind):
    """A header rate whose trace would last past the float range: exit 3,
    with no numpy warning, not a trace written with an inf clock."""
    content = _subnormal_header_rate(VALID[kind])
    assert within(RUN_S, _exit, valid_paths, tmp_path, monkeypatch, capsys,
                  command, flag, kind, content) == 3


def _entries(rewrite):
    """A valid table's text with its entries list rewritten by ``rewrite``."""
    return lambda valid: json.dumps({**json.loads(valid),
                                     "entries": rewrite(json.loads(valid)["entries"])}).encode()


def _channels(rewrite):
    """A valid trace's text with each row's thenar_y and heel_y set to
    ``rewrite(thenar_y, heel_y)``."""
    def make(valid):
        header, columns, *rows = valid.splitlines()
        fields = [row.split(",") for row in rows]
        rows = [",".join([t, *map(repr, rewrite(float(a), float(b)))]) for t, a, b in fields]
        return "\n".join([header, columns, *rows, ""]).encode()
    return make


def _one_tick_brake(valid):
    """The valid command log with its brake pulse cut to its first tick."""
    rows = [(i / 1000, -0.5 if i == 100 else 0.5 if 500 <= i < 700 else 0.0)
            for i in range(900)]
    return ("t,signed_duty\n" + "".join(f"{t!r},{d!r}\n" for t, d in rows)).encode()


#: failures that inputs reach, each by one replaced input and extra
#: arguments: (command, kind, content from the valid one, arguments, exit
#: code, what stderr holds)
REACHABLE = {
    "config-bad-value": (
        "segment", "config", lambda v: b"first = abc\n", [], 2, "config:1: bad value for 'first'"),
    "config-comments-only": (
        "segment", "config", lambda v: b"\n# first = abc\n  \n", [], 0, ""),
    "table-repeated-speed": (
        "render", "table", _entries(lambda e: e * 2), [], 2, "strictly increasing"),
    "table-device-scale": (
        "render", "table", _set("device_scale", "1.0", "1.5"), [], 2, "(0, 1]"),
    "table-no-entries": (
        "render", "table", _entries(lambda e: []), [], 2, "at least one entry"),
    "table-positive-brake": (
        "render", "table", _set("f_peak", "-1.0", "1.0"), [], 2, "brake peak must be <= 0"),
    "table-overlapping-regions": (
        "render", "table", _set("t_offset", "0.3", "0.5"), [], 2, "must end before drive"),
    "table-nan-speed": (
        "render", "table", _set("speed_kmh", "2.5", "NaN"), [], 2, "entry speeds must be finite"),
    "table-past-digit-limit": (
        "render", "table", _set("device_scale", "1.0", PAST_DIGIT_LIMIT), [], 3,
        "Exceeds the limit"),
    "curve-past-digit-limit": (
        "render", "forward", _set("intercept", "0.0", PAST_DIGIT_LIMIT), [], 3,
        "Exceeds the limit"),
    "table-deep-nesting": (
        "render", "table", _set("device_scale", "1.0", DEEP_NESTING), [], 3,
        "table: maximum recursion depth exceeded"),
    "curve-deep-nesting": (
        "render", "forward", _set("intercept", "0.0", DEEP_NESTING), [], 3,
        "forward: maximum recursion depth exceeded"),
    "curve-slope-0": (
        "render", "forward", _set("slope", "3.0", "0.0"), [], 2, "slope must be positive"),
    "curve-min-duty-1": (
        "render", "forward", _set("min_duty", "0.0", "1.0"), [], 2, "min_duty must be in [0, 1)"),
    "calibrate-min-duty-1": (
        "calibrate", "points", str.encode, ["--min-duty", "1"], 2, "min_duty must be in [0, 1)"),
    "simulate-max-force-0": (
        "simulate", "events", str.encode, ["--max-force", "0"], 2, "max_force must be positive"),
    "segment-onset-threshold-0": (
        "segment", "trace", str.encode, ["--onset-threshold", "0"], 2,
        "thresholds must be positive"),
    "segment-min-step-0": (
        "segment", "trace", str.encode, ["--min-step-s", "0"], 2, "min_step_s must be positive"),
    "trace-bare-rate-token": (
        "ingest", "trace", lambda v: v.replace("rate_hz=1000.0", "rate_hz", 1).encode(), [], 3,
        "malformed header token"),
    "trace-without-clock": (
        "ingest", "trace", lambda v: _subnormal_header_rate(v).replace(b"rate_hz=5e-324 ", b""),
        [], 3, "sample rate not declared"),
    "vibstep-one-row": (
        "vibstep", "commands", lambda v: b"t,signed_duty\n0.0,0.5\n", [], 3,
        "need at least 2 rows"),
    "compile-no-brake": (
        "compile", "trace", _channels(lambda a, b: (abs(a), abs(b))), [], 4,
        "no usable steps in trace"),
    "step-response-one-tick": (
        "step-response", "commands", _one_tick_brake, [], 4, "response window too short"),
    "phases-cancelling-sites": (
        "phases", "trace", _channels(lambda a, b: (-b, b)), [], 0,
        "rejected: no force activity in segment"),
}


@pytest.mark.parametrize("case", REACHABLE)
def test_reachable_failure_exit_code_and_message(valid_paths, tmp_path, capsys, case):
    command, kind, make, extra, code, message = REACHABLE[case]
    (tmp_path / kind).write_bytes(make(VALID[kind]))
    files = dict(valid_paths, **{kind: str(tmp_path / kind)})
    inputs, fixed = SUBCOMMANDS[command]
    argv = ["--config", files["config"], command, *fixed, *extra]
    for flag, input_kind in inputs:
        argv += [flag, files[input_kind]]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_valid_inputs_exit_0(valid_paths, tmp_path, monkeypatch, capsys, command):
    """Every subcommand exits 0 on VALID, so each hostile case changes
    one input of a run that reaches the subcommand's analysis."""
    flag, kind = SUBCOMMANDS[command][0][0]
    assert _exit(valid_paths, tmp_path, monkeypatch, capsys, command, flag, kind,
                 VALID[kind].encode()) == 0


@pytest.mark.parametrize("case", HUGE_ROWS)
@pytest.mark.parametrize("command,flag,kind",
                         [i for i in INPUTS if i[2] in ("trace", "points", "commands")],
                         ids=lambda v: v.lstrip("-"))
def test_huge_valid_row_reads_like_valid_input(valid_paths, tmp_path, monkeypatch, capsys,
                                               command, flag, kind, case):
    """The same exit as the input it widens, within RUN_S."""
    run = [valid_paths, tmp_path, monkeypatch, capsys, command, flag, kind]
    content = HUGE_ROWS[case](VALID[kind])
    assert len(content) > 2 * 10 ** 6
    assert within(RUN_S, _exit, *run, content) == _exit(*run, VALID[kind].encode())


@pytest.mark.parametrize("case", HUGE_FORCES)
@pytest.mark.parametrize("command,code", [("ingest", 0), ("segment", 0), ("phases", 0),
                                          ("compile", 4)])
def test_forces_near_the_float_limit(valid_paths, tmp_path, monkeypatch, capsys,
                                     command, code, case):
    """No numpy warning (an error here) from any trace command, and
    compile exits 4, as for a profile whose mean overflows."""
    flag, kind = SUBCOMMANDS[command][0][0]
    content = _huge_brake_peak(HUGE_FORCES[case])
    assert within(RUN_S, _exit, valid_paths, tmp_path, monkeypatch, capsys,
                  command, flag, kind, content) == code
