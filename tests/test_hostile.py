"""Hostile-input corpus: every subcommand, run in-process through
cli.main, with each of its input files in turn replaced by a broken one
(the others stay valid), exits 0 or 2-5 and prints no traceback, within
a time bound.  A valid CSV input with a row of several MB is accepted."""

import io
import json
import sys
from dataclasses import asdict

import numpy as np
import pytest

from hapstep import cli
from hapstep.profiles import SpeedProfileTable, Triangle, TriangularProfile
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
    rows = [(i / 1000, 0.5 if 100 <= i < 300 else 0.0) for i in range(500)]
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

#: tables with one field out of range: envelopes no run could sample
HOSTILE_TABLES = {f"{field}={value}": _table().replace(f'"{field}": {old}',
                                                       f'"{field}": {value}', 1).encode()
                  for field, old, value in (("duration_s", "1.0", "Infinity"),
                                            ("duration_s", "1.0", "1e9"),
                                            ("f_peak", "-1.0", "-Infinity"),
                                            ("t_onset", "0.0", "-Infinity"))}

INPUTS = [(command, flag, kind) for command, (inputs, _) in SUBCOMMANDS.items()
          for flag, kind in inputs + [("--config", "config")]]

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
    corpus = {name: make(VALID[kind]) for name, make in HOSTILE.items()}
    if flag == "--table":
        corpus.update(HOSTILE_TABLES)
    exits = {name: within(RUN_S, _exit, valid_paths, tmp_path, monkeypatch, capsys,
                          command, flag, kind, content)
             for name, content in corpus.items()}
    assert all(isinstance(code, int) for code in exits.values()), exits
    if flag == "--table":
        assert all(exits[name] == 2 for name in HOSTILE_TABLES), exits


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
