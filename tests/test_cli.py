import argparse
import io
import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hapstep import cli, renderer, textio
from hapstep.calibration import save_curve
from hapstep.profiles import interpolate, load_table
from hapstep.scores import read_scores
from hapstep.synthetic import synthetic_walk
from hapstep.segmentation import SegmentationConfig, detect_phases, segment_steps
from hapstep.trace import load_trace, write_trace

from conftest import KNOT_SPEEDS, fitted_curves, make_curve, no_unclosed_files, within

EVENTS_NDJSON = (
    '{"t": 0.05, "foot": "L", "speed_kmh": 1.0}\n'
    '{"t": 1.4, "foot": "R", "speed_kmh": 2.5}\n'
    '{"t": 2.7, "foot": "L", "speed_kmh": 4.0}\n'
)


def run_cli(*argv, stdin=None):
    return subprocess.run([sys.executable, "-m", "hapstep.cli", *argv],
                          input=stdin, capture_output=True, text=True)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Fixture traces, calibration files, and a compiled table on disk."""
    root = tmp_path_factory.mktemp("cli")
    traces = []
    for i, speed in enumerate(KNOT_SPEEDS):
        tr, _ = synthetic_walk(n_steps=30, speed_kmh=speed, jitter=0.05,
                               participant=f"p0{i}",
                               rng=np.random.default_rng(i))
        path = root / f"walk_{speed:g}.csv"
        write_trace(tr, path)
        traces.append(str(path))

    for direction in ("forward", "backward"):
        save_curve(make_curve(direction), root / f"{direction}.json")

    table = root / "table.json"
    res = run_cli("compile", "--traces", *traces, "--out", str(table))
    assert res.returncode == 0, res.stderr
    events = root / "events.ndjson"
    events.write_text(EVENTS_NDJSON)
    return {"root": root, "traces": traces, "table": str(table),
            "fwd": str(root / "forward.json"), "bwd": str(root / "backward.json"),
            "events": str(events)}


class TestUsage:
    def test_help(self):
        res = run_cli("--help")
        assert res.returncode == 0
        for sub in ("ingest", "segment", "compile", "render", "simulate"):
            assert sub in res.stdout

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate").returncode == 2

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("ingest", "--bogus").returncode == 2


#: a valid argv of each subcommand, past its name, setting most options
VALID_ARGV = {
    "ingest": ["--trace", "w.csv", "--out", "o.csv"],
    "segment": ["--trace", "w.csv", "--out", "s.json", "--onset-threshold", "0.2"],
    "phases": ["--min-step-s", "0.3", "--trace", "w.csv", "--out", "p.json"],
    "compile": ["--traces", "a.csv", "b.csv", "--out", "t.json", "--first", "3",
                "--last", "9", "--device-max-force", "2", "--release-threshold", "0.05"],
    "calibrate": ["--points", "p.csv", "--direction", "backward", "--min-duty", "0.2",
                  "--out", "c.json"],
    "step-response": ["--commanded", "c.csv", "--measured", "m.csv", "--out", "r.json"],
    "render": ["--table", "t.json", "--calib-forward", "f.json", "--calib-backward",
               "b.json", "--out", "c.csv", "--duration", "2", "--listen", "0"],
    "vibstep": ["--commands", "c.csv", "--out", "v.csv"],
    "simulate": ["--events", "e.ndjson", "--table", "t.json", "--tau-s", "0.02",
                 "--max-force", "5", "--out", "m.json", "--out-log", "l.csv"],
    "normalize": ["--scores", "s.csv", "--out", "n.csv"],
}


def parse_exit(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that ends the process."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestOneSubparser:
    """main builds the parser of the command it runs alone; it parses
    and fails as the parser of every command does."""

    def full(self, argv):
        return cli.build_parser().parse_args(argv)

    def test_names_are_the_full_parsers_choices(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert tuple(sub.choices) == tuple(cli.COMMANDS)

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_same_namespace(self, command, tmp_path, monkeypatch):
        cfg = tmp_path / "hapstep.cfg"
        cfg.write_text("first = 4\n")
        argv = ["--config", str(cfg), command, *VALID_ARGV[command]]
        built, ran = [], []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda c=None: built.append(c) or build(c))
        monkeypatch.setitem(cli.COMMANDS, command, lambda args: ran.append(vars(args)) or "")
        assert cli.main(argv) == 0
        assert built == [command]
        assert ran == [{**vars(self.full(argv)), "_config": {"first": 4}}]

    @pytest.mark.parametrize("extra", [["-h"], [], ["--bogus"], ["extra"]],
                             ids=["help", "missing", "unknown-flag", "extra-argument"])
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_same_help_and_usage_errors(self, command, extra, capsys):
        argvs = [[command, *extra], ["--config", "x.cfg", command, *extra]]
        if extra:  # also after a valid argv
            argvs.append([command, *VALID_ARGV[command], *extra])
        for argv in argvs:
            assert parse_exit(cli.main, argv, capsys) == parse_exit(self.full, argv, capsys)

    @pytest.mark.parametrize("argv", [[], ["-h"], ["frobnicate"], ["--config"],
                                      ["--config", "x.cfg"], ["--config=x.cfg", "ingest"],
                                      ["--conf", "x.cfg", "ingest", "--bogus"]])
    def test_no_command_name_found(self, argv, capsys):
        """argv where the scan finds no command gets the full parser."""
        assert parse_exit(cli.main, argv, capsys) == parse_exit(self.full, argv, capsys)


class TestSummaryLine:
    """A subcommand returns its summary; main prints it as SUMMARY -> OUT."""

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_last_stdout_line_is_summary_to_out(self, command, cli_inputs, tmp_path, capsys):
        _, argv = cli_inputs
        out = str(tmp_path / "out")
        assert cli.main([command, *argv[command], "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary, arrow, path = lines[-1].rpartition(" -> ")
        assert summary and arrow and path == out
        # compile prints one line per speed first
        assert len(lines) == (1 + len(KNOT_SPEEDS) if command == "compile" else 1)

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_a_subcommand_that_raises_prints_no_summary(self, command, cli_inputs, tmp_path,
                                                        monkeypatch, capsys):
        _, argv = cli_inputs

        def fail(args):
            print("partial")
            raise cli.PipelineError("degenerate")

        monkeypatch.setitem(cli.COMMANDS, command, fail)
        assert cli.main([command, *argv[command], "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert captured.out == "partial\n"
        assert captured.err == "error: degenerate\n"


class TestIngest:
    def test_round_trip(self, workdir, tmp_path):
        out = tmp_path / "echo.csv"
        res = run_cli("ingest", "--trace", workdir["traces"][0],
                      "--out", str(out))
        assert res.returncode == 0
        assert out.read_bytes() == Path(workdir["traces"][0]).read_bytes()

    def test_malformed_trace_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,thenar_y,heel_y\n0.0,oops,1\n")
        res = run_cli("ingest", "--trace", str(bad), "--out",
                      str(tmp_path / "x.csv"))
        assert res.returncode == 3
        assert "error:" in res.stderr

    def test_plain_text_named_like_a_compressed_file(self, workdir, tmp_path):
        """numpy would decompress a path ending in .gz; ingest reads the
        text the file holds."""
        gz, out = tmp_path / "walk.csv.gz", tmp_path / "out.csv"
        gz.write_bytes(Path(workdir["traces"][0]).read_bytes())
        assert cli.main(["ingest", "--trace", str(gz), "--out", str(out)]) == 0
        assert out.read_bytes() == gz.read_bytes()

    def test_missing_file_exit_5(self, tmp_path):
        res = run_cli("ingest", "--trace", str(tmp_path / "nope.csv"),
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 5

    def test_bad_header_number_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# rate_hz=1000 speed_kmh=abc\nthenar_y,heel_y\n0.1,0.2\n")
        assert cli.main(["ingest", "--trace", str(bad), "--out", str(tmp_path / "x.csv")]) == 3
        assert "speed_kmh" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["t,thenar_y,heel_y\n0.0,0.1,0.2\n0.001,0.3,0.4\n",
                                      "thenar_y,heel_y\n0.1,0.2\n0.3,0.4\n"],
                             ids=["t", "no-t"])
    @pytest.mark.parametrize("header", ["rate_hz=nan", "rate_hz=inf", "rate_hz=0",
                                        "rate_hz=-1000", "rate_hz=1000 speed_kmh=nan",
                                        "rate_hz=1000 speed_kmh=-inf",
                                        "rate_hz=1000 speed_kmh=-3"])
    def test_unusable_header_value_exit_3(self, tmp_path, capsys, header, body):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# {header}\n{body}")
        out = tmp_path / "x.csv"
        assert cli.main(["ingest", "--trace", str(bad), "--out", str(out)]) == 3
        assert header.split()[-1].split("=")[0] in capsys.readouterr().err
        assert not out.exists()


class TestSegmentAndPhases:
    def test_segment_finds_thirty_steps(self, workdir, tmp_path):
        out = tmp_path / "steps.json"
        res = run_cli("segment", "--trace", workdir["traces"][1],
                      "--out", str(out))
        assert res.returncode == 0
        assert len(json.loads(out.read_text())) == 30

    def test_phases_annotates_every_step(self, workdir, tmp_path):
        out = tmp_path / "phases.json"
        res = run_cli("phases", "--trace", workdir["traces"][1],
                      "--out", str(out))
        assert res.returncode == 0
        records = json.loads(out.read_text())
        assert len(records) == 30
        assert all(r["t_step1_peak"] < r["t_step3_peak"] for r in records)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--onset-threshold", "--release-threshold",
                                      "--min-step-s"])
    def test_non_finite_setting_exit_2(self, workdir, tmp_path, capsys, flag, value):
        out = tmp_path / "steps.json"
        assert cli.main(["segment", "--trace", workdir["traces"][1], flag, value,
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["segment", "phases"])
    def test_bad_threshold_exit_2_before_reading_the_trace(self, tmp_path, capsys, command):
        out = tmp_path / "out.json"
        assert cli.main([command, "--trace", str(tmp_path / "missing.csv"),
                         "--onset-threshold", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: thresholds must be positive\n"
        assert not out.exists()


class TestCompile:
    def test_table_has_three_speeds(self, workdir):
        data = json.loads(Path(workdir["table"]).read_text())
        assert [e["speed_kmh"] for e in data["entries"]] == list(KNOT_SPEEDS)
        assert 0 < data["device_scale"] <= 1

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        out = tmp_path / "table2.json"
        res = run_cli("compile", "--traces", *workdir["traces"],
                      "--out", str(out))
        assert res.returncode == 0
        assert out.read_bytes() == Path(workdir["table"]).read_bytes()

    def test_too_few_steps_exit_4(self, tmp_path):
        tr, _ = synthetic_walk(n_steps=5)
        path = tmp_path / "short.csv"
        write_trace(tr, path)
        res = run_cli("compile", "--traces", str(path),
                      "--out", str(tmp_path / "t.json"))
        assert res.returncode == 4

    def test_nan_device_max_force_exit_2(self, workdir, tmp_path):
        cfg = tmp_path / "hapstep.cfg"
        cfg.write_text("device_max_force = nan\n")
        res = run_cli("--config", str(cfg), "compile", "--traces", *workdir["traces"],
                      "--out", str(tmp_path / "t.json"))
        assert res.returncode == 2
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("option", [["--device-max-force", "nan"],
                                        ["--device-max-force", "-1"], ["--first", "0"],
                                        ["--first", "5", "--last", "4"]],
                             ids=["nan-force", "negative-force", "first-0", "last-before-first"])
    def test_bad_option_exit_2_before_reading_a_trace(self, tmp_path, capsys, option):
        out = tmp_path / "t.json"
        assert cli.main(["compile", "--traces", str(tmp_path / "missing.csv"), *option,
                         "--out", str(out)]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("peak,code", [(1.5e308, 4), (1e307, 0)])
    def test_forces_near_float_limit(self, tmp_path, peak, code):
        """A walk whose finite forces average past the float range is
        unusable content: exit 4 with one error line and no numpy warning."""
        tr, _ = synthetic_walk(n_steps=20)
        k = peak / max(np.abs(tr.thenar_y).max(), np.abs(tr.heel_y).max())
        path = tmp_path / "walk.csv"
        write_trace(replace(tr, thenar_y=tr.thenar_y * k, heel_y=tr.heel_y * k), path)
        res = run_cli("compile", "--traces", str(path), "--out", str(tmp_path / "t.json"))
        assert res.returncode == code
        errors = res.stderr.splitlines()
        assert len(errors) == (code != 0)
        assert all(line.startswith("error: ") for line in errors)


    @pytest.mark.parametrize("glitch", [1e6, 1e300, 1e308])
    def test_one_glitched_sample_rejects_its_step(self, workdir, tmp_path, capsys, glitch):
        """One thenar sample at the drive peak of the 2.5 km/h walk's
        7th step: that step is rejected, not the whole table rescaled."""
        walk = load_trace(workdir["traces"][1])
        step = segment_steps(walk)[6]
        at = round((step.start_s + detect_phases(step).t_step3_peak) * walk.sample_rate_hz)
        walk.thenar_y[at] = glitch
        write_trace(walk, tmp_path / "glitched.csv")
        traces = [workdir["traces"][0], str(tmp_path / "glitched.csv"), workdir["traces"][2]]
        assert cli.main(["compile", "--traces", *traces, "--out", str(tmp_path / "t.json")]) == 0
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("step 7 rejected: impulse F=")
        table, clean = (json.loads(Path(p).read_text())
                        for p in (tmp_path / "t.json", workdir["table"]))
        assert table["device_scale"] == clean["device_scale"] == 1.0
        assert [table["entries"][k] for k in (0, 2)] == [clean["entries"][k] for k in (0, 2)]

    @pytest.mark.parametrize("seed", range(10))
    def test_jittered_walks_have_no_impulse_outlier(self, capsys, seed):
        rng = np.random.default_rng(seed)
        for speed in KNOT_SPEEDS:
            walk, _ = synthetic_walk(n_steps=30, speed_kmh=speed, jitter=0.05, rng=rng)
            assert len(cli._trace_to_profiles(walk, SegmentationConfig(), 4, 13)) == 10
        assert capsys.readouterr().err == ""


class TestCalibrate:
    def test_fit_and_save(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("duty,peak_force\n" + "".join(
            f"{d},{3.0 * d + 0.2}\n" for d in (0.37, 0.69, 1.0)))
        out = tmp_path / "fwd.json"
        res = run_cli("calibrate", "--points", str(pts),
                      "--direction", "forward", "--out", str(out))
        assert res.returncode == 0
        curve = json.loads(out.read_text())
        assert curve["slope"] == pytest.approx(3.0, rel=1e-9)
        assert curve["r_squared"] >= 0.99

    def test_bad_header_exit_3(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("volt,force\n0.5,1\n")
        res = run_cli("calibrate", "--points", str(pts),
                      "--direction", "forward",
                      "--out", str(tmp_path / "c.json"))
        assert res.returncode == 3

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_point_exit_3(self, tmp_path, value):
        pts = tmp_path / "pts.csv"
        pts.write_text(f"duty,peak_force\n0.37,1.3\n0.69,{value}\n1.0,3.2\n")
        out = tmp_path / "c.json"
        res = run_cli("calibrate", "--points", str(pts),
                      "--direction", "forward", "--out", str(out))
        assert res.returncode == 3
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["0.37,1.3\n1.5,4.7\n1.0,3.2\n",
                                      "-0.5,0.2\n0.69,2.3\n1.0,3.2\n",
                                      "0.37,1.3\n0.69,-2.4\n1.0,3.2\n",
                                      "1.5,1.2\n2.0,1.8\n-0.5,-2.4\n"],
                             ids=["duty-above-1", "negative-duty", "negative-force", "all"])
    def test_impossible_point_exit_3(self, tmp_path, capsys, rows):
        pts = tmp_path / "pts.csv"
        pts.write_text("duty,peak_force\n" + rows)
        out = tmp_path / "c.json"
        assert cli.main(["calibrate", "--points", str(pts), "--direction", "forward",
                         "--out", str(out)]) == 3
        assert "duty in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["0.4,1.2\n0.9,1.2\n", "0.1,1.0\n0.2,1.0\n0.3,1.0\n",
                                      "0.4,2.7\n0.9,1.2\n"],
                             ids=["flat", "flat-fit-above-0", "falling"])
    def test_no_rising_line_exit_4(self, tmp_path, capsys, rows):
        pts, out = tmp_path / "pts.csv", tmp_path / "c.json"
        pts.write_text("duty,peak_force\n" + rows)
        assert cli.main(["calibrate", "--points", str(pts), "--direction", "forward",
                         "--out", str(out)]) == 4
        assert "fitted slope" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["0.4,1.2\n0.6,1.8\n0.8,1e308\n1.0,3.0\n",
                                      "0.4,1.2\n0.6,1.8\n0.8,2.4\n1.0,1e308\n"],
                             ids=["third", "last"])
    def test_fit_past_the_float_range_exit_4(self, tmp_path, capsys, rows):
        pts, out = tmp_path / "pts.csv", tmp_path / "c.json"
        pts.write_text("duty,peak_force\n" + rows)
        assert cli.main(["calibrate", "--points", str(pts), "--direction", "forward",
                         "--out", str(out)]) == 4
        assert "too large to fit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_points_from_a_pipe(self, tmp_path):
        """/dev/stdin on a pipe is no regular file, which numpy could read
        a second time by its name: the points give the curve they give
        from a file."""
        text = "# bench\nduty,peak_force\n0.37,1.3\n0.69,2.3\n1.0,3.2\n"
        pts, outs = tmp_path / "pts.csv", (tmp_path / "file.json", tmp_path / "pipe.json")
        pts.write_text(text)
        for points, out, stdin in ((str(pts), outs[0], None), ("/dev/stdin", outs[1], text)):
            res = run_cli("calibrate", "--points", points, "--direction", "forward",
                          "--out", str(out), stdin=stdin)
            assert res.returncode == 0, res.stderr
        assert outs[1].read_bytes() == outs[0].read_bytes()


BIG = "1" + "0" * 400


class TestRender:
    def _render(self, workdir, out, stdin=None, extra=()):
        events = "-" if stdin is not None else workdir["events"]
        return run_cli("render", "--events", events,
                       "--table", workdir["table"],
                       "--calib-forward", workdir["fwd"],
                       "--calib-backward", workdir["bwd"],
                       "--out", str(out), *extra, stdin=stdin)

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self._render(workdir, a).returncode == 0
        assert self._render(workdir, b).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdin_matches_file_input(self, workdir, tmp_path):
        a, b = tmp_path / "file.csv", tmp_path / "stdin.csv"
        assert self._render(workdir, a).returncode == 0
        assert self._render(workdir, b, stdin=EVENTS_NDJSON).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_listen_on_port_0_prints_the_port_it_bound(self, workdir, tmp_path):
        """A client reads the port from the listening line, and the events
        it sends render to the bytes of a file render."""
        out, ref = tmp_path / "tcp.csv", tmp_path / "file.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "hapstep.cli", "render", "--listen", "0",
             "--table", workdir["table"], "--calib-forward", workdir["fwd"],
             "--calib-backward", workdir["bwd"], "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = within(30, proc.stderr.readline)
            host, _, port = line.split()[-1].rpartition(":")
            assert line.startswith("listening on ") and host == "127.0.0.1", line
            assert 0 < int(port) <= 65535, line
            with socket.create_connection((host, int(port)), timeout=5) as conn:
                conn.sendall(EVENTS_NDJSON.encode())
                conn.shutdown(socket.SHUT_WR)
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0, err
        assert self._render(workdir, ref).returncode == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_command_log_shape(self, workdir, tmp_path):
        out = tmp_path / "cmd.csv"
        assert self._render(workdir, out).returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,signed_duty"
        duty = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.any(duty < 0) and np.any(duty > 0)

    def _render_stdin(self, workdir, tmp_path, lines, extra=()):
        return subprocess.run(
            [sys.executable, "-m", "hapstep.cli", "render", "--events", "-",
             "--table", workdir["table"], "--calib-forward", workdir["fwd"],
             "--calib-backward", workdir["bwd"], "--out", str(tmp_path / "x.csv"),
             *extra],
            input=lines, capture_output=True, text=True, timeout=30)

    @pytest.mark.parametrize("t, speed", [
        pytest.param("NaN", "2.5", id="NaN"),
        pytest.param("Infinity", "2.5", id="Infinity"),
        pytest.param("-Infinity", "2.5", id="-Infinity"),
        pytest.param("-0.5", "2.5", id="-0.5"),
        pytest.param(BIG, "2.5", id="t-400-digits"),
        pytest.param("0.5", BIG, id="speed-400-digits"),
        pytest.param("1e300", "2.5", id="1e300"),
    ])
    def test_bad_event_time_exit_3(self, workdir, tmp_path, t, speed):
        # without --duration a NaN, infinite or huge time used to tick forever
        res = self._render_stdin(
            workdir, tmp_path, f'{{"t": {t}, "foot": "L", "speed_kmh": {speed}}}\n')
        assert res.returncode == 3
        assert "error:" in res.stderr

    def test_event_gap_bound(self, workdir, tmp_path):
        first = '{"t": 3600.0, "foot": "L", "speed_kmh": 2.5}\n'
        res = self._render_stdin(workdir, tmp_path, first, ("--duration", "0.01"))
        assert res.returncode == 0, res.stderr
        gap = ('{"t": 1.0, "foot": "L", "speed_kmh": 2.5}\n'
               '{"t": 3601.5, "foot": "R", "speed_kmh": 2.5}\n')
        res = self._render_stdin(workdir, tmp_path, gap)
        assert res.returncode == 3
        assert "after the previous" in res.stderr

    @pytest.mark.parametrize("duration", ["nan", "inf", "-1"])
    def test_bad_duration_exit_2(self, workdir, tmp_path, duration):
        res = self._render_stdin(workdir, tmp_path, EVENTS_NDJSON,
                                 ("--duration", duration))
        assert res.returncode == 2
        assert "duration" in res.stderr

    def test_swapped_calibrations_exit_2(self, workdir, tmp_path, capsys):
        assert cli.main(["render", "--events", workdir["events"],
                         "--table", workdir["table"],
                         "--calib-forward", workdir["bwd"],
                         "--calib-backward", workdir["fwd"],
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "calibration files have the wrong directions" in capsys.readouterr().err


class TestVibstep:
    def test_from_command_log(self, workdir, tmp_path):
        cmd = tmp_path / "cmd.csv"
        res = run_cli("render", "--events", workdir["events"],
                      "--table", workdir["table"],
                      "--calib-forward", workdir["fwd"],
                      "--calib-backward", workdir["bwd"], "--out", str(cmd))
        assert res.returncode == 0
        out = tmp_path / "vib.csv"
        res = run_cli("vibstep", "--commands", str(cmd), "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,heel_duty,thenar_duty"
        rows = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
        assert np.all(rows[:, 1] >= 0) and np.all(rows[:, 2] >= 0)
        assert np.any(rows[:, 1] > 0) and np.any(rows[:, 2] > 0)


class TestTimeColumn:
    @pytest.mark.parametrize("case", ["render", "simulate-events", "simulate-bench"])
    def test_every_log_is_on_the_tick_clock(self, workdir, tmp_path, capsys, case):
        """The t column of each 1 kHz log is the tick index / 1000, bit for bit."""
        log, out = tmp_path / "log.csv", tmp_path / "m.json"
        inputs = ["--events", workdir["events"], "--table", workdir["table"],
                  "--calib-forward", workdir["fwd"], "--calib-backward", workdir["bwd"]]
        argv = {"render": ["render", *inputs, "--out", str(log)],
                "simulate-events": ["simulate", *inputs, "--out", str(out),
                                    "--out-log", str(log)],
                "simulate-bench": ["simulate", "--out", str(out), "--out-log", str(log)]}
        assert cli.main(argv[case]) == 0
        t = np.array([float(line.split(",", 1)[0])
                      for line in log.read_text().splitlines()[1:]])
        assert t.tobytes() == (np.arange(len(t)) / 1000).tobytes()

    def test_step_response_of_simulated_bench(self, tmp_path, capsys):
        log, bench, out = tmp_path / "run.csv", tmp_path / "bench.json", tmp_path / "sr.json"
        assert cli.main(["simulate", "--min-duty", "0", "--out", str(bench),
                         "--out-log", str(log)]) == 0
        assert cli.main(["step-response", "--commanded", str(log),
                         "--measured", str(log), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == pytest.approx(json.loads(bench.read_text()))

    @pytest.mark.parametrize("clock", [pytest.param(lambda t: 2 * t, id="500Hz"),
                                       pytest.param(lambda t: t + 0.5, id="offset")])
    def test_commanded_log_on_another_clock_exit_3(self, tmp_path, capsys, clock):
        log, commanded = tmp_path / "run.csv", tmp_path / "cmd.csv"
        out = tmp_path / "sr.json"
        assert cli.main(["simulate", "--min-duty", "0", "--out", str(tmp_path / "m.json"),
                         "--out-log", str(log)]) == 0
        rows = np.loadtxt(log, delimiter=",", skiprows=1)
        np.savetxt(commanded, np.column_stack([clock(rows[:, 0]), rows[:, 1]]),
                   delimiter=",", header="t,signed_duty", comments="")
        assert cli.main(["step-response", "--commanded", str(commanded),
                         "--measured", str(log), "--out", str(out)]) == 3
        assert "not on the measured log's clock" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t", [pytest.param((0, 0, 0), id="constant"),
                                   pytest.param((2, 1, 0), id="decreasing")])
    @pytest.mark.parametrize("command", ["vibstep", "step-response"])
    def test_bad_time_column_exit_3(self, tmp_path, capsys, command, t):
        log = tmp_path / "log.csv"
        log.write_text("t,signed_duty,force\n" + "".join(f"{x},0.5,1.0\n" for x in t))
        inputs = {"vibstep": ["--commands", str(log)],
                  "step-response": ["--commanded", str(log), "--measured", str(log)]}
        out = tmp_path / "out"
        assert cli.main([command, *inputs[command], "--out", str(out)]) == 3
        assert "time column must be strictly increasing" in capsys.readouterr().err
        assert not out.exists()


class TestCommandLogDuty:
    @pytest.mark.parametrize("t, duty", [
        pytest.param("0.001", "nan", id="nan-duty"),
        pytest.param("0.001", "inf", id="inf-duty"),
        pytest.param("0.001", "-inf", id="minus-inf-duty"),
        pytest.param("0.001", "1.0000000000000002", id="duty-over-1"),
        pytest.param("0.001", "-1.5", id="duty-under-minus-1"),
        pytest.param("nan", "0.5", id="nan-t"),
        pytest.param("inf", "0.5", id="inf-t"),
    ])
    @pytest.mark.parametrize("command", ["vibstep", "step-response"])
    def test_impossible_value_exit_3(self, tmp_path, capsys, command, t, duty):
        log = tmp_path / "log.csv"
        log.write_text(f"t,signed_duty,force\n0.0,-1.0,0.0\n{t},{duty},1.0\n"
                       "0.002,1.0,0.5\n0.003,0.0,0.0\n")
        inputs = {"vibstep": ["--commands", str(log)],
                  "step-response": ["--commanded", str(log), "--measured", str(log)]}
        out = tmp_path / "out"
        assert cli.main([command, *inputs[command], "--out", str(out)]) == 3
        assert "signed_duty in [-1, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_full_duty_accepted(self, tmp_path):
        log, out = tmp_path / "log.csv", tmp_path / "vib.csv"
        log.write_text("t,signed_duty\n0.0,-1.0\n0.001,1.0\n0.002,0.0\n")
        assert cli.main(["vibstep", "--commands", str(log), "--out", str(out)]) == 0
        assert out.read_text() == "t,heel_duty,thenar_duty\n0.0,1.0,0.0\n" \
                                  "0.001,0.0,1.0\n0.002,0.0,0.0\n"


class TestMeasuredForce:
    @pytest.mark.parametrize("force", ["nan", "inf", "-inf"])
    def test_non_finite_force_exit_3(self, tmp_path, capsys, force):
        log, out = tmp_path / "log.csv", tmp_path / "sr.json"
        log.write_text(f"t,signed_duty,force\n0.0,-1.0,0.0\n0.001,0.0,{force}\n"
                       "0.002,1.0,0.5\n0.003,0.0,0.0\n")
        assert cli.main(["step-response", "--commanded", str(log),
                         "--measured", str(log), "--out", str(out)]) == 3
        assert f"{log}: force must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_bench_metrics(self, tmp_path):
        out = tmp_path / "metrics.json"
        res = run_cli("simulate", "--min-duty", "0", "--out", str(out))
        assert res.returncode == 0
        metrics = json.loads(out.read_text())
        assert metrics["rise_s"] == pytest.approx(0.1, abs=0.03)
        assert metrics["rise_10_90_s"] == pytest.approx(0.110, abs=0.005)

    def test_closed_loop_with_log(self, workdir, tmp_path):
        out = tmp_path / "metrics.json"
        log = tmp_path / "run.csv"
        res = run_cli("simulate", "--events", workdir["events"],
                      "--table", workdir["table"],
                      "--calib-forward", workdir["fwd"],
                      "--calib-backward", workdir["bwd"],
                      "--out", str(out), "--out-log", str(log))
        assert res.returncode == 0
        metrics = json.loads(out.read_text())
        assert metrics["n_steps"] == 3
        assert log.read_text().startswith("t,signed_duty,force")

    def test_closed_loop_log_renders_what_render_renders(self, workdir, tmp_path):
        """With fitted curves (non-zero intercepts, the 95/255 floor) and
        events that preempt and replace envelopes, the closed-loop log's
        t,signed_duty columns are render's log on every tick it has, and
        run 10 tau_s longer."""
        fwd, bwd, events = (tmp_path / n for n in ("fwd.json", "bwd.json", "events.ndjson"))
        for curve, path in zip(fitted_curves(), (fwd, bwd)):
            save_curve(curve, path)
        # the second event preempts the first envelope, which lasts longer
        # than 0.3 s; the fourth replaces the third before its start tick
        events.write_text("".join(event_line(t, speed) for t, speed in
                                  [(0.05, 1.0), (0.35, 2.5), (1.9005, 4.0), (1.9008, 1.7)]))
        assert interpolate(load_table(workdir["table"]), 1.0).duration_s > 0.3
        common = ["--events", str(events), "--table", workdir["table"],
                  "--calib-forward", str(fwd), "--calib-backward", str(bwd)]
        commands, log = tmp_path / "commands.csv", tmp_path / "run.csv"
        res = run_cli("render", *common, "--out", str(commands))
        assert res.returncode == 0, res.stderr
        res = run_cli("simulate", *common, "--tau-s", "0.02",
                      "--out", str(tmp_path / "m.json"), "--out-log", str(log))
        assert res.returncode == 0, res.stderr
        rendered = commands.read_text().splitlines()
        simulated = log.read_text().splitlines()
        assert simulated[0].startswith(rendered[0] + ",")
        head = [",".join(line.split(",")[:2]) for line in simulated[1:len(rendered)]]
        assert head == rendered[1:]
        assert len(simulated) - len(rendered) == 10 * 20

    def test_unordered_events_exit_4(self, workdir, tmp_path):
        events = tmp_path / "unordered.ndjson"
        events.write_text('{"t": 1.4, "foot": "R", "speed_kmh": 2.5}\n'
                          '{"t": 0.05, "foot": "L", "speed_kmh": 1.0}\n')
        res = run_cli("simulate", "--events", str(events),
                      "--table", workdir["table"],
                      "--out", str(tmp_path / "m.json"))
        assert res.returncode == 4

    def test_nan_tau_exit_2(self, tmp_path):
        res = run_cli("simulate", "--tau-s", "nan", "--out", str(tmp_path / "m.json"))
        assert res.returncode == 2
        assert "tau_s" in res.stderr

    @pytest.mark.parametrize("tau", ["1e300", "8640.5"])
    def test_closed_loop_tau_past_the_run_bound_exit_2(self, workdir, tmp_path, capsys, tau):
        """The closed loop runs 10 tau_s past the last envelope, so tau_s
        is at most MAX_RUN_S / 10 s; the message names tau_s and its bound."""
        out = tmp_path / "m.json"
        assert cli.main(["simulate", "--events", workdir["events"], "--table",
                         workdir["table"], "--tau-s", tau, "--out", str(out)]) == 2
        assert "tau_s must be at most 8640 s for a closed-loop run" in capsys.readouterr().err
        assert not out.exists()

    def test_events_without_table_exit_2(self, workdir, tmp_path, capsys):
        assert cli.main(["simulate", "--events", workdir["events"],
                         "--out", str(tmp_path / "m.json")]) == 2
        assert "needs both --events and --table" in capsys.readouterr().err

    def test_table_without_events_exit_2(self, workdir, tmp_path, capsys):
        """Not the bench step test, which runs with neither."""
        out = tmp_path / "m.json"
        assert cli.main(["simulate", "--table", workdir["table"], "--out", str(out)]) == 2
        assert "needs both --events and --table" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, key", [("--calib-forward", "fwd"),
                                           ("--calib-backward", "bwd")])
    def test_one_calibration_file_exit_2(self, workdir, tmp_path, capsys, flag, key):
        """A lone curve is refused, not replaced by the default curves."""
        assert cli.main(["simulate", "--events", workdir["events"],
                         "--table", workdir["table"], flag, workdir[key],
                         "--out", str(tmp_path / "m.json")]) == 2
        assert "--calib-forward and --calib-backward" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_min_duty_flag_with_calibration_files_exit_2(self, workdir, tmp_path, capsys):
        """The curve files carry their own floor, so the flag is refused;
        a config file's min_duty, shared by every subcommand, is not."""
        inputs = ["--events", workdir["events"], "--table", workdir["table"],
                  "--calib-forward", workdir["fwd"], "--calib-backward", workdir["bwd"]]
        out = tmp_path / "m.json"
        assert cli.main(["simulate", *inputs, "--min-duty", "0.9", "--out", str(out)]) == 2
        assert "--min-duty" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "hapstep.cfg"
        cfg.write_text("min_duty = 0.9\n")
        assert cli.main(["--config", str(cfg), "simulate", *inputs, "--out", str(out)]) == 0


class TestFilesClosed:
    def test_render_and_simulate_close_the_events_file(self, workdir, tmp_path, capsys):
        inputs = ["--events", workdir["events"], "--table", workdir["table"],
                  "--calib-forward", workdir["fwd"], "--calib-backward", workdir["bwd"]]
        with no_unclosed_files():
            assert cli.main(["render", *inputs, "--out", str(tmp_path / "c.csv")]) == 0
            assert cli.main(["simulate", *inputs, "--out", str(tmp_path / "m.json")]) == 0


class TestNormalize:
    def test_happy_path(self, tmp_path):
        scores = tmp_path / "scores.csv"
        rows = [f"p1,realism,{s},{v},{10 * i}"
                for i, (s, v) in enumerate(
                    (s, v) for s in ("none", "vibration", "friction")
                    for v in (1.0, 2.5, 4.0))]
        scores.write_text("participant,item,stimulus,speed_kmh,score\n"
                          + "\n".join(rows) + "\n")
        out = tmp_path / "norm.csv"
        res = run_cli("normalize", "--scores", str(scores), "--out", str(out))
        assert res.returncode == 0
        assert out.read_text().splitlines()[0].endswith(",normalized")

    @pytest.mark.parametrize("speed", ["5.0", "nan"])
    def test_unknown_speed_exit_3(self, tmp_path, capsys, speed):
        scores = tmp_path / "scores.csv"
        rows = [f"p1,realism,{s},{v},{10 * i}"
                for i, (s, v) in enumerate(
                    (s, v) for s in ("none", "vibration", "friction")
                    for v in (1.0, 2.5, 4.0))]
        rows.append(f"p1,realism,none,{speed},50")  # a full grid plus one cell
        scores.write_text("participant,item,stimulus,speed_kmh,score\n"
                          + "\n".join(rows) + "\n")
        assert cli.main(["normalize", "--scores", str(scores),
                         "--out", str(tmp_path / "n.csv")]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_output_reads_back_with_quoted_names(self, tmp_path):
        """A participant holding a comma and an item holding a quote are
        written quoted, so normalize reads its own output to the same scores."""
        scores = tmp_path / "scores.csv"
        rows = [f'"p,1","say ""hi""",{s},{v},{10 * i}'
                for i, (s, v) in enumerate(
                    (s, v) for s in ("none", "vibration", "friction")
                    for v in (1.0, 2.5, 4.0))]
        scores.write_text("participant,item,stimulus,speed_kmh,score\n"
                          + "\n".join(rows) + "\n")
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        assert cli.main(["normalize", "--scores", str(scores), "--out", str(once)]) == 0
        assert cli.main(["normalize", "--scores", str(once), "--out", str(twice)]) == 0
        raw = read_scores(str(scores))
        assert {(p, i) for p in raw for i in raw[p]} == {("p,1", 'say "hi"')}
        assert read_scores(str(once)) == raw
        assert twice.read_bytes() == once.read_bytes()

    def test_repeated_cell_exit_3(self, tmp_path, capsys):
        """A second score for one cell is refused, not kept in place of
        the first, and the error names both lines."""
        scores, out = tmp_path / "scores.csv", tmp_path / "n.csv"
        rows = [f"p1,realism,{s},{v},{10 * i}"
                for i, (s, v) in enumerate(
                    (s, v) for s in ("none", "vibration", "friction")
                    for v in (1.0, 2.5, 4.0))]
        rows.append("p1,realism,vibration,2.50,70")  # the cell of line 6
        scores.write_text("participant,item,stimulus,speed_kmh,score\n"
                          + "\n".join(rows) + "\n")
        assert cli.main(["normalize", "--scores", str(scores), "--out", str(out)]) == 3
        assert "line 11: repeats the cell of line 6" in capsys.readouterr().err
        assert not out.exists()

    def test_incomplete_grid_exit_3(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("participant,item,stimulus,speed_kmh,score\n"
                          "p1,realism,none,1.0,50\n")
        res = run_cli("normalize", "--scores", str(scores),
                      "--out", str(tmp_path / "n.csv"))
        assert res.returncode == 3


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, workdir, tmp_path):
        cfg = tmp_path / "hapstep.cfg"
        cfg.write_text("min_step_s = 0.2  # keep default\nfirst = 4\nlast = 13\n")
        out = tmp_path / "steps.json"
        res = run_cli("--config", str(cfg), "segment",
                      "--trace", workdir["traces"][0], "--out", str(out))
        assert res.returncode == 0

    def test_unknown_key_exit_2(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "hapstep.cfg"
        cfg.write_text("warp_speed=9\n")
        assert cli.main(["--config", str(cfg), "segment",
                         "--trace", workdir["traces"][0],
                         "--out", str(tmp_path / "s.json")]) == 2
        assert "unknown key 'warp_speed'" in capsys.readouterr().err

    def test_key_given_twice_exit_2(self, workdir, tmp_path, capsys):
        """Neither value wins: the file is refused, naming both lines."""
        cfg, out = tmp_path / "hapstep.cfg", tmp_path / "s.json"
        cfg.write_text("first = 3\n# the study's own\nlast = 13\nfirst = 5\n")
        assert cli.main(["--config", str(cfg), "segment",
                         "--trace", workdir["traces"][0], "--out", str(out)]) == 2
        assert capsys.readouterr().err \
            == f"error: {cfg}:4: key 'first' given twice (first on line 1)\n"
        assert not out.exists()


def event_line(t, speed=2.5):
    return f'{{"t": {t!r}, "foot": "L", "speed_kmh": {speed!r}}}\n'


def render_in_process(workdir, tmp_path, monkeypatch, text, source, *extra):
    """Exit code of ``render`` run in this process on ``text`` read from
    a file or from stdin."""
    if source == "file":
        events = tmp_path / "in.ndjson"
        events.write_text(text)
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        events = "-"
    return cli.main(["render", "--events", str(events), "--table", workdir["table"],
                     "--calib-forward", workdir["fwd"], "--calib-backward", workdir["bwd"],
                     "--out", str(tmp_path / "out.csv"), *extra])


def test_file_render_writes_full_blocks(workdir, tmp_path, monkeypatch):
    """A file's log is written in blocks of WRITE_ROWS ticks, however
    many events end the renderer's blocks, with the bytes stdin writes
    a block per event."""
    written, rows = [], textio._rows
    monkeypatch.setattr(textio, "_rows", lambda cols: written.append(len(cols[0])) or rows(cols))
    text = "".join(event_line(0.9 * k, (1.0, 2.5, 4.0)[k % 3]) for k in range(14))
    outputs, blocks = [], []
    for source in ("file", "stdin"):
        written.clear()
        assert render_in_process(workdir, tmp_path, monkeypatch, text, source) == 0
        outputs.append((tmp_path / "out.csv").read_bytes())
        assert sum(written) == outputs[-1].count(b"\n") - 1
        blocks.append(len(written))
    assert outputs[0] == outputs[1]
    assert blocks[0] <= math.ceil(sum(written) / textio.WRITE_ROWS) < 14 <= blocks[1]


@pytest.mark.parametrize("bad, code, message", [
    pytest.param(11.7 + 3600.5, 3, "more than 3600 s after the previous one", id="gap"),
    pytest.param(11.0, 4, "before the last event", id="unordered"),
])
def test_file_render_failing_on_an_event_keeps_its_full_blocks(
        workdir, tmp_path, monkeypatch, capsys, bad, code, message):
    """A file render that fails on an event has written the full blocks
    before the block where the event before it applies, and no more:
    two blocks of 4,096 ticks when the last good event is at 11.7 s."""
    good = "".join(event_line(0.9 * k, (1.0, 2.5, 4.0)[k % 3]) for k in range(14))
    assert render_in_process(workdir, tmp_path, monkeypatch, good, "file") == 0
    whole = (tmp_path / "out.csv").read_bytes().splitlines(keepends=True)
    capsys.readouterr()
    assert render_in_process(workdir, tmp_path, monkeypatch, good + event_line(bad), "file") == code
    assert message in capsys.readouterr().err
    full = 11_700 // textio.WRITE_ROWS * textio.WRITE_ROWS
    assert full == 8192
    assert (tmp_path / "out.csv").read_bytes() == b"".join(whole[:1 + full])


@pytest.mark.parametrize("command, inputs, body, code, message", [
    pytest.param("ingest", ["--trace"], "t,thenar_y,heel_y\n", 3,
                 "trace file has no data rows", id="header-only-trace"),
    pytest.param("step-response", ["--commanded", "--measured"],
                 "t,signed_duty,force\n0,0,0\n0.001,0,0\n0.002,0,0\n", 4,
                 "expected one command pulse per direction", id="all-zero-commands"),
])
def test_failure_exit_code_and_message(tmp_path, capsys, command, inputs, body, code, message):
    log, out = tmp_path / "log.csv", tmp_path / "out"
    log.write_text(body)
    argv = [arg for flag in inputs for arg in (flag, str(log))]
    assert cli.main([command, *argv, "--out", str(out)]) == code
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


class TestRunBound:
    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("duration", [1e300, math.nextafter(renderer.MAX_RUN_S, math.inf)])
    def test_duration_over_max_run_exit_2(self, workdir, tmp_path, monkeypatch, capsys,
                                          source, duration):
        rc = render_in_process(workdir, tmp_path, monkeypatch, EVENTS_NDJSON, source,
                               "--duration", repr(duration))
        assert rc == 2
        assert "duration" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_duration_at_max_run_renders(self, workdir, tmp_path, monkeypatch, source):
        monkeypatch.setattr(renderer, "MAX_RUN_S", 2.0)
        text = event_line(0.05) + event_line(1.4) + event_line(2.0)
        assert render_in_process(workdir, tmp_path, monkeypatch, text, source,
                                 "--duration", "2.0") == 0
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 2001
        assert render_in_process(workdir, tmp_path, monkeypatch, text, source,
                                 "--duration", repr(math.nextafter(2.0, 3.0))) == 2

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_event_past_max_run_exit_3(self, workdir, tmp_path, monkeypatch, capsys, source):
        monkeypatch.setattr(renderer, "MAX_RUN_S", 2.0)
        text = event_line(0.1) + event_line(1.0) + event_line(2.5)
        assert render_in_process(workdir, tmp_path, monkeypatch, text, source) == 3
        assert "later than 2 s" in capsys.readouterr().err
        # with --duration 0.5 the stream stops after pulling the event at
        # 1.0, so the one past the bound is never read
        assert render_in_process(workdir, tmp_path, monkeypatch, text, source,
                                 "--duration", "0.5") == 0

    def test_simulate_event_past_max_run_exit_3(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setattr(renderer, "MAX_RUN_S", 2.0)
        events = tmp_path / "late.ndjson"
        events.write_text(event_line(0.1) + event_line(2.5))
        assert cli.main(["simulate", "--events", str(events), "--table", workdir["table"],
                         "--out", str(tmp_path / "m.json")]) == 3

    @pytest.mark.parametrize("tau, code", [("1e308", 2), ("0.3", 2), ("0.1", 0)])
    def test_simulate_tail_over_max_run_exit_2(self, workdir, tmp_path, monkeypatch, tau, code):
        """The closed loop runs 10 tau past the last envelope: a tail past
        MAX_RUN_S exits 2 (1e308 s overflows to an infinite tail)."""
        monkeypatch.setattr(renderer, "MAX_RUN_S", 2.0)
        events = tmp_path / "one.ndjson"
        events.write_text(event_line(0.1))
        assert cli.main(["simulate", "--events", str(events), "--table", workdir["table"],
                         "--tau-s", tau, "--out", str(tmp_path / "m.json")]) == code


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("line", [
    pytest.param('{"t": true, "foot": "L", "speed_kmh": 1}\n', id="t"),
    pytest.param('{"t": 0.1, "foot": "L", "speed_kmh": false}\n', id="speed_kmh"),
])
def test_boolean_event_number_exit_3(workdir, tmp_path, monkeypatch, capsys, source, line):
    assert render_in_process(workdir, tmp_path, monkeypatch, line, source) == 3
    assert "expected a number" in capsys.readouterr().err


class TestSourcesAgree:
    """A file and stdin run the same block composer and read the same
    events, so a bad line right after --duration fails both or neither."""

    @pytest.mark.parametrize("tail, code", [
        pytest.param("{not json\n", 3, id="bad-lookahead"),
        pytest.param(event_line(0.2), 4, id="unordered-lookahead"),
        pytest.param(event_line(0.9) + "{not json\n", 0, id="bad-after-lookahead"),
        pytest.param(event_line(0.9) + event_line(0.2), 0, id="unordered-after-lookahead"),
    ])
    def test_same_exit_code_from_file_and_stdin(self, workdir, tmp_path, monkeypatch,
                                                tail, code):
        text = event_line(0.1) + event_line(0.45, 1.0) + tail
        outputs = []
        for source in ("file", "stdin"):
            assert render_in_process(workdir, tmp_path, monkeypatch, text, source,
                                     "--duration", "0.5") == code
            outputs.append((tmp_path / "out.csv").read_bytes() if code == 0 else None)
        assert outputs[0] == outputs[1]


def test_stdin_ticks_are_written_before_the_next_pull(workdir, tmp_path, monkeypatch):
    """stdin's log is written a block at a time, each block before the next
    event is read: when reading the third event fails, the 1,000 ticks
    before the second event are in the log."""
    def stalled():
        yield event_line(0.0)
        yield event_line(1.0)
        raise TimeoutError("timed out")

    monkeypatch.setattr(sys, "stdin", stalled())
    assert cli.main(["render", "--events", "-", "--table", workdir["table"],
                     "--calib-forward", workdir["fwd"], "--calib-backward", workdir["bwd"],
                     "--out", str(tmp_path / "out.csv")]) == 5
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 1 + 1000


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestListenTimeout:
    def _render(self, workdir, tmp_path, port):
        return cli.main(["render", "--listen", str(port), "--table", workdir["table"],
                         "--calib-forward", workdir["fwd"], "--calib-backward", workdir["bwd"],
                         "--out", str(tmp_path / "out.csv")])

    @pytest.mark.parametrize("port", [-1, 65536, 99999])
    def test_port_out_of_range_exit_2(self, workdir, tmp_path, capsys, port):
        assert self._render(workdir, tmp_path, port) == 2
        assert "port must be in 0-65535" in capsys.readouterr().err

    def test_no_client_exit_5(self, workdir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "LISTEN_TIMEOUT_S", 0.2)
        assert within(1.5, self._render, workdir, tmp_path, 0) == 5
        assert "timed out" in capsys.readouterr().err

    def test_silent_client_exit_5(self, workdir, tmp_path, monkeypatch):
        """A client that sends one event and then nothing."""
        monkeypatch.setattr(cli, "LISTEN_TIMEOUT_S", 0.2)
        port, result = free_port(), []
        server = threading.Thread(
            target=lambda: result.append(self._render(workdir, tmp_path, port)), daemon=True)
        server.start()
        deadline = time.monotonic() + 5
        while True:
            try:
                conn = socket.create_connection(("127.0.0.1", port), timeout=1)
                break
            except OSError:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        with conn:
            conn.sendall(event_line(0.0).encode())
            server.join(2.0)
        assert result == [5]
