import json
import subprocess
import sys

import numpy as np
import pytest

from hapstep import cli
from hapstep.calibration import save_curve
from hapstep.synthetic import synthetic_walk
from hapstep.trace import write_trace

from conftest import KNOT_SPEEDS, make_curve, no_unclosed_files

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


class TestIngest:
    def test_round_trip(self, workdir, tmp_path):
        out = tmp_path / "echo.csv"
        res = run_cli("ingest", "--trace", workdir["traces"][0],
                      "--out", str(out))
        assert res.returncode == 0
        assert out.read_bytes() == open(workdir["traces"][0], "rb").read()

    def test_malformed_trace_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,thenar_y,heel_y\n0.0,oops,1\n")
        res = run_cli("ingest", "--trace", str(bad), "--out",
                      str(tmp_path / "x.csv"))
        assert res.returncode == 3
        assert "error:" in res.stderr

    def test_missing_file_exit_5(self, tmp_path):
        res = run_cli("ingest", "--trace", str(tmp_path / "nope.csv"),
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 5


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


class TestCompile:
    def test_table_has_three_speeds(self, workdir):
        data = json.loads(open(workdir["table"]).read())
        assert [e["speed_kmh"] for e in data["entries"]] == list(KNOT_SPEEDS)
        assert 0 < data["device_scale"] <= 1

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        out = tmp_path / "table2.json"
        res = run_cli("compile", "--traces", *workdir["traces"],
                      "--out", str(out))
        assert res.returncode == 0
        assert out.read_bytes() == open(workdir["table"], "rb").read()

    def test_too_few_steps_exit_4(self, tmp_path):
        tr, _ = synthetic_walk(n_steps=5)
        path = tmp_path / "short.csv"
        write_trace(tr, path)
        res = run_cli("compile", "--traces", str(path),
                      "--out", str(tmp_path / "t.json"))
        assert res.returncode == 4


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

    def test_command_log_shape(self, workdir, tmp_path):
        out = tmp_path / "cmd.csv"
        assert self._render(workdir, out).returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,signed_duty"
        duty = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.any(duty < 0) and np.any(duty > 0)

    @pytest.mark.parametrize("t", ["NaN", "Infinity", "-Infinity", "-0.5"])
    def test_bad_event_time_exit_3(self, workdir, tmp_path, t):
        # without --duration a NaN or infinite time used to tick forever
        res = subprocess.run(
            [sys.executable, "-m", "hapstep.cli", "render", "--events", "-",
             "--table", workdir["table"], "--calib-forward", workdir["fwd"],
             "--calib-backward", workdir["bwd"], "--out", str(tmp_path / "x.csv")],
            input=f'{{"t": {t}, "foot": "L", "speed_kmh": 2.5}}\n',
            capture_output=True, text=True, timeout=30)
        assert res.returncode == 3
        assert "error:" in res.stderr

    def test_swapped_calibrations_exit_2(self, workdir, tmp_path):
        res = run_cli("render", "--events", workdir["events"],
                      "--table", workdir["table"],
                      "--calib-forward", workdir["bwd"],
                      "--calib-backward", workdir["fwd"],
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2


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
                      "--min-duty", "0",
                      "--out", str(out), "--out-log", str(log))
        assert res.returncode == 0
        metrics = json.loads(out.read_text())
        assert metrics["n_steps"] == 3
        assert log.read_text().startswith("t,signed_duty,force")

    def test_unordered_events_exit_4(self, workdir, tmp_path):
        events = tmp_path / "unordered.ndjson"
        events.write_text('{"t": 1.4, "foot": "R", "speed_kmh": 2.5}\n'
                          '{"t": 0.05, "foot": "L", "speed_kmh": 1.0}\n')
        res = run_cli("simulate", "--events", str(events),
                      "--table", workdir["table"],
                      "--out", str(tmp_path / "m.json"))
        assert res.returncode == 4

    def test_events_without_table_exit_2(self, workdir, tmp_path):
        res = run_cli("simulate", "--events", workdir["events"],
                      "--out", str(tmp_path / "m.json"))
        assert res.returncode == 2


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

    def test_unknown_key_exit_2(self, workdir, tmp_path):
        cfg = tmp_path / "hapstep.cfg"
        cfg.write_text("warp_speed=9\n")
        res = run_cli("--config", str(cfg), "segment",
                      "--trace", workdir["traces"][0],
                      "--out", str(tmp_path / "s.json"))
        assert res.returncode == 2
