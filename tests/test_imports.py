"""What a fresh process loads: ``import hapstep`` loads no submodule,
the CLI's set-up path (import the CLI, load a table and
both curves) loads none of the modules only other subcommands run,
``calibrate`` loads no profiles module, and ``--help`` or a usage error
loads no numpy.  Also: every name the per-layer benchmark wraps still
resolves."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from hapstep import calibration, cli, plant, renderer, segmentation

from conftest import make_curve

#: modules that loading a table and curves has no use for
NOT_ON_SETUP = ("hapstep.renderer", "hapstep.plant", "hapstep.scores",
                "hapstep.segmentation", "hapstep.trace", "hapstep.synthetic", "socket")

_SETUP = """
import json, sys
import hapstep.cli
from hapstep import calibration, profiles
profiles.load_table(sys.argv[1])
calibration.load_curve(sys.argv[2])
calibration.load_curve(sys.argv[3])
print(json.dumps(sorted(sys.modules)))
"""

_MAIN = """
import contextlib, io, json, sys
from hapstep import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)))
"""


def _fresh(code, *argv):
    """sys.modules of a fresh interpreter after ``code``, which prints it."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stdout))


def test_setup_loads_only_what_it_runs(tmp_path, knot_table):
    paths = [tmp_path / "table.json", tmp_path / "fwd.json", tmp_path / "bwd.json"]
    paths[0].write_text(json.dumps(asdict(knot_table)))
    for path, direction in zip(paths[1:], ("forward", "backward")):
        path.write_text(json.dumps(asdict(make_curve(direction, min_duty=0.2))))
    loaded = _fresh(_SETUP, *map(str, paths))
    assert {"hapstep.cli", "hapstep.profiles", "hapstep.calibration"} <= loaded
    assert loaded.isdisjoint(NOT_ON_SETUP), sorted(loaded & set(NOT_ON_SETUP))


@pytest.mark.parametrize("argv", [["--help"], ["ingest", "--bogus"]],
                         ids=["help", "usage-error"])
def test_help_and_usage_errors_load_no_numpy(argv):
    loaded = _fresh(_MAIN, *argv)
    assert "hapstep.cli" in loaded
    assert loaded.isdisjoint({"numpy", "hapstep.textio"}), sorted(loaded)


def test_calibrate_loads_only_what_it_runs(tmp_path):
    points, out = tmp_path / "points.csv", tmp_path / "curve.json"
    points.write_text("duty,peak_force\n0.4,1.2\n0.9,2.7\n")
    loaded = _fresh(_MAIN, "calibrate", "--points", str(points),
                    "--direction", "forward", "--out", str(out))
    assert calibration.load_curve(out).slope == pytest.approx(3.0)
    assert {m for m in loaded if m.startswith("hapstep.")} \
        == {"hapstep.cli", "hapstep.errors", "hapstep.textio", "hapstep.calibration"}


def test_import_hapstep_loads_no_submodule():
    loaded = _fresh("import json, sys, hapstep; print(json.dumps(sorted(sys.modules)))")
    assert not [m for m in loaded if m.startswith("hapstep.")]


def test_cli_constants_match_their_modules():
    """cli copies these so that importing it loads neither module."""
    assert cli.LISTEN_TIMEOUT_S == renderer.MAX_EVENT_GAP_S
    assert cli.DEFAULTS["min_duty"] == calibration.DEFAULT_MIN_DUTY
    assert cli.DEFAULTS["tau_s"] == plant.DEFAULT_TAU_S
    seg = segmentation.SegmentationConfig()
    for key in ("onset_threshold", "release_threshold", "min_step_s"):
        assert cli.DEFAULTS[key] == getattr(seg, key), key
    middle = inspect.signature(segmentation.select_middle).parameters
    assert cli.DEFAULTS["first"] == middle["first"].default
    assert cli.DEFAULTS["last"] == middle["last"].default
    assert cli.DEFAULTS["max_force"] == plant.PlateModel.max_force


def test_benchmark_tracer_names_resolve():
    """benchmarks/spans.py wraps these module attributes and methods by
    name; a rename in src/ would otherwise surface only in a traced run."""
    path = Path(__file__).parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for modname, attr, _, kind, _ in spans.LAYER_FUNCTIONS:
        owner = importlib.import_module(modname)
        if kind == "method":
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), f"{modname}.{attr}"
