"""Command-line surface for the pipeline.

One subcommand per pipeline stage; every subcommand is pure in its
inputs, so re-running with unchanged inputs reproduces artifacts
byte-for-byte.  Options may come from a key=value config file
(``--config``); explicit flags win over the file.

Start-up: each subcommand imports the modules it runs when it runs, so
a fresh process loads only those (``render --listen`` alone loads
``socket``), and none loads ``numpy.ma``.  Importing this module loads
only ``errors``, so ``--help`` and usage errors load no numpy.  A call
builds the argument parser of its own subcommand alone; ``-h``,
``--config=FILE`` and an argv naming no subcommand get the parser of
every subcommand.

Exit codes: 0 ok, 2 usage/config, 3 malformed input, 4 pipeline
degenerate, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .errors import (
    ConfigError,
    FormatError,
    HapstepError,
    IOFailureError,
    PipelineError,
)

# The values below copy constants of modules this one does not import
# until a subcommand runs; tests/test_imports.py checks that they agree.

#: --listen waits this long for the connection and for each event line
#: (renderer.MAX_EVENT_GAP_S)
LISTEN_TIMEOUT_S = 3600.0

#: the subcommands, in the order the parser lists them
COMMANDS = ("ingest", "segment", "phases", "compile", "calibrate", "step-response",
            "render", "vibstep", "simulate", "normalize")

DEFAULTS = {
    "onset_threshold": 0.3,
    "release_threshold": 0.1,
    "min_step_s": 0.2,
    "first": 4,
    "last": 13,
    "device_max_force": 3.0,
    "min_duty": 95.0 / 255.0,  # calibration.DEFAULT_MIN_DUTY
    "tau_s": 0.05,  # plant.DEFAULT_TAU_S
    "max_force": 20.0,
}


def read_config(path: str) -> dict:
    """Parse a key=value config file ('#' starts a comment), each key
    given at most once."""
    out, seen = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: key {key!r} given twice "
                                  f"(first on line {seen[key]})")
            seen[key] = lineno
            try:
                out[key] = type(DEFAULTS[key])(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}") from None
    return out


def resolve(args, key):
    """Flag > config file > built-in default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if getattr(args, "_config", None) and key in args._config:
        return args._config[key]
    return DEFAULTS[key]


def _seg_config(args):
    from . import segmentation

    return segmentation.SegmentationConfig(
        onset_threshold=resolve(args, "onset_threshold"),
        release_threshold=resolve(args, "release_threshold"),
        min_step_s=resolve(args, "min_step_s"),
    )


def cmd_ingest(args) -> int:
    from . import trace

    tr = trace.load_trace(args.trace)
    trace.write_trace(tr, args.out)
    print(f"ingested {len(tr)} samples at {tr.sample_rate_hz:g} Hz "
          f"(speed {tr.speed_kmh:g} km/h, participant {tr.participant}) -> {args.out}")
    return 0


def cmd_segment(args) -> int:
    from . import segmentation, textio, trace

    tr = trace.load_trace(args.trace)
    segs = segmentation.segment_steps(tr, _seg_config(args))
    data = [{"index_in_walk": s.index_in_walk, "start_s": s.start_s,
             "duration_s": s.trace.duration_s} for s in segs]
    textio.write_json(args.out, data)
    print(f"{len(segs)} steps -> {args.out}")
    return 0


def _phased_steps(segs):
    """(segment, phases) of each step with a brake/drive pattern; the
    other steps are reported on stderr and skipped."""
    from . import segmentation

    for s in segs:
        try:
            ph = segmentation.detect_phases(s)
        except PipelineError as exc:
            print(f"step {s.index_in_walk} rejected: {exc}", file=sys.stderr)
            continue
        yield s, ph


def cmd_phases(args) -> int:
    from . import segmentation, textio, trace

    tr = trace.load_trace(args.trace)
    segs = segmentation.segment_steps(tr, _seg_config(args))
    annotated = [{**vars(ph), "step_index": s.index_in_walk}
                 for s, ph in _phased_steps(segs)]
    textio.write_json(args.out, annotated)
    print(f"{len(annotated)}/{len(segs)} steps annotated -> {args.out}")
    return 0


def _trace_to_profiles(tr, cfg, first, last):
    """Steady-window per-step friction profiles of one walk."""
    from . import segmentation

    segs = segmentation.select_middle(
        segmentation.segment_steps(tr, cfg), first, last)
    out = [segmentation.combine_channels(s, ph) for s, ph in _phased_steps(segs)]
    if not out:
        raise PipelineError("no usable steps in trace")
    return out


def cmd_compile(args) -> int:
    from . import profiles, trace

    cfg = _seg_config(args)
    first = resolve(args, "first")
    last = resolve(args, "last")
    device_max_force = resolve(args, "device_max_force")
    # checked before any trace is read, as select_middle and
    # fit_device_scale check them only once traces are loaded
    if not 1 <= first <= last:
        raise ConfigError("require 1 <= first <= last")
    if not device_max_force > 0:
        raise ConfigError("device_max_force must be positive")

    by_speed: dict[float, list] = {}
    for path in args.traces:
        tr = trace.load_trace(path)
        steps = _trace_to_profiles(tr, cfg, first, last)
        # one representative profile per participant and speed
        participant_profile = profiles.average_profiles(
            profiles.align_durations(steps))
        by_speed.setdefault(tr.speed_kmh, []).append(participant_profile)

    raw_table = {}
    for speed, plist in sorted(by_speed.items()):
        averaged = profiles.average_profiles(profiles.align_durations(plist))
        corrected, balanced = profiles.treadmill_correct(averaged)
        measured = profiles.compute_impulses(averaged)
        raw_table[speed] = profiles.compile_triangular(corrected, balanced)
        print(f"{speed:g} km/h: B={measured.B:.4f} F={measured.F:.4f} "
              f"-> B'=F'={balanced.B:.4f} N*s (belt bias {measured.belt_bias:+.4f})")

    table = profiles.fit_device_scale(raw_table, device_max_force)
    profiles.save_table(table, args.out)
    print(f"{len(table.entries)} speed entries, device_scale="
          f"{table.device_scale:.4f} -> {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    from . import calibration, textio

    duty, force = textio.read_columns(args.points, ("duty", "peak_force"), 0)
    curve = calibration.fit_calibration(zip(duty, force), args.direction,
                                        min_duty=resolve(args, "min_duty"))
    calibration.save_curve(curve, args.out)
    print(f"{args.direction}: slope={curve.slope:.4f} N/duty "
          f"intercept={curve.intercept:.4f} N r2={curve.r_squared:.5f} "
          f"-> {args.out}")
    return 0


def cmd_step_response(args) -> int:
    import numpy as np

    from . import plant, renderer, textio, trace

    t_cmd, duty = renderer.read_commands(args.commanded)
    t, force = textio.read_columns(args.measured, ("t", "force"), 2)
    if not np.isfinite(force).all():
        raise FormatError(f"{args.measured}: force must be finite")
    rate = trace.rate_from_times(t)
    # both logs must share one clock: same first time and rate
    if (abs(t_cmd[0] - t[0]) * rate > trace.TIME_JITTER_TOL
            or abs(trace.rate_from_times(t_cmd) - rate) > trace.TIME_JITTER_TOL * rate):
        raise FormatError(f"{args.commanded}: t is not on the measured log's clock")
    metrics = plant.analyze_step_response(duty, force, rate)
    textio.write_json(args.out, metrics)
    print(f"rise={metrics['rise_s']:.4f}s (10-90% {metrics['rise_10_90_s']:.4f}s) "
          f"fall={metrics['fall_s']:.4f}s transition={metrics['transition_s']:.4f}s "
          f"-> {args.out}")
    return 0


@contextmanager
def _event_lines(args):
    """NDJSON lines from one TCP connection, stdin or a file; closes
    whatever it opened.  Waiting for the connection or for a line times
    out (TimeoutError) after LISTEN_TIMEOUT_S."""
    from . import textio

    if args.listen is None:
        with textio.opened(sys.stdin if args.events == "-" else args.events, "r") as fh:
            yield fh
        return
    if not 0 <= args.listen <= 65535:
        raise ConfigError(f"--listen port must be in 0-65535, got {args.listen}")
    import socket

    with socket.create_server(("127.0.0.1", args.listen)) as server:
        server.settimeout(LISTEN_TIMEOUT_S)
        print(f"listening on 127.0.0.1:{server.getsockname()[1]}", file=sys.stderr)
        conn, _ = server.accept()
        conn.settimeout(LISTEN_TIMEOUT_S)
        with conn, conn.makefile("r", encoding="utf-8") as fh:
            yield fh


def _load_curves(args):
    from . import calibration

    fwd = calibration.load_curve(args.calib_forward)
    bwd = calibration.load_curve(args.calib_backward)
    if fwd.direction != "forward" or bwd.direction != "backward":
        raise ConfigError("calibration files have the wrong directions")
    return fwd, bwd


def cmd_render(args) -> int:
    from . import profiles, renderer, textio

    fwd, bwd = _load_curves(args)
    rend = renderer.Renderer(profiles.load_table(args.table), fwd, bwd)
    # a file's events never wait, so its log is composed in full blocks;
    # stdin and --listen write each block before the next pull
    rows = textio.WRITE_ROWS if args.listen is None and args.events != "-" else None
    with _event_lines(args) as lines:
        blocks = renderer.command_blocks(rend, renderer.events_from_ndjson(lines),
                                         args.duration, rows=rows)
        n = textio.write_blocks(args.out, renderer.ActuatorCommand._fields, blocks)
    print(f"{n} ticks -> {args.out}")
    return 0


def cmd_vibstep(args) -> int:
    import numpy as np

    from . import renderer, textio, trace

    t, duty = renderer.read_commands(args.commands)
    # the log's clock rebuilt from its first time and median rate
    t = float(t[0]) + np.arange(len(duty)) / trace.rate_from_times(t)
    heel, thenar = renderer.to_vibstep(duty)
    n = textio.write_blocks(args.out, ("t", "heel_duty", "thenar_duty"),
                            [(t, heel, thenar)])
    print(f"{n} ticks -> {args.out}")
    return 0


def _default_curves(min_duty):
    from . import calibration

    mk = lambda d: calibration.CalibrationCurve(
        direction=d, slope=3.0, intercept=0.0, r_squared=1.0, min_duty=min_duty)
    return mk("forward"), mk("backward")


def cmd_simulate(args) -> int:
    from . import plant, profiles, renderer, textio

    if bool(args.events) != bool(args.table):
        raise ConfigError("closed-loop simulation needs both --events and --table")
    if bool(args.calib_forward) != bool(args.calib_backward):
        raise ConfigError("give both --calib-forward and --calib-backward, or neither")
    if args.calib_forward and args.min_duty is not None:
        raise ConfigError("--min-duty sets the floor of the default curves only; "
                          "the --calib-* files carry their own")
    fwd, bwd = (_load_curves(args) if args.calib_forward
                else _default_curves(resolve(args, "min_duty")))
    model = plant.PlateModel(forward_curve=fwd, backward_curve=bwd,
                             tau_s=resolve(args, "tau_s"),
                             max_force=resolve(args, "max_force"))
    if args.events:
        with textio.opened(args.events, "r") as fh:
            run = plant.run_closed_loop(profiles.load_table(args.table),
                                        renderer.events_from_ndjson(fh), model)
    else:
        run = plant.simulate_step_response(model)
    if args.out_log:
        plant.save_sim_run(run, args.out_log)
    textio.write_json(args.out, run.metrics)
    summary = " ".join(f"{k}={v:.4g}" for k, v in sorted(run.metrics.items()))
    print(f"{summary} -> {args.out}")
    return 0


def cmd_normalize(args) -> int:
    from . import scores

    raw = scores.read_scores(args.scores)
    normalized = scores.normalize_scores(raw)
    scores.write_normalized(raw, normalized, args.out)
    print(f"{sum(len(v) for v in raw.values())} participant-item grids "
          f"-> {args.out}")
    return 0


def _add_seg_flags(p):
    p.add_argument("--onset-threshold", dest="onset_threshold", type=float)
    p.add_argument("--release-threshold", dest="release_threshold", type=float)
    p.add_argument("--min-step-s", dest="min_step_s", type=float)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of subcommand ``command`` alone, or of every one for
    None; both print the same usage, which names all of COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="hapstep",
        description="Gait friction-force capture, envelope compilation, and "
                    "1 kHz haptic rendering toolkit.")
    parser.add_argument("--config", help="key=value config file; flags override")
    # a metavar only where the choices are not all built: with it, a
    # missing command would be named by the metavar instead of "command"
    sub = parser.add_subparsers(dest="command", required=True, metavar=command and
                                "{" + ",".join(COMMANDS) + "}")
    add = lambda name, **kw: sub.add_parser(name, **kw) if command in (None, name) else None

    if p := add("ingest", help="validate and re-emit a trace CSV"):
        p.add_argument("--trace", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_ingest)

    if p := add("segment", help="cut a walk trace into steps"):
        p.add_argument("--trace", required=True)
        p.add_argument("--out", required=True)
        _add_seg_flags(p)
        p.set_defaults(func=cmd_segment)

    if p := add("phases", help="annotate steps with phase timings"):
        p.add_argument("--trace", required=True)
        p.add_argument("--out", required=True)
        _add_seg_flags(p)
        p.set_defaults(func=cmd_phases)

    if p := add("compile", help="traces -> speed-indexed triangular profile table"):
        p.add_argument("--traces", nargs="+", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--device-max-force", dest="device_max_force", type=float)
        p.add_argument("--first", type=int)
        p.add_argument("--last", type=int)
        _add_seg_flags(p)
        p.set_defaults(func=cmd_compile)

    if p := add("calibrate", help="fit a duty->force line"):
        p.add_argument("--points", required=True, help="CSV duty,peak_force")
        p.add_argument("--direction", required=True, choices=["forward", "backward"])
        p.add_argument("--min-duty", dest="min_duty", type=float)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_calibrate)

    if p := add("step-response", help="response metrics from command/measurement logs"):
        p.add_argument("--commanded", required=True, help="CSV t,signed_duty")
        p.add_argument("--measured", required=True, help="CSV t,force")
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_step_response)

    if p := add("render", help="NDJSON gait events -> command log"):
        p.add_argument("--events", default="-",
                       help="NDJSON file, or '-' for standard input")
        p.add_argument("--table", required=True)
        p.add_argument("--calib-forward", dest="calib_forward", required=True)
        p.add_argument("--calib-backward", dest="calib_backward", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--duration", type=float)
        p.add_argument("--listen", type=int,
                       help="accept one NDJSON TCP connection on this port")
        p.set_defaults(func=cmd_render)

    if p := add("vibstep", help="command log -> vibrator rectangles"):
        p.add_argument("--commands", required=True, help="CSV t,signed_duty")
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_vibstep)

    if p := add("simulate", help="plant simulation (bench step test, or closed "
                                  "loop with --events/--table)"):
        p.add_argument("--events")
        p.add_argument("--table")
        p.add_argument("--calib-forward", dest="calib_forward")
        p.add_argument("--calib-backward", dest="calib_backward")
        p.add_argument("--tau-s", dest="tau_s", type=float)
        p.add_argument("--max-force", dest="max_force", type=float)
        p.add_argument("--min-duty", dest="min_duty", type=float,
                       help="floor of the default curves (not with --calib-*)")
        p.add_argument("--out", required=True, help="metrics JSON")
        p.add_argument("--out-log", dest="out_log", help="per-tick CSV log")
        p.set_defaults(func=cmd_simulate)

    if p := add("normalize", help="normalize questionnaire scores"):
        p.add_argument("--scores", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_normalize)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    i = 0
    while argv[i:i + 1] == ["--config"]:  # skip exact --config VALUE pairs
        i += 2
    command = (argv[i:i + 1] or [None])[0]
    # no command name there (-h, --config=FILE, none, a typo): all subparsers
    args = build_parser(command if command in COMMANDS else None).parse_args(argv)
    try:
        args._config = read_config(args.config) if args.config else {}
        return args.func(args)
    except HapstepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IOFailureError.exit_code
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8: {exc}", file=sys.stderr)
        return FormatError.exit_code


if __name__ == "__main__":
    sys.exit(main())
