"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line on the terminal (bypassing
capture) so the gate can be read off the log at a glance.  Tolerances
are pinned here and must not be loosened without a ledger entry.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from hapstep.calibration import fit_calibration
from hapstep.plant import PlateModel, run_closed_loop, simulate_step_response
from hapstep.profiles import (
    compile_triangular,
    compute_impulses,
    interpolate,
    treadmill_correct,
)
from hapstep.renderer import GaitEvent, events_from_ndjson, render_events, to_vibstep
from hapstep.scores import normalize_scores
from hapstep.segmentation import SegmentationConfig, segment_steps, select_middle
from hapstep.synthetic import synthetic_walk

from conftest import KNOT_SPEEDS, clamp_free_curves, event_to_json, random_profile

FS = 1000.0


@pytest.fixture
def gate(capsys):
    @contextmanager
    def _gate(number, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number:2d} ({label}): FAIL")
            raise
        with capsys.disabled():
            print(f"criterion {number:2d} ({label}): PASS")
    return _gate


def test_01_impulse_balance_property(gate):
    with gate(1, "impulse balance"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(1000):
            p = random_profile(rng)
            before = compute_impulses(p)
            corrected, _ = treadmill_correct(p)
            after = compute_impulses(corrected)
            total = before.B + before.F
            assert abs(after.B - after.F) <= 1e-9 * total
            assert abs((after.B + after.F) - total) <= 1e-9 * total
        assert time.perf_counter() - t0 < 5.0


def test_02_triangle_fidelity(gate):
    with gate(2, "triangle fidelity"):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            p = random_profile(rng)
            corrected, balanced = treadmill_correct(p)
            tri = compile_triangular(corrected, balanced)
            # analytic: area equals the target impulse by construction
            assert -tri.brake.area == pytest.approx(balanced.B, rel=1e-12)
            assert tri.drive.area == pytest.approx(balanced.F, rel=1e-12)
            # sampled at 1 kHz and re-integrated: within 0.5%
            v = tri.sample(FS)
            dt = 1.0 / FS
            b = np.trapezoid(np.clip(-v, 0, None), dx=dt)
            f = np.trapezoid(np.clip(v, 0, None), dx=dt)
            assert b == pytest.approx(balanced.B, rel=5e-3)
            assert f == pytest.approx(balanced.F, rel=5e-3)


def test_03_calibration_echo(gate):
    with gate(3, "calibration echo"):
        duties = (0.37, 0.69, 1.0)
        rng = np.random.default_rng(303)
        for _ in range(100):
            slope = rng.uniform(1.5, 4.0)
            intercept = rng.uniform(0.0, 0.5)
            pts = [(d, (slope * d + intercept)
                    * (1 + 0.01 * rng.uniform(-1, 1))) for d in duties]
            curve = fit_calibration(pts, "forward")
            assert curve.r_squared >= 0.99
            assert curve.slope == pytest.approx(slope, rel=0.03)


def test_04_responsiveness_echo(gate):
    with gate(4, "responsiveness"):
        t0 = time.perf_counter()
        fwd, bwd = clamp_free_curves()
        model = PlateModel(forward_curve=fwd, backward_curve=bwd,
                           tau_s=0.05)
        run = simulate_step_response(model)
        assert run.metrics["rise_10_90_s"] == pytest.approx(0.110, abs=0.005)
        assert run.metrics["rise_s"] == pytest.approx(0.1, abs=0.03)
        assert time.perf_counter() - t0 < 1.0


def _mixed_speed_events(duration_s=58.0):
    rng = np.random.default_rng(505)
    events, t = [], 0.2
    feet = "LR"
    i = 0
    while t < duration_s:
        events.append(GaitEvent(t=round(t, 4), foot=feet[i % 2],
                                speed_kmh=float(rng.uniform(0.8, 5.0))))
        t += rng.uniform(0.9, 1.4)
        i += 1
    return events


def _command_log_bytes(t, duty):
    lines = ["t,signed_duty"]
    lines += [f"{ti!r},{di!r}" for ti, di in zip(t.tolist(), duty.tolist())]
    return ("\n".join(lines) + "\n").encode()


def test_05_renderer_determinism(gate, knot_table):
    with gate(5, "renderer determinism"):
        fwd, bwd = clamp_free_curves()
        events = _mixed_speed_events()
        t1, d1 = render_events(knot_table, fwd, bwd, events,
                               duration_s=60.0)
        t2, d2 = render_events(knot_table, fwd, bwd, events,
                               duration_s=60.0)
        assert _command_log_bytes(t1, d1) == _command_log_bytes(t2, d2)
        # live path: the same events serialized to NDJSON and parsed back
        lines = [event_to_json(e) + "\n" for e in events]
        t3, d3 = render_events(knot_table, fwd, bwd,
                               events_from_ndjson(iter(lines)),
                               duration_s=60.0)
        assert _command_log_bytes(t1, d1) == _command_log_bytes(t3, d3)


def test_06_end_to_end_impulse_fidelity(gate, knot_table):
    with gate(6, "closed-loop impulse fidelity"):
        fwd, bwd = clamp_free_curves()
        for tau, tol in ((0.05, 0.05), (1e-4, 0.005)):
            for speed in KNOT_SPEEDS:
                model = PlateModel(forward_curve=fwd, backward_curve=bwd,
                                   tau_s=tau)
                events = [GaitEvent(t=0.05, foot="L", speed_kmh=speed)]
                run = run_closed_loop(knot_table, events, model)
                assert run.metrics["per_region_impulse_error"] <= tol
                assert run.metrics["net_impulse"] <= tol


def test_07_interpolation_contract(gate, knot_table):
    with gate(7, "speed interpolation"):
        for entry in knot_table.entries:
            assert interpolate(knot_table, entry.speed_kmh) is entry
        lo, hi = knot_table.entries[0], knot_table.entries[1]
        mid = interpolate(knot_table, 1.75)
        for part in ("brake", "drive"):
            for attr in ("t_onset", "t_peak", "t_offset", "f_peak"):
                a = getattr(getattr(lo, part), attr)
                b = getattr(getattr(hi, part), attr)
                assert getattr(getattr(mid, part), attr) == pytest.approx(
                    (a + b) / 2, abs=1e-12)
        assert mid.duration_s == pytest.approx(
            (lo.duration_s + hi.duration_s) / 2, abs=1e-12)
        assert interpolate(knot_table, 5.0) is knot_table.entries[-1]


def test_08_vibstep_covering_property(gate):
    with gate(8, "vibstep covering"):
        rng = np.random.default_rng(808)
        for _ in range(1000):
            p = random_profile(rng)
            corrected, balanced = treadmill_correct(p)
            tri = compile_triangular(corrected, balanced)
            duty = tri.sample(FS)
            heel, thenar = to_vibstep(duty)
            assert np.all(heel >= np.clip(-duty, 0, None))
            assert np.all(thenar >= np.clip(duty, 0, None))
            i_b, i_d = int(np.argmin(duty)), int(np.argmax(duty))
            assert heel[i_b] == -duty[i_b]
            assert thenar[i_d] == duty[i_d]
            heel_on = np.flatnonzero(heel > 0)
            thenar_on = np.flatnonzero(thenar > 0)
            assert heel_on[-1] < thenar_on[0]


def test_09_segmentation_oracle(gate):
    with gate(9, "segmentation oracle"):
        cfg = SegmentationConfig()
        for seed in (1, 2, 3):
            trace, truths = synthetic_walk(
                n_steps=30, jitter=0.1, rng=np.random.default_rng(seed))
            segs = segment_steps(trace, cfg)
            assert len(segs) == 30
            for seg, truth in zip(segs, truths):
                onset = truth.onset_s(cfg.onset_threshold)
                close = truth.close_s(cfg.release_threshold)
                assert abs(seg.start_s - onset) * FS <= 2
                assert abs(seg.start_s + seg.trace.duration_s - close) * FS <= 2
            middle = select_middle(segs, first=4, last=13)
            assert len(middle) == 10
            assert [s.index_in_walk for s in middle] == list(range(4, 14))


def test_10_score_normalization(gate):
    with gate(10, "score normalization"):
        keys = [(s, v) for s in ("none", "vibration", "friction")
                for v in (1.0, 2.5, 4.0)]

        # midpoint of a 20..80 grid lands exactly on 0.5
        grid = dict(zip(keys, [20, 80, 50, 30, 40, 60, 70, 25, 35]))
        norm = normalize_scores({"p": {"i": grid}})["p"]["i"]
        assert norm[keys[2]] == 0.5
        assert norm[keys[0]] == 0.0
        assert norm[keys[1]] == 1.0

        # degenerate all-equal grid maps to all zeros
        flat = dict(zip(keys, [40] * 9))
        norm = normalize_scores({"p": {"i": flat}})["p"]["i"]
        assert all(v == 0.0 for v in norm.values())

        # random grids: endpoints at exactly 0 and 1, all inside [0, 1]
        rng = np.random.default_rng(1010)
        for _ in range(100):
            grid = dict(zip(keys, rng.uniform(0, 100, size=9).tolist()))
            norm = normalize_scores({"p": {"i": grid}})["p"]["i"]
            out = list(norm.values())
            assert min(out) == 0.0 and max(out) == 1.0
            assert all(0.0 <= v <= 1.0 for v in out)
