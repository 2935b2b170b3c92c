import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hapstep.errors import ConfigError, FormatError, PipelineError
from hapstep.profiles import (
    FrictionProfile,
    ImpulsePair,
    SpeedProfileTable,
    Triangle,
    TriangularProfile,
    _region_bounds,
    align_durations,
    average_profiles,
    compile_triangular,
    compute_impulses,
    fit_device_scale,
    interpolate,
    load_table,
    save_table,
    treadmill_correct,
)
from hapstep.renderer import GaitEvent

from conftest import PROFILE_FS as FS, make_curve, random_profile, random_runs, render_events


def impulse_of(profile):
    dt = 1.0 / profile.sample_rate_hz
    v = profile.values
    return (float(np.trapezoid(np.clip(-v, 0, None), dx=dt)),
            float(np.trapezoid(np.clip(v, 0, None), dx=dt)))


class TestTriangle:
    def test_area_formula(self):
        tri = Triangle(t_onset=0.1, t_peak=0.3, t_offset=0.5, f_peak=2.0)
        assert tri.area == pytest.approx(0.5 * 2.0 * 0.4, rel=1e-15)

    def test_force_at_vertices_and_outside(self):
        tri = Triangle(0.1, 0.3, 0.5, 2.0)
        assert tri.force_at(0.3) == 2.0
        assert tri.force_at(0.2) == pytest.approx(1.0)
        assert tri.force_at(0.0) == 0.0
        assert tri.force_at(0.6) == 0.0

    def test_degenerate_knots_do_not_blow_up(self):
        tri = Triangle(0.1, 0.1, 0.5, 2.0)  # vertical rise
        assert tri.force_at(0.1) == pytest.approx(2.0)

    def test_entry_with_vertical_fall_renders_its_peak(self, knot_table):
        """A table entry whose brake apex is its offset renders f_peak at
        the apex tick, and 0 after it."""
        brake = Triangle(t_onset=0.0, t_peak=0.1, t_offset=0.1, f_peak=-1.0)
        entry = replace(knot_table.entries[0], brake=brake)
        table = SpeedProfileTable(entries=(entry,), device_scale=1.0)
        curves = make_curve("forward"), make_curve("backward")
        _, duty = render_events(table, *curves, [GaitEvent(t=0.0, foot="L", speed_kmh=1.0)])
        assert duty[101] == pytest.approx(-1.0 / 3.0, rel=1e-9)
        assert duty[102] == 0.0

    def test_bad_ordering_rejected(self):
        with pytest.raises(ConfigError):
            Triangle(0.5, 0.3, 0.1, 2.0)

    @pytest.mark.parametrize("field", ["t_onset", "t_peak", "t_offset", "f_peak", "duration_s"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, field, value):
        """Ordered but infinite times, peaks and durations are refused
        too, not only those that break the ordering."""
        brake = dict(t_onset=0.0, t_peak=0.1, t_offset=0.3, f_peak=-1.0)
        drive = dict(t_onset=0.4, t_peak=0.6, t_offset=0.9, f_peak=1.0)
        duration = {"duration_s": 1.0}
        for part in (brake, drive, duration):
            if field in part:
                part[field] = value
        with pytest.raises(ConfigError):
            TriangularProfile(brake=Triangle(**brake), drive=Triangle(**drive), **duration)


class TestAlignDurations:
    def test_scales_to_mean_duration(self):
        rng = np.random.default_rng(0)
        profs = [random_profile(rng) for _ in range(5)]
        mean_d = np.mean([p.duration_s for p in profs])
        aligned = align_durations(profs)
        assert len({len(p) for p in aligned}) == 1
        for p in aligned:
            assert p.duration_s == pytest.approx(mean_d, abs=1 / FS)

    def test_impulse_scales_with_duration(self):
        rng = np.random.default_rng(1)
        p = random_profile(rng)
        q = random_profile(rng)
        mean_d = 0.5 * (p.duration_s + q.duration_s)
        for orig, out in zip([p, q], align_durations([p, q])):
            b0, f0 = impulse_of(orig)
            b1, f1 = impulse_of(out)
            k = mean_d / orig.duration_s
            assert b1 == pytest.approx(k * b0, rel=1e-3)
            assert f1 == pytest.approx(k * f0, rel=1e-3)

    def test_phases_scale_too(self):
        rng = np.random.default_rng(2)
        p = random_profile(rng)
        short = replace(p, values=p.values[: len(p) // 2], drive_peak_s=0.1)
        aligned = align_durations([p, short])
        for orig, out in zip([p, short], aligned):
            k = np.mean([p.duration_s, short.duration_s]) / orig.duration_s
            assert out.brake_peak_s == orig.brake_peak_s * k
            assert out.drive_peak_s == orig.drive_peak_s * k

    def test_empty_rejected(self):
        with pytest.raises(FormatError, match="no profiles to align"):
            align_durations([])


class TestAverageProfiles:
    def test_pointwise_mean(self):
        rng = np.random.default_rng(3)
        profs = align_durations([random_profile(rng) for _ in range(4)])
        avg = average_profiles(profs)
        expected = np.mean([p.values for p in profs], axis=0)
        assert np.array_equal(avg.values, expected)

    def test_timings_averaged(self):
        rng = np.random.default_rng(4)
        profs = align_durations([random_profile(rng) for _ in range(3)])
        avg = average_profiles(profs)
        assert avg.brake_peak_s == float(np.mean([p.brake_peak_s for p in profs]))
        assert avg.drive_peak_s == float(np.mean([p.drive_peak_s for p in profs]))

    def test_mismatched_lengths_rejected(self):
        rng = np.random.default_rng(5)
        a = random_profile(rng)
        b = random_profile(rng)
        with pytest.raises(PipelineError, match="share duration and rate"):
            average_profiles([a, b])

    def test_empty_rejected(self):
        with pytest.raises(FormatError, match="no profiles to average"):
            average_profiles([])

    def test_mean_past_float_range_is_pipeline_error(self):
        # each profile is finite, but their sum is not: no numpy warning
        # (warnings fail tests here), and not the ConfigError of a caller
        p = FrictionProfile(FS, np.array([-1.5e308, 1.5e308]), 0.0, 0.001)
        with pytest.raises(PipelineError, match="too large"):
            average_profiles([p, p])


class TestComputeImpulses:
    def test_triangular_lobes_analytic(self):
        # -1 N over 0.2 s then +2 N over 0.4 s, triangular
        t = np.arange(600) / FS
        v = np.interp(t, [0.0, 0.1, 0.2], [0, -1.0, 0], left=0, right=0) \
            + np.interp(t, [0.2, 0.4, 0.6], [0, 2.0, 0], left=0, right=0)
        imp = compute_impulses(FrictionProfile(FS, v, 0.1, 0.4))
        assert imp.B == pytest.approx(0.5 * 1.0 * 0.2, rel=1e-3)
        assert imp.F == pytest.approx(0.5 * 2.0 * 0.4, rel=1e-3)

    def test_square_lobes(self):
        v = np.concatenate([-np.ones(1000), 2 * np.ones(1000)])
        imp = compute_impulses(FrictionProfile(FS, v, 0.5, 1.5))
        assert imp.B == pytest.approx(1.0, rel=1e-3)
        assert imp.F == pytest.approx(2.0, rel=1e-3)

    def test_balanced_target_and_bias(self):
        imp = ImpulsePair(B=1.0, F=2.0)
        assert imp.balanced_target == 1.5
        assert imp.belt_bias == -0.5

    def test_negative_impulse_rejected(self):
        with pytest.raises(ConfigError):
            ImpulsePair(B=-0.1, F=1.0)

    @pytest.mark.parametrize("B,F", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)])
    def test_non_finite_impulse_rejected(self, B, F):
        with pytest.raises(ConfigError):
            ImpulsePair(B=B, F=F)

    def test_impulse_past_float_range_is_pipeline_error(self):
        v = np.concatenate([np.full(3, -1.5e308), np.full(3, 1.5e308)])
        with pytest.raises(PipelineError, match="too large"):
            compute_impulses(FrictionProfile(FS, v, 0.0, 0.005))


class TestFrictionProfile:
    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_rate_must_be_finite(self, rate):
        # a NaN rate would make duration_s and both impulses NaN, and an
        # infinite one would make duration_s 0.0
        with pytest.raises(ConfigError):
            FrictionProfile(rate, np.ones(10), 0.0, 0.0)

    @pytest.mark.parametrize("brake,drive", [(np.nan, 0.005), (0.001, np.inf), (-np.inf, 0.005)])
    def test_peak_times_must_be_finite(self, brake, drive):
        with pytest.raises(ConfigError):
            FrictionProfile(FS, np.ones(10), brake, drive)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_values_must_be_finite(self, value):
        with pytest.raises(ConfigError):
            FrictionProfile(FS, np.array([1.0, value]), 0.0, 0.0)


class TestTreadmillCorrect:
    def test_regions_balanced_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = random_profile(rng)
            before = compute_impulses(p)
            corrected, balanced = treadmill_correct(p)
            after = compute_impulses(corrected)
            total = before.B + before.F
            assert abs(after.B - after.F) <= 1e-9 * total
            assert abs((after.B + after.F) - total) <= 1e-9 * total
            assert balanced.B == balanced.F == before.balanced_target

    def test_sign_pattern_preserved(self):
        p = random_profile(np.random.default_rng(7))
        corrected, _ = treadmill_correct(p)
        assert np.array_equal(np.sign(corrected.values), np.sign(p.values))

    def test_already_balanced_is_identity(self):
        t = np.arange(400) / FS
        v = np.interp(t, [0.0, 0.05, 0.1], [0, -1.0, 0], left=0, right=0) \
            + np.interp(t, [0.1, 0.15, 0.2], [0, 1.0, 0], left=0, right=0)
        p = FrictionProfile(FS, v, 0.05, 0.15)
        corrected, _ = treadmill_correct(p)
        assert np.allclose(corrected.values, p.values, atol=1e-12)

    def test_zero_lobe_rejected(self):
        p = FrictionProfile(FS, np.abs(np.sin(np.arange(300) / 50)), 0.0, 0.08)
        with pytest.raises(PipelineError, match="correction undefined for B=0"):
            treadmill_correct(p)


class TestCompileTriangular:
    def _compiled(self, seed):
        p = random_profile(np.random.default_rng(seed))
        corrected, balanced = treadmill_correct(p)
        return compile_triangular(corrected, balanced), \
            corrected, balanced

    def test_areas_equal_impulses(self):
        for seed in range(20):
            tri, _, balanced = self._compiled(seed)
            assert -tri.brake.area == pytest.approx(balanced.B, rel=1e-12)
            assert tri.drive.area == pytest.approx(balanced.F, rel=1e-12)

    def test_apex_at_measured_peak(self):
        tri, corrected, _ = self._compiled(21)
        assert tri.brake.t_peak == corrected.brake_peak_s
        assert tri.drive.t_peak == corrected.drive_peak_s

    def test_spans_cover_sign_regions(self):
        tri, corrected, _ = self._compiled(22)
        v = corrected.values
        neg = np.flatnonzero(v < 0)
        pos = np.flatnonzero(v > 0)
        dt = 1.0 / FS
        assert tri.brake.t_onset <= neg[0] * dt + dt
        assert tri.brake.t_offset >= neg[-1] * dt - dt
        assert tri.drive.t_onset <= pos[0] * dt + dt
        assert tri.drive.t_offset >= pos[-1] * dt - dt

    def test_brake_strictly_before_drive(self):
        tri, _, _ = self._compiled(23)
        assert tri.brake.t_offset <= tri.drive.t_onset
        assert tri.brake.f_peak < 0 < tri.drive.f_peak

    @pytest.mark.parametrize("peak", ["brake_peak_s", "drive_peak_s"])
    def test_peak_past_the_profile_rejected(self, peak):
        p = random_profile(np.random.default_rng(25))
        with pytest.raises(PipelineError, match="phase peak outside profile"):
            compile_triangular(replace(p, **{peak: p.duration_s + 1.0}), ImpulsePair(1.0, 1.0))

    def test_apex_outside_region_rejected(self):
        p = random_profile(np.random.default_rng(24))
        wrong = replace(p, brake_peak_s=p.drive_peak_s)
        with pytest.raises(PipelineError, match="outside its negative region"):
            compile_triangular(wrong, ImpulsePair(1.0, 1.0))


def reference_region_bounds(v, apex, rate, negative):
    """Per-sample walk out from the apex to the ends of its sign region."""
    inside = (v < 0) if negative else (v > 0)
    a = apex
    while a > 0 and inside[a - 1]:
        a -= 1
    b = apex
    while b < len(v) - 1 and inside[b + 1]:
        b += 1
    t_on = 0.0 if a == 0 else (a - 1 + v[a - 1] / (v[a - 1] - v[a])) / rate
    t_off = len(v) / rate if b == len(v) - 1 else (b + v[b] / (v[b] - v[b + 1])) / rate
    return t_on, t_off


class TestRegionBoundsExact:
    def test_equals_per_sample_reference(self):
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(2000):
            n = int(rng.integers(1, 60))
            v = random_runs(rng, [-2.0, -0.5, 0.0, 0.7, 1.5], n) * rng.uniform(0.5, 1.5, n)
            apex, negative = int(rng.integers(n)), bool(rng.integers(2))
            rate = float(rng.choice([100.0, 999.7, 1000.0]))
            if not (v[apex] < 0 if negative else v[apex] > 0):
                with pytest.raises(PipelineError, match="outside its"):
                    _region_bounds(v, apex, rate, negative)
                continue
            assert _region_bounds(v, apex, rate, negative) \
                == reference_region_bounds(v, apex, rate, negative)
            checked += 1
        assert checked > 500


class TestFitDeviceScale:
    def _raw(self, seed=30):
        raw = {}
        for speed, s in zip((1.0, 2.5, 4.0), range(3)):
            p = random_profile(np.random.default_rng(seed + s))
            corrected, balanced = treadmill_correct(p)
            raw[speed] = compile_triangular(corrected, balanced)
        return raw

    def test_never_scales_up(self):
        table = fit_device_scale(self._raw(), device_max_force=1e6)
        assert table.device_scale == 1.0
        for raw_e, e in zip(sorted(self._raw().items()), table.entries):
            assert e.drive.f_peak == raw_e[1].drive.f_peak

    def test_strongest_peak_hits_ceiling(self):
        raw = self._raw()
        table = fit_device_scale(raw, device_max_force=0.5)
        peaks = [max(abs(e.brake.f_peak), e.drive.f_peak) for e in table.entries]
        assert max(peaks) == pytest.approx(0.5, rel=1e-12)

    def test_shared_scale_preserves_ratios(self):
        raw = self._raw()
        table = fit_device_scale(raw, device_max_force=0.5)
        for (_, r), e in zip(sorted(raw.items()), table.entries):
            assert e.drive.f_peak / e.brake.f_peak == pytest.approx(
                r.drive.f_peak / r.brake.f_peak, rel=1e-12)
            assert e.drive.f_peak == pytest.approx(
                r.drive.f_peak * table.device_scale, rel=1e-12)

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigError):
            fit_device_scale(self._raw(), device_max_force=0.0)
        with pytest.raises(ConfigError):
            fit_device_scale({}, device_max_force=1.0)


class TestInterpolate:
    def test_knots_return_stored_entries(self, knot_table):
        for e in knot_table.entries:
            assert interpolate(knot_table, e.speed_kmh) is e

    def test_midpoint_is_parameter_mean(self, knot_table):
        lo, hi = knot_table.entries[0], knot_table.entries[1]
        mid = interpolate(knot_table, (lo.speed_kmh + hi.speed_kmh) / 2)
        for attr in ("t_onset", "t_peak", "t_offset", "f_peak"):
            for part in ("brake", "drive"):
                a = getattr(getattr(lo, part), attr)
                b = getattr(getattr(hi, part), attr)
                m = getattr(getattr(mid, part), attr)
                assert m == pytest.approx((a + b) / 2, abs=1e-12)
        assert mid.duration_s == pytest.approx(
            (lo.duration_s + hi.duration_s) / 2, abs=1e-12)

    def test_clamps_outside_range(self, knot_table):
        assert interpolate(knot_table, 0.2) is knot_table.entries[0]
        assert interpolate(knot_table, 5.0) is knot_table.entries[-1]

    def test_monotone_in_speed(self, knot_table):
        peaks = [interpolate(knot_table, s).drive.f_peak
                 for s in np.linspace(1.0, 4.0, 13)]
        diffs = np.sign(np.diff(peaks))
        # piecewise linear: direction can change only at the interior knot
        assert np.count_nonzero(np.diff(diffs)) <= 2

    def test_nonfinite_speed_rejected(self, knot_table):
        with pytest.raises(ConfigError):
            interpolate(knot_table, float("nan"))


class TestTableSerialization:
    def test_round_trip(self, knot_table):
        buf = io.StringIO()
        save_table(knot_table, buf)
        back = load_table(io.StringIO(buf.getvalue()))
        assert back == knot_table

    def test_stable_bytes(self, knot_table, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_table(knot_table, p1)
        save_table(knot_table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_payload_rejected(self):
        with pytest.raises(ConfigError):
            load_table(io.StringIO(json.dumps({"entries": [{"speed_kmh": 1.0}],
                                               "device_scale": 1.0})))

    def test_is_valid_json(self, knot_table, tmp_path):
        path = tmp_path / "t.json"
        save_table(knot_table, path)
        data = json.loads(path.read_text())
        assert len(data["entries"]) == 3


def lobes(max_size=150):
    return arrays(float, st.integers(1, max_size),
                  elements=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.tuples(lobes(), lobes(), st.integers(0, 30)), min_size=1, max_size=3),
       rate=st.sampled_from([100.0, 1000.0, 1200.0]),
       device_max_force=st.floats(1e-2, 1e4))
def test_compiled_tables_keep_impulse_balance(steps, rate, device_max_force):
    """Random positive brake and drive lobes: treadmill_correct then
    compile_triangular gives |brake.area| == drive.area == the balanced
    mean (B + F) / 2; fit_device_scale never scales up and keeps that
    balance in every entry."""
    raw, balanced = {}, {}
    for speed, (brake, drive, gap) in enumerate(steps, start=1):
        values = np.concatenate([[0.0], -brake, np.zeros(gap), drive, [0.0]])
        b_apex = 1 + int(np.argmax(brake))
        d_apex = 1 + len(brake) + gap + int(np.argmax(drive))
        profile = FrictionProfile(sample_rate_hz=rate, values=values,
                                  brake_peak_s=b_apex / rate, drive_peak_s=d_apex / rate)
        mean = compute_impulses(profile).balanced_target
        tri = compile_triangular(*treadmill_correct(profile))
        assert abs(tri.brake.area) == pytest.approx(mean, rel=1e-12, abs=0)
        assert tri.drive.area == pytest.approx(mean, rel=1e-12, abs=0)
        raw[float(speed)], balanced[float(speed)] = tri, mean
    table = fit_device_scale(raw, device_max_force)
    assert 0 < table.device_scale <= 1.0
    peak = max(max(-e.brake.f_peak, e.drive.f_peak) for e in raw.values())
    assert table.device_scale == min(1.0, device_max_force / peak)
    for entry in table.entries:
        expected = table.device_scale * balanced[entry.speed_kmh]
        assert abs(entry.brake.area) == pytest.approx(entry.drive.area, rel=1e-12, abs=0)
        assert entry.drive.area == pytest.approx(expected, rel=1e-12, abs=0)
        assert max(-entry.brake.f_peak, entry.drive.f_peak) <= device_max_force * (1 + 1e-12)
