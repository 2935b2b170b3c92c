import numpy as np
import pytest

from hapstep import segmentation
from hapstep.errors import (
    ConfigError,
    InsufficientStepsError,
    PhaseDetectionError,
)
from hapstep.segmentation import (
    PhaseTimings,
    SegmentationConfig,
    StepSegment,
    combine_channels,
    detect_phases,
    segment_steps,
    select_middle,
)
from hapstep.synthetic import StepShape, step_channels, synthetic_walk
from hapstep.trace import ForceTrace

from conftest import random_runs

FS = 1000.0


def make_trace(thenar, heel, fs=FS):
    return ForceTrace(fs, np.asarray(thenar), np.asarray(heel), 2.5, "t")


def make_segment(thenar, heel, fs=FS):
    return StepSegment(trace=make_trace(thenar, heel, fs),
                       start_s=0.0, index_in_walk=1)


def triangle(fs, t0, t1, t2, peak, n):
    t = np.arange(n) / fs
    return np.interp(t, [t0, t1, t2], [0.0, peak, 0.0], left=0.0, right=0.0)


class TestSegmentSteps:
    def test_all_zero_trace_gives_no_steps(self):
        tr = make_trace(np.zeros(2000), np.zeros(2000))
        assert segment_steps(tr) == []

    def test_bump_below_onset_ignored(self):
        heel = triangle(FS, 0.1, 0.3, 0.5, -0.25, 1000)  # peak below 0.3 N
        tr = make_trace(np.zeros(1000), heel)
        assert segment_steps(tr) == []

    def test_synthetic_walk_boundaries_recovered(self):
        cfg = SegmentationConfig()
        tr, truths = synthetic_walk(n_steps=30, jitter=0.1,
                                    rng=np.random.default_rng(3))
        segs = segment_steps(tr, cfg)
        assert len(segs) == 30
        for seg, truth in zip(segs, truths):
            onset_err = abs(seg.start_s - truth.onset_s(cfg.onset_threshold))
            close_err = abs(seg.start_s + seg.trace.duration_s
                            - truth.close_s(cfg.release_threshold))
            assert onset_err * FS <= 2
            assert close_err * FS <= 2

    def test_idempotent_on_isolated_segment(self):
        tr, _ = synthetic_walk(n_steps=3)
        seg = segment_steps(tr)[1]
        again = segment_steps(seg.trace)
        assert len(again) == 1
        assert len(again[0].trace) == len(seg.trace)

    def test_min_step_filter(self):
        heel = triangle(FS, 0.05, 0.10, 0.15, -2.0, 1000)  # 0.1 s blip
        tr = make_trace(np.zeros(1000), heel)
        assert segment_steps(tr) == []

    def test_quiet_run_of_hold_samples_closes_step(self, monkeypatch):
        monkeypatch.setattr(segmentation, "RELEASE_HOLD_S", 0.001)  # hold of one sample
        for gap in (1, 2):
            active = np.r_[np.ones(300), np.zeros(gap), np.ones(300)]
            segs = segment_steps(make_trace(active, np.zeros(len(active))))
            assert [(s.start_s, len(s.trace)) for s in segs] \
                == [(0.0, 300), ((300 + gap) / FS, 300)]

    def test_bad_thresholds_rejected(self):
        tr = make_trace(np.zeros(10), np.zeros(10))
        with pytest.raises(ConfigError):
            segment_steps(tr, SegmentationConfig(onset_threshold=-1.0))
        with pytest.raises(ConfigError):
            segment_steps(tr, SegmentationConfig(onset_threshold=0.1,
                                                 release_threshold=0.2))


class TestSelectMiddle:
    def _segments(self, n):
        tr, _ = synthetic_walk(n_steps=n)
        segs = segment_steps(tr)
        assert len(segs) == n
        return segs

    def test_thirty_steps_default_window(self):
        mid = select_middle(self._segments(30))
        assert [s.index_in_walk for s in mid] == list(range(4, 14))

    def test_exact_boundary(self):
        mid = select_middle(self._segments(13))
        assert len(mid) == 10

    def test_too_few_steps(self):
        with pytest.raises(InsufficientStepsError, match="short by 4"):
            select_middle(self._segments(9))

    def test_bad_window(self):
        with pytest.raises(ConfigError):
            select_middle(self._segments(13), first=0)


class TestDetectPhases:
    def test_constructed_step_landmarks(self):
        n = 700
        heel = triangle(FS, 0.0, 0.1, 0.2, -1.0, n)
        thenar = triangle(FS, 0.2, 0.35, 0.5, 1.0, n) \
            + triangle(FS, 0.5, 0.53, 0.56, -5.0, n)
        ph = detect_phases(make_segment(thenar, heel))
        assert ph.t_step1_peak == pytest.approx(0.1, abs=2 / FS)
        assert ph.t_step3_peak == pytest.approx(0.35, abs=2 / FS)
        assert ph.t_step4_start == pytest.approx(0.5, abs=2 / FS)
        assert 0 <= ph.t_step1_peak < ph.t_step3_peak <= ph.t_step4_start <= ph.t_end

    def test_step2_overlap_detected(self):
        n = 700
        heel = triangle(FS, 0.0, 0.1, 0.2, -1.0, n)
        heel = heel + triangle(FS, 0.2, 0.225, 0.25, 0.4, n)  # 50 ms overlap
        thenar = triangle(FS, 0.2, 0.35, 0.5, 1.0, n)
        ph = detect_phases(make_segment(thenar, heel))
        assert ph.t_step2_present

    def test_step2_absent_without_overlap(self):
        n = 700
        heel = triangle(FS, 0.0, 0.1, 0.2, -1.0, n)
        thenar = triangle(FS, 0.2, 0.35, 0.5, 1.0, n)
        ph = detect_phases(make_segment(thenar, heel))
        assert not ph.t_step2_present

    def test_pure_positive_step_rejected(self):
        thenar = triangle(FS, 0.0, 0.2, 0.4, 1.0, 500)
        with pytest.raises(PhaseDetectionError):
            detect_phases(make_segment(thenar, np.zeros(500)))

    def test_no_drive_region_rejected(self):
        heel = triangle(FS, 0.0, 0.2, 0.4, -1.0, 500)
        with pytest.raises(PhaseDetectionError):
            detect_phases(make_segment(np.zeros(500), heel))

    def test_brake_then_drive_ordering_on_walk(self):
        tr, _ = synthetic_walk(n_steps=8, jitter=0.1,
                               rng=np.random.default_rng(11))
        for seg in segment_steps(tr):
            ph = detect_phases(seg)
            assert ph.t_step1_peak < ph.t_step3_peak


class TestCombineChannels:
    def test_constant_channels_sum(self):
        n = 400
        thenar = np.full(n, 1.0)
        heel = np.full(n, 0.5)
        seg = make_segment(thenar, heel)
        ph = PhaseTimings(0.0, 0.05, False, 0.2, 0.3, 0.4)
        prof = combine_channels(seg, ph)
        assert np.allclose(prof.values, 1.5)
        assert len(prof) == 300  # truncated at t_step4_start

    def test_spike_window_dropped(self):
        shape = StepShape()
        thenar, heel = step_channels(shape, FS)
        seg = make_segment(thenar, heel)
        ph = detect_phases(seg)
        prof = combine_channels(seg, ph)
        assert prof.duration_s <= shape.t_spike_start + 2 / FS
        assert np.min(prof.values) > -shape.spike_peak_n / 2

    def test_impulse_additivity(self):
        tr, _ = synthetic_walk(n_steps=3, jitter=0.1,
                               rng=np.random.default_rng(5))
        seg = segment_steps(tr)[0]
        ph = detect_phases(seg)
        prof = combine_channels(seg, ph)
        n = len(prof)
        dt = 1.0 / FS
        # independent per-channel integration over the kept window
        total = np.trapezoid(seg.trace.thenar_y[:n], dx=dt) \
            + np.trapezoid(seg.trace.heel_y[:n], dx=dt)
        combined = np.trapezoid(prof.values, dx=dt)
        assert combined == pytest.approx(total, rel=1e-9)


def reference_bounds(activity, onset, release, hold):
    """Per-sample open/close state machine: a step opens at an upward
    onset crossing and closes at the start of the first run of ``hold``
    quiet samples after it, or of the quiet run the trace ends in."""
    bounds, open_at, quiet_start, prev = [], None, None, -np.inf
    for i, a in enumerate(activity):
        if open_at is None:
            if a >= onset and prev < onset:
                open_at, quiet_start = i, None
        elif a < release:
            if quiet_start is None:
                quiet_start = i
            if i - quiet_start + 1 >= hold:
                bounds.append((open_at, quiet_start))
                open_at = quiet_start = None
        else:
            quiet_start = None
        prev = a
    if open_at is not None:
        bounds.append((open_at, len(activity) if quiet_start is None else quiet_start))
    return bounds


def reference_longest_run(mask):
    best = run = 0
    for v in mask:
        run = run + 1 if v else 0
        best = max(best, run)
    return best


def reference_spike_onset(thenar, i3, spike_mag):
    """Walk back from the first spike sample over the negative run
    leading into it, no further than the drive peak."""
    hits = np.flatnonzero(thenar[i3:] <= -spike_mag)
    if len(hits) == 0:
        return len(thenar)
    onset = i3 + hits[0]
    while onset > i3 and thenar[onset - 1] < 0:
        onset -= 1
    return onset


class TestRunScanExact:
    def test_segment_steps_equals_per_sample_reference(self, monkeypatch):
        rng = np.random.default_rng(7)
        n_steps = n_hold_one = 0
        for _ in range(600):
            fs = float(rng.choice([10.0, 25.0, 100.0, 999.7, 1000.0]))
            onset = rng.uniform(0.2, 1.0)
            cfg = SegmentationConfig(onset_threshold=onset,
                                     release_threshold=onset * rng.uniform(0.1, 0.9),
                                     min_step_s=rng.uniform(0.001, 0.02))
            monkeypatch.setattr(segmentation, "RELEASE_HOLD_S", rng.uniform(0.0, 0.012))
            n = int(rng.integers(1, 200))
            level = random_runs(rng, [0.0, 0.05, 0.15, 0.5, 1.2], n)
            thenar = level * rng.choice([-1.0, 1.0], size=n)
            heel = random_runs(rng, [0.0, 0.0, -0.1, 0.3], n)
            activity = np.abs(thenar) + np.abs(heel)
            hold = max(1, int(round(segmentation.RELEASE_HOLD_S * fs)))
            expected = [(start / fs, stop - start) for start, stop in
                        reference_bounds(activity, cfg.onset_threshold,
                                         cfg.release_threshold, hold)
                        if (stop - start) / fs >= cfg.min_step_s]
            segs = segment_steps(make_trace(thenar, heel, fs), cfg)
            assert [(s.start_s, len(s.trace)) for s in segs] == expected
            assert [s.index_in_walk for s in segs] == list(range(1, len(segs) + 1))
            n_steps += len(segs)
            n_hold_one += len(segs) * (hold == 1)
        assert n_steps > 1000 and n_hold_one > 100

    def test_step2_and_spike_onset_equal_per_sample_reference(self, monkeypatch):
        rng = np.random.default_rng(8)
        checked = present = spikes = 0
        for _ in range(600):
            fs = float(rng.choice([100.0, 999.7, 1000.0]))
            n = int(rng.integers(3, 150))
            thenar = random_runs(rng, [-3.0, -0.5, 0.0, 0.5, 1.0], n)
            heel = random_runs(rng, [-1.0, 0.0, 0.3, 0.8], n)
            thenar[0], heel[0] = 0.0, -1.0  # leading brake sample
            monkeypatch.setattr(segmentation, "STEP4_RATIO", rng.uniform(0.3, 3.0))
            monkeypatch.setattr(segmentation, "STEP2_MIN_S", rng.uniform(0.0, 0.008))
            try:
                ph = detect_phases(make_segment(thenar, heel, fs))
            except PhaseDetectionError:
                continue
            i1, i3 = round(ph.t_step1_peak * fs), round(ph.t_step3_peak * fs)
            spike_mag = segmentation.STEP4_RATIO * abs(thenar[i1] + heel[i1])
            i4 = reference_spike_onset(thenar, i3, spike_mag)
            overlap = reference_longest_run((thenar > 0) & (heel > 0))
            assert ph.t_step4_start == i4 / fs
            assert ph.t_step2_present is (
                overlap >= max(1, int(round(segmentation.STEP2_MIN_S * fs))))
            checked += 1
            present += ph.t_step2_present
            spikes += i4 < n
        assert checked > 300 and 0 < present < checked and 0 < spikes < checked
