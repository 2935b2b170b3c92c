"""Step segmentation and four-phase timing annotation.

A walking trace is cut into steps on the combined per-site force
magnitude, the steady mid-walk window is selected, and each step is
annotated with the four characteristic phases of the sole friction
pattern: brake (heel, backward), dual-site drive, thenar drive, and the
terminal thenar load spike.  The spike phase is measured but never
rendered, so profile extraction truncates at its onset.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError, InsufficientStepsError, PhaseDetectionError
from .trace import ForceTrace


@dataclass(frozen=True)
class SegmentationConfig:
    onset_threshold: float = 0.3    # N, combined |thenar|+|heel| to open a step
    release_threshold: float = 0.1  # N, must stay below this to close
    min_step_s: float = 0.2
    release_hold_s: float = 0.05
    step4_ratio: float = 2.0        # thenar spike onset = this x brake peak magnitude
    step2_min_s: float = 0.010      # minimum dual-site positive overlap

    def validate(self):
        if self.onset_threshold <= 0 or self.release_threshold <= 0:
            raise ConfigError("thresholds must be positive")
        if self.release_threshold >= self.onset_threshold:
            raise ConfigError("release_threshold must be below onset_threshold")
        if self.min_step_s <= 0:
            raise ConfigError("min_step_s must be positive")


@dataclass(frozen=True)
class StepSegment:
    trace: ForceTrace
    start_s: float
    index_in_walk: int  # 1-based position in the walk


@dataclass(frozen=True)
class PhaseTimings:
    """Phase landmarks of one step, seconds relative to step start."""

    t_start: float
    t_step1_peak: float
    t_step2_present: bool
    t_step3_peak: float
    t_step4_start: float
    t_end: float

    def as_dict(self, step_index: int | None = None) -> dict:
        out = asdict(self)
        if step_index is not None:
            out["step_index"] = step_index
        return out


def segment_steps(trace: ForceTrace, cfg: SegmentationConfig | None = None) -> list[StepSegment]:
    """Cut a walk into non-overlapping steps.

    A step opens when |thenar_y| + |heel_y| crosses the onset threshold
    upward and closes at the start of the first quiet run (below the
    release threshold) lasting at least ``release_hold_s``.  Steps
    shorter than ``min_step_s`` are discarded.  Returns an empty list
    when the trace never crosses the onset threshold.
    """
    cfg = cfg or SegmentationConfig()
    cfg.validate()
    fs = trace.sample_rate_hz
    activity = np.abs(trace.thenar_y) + np.abs(trace.heel_y)
    hold = max(1, int(round(cfg.release_hold_s * fs)))

    bounds: list[tuple[int, int]] = []
    open_at = None
    quiet_start = None
    prev = -np.inf
    for i, a in enumerate(activity):
        if open_at is None:
            if a >= cfg.onset_threshold and prev < cfg.onset_threshold:
                open_at = i
                quiet_start = None
        else:
            if a < cfg.release_threshold:
                if quiet_start is None:
                    quiet_start = i
                elif i - quiet_start + 1 >= hold:
                    bounds.append((open_at, quiet_start))
                    open_at = None
                    quiet_start = None
            else:
                quiet_start = None
        prev = a
    if open_at is not None:
        bounds.append((open_at, quiet_start if quiet_start is not None else len(activity)))

    segments = []
    index = 0
    for start, stop in bounds:
        if (stop - start) / fs < cfg.min_step_s:
            continue
        index += 1
        segments.append(StepSegment(
            trace=trace.window(start, stop),
            start_s=start / fs,
            index_in_walk=index,
        ))
    return segments


def select_middle(segments: list[StepSegment], first: int = 4, last: int = 13) -> list[StepSegment]:
    """Keep the steady mid-walk steps, ``first``..``last`` inclusive."""
    if not (1 <= first <= last):
        raise ConfigError("require 1 <= first <= last")
    if len(segments) < last:
        raise InsufficientStepsError(
            f"need at least {last} steps, have {len(segments)} "
            f"(short by {last - len(segments)})")
    return [s for s in segments if first <= s.index_in_walk <= last]


def detect_phases(segment: StepSegment, cfg: SegmentationConfig | None = None) -> PhaseTimings:
    """Locate the four phase landmarks within one step.

    The combined (thenar + heel) force must show a leading negative
    (brake) region followed by a positive (drive) region; steps without
    that pattern are rejected with PhaseDetectionError.  The terminal
    spike onset is the start of the first thenar excursion reaching
    ``step4_ratio`` times the brake peak magnitude; if none occurs the
    step end is used.
    """
    cfg = cfg or SegmentationConfig()
    tr = segment.trace
    fs = tr.sample_rate_hz
    c = tr.thenar_y + tr.heel_y
    if len(c) == 0:
        raise PhaseDetectionError("empty segment")

    nonzero = np.flatnonzero(c != 0.0)
    if len(nonzero) == 0:
        raise PhaseDetectionError("no force activity in segment")
    i0 = nonzero[0]
    if c[i0] > 0:
        raise PhaseDetectionError("no leading brake (negative) region")

    # brake region: up to the first positive sample
    pos_after = np.flatnonzero(c[i0:] > 0)
    if len(pos_after) == 0:
        raise PhaseDetectionError("no drive (positive) region")
    j = i0 + pos_after[0]
    i1 = i0 + int(np.argmin(c[i0:j]))

    # drive region: up to the next negative sample
    neg_after = np.flatnonzero(c[j:] < 0)
    m = j + neg_after[0] if len(neg_after) else len(c)
    i3 = j + int(np.argmax(c[j:m]))

    # terminal spike: thenar excursion beyond step4_ratio x brake peak
    spike_mag = cfg.step4_ratio * abs(c[i1])
    spike_hits = np.flatnonzero(tr.thenar_y[i3:] <= -spike_mag)
    if len(spike_hits):
        onset = i3 + spike_hits[0]
        while onset > i3 and tr.thenar_y[onset - 1] < 0:
            onset -= 1
        i4 = onset
    else:
        i4 = len(c)

    overlap = (tr.thenar_y > 0) & (tr.heel_y > 0)
    step2 = _longest_run(overlap) >= max(1, int(round(cfg.step2_min_s * fs)))

    return PhaseTimings(
        t_start=0.0,
        t_step1_peak=i1 / fs,
        t_step2_present=step2,
        t_step3_peak=i3 / fs,
        t_step4_start=i4 / fs,
        t_end=len(c) / fs,
    )


def _longest_run(mask: np.ndarray) -> int:
    best = run = 0
    for v in mask:
        run = run + 1 if v else 0
        best = max(best, run)
    return best


def combine_channels(segment: StepSegment, phases: PhaseTimings):
    """Collapse both sites into the single rendering channel.

    Returns a FrictionProfile of thenar_y + heel_y truncated at the
    terminal spike onset (samples at/after it are dropped, since the
    spike is never rendered).
    """
    from .profiles import FrictionProfile

    tr = segment.trace
    fs = tr.sample_rate_hz
    n_keep = int(round(phases.t_step4_start * fs))
    values = (tr.thenar_y + tr.heel_y)[:n_keep]
    kept = replace(phases, t_step4_start=n_keep / fs, t_end=n_keep / fs)
    return FrictionProfile(sample_rate_hz=fs, values=values, phases=kept)
