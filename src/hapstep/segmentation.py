"""Step segmentation and four-phase timing annotation.

A walking trace is cut into steps on the combined per-site force
magnitude, the steady mid-walk window is selected, and each step is
annotated with the four characteristic phases of the sole friction
pattern: brake (heel, backward), dual-site drive, thenar drive, and the
terminal thenar load spike.  The spike phase is measured but never
rendered, so profile extraction truncates at its onset and keeps,
of the four phases, only the brake and drive peak times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientStepsError, PhaseDetectionError
from .profiles import FrictionProfile, from_valid_inputs, runs
from .trace import ForceTrace

#: a quiet run must last this long (s) to close a step
RELEASE_HOLD_S = 0.05
#: the terminal spike starts at a thenar excursion of this x the brake peak magnitude
STEP4_RATIO = 2.0
#: minimum dual-site positive overlap (s) for step 2 to count as present
STEP2_MIN_S = 0.010


@dataclass(frozen=True)
class PhaseTimings:
    """Phase landmarks of one step, seconds relative to step start."""

    t_start: float
    t_step1_peak: float
    t_step2_present: bool
    t_step3_peak: float
    t_step4_start: float
    t_end: float


@dataclass(frozen=True)
class SegmentationConfig:
    onset_threshold: float = 0.3    # N, combined |thenar|+|heel| to open a step
    release_threshold: float = 0.1  # N, must stay below this to close
    min_step_s: float = 0.2

    def __post_init__(self):
        if not np.all(np.isfinite([self.onset_threshold, self.release_threshold,
                                   self.min_step_s])):
            raise ConfigError("thresholds and min_step_s must be finite")
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


@from_valid_inputs()
def segment_steps(trace: ForceTrace, cfg: SegmentationConfig | None = None) -> list[StepSegment]:
    """Cut a walk into non-overlapping steps.

    A step opens when |thenar_y| + |heel_y| crosses the onset threshold
    upward and closes at the start of the first quiet run (below the
    release threshold) lasting at least RELEASE_HOLD_S.  Steps
    shorter than ``min_step_s`` are discarded.  Returns an empty list
    when the trace never crosses the onset threshold.
    """
    cfg = cfg or SegmentationConfig()
    fs = trace.sample_rate_hz
    activity = np.abs(trace.thenar_y) + np.abs(trace.heel_y)
    hold = max(1, int(round(RELEASE_HOLD_S * fs)))

    # onsets before a step's close fall inside it; a quiet run the
    # trace ends in closes the last step however short it is
    onsets, _ = runs(activity >= cfg.onset_threshold)
    quiet, quiet_stop = runs(activity < cfg.release_threshold)
    closes = quiet[(quiet_stop - quiet >= hold) | (quiet_stop == len(activity))]
    n_closed = np.searchsorted(closes, onsets)
    opens = np.diff(n_closed, prepend=-1) > 0
    starts = onsets[opens]
    stops = np.append(closes, len(activity))[n_closed[opens]]

    segments = []
    index = 0
    for start, stop in zip(starts.tolist(), stops.tolist()):
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


@from_valid_inputs()
def detect_phases(segment: StepSegment) -> PhaseTimings:
    """Locate the four phase landmarks within one step.

    The combined (thenar + heel) force must show a leading negative
    (brake) region followed by a positive (drive) region; steps without
    that pattern are rejected with PhaseDetectionError.  The terminal
    spike onset is the start of the first thenar excursion reaching
    STEP4_RATIO times the brake peak magnitude; if none occurs the step
    end is used.
    """
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

    # terminal spike: thenar excursion beyond STEP4_RATIO x brake peak
    spike_mag = STEP4_RATIO * abs(c[i1])
    spike_hits = np.flatnonzero(tr.thenar_y[i3:] <= -spike_mag)
    if len(spike_hits):
        # the spike starts where the negative run leading into it starts
        hit = int(spike_hits[0])
        neg, neg_stop = runs(tr.thenar_y[i3:i3 + hit] < 0)
        i4 = i3 + (int(neg[-1]) if len(neg) and neg_stop[-1] == hit else hit)
    else:
        i4 = len(c)

    overlap, overlap_stop = runs((tr.thenar_y > 0) & (tr.heel_y > 0))
    step2 = bool(np.any(overlap_stop - overlap >= max(1, int(round(STEP2_MIN_S * fs)))))

    return PhaseTimings(
        t_start=0.0,
        t_step1_peak=i1 / fs,
        t_step2_present=step2,
        t_step3_peak=i3 / fs,
        t_step4_start=i4 / fs,
        t_end=len(c) / fs,
    )


@from_valid_inputs()
def combine_channels(segment: StepSegment, phases: PhaseTimings) -> FrictionProfile:
    """Collapse both sites into the single rendering channel.

    Returns a FrictionProfile of thenar_y + heel_y truncated at the
    terminal spike onset (samples at/after it are dropped, since the
    spike is never rendered), with the step's brake and drive peak times.
    """
    tr = segment.trace
    n_keep = int(round(phases.t_step4_start * tr.sample_rate_hz))
    return FrictionProfile(sample_rate_hz=tr.sample_rate_hz,
                           values=(tr.thenar_y + tr.heel_y)[:n_keep],
                           brake_peak_s=phases.t_step1_peak,
                           drive_peak_s=phases.t_step3_peak)
