"""Synthetic walk generator with analytic ground truth.

Each synthetic step is a heel brake triangle, a thenar drive triangle,
and a terminal thenar load spike, separated by quiet gaps.  Because
every ramp is analytic, the generator can state threshold-crossing
times and phase landmarks in closed form, independent of how the
segmentation code finds them; tests use those values as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .trace import ForceTrace


@dataclass(frozen=True)
class StepShape:
    brake_dur_s: float = 0.36
    brake_peak_n: float = 1.2
    drive_dur_s: float = 0.48
    drive_peak_n: float = 1.6
    spike_dur_s: float = 0.06
    spike_peak_n: float = 6.0
    step2_overlap_s: float = 0.0  # heel stays positive this long into the drive

    @property
    def duration_s(self) -> float:
        return self.brake_dur_s + self.drive_dur_s + self.spike_dur_s

    # analytic landmarks, relative to step start (sole frame)
    @property
    def t_brake_peak(self) -> float:
        return self.brake_dur_s / 2

    @property
    def t_spike_start(self) -> float:
        return self.brake_dur_s + self.drive_dur_s

    def onset_crossing_s(self, threshold: float) -> float:
        """Time the combined magnitude first reaches ``threshold``."""
        return threshold * self.t_brake_peak / self.brake_peak_n

    def release_crossing_s(self, threshold: float) -> float:
        """Time the trailing spike magnitude falls below ``threshold``."""
        half = self.spike_dur_s / 2
        return self.duration_s - threshold * half / self.spike_peak_n


def _triangle(t: np.ndarray, t0: float, t1: float, t2: float, peak: float) -> np.ndarray:
    return np.interp(t, [t0, t1, t2], [0.0, peak, 0.0], left=0.0, right=0.0)


def step_channels(shape: StepShape, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """(thenar_y, heel_y) arrays for one step, forward-positive."""
    n = int(round(shape.duration_s * fs))
    t = np.arange(n) / fs
    bd, dd, sd = shape.brake_dur_s, shape.drive_dur_s, shape.spike_dur_s
    heel = _triangle(t, 0.0, bd / 2, bd, -shape.brake_peak_n)
    if shape.step2_overlap_s > 0:
        heel = heel + _triangle(t, bd, bd + shape.step2_overlap_s / 2,
                                bd + shape.step2_overlap_s,
                                0.3 * shape.drive_peak_n)
    thenar = _triangle(t, bd, bd + dd / 2, bd + dd, shape.drive_peak_n)
    thenar = thenar + _triangle(t, bd + dd, bd + dd + sd / 2, bd + dd + sd,
                                -shape.spike_peak_n)
    return thenar, heel


@dataclass(frozen=True)
class StepTruth:
    start_s: float          # step start in the walk
    shape: StepShape

    def onset_s(self, threshold: float) -> float:
        return self.start_s + self.shape.onset_crossing_s(threshold)

    def close_s(self, threshold: float) -> float:
        return self.start_s + self.shape.release_crossing_s(threshold)


def synthetic_walk(fs: float = 1000.0, n_steps: int = 30,
                   gap_s: float = 0.30, lead_s: float = 0.25,
                   shape: StepShape | None = None,
                   speed_kmh: float = 2.5, participant: str = "sim",
                   rng: np.random.Generator | None = None,
                   jitter: float = 0.0) -> tuple[ForceTrace, list[StepTruth]]:
    """Build an n-step walk trace plus per-step analytic ground truth.

    ``jitter`` scales random per-step variation of durations and peaks
    (e.g. 0.1 for +-10%); the returned truths carry each step's actual
    shape.
    """
    shape = shape or shape_for_speed(speed_kmh)
    rng = rng or np.random.default_rng(0)

    chunks_t, chunks_h, truths = [], [], []
    cursor = int(round(lead_s * fs))
    chunks_t.append(np.zeros(cursor))
    chunks_h.append(np.zeros(cursor))
    for _ in range(n_steps):
        s = shape
        if jitter > 0:
            wob = lambda x: x * (1.0 + jitter * rng.uniform(-1.0, 1.0))
            s = replace(shape,
                        brake_dur_s=wob(shape.brake_dur_s),
                        brake_peak_n=wob(shape.brake_peak_n),
                        drive_dur_s=wob(shape.drive_dur_s),
                        drive_peak_n=wob(shape.drive_peak_n),
                        spike_peak_n=wob(shape.spike_peak_n))
        thenar, heel = step_channels(s, fs)
        truths.append(StepTruth(start_s=cursor / fs, shape=s))
        chunks_t.append(thenar)
        chunks_h.append(heel)
        cursor += len(thenar)
        gap = int(round(gap_s * fs))
        chunks_t.append(np.zeros(gap))
        chunks_h.append(np.zeros(gap))
        cursor += gap

    return ForceTrace(sample_rate_hz=fs,
                      thenar_y=np.concatenate(chunks_t),
                      heel_y=np.concatenate(chunks_h),
                      speed_kmh=speed_kmh, participant=participant), truths


def shape_for_speed(speed_kmh: float) -> StepShape:
    """Plausible step shape vs walking speed: faster walking shortens
    the stance phases and strengthens the kicks."""
    ref = 2.5
    scale_t = (ref / speed_kmh) ** 0.35
    scale_f = (speed_kmh / ref) ** 0.5
    return StepShape(
        brake_dur_s=0.36 * scale_t,
        brake_peak_n=1.2 * scale_f,
        drive_dur_s=0.48 * scale_t,
        drive_peak_n=1.6 * scale_f,
        spike_dur_s=0.06,
        spike_peak_n=6.0 * scale_f,
        step2_overlap_s=0.05 if speed_kmh < 2.0 else 0.0,
    )
