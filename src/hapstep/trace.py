"""Force-trace container and CSV ingest/persist.

Traces store the friction force applied *on the sole*, forward-positive
along the walking direction.  Raw sensor files record the reaction force
measured under the foot, so every force channel is negated exactly once
at ingest; the writer emits sensor-frame values again, making
write -> read the identity.

trace-CSV layout::

    # rate_hz=<float> speed_kmh=<float> participant=<id>
    t,thenar_y,heel_y[,thenar_z,heel_z]
    0.0,0.12,-0.40,...

The header is the ``#`` lines before the column line, holding each of
the three keys above at most once and no other key.
The ``t`` column is optional on ingest (rate may come from the header);
when present its spacing must be uniform to within 1%, and a header rate
must match it to within 1%.  A header rate must be finite and > 0, a
header speed finite and >= 0; a ForceTrace checks these, a finite
duration and a participant without whitespace, so every trace reads back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import textio
from .errors import ConfigError, FormatError

#: acceptable relative deviation of any time step from the median step
TIME_JITTER_TOL = 0.01


@dataclass(frozen=True)
class ForceTrace:
    """Uniformly sampled two-site longitudinal friction force signal of
    one walk, with the walk's header fields."""

    sample_rate_hz: float
    thenar_y: np.ndarray
    heel_y: np.ndarray
    speed_kmh: float
    participant: str
    thenar_z: np.ndarray | None = None
    heel_z: np.ndarray | None = None

    def __post_init__(self):
        if not (self.sample_rate_hz > 0 and math.isfinite(self.sample_rate_hz)):
            raise ConfigError("sample_rate_hz must be positive and finite")
        if not (self.speed_kmh >= 0 and math.isfinite(self.speed_kmh)):
            raise ConfigError("speed_kmh must be finite and >= 0")
        if any(map(str.isspace, self.participant)):
            raise ConfigError(f"participant {self.participant!r} must hold no whitespace")
        object.__setattr__(self, "thenar_y", np.asarray(self.thenar_y, dtype=float))
        object.__setattr__(self, "heel_y", np.asarray(self.heel_y, dtype=float))
        if len(self.thenar_y) != len(self.heel_y):
            raise FormatError("thenar_y and heel_y must have equal length")
        if (self.thenar_z is None) != (self.heel_z is None):
            raise FormatError("Z channels must be present for both sites or neither")
        if self.thenar_z is not None:
            object.__setattr__(self, "thenar_z", np.asarray(self.thenar_z, dtype=float))
            object.__setattr__(self, "heel_z", np.asarray(self.heel_z, dtype=float))
            if len(self.thenar_z) != len(self.thenar_y) or len(self.heel_z) != len(self.thenar_y):
                raise FormatError("all channels must have equal length")
        if not math.isfinite(self.duration_s):
            raise ConfigError("duration_s must be finite")
        for chan in self.channels().values():
            if not np.all(np.isfinite(chan)):
                raise FormatError("force values must be finite")

    def __len__(self):
        return len(self.thenar_y)

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate_hz

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self)) / self.sample_rate_hz

    def channels(self) -> dict[str, np.ndarray]:
        out = {"thenar_y": self.thenar_y, "heel_y": self.heel_y}
        if self.thenar_z is not None:
            out["thenar_z"] = self.thenar_z
            out["heel_z"] = self.heel_z
        return out

    def window(self, start: int, stop: int) -> "ForceTrace":
        """Sub-trace over sample indices [start, stop)."""
        return replace(self, **{k: c[start:stop] for k, c in self.channels().items()})


_Y_COLUMNS = ("t", "thenar_y", "heel_y")
_YZ_COLUMNS = ("t", "thenar_y", "heel_y", "thenar_z", "heel_z")
_HEADER_KEYS = ("rate_hz", "speed_kmh", "participant")


def _parse_header_meta(comments) -> dict[str, str]:
    meta = {}
    for lineno, line in comments:
        for tok in line.lstrip("#").split():
            if "=" not in tok:
                raise FormatError(f"line {lineno}: malformed header token {tok!r}")
            key, value = tok.split("=", 1)
            if key not in _HEADER_KEYS:
                raise FormatError(f"line {lineno}: unknown header key {key!r}")
            if key in meta:
                raise FormatError(f"line {lineno}: header key {key!r} given twice")
            meta[key] = value
    return meta


def _header_float(header_meta: dict[str, str], key: str, default, positive: bool = False):
    """The finite, non-negative (or positive) value of a header key."""
    if key not in header_meta:
        return default
    try:
        value = float(header_meta[key])
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise FormatError(f"bad {key} header value {header_meta[key]!r}")
    return value


def rate_from_times(t: np.ndarray) -> float:
    """Sample rate of a time column of two or more samples, 1 / median
    step.  FormatError unless the column is strictly increasing, every
    step is within TIME_JITTER_TOL of the median and the rate is finite
    and positive: 1 / a subnormal step overflows to inf, and a step past
    the float range (inf) gives 0.

    The median is numpy's own, from one partition at the middle step(s)
    and the last: the middle step or the mean of the two, and none when
    a step is NaN, which sorts last.  It partitions rather than call
    numpy's median, whose NaN check in numpy 2 loads all of
    ``numpy.ma``, about 13 ms and 1.2 MB in each process."""
    with np.errstate(over="ignore", invalid="ignore"):
        dt = np.diff(t)
        mid, odd = divmod(len(dt), 2)
        part = np.partition(dt, [mid, -1] if odd else [mid - 1, mid, -1])
        med = float(part[mid] if odd else (part[mid - 1] + part[mid]) / 2)
        if not med > 0 or np.isnan(part[-1]):
            raise FormatError("time column must be strictly increasing")
        if np.any(np.abs(dt - med) > TIME_JITTER_TOL * med):
            raise FormatError(
                f"non-uniform time spacing beyond {TIME_JITTER_TOL:.0%} jitter")
    rate = 1.0 / med
    if not 0 < rate < math.inf:
        raise FormatError(f"time step {med!r} s has no finite, positive sample rate")
    return rate


def load_trace(source) -> ForceTrace:
    """Parse a trace-CSV stream or path into a validated ForceTrace.

    Raw sensor forces are negated so stored values are sole-frame
    forward-positive.  Raises FormatError on malformed rows (with line
    number), non-uniform or overflowing timing, header/column problems and
    a body with no rows.
    """
    comments, columns, data = textio.read_csv(source)
    header_meta = _parse_header_meta(comments)
    if len(data) == 0:
        raise FormatError("trace file has no data rows")
    if tuple(columns) not in (_Y_COLUMNS, _YZ_COLUMNS, _Y_COLUMNS[1:], _YZ_COLUMNS[1:]):
        raise FormatError(f"unexpected columns {columns}")
    cols = {name: data[:, i] for i, name in enumerate(columns)}

    rate = _header_float(header_meta, "rate_hz", None, positive=True)
    if "t" in cols and len(data) >= 2:
        t_rate = rate_from_times(cols["t"])
        if rate is None:
            rate = t_rate
        elif abs(rate - t_rate) > TIME_JITTER_TOL * t_rate:
            raise FormatError(f"header rate_hz={rate!r} does not match the time "
                              f"column's {t_rate:g} Hz")
    if rate is None:
        raise FormatError("sample rate not declared in header and no time column")

    try:
        return ForceTrace(sample_rate_hz=rate,
                          speed_kmh=_header_float(header_meta, "speed_kmh", 0.0),
                          participant=header_meta.get("participant", "unknown"),
                          **{k: -c for k, c in cols.items() if k != "t"})
    except ConfigError as exc:  # a clock whose duration overflows
        raise FormatError(f"{len(data)} samples at {rate!r} Hz: {exc}") from None


def write_trace(trace: ForceTrace, dest) -> None:
    """Write a ForceTrace as trace-CSV (sensor-frame values)."""
    sensor = [-c for c in trace.channels().values()]
    with textio.opened(dest, "w") as fh:
        fh.write(f"# rate_hz={trace.sample_rate_hz!r} "
                 f"speed_kmh={trace.speed_kmh!r} participant={trace.participant}\n")
        textio.write_blocks(fh, ("t", *trace.channels()), [(trace.times, *sensor)])
