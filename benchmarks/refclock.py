"""Reference clock: a fixed routine timed before and after every pass.

On a shared 2-CPU virtual host, speed can shift by up to a third from
one minute to the next (the same pure-Python loop took 7.7 ms or
10.4 ms per call, depending on the minute).  Raw seconds from runs minutes apart are then
not comparable, so ``wall_s`` is reported in reference seconds: each
pass's measured seconds times ``REF_NOMINAL_S`` over the time this
routine took right before and after it.  The routine is benchmark code
that never changes, so the scaling cancels the host's drift but not a
change in the program.

Set-up time is mostly loading modules and shared libraries in a fresh
interpreter, which the routine does not track (scaling by it widened
the spread from run to run).  ``setup_s`` is scaled instead by
``IMPORT_NOMINAL_S`` over the time a fresh interpreter takes to run
``IMPORT_REF_CODE``, which imports numpy and standard modules only; on
that host this cut the spread of seven-run medians from 0.14 to 0.02.
"""

from __future__ import annotations

import time

import numpy as np

#: time the routine takes on a host of reference speed, by definition
REF_NOMINAL_S = 0.05
#: time IMPORT_REF_CODE takes on a host of reference speed, by definition
IMPORT_NOMINAL_S = 0.15
#: run in a fresh interpreter; prints its import time in seconds
IMPORT_REF_CODE = """
import time
t0 = time.perf_counter()
import argparse, json, socket, numpy
print(time.perf_counter() - t0)
"""


class _Row:
    __slots__ = ("t", "v")

    def __init__(self, t, v):
        self.t = t
        self.v = v


def _routine() -> float:
    # the program's mix of work: small objects, float repr and parse,
    # dict and list churn, an interpreter loop and a little numpy
    rows = [_Row(i / 1000.0, (i % 97) * 0.013 - 0.5) for i in range(20000)]
    text = "".join(f"{r.t!r},{r.v!r}\n" for r in rows)
    values = [float(x) for line in text.splitlines() for x in line.split(",")]
    arr = np.asarray(values)
    index = {round(x, 3): i for i, x in enumerate(values)}
    acc = 0
    for i in range(100000):
        acc += i * i % 7
    return float(np.interp(arr[:4000], arr[:64], arr[:64]).sum()) + len(index) + acc


def reference_seconds() -> float:
    """Wall time of one run of the reference routine."""
    t0 = time.perf_counter()
    _routine()
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale from measured seconds to reference seconds, from the
    routine's times right before and after the measurement."""
    return REF_NOMINAL_S / (0.5 * (before + after))
