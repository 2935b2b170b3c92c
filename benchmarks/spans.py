"""Per-layer tracing from outside the program.

A traced pass replaces the public functions of each hapstep module, at
the module attribute its callers look up, with a wrapper that records a
span (name, start, end, parent span, run id).  Generators are traced per
``next()``.  Spans stay in compact arrays in memory and are written out
once, when the benchmark ends; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import Counter

import numpy as np

_now = time.perf_counter


def _rows(tracer, args, kwargs, result):
    tracer.counts["trace.load_trace.rows"] += len(result)


def _bytes(tracer, args, kwargs, result):
    dest = args[1] if len(args) > 1 else kwargs.get("dest")
    if isinstance(dest, (str, os.PathLike)):
        tracer.counts["trace.write_trace.bytes"] += os.path.getsize(dest)


def _samples(tracer, args, kwargs, result):
    tracer.counts["segmentation.segment_steps.samples"] += len(args[0])


# (module, attribute, span name, kind, counter).  A function imported by
# name into several modules is wrapped in each, under one span name.
# kind: "call" for functions, "iter" for generators (one span per
# next()), "method" for a method on the named class.
LAYER_FUNCTIONS = (
    ("hapstep.trace", "load_trace", "trace.load_trace", "call", _rows),
    ("hapstep.trace", "write_trace", "trace.write_trace", "call", _bytes),
    ("hapstep.segmentation", "segment_steps", "segmentation.segment_steps", "call", _samples),
    ("hapstep.segmentation", "detect_phases", "segmentation.detect_phases", "call", None),
    ("hapstep.segmentation", "combine_channels", "segmentation.combine_channels", "call", None),
    ("hapstep.profiles", "align_durations", "profiles.align_durations", "call", None),
    ("hapstep.profiles", "average_profiles", "profiles.average_profiles", "call", None),
    ("hapstep.profiles", "treadmill_correct", "profiles.treadmill_correct", "call", None),
    ("hapstep.profiles", "compile_triangular", "profiles.compile_triangular", "call", None),
    ("hapstep.profiles", "fit_device_scale", "profiles.fit_device_scale", "call", None),
    ("hapstep.profiles", "save_table", "profiles.save_table", "call", None),
    ("hapstep.profiles", "load_table", "profiles.load_table", "call", None),
    ("hapstep.renderer", "interpolate", "profiles.interpolate", "call", None),
    ("hapstep.plant", "interpolate", "profiles.interpolate", "call", None),
    ("hapstep.calibration", "fit_calibration", "calibration.fit_calibration", "call", None),
    ("hapstep.renderer", "force_to_duty", "calibration.force_to_duty", "call", None),
    ("hapstep.plant", "analyze_step_response", "calibration.analyze_step_response", "call", None),
    ("hapstep.renderer", "command_stream", "renderer.command_stream", "iter", None),
    ("hapstep.plant", "command_stream", "renderer.command_stream", "iter", None),
    ("hapstep.renderer", "events_from_ndjson", "renderer.events_from_ndjson", "iter", None),
    ("hapstep.renderer", "Renderer.tick", "renderer.tick", "method", None),
    ("hapstep.renderer", "Renderer.on_event", "renderer.on_event", "method", None),
    ("hapstep.renderer", "to_vibstep", "renderer.to_vibstep", "call", None),
    ("hapstep.plant", "run_closed_loop", "plant.run_closed_loop", "call", None),
    ("hapstep.plant", "step_plate", "plant.step_plate", "call", None),
    ("hapstep.plant", "simulate_step_response", "plant.simulate_step_response", "call", None),
    ("hapstep.plant", "save_sim_run", "plant.save_sim_run", "call", None),
)

CLI_SUBCOMMANDS = ("ingest", "compile", "calibrate", "render", "vibstep", "simulate")


class _TimedIter:
    """Iterator proxy that records one span per ``next()``."""

    __slots__ = ("_tracer", "_nid", "_it")

    def __init__(self, tracer, nid, it):
        self._tracer, self._nid, self._it = tracer, nid, iter(it)

    def __iter__(self):
        return self

    def __next__(self):
        i = self._tracer.open(self._nid)
        try:
            return next(self._it)
        finally:
            self._tracer.close(i)


class Tracer:
    """In-memory span recorder; one instance per benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.counts: Counter = Counter()
        self.run_counts: list[Counter] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.run_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(_now())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _now()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    # -- patching -------------------------------------------------------

    def _wrap(self, orig, nid, kind, counter):
        tracer = self
        if kind == "iter":
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                return _TimedIter(tracer, nid, orig(*args, **kwargs))
            return wrapper

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            i = tracer.open(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(i)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Start a traced run: wrap every layer function."""
        assert not self._patches, "tracer already installed"
        self.run_id += 1
        self.counts = Counter()
        for sub in CLI_SUBCOMMANDS:
            self.name_id(f"cli.{sub}")
        for modname, attr, name, kind, counter in LAYER_FUNCTIONS:
            owner = importlib.import_module(modname)
            if kind == "method":
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, self.name_id(name), kind, counter))
            self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        """End the traced run and restore the original functions."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self.run_counts.append(self.counts)

    # -- results --------------------------------------------------------

    def per_run(self) -> list[dict[str, tuple[int, float, float]]]:
        """For each traced run: span name -> (calls, total s, self s).

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the workload is single
        threaded.
        """
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        run = np.frombuffer(self.run, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        n_names = len(self.names)
        key = run.astype(np.int64) * n_names + name
        size = (self.run_id + 1) * n_names
        calls = np.bincount(key, minlength=size).reshape(-1, n_names)
        total = np.bincount(key, weights=dur, minlength=size).reshape(-1, n_names)
        selft = np.bincount(key, weights=own, minlength=size).reshape(-1, n_names)
        return [
            {nm: (int(calls[r, j]), float(total[r, j]), float(selft[r, j]))
             for j, nm in enumerate(self.names)}
            for r in range(self.run_id + 1)
        ]

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 run=np.frombuffer(self.run, dtype=np.int32))


class _Span:
    __slots__ = ("_tracer", "_nid", "_i")

    def __init__(self, tracer, nid):
        self._tracer, self._nid = tracer, nid

    def __enter__(self):
        self._i = self._tracer.open(self._nid)
        return self

    def __exit__(self, *exc):
        self._tracer.close(self._i)
        return False
