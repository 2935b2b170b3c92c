"""Gait friction-force capture, impulse-preserving envelope compilation,
and deterministic 1 kHz haptic rendering.

The names below load lazily: ``hapstep.X`` imports X's module on first
access, so ``import hapstep`` alone loads none of the submodules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "calibration": ("CalibrationCurve", "analyze_step_response", "duty_to_force",
                    "fit_calibration", "force_to_duty"),
    "plant": ("PlateModel", "SimRun", "run_closed_loop", "simulate_step_response",
              "step_plate"),
    "profiles": ("FrictionProfile", "ImpulsePair", "SpeedProfileTable",
                 "Triangle", "TriangularProfile", "align_durations", "average_profiles",
                 "compile_triangular", "compute_impulses", "fit_device_scale",
                 "interpolate", "treadmill_correct"),
    "renderer": ("ActuatorCommand", "GaitEvent", "Renderer", "command_stream",
                 "render_events", "to_vibstep"),
    "scores": ("normalize_scores",),
    "segmentation": ("PhaseTimings", "SegmentationConfig", "StepSegment", "combine_channels",
                     "detect_phases", "segment_steps", "select_middle"),
    "trace": ("ForceTrace", "load_trace", "write_trace"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
