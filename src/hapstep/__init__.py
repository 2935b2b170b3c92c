"""Gait friction-force capture, impulse-preserving envelope compilation,
and deterministic 1 kHz haptic rendering."""

from .calibration import (
    CalibrationCurve,
    StepResponseMetrics,
    analyze_step_response,
    duty_to_force,
    fit_calibration,
    force_to_duty,
)
from .plant import PlateModel, SimRun, run_closed_loop, simulate_step_response, step_plate
from .profiles import (
    FrictionProfile,
    ImpulsePair,
    SpeedProfileTable,
    Triangle,
    TriangularProfile,
    align_durations,
    average_profiles,
    compile_triangular,
    compute_impulses,
    fit_device_scale,
    interpolate,
    treadmill_correct,
)
from .renderer import (
    ActuatorCommand,
    GaitEvent,
    Renderer,
    command_stream,
    render_events,
    to_vibstep,
)
from .scores import normalize_scores
from .segmentation import (
    PhaseTimings,
    SegmentationConfig,
    StepSegment,
    combine_channels,
    detect_phases,
    segment_steps,
    select_middle,
)
from .trace import ForceTrace, TraceMeta, load_trace, write_trace

__version__ = "0.1.0"
