"""Exception hierarchy shared across the toolkit.

Each error class carries the process exit code the CLI maps it to:
2 = bad configuration/usage, 3 = malformed input data, 4 = pipeline
degenerate (valid file, unusable content), 5 = I/O failure.  The
message tells failures of one class apart; PhaseDetectionError is the
one subclass, the step that compile skips.
"""


class HapstepError(Exception):
    exit_code = 1


class ConfigError(HapstepError):
    """Invalid configuration value or unusable argument."""
    exit_code = 2


class FormatError(HapstepError):
    """Malformed input file or record: no data rows, an incomplete
    score grid, a bad value."""
    exit_code = 3


class PipelineError(HapstepError):
    """Well-formed input that the pipeline cannot process: too few
    steps, misaligned or degenerate profiles, no rising calibration
    line, no command edge, events out of time order."""
    exit_code = 4


class PhaseDetectionError(PipelineError):
    """Step lacks the expected brake/drive force pattern."""


class IOFailureError(HapstepError):
    """Filesystem or socket failure."""
    exit_code = 5
