"""Exception hierarchy shared across the toolkit.

Each error class carries the process exit code the CLI maps it to:
2 = bad configuration/usage, 3 = malformed input data, 4 = pipeline
degenerate (valid file, unusable content), 5 = I/O failure.
"""


class HapstepError(Exception):
    exit_code = 1


class ConfigError(HapstepError):
    """Invalid configuration value or unusable argument."""
    exit_code = 2


class FormatError(HapstepError):
    """Malformed input file or record."""
    exit_code = 3


class EmptyInputError(FormatError):
    """Input file has no data rows."""


class IncompleteGridError(FormatError):
    """Score grid is missing one or more stimulus/speed cells."""


class PipelineError(HapstepError):
    """Well-formed input that the pipeline cannot process."""
    exit_code = 4


class InsufficientStepsError(PipelineError):
    """Fewer steps detected than the analysis window requires."""


class PhaseDetectionError(PipelineError):
    """Step lacks the expected brake/drive force pattern."""


class PhaseInconsistencyError(PipelineError):
    """Phase timing falls outside its force sign region."""


class AlignmentError(PipelineError):
    """Profiles passed to averaging do not share a common time base."""


class DegenerateProfileError(PipelineError):
    """Profile has a zero brake or drive impulse; correction undefined."""


class UnderdeterminedFitError(PipelineError):
    """Points fit no rising, finite calibration line: fewer than 2
    distinct duties, a fitted slope <= 0, or a line or r2 past the float
    range."""


class AnalysisError(PipelineError):
    """Step-response log has no detectable command edge."""


class ClockError(PipelineError):
    """Renderer tick clock did not advance monotonically."""


class IOFailureError(HapstepError):
    """Filesystem or socket failure."""
    exit_code = 5
