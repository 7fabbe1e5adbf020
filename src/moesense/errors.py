"""Exception taxonomy shared across the package.

Each category carries the exit code the CLI returns for it, so library code
should raise the most specific class that applies.
"""

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_IO = 4
EXIT_FORMAT = 5
EXIT_TRAINING = 6


class MoeSenseError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_INPUT


class ConfigurationError(MoeSenseError):
    """Invalid configuration: scenario parameters, registry entries, missing templates."""

    exit_code = EXIT_CONFIG


class InputError(MoeSenseError):
    """Malformed or incompatible runtime input (wrong length, kind, too few packets)."""


class RateError(InputError):
    """Requested communication rate exceeds what the stream can provide."""


class TrainingError(MoeSenseError):
    """Dataset unfit for training (empty, missing classes, mixed feature kinds)."""

    exit_code = EXIT_TRAINING


class FormatError(MoeSenseError):
    """Corrupt or incompatible serialized file (bad magic, version, truncation)."""

    exit_code = EXIT_FORMAT
