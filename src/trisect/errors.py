"""Exception types shared across the package.

Plain ValueError is used for argument errors inside the library. The CLI
prints an error and exits with the code of the first row of
``cli.EXIT_CODES`` it is an instance of: ConfigError -> 1, DataError -> 2,
SamplingError -> 3, RuntimeError -> 3, ValueError -> 1.
"""


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


class DataError(Exception):
    """Unreadable, malformed, or unusable input data."""


class SamplingError(Exception):
    """A rejection-sampling budget was exhausted before success."""
