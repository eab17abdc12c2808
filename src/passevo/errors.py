"""Exception hierarchy shared across the package.

ValidationError covers malformed inputs (files, configs, flags) and maps to
CLI exit code 2; ExecutionError covers failures at run time (broken baseline,
degenerate statistics) and maps to exit code 1.
"""


class PassEvoError(Exception):
    pass


class ValidationError(PassEvoError):
    pass


class ConfigError(ValidationError):
    """A missing or malformed config, catalog, sequence or input file."""


class ExecutionError(PassEvoError):
    pass
