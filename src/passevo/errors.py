"""Exception hierarchy shared across the package, and read_input, the one
reader of user-supplied text files.

ValidationError covers malformed inputs (files, configs, flags) and maps to
CLI exit code 2; ExecutionError covers failures at run time (broken baseline,
degenerate statistics) and maps to exit code 1.
"""

from pathlib import Path


class PassEvoError(Exception):
    pass


class ValidationError(PassEvoError):
    pass


class ConfigError(ValidationError):
    """A missing or malformed config, catalog, sequence or input file."""


class ExecutionError(PassEvoError):
    pass


def require_file(path: str | Path, what: str) -> Path:
    """The path as a Path; ConfigError if it names no regular file."""
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    return file


def read_input(path: str | Path, what: str) -> str:
    """Read a user-supplied text file as UTF-8.

    A missing, unreadable or undecodable file is a ConfigError naming it.
    """
    try:
        return require_file(path, what).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
