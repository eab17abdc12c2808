"""The package's three exception classes and its readers of user text.

PassEvoError, never raised itself, is the base for library callers. A
ValidationError (bad input: a missing, unreadable or malformed file,
config, flag or argument) makes the CLI exit 2. An ExecutionError (a
failure at run time: broken baseline, degenerate statistics) exits 1.
read_input reads a user-supplied file; input_lines splits line-based text
into fields, skipping blank and '#' comment lines.
"""

from pathlib import Path


class PassEvoError(Exception):
    pass


class ValidationError(PassEvoError):
    pass


class ExecutionError(PassEvoError):
    pass


def require_file(path: str | Path, what: str) -> Path:
    """The path as a Path; ValidationError if it names no regular file."""
    file = Path(path)
    if not file.is_file():
        raise ValidationError(f"{what} file not found: {path}")
    return file


def read_input(path: str | Path, what: str) -> str:
    """Read a user-supplied text file as UTF-8.

    A missing, unreadable or undecodable file is a ValidationError naming it.
    """
    try:
        return require_file(path, what).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc


def input_lines(text: str):
    """Yield (line_number, fields) for each line that is neither blank nor
    a '#' comment; line numbers count from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split()
