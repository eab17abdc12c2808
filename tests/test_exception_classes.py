"""Every exception class of the package lives in errors.py.

One class per exit code: a new failure is a ValidationError (exit 2) or an
ExecutionError (exit 1) with its own message, not a new subclass. The one
exception class outside errors.py is fitness.EvaluationFailure, which
carries a status inside evaluate and never reaches the CLI.
"""

import ast
import builtins
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "passevo").glob("*.py"))


def _base_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_exception_classes_live_in_errors_py():
    classes = [
        (path.name, node.name, {_base_name(b) for b in node.bases})
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text("utf-8"), filename=str(path)))
        if isinstance(node, ast.ClassDef)
    ]
    exceptions = {
        name for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    for _ in classes:  # each pass reaches one more level of subclassing
        exceptions |= {name for _, name, bases in classes if bases & exceptions}
    found = {(module, name) for module, name, _ in classes if name in exceptions}
    assert found == {
        ("errors.py", "PassEvoError"),
        ("errors.py", "ValidationError"),
        ("errors.py", "ConfigError"),
        ("errors.py", "ExecutionError"),
        ("fitness.py", "EvaluationFailure"),
    }
