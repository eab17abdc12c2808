"""Every exception class of the package lives in errors.py.

One class per exit code: every bad input, a file, config line, flag or
argument, is a ValidationError (exit 2), and every run-time failure an
ExecutionError (exit 1), each with its own message, never a subclass;
PassEvoError is only their common base. The one exception class outside
errors.py is fitness.EvaluationFailure, which carries a status inside
evaluate and never reaches the CLI.
"""

import ast
import builtins

from conftest import SOURCES


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
        ("errors.py", "ExecutionError"),
        ("fitness.py", "EvaluationFailure"),
    }
