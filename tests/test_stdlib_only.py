"""The package imports nothing outside the standard library."""

import ast
import sys

import pytest

from conftest import SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_passevo(path):
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    allowed = sys.stdlib_module_names | {"passevo"}
    assert [n for n in names if n.split(".")[0] not in allowed] == []
