"""The package's modules import one another in one direction.

Every import of a sibling module sits at module level, where a reader sees
it, and the graph those imports form has no cycle. A `from .x import` inside
a function is how a cycle hides, so the graph counts it too; a cycle means
that two modules each own part of one decision.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "passevo").glob("*.py"))
PACKAGE = "passevo"


def _siblings(node: ast.AST) -> list[str]:
    """The package modules this node imports, in relative or absolute form."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level <= 1:
        module = ".".join(filter(None, [PACKAGE if node.level else None, node.module]))
        dotted = [f"{module}.{alias.name}" for alias in node.names] if module == PACKAGE else [module]
    else:
        return []
    return [name.split(".")[1] for name in dotted if name.startswith(PACKAGE + ".")]


def _imports(path: Path) -> list[tuple[str | None, int, str]]:
    """(enclosing top-level definition, line, imported module) of each sibling import in a file."""
    found = []

    def visit(node: ast.AST, scope: str | None) -> None:
        if scope is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        found.extend((scope, getattr(node, "lineno", 0), name) for name in _siblings(node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text("utf-8"), filename=str(path)), None)
    return found


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """One import cycle as [a, b, ..., a], or [] if the graph has none."""
    done: set[str] = set()
    path: list[str] = []

    def visit(module: str) -> list[str]:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        path.append(module)
        for target in sorted(graph.get(module, ())):
            if found := visit(target):
                return found
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        if found := visit(module):
            return found
    return []


def _module_graph(paths: list[Path]) -> dict[str, set[str]]:
    """Each module's sibling imports, at any depth: a deferred import still depends on its module."""
    return {path.stem: {name for _, _, name in _imports(path)} for path in paths}


def test_no_function_imports_a_sibling_module():
    nested = [(path.name, scope, line, name) for path in SOURCES
              for scope, line, name in _imports(path) if scope is not None]
    assert nested == []


def test_sibling_imports_form_no_cycle():
    graph = _module_graph(SOURCES)
    assert graph["cli"] >= {"config", "experiment"}, "the guard lost the run layer's imports"
    cycle = _cycle(graph)
    assert not cycle, "import cycle: " + " -> ".join(cycle)


def test_the_guard_sees_nested_imports_and_cycles(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n"
        "from . import b\n"
        "from .c import thing\n"
        "def late():\n"
        "    from .d import other\n",
        "utf-8",
    )
    (tmp_path / "b.py").write_text("from passevo.c import thing\nimport passevo.d\n", "utf-8")
    (tmp_path / "c.py").write_text("from passevo import a\n", "utf-8")
    (tmp_path / "d.py").write_text("import json\n", "utf-8")
    assert _imports(tmp_path / "a.py") == [(None, 2, "b"), (None, 3, "c"), ("late", 5, "d")]
    graph = _module_graph(sorted(tmp_path.glob("*.py")))
    assert graph == {"a": {"b", "c", "d"}, "b": {"c", "d"}, "c": {"a"}, "d": set()}
    assert _cycle(graph) == ["a", "b", "c", "a"]
    graph["c"].clear()
    assert _cycle(graph) == []
