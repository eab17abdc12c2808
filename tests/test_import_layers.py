"""The package's modules import one another in one direction.

Every import of a sibling module sits at module level, where a reader sees
it, and the graph those imports form has no cycle. A `from .x import` inside
a function is how a cycle hides, so the graph counts it too; a cycle means
that two modules each own part of one decision.
"""

import ast
from pathlib import Path

from conftest import SOURCES, find_sites

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


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """One import cycle as [a, b, ..., a], or [] if the graph has none."""
    done: set[str] = set()
    path: list[str] = []

    def follow(module: str) -> list[str]:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        path.append(module)
        for target in sorted(graph.get(module, ())):
            if found := follow(target):
                return found
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        if found := follow(module):
            return found
    return []


def _module_graph(paths: list[Path]) -> dict[str, set[str]]:
    """Each module's sibling imports, at any depth: a deferred import still depends on its module."""
    return {path.stem: {name for _, _, _, name in find_sites(path, _siblings)} for path in paths}


def test_no_function_imports_a_sibling_module():
    nested = [site for path in SOURCES for site in find_sites(path, _siblings) if site[1] is not None]
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
    assert [site[1:] for site in find_sites(tmp_path / "a.py", _siblings)] == [
        (None, 2, "b"), (None, 3, "c"), ("late", 5, "d")]
    graph = _module_graph(sorted(tmp_path.glob("*.py")))
    assert graph == {"a": {"b", "c", "d"}, "b": {"c", "d"}, "c": {"a"}, "d": set()}
    assert _cycle(graph) == ["a", "b", "c", "a"]
    graph["c"].clear()
    assert _cycle(graph) == []
