"""Every process the package starts goes through fitness.time_execution.

time_execution starts each process in a new session and kills its whole
process group before every reap, after an exit, a timeout or an interrupt
alike, so no build stage or timed run leaves a process behind, except one
that left the group (a daemon). Any other use of subprocess, os.system,
os.popen, os.exec*, os.spawn* or os.posix_spawn* would start one outside
that rule.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "passevo").glob("*.py"))
OS_STARTERS = ("system", "popen", "exec", "spawn", "posix_spawn", "fork")


def _starters(node: ast.AST) -> list[str]:
    """The process-starting names that this node uses, imports or hides behind an alias."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        pairs = [(node.value.id, node.attr)]
    elif isinstance(node, ast.ImportFrom):
        pairs = [(node.module, alias.name) for alias in node.names]
    elif isinstance(node, ast.Import):
        return [f"{alias.name} as {alias.asname}" for alias in node.names
                if alias.asname and alias.name in ("os", "subprocess")]
    else:
        return []
    return [f"{module}.{name}" for module, name in pairs
            if module == "subprocess" or (module == "os" and name.startswith(OS_STARTERS))]


def _sites(path: Path) -> list[tuple[str, str | None, int, str]]:
    """(module, enclosing top-level definition, line, name) of each process-starting name."""
    found = []

    def visit(node: ast.AST, scope: str | None) -> None:
        if scope is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        found.extend((path.name, scope, getattr(node, "lineno", 0), name) for name in _starters(node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text("utf-8"), filename=str(path)), None)
    return found


def test_only_time_execution_starts_processes():
    sites = [site for path in SOURCES for site in _sites(path)]
    assert [site for site in sites if site[:2] != ("fitness.py", "time_execution")] == []
    assert any(site[:2] == ("fitness.py", "time_execution") for site in sites), "the guard lost the spawn site"


def test_the_guard_sees_every_form_of_process_start(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n"
        "import subprocess as sp\n"
        "from subprocess import run\n"
        "from os import execvp, path\n"
        "def build():\n"
        "    os.system('cc')\n"
        "    os.posix_spawnp('cc', ['cc'], {})\n"
        "    return subprocess.check_output(['cc'])\n",
        "utf-8",
    )
    assert [(scope, line, name) for _, scope, line, name in _sites(module)] == [
        (None, 2, "subprocess as sp"),
        (None, 3, "subprocess.run"),
        (None, 4, "os.execvp"),
        ("build", 6, "os.system"),
        ("build", 7, "os.posix_spawnp"),
        ("build", 8, "subprocess.check_output"),
    ]
