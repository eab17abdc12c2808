"""Every process the package starts goes through fitness.time_execution.

time_execution starts each process in a new session and kills its whole
process group before every reap, after an exit, a timeout or an interrupt
alike, so no build stage or timed run leaves a process behind, except one
that left the group (a daemon). Any other use of subprocess, os.system,
os.popen, os.exec*, os.spawn* or os.posix_spawn* would start one outside
that rule.

The tests see those processes through one seam: only conftest's `processes`
fixture replaces fitness.time_execution, so each stage's stand-in is
stated once. They score a candidate through one seam too: only conftest's
`Evaluator` calls fitness.evaluate or fitness.build_executable, so what an
evaluation needs is set up in one place.
"""

import ast

from conftest import SOURCES, TESTS, find_sites

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


def _replacements(node: ast.AST) -> list[str]:
    """`time_execution` replaced on a module: by a setattr that names it, or by assignment to the attribute."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "setattr":
        names = [arg.value for arg in node.args[:2] if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
        return ["setattr" for name in names if name.split(".")[-1] == "time_execution"]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return ["assignment" for target in targets if isinstance(target, ast.Attribute) and target.attr == "time_execution"]


def _scorings(node: ast.AST) -> list[str]:
    """A call of `evaluate` or `build_executable`, by its name or as an attribute."""
    name = getattr(node.func, "attr", getattr(node.func, "id", None)) if isinstance(node, ast.Call) else None
    return [name] if name in ("evaluate", "build_executable") else []


def test_only_time_execution_starts_processes():
    sites = [site for path in SOURCES for site in find_sites(path, _starters)]
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
    assert [(scope, line, name) for _, scope, line, name in find_sites(module, _starters)] == [
        (None, 2, "subprocess as sp"),
        (None, 3, "subprocess.run"),
        (None, 4, "os.execvp"),
        ("build", 6, "os.system"),
        ("build", 7, "os.posix_spawnp"),
        ("build", 8, "subprocess.check_output"),
    ]


# a test module with each form of the two guarded uses below, and two lookalikes
_SYNTHETIC_TEST = (
    "import passevo.fitness as fitness_mod\n"
    "def test(monkeypatch):\n"
    "    monkeypatch.setattr(fitness_mod, 'time_execution', None)\n"
    "    monkeypatch.setattr('passevo.fitness.time_execution', None)\n"
    "    setattr(fitness_mod, 'time_execution', None)\n"
    "    fitness_mod.time_execution = None\n"
    "    monkeypatch.setattr(fitness_mod, 'hashlib', None)\n"
    "    real = fitness_mod.time_execution\n"
    "    fitness_mod.evaluate(seq, cfg, cache)\n"
    "    build_executable(seq, cfg, build_dir, cache)\n"
)


def test_only_conftest_replaces_time_execution(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(_SYNTHETIC_TEST, "utf-8")
    assert [(line, name) for _, _, line, name in find_sites(module, _replacements)] == [
        (3, "setattr"), (4, "setattr"), (5, "setattr"), (6, "assignment")]
    sites = [site for path in sorted(TESTS.glob("*.py")) for site in find_sites(path, _replacements)]
    assert [site[:2] for site in sites] == [("conftest.py", "processes")]


def test_only_the_evaluator_scores_external_candidates(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(_SYNTHETIC_TEST, "utf-8")
    assert [(line, name) for _, _, line, name in find_sites(module, _scorings)] == [
        (9, "evaluate"), (10, "build_executable")]
    sites = [site for path in sorted(TESTS.glob("*.py")) for site in find_sites(path, _scorings)]
    assert [(file, scope, name) for file, scope, _, name in sites] == [
        ("conftest.py", "Evaluator", "evaluate"), ("conftest.py", "Evaluator", "build_executable")]
