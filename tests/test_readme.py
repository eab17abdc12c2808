"""The README's examples run against the package as it is."""

import re
from pathlib import Path

from passevo import (
    GenerationRecord,
    Patch,
    PatchType,
    apply_individual,
    load_catalog,
    parse_individual,
    simulated_fitnesses,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    section = README.read_text("utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    history, best = namespace["history"], namespace["best"]
    assert all(type(record) is GenerationRecord for record in history)
    assert best in history
    assert best.best_fitness == min(record.best_fitness for record in history)
    pipeline = apply_individual(namespace["baseline"], best.best_individual)
    assert simulated_fitnesses([pipeline], namespace["model"])[0] == best.best_fitness


def test_patch_file_example_parses():
    section = README.read_text("utf-8").split("**Individual (patch) files**", 1)[1]
    text = re.search(r"```\n(.*?)```", section, re.S).group(1)
    individual = parse_individual(text, load_catalog("-gvn\n-sroa\n"))
    assert individual.patches == (
        Patch(PatchType.INSERTION, 0.25, "-gvn"),
        Patch(PatchType.DELETION, 1.0),
        Patch(PatchType.REPLACEMENT, 0.5, "-sroa"),
    )
