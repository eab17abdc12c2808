"""Correctness oracles that share no code with passevo.

Each check takes the artifacts a workload left behind and an answer the
benchmark computes on its own (its own Levenshtein, its own patch
semantics, its own subset-sum DP, committed digests), and returns a list of
human-readable problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import subprocess
from pathlib import Path

DIGESTED_FILES = ("history.csv", "best_individual.patch", "best_sequence.txt")


def read_tokens(path: Path) -> list[str]:
    """One token per line, '#' comment lines and blank lines skipped."""
    lines = (line.strip() for line in path.read_text("utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def levenshtein(a: list[str], b: list[str]) -> int:
    """Edit distance over list elements, one full DP table."""
    rows, cols = len(a) + 1, len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost)
    return table[-1][-1]


def apply_patch_text(baseline: list[str], text: str) -> list[str]:
    """Apply a serialized genome with the relative-position semantics of the paper.

    Insertions address the len+1 gaps, deletions and replacements the len
    elements; each position is resolved against the sequence as already
    edited, and an edit of an empty sequence other than insertion does nothing.
    """
    seq = list(baseline)
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        kind, position = parts[0], float(parts[1])
        if kind == "insert":
            seq.insert(min(int(position * (len(seq) + 1)), len(seq)), parts[2])
            continue
        if not seq:
            continue
        index = min(int(position * len(seq)), len(seq) - 1)
        if kind == "delete":
            del seq[index]
        elif kind == "replace":
            seq[index] = parts[2]
        else:
            raise ValueError(f"unknown patch kind {kind!r}")
    return seq


def sim_fitness(seq: list[str], target: list[str], base_runtime: float) -> float:
    return base_runtime * (1.0 + levenshtein(seq, target) / max(len(target), 1))


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of summary.json and of each trial's history and best patch files."""
    names = ["summary.json"] + sorted(
        f"{trial.name}/{name}" for trial in out_dir.glob("trial_*") for name in DIGESTED_FILES
    )
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def check_sim_run(
    out_dir: Path,
    baseline: list[str],
    target: list[str],
    base_runtime: float,
    expected_trials: int,
    expected_generations: int,
    reference_digests: dict[str, str] | None = None,
) -> list[str]:
    """Recompute every trial's baseline and best fitness from the written patches."""
    problems: list[str] = []
    summary = json.loads((out_dir / "summary.json").read_text("utf-8"))
    trials = summary["trials"]
    if len(trials) != expected_trials:
        problems.append(f"summary lists {len(trials)} trials, expected {expected_trials}")
    baseline_fitness = sim_fitness(baseline, target, base_runtime)
    improvements = []
    for row in trials:
        trial_dir = out_dir / f"trial_{row['trial_index']}"
        if row.get("status") != "ok":
            problems.append(f"{trial_dir.name}: status {row.get('status')!r}")
            continue
        best = apply_patch_text(baseline, (trial_dir / "best_individual.patch").read_text("utf-8"))
        if best != read_tokens(trial_dir / "best_sequence.txt"):
            problems.append(f"{trial_dir.name}: best_sequence.txt is not the best patch applied to the baseline")
        expected_best = sim_fitness(best, target, base_runtime)
        if not math.isclose(row["best_fitness"], expected_best, rel_tol=1e-12):
            problems.append(f"{trial_dir.name}: best_fitness {row['best_fitness']!r}, recomputed {expected_best!r}")
        if not math.isclose(row["baseline_fitness"], baseline_fitness, rel_tol=1e-12):
            problems.append(
                f"{trial_dir.name}: baseline_fitness {row['baseline_fitness']!r}, recomputed {baseline_fitness!r}"
            )
        with (trial_dir / "history.csv").open(newline="", encoding="utf-8") as fh:
            history = list(csv.DictReader(fh))
        if len(history) != expected_generations:
            problems.append(f"{trial_dir.name}: {len(history)} generations, expected {expected_generations}")
        elif min(float(r["best_fitness"]) for r in history) != row["best_fitness"]:
            problems.append(f"{trial_dir.name}: history.csv best differs from summary.json")
        improvements.append((baseline_fitness - expected_best) / baseline_fitness * 100.0)
    reported = (summary.get("summary") or {}).get("mean_improvement")
    if improvements and (
        reported is None or not math.isclose(reported, sum(improvements) / len(improvements), abs_tol=1e-9)
    ):
        problems.append(f"mean_improvement {reported!r}, recomputed {sum(improvements) / len(improvements)!r}")
    if reference_digests is not None:
        actual = artifact_digests(out_dir)
        for name in sorted(set(reference_digests) | set(actual)):
            if reference_digests.get(name) != actual.get(name):
                problems.append(f"{name}: digest differs from the committed reference")
    return problems


def lcg_values(count: int = 26, state: int = 123456789) -> list[int]:
    """The input set subset_sum.ll draws: (lcg % 1000) + 1 with 32-bit wraparound."""
    values = []
    for _ in range(count):
        state = (state * 1664525 + 1013904223) & 0xFFFFFFFF
        values.append(state % 1000 + 1)
    return values


def subset_sum_expected_output() -> str:
    """What subset_sum.ll must print, by counting subsets with a sum-indexed DP."""
    values = lcg_values()
    target = sum(values) // 3
    ways = [1] + [0] * target
    for value in values:
        for total in range(target, value - 1, -1):
            ways[total] += ways[total - value]
    return f"subsets hitting {target}: {ways[target]}\n"


def check_program_output(output: str, expected: str | None = None) -> list[str]:
    expected = subset_sum_expected_output() if expected is None else expected
    if output != expected:
        return [f"program printed {output!r}, expected {expected!r}"]
    return []


def build_and_run(source: Path, passes: list[str], build_dir: Path, timeout: float = 60.0) -> str:
    """Compile `source` with `passes` by calling opt, llc and gcc directly; return stdout."""
    build_dir.mkdir(parents=True, exist_ok=True)
    optimized, asm, exe = build_dir / "oracle.opt.ll", build_dir / "oracle.s", build_dir / "oracle.bin"
    for argv in (
        ["opt", "-S", "-enable-new-pm=0", *passes, str(source), "-o", str(optimized)],
        ["llc", "-O2", str(optimized), "-o", str(asm)],
        ["gcc", "-no-pie", str(asm), "-o", str(exe)],
        [str(exe)],
    ):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout
