"""Byte-identity pins for the simulated backend.

The digests in simulated_demo_digests.json were recorded with the
full-matrix edit distance and per-token validation on every sequence, so they
hold the lane-packed bit-parallel distance, with each lane's shared ends
skipped, and validate-once sequences to the same artifacts, byte for byte,
and likewise the GA operators' inline getrandbits draws, the loop that
Random._randbelow runs (test_evolution.py's
test_direct_draws_match_the_public_random_methods guards it), the
module-level enum constants, the heapq.nsmallest elites, the slotted
value types (Patch, Individual, PassSequence), which the inner loops fill
through their slot descriptors, and the memo that keeps each simulated
candidate's fitness as a float, with no EvaluationRecord.
The low-reuse sim-fresh configuration, far from its target and with few
repeats, is pinned against the benchmark's committed reference, which this
file only reads. The demo's digests hold on every CPython from 3.10 to 3.13:
the demo is also run under each other such interpreter that can be found.
"""

import glob
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from passevo.cli import main
from passevo.config import load_config
from passevo.experiment import run_trials

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((Path(__file__).parent / "simulated_demo_digests.json").read_text("utf-8"))


def test_simulated_demo_artifacts_are_byte_identical(tmp_path, capsys):
    out = tmp_path / "simulated-demo"
    assert main(["evolve", "--config", str(ROOT / "configs" / "simulated.ini"), "--output-dir", str(out)]) == 0
    capsys.readouterr()
    actual = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert actual == DIGESTS


def _other_cpythons() -> dict[tuple[int, ...], str]:
    """One interpreter per CPython version from 3.10 to 3.13, other than this one, that starts:
    python3.10 to python3.13 on PATH, then pyenv's versions."""
    found = {}
    candidates = [f"python3.{minor}" for minor in range(10, 14)]
    candidates += sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/3.1*/bin/python3")))
    for exe in candidates:
        try:
            probe = subprocess.run(
                [exe, "-c", "import sys; print(sys.implementation.name, *sys.version_info[:3])"],
                capture_output=True, text=True, timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0:
            name, *version = probe.stdout.split()
            version = tuple(map(int, version))
            if name == "cpython" and (3, 10) <= version < (3, 14):
                found.setdefault(version, exe)
    found.pop(tuple(sys.version_info[:3]), None)
    return found


def test_simulated_demo_is_byte_identical_under_every_other_cpython(tmp_path):
    interpreters = _other_cpythons()
    if not interpreters:
        pytest.skip("no other CPython 3.10-3.13 found")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    mismatched = {}
    for version, exe in interpreters.items():
        out = tmp_path / "-".join(map(str, version))
        argv = [exe, "-m", "passevo.cli", "evolve", "--config", str(ROOT / "configs" / "simulated.ini"),
                "--output-dir", str(out)]
        run = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=600)
        assert run.returncode == 0, (exe, run.stderr)
        actual = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DIGESTS}
        mismatched[exe] = sorted(name for name in DIGESTS if actual[name] != DIGESTS[name])
    assert mismatched == dict.fromkeys(interpreters.values(), [])


def test_pinned_digests_agree_with_benchmark_reference():
    # perfbench's sim-demo unit for seed 42 + k is demo trial k, written as trial_0
    reference = json.loads((ROOT / "perfbench" / "sim" / "reference.json").read_text("utf-8"))
    per_seed = reference["sim-demo"]["digests"]
    for k in range(8):
        for file in ("best_individual.patch", "best_sequence.txt", "history.csv"):
            assert per_seed[str(42 + k)]["trial_0/" + file] == DIGESTS[f"trial_{k}/{file}"]


@pytest.mark.parametrize("seed", range(42, 50))
def test_sim_fresh_artifacts_match_benchmark_reference(tmp_path, seed):
    expected = json.loads((ROOT / "perfbench" / "sim" / "reference.json").read_text("utf-8"))["sim-fresh"]
    cfg = load_config(ROOT / "perfbench" / "sim" / "sim-fresh.ini")
    out = tmp_path / "sim-fresh"
    run_trials(replace(
        cfg, catalog_path=str(ROOT / cfg.catalog_path), baseline_path=str(ROOT / cfg.baseline_path),
        output_dir=str(out), trials=1, seeds=(seed,),
    ))
    digests = expected["digests"][str(seed)]
    actual = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests}
    assert actual == digests
    written = {str(path.relative_to(out)) for path in (out / "trial_0").iterdir()} | {"summary.json"}
    assert written == set(digests)
