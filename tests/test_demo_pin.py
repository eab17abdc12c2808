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
file only reads.
"""

import hashlib
import json
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
