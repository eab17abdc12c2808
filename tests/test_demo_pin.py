"""Byte-identity pin for the full simulated demo (configs/simulated.ini).

The digests in simulated_demo_digests.json were recorded with the
full-matrix edit distance and per-token validation on every sequence, so they
hold the trimmed bit-parallel distance and validate-once sequences to the
same artifacts, byte for byte.
"""

import hashlib
import json
from pathlib import Path

from passevo.cli import main

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
