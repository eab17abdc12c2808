"""Tests for the benchmark itself: tiny runs of every workload, oracles that
reject wrong answers, hooks that survive a missing target, and the exits
for a missing toolchain or a missing passevo.

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
HAVE_LLVM = all(shutil.which(tool) for tool in workloads.LLVM_TOOLS)


def run_bench(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    if workload == "llvm14-replay" and not HAVE_LLVM:
        pytest.skip("opt, llc or gcc not on PATH")
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_levenshtein_known_values():
    assert oracles.levenshtein(list("kitten"), list("sitting")) == 3
    assert oracles.levenshtein([], ["-a", "-b"]) == 2
    assert oracles.levenshtein(["-a", "-b"], ["-a", "-b"]) == 0


def test_patch_semantics_reference():
    base = ["-a", "-b", "-c"]
    assert oracles.apply_patch_text(base, "insert 1.0 -x\n") == ["-a", "-b", "-c", "-x"]
    assert oracles.apply_patch_text(base, "delete 0.5\nreplace 0.0 -y\n") == ["-y", "-c"]
    assert oracles.apply_patch_text([], "delete 0.3\nreplace 0.9 -z\n") == []


@pytest.fixture(scope="module")
def tiny_sim_run(tmp_path_factory):
    workload = workloads.SimWorkload("sim-demo", 5, tiny=True)
    out = tmp_path_factory.mktemp("sim") / "run"
    workload.run(out, 0)
    return workload, out


def _check(workload, out, digests=None):
    reference = json.loads(workloads.REFERENCE.read_text("utf-8"))["sim-demo"]
    return oracles.check_sim_run(
        out, oracles.read_tokens(HERE / "sim" / "o3_baseline.txt"), reference["target"],
        1.0, 1, workload.cfg.ga.generations, digests,
    )


def _copy(out, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    return copy


def test_sim_oracle_accepts_the_real_run(tiny_sim_run):
    workload, out = tiny_sim_run
    assert _check(workload, out) == []
    assert _check(workload, out, oracles.artifact_digests(out)) == []


def test_sim_oracle_rejects_a_wrong_best_fitness(tiny_sim_run, tmp_path):
    workload, out = tiny_sim_run
    copy = _copy(out, tmp_path)
    summary = json.loads((copy / "summary.json").read_text("utf-8"))
    summary["trials"][0]["best_fitness"] *= 0.999
    (copy / "summary.json").write_text(json.dumps(summary), "utf-8")
    assert any("best_fitness" in p for p in _check(workload, copy))


def test_sim_oracle_rejects_a_wrong_best_patch(tiny_sim_run, tmp_path):
    workload, out = tiny_sim_run
    copy = _copy(out, tmp_path)
    (copy / "trial_0" / "best_individual.patch").write_text("delete 0.0\ndelete 0.0\n", "utf-8")
    assert any("best_sequence.txt" in p for p in _check(workload, copy))


def test_sim_oracle_rejects_changed_artifacts(tiny_sim_run, tmp_path):
    workload, out = tiny_sim_run
    digests = oracles.artifact_digests(out)
    copy = _copy(out, tmp_path)
    with (copy / "trial_0" / "history.csv").open("a", encoding="utf-8") as fh:
        fh.write("\n")
    assert _check(workload, copy, digests) == ["trial_0/history.csv: digest differs from the committed reference"]


def test_subset_sum_oracle():
    expected = oracles.subset_sum_expected_output()
    assert expected == "subsets hitting 3652: 8199\n"
    assert oracles.check_program_output(expected) == []
    assert oracles.check_program_output("subsets hitting 3652: 8198\n") != []


@pytest.mark.skipif(not HAVE_LLVM, reason="opt, llc or gcc not on PATH")
def test_replay_oracle_builds_the_baseline_and_rejects_a_wrong_record(tmp_path):
    workload = workloads.ReplayWorkload("llvm14-replay", 3, tiny=True)
    baseline = oracles.read_tokens(HERE / "llvm14" / "baseline.txt")
    output = oracles.build_and_run(HERE / "llvm14" / "subset_sum.ll", baseline, tmp_path / "b")
    assert oracles.check_program_output(output) == []

    unit = workload.run(tmp_path / "unit", 0)
    requests = [seq for seq, _ in unit.records]
    repeat = next(i for i, seq in enumerate(requests) if requests.index(seq) < i)
    seq, record = unit.records[repeat]
    unit.records[repeat] = (seq, replace(record, mean=record.mean * 2))
    workload.check(tmp_path / "unit", unit)
    assert any("returned a different record" in p for p in unit.problems)


def test_missing_hook_drops_only_its_metrics(tmp_path):
    workload = workloads.SimWorkload("sim-fresh", 1, tiny=True)
    gone = tracing.Hook("passevo.fitness", "renamed_edit_distance", "fitness.edit_distance",
                        ("fitness.edit_distance_calls", "fitness.edit_distance_s"))
    tracer = tracing.Tracer()
    tracer.install((*tracing.HOOKS[:6], gone))
    try:
        workload.run(tmp_path / "run", 0, tracer.span)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(["compile_error"])
    assert "fitness.edit_distance_calls" not in metrics and "fitness.self_s" not in metrics
    assert metrics["patches.apply_calls"] > 0 and metrics["fitness.sim_fresh"] > 0


def test_llvm_replay_is_unavailable_without_the_toolchain(tmp_path):
    proc = run_bench("--workload", "llvm14-replay", "--seconds", "0", "--tiny",
                     env={"PATH": str(tmp_path), "HOME": str(tmp_path)})
    assert proc.returncode == 3
    assert "unavailable" in proc.stderr and "correct" not in proc.stdout


def test_fails_without_passevo(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sim-demo", "--seconds", "0", "--tiny", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
