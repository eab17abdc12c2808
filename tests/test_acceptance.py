"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside pytest's own verdicts.
"""

import random
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from passevo.catalog import load_catalog, search_space_order
from passevo.cli import main
from passevo.evolution import GAConfig
from passevo.experiment import run_trials
from passevo.fitness import PENALTY, BackendConfig, EvaluationStatus, time_execution
from passevo.patches import apply_individual, PatchType
from passevo.stats import percent_improvement, summarize

from conftest import Evaluator, config_file, experiment_config, fake_backend
from test_patches import oracle_mismatches, patch_law_violations, random_corpus
from test_stats import reported_trial_values, t_sf_oracle


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_patch_oracle_equivalence():
    start = time.perf_counter()
    mismatches = oracle_mismatches(random_corpus(10_000, random.Random(20250810)))
    elapsed = time.perf_counter() - start
    assert mismatches == []
    assert elapsed < 5.0
    report(1, f"10000 cases identical to the naive interpreter in {elapsed:.2f}s")


def test_criterion_2_length_algebra_and_closure():
    violations = patch_law_violations(random_corpus(10_000, random.Random(20250810)))
    assert violations == []
    report(2, "length algebra, closure and the patch-by-patch fold held on all 10000 cases (0 violations)")


def test_criterion_3_deterministic_evolution(tmp_path):
    start = time.perf_counter()
    digests = []
    for run in ("first", "second"):
        run_dir = tmp_path / run
        out_dir = run_dir / "out"
        config = config_file(
            run_dir, catalog_path="builtin:catalog", baseline_path="builtin:baseline",
            trials=2, population_size=10, generations=6, rng_seed=2024,
        )
        assert main(["evolve", "--config", str(config)]) == 0
        digests.append(
            (
                (out_dir / "summary.json").read_bytes(),
                (out_dir / "trial_0" / "history.csv").read_bytes(),
                (out_dir / "trial_1" / "history.csv").read_bytes(),
            )
        )
    elapsed = time.perf_counter() - start
    assert digests[0] == digests[1]
    assert elapsed < 30.0
    report(3, f"two seeded runs byte-identical (summary.json, history.csv) in {elapsed:.1f}s")


def test_criterion_4_simulated_landscape_improvement(tmp_path):
    start = time.perf_counter()
    cfg = experiment_config(tmp_path, population_size=30, generations=30, rng_seed=42, trials=4,
                            seeds=(101, 102, 103, 104))
    results, summary = run_trials(cfg)
    assert all(r.ok for r in results)

    monotone_violations = 0
    for r in results:
        best = [rec.best_fitness for rec in r.history]
        monotone_violations += sum(1 for a, b in zip(best, best[1:]) if b > a)
    assert monotone_violations == 0

    # the pinned single run must strictly beat its own first generation
    single = replace(cfg, trials=1, seeds=None, output_dir=str(tmp_path / "single"))
    (single_result,), _ = run_trials(single)
    first_gen_best = next(iter(single_result.history)).best_fitness
    assert single_result.best_fitness < first_gen_best

    assert summary is not None
    assert summary.mean_improvement > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        4,
        f"4 trials mean improvement {summary.mean_improvement:.2f}% > 0, "
        f"curves monotone, fixed seed improved {first_gen_best:.4f} -> "
        f"{single_result.best_fitness:.4f} in {elapsed:.1f}s",
    )


def test_criterion_5_statistics_oracle_agreement():
    stats = summarize(reported_trial_values())
    assert stats.t_statistic == pytest.approx(11.936, abs=0.005)
    oracle_p = t_sf_oracle(stats.t_statistic, 7)
    assert stats.p_value_one_tailed == pytest.approx(oracle_p, rel=1e-10)
    report(
        5,
        f"t = {stats.t_statistic:.6f} within 11.936±0.005; implementation p "
        f"= {stats.p_value_one_tailed:.6e} matches the integration oracle to 1e-10 "
        "(see companion test for the literal p band)",
    )


def test_criterion_5_p_value_literal_band():
    # Stated band: one-tailed p = 3.8e-6 ± 0.5e-6. The independent
    # numerical-integration oracle puts P(T_7 >= 11.9357) at 3.2959e-6, which
    # both the implementation and the oracle agree on, so the band's center
    # cannot be met by a correct t test; this assertion documents that honestly
    # rather than loosening the check.
    stats = summarize(reported_trial_values())
    oracle_p = t_sf_oracle(stats.t_statistic, 7)
    assert oracle_p == pytest.approx(stats.p_value_one_tailed, rel=1e-10)
    assert stats.p_value_one_tailed == pytest.approx(3.8e-6, abs=0.5e-6), (
        "documented discrepancy: a correct one-sample t test on mean 3.7, "
        "sample stddev 0.8768, n 8 (t = 11.9357, df 7) yields p = "
        f"{stats.p_value_one_tailed:.6e}, outside the stated 3.8e-6±0.5e-6 band; "
        f"independent integration oracle agrees ({oracle_p:.6e})"
    )


def test_criterion_6_search_space_figure():
    value = search_space_order(120, 80)
    assert value == pytest.approx(166.34, abs=0.01)
    # one order of magnitude from the published 10^167 headline
    assert abs(value - 167) < 1.0
    report(6, f"search_space_order(120, 80) = {value:.5f} (within 166.34±0.01)")


def test_criterion_7_percent_improvement_exact():
    value = percent_improvement(10.0, 9.63)
    assert abs(value - 3.7) < 1e-12
    report(7, f"percent_improvement(10.0, 9.63) = {value!r} (|err| < 1e-12)")


def _find_opt() -> str | None:
    candidates = ["opt"] + [f"opt-{v}" for v in range(19, 10, -1)]
    for name in candidates:
        path = shutil.which(name)
        if path:
            return path
    return None


def _probe_optimizer_template(opt: str, tmp: Path) -> str | None:
    """Return a working optimizer command template for this opt, if any."""
    probe_ir = tmp / "probe.ll"
    probe_ir.write_text("define i32 @f() {\nret i32 0\n}\n")
    new_pm = [opt, "-S", "-passes=sroa", str(probe_ir), "-o", str(tmp / "probe_new.ll")]
    if subprocess.run(new_pm, capture_output=True).returncode == 0:
        return f"{opt} -S -passes={{passes_csv}} {{ir}} -o {{output}}"
    legacy = [opt, "-S", "-sroa", str(probe_ir), "-o", str(tmp / "probe_old.ll")]
    if subprocess.run(legacy, capture_output=True).returncode == 0:
        return f"{opt} -S {{passes}} {{ir}} -o {{output}}"
    return None


def test_criterion_8_external_toolchain_smoke(tmp_path):
    clang = shutil.which("clang")
    opt = _find_opt()
    if not clang or not opt:
        print("ACCEPTANCE 8: SKIP - external LLVM toolchain (clang + opt) not available")
        pytest.skip("external LLVM toolchain (clang + opt) not available")
    optimizer_template = _probe_optimizer_template(opt, tmp_path)
    if optimizer_template is None:
        print(f"ACCEPTANCE 8: SKIP - {opt} accepted neither pass syntax")
        pytest.skip(f"{opt} accepted neither new-PM nor legacy pass syntax")

    start = time.perf_counter()
    from importlib import resources

    from passevo.catalog import PassSequence
    from passevo.evolution import evolve
    from passevo.patches import Individual, Patch

    source = tmp_path / "subset_sum.c"
    source.write_text(
        resources.files("passevo.data").joinpath("subset_sum.c").read_text("utf-8")
    )
    smoke_passes = ("-mem2reg", "-sroa", "-instcombine", "-simplifycfg", "-gvn",
                    "-sccp", "-adce", "-reassociate")

    cfg = BackendConfig(
        kind="external_compiler",
        source_path=str(source),
        compiler_front_command=f"{clang} -O0 -S -emit-llvm {{source}} -o {{ir}}",
        optimizer_command=optimizer_template,
        linker_command=f"{clang} {{ir}} -o {{output}}",
        runs_per_eval=5,
        run_timeout=20.0,
        compile_timeout=60.0,
    )

    baseline_seq = PassSequence(smoke_passes)
    patched_seq = apply_individual(baseline_seq, Individual((Patch(PatchType.DELETION, 1.0),)))
    assert len(patched_seq) == len(baseline_seq) - 1

    outputs = []
    for seq in (baseline_seq, patched_seq):
        evaluator = Evaluator(cfg)
        record = evaluator.score(*seq.passes)
        assert record.status is EvaluationStatus.OK, record.diagnostics
        assert record.runs == 5 and len(record.samples) == 5
        exe = evaluator.build(*seq.passes)
        result = time_execution([str(exe)], timeout=30.0)
        assert result.returncode == 0
        outputs.append(result.output)
    assert outputs[0] == outputs[1]

    bad = Evaluator(cfg).score("-definitely-not-a-pass-xyz")
    assert bad.status is EvaluationStatus.COMPILE_ERROR
    assert bad.fitness == PENALTY

    # the evolve loop must ride over invalid candidates without crashing
    poisoned_catalog = load_catalog("\n".join(smoke_passes + ("-definitely-not-a-pass-xyz",)))
    small = Evaluator(replace(cfg, runs_per_eval=1))
    ga = GAConfig(population_size=3, generations=1, elitism_count=1, rng_seed=8)
    evolve(ga, baseline_seq, poisoned_catalog, lambda seqs: [small.score(*s.passes).fitness for s in seqs])

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(8, f"real-toolchain smoke completed in {elapsed:.1f}s")


def test_criterion_9_timeout_handling(tmp_path):
    spin = time_execution([sys.executable, "-c", "while True: pass"], timeout=0.5)
    assert spin.timed_out

    evaluator = Evaluator(fake_backend(tmp_path, behavior="spin", run_timeout=0.5))
    start = time.perf_counter()
    record = evaluator.score("-p0")
    elapsed = time.perf_counter() - start
    assert record.status is EvaluationStatus.TIMEOUT
    assert record.fitness == PENALTY
    assert elapsed < 1.5
    report(9, f"non-halting run reported timeout + PENALTY in {elapsed:.2f}s")
