import json
import random
from dataclasses import replace

import pytest

import passevo.experiment as experiment_mod
from passevo.catalog import PassSequence, serialize_catalog, serialize_sequence
from passevo.errors import ExecutionError, ValidationError
from passevo.evolution import GAConfig, GenerationRecord
from passevo.experiment import (
    ExperimentConfig,
    build_record_fn,
    build_records_fn,
    measure_baseline,
    resolve_catalog,
    run_trials,
)
from passevo.fitness import PENALTY, BackendConfig, perturb_sequence, sequence_digest
from passevo.patches import Individual

from conftest import fake_backend, make_catalog, make_sequence, write_test_inputs


def sim_experiment(tmp_path, trials=2, seeds=None, generations=6, population=12, **backend_kw):
    catalog_path, baseline_path, _, _ = write_test_inputs(tmp_path)
    backend = BackendConfig(kind="simulated", sim_target_edits=2, sim_target_seed=0, **backend_kw)
    return ExperimentConfig(
        catalog_path=str(catalog_path),
        baseline_path=str(baseline_path),
        ga=GAConfig(population_size=population, generations=generations, rng_seed=100),
        backend=backend,
        trials=trials,
        output_dir=str(tmp_path / "out"),
        seeds=seeds,
    )


def test_run_trials_structure_and_artifacts(tmp_path):
    cfg = sim_experiment(tmp_path, trials=2, seeds=(1, 2))
    results, summary = run_trials(cfg)
    assert len(results) == 2
    for r in results:
        assert r.ok
        assert len(r.history) == cfg.ga.generations
        assert r.best_fitness <= r.baseline_fitness
    assert summary is not None
    assert summary.n == 2

    out = tmp_path / "out"
    assert (out / "summary.json").is_file()
    assert (out / "effective_config.ini").is_file()
    for i in range(2):
        assert (out / f"trial_{i}" / "history.csv").is_file()
        assert (out / f"trial_{i}" / "best_individual.patch").is_file()
        assert (out / f"trial_{i}" / "best_sequence.txt").is_file()

    doc = json.loads((out / "summary.json").read_text())
    assert [t["trial_index"] for t in doc["trials"]] == [0, 1]
    assert [t["seed"] for t in doc["trials"]] == [1, 2]
    assert doc["summary"]["n"] == 2


def test_run_trials_deterministic_bytes(tmp_path):
    cfg_a = sim_experiment(tmp_path / "a", trials=2, seeds=(5, 6))
    cfg_b = sim_experiment(tmp_path / "b", trials=2, seeds=(5, 6))
    run_trials(cfg_a)
    run_trials(cfg_b)
    for name in ("summary.json", "trial_0/history.csv", "trial_1/history.csv",
                 "trial_0/best_individual.patch", "trial_1/best_sequence.txt"):
        a = (tmp_path / "a" / "out" / name).read_bytes()
        b = (tmp_path / "b" / "out" / name).read_bytes()
        assert a == b, name


def test_trial_seeds_derived_from_base_seed(tmp_path):
    cfg = sim_experiment(tmp_path, trials=3)
    assert [cfg.trial_seed(i) for i in range(3)] == [100, 101, 102]
    explicit = sim_experiment(tmp_path / "e", trials=3, seeds=(7, 8, 9))
    assert [explicit.trial_seed(i) for i in range(3)] == [7, 8, 9]


def test_seed_list_length_must_match_trials(tmp_path):
    with pytest.raises(ValueError):
        sim_experiment(tmp_path, trials=3, seeds=(1, 2))


def test_history_best_column_monotone_with_elitism(tmp_path):
    cfg = sim_experiment(tmp_path, trials=2, seeds=(3, 4), generations=10)
    results, _ = run_trials(cfg)
    for r in results:
        best = [rec.best_fitness for rec in r.history]
        assert all(b <= a for a, b in zip(best, best[1:]))
        assert r.best_fitness <= best[0]


def test_measure_baseline_simulated_zero_distance(tmp_path):
    catalog_path, baseline_path, _, _ = write_test_inputs(tmp_path)
    cfg = ExperimentConfig(
        catalog_path=str(catalog_path),
        baseline_path=str(baseline_path),
        backend=BackendConfig(kind="simulated", sim_target_edits=0, sim_base_runtime=1.5),
        trials=1,
        output_dir=str(tmp_path / "out"),
    )
    record = measure_baseline(cfg)
    assert record.mean == 1.5


def test_measure_baseline_one_edit_quarter_penalty(tmp_path):
    catalog = make_catalog(8)
    baseline = make_sequence(catalog, [0, 1, 2])
    (tmp_path / "catalog.txt").write_text(serialize_catalog(catalog))
    (tmp_path / "baseline.txt").write_text(serialize_sequence(baseline))
    cfg = ExperimentConfig(
        catalog_path=str(tmp_path / "catalog.txt"),
        baseline_path=str(tmp_path / "baseline.txt"),
        backend=BackendConfig(kind="simulated", sim_base_runtime=1.0, sim_target_edits=1),
        trials=1,
        output_dir=str(tmp_path / "out"),
    )
    # the baseline is one edit from the target; each edit adds 1/len(target) of the base runtime
    target = perturb_sequence(baseline, catalog, 1, random.Random(0))
    record = measure_baseline(cfg)
    assert record.mean == pytest.approx(1 + 1 / len(target), abs=1e-12)


def test_measure_baseline_broken_external_is_fatal(tmp_path):
    catalog_path, baseline_path, _, _ = write_test_inputs(tmp_path)
    backend = fake_backend(tmp_path, behavior="exit1")
    cfg = ExperimentConfig(
        catalog_path=str(catalog_path),
        baseline_path=str(baseline_path),
        backend=backend,
        trials=1,
        output_dir=str(tmp_path / "out"),
    )
    broken = (
        r"^baseline evaluation failed \(run_error\): run failed \(exit 1\):\n"
        r"passes: -p0 -p1 -p2 -p3 -p4 -p5 -p6 -p7 -p8 -p9\ndeliberate failure\n$"
    )
    with pytest.raises(ExecutionError, match=broken):
        measure_baseline(cfg)
    with pytest.raises(ExecutionError, match=broken):
        run_trials(cfg)


def test_failed_trial_recorded_and_summary_adjusted(tmp_path, monkeypatch):
    cfg = sim_experiment(tmp_path, trials=3, seeds=(1, 2, 3))
    real_evolve = experiment_mod.evolve
    calls = {"n": 0}

    # the second trial finds nothing with a finite fitness
    hopeless = [GenerationRecord(0, PENALTY, PENALTY, Individual())]

    def flaky_evolve(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            return hopeless
        return real_evolve(*args, **kwargs)

    monkeypatch.setattr(experiment_mod, "evolve", flaky_evolve)
    results, summary = run_trials(cfg)
    assert [r.ok for r in results] == [True, False, True]
    assert results[1].error == "no candidate produced a finite fitness"
    assert results[1].history == hopeless
    assert summary is not None
    assert summary.n == 2

    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert doc["trials"][1] == {
        "error": "no candidate produced a finite fitness",
        "seed": 2,
        "status": "failed",
        "trial_index": 1,
    }
    assert not (tmp_path / "out" / "trial_1").exists()


def test_fewer_trials_remove_the_earlier_runs_trial_directories(tmp_path):
    cfg = sim_experiment(tmp_path, trials=3, seeds=(1, 2, 3))
    run_trials(cfg)
    out = tmp_path / "out"
    (out / "trial_notes").mkdir()
    (out / "trial_9").write_text("not a directory")
    run_trials(replace(cfg, trials=1, seeds=(1,)))
    assert sorted(path.name for path in out.glob("trial_*")) == ["trial_0", "trial_9", "trial_notes"]
    assert len(json.loads((out / "summary.json").read_text())["trials"]) == 1


def test_failed_trial_removes_the_earlier_runs_directory(tmp_path, monkeypatch):
    cfg = sim_experiment(tmp_path, trials=2, seeds=(1, 2))
    run_trials(cfg)
    assert (tmp_path / "out" / "trial_1").is_dir()
    hopeless = [GenerationRecord(0, PENALTY, PENALTY, Individual())]
    real_evolve = experiment_mod.evolve
    fails = iter((False, True))
    monkeypatch.setattr(
        experiment_mod, "evolve", lambda *args: hopeless if next(fails) else real_evolve(*args))
    results, _ = run_trials(cfg)
    assert [r.ok for r in results] == [True, False]
    assert (tmp_path / "out" / "trial_0").is_dir()
    assert not (tmp_path / "out" / "trial_1").exists()


def test_single_trial_summary_has_no_t_test(tmp_path):
    cfg = sim_experiment(tmp_path, trials=1)
    results, summary = run_trials(cfg)
    assert results[0].ok
    assert summary is not None
    assert summary.n == 1
    assert summary.t_statistic is None
    assert summary.p_value_one_tailed is None
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert doc["summary"]["t_statistic"] is None


def test_flat_improvements_write_the_exact_mean(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment_mod, "percent_improvement", lambda baseline, best: 3.7)
    run_trials(sim_experiment(tmp_path, trials=3))
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert doc["summary"] == {
        "n": 3,
        "mean_improvement": 3.7,
        "sample_stddev": None,
        "t_statistic": None,
        "p_value_one_tailed": None,
    }


def test_builtin_paths_resolve():
    catalog = resolve_catalog("builtin:catalog")
    assert len(catalog) > 100


def test_missing_catalog_file_is_config_error():
    with pytest.raises(ValidationError) as err:
        resolve_catalog("/nonexistent/catalog.txt")
    assert "/nonexistent/catalog.txt" in str(err.value)


def test_external_backend_uses_persistent_cache(tmp_path):
    catalog_path, baseline_path, catalog, baseline = write_test_inputs(tmp_path, 6, 3)
    backend = fake_backend(tmp_path, behavior="ok", runs_per_eval=1)
    cfg = ExperimentConfig(
        catalog_path=str(catalog_path),
        baseline_path=str(baseline_path),
        ga=GAConfig(population_size=4, generations=2, rng_seed=9),
        backend=backend,
        trials=1,
        output_dir=str(tmp_path / "out"),
    )
    results, _ = run_trials(cfg)
    assert results[0].ok
    cache_file = tmp_path / "out" / "eval_cache.jsonl"
    assert cache_file.is_file()
    rows = [json.loads(line) for line in cache_file.read_text().splitlines()]
    assert len(rows) >= 1
    fields = {"digest", "status", "runs", "mean", "stddev", "diagnostics", "exe"}
    assert all(set(r) == fields for r in rows)


def test_simulated_record_fn_memoizes(tmp_path):
    _, _, catalog, baseline = write_test_inputs(tmp_path)
    backend = BackendConfig(kind="simulated", sim_target_edits=1)
    record_fn = build_record_fn(backend, catalog, baseline)
    assert record_fn(baseline) is record_fn(baseline)


def test_simulated_records_fn_scores_each_fresh_sequence_once(tmp_path, monkeypatch):
    _, _, catalog, baseline = write_test_inputs(tmp_path)
    backend = BackendConfig(kind="simulated", sim_target_edits=1)
    scored = []
    real = experiment_mod.simulated_fitnesses

    def recording(seqs, model):
        scored.extend(seqs)
        return real(seqs, model)

    digested = []

    def counting_digest(seq):
        digested.append(seq)
        return sequence_digest(seq)

    monkeypatch.setattr(experiment_mod, "simulated_fitnesses", recording)
    monkeypatch.setattr(experiment_mod, "sequence_digest", counting_digest)
    records_fn = build_records_fn(backend, catalog, baseline)
    other = make_sequence(catalog, [0, 1])
    first = records_fn([baseline, other, baseline])
    assert first[0] is first[2]
    assert [r.sequence_digest for r in first] == [sequence_digest(s) for s in (baseline, other, baseline)]
    second = records_fn([other, PassSequence(baseline.passes)])
    assert second[0] is first[1] and second[1] is first[0]
    assert scored == [baseline, other]
    assert digested == [baseline, other]
    one = build_record_fn(backend, catalog, baseline)
    assert [one(s) for s in (baseline, other)] == first[:2]


def test_external_records_fn_keeps_request_order(tmp_path):
    _, _, catalog, baseline = write_test_inputs(tmp_path, 6, 3)
    backend = fake_backend(tmp_path, behavior="ok", runs_per_eval=1)
    cache_file = tmp_path / "eval_cache.jsonl"
    records_fn = build_records_fn(backend, catalog, baseline, cache_file)
    seqs = [make_sequence(catalog, [2]), baseline, make_sequence(catalog, [2]), make_sequence(catalog, [0, 4])]
    records = records_fn(seqs)
    assert [r.sequence_digest for r in records] == [sequence_digest(s) for s in seqs]
    assert records[0] == records[2]
    rows = [json.loads(line)["digest"] for line in cache_file.read_text().splitlines()]
    assert rows == [sequence_digest(s) for s in (seqs[0], seqs[1], seqs[3])]


def test_rerun_in_the_same_output_dir_starts_no_process(tmp_path, tool_calls):
    catalog_path, baseline_path, _, _ = write_test_inputs(tmp_path, 6, 3)
    cfg = ExperimentConfig(
        catalog_path=str(catalog_path),
        baseline_path=str(baseline_path),
        ga=GAConfig(population_size=6, generations=3, rng_seed=5),
        backend=fake_backend(tmp_path, runs_per_eval=2),
        trials=2,
        output_dir=str(tmp_path / "out"),
    )
    run_trials(cfg)
    assert tool_calls
    summary = (tmp_path / "out" / "summary.json").read_bytes()
    tool_calls.clear()
    # the resumed run answers every candidate and the baseline from eval_cache.jsonl
    run_trials(cfg)
    assert tool_calls == []
    assert (tmp_path / "out" / "summary.json").read_bytes() == summary
