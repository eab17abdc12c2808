import json
import random
from dataclasses import replace

import pytest

import passevo.experiment as experiment_mod
from passevo.catalog import PassSequence
from passevo.errors import ExecutionError, ValidationError
from passevo.evolution import GAConfig, GenerationRecord
from passevo.experiment import (
    build_record_fn,
    build_scorers,
    measure_baseline,
    resolve_catalog,
    resolve_sequence,
    run_trials,
)
from passevo.fitness import PENALTY, BackendConfig, perturb_sequence, sequence_digest, simulated_record
from passevo.patches import Individual

from conftest import experiment_config, fake_backend, make_catalog, make_sequence, write_test_inputs


def test_run_trials_structure_and_artifacts(tmp_path):
    cfg = experiment_config(tmp_path, trials=2, seeds=(1, 2), rng_seed=100)
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
    cfg_a = experiment_config(tmp_path / "a", trials=2, seeds=(5, 6), rng_seed=100)
    cfg_b = experiment_config(tmp_path / "b", trials=2, seeds=(5, 6), rng_seed=100)
    run_trials(cfg_a)
    run_trials(cfg_b)
    for name in ("summary.json", "trial_0/history.csv", "trial_1/history.csv",
                 "trial_0/best_individual.patch", "trial_1/best_sequence.txt"):
        a = (tmp_path / "a" / "out" / name).read_bytes()
        b = (tmp_path / "b" / "out" / name).read_bytes()
        assert a == b, name


def test_trial_seeds_derived_from_base_seed(tmp_path):
    cfg = experiment_config(tmp_path, trials=3, rng_seed=100)
    assert [cfg.trial_seed(i) for i in range(3)] == [100, 101, 102]
    explicit = experiment_config(tmp_path / "e", trials=3, seeds=(7, 8, 9), rng_seed=100)
    assert [explicit.trial_seed(i) for i in range(3)] == [7, 8, 9]


def test_seed_list_length_must_match_trials(tmp_path):
    with pytest.raises(ValueError):
        experiment_config(tmp_path, trials=3, seeds=(1, 2), rng_seed=100)


def test_history_best_column_monotone_with_elitism(tmp_path):
    cfg = experiment_config(tmp_path, trials=2, seeds=(3, 4), generations=10, rng_seed=100)
    results, _ = run_trials(cfg)
    for r in results:
        best = [rec.best_fitness for rec in r.history]
        assert all(b <= a for a, b in zip(best, best[1:]))
        assert r.best_fitness <= best[0]


def test_measure_baseline_simulated_zero_distance(tmp_path):
    cfg = replace(experiment_config(tmp_path, trials=1, sim_target_edits=0, sim_base_runtime=1.5), ga=GAConfig())
    record = measure_baseline(cfg)
    assert record.mean == 1.5


def test_measure_baseline_one_edit_quarter_penalty(tmp_path):
    catalog = make_catalog(8)
    baseline = make_sequence(catalog, [0, 1, 2])
    cfg = replace(experiment_config(tmp_path, inputs=(8, 3), trials=1, sim_target_edits=1), ga=GAConfig())
    # the baseline is one edit from the target; each edit adds 1/len(target) of the base runtime
    target = perturb_sequence(baseline, catalog, 1, random.Random(0))
    record = measure_baseline(cfg)
    assert record.mean == pytest.approx(1 + 1 / len(target), abs=1e-12)


def test_measure_baseline_broken_external_is_fatal(tmp_path):
    cfg = experiment_config(tmp_path, fake_toolchain="exit1", inputs=(16, 10), compile_timeout=30.0)
    cfg = replace(cfg, ga=GAConfig())
    broken = (
        r"^baseline evaluation failed \(run_error\): run failed \(exit 1\):\n"
        r"passes: -p0 -p1 -p2 -p3 -p4 -p5 -p6 -p7 -p8 -p9\ndeliberate failure\n$"
    )
    with pytest.raises(ExecutionError, match=broken):
        measure_baseline(cfg)
    with pytest.raises(ExecutionError, match=broken):
        run_trials(cfg)


def test_failed_trial_recorded_and_summary_adjusted(tmp_path, monkeypatch):
    cfg = experiment_config(tmp_path, trials=3, seeds=(1, 2, 3), rng_seed=100)
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
    cfg = experiment_config(tmp_path, trials=3, seeds=(1, 2, 3), rng_seed=100)
    run_trials(cfg)
    out = tmp_path / "out"
    (out / "trial_notes").mkdir()
    (out / "trial_9").write_text("not a directory")
    run_trials(replace(cfg, trials=1, seeds=(1,)))
    assert sorted(path.name for path in out.glob("trial_*")) == ["trial_0", "trial_9", "trial_notes"]
    assert len(json.loads((out / "summary.json").read_text())["trials"]) == 1


def test_failed_trial_removes_the_earlier_runs_directory(tmp_path, monkeypatch):
    cfg = experiment_config(tmp_path, trials=2, seeds=(1, 2), rng_seed=100)
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
    cfg = experiment_config(tmp_path, trials=1, rng_seed=100)
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
    run_trials(experiment_config(tmp_path, trials=3, rng_seed=100))
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
    cfg = experiment_config(tmp_path, fake_toolchain="ok", rng_seed=9, runs_per_eval=1, compile_timeout=30.0)
    results, _ = run_trials(cfg)
    assert results[0].ok
    cache_file = tmp_path / "out" / "eval_cache.jsonl"
    assert cache_file.is_file()
    rows = [json.loads(line) for line in cache_file.read_text().splitlines()]
    assert len(rows) >= 1
    fields = {"digest", "status", "runs", "mean", "stddev", "diagnostics", "exe"}
    assert all(set(r) == fields for r in rows)


def _record_scored(monkeypatch) -> list[PassSequence]:
    """Every sequence experiment passes to simulated_fitnesses, in order."""
    scored = []
    real = experiment_mod.simulated_fitnesses

    def recording(seqs, model):
        scored.extend(seqs)
        return real(seqs, model)

    monkeypatch.setattr(experiment_mod, "simulated_fitnesses", recording)
    return scored


def test_simulated_record_fn_memoizes(tmp_path, monkeypatch):
    _, _, catalog, baseline = write_test_inputs(tmp_path)
    backend = BackendConfig(kind="simulated", sim_target_edits=1)
    scored = _record_scored(monkeypatch)
    record_fn = build_record_fn(backend, catalog, baseline)
    first = record_fn(baseline)
    assert record_fn(baseline) == first == simulated_record(sequence_digest(baseline), first.mean)
    assert scored == [baseline]


def test_simulated_records_fn_scores_each_fresh_sequence_once(tmp_path, monkeypatch):
    _, _, catalog, baseline = write_test_inputs(tmp_path)
    backend = BackendConfig(kind="simulated", sim_target_edits=1)
    scored = _record_scored(monkeypatch)
    fitness_fn, records_fn = build_scorers(backend, catalog, baseline)
    other = make_sequence(catalog, [0, 1])

    def unexpected(*args):
        raise AssertionError("fitness_fn digested a sequence or built a record")

    with monkeypatch.context() as m:
        m.setattr(experiment_mod, "sequence_digest", unexpected)
        m.setattr(experiment_mod, "simulated_record", unexpected)
        first = fitness_fn([baseline, other, baseline])
        second = fitness_fn([other, PassSequence(baseline.passes)])
    assert first[0] == first[2] and second == first[1::-1]
    assert scored == [baseline, other]
    # records_fn reads the same memo: it scores nothing again
    records = records_fn([other, baseline])
    assert records == [simulated_record(sequence_digest(s), v) for s, v in zip((other, baseline), second)]
    assert scored == [baseline, other]
    one = build_record_fn(backend, catalog, baseline)
    assert [one(s) for s in (other, baseline)] == records
    # an unseen sequence asked for twice in one batch, the second time as a new object
    unseen = make_sequence(catalog, [1])
    assert unseen not in (baseline, other)
    del scored[:]
    third = fitness_fn([unseen, other, PassSequence(unseen.passes)])
    assert scored == [unseen]
    assert third == [third[0], first[1], third[0]]
    assert third[0] == build_scorers(backend, catalog, baseline)[0]([unseen])[0]


def test_simulated_run_digests_only_the_baseline(tmp_path, monkeypatch):
    cfg = experiment_config(tmp_path, trials=2, seeds=(1, 2), rng_seed=100)
    digested = []
    real = experiment_mod.sequence_digest
    monkeypatch.setattr(experiment_mod, "sequence_digest", lambda seq: digested.append(seq) or real(seq))
    results, _ = run_trials(cfg)
    assert all(r.ok for r in results)
    baseline = resolve_sequence(cfg.baseline_path, resolve_catalog(cfg.catalog_path))
    assert digested == [baseline]


def test_external_records_fn_keeps_request_order(tmp_path):
    _, _, catalog, baseline = write_test_inputs(tmp_path, 6, 3)
    backend = fake_backend(tmp_path, behavior="ok", runs_per_eval=1)
    cache_file = tmp_path / "eval_cache.jsonl"
    fitness_fn, records_fn = build_scorers(backend, catalog, baseline, cache_file)
    seqs = [make_sequence(catalog, [2]), baseline, make_sequence(catalog, [2]), make_sequence(catalog, [0, 4])]
    records = records_fn(seqs)
    assert [r.sequence_digest for r in records] == [sequence_digest(s) for s in seqs]
    assert records[0] == records[2]
    rows = [json.loads(line)["digest"] for line in cache_file.read_text().splitlines()]
    assert rows == [sequence_digest(s) for s in (seqs[0], seqs[1], seqs[3])]
    # fitness_fn reads the same cache: it evaluates nothing again
    assert fitness_fn(seqs) == [r.fitness for r in records]
    assert len(cache_file.read_text().splitlines()) == len(rows)


def test_rerun_in_the_same_output_dir_starts_no_process(tmp_path, processes):
    cfg = experiment_config(
        tmp_path, fake_toolchain="ok", trials=2, population_size=6, generations=3, rng_seed=5, compile_timeout=30.0)
    run_trials(cfg)
    assert processes.calls
    summary = (tmp_path / "out" / "summary.json").read_bytes()
    processes.calls.clear()
    # the resumed run answers every candidate and the baseline from eval_cache.jsonl
    run_trials(cfg)
    assert processes.calls == []
    assert (tmp_path / "out" / "summary.json").read_bytes() == summary
