"""Multi-trial orchestration: repeated evolution runs plus summary statistics.

Each trial gets its own seed (explicit list, or base seed + trial index) and
writes history.csv, best_individual.patch and best_sequence.txt into its own
subdirectory; summary.json at the experiment root collects the per-trial
scalars and the cross-trial t test. Its row keys live here alone: written
by _write_summary, read back by summary_improvements. Trials run one after
another: wall-clock fitness must never compete with a sibling trial for
the machine, and for the simulated backend sequential execution simply
keeps outputs reproducible byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shutil
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

from .catalog import PassCatalog, PassSequence, resolve_catalog, resolve_sequence, serialize_sequence
from .config import ExperimentConfig, write_config
from .errors import ExecutionError, ValidationError
from .evolution import GenerationRecord, evolve
from .fitness import (
    KIND_SIMULATED,
    BackendConfig,
    EvaluationCache,
    EvaluationRecord,
    EvaluationStatus,
    SimModel,
    evaluate,
    perturb_sequence,
    sequence_digest,
    simulated_fitnesses,
    simulated_record,
)
from .patches import Individual, apply_individual, serialize_individual
from .stats import SummaryStats, percent_improvement, summarize

@dataclass
class TrialResult:
    trial_index: int
    seed: int
    baseline_fitness: float
    best_fitness: float
    percent_improvement: float
    best_individual: Individual
    history: list[GenerationRecord]
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


RecordFn = Callable[[PassSequence], EvaluationRecord]
RecordsFn = Callable[[list[PassSequence]], list[EvaluationRecord]]


def build_records_fn(
    backend: BackendConfig, catalog: PassCatalog, baseline: PassSequence, cache_path: Path | None = None
) -> RecordsFn:
    """Wire a backend config into a memoized batch: sequences -> one record each, in order.

    The simulated memo is keyed by a sequence's pass tuple, so a repeat costs
    one lookup; the distinct sequences it lacks are scored in one
    simulated_fitnesses call, and only they are digested. The external batch
    evaluates the sequences in order, and only it persists its records, at
    `cache_path`."""
    if backend.kind == KIND_SIMULATED:
        rng = random.Random(backend.sim_target_seed)
        target = perturb_sequence(baseline, catalog, backend.sim_target_edits, rng)
        model = SimModel(target=target, base_runtime=backend.sim_base_runtime)
        memo: dict[tuple[str, ...], EvaluationRecord] = {}

        def records_fn(seqs: list[PassSequence]) -> list[EvaluationRecord]:
            records = [memo.get(seq.passes) for seq in seqs]
            fresh = {seq.passes: seq for seq, record in zip(seqs, records) if record is None}
            values = simulated_fitnesses(list(fresh.values()), model)
            for (passes, seq), value in zip(fresh.items(), values):
                memo[passes] = simulated_record(sequence_digest(seq), value)
            return [memo[seq.passes] if record is None else record for seq, record in zip(seqs, records)]

        return records_fn

    cache = EvaluationCache(cache_path)
    return lambda seqs: [evaluate(seq, backend, cache) for seq in seqs]


def build_record_fn(
    backend: BackendConfig, catalog: PassCatalog, baseline: PassSequence, cache_path: Path | None = None
) -> RecordFn:
    """build_records_fn for one sequence at a time."""
    records_fn = build_records_fn(backend, catalog, baseline, cache_path)
    return lambda seq: records_fn([seq])[0]


def _score_baseline(records_fn: RecordsFn, baseline: PassSequence) -> EvaluationRecord:
    """Score the unmodified baseline; a broken baseline is fatal."""
    [record] = records_fn([baseline])
    if record.status is not EvaluationStatus.OK:
        raise ExecutionError(
            f"baseline evaluation failed ({record.status.value}): {record.diagnostics}"
        )
    return record


def measure_baseline(cfg: ExperimentConfig) -> EvaluationRecord:
    """Score the unmodified baseline once, without writing any artifact."""
    catalog = resolve_catalog(cfg.catalog_path)
    baseline = resolve_sequence(cfg.baseline_path, catalog)
    return _score_baseline(build_records_fn(cfg.backend, catalog, baseline), baseline)


TrialProgressFn = Callable[[int, GenerationRecord], None]


def run_trials(
    cfg: ExperimentConfig, progress: TrialProgressFn | None = None
) -> tuple[list[TrialResult], SummaryStats | None]:
    """Run every trial, write all artifacts under cfg.output_dir.

    A trial's best is min(history, key=lambda r: r.best_fitness): the first
    record of its lowest fitness. A trial whose best is not finite is
    recorded as failed, writes no trial directory and is skipped by the
    summary; the summary covers however many trials completed (None if none
    did; see summarize for too few or too flat improvements). Every other
    trial_<digits> directory, left by an earlier run, is removed at the end.
    """
    catalog = resolve_catalog(cfg.catalog_path)
    baseline = resolve_sequence(cfg.baseline_path, catalog)

    out_root = Path(cfg.output_dir)
    try:
        out_root.mkdir(parents=True, exist_ok=True)
        # the cache is read first, so a resume it rejects leaves the old provenance
        records_fn = build_records_fn(cfg.backend, catalog, baseline, out_root / "eval_cache.jsonl")
        write_config(cfg, out_root / "effective_config.ini")
        fitness_fn = lambda seqs: [record.fitness for record in records_fn(seqs)]

        baseline_fitness = _score_baseline(records_fn, baseline).fitness

        results: list[TrialResult] = []
        for index in range(cfg.trials):
            seed = cfg.trial_seed(index)
            trial_progress = None if progress is None else partial(progress, index)
            history = evolve(replace(cfg.ga, rng_seed=seed), baseline, catalog, fitness_fn, trial_progress)
            best = min(history, key=lambda r: r.best_fitness)
            if math.isfinite(best.best_fitness):
                gain = percent_improvement(baseline_fitness, best.best_fitness)
                result = TrialResult(
                    index, seed, baseline_fitness, best.best_fitness, gain, best.best_individual, history
                )
                _write_trial(out_root / f"trial_{index}", result, baseline)
            else:
                error = "no candidate produced a finite fitness"
                result = TrialResult(index, seed, baseline_fitness, math.nan, math.nan, Individual(), history, error)
            results.append(result)

        written = {f"trial_{r.trial_index}" for r in results if r.ok}
        for stale in out_root.glob("trial_*"):
            if stale.name not in written and stale.name[len("trial_"):].isdigit() and stale.is_dir():
                shutil.rmtree(stale)
        improvements = [r.percent_improvement for r in results if r.ok]
        summary = summarize(improvements) if improvements else None
        _write_summary(out_root / "summary.json", results, summary)
    except BrokenPipeError:
        raise  # a closed stdout under --verbose, not the output directory
    except OSError as exc:
        raise ValidationError(f"cannot write output directory {cfg.output_dir}: {exc}") from exc
    return results, summary


def write_history_csv(history: list[GenerationRecord], path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generation", "best_fitness", "mean_fitness"])
        for rec in history:
            writer.writerow([rec.generation, repr(rec.best_fitness), repr(rec.mean_fitness)])


def _write_trial(trial_dir: Path, result: TrialResult, baseline: PassSequence) -> None:
    trial_dir.mkdir(parents=True, exist_ok=True)
    write_history_csv(result.history, trial_dir / "history.csv")
    (trial_dir / "best_individual.patch").write_text(
        serialize_individual(result.best_individual), "utf-8"
    )
    (trial_dir / "best_sequence.txt").write_text(
        serialize_sequence(apply_individual(baseline, result.best_individual)), "utf-8"
    )


def _write_summary(path: Path, results: list[TrialResult], summary: SummaryStats | None) -> None:
    trials = []
    for r in results:
        row: dict = {"trial_index": r.trial_index, "seed": r.seed}
        if r.ok:
            row.update(
                status="ok",
                baseline_fitness=r.baseline_fitness,
                best_fitness=r.best_fitness,
                percent_improvement=r.percent_improvement,
                generations=len(r.history),
            )
        else:
            row.update(status="failed", error=r.error)
        trials.append(row)
    doc = {"trials": trials, "summary": None if summary is None else asdict(summary)}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", "utf-8")


def _percent(value) -> float:
    # float() would also take a JSON true or a numeric string
    if type(value) not in (int, float):
        raise TypeError(f"percent_improvement {value!r} is not a number")
    return float(value)


def summary_improvements(doc: dict) -> list[float]:
    """The completed trials' improvements in a parsed summary.json, in trial order."""
    try:
        return [_percent(t["percent_improvement"]) for t in doc["trials"] if t.get("status") == "ok"]
    # a row that is not an object raises AttributeError at .get; an int
    # beyond float range raises OverflowError
    except (AttributeError, KeyError, TypeError, OverflowError) as exc:
        raise ValidationError(f"unrecognized summary document: {exc}") from exc
