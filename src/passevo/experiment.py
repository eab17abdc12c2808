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
import tempfile
import weakref
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable

from .catalog import PassCatalog, PassSequence, resolve_catalog, resolve_sequence, serialize_sequence
from .config import ExperimentConfig, write_config
from .errors import ExecutionError, ValidationError
from .evolution import FitnessFn, GenerationRecord, evolve
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


def build_directory(backend: BackendConfig, owner: object) -> Path:
    """A new directory under [backend] workdir (by default the system temp directory), removed when `owner` is."""
    try:
        if backend.workdir:
            Path(backend.workdir).mkdir(parents=True, exist_ok=True)
        path = tempfile.mkdtemp(prefix="passevo-", dir=backend.workdir or None)
    except OSError as exc:
        raise ValidationError(f"cannot create a build directory (see [backend] workdir): {exc}") from exc
    weakref.finalize(owner, shutil.rmtree, path, ignore_errors=True)
    return Path(path)


def build_scorers(
    backend: BackendConfig, catalog: PassCatalog, baseline: PassSequence, cache_path: Path | None = None
) -> tuple[FitnessFn, RecordsFn]:
    """Wire a backend config into two views of one state: sequences -> fitnesses, and sequences -> records.

    The simulated memo maps each pass tuple to a dense slot in a list of
    fitnesses, and each request hashes its tuple once, in one setdefault,
    fresh or repeated; the new slots are scored in one simulated_fitnesses
    call, in first-seen order. A batch that raises there takes its new keys
    back out, so no key outlives the batch without a fitness.
    Only records_fn digests a sequence and builds its record; a run asks it
    for the baseline alone. The external records_fn evaluates the sequences
    in order, persisting at `cache_path`, in one build_directory that lives
    as long as the scorers; fitness_fn reads each record's fitness."""
    if backend.kind == KIND_SIMULATED:
        rng = random.Random(backend.sim_target_seed)
        target = perturb_sequence(baseline, catalog, backend.sim_target_edits, rng)
        model = SimModel(target=target, base_runtime=backend.sim_base_runtime)
        memo: dict[tuple[str, ...], int] = {}  # pass tuple -> its slot in scores
        scores: list[float] = []

        def fitness_fn(seqs: list[PassSequence]) -> list[float]:
            n = len(scores)
            try:
                slots = [memo.setdefault(seq.passes, len(memo)) for seq in seqs]
                fresh = {slot: seq for slot, seq in zip(slots, seqs) if slot >= n}
                scores.extend(simulated_fitnesses(list(fresh.values()), model))
            except BaseException:
                # the batch's new keys are the last ones in; none may outlive it without a score
                for key in list(islice(reversed(memo), len(memo) - n)):
                    del memo[key]
                raise
            return [scores[slot] for slot in slots]

        def records_fn(seqs: list[PassSequence]) -> list[EvaluationRecord]:
            return [simulated_record(sequence_digest(s), v) for s, v in zip(seqs, fitness_fn(seqs))]

        return fitness_fn, records_fn

    cache = EvaluationCache(cache_path)

    def records_fn(seqs: list[PassSequence]) -> list[EvaluationRecord]:
        return [evaluate(seq, backend, cache, build_dir) for seq in seqs]

    build_dir = build_directory(backend, records_fn)
    return (lambda seqs: [record.fitness for record in records_fn(seqs)]), records_fn


def build_record_fn(
    backend: BackendConfig, catalog: PassCatalog, baseline: PassSequence, cache_path: Path | None = None
) -> RecordFn:
    """build_scorers' records_fn for one sequence at a time."""
    _, records_fn = build_scorers(backend, catalog, baseline, cache_path)
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
    _, records_fn = build_scorers(cfg.backend, catalog, baseline)
    return _score_baseline(records_fn, baseline)


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
        fitness_fn, records_fn = build_scorers(cfg.backend, catalog, baseline, out_root / "eval_cache.jsonl")
        write_config(cfg, out_root / "effective_config.ini")

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
