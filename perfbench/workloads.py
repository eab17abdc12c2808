"""The benchmark's workloads, driven through passevo's public functions.

A workload is set up once per process (what `setup_s` times) and then runs
units of work; unit k takes its inputs from seed + k, so a run's median unit
averages over inputs as well as over machine noise. Each unit writes into
its own fresh directory and is checked by the independent oracles after its
timer stops.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from passevo import catalog, config, experiment, fitness

import oracles

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "sim" / "reference.json"
LLVM_TOOLS = ("opt", "llc", "gcc")


@dataclass
class Unit:
    """What one unit of work produced: its timed wall clock and what the oracles need."""

    seed: int
    wall_s: float = 0.0
    calibration_s: float = 0.0  # median time of the speed kernel while this unit ran
    sampler_s: float = 0.0  # time the speed sampler took out of wall_s
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)
    samples_ms: list[float] = field(default_factory=list)
    records: list = field(default_factory=list)  # (request, record) pairs of a replay


class SimWorkload:
    """One `experiment.run_trials` trial on the simulated backend, configured by an INI copy."""

    def __init__(self, name: str, seed: int, tiny: bool):
        self.name, self.seed, self.tiny = name, seed, tiny
        overrides = {("ga", "population_size"): "6", ("ga", "generations"): "3"} if tiny else {}
        self.cfg = config.load_config(HERE / "sim" / f"{name}.ini", overrides)
        cat = experiment.resolve_catalog(self.cfg.catalog_path)
        self.baseline = experiment.resolve_sequence(self.cfg.baseline_path, cat)
        # Derives the hidden target, the last set-up step before a first evaluation.
        experiment.build_record_fn(self.cfg.backend, cat, self.baseline)

    def run(self, out_dir: Path, index: int, call=None) -> Unit:
        """Time one run_trials; `call` lets a tracer wrap the call in a span."""
        unit = Unit(seed=self.seed + index)
        cfg = replace(self.cfg, output_dir=str(out_dir), trials=1, seeds=(unit.seed,))
        start = time.perf_counter()
        if call is None:
            experiment.run_trials(cfg)
        else:
            call("experiment.run_trials", experiment.run_trials, cfg)
        unit.wall_s = time.perf_counter() - start
        return unit

    def check(self, out_dir: Path, unit: Unit) -> None:
        reference = json.loads(REFERENCE.read_text("utf-8"))[self.name]
        digests = None if self.tiny else reference["digests"].get(str(unit.seed))
        unit.problems += oracles.check_sim_run(
            out_dir,
            oracles.read_tokens(HERE / "sim" / "o3_baseline.txt"),
            reference["target"],
            self.cfg.backend.sim_base_runtime,
            1,
            self.cfg.ga.generations,
            digests,
        )
        summary = json.loads((out_dir / "summary.json").read_text("utf-8"))
        unit.extras["mean_improvement_pct"] = summary["summary"]["mean_improvement"]
        # The simulated backend scores a failed evaluation as inf, which makes
        # that generation's mean non-finite: count such generations as failures.
        unit.attempted = self.cfg.ga.population_size * self.cfg.ga.generations + 1
        rows = (out_dir / "trial_0" / "history.csv").read_text("utf-8").splitlines()[1:]
        unit.failed = sum(not math.isfinite(float(row.split(",")[2])) for row in rows)


def replay_requests(baseline: list[str], passes: list[str], seed: int, fresh: int, repeats: int) -> list[list[str]]:
    """The baseline, then `fresh` distinct 1-3-edit variants of it, with `repeats`
    earlier requests re-sent at seeded positions."""
    rng = random.Random(seed)
    seen = {tuple(baseline)}
    requests = [list(baseline)]
    while len(requests) < fresh + 1:
        seq = list(baseline)
        for _ in range(rng.randint(1, 3)):
            op = rng.randrange(3)
            if op == 0:
                seq.insert(rng.randint(0, len(seq)), rng.choice(passes))
            elif op == 1:
                del seq[rng.randrange(len(seq))]
            else:
                seq[rng.randrange(len(seq))] = rng.choice(passes)
        if tuple(seq) not in seen:
            seen.add(tuple(seq))
            requests.append(seq)
    for _ in range(repeats):
        pos = rng.randint(2, len(requests))
        requests.insert(pos, requests[rng.randrange(pos)])
    return requests


class ReplayWorkload:
    """A seeded list of candidate sequences replayed through `experiment.build_record_fn`
    on the real LLVM 14 toolchain, with the evaluation cache persisted per unit."""

    FRESH, REPEATS, TINY_RUNS = 12, 3, 2

    def __init__(self, name: str, seed: int, tiny: bool):
        self.name, self.seed, self.tiny = name, seed, tiny
        overrides = {("backend", "runs_per_eval"): str(self.TINY_RUNS)} if tiny else {}
        self.cfg = config.load_config(HERE / "llvm14" / f"{name}.ini", overrides)
        self.catalog = experiment.resolve_catalog(self.cfg.catalog_path)
        self.baseline = experiment.resolve_sequence(self.cfg.baseline_path, self.catalog)
        self._requests: dict[int, list] = {}
        self.requests(seed)  # the first unit's candidate list, as set-up

    def requests(self, seed: int) -> list:
        """The candidate list for a seed, built once so a traced unit that
        repeats an untraced one builds no PassSequence under the tracer."""
        if seed not in self._requests:
            fresh, repeats = (3, 1) if self.tiny else (self.FRESH, self.REPEATS)
            passes = list(self.catalog.passes)
            self._requests[seed] = [catalog.PassSequence(tuple(seq))
                                    for seq in replay_requests(list(self.baseline), passes, seed, fresh, repeats)]
        return self._requests[seed]

    def run(self, out_dir: Path, index: int, call=None) -> Unit:
        out_dir.mkdir(parents=True)
        unit = Unit(seed=self.seed + index)
        requests = self.requests(unit.seed)
        backend = replace(self.cfg.backend, workdir=str(out_dir / "build"))
        start = time.perf_counter()
        if call is None:
            records = self._replay(backend, out_dir, requests)
        else:
            records = call("bench.replay", self._replay, backend, out_dir, requests)
        unit.wall_s = time.perf_counter() - start
        unit.records = list(zip(requests, records))
        return unit

    def _replay(self, backend, out_dir: Path, requests):
        record_fn = experiment.build_record_fn(backend, self.catalog, self.baseline, out_dir / "eval_cache.jsonl")
        return [record_fn(seq) for seq in requests]

    def check(self, out_dir: Path, unit: Unit) -> None:
        pairs, unit.records = unit.records, []
        unit.attempted = len(pairs)
        unit.failed = sum(r.status is not fitness.EvaluationStatus.OK for _, r in pairs)
        first: dict[tuple, object] = {}
        for seq, record in pairs:
            if seq.passes in first:
                if record != first[seq.passes]:
                    unit.problems.append(f"repeat of {record.sequence_digest[:12]} returned a different record")
                continue
            first[seq.passes] = record
            if record.status is fitness.EvaluationStatus.OK:
                if len(record.samples) != self.cfg.backend.runs_per_eval:
                    unit.problems.append(f"{record.sequence_digest[:12]}: {len(record.samples)} samples")
                unit.samples_ms += [s * 1000.0 for s in record.samples]
        lines = (out_dir / "eval_cache.jsonl").read_text("utf-8").splitlines()
        if len(lines) != len(first):
            unit.problems.append(f"cache file holds {len(lines)} records for {len(first)} distinct candidates")
        ok = [(r.fitness, i) for i, (_, r) in enumerate(pairs) if r.status is fitness.EvaluationStatus.OK]
        if not ok:
            unit.problems.append("no candidate evaluated ok")
            return
        best = pairs[min(ok)[1]][0]
        for label, seq in (("baseline", self.baseline), ("best", best)):
            try:
                output = oracles.build_and_run(Path(self.cfg.backend.source_path), list(seq.passes), out_dir / label)
            except (RuntimeError, OSError) as exc:
                unit.problems.append(f"{label}: oracle build failed: {exc}")
                continue
            unit.problems += [f"{label}: {p}" for p in oracles.check_program_output(output)]

WORKLOADS = {"sim-demo": SimWorkload, "sim-fresh": SimWorkload, "llvm14-replay": ReplayWorkload}


def tool_versions() -> dict[str, str]:
    """The version line of `--version` for each LLVM-path tool, or 'missing'."""
    versions = {}
    for tool in LLVM_TOOLS:
        if shutil.which(tool) is None:
            versions[tool] = "missing"
            continue
        proc = subprocess.run([tool, "--version"], capture_output=True, text=True, timeout=30)
        lines = [line.strip() for line in proc.stdout.splitlines() if line.strip()]
        versions[tool] = next((line for line in lines if "version" in line.lower()), lines[0] if lines else "unknown")
    return versions
