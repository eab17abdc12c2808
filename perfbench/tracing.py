"""Span tracing around passevo's public functions, installed from outside.

A hook replaces one module attribute that the engine calls through with a
wrapper that records a span (name, start, end, parent span, trial id,
generation id). Spans stay in memory until the run ends. A hook whose
target has been renamed or removed is skipped, and the per-layer metrics it
feeds are reported as missing rather than failing the run.

Span names start with the layer that owns the function: catalog, patches,
evolution, fitness or experiment. A layer's self time is the time inside
its spans that no child span covers.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import importlib
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

# The per-layer metric that holds each layer's self time.
SELF_METRIC = {
    "catalog": "catalog.validate_s",
    "patches": "patches.apply_s",
    "fitness": "fitness.self_s",
    "evolution": "evolution.self_s",
    "experiment": "experiment.self_s",
}


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str  # dotted, e.g. "PassSequence.__post_init__"
    span: str
    feeds: tuple[str, ...]  # per-layer metrics that need this hook


HOOKS = (
    Hook("passevo.catalog", "PassSequence.__post_init__", "catalog.PassSequence.__post_init__",
         ("catalog.sequences_built", "catalog.validate_s", "patches.apply_s")),
    Hook("passevo.evolution", "apply_individual", "patches.apply_individual",
         ("patches.apply_calls", "patches.genes_applied", "patches.apply_s", "evolution.evals",
          "evolution.self_s")),
    Hook("passevo.experiment", "evolve", "evolution.evolve",
         ("evolution.generations", "evolution.evals", "evolution.self_s", "evolution.gen_ms.p50",
          "evolution.gen_ms.p99", "experiment.self_s")),
    Hook("passevo.experiment", "simulated_record", "fitness.simulated_record",
         ("fitness.sim_fresh", "fitness.memo_hit_ratio", "evolution.self_s", "experiment.baseline_s")),
    Hook("passevo.experiment", "sequence_digest", "fitness.sequence_digest",
         ("fitness.digest_s", "fitness.memo_hit_ratio", "evolution.self_s", "experiment.baseline_s")),
    Hook("passevo.experiment", "evaluate", "fitness.evaluate",
         ("fitness.evaluate_calls", "fitness.cache_hits", "fitness.cache_hit_ratio", "fitness.fail.*",
          "evolution.self_s", "experiment.baseline_s")),
    Hook("passevo.fitness", "edit_distance", "fitness.edit_distance",
         ("fitness.edit_distance_calls", "fitness.edit_distance_s")),
    Hook("passevo.fitness", "build_executable", "fitness.build_executable",
         ("fitness.builds", "fitness.cache_hits", "fitness.cache_hit_ratio", "fitness.distinct_exe",
          "fitness.distinct_exe_ratio", "fitness.front_s", "fitness.opt_s", "fitness.link_s")),
    Hook("passevo.fitness", "time_execution", "fitness.time_execution",
         ("fitness.front_s", "fitness.opt_s", "fitness.link_s", "fitness.run_s", "fitness.runs")),
)

BUILD_STAGES = ("front", "opt", "link")


def _resolve(hook: Hook):
    """Return (owner, attribute name) for a hook, or None if its target is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Records spans from wrappers; one instance per traced unit of work."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.trial = 0
        self.generation = 0
        self.gen_ms: list[float] = []
        self.genes_applied = 0
        self.exe_digests: list[str] = []
        self.statuses: list[str] = []
        self.missing: list[Hook] = []
        self._installed: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.trial, self.generation)

    def _wrapper(self, hook: Hook, original):
        name = hook.span
        if name == "evolution.evolve":
            return self._evolve_wrapper(original)

        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if name == "patches.apply_individual" and len(args) > 1:
                self.genes_applied += len(getattr(args[1], "patches", ()))
            elif name == "fitness.build_executable":
                self.exe_digests.append(hashlib.sha256(Path(result).read_bytes()).hexdigest())
            elif name == "fitness.evaluate":
                self.statuses.append(getattr(getattr(result, "status", None), "value", "unknown"))
            return result

        return wrapper

    def _evolve_wrapper(self, original):
        def wrapper(cfg, baseline, catalog, fitness_fn, progress=None):
            self.trial += 1
            self.generation = 0
            last = [time.perf_counter()]

            def on_generation(record):
                now = time.perf_counter()
                self.gen_ms.append((now - last[0]) * 1000.0)
                last[0] = now
                self.generation += 1
                if progress is not None:
                    progress(record)

            return self.span("evolution.evolve", original, cfg, baseline, catalog, fitness_fn, on_generation)

        return wrapper

    def install(self, hooks=HOOKS) -> None:
        for hook in hooks:
            target = _resolve(hook)
            if target is None:
                self.missing.append(hook)
                continue
            owner, name = target
            original = getattr(owner, name)
            self._installed.append((owner, name, original))
            setattr(owner, name, self._wrapper(hook, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "trial", "generation"])
            for sid, (name, start, end, parent, trial, gen) in enumerate(self.spans):
                writer.writerow([sid, name, f"{start:.9f}", f"{end:.9f}", parent, trial, gen])

    def layer_metrics(self, status_names: list[str]) -> dict[str, float]:
        """Per-layer metrics from the recorded spans, minus those a missing hook feeds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children: dict[int, list[int]] = {}
        for sid, (_, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                children.setdefault(parent, []).append(sid)

        count: dict[str, int] = {}
        total: dict[str, float] = {}
        self_by_name: dict[str, float] = {}
        stage_s = dict.fromkeys((*BUILD_STAGES, "run"), 0.0)
        runs = 0
        evals_in_evolve = 0
        baseline_s = 0.0
        for sid, (name, start, end, parent, _, _) in enumerate(spans):
            duration = end - start
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            self_by_name[name] = self_by_name.get(name, 0.0) + duration - child_time[sid]
            parent_name = spans[parent][0] if parent >= 0 else ""
            if name == "patches.apply_individual" and parent_name == "evolution.evolve":
                evals_in_evolve += 1
            elif name == "fitness.time_execution":
                if parent_name == "fitness.build_executable":
                    index = children[parent].index(sid)
                    stage_s[BUILD_STAGES[min(index, len(BUILD_STAGES) - 1)]] += duration
                else:
                    stage_s["run"] += duration
                    runs += 1
            if parent_name == "experiment.run_trials" and name.startswith("fitness."):
                baseline_s += duration

        def n(name):
            return count.get(name, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        digests = n("fitness.sequence_digest")
        builds = n("fitness.build_executable")
        evaluations = n("fitness.evaluate")
        gen_ms = sorted(self.gen_ms)
        metrics = {
            "catalog.sequences_built": n("catalog.PassSequence.__post_init__"),
            "catalog.validate_s": total.get("catalog.PassSequence.__post_init__", 0.0),
            "patches.apply_calls": n("patches.apply_individual"),
            "patches.genes_applied": self.genes_applied,
            "patches.apply_s": self_by_name.get("patches.apply_individual", 0.0),
            "fitness.edit_distance_calls": n("fitness.edit_distance"),
            "fitness.edit_distance_s": total.get("fitness.edit_distance", 0.0),
            "fitness.sim_fresh": n("fitness.simulated_record"),
            "fitness.memo_hit_ratio": ratio(digests - n("fitness.simulated_record"), digests),
            "fitness.digest_s": total.get("fitness.sequence_digest", 0.0),
            "evolution.generations": len(gen_ms),
            "evolution.evals": evals_in_evolve,
            "evolution.self_s": self_by_name.get("evolution.evolve", 0.0),
            "evolution.gen_ms.p50": statistics.median(gen_ms) if gen_ms else 0.0,
            "evolution.gen_ms.p99": gen_ms[min(len(gen_ms) - 1, int(0.99 * len(gen_ms)))] if gen_ms else 0.0,
            "experiment.run_trials_s": total.get("experiment.run_trials", 0.0),
            "experiment.self_s": self_by_name.get("experiment.run_trials", 0.0),
            "experiment.baseline_s": baseline_s,
            "fitness.evaluate_calls": evaluations,
            "fitness.cache_hits": evaluations - builds,
            "fitness.cache_hit_ratio": ratio(evaluations - builds, evaluations),
            "fitness.builds": builds,
            "fitness.distinct_exe": len(set(self.exe_digests)),
            "fitness.distinct_exe_ratio": ratio(len(set(self.exe_digests)), builds),
            "fitness.front_s": stage_s["front"],
            "fitness.opt_s": stage_s["opt"],
            "fitness.link_s": stage_s["link"],
            "fitness.run_s": stage_s["run"],
            "fitness.runs": runs,
        }
        for status in status_names:
            metrics[f"fitness.fail.{status}"] = self.statuses.count(status)
        metrics["fitness.self_s"] = sum(v for k, v in self_by_name.items() if k.startswith("fitness."))

        missing = set()
        for hook in self.missing:
            missing.update(hook.feeds)
            missing.update(SELF_METRIC[name.split(".")[0]] for name in (hook.span, *hook.feeds))
        return {
            key: value
            for key, value in metrics.items()
            if key not in missing and not (key.startswith("fitness.fail.") and "fitness.fail.*" in missing)
        }
