"""Command-line entry point.

Subcommands: evolve (run an experiment from a config file), simulate (same,
with the backend forced to the simulated landscape), apply (apply a patch
file to a baseline and print the result), baseline (measure the unmodified
baseline), stats (t test over improvement percentages from a summary.json or
a plain number list). Exit codes: 0 success, 1 runtime failure, 2 usage or
config error. Flags override config-file values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .catalog import serialize_sequence
from .config import load_config
from .errors import ConfigError, ExecutionError, ValidationError
from .experiment import measure_baseline, resolve_catalog, resolve_sequence, run_trials
from .fitness import KIND_SIMULATED
from .patches import apply_individual, parse_individual
from .stats import DegenerateSampleError, summarize

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config file (INI)")
    parser.add_argument("--trials", type=int, help="override [experiment] trials")
    parser.add_argument("--seed", type=int, help="override [ga] rng_seed")
    parser.add_argument("--output-dir", help="override [experiment] output_dir")
    parser.add_argument(
        "--verbose", action="store_true", help="log one line per generation"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passevo",
        description="Evolve patch sequences over a baseline compiler pass pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="run a full multi-trial experiment")
    _add_override_flags(p_evolve)

    p_sim = sub.add_parser("simulate", help="run an experiment on the simulated backend")
    _add_override_flags(p_sim)

    p_apply = sub.add_parser("apply", help="apply a patch file to a baseline sequence")
    p_apply.add_argument("--baseline", required=True, help="baseline sequence file")
    p_apply.add_argument("--individual", required=True, help="patch file to apply")
    p_apply.add_argument("--catalog", required=True, help="pass catalog file")

    p_base = sub.add_parser("baseline", help="measure the unmodified baseline")
    p_base.add_argument("--config", required=True, help="experiment config file (INI)")

    p_stats = sub.add_parser("stats", help="t test over improvement percentages")
    p_stats.add_argument("input", help="summary.json or a plain list of numbers")

    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict[tuple[str, str], str]:
    overrides: dict[tuple[str, str], str] = {}
    if args.trials is not None:
        overrides[("experiment", "trials")] = str(args.trials)
    if args.seed is not None:
        overrides[("ga", "rng_seed")] = str(args.seed)
    if args.output_dir is not None:
        overrides[("experiment", "output_dir")] = args.output_dir
    return overrides


def _fmt(value: float | None, fmt: str = ".6g") -> str:
    if value is None:
        return "n/a"
    return format(value, fmt)


def cmd_evolve(args: argparse.Namespace, force_simulated: bool = False) -> int:
    overrides = _overrides_from_args(args)
    if force_simulated:
        overrides[("backend", "kind")] = KIND_SIMULATED
    cfg = load_config(args.config, overrides)

    progress = None
    if args.verbose:
        def progress(trial: int, rec) -> None:
            print(
                f"trial {trial} gen {rec.generation}: "
                f"best {rec.best_fitness:.6g} mean {rec.mean_fitness:.6g}"
            )

    results, summary = run_trials(cfg, progress)

    for r in results:
        if r.ok:
            print(
                f"trial {r.trial_index} (seed {r.seed}): baseline {r.baseline_fitness:.6g} s"
                f" -> best {r.best_fitness:.6g} s, improvement {r.percent_improvement:.4g}%"
            )
        else:
            print(f"trial {r.trial_index} (seed {r.seed}): FAILED: {r.error}")

    completed = [r for r in results if r.ok]
    failed = len(results) - len(completed)
    if failed:
        print(f"warning: {failed} of {len(results)} trials failed", file=sys.stderr)
    if not completed:
        print("all trials failed", file=sys.stderr)
        return EXIT_RUNTIME

    print(f"completed trials: {len(completed)}/{len(results)}")
    if summary is not None:
        print(
            f"mean improvement: {_fmt(summary.mean_improvement, '.4g')}%"
            f" (sample stddev {_fmt(summary.sample_stddev, '.4g')}, n={summary.n})"
        )
        print(
            f"one-tailed t test (H0: mean improvement = 0, H1: > 0): "
            f"t = {_fmt(summary.t_statistic)}, p = {_fmt(summary.p_value_one_tailed, '.3g')}"
        )
    print(f"artifacts written to {cfg.output_dir}")
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    catalog = resolve_catalog(args.catalog)
    baseline = resolve_sequence(args.baseline, catalog)
    path = Path(args.individual)
    if not path.is_file():
        raise ConfigError(f"individual file not found: {args.individual}")
    individual = parse_individual(path.read_text("utf-8"), catalog)
    sys.stdout.write(serialize_sequence(apply_individual(baseline, individual)))
    return EXIT_OK


def cmd_baseline(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    record = measure_baseline(cfg)
    print(
        f"baseline mean runtime {record.mean:.6f} s, sample stddev "
        f"{record.sample_stddev:.6f} s over {record.runs} run(s)"
    )
    return EXIT_OK


def _read_improvements(path_str: str) -> list[float]:
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"input file not found: {path_str}")
    text = path.read_text("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict):
        try:
            return [
                float(t["percent_improvement"])
                for t in doc["trials"]
                if t.get("status") == "ok"
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"unrecognized summary document: {exc}") from exc
    if isinstance(doc, list):
        values = doc
    else:
        values = [
            token
            for line in text.splitlines()
            if not line.strip().startswith("#")
            for token in line.split()
        ]
    try:
        numbers = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"not a list of numbers: {exc}") from exc
    if not all(math.isfinite(v) for v in numbers):
        raise ConfigError("improvement values must be finite")
    return numbers


def cmd_stats(args: argparse.Namespace) -> int:
    improvements = _read_improvements(args.input)
    summary = summarize(improvements)
    if summary.t_statistic is None:
        raise DegenerateSampleError(
            f"a t test needs at least 2 improvement values with spread, got {summary.n}"
        )
    print(f"n = {summary.n}")
    print(f"mean improvement = {_fmt(summary.mean_improvement)}%")
    print(f"sample stddev = {_fmt(summary.sample_stddev)}")
    print(f"t = {_fmt(summary.t_statistic)}")
    print(f"one-tailed p = {_fmt(summary.p_value_one_tailed, '.6g')}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "evolve":
            return cmd_evolve(args)
        if args.command == "simulate":
            return cmd_evolve(args, force_simulated=True)
        if args.command == "apply":
            return cmd_apply(args)
        if args.command == "baseline":
            return cmd_baseline(args)
        if args.command == "stats":
            return cmd_stats(args)
        parser.error(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
