"""Command-line entry point.

Subcommands: evolve (run an experiment from a config file), simulate (same,
with the backend forced to the simulated landscape), apply (apply a patch
file to a baseline and print the result), baseline (measure the unmodified
baseline), stats (t test over improvement percentages from a summary.json or
a plain number list). Each subcommand names its handler through argparse's
set_defaults(run=...), and main calls it; simulate is evolve with one more
override, [backend] kind = simulated. Exit codes: 0 success, 1 runtime
failure, 2 usage or config error. Flags override config-file values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .catalog import resolve_catalog, resolve_sequence, serialize_sequence
from .config import load_config
from .errors import ExecutionError, ValidationError, input_lines, read_input
from .experiment import measure_baseline, run_trials, summary_improvements
from .fitness import KIND_SIMULATED
from .patches import apply_individual, parse_individual
from .stats import summarize

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# evolve's and simulate's override flags: flag -> (type, config section, key)
_OVERRIDE_FLAGS = {
    "--trials": (int, "experiment", "trials"),
    "--seed": (int, "ga", "rng_seed"),
    "--output-dir": (str, "experiment", "output_dir"),
}


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(run=cmd_evolve, kind=None)
    parser.add_argument("--config", required=True, help="experiment config file (INI)")
    for flag, (parse, section, key) in _OVERRIDE_FLAGS.items():
        parser.add_argument(flag, type=parse, help=f"override [{section}] {key}")
    parser.add_argument("--verbose", action="store_true", help="log one line per generation")


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
    p_sim.set_defaults(kind=KIND_SIMULATED)

    p_apply = sub.add_parser("apply", help="apply a patch file to a baseline sequence")
    p_apply.set_defaults(run=cmd_apply)
    p_apply.add_argument("--baseline", required=True, help="baseline sequence file")
    p_apply.add_argument("--individual", required=True, help="patch file to apply")
    p_apply.add_argument("--catalog", required=True, help="pass catalog file")

    p_base = sub.add_parser("baseline", help="measure the unmodified baseline")
    p_base.set_defaults(run=cmd_baseline)
    p_base.add_argument("--config", required=True, help="experiment config file (INI)")

    p_stats = sub.add_parser("stats", help="t test over improvement percentages")
    p_stats.set_defaults(run=cmd_stats)
    p_stats.add_argument("input", help="summary.json or a plain list of numbers")

    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict[tuple[str, str], str]:
    values = {
        (section, key): getattr(args, flag[2:].replace("-", "_"))  # --output-dir: output_dir
        for flag, (_, section, key) in _OVERRIDE_FLAGS.items()
    }
    values[("backend", "kind")] = args.kind
    return {name: str(value) for name, value in values.items() if value is not None}


def _fmt(value: float | None, fmt: str = ".6g") -> str:
    if value is None:
        return "n/a"
    return format(value, fmt)


def cmd_evolve(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides_from_args(args))

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
    individual = parse_individual(read_input(args.individual, "individual"), catalog)
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


def _read_improvements(path: str) -> list[float]:
    text = read_input(path, "input")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict):
        numbers = summary_improvements(doc)
    else:
        try:
            numbers = [float(v) for _, fields in input_lines(text) for v in fields]
        except ValueError as exc:
            raise ValidationError(f"not a list of numbers: {exc}") from exc
    if not all(math.isfinite(v) for v in numbers):
        raise ValidationError("improvement values must be finite")
    return numbers


def cmd_stats(args: argparse.Namespace) -> int:
    improvements = _read_improvements(args.input)
    summary = summarize(improvements)
    if summary.t_statistic is None:
        raise ExecutionError(
            f"a t test needs at least 2 improvement values with spread, got {summary.n}"
        )
    print(f"n = {summary.n}")
    print(f"mean improvement = {_fmt(summary.mean_improvement)}%")
    print(f"sample stddev = {_fmt(summary.sample_stddev)}")
    print(f"t = {_fmt(summary.t_statistic)}")
    print(f"one-tailed p = {_fmt(summary.p_value_one_tailed, '.6g')}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone; what is still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_RUNTIME
    except (ValidationError, ExecutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ValidationError) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
