#!/usr/bin/env python3
"""passevo benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload sim-demo --seed 42 --seconds 30 --trace 0

Run from the root of a checkout. With --trace 0 it prints the end-to-end
metrics (setup_s, wall_s, peak_rss_mb); with --trace 1 it alternates
untraced and traced units and prints the per-layer metrics and the tracing
overhead. Every unit's outputs are checked by the oracles in oracles.py.
One row per metric goes to stdout, then, as the last line, a JSON object
with the keys correct, attempted, failed and metrics. The full result, with
machine facts and per-unit times, is written under .perfbench_out/.

setup_s and wall_s are in reference seconds: each measured interval is
scaled by KERNEL_REF_S over the median time of a tiny fixed pure-Python
kernel, timed every SAMPLE_INTERVAL_S from a SIGALRM handler while a unit
runs, and just before and after each set-up probe. On a shared host whose
speed drifts by tens of percent within seconds, that keeps runs comparable;
the raw seconds are printed as setup_raw_s and wall_raw_s.

Exit codes: 0 correct; 1 an oracle rejected an output; 2 passevo cannot be
imported or the arguments are wrong; 3 the LLVM 14 toolchain is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 11
# A reference second is a second on a machine where one run of the speed
# kernel takes this long (about the 2-core x86 host the workloads were sized
# on, when moderately busy).
KERNEL_REF_S = 0.0004
KERNEL_A = [f"-p{i % 11}" for i in range(30)]
KERNEL_B = KERNEL_A[:10] + ["-x"] + KERNEL_A[11:] + ["-y"]
SAMPLE_INTERVAL_S = 0.05
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
EXTRA_UNITS = {"setup_raw_s": "s", "wall_raw_s": "s", "kernel_us": "us", "eval_fail_frac": "ratio",
               "mean_improvement_pct": "%", "run_ms.p50": "ms", "run_ms.p90": "ms"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("sim-demo", "sim-fresh", "llvm14-replay"))
    parser.add_argument("--seed", type=int, default=42, help="42 reproduces configs/simulated.ini")
    parser.add_argument("--seconds", type=float, default=30.0, help="measure this long; at least one unit runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload to a few evaluations (tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Import the benchmark's workload module, which imports passevo from src/."""
    if not (ROOT / "src" / "passevo" / "__init__.py").is_file():
        raise ImportError("no passevo package in src/")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def make_workload(args):
    workloads = import_workloads()
    return workloads.WORKLOADS[args.workload](args.workload, args.seed, args.tiny)


def kernel() -> float:
    """Time one run of the speed kernel, a 30x32 edit-distance DP."""
    import oracles

    start = time.perf_counter()
    oracles.levenshtein(KERNEL_A, KERNEL_B)
    return time.perf_counter() - start


def calibrate() -> float:
    """Median of 25 back-to-back kernel timings."""
    return statistics.median(kernel() for _ in range(25))


class SpeedSampler:
    """Times the speed kernel from a SIGALRM handler every SAMPLE_INTERVAL_S.

    `spent` is the handlers' total time, to be taken off the interval they
    interrupted; `speed()` is the median kernel time, or None if no sample."""

    def __enter__(self):
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        self.samples.append(kernel())

    @property
    def spent(self) -> float:
        return sum(self.samples)

    def speed(self):
        return statistics.median(self.samples) if self.samples else None


def measure_setup(args) -> tuple[float, float, list[float]]:
    """Time from spawning a fresh interpreter until it has set up the workload.

    Returns the median in reference seconds, the median in raw seconds and
    the kernel calibrations taken between the probes."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        argv.append("--tiny")
    raw, scaled, calibrations = [], [], [calibrate()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        calibrations.append(calibrate())
        raw.append(ready - start)
        scaled.append(raw[-1] * KERNEL_REF_S * 2 / (calibrations[-2] + calibrations[-1]))
    return statistics.median(scaled), statistics.median(raw), calibrations


def machine_facts(args, versions) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "tools": versions,
        "seed": args.seed,
    }


def run_units(workload, args, work: Path, trace_on: bool):
    """Run units until the next one would overrun --seconds (always at least one,
    or one untraced/traced pair with --trace 1).

    Returns the untraced units, the traced units, the last tracer and the
    per-layer metrics of each traced unit."""
    import tracing

    untraced, traced, tracer, layer_rows = [], [], None, []
    begin = time.perf_counter()
    while True:
        index = len(untraced)  # a traced unit repeats the input of the untraced one before it
        for is_traced in ((False, True) if trace_on else (False,)):
            out_dir = work / f"unit-{len(untraced) + len(traced)}"
            gc.collect()
            if is_traced:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    with SpeedSampler() as sampler:
                        unit = workload.run(out_dir, index, tracer.span)
                finally:
                    tracer.uninstall()
            else:
                with SpeedSampler() as sampler:
                    unit = workload.run(out_dir, index)
            unit.sampler_s = sampler.spent
            unit.wall_s -= unit.sampler_s
            unit.calibration_s = sampler.speed() or calibrate()
            workload.check(out_dir, unit)
            shutil.rmtree(out_dir, ignore_errors=True)
            (traced if is_traced else untraced).append(unit)
            if is_traced:
                layer_rows.append(layer_metrics(tracer, unit))
        elapsed = time.perf_counter() - begin
        per_round = elapsed / len(untraced)
        if elapsed + per_round > args.seconds:
            return untraced, traced, tracer, layer_rows


def layer_metrics(tracer, unit) -> dict[str, float]:
    """The tracer's per-layer metrics plus how much of the unit's wall time they account for."""
    import tracing
    from passevo.fitness import EvaluationStatus

    statuses = [s.value for s in EvaluationStatus if s is not EvaluationStatus.OK]
    metrics = tracer.layer_metrics(statuses)
    selves = [metrics.get(name) for name in tracing.SELF_METRIC.values()]
    if None not in selves:
        metrics["trace.accounted_frac"] = sum(selves) / (unit.wall_s + unit.sampler_s)
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        import_workloads()
    except ImportError as exc:
        print(f"perfbench: cannot import passevo from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    if args.setup_probe:
        make_workload(args)
        print("ready", flush=True)
        return 0

    import workloads

    versions = workloads.tool_versions()
    if args.workload == "llvm14-replay" and "missing" in versions.values():
        missing = ", ".join(tool for tool, v in versions.items() if v == "missing")
        print(f"perfbench: llvm14-replay unavailable: {missing} not on PATH", file=sys.stderr)
        return 3

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")  # keep compiler temporaries inside the checkout
    try:
        setup_s, setup_raw_s, setup_calibrations = measure_setup(args)
        workload = make_workload(args)
        untraced, traced, tracer, layer_rows = run_units(workload, args, work, bool(args.trace))
        if tracer is not None:
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = untraced + traced
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    problems = [p for u in units for p in u.problems]
    untraced_wall = trimmed_mean(reference_seconds(u) for u in untraced)
    e2e = {
        "setup_s": setup_s,
        "wall_s": untraced_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    calibrations = setup_calibrations + [u.calibration_s for u in units]
    extras = {
        "setup_raw_s": setup_raw_s,
        "wall_raw_s": trimmed_mean(u.wall_s for u in untraced),
        "kernel_us": statistics.median(calibrations) * 1e6,
        "eval_fail_frac": failed / attempted,
    }
    improvements = [u.extras["mean_improvement_pct"] for u in untraced if "mean_improvement_pct" in u.extras]
    if improvements:
        extras["mean_improvement_pct"] = statistics.fmean(improvements)
    samples = [s for u in untraced for s in u.samples_ms]
    if samples:
        extras["run_ms.p50"] = statistics.median(samples)
        extras["run_ms.p90"] = statistics.quantiles(samples, n=10)[-1]
        extras["run_ms.samples"] = len(samples)

    if args.trace:
        names = sorted(set().union(*layer_rows))
        metrics = {name: statistics.median(row[name] for row in layer_rows) for name in names}
        traced_wall = trimmed_mean(reference_seconds(u) for u in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
        missing = sorted(f for hook in tracer.missing for f in hook.feeds)
        if missing:
            print(f"perfbench: hooks missing ({', '.join(h.module + '.' + h.attr for h in tracer.missing)}); "
                  f"not reported: {', '.join(sorted(set(missing)))}", file=sys.stderr)
        shown = {name: {"value": value, "unit": per_layer_unit(name)} for name, value in metrics.items()}
    else:
        shown = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}

    facts = machine_facts(args, versions)
    for name, entry in shown.items():
        print(f"{args.workload:<14} {name:<28} {entry['value']:>14.6f} {entry['unit']}")
    if not args.trace:
        for name, value in extras.items():
            print(f"{args.workload:<14} {name:<28} {value:>14.6f} {EXTRA_UNITS.get(name, 'count')}")
    print(f"{args.workload:<14} units={len(untraced)}+{len(traced)} traced  " +
          "  ".join(f"{k}={v}" for k, v in facts.items() if k != "tools") +
          "  " + "  ".join(f"{k}: {v}" for k, v in versions.items()))
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)

    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": shown}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace, tiny=args.tiny,
                  extras=extras, machine=facts, problems=problems,
                  unit_seeds=[u.seed for u in untraced],
                  unit_wall_s={"untraced": [u.wall_s for u in untraced], "traced": [u.wall_s for u in traced]},
                  unit_calibration_s={"untraced": [u.calibration_s for u in untraced],
                                      "traced": [u.calibration_s for u in traced]})
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", "utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest value (all values if fewer than 3).

    Units take successive seeds, so they differ in work as well as in noise;
    over the 6-9 units of a run this is about twice as steady as the median."""
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) > 2 else values)


def reference_seconds(unit) -> float:
    """A unit's wall time scaled by the speed kernel's median time during it."""
    return unit.wall_s * KERNEL_REF_S / unit.calibration_s


def per_layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms.p50") or name.endswith("_ms.p99"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
