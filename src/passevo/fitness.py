"""Fitness backends: external compile-and-time pipeline and simulated landscape.

A candidate sequence is scored by compiling a target program with it and
averaging wall-clock runtimes over a fixed number of runs, or, for
toolchain-free work, by a deterministic model that scores sequences by edit
distance to a hidden target. Failures (compile errors, crashes, timeouts)
never raise out of an evaluation: they produce a record whose fitness is
PENALTY, a value strictly worse than any measured runtime, so the search
simply moves past broken candidates.

Timing runs for one record are strictly sequential to avoid self-contention
skew; concurrency, if any, belongs at the compilation level and must go
through the cache, which keeps the first record written per digest.

The cache works at three levels. A repeated sequence is answered by its
digest, with no build at all. Otherwise the front end and optimizer run, and
each distinct optimized IR is linked once: the executable bytes it linked to
are kept in memory, so a later sequence that optimizes to the same IR gets
them written back instead of running the linker again. Then each distinct
executable is timed once: the cache is asked for a record timed from a
byte-identical executable (same sha256); if it holds one, the candidate gets
a copy of it under its own sequence digest and no run is repeated. Many pass
sequences give the same IR, and more still the same binary: a pass that is a
no-op at its position, or one a later pass undoes, changes nothing.

The IR key leaves out what `opt -S` writes from the path of its input,
because every build has its own directory: a leading "; ModuleID = '...'"
line, and a source_filename line right after it that names the same path,
which opt writes when the input IR names none. Any other source_filename
(the one a front end writes) counts.

Every failure of a build stage or a timed run passes through one
EvaluationFailure, which evaluate turns into the penalty record. A tool or
program that could not be started at all is a fault of the environment,
not of the candidate, so that record is never cached.

The simulated landscape scores a batch by edit distance to a hidden target
in one pass of Myers' bit-vector recurrence ("A fast bit-vector algorithm for
approximate string matching based on dynamic programming", JACM 1999), in
its global form with the target on the row side, one candidate per lane of a
big integer: the multiple-pattern packing of Hyyro, Fredriksson and Navarro
("Increased bit-parallelism for approximate and multiple string matching",
ACM JEA 2006). Lane k is bytes k*w .. k*w+w-1, w = len(target) // 8 + 1, so
at least one guard bit sits above the target's rows; `& full` clears guard
bits before they reach pv, so carries and shifts stay in their lane.

A lane skips the prefix p and suffix s that its candidate b shares with the
target, p + s <= min(m, len(b)) for m = len(target). It starts in column p,
where D[i][p] = |i - p| (mv holds rows 1..p, pv rows p+1..m), is fed only
b[p : len(b) - s], one element per column, and is read at that middle's last
column as D[m-s][len(b)-s] = len(b) - s + popcount(pv) - popcount(mv) over
rows 1..m-s; a lane with an empty middle is m - len(b). The loop runs as many
columns as the longest middle, so only a trim that shortens it pays: lanes
are trimmed longest first while one is longer than the columns already
needed, up to the first whose shared ends are under an eighth of it.
Trimming every lane made the kernel 1.2x as slow as no trim on far-off
candidates, to save ~5 of ~86 columns (sim-fresh batches, 2-core x86 host).
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import os
import random
import re
import select
import shlex
import signal
import statistics
import subprocess
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from itertools import compress, count, repeat, zip_longest
from operator import ne
from pathlib import Path

from .catalog import PassCatalog, PassSequence, _trusted_sequence
from .errors import ValidationError

PENALTY = float("inf")

KIND_EXTERNAL = "external_compiler"
KIND_SIMULATED = "simulated"

# Failure diagnostics kept per persisted cache row: the tail, where the error is.
DIAGNOSTICS_KEPT = 2000

# Longest run_timeout or compile_timeout, in seconds (about 31 years); select overflows near 9.2e9.
MAX_TIMEOUT = 1e9

# Per stage key: the placeholders its template may take and, if kind = external_compiler, must take (one of each group).
# Only the optimizer sees the candidate, so the optimized IR decides the executable; the front end need take nothing.
_STAGES = {"compiler_front_command": (("source", "ir"), ()),
           "optimizer_command": (("ir", "output", "passes", "passes_csv"), (("passes", "passes_csv"), ("output",))),
           "linker_command": (("ir", "output"), (("ir",), ("output",)))}
_PLACEHOLDER = re.compile(r"\{(source|ir|output|passes|passes_csv)\}")
# '; ModuleID', then any source_filename that names the same path: what opt -S writes from its input path.
_OPT_HEADER = re.compile(rb"; ModuleID = '(.*)'\n(?:source_filename = \"\1\"\n)?")


class EvaluationStatus(enum.Enum):
    OK = "ok"
    COMPILE_ERROR = "compile_error"
    RUN_ERROR = "run_error"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class BackendConfig:
    """Everything an evaluation needs; command templates split shell-style and take
    the placeholders _STAGES allows, {passes} only as a whole argument. The
    external_compiler kind needs an existing source file, all three templates,
    each taking what _STAGES requires, and os.pidfd_open."""

    kind: str = KIND_SIMULATED
    source_path: str = ""
    compiler_front_command: str = ""
    optimizer_command: str = ""
    linker_command: str = ""
    runs_per_eval: int = 40
    run_timeout: float = 10.0
    compile_timeout: float = 60.0
    program_args: tuple[str, ...] = ()
    workdir: str = ""
    sim_base_runtime: float = 1.0
    sim_target_edits: int = 2
    sim_target_seed: int = 0

    def __post_init__(self):
        if self.kind not in (KIND_EXTERNAL, KIND_SIMULATED):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        external = self.kind == KIND_EXTERNAL
        if external and not self.source_path:
            raise ValueError(f"source_path is required when kind = {KIND_EXTERNAL}")
        for key, (allowed, required) in _STAGES.items():
            try:
                tokens = shlex.split(getattr(self, key))
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
            if external and not tokens:
                raise ValueError(f"{key} is required when kind = {KIND_EXTERNAL}")
            taken = [name for token in tokens for name in _PLACEHOLDER.findall(token)]
            for name in taken:
                if name not in allowed:
                    raise ValueError(f"{key} cannot take {{{name}}}; it takes {{{'}, {'.join(allowed)}}}")
            if any("{passes}" in token and token != "{passes}" for token in tokens):
                raise ValueError(f"{key}: {{passes}} must be a whole argument; use {{passes_csv}} in one")
            for names in required if external else ():
                if not set(names).intersection(taken):
                    raise ValueError(f"{key} must take {{{'} or {'.join(names)}}}")
        if self.runs_per_eval < 1:
            raise ValueError("runs_per_eval must be >= 1")
        for key in ("run_timeout", "compile_timeout", "sim_base_runtime"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be finite and > 0")
        for key in ("run_timeout", "compile_timeout"):
            if getattr(self, key) > MAX_TIMEOUT:
                raise ValueError(f"{key} must be <= {MAX_TIMEOUT:,.0f} seconds")
        if self.sim_target_edits < 0:
            raise ValueError("sim_target_edits must be >= 0")
        if external:
            if not Path(self.source_path).is_file():
                raise ValueError(f"source file not found: {self.source_path}")
            # time_execution waits on a pidfd; an old kernel or a seccomp filter refuses the call itself
            try:
                os.close(os.pidfd_open(os.getpid()))
            except (AttributeError, OSError) as exc:
                raise ValueError(f"kind = {KIND_EXTERNAL} needs os.pidfd_open, Linux 5.3 or later: {exc}") from exc


@dataclass(frozen=True, slots=True)
class EvaluationRecord:
    """Outcome of scoring one sequence.

    For a fresh status=ok record, samples holds one wall-clock figure per run
    and mean/sample_stddev summarize them. Records reloaded from a persisted
    cache carry the summary statistics only (samples is empty).
    """

    sequence_digest: str
    runs: int
    samples: tuple[float, ...]
    mean: float
    sample_stddev: float
    status: EvaluationStatus
    diagnostics: str = ""

    @property
    def fitness(self) -> float:
        return self.mean if self.status is _OK else PENALTY


def sequence_digest(seq: PassSequence) -> str:
    """Stable, order-sensitive hash of the pass list."""
    return hashlib.sha256("\n".join(seq.passes).encode("utf-8")).hexdigest()


class EvaluationCache:
    """Digest-keyed record store, optionally persisted as JSON lines.

    put() keeps the first record per sequence digest; concurrent writers
    therefore agree on one canonical record. A record timed from an
    executable is also indexed by the executable's digest, first writer
    wins, so get_timed() can hand its timing to a candidate that builds the
    same bytes. Records are immutable once stored. Every persisted row has
    the same keys; its "exe" is null when nothing was built.

    In memory only, put_linked() keeps the executable each optimized IR
    linked to, one copy of the bytes per distinct executable, for
    get_linked(); a resumed run links each IR once more.
    """

    # The JSON types that a persisted row's fields may take; a bool is not a number here,
    # and put() writes a non-finite mean or stddev as null.
    _ROW_TYPES = {"digest": (str,), "runs": (int,), "mean": (float, int, type(None)),
                  "stddev": (float, int, type(None)), "diagnostics": (str,), "exe": (str, type(None))}

    def __init__(self, path: Path | str | None = None):
        self._records: dict[str, EvaluationRecord] = {}
        self._timed: dict[str, EvaluationRecord] = {}
        self._exes: dict[bytes, bytes] = {}
        self._linked: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self._path = Path(path) if path is not None else None
        if self._path is not None and self._path.exists():
            self._load(self._path)

    def _load(self, path: Path) -> None:
        """Read persisted records; cut a torn tail, reject any other bad line.

        A row is whole if and only if it ends in a newline, as put() writes
        it. A run killed mid-append leaves bytes after the last newline; they
        are cut, so later appends start on a fresh line. Every whole non-blank
        line must be a record, or a ValidationError names it and nothing is cut.
        """
        data = path.read_bytes()
        whole = data.rfind(b"\n") + 1
        lines = data[:whole].split(b"\n")
        for index, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                wrong = [key for key, types in self._ROW_TYPES.items() if key in row and type(row[key]) not in types]
                wrong += [key for key in ("mean", "stddev") if row[key] is not None and not math.isfinite(row[key])]
                # an ok mean is a mean of wall times
                if row["status"] == _OK.value and (row["mean"] is None or row["mean"] < 0):
                    wrong.append("mean")
                if wrong:
                    raise ValueError(f"bad value for {', '.join(wrong)}")
                record = EvaluationRecord(
                    sequence_digest=row["digest"],
                    runs=row["runs"],
                    samples=(),
                    mean=PENALTY if row["mean"] is None else float(row["mean"]),
                    sample_stddev=0.0 if row["stddev"] is None else float(row["stddev"]),
                    status=EvaluationStatus(row["status"]),
                    diagnostics=row.get("diagnostics", ""),
                )
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise ValidationError(f"{path}: line {index} of the evaluation cache is not a record: {exc!r}") from exc
            self._records.setdefault(record.sequence_digest, record)
            if row.get("exe") is not None:
                self._timed.setdefault(row["exe"], record)
        if whole < len(data):
            warnings.warn(f"{path}: dropping torn last line {len(lines)} of the evaluation cache")
            with path.open("r+b") as fh:
                fh.truncate(whole)

    def __len__(self) -> int:
        return len(self._records)

    def get(self, digest: str) -> EvaluationRecord | None:
        with self._lock:
            return self._records.get(digest)

    def get_timed(self, exe_digest: str) -> EvaluationRecord | None:
        """The first record timed from the executable with this digest."""
        with self._lock:
            return self._timed.get(exe_digest)

    def get_linked(self, ir_digest: str) -> bytes | None:
        """The executable bytes that the optimized IR with this digest linked to."""
        with self._lock:
            return self._linked.get(ir_digest)

    def put_linked(self, ir_digest: str, exe: bytes) -> None:
        """Remember what an optimized IR linked to; equal bytes are interned as one copy, unhashed."""
        with self._lock:
            self._linked.setdefault(ir_digest, self._exes.setdefault(exe, exe))

    def put(self, record: EvaluationRecord, exe_digest: str | None = None) -> EvaluationRecord:
        """Store a record, and index it by `exe_digest` if it was timed from an executable."""
        with self._lock:
            existing = self._records.get(record.sequence_digest)
            if existing is not None:
                return existing
            self._records[record.sequence_digest] = record
            if exe_digest is not None:
                self._timed.setdefault(exe_digest, record)
            if self._path is not None:
                row = {
                    "digest": record.sequence_digest,
                    "status": record.status.value,
                    "runs": record.runs,
                    "mean": record.mean if math.isfinite(record.mean) else None,
                    "stddev": record.sample_stddev if math.isfinite(record.sample_stddev) else None,
                    "diagnostics": record.diagnostics[-DIAGNOSTICS_KEPT:],
                    "exe": exe_digest,
                }
                with self._path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
            return record


@dataclass(frozen=True)
class RunResult:
    seconds: float
    returncode: int | None
    timed_out: bool
    output: str


def time_execution(argv: list[str], timeout: float) -> RunResult:
    """Wall-clock one process from spawn to its leader's exit or `timeout`, then kill its process group.

    The run is scored by the leader's exit alone, waited for on a pidfd
    (Linux 5.3 or later). The process leads a new session with stdin on
    /dev/null. On an exit, a timeout or an interrupt (re-raised) alike, its
    whole group (the tools under a `sh -c` template, a process the leader
    left behind) is killed before the leader is reaped, while the leader's
    zombie still holds the group id. A process that left the group (a
    daemon) is neither waited for nor killed. The clock stops at the reap.
    The output, stdout and stderr, goes to an unlinked temporary file read
    after the reap, decoded as UTF-8 with bad bytes replaced.
    """
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT, start_new_session=True
            )
        except OSError as exc:
            return RunResult(time.perf_counter() - start, None, False, f"spawn failed: {exc}")
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], timeout)[0]
            finally:
                os.close(pidfd)
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        seconds = time.perf_counter() - start
        out.seek(0)
        output = out.read().decode("utf-8", "replace")
    return RunResult(seconds, None if timed_out else proc.returncode, timed_out, output)


def expand_command(template: str, substitutions: dict[str, str], passes: tuple[str, ...]) -> list[str]:
    """Split a command template and fill its placeholders.

    A bare {passes} token expands to one argv entry per pass, in order;
    {passes_csv} expands in place to the comma-joined names with leading
    dashes stripped (the new-pass-manager style). Each token is filled in one
    pass: a filled-in value is never read again, and a name that is not given
    (a shell ${VAR}) stays as written.
    """
    fills = {**substitutions, "passes_csv": ",".join(name.lstrip("-") for name in passes)}
    fill = lambda match: fills.get(match[1], match[0])
    argv: list[str] = []
    for token in shlex.split(template):
        if token == "{passes}":
            argv.extend(passes)
        else:
            argv.append(_PLACEHOLDER.sub(fill, token))
    return argv


class EvaluationFailure(Exception):
    """A failed build stage or timed run; one that never started is not `cacheable`."""

    def __init__(self, status: EvaluationStatus, diagnostics: str, cacheable: bool = True):
        super().__init__(diagnostics)
        self.status = status
        self.diagnostics = diagnostics
        self.cacheable = cacheable


def _check(result: RunResult, what: str, status: EvaluationStatus) -> float:
    """Return the seconds of a clean exit; raise EvaluationFailure otherwise."""
    if result.timed_out:
        raise EvaluationFailure(EvaluationStatus.TIMEOUT, f"{what} timed out:\n{result.output}")
    if result.returncode is None:
        raise EvaluationFailure(status, f"{what} failed:\n{result.output}", cacheable=False)
    if result.returncode != 0:
        raise EvaluationFailure(status, f"{what} failed (exit {result.returncode}):\n{result.output}")
    return result.seconds


def ir_digest(optimized_ir: bytes) -> str:
    """Digest of an optimized IR file, leaving out the header opt writes from its input path (module docstring)."""
    header = _OPT_HEADER.match(optimized_ir)
    return hashlib.sha256(optimized_ir[header.end() if header else 0 :]).hexdigest()


def build_executable(seq: PassSequence, cfg: BackendConfig, build_dir: Path, cache: EvaluationCache) -> Path:
    """Run front-end, optimizer and linker; return the executable path.

    An optimized IR that has been linked before, as `cache` knows, gets the
    executable it linked to written back, and the linker does not run.
    Raises EvaluationFailure for a failed stage or a missing output file.
    """
    ir = build_dir / "program.ir"
    optimized = build_dir / "program.opt.ir"
    exe = build_dir / "program.bin"

    def run(name: str, template: str, subs: dict[str, str]) -> None:
        argv = expand_command(template, subs, seq.passes)
        _check(time_execution(argv, cfg.compile_timeout), name, EvaluationStatus.COMPILE_ERROR)
        output = subs.get("output")
        if output is not None and not os.path.isfile(output):
            raise EvaluationFailure(EvaluationStatus.COMPILE_ERROR, f"{name} exited 0 but wrote no {Path(output).name}")

    run("front-end", cfg.compiler_front_command, {"source": cfg.source_path, "ir": str(ir)})
    run("optimizer", cfg.optimizer_command, {"ir": str(ir), "output": str(optimized)})
    key = ir_digest(optimized.read_bytes())
    linked = cache.get_linked(key)
    if linked is not None:
        exe.write_bytes(linked)
        exe.chmod(0o755)
        return exe
    run("linker", cfg.linker_command, {"ir": str(optimized), "output": str(exe)})
    cache.put_linked(key, exe.read_bytes())
    return exe


def evaluate(seq: PassSequence, cfg: BackendConfig, cache: EvaluationCache) -> EvaluationRecord:
    """Compile with the candidate sequence and time it runs_per_eval times.

    Total for candidates: every failure of one comes back as a record, never
    as an exception; a build directory that cannot be created is a
    ValidationError. The cache short-circuits repeat evaluations by sequence
    digest, repeat links of the same optimized IR, and repeat timings of a
    byte-identical executable (the record is copied under this sequence's
    digest). A record for a tool or program that could not be started is
    returned but not cached.
    """
    if cfg.kind != KIND_EXTERNAL:
        raise ValueError(
            "evaluate() drives the external toolchain; a simulated config scores through experiment.build_records_fn"
        )
    digest = sequence_digest(seq)
    hit = cache.get(digest)
    if hit is not None:
        return hit
    try:
        if cfg.workdir:
            Path(cfg.workdir).mkdir(parents=True, exist_ok=True)
        build_dir = tempfile.TemporaryDirectory(prefix="passevo-", dir=cfg.workdir or None)
    except OSError as exc:
        raise ValidationError(f"cannot create a build directory (see [backend] workdir): {exc}") from exc
    exe_digest = None
    try:
        with build_dir as tmp:
            exe = build_executable(seq, cfg, Path(tmp), cache)
            exe_digest = hashlib.sha256(exe.read_bytes()).hexdigest()
            timed = cache.get_timed(exe_digest)
            if timed is not None:
                record = replace(timed, sequence_digest=digest)
            else:
                argv = [str(exe), *cfg.program_args]
                samples = [
                    _check(time_execution(argv, cfg.run_timeout), "run", EvaluationStatus.RUN_ERROR)
                    for _ in range(cfg.runs_per_eval)
                ]
                record = EvaluationRecord(
                    sequence_digest=digest,
                    runs=cfg.runs_per_eval,
                    samples=tuple(samples),
                    mean=statistics.fmean(samples),
                    sample_stddev=statistics.stdev(samples) if len(samples) > 1 else 0.0,
                    status=EvaluationStatus.OK,
                )
    except EvaluationFailure as fail:
        record = EvaluationRecord(
            sequence_digest=digest,
            runs=cfg.runs_per_eval,
            samples=(),
            mean=PENALTY,
            sample_stddev=0.0,
            status=fail.status,
            diagnostics=fail.diagnostics,
        )
        if not fail.cacheable:
            return record
    return cache.put(record, exe_digest)


def match_lanes(a: tuple[str, ...]) -> dict[str, bytes]:
    """The lane of each symbol x of `a`: len(a) // 8 + 1 bytes, bit i set where a[i] == x."""
    masks: dict[str, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | (1 << i)
    return {x: mask.to_bytes(len(a) // 8 + 1, "little") for x, mask in masks.items()}


def edit_distances(
    a: tuple[str, ...], bs: list[tuple[str, ...]], lanes: dict[str, bytes] | None = None
) -> list[int]:
    """Element-level Levenshtein distance from `a` to each of `bs`, one lane each (module docstring).

    `lanes` must be match_lanes(a); build them once to measure many batches against one `a`."""
    if lanes is None:
        lanes = match_lanes(a)
    m, n, width = len(a), len(bs), len(a) // 8 + 1
    zero, row_mask = bytes(width), (1 << m) - 1
    full = int.from_bytes(row_mask.to_bytes(width, "little") * n, "little")
    ones = int.from_bytes(b"\x01".ljust(width, b"\0") * n, "little")
    lengths = [len(b) for b in bs]
    middles, suffixes, out = list(bs), [0] * n, [m - length for length in lengths]
    # pv/mv mark the rows whose vertical delta D[i][j] - D[i-1][j] is +1/-1.
    mv = need = 0
    for k in sorted(range(n), key=lengths.__getitem__, reverse=True):
        b, length = bs[k], lengths[k]
        if length <= need:
            break
        # the index of the first mismatch from the front, then from the back
        shorter = min(m, length)
        p = next(compress(count(), map(ne, a, b)), shorter)
        s = min(next(compress(count(), map(ne, reversed(a), reversed(b))), shorter), shorter - p)
        if 8 * (p + s) < length:
            break
        middles[k], suffixes[k] = b[p : length - s], s
        mv |= ((1 << p) - 1) << (8 * width * k)
        need = max(need, length - p - s)
    ends: dict[int, list[int]] = {}
    for k, middle in enumerate(middles):
        ends.setdefault(len(middle), []).append(k)
    pv = full ^ mv
    get, join, from_bytes, fill = lanes.get, b"".join, int.from_bytes, repeat(zero)
    for j, column in enumerate(zip_longest(*middles), 1):
        eq = from_bytes(join(map(get, column, fill)), "little")
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        ph = (ph << 1) | ones  # ph's guard bits reach pv and mv only through & full and & xv
        mh = (mh << 1) & full
        pv = mh | (~(xv | ph) & full)
        mv = ph & xv
        for k in ends.get(j, ()):
            shift, rows = 8 * width * k, row_mask >> suffixes[k]
            out[k] = lengths[k] - suffixes[k] + ((pv >> shift) & rows).bit_count() - ((mv >> shift) & rows).bit_count()
    return out


def edit_distance(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """edit_distances for one candidate."""
    return edit_distances(a, [b])[0]


@dataclass(frozen=True)
class SimModel:
    """Hidden-target landscape: fitness grows with distance from the target.

    The target's match lanes are built once, here, for every batch measured against it."""

    target: PassSequence
    base_runtime: float
    lanes: dict[str, bytes] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.base_runtime < math.inf:
            raise ValueError("base_runtime must be finite and > 0")
        object.__setattr__(self, "lanes", match_lanes(self.target.passes))


def simulated_fitnesses(seqs: list[PassSequence], model: SimModel) -> list[float]:
    # The distance is symmetric, so the target takes the row side and its lanes.
    distances = edit_distances(model.target.passes, [seq.passes for seq in seqs], model.lanes)
    return [model.base_runtime * (1.0 + d / max(len(model.target), 1)) for d in distances]


# simulated_record fills each slot through its member descriptor, as the
# trusted constructors in patches.py do; the frozen keyword __init__ costs
# more than twice as much.
_set_digest = EvaluationRecord.__dict__["sequence_digest"].__set__
_set_runs = EvaluationRecord.__dict__["runs"].__set__
_set_samples = EvaluationRecord.__dict__["samples"].__set__
_set_mean = EvaluationRecord.__dict__["mean"].__set__
_set_stddev = EvaluationRecord.__dict__["sample_stddev"].__set__
_set_status = EvaluationRecord.__dict__["status"].__set__
_set_diagnostics = EvaluationRecord.__dict__["diagnostics"].__set__
# Hot paths read OK as a global: a class-attribute enum lookup is slow on CPython 3.11 (3.12 made it cheaper).
_OK = EvaluationStatus.OK


def simulated_record(digest: str, value: float) -> EvaluationRecord:
    """The record of the sequence with this digest, which the simulated landscape scored `value`."""
    record = object.__new__(EvaluationRecord)
    _set_digest(record, digest)
    _set_runs(record, 1)
    _set_samples(record, (value,))
    _set_mean(record, value)
    _set_stddev(record, 0.0)
    _set_status(record, _OK)
    _set_diagnostics(record, "")
    return record


def perturb_sequence(
    baseline: PassSequence, catalog: PassCatalog, n_edits: int, rng: random.Random
) -> PassSequence:
    """Derive a sequence exactly n_edits element-edits away from baseline.

    Composed random edits can cancel, so the draw is retried until the edit
    distance verifiably equals n_edits. If no draw lands, n_edits seeded
    passes are appended, which is exactly n_edits inserts away.
    """
    for _ in range(1000):
        passes = list(baseline.passes)
        for _ in range(n_edits):
            ops = ["insert"]
            if passes:
                ops += ["delete", "replace"]
            op = rng.choice(ops)
            if op == "insert":
                passes.insert(rng.randint(0, len(passes)), rng.choice(catalog.passes))
            elif op == "delete":
                del passes[rng.randrange(len(passes))]
            else:
                i = rng.randrange(len(passes))
                others = [p for p in catalog.passes if p != passes[i]]
                if not others:
                    continue
                passes[i] = rng.choice(others)
        candidate = _trusted_sequence(tuple(passes))
        if edit_distance(candidate.passes, baseline.passes) == n_edits:
            return candidate
    extra = tuple(rng.choice(catalog.passes) for _ in range(n_edits))
    return _trusted_sequence(baseline.passes + extra)
