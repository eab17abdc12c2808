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

The IR key ignores a leading "; ModuleID = '...'" line, because `opt -S`
writes the path of its input there and every build has its own directory.
A linker command that takes {passes} or {passes_csv} depends on more than
the IR, so it always runs.

Every failure of a build stage or a timed run passes through one
EvaluationFailure, which evaluate turns into the penalty record. A tool or
program that could not be started at all is a fault of the environment,
not of the candidate, so that record is never cached.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import random
import shlex
import statistics
import subprocess
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from .catalog import PassCatalog, PassSequence
from .errors import ConfigError

PENALTY = float("inf")

KIND_EXTERNAL = "external_compiler"
KIND_SIMULATED = "simulated"

# Failure diagnostics kept per persisted cache row: the tail, where the error is.
DIAGNOSTICS_KEPT = 2000


class EvaluationStatus(enum.Enum):
    OK = "ok"
    COMPILE_ERROR = "compile_error"
    RUN_ERROR = "run_error"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class BackendConfig:
    """Everything an evaluation needs; command templates use the placeholders
    {source}, {ir}, {passes}, {passes_csv} and {output}. The external_compiler
    kind needs source_path and all three command templates."""

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
        if self.kind == KIND_EXTERNAL:
            for key in ("source_path", "compiler_front_command", "optimizer_command", "linker_command"):
                if not getattr(self, key):
                    raise ValueError(f"{key} is required when kind = {KIND_EXTERNAL}")
        if self.runs_per_eval < 1:
            raise ValueError("runs_per_eval must be >= 1")
        for key in ("run_timeout", "compile_timeout", "sim_base_runtime"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be finite and > 0")
        if self.sim_target_edits < 0:
            raise ValueError("sim_target_edits must be >= 0")


@dataclass(frozen=True)
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
        return self.mean if self.status is EvaluationStatus.OK else PENALTY


def sequence_digest(seq: PassSequence) -> str:
    """Stable, order-sensitive hash of the pass list."""
    return hashlib.sha256("\n".join(seq.passes).encode("utf-8")).hexdigest()


class EvaluationCache:
    """Digest-keyed record store, optionally persisted as JSON lines.

    put() keeps the first record per sequence digest; concurrent writers
    therefore agree on one canonical record. A record timed from an
    executable is also indexed by the executable's digest, first writer
    wins, so get_timed() can hand its timing to a candidate that builds the
    same bytes. Records are immutable once stored.

    In memory only, put_linked() keeps the executable each optimized IR
    linked to, one copy of the bytes per distinct executable, for
    get_linked(); a resumed run links each IR once more.
    """

    def __init__(self, path: Path | str | None = None):
        self._records: dict[str, EvaluationRecord] = {}
        self._timed: dict[str, EvaluationRecord] = {}
        self._exes: dict[str, bytes] = {}
        self._linked: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self._path = Path(path) if path is not None else None
        if self._path is not None and self._path.exists():
            self._load(self._path)

    def _load(self, path: Path) -> None:
        """Read persisted records; drop a torn last line, reject any other bad line.

        A run killed mid-append leaves a partial last line. It is cut from
        the file, so later appends start on a fresh line, and the run
        resumes with every complete record. Any other line that is not a
        record is a ConfigError naming the file and the line.
        """
        lines = path.read_bytes().split(b"\n")
        offset = 0
        for index, line in enumerate(lines):
            start, offset = offset, offset + len(line) + 1
            if not line.strip():
                continue
            bad = f"{path}: line {index + 1} of the evaluation cache is not a record"
            try:
                row = json.loads(line)
            except ValueError as exc:
                if any(rest.strip() for rest in lines[index + 1 :]):
                    raise ConfigError(f"{bad}: {exc}") from exc
                warnings.warn(f"{path}: dropping torn last line {index + 1} of the evaluation cache")
                with path.open("r+b") as fh:
                    fh.truncate(start)
                return
            try:
                record = EvaluationRecord(
                    sequence_digest=row["digest"],
                    runs=int(row["runs"]),
                    samples=(),
                    mean=PENALTY if row["mean"] is None else float(row["mean"]),
                    sample_stddev=0.0 if row["stddev"] is None else float(row["stddev"]),
                    status=EvaluationStatus(row["status"]),
                    diagnostics=row.get("diagnostics", ""),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{bad}: {exc!r}") from exc
            self._records.setdefault(record.sequence_digest, record)
            if row.get("exe") is not None:
                self._timed.setdefault(row["exe"], record)

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
        """Remember what an optimized IR linked to, interning the bytes by their digest."""
        exe_digest = hashlib.sha256(exe).hexdigest()
        with self._lock:
            self._linked.setdefault(ir_digest, self._exes.setdefault(exe_digest, exe))

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
                }
                if exe_digest is not None:
                    row["exe"] = exe_digest
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
    """Wall-clock one process from spawn to exit, killing it at `timeout`."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=timeout,
            text=True,
            errors="replace",
        )
    except subprocess.TimeoutExpired as exc:
        out = exc.output
        if isinstance(out, bytes):
            out = out.decode("utf-8", "replace")
        return RunResult(time.perf_counter() - start, None, True, out or "")
    except OSError as exc:
        return RunResult(time.perf_counter() - start, None, False, f"spawn failed: {exc}")
    return RunResult(time.perf_counter() - start, proc.returncode, False, proc.stdout or "")


def expand_command(template: str, substitutions: dict[str, str], passes: tuple[str, ...]) -> list[str]:
    """Split a command template and fill its placeholders.

    A bare {passes} token expands to one argv entry per pass, in order;
    {passes_csv} expands in place to the comma-joined names with leading
    dashes stripped (the new-pass-manager style).
    """
    argv: list[str] = []
    csv = ",".join(name.lstrip("-") for name in passes)
    for token in shlex.split(template):
        if token == "{passes}":
            argv.extend(passes)
            continue
        token = token.replace("{passes_csv}", csv)
        for key, val in substitutions.items():
            token = token.replace("{" + key + "}", val)
        argv.append(token)
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
    """Digest of an optimized IR file, leaving out a leading '; ModuleID' line."""
    if optimized_ir.startswith(b"; ModuleID = "):
        optimized_ir = optimized_ir[optimized_ir.find(b"\n") + 1 :]
    return hashlib.sha256(optimized_ir).hexdigest()


def build_executable(
    seq: PassSequence, cfg: BackendConfig, build_dir: Path, cache: EvaluationCache | None = None
) -> Path:
    """Run front-end, optimizer and linker; return the executable path.

    With a cache, an optimized IR that has been linked before gets the
    executable it linked to written back, and the linker does not run.
    Raises EvaluationFailure with the failing stage's captured output.
    """
    ir = build_dir / "program.ir"
    optimized = build_dir / "program.opt.ir"
    exe = build_dir / "program.bin"

    def run(name: str, template: str, subs: dict[str, str]) -> None:
        argv = expand_command(template, subs, seq.passes)
        _check(time_execution(argv, cfg.compile_timeout), name, EvaluationStatus.COMPILE_ERROR)

    run("front-end", cfg.compiler_front_command, {"source": cfg.source_path, "ir": str(ir)})
    run("optimizer", cfg.optimizer_command, {"ir": str(ir), "output": str(optimized)})
    key = None
    # a linker that takes {passes} or {passes_csv} depends on more than the IR
    if cache is not None and "{passes" not in cfg.linker_command and optimized.is_file():
        key = ir_digest(optimized.read_bytes())
        linked = cache.get_linked(key)
        if linked is not None:
            exe.write_bytes(linked)
            exe.chmod(0o755)
            return exe
    run("linker", cfg.linker_command, {"ir": str(optimized), "output": str(exe)})
    if not exe.is_file():
        raise EvaluationFailure(EvaluationStatus.COMPILE_ERROR, f"linker exited 0 but wrote no {exe.name}")
    if key is not None:
        cache.put_linked(key, exe.read_bytes())
    return exe


def evaluate(seq: PassSequence, cfg: BackendConfig, cache: EvaluationCache | None = None) -> EvaluationRecord:
    """Compile with the candidate sequence and time it runs_per_eval times.

    Total for candidates: every failure of one comes back as a record, never
    as an exception; a build directory that cannot be created is a
    ConfigError. The cache short-circuits repeat evaluations by sequence
    digest, repeat links of the same optimized IR, and repeat timings of a
    byte-identical executable (the record is copied under this sequence's
    digest). A record for a tool or program that could not be started is
    returned but not cached. Without a cache, a fresh one serves this call.
    """
    if cfg.kind != KIND_EXTERNAL:
        raise ValueError("evaluate() drives the external toolchain; use simulated_fitness for models")
    if cache is None:
        cache = EvaluationCache()
    digest = sequence_digest(seq)
    hit = cache.get(digest)
    if hit is not None:
        return hit
    try:
        if cfg.workdir:
            Path(cfg.workdir).mkdir(parents=True, exist_ok=True)
        build_dir = tempfile.TemporaryDirectory(prefix="passevo-", dir=cfg.workdir or None)
    except OSError as exc:
        raise ConfigError(f"cannot create a build directory (see [backend] workdir): {exc}") from exc
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


def masks_of(a: tuple[str, ...]) -> dict[str, int]:
    """Myers' match masks of `a`: bit i of masks[x] is set where a[i] == x."""
    masks: dict[str, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | (1 << i)
    return masks


def edit_distance(a: tuple[str, ...], b: tuple[str, ...], masks: dict[str, int] | None = None) -> int:
    """Element-level Levenshtein distance (insert/delete/substitute).

    Exact for any lengths: trim, then bit-parallel. The common prefix and
    suffix are stripped first (they never change the distance), and what is
    left runs through Myers' bit-vector recurrence in its global form, one
    big-integer step per element of `b` (G. Myers, "A fast bit-vector
    algorithm for approximate string matching based on dynamic
    programming", JACM 1999).

    `masks` must be masks_of(a) for the whole untrimmed `a`; a caller that
    measures many sequences against one `a` passes them in to build them
    once. They are shifted down past the trimmed prefix. Bits left above
    the rows of the trimmed suffix are harmless: a match mask reaches the
    column state only through `& pv`, `& mask` or `ph & xv`, all of which
    are zero there.
    """
    lo, hi_a, hi_b = 0, len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    m = hi_a - lo
    if m == 0 or hi_b == lo:
        return m + hi_b - lo

    # masks[x] >> lo: bit i set where a[lo + i] == x. Column state: pv/mv
    # mark the rows whose vertical delta D[i][j] - D[i-1][j] is +1/-1.
    if masks is None:
        masks = masks_of(a)
    mask = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for y in b[lo:hi_b]:
        eq = masks.get(y, 0) >> lo
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # Row 0 is D[0][j] = j, so its horizontal delta is always +1.
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


@dataclass(frozen=True)
class SimModel:
    """Hidden-target landscape: fitness grows with distance from the target.

    The target's match masks are built once, here, for every edit_distance
    call that measures a candidate against it.
    """

    target: PassSequence
    base_runtime: float
    masks: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.base_runtime < math.inf:
            raise ValueError("base_runtime must be finite and > 0")
        object.__setattr__(self, "masks", masks_of(self.target.passes))


def simulated_fitness(seq: PassSequence, model: SimModel) -> float:
    # The distance is symmetric, so the target takes the row side and its masks.
    distance = edit_distance(model.target.passes, seq.passes, model.masks)
    return model.base_runtime * (1.0 + distance / max(len(model.target), 1))


def simulated_record(seq: PassSequence, model: SimModel) -> EvaluationRecord:
    value = simulated_fitness(seq, model)
    return EvaluationRecord(
        sequence_digest=sequence_digest(seq),
        runs=1,
        samples=(value,),
        mean=value,
        sample_stddev=0.0,
        status=EvaluationStatus.OK,
    )


def perturb_sequence(
    baseline: PassSequence, catalog: PassCatalog, n_edits: int, rng: random.Random
) -> PassSequence:
    """Derive a sequence exactly n_edits element-edits away from baseline.

    Composed random edits can cancel, so the draw is retried until the edit
    distance verifiably equals n_edits. If no draw lands, n_edits seeded
    passes are appended, which is exactly n_edits inserts away.
    """
    if n_edits == 0:
        return baseline
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
        candidate = PassSequence(tuple(passes))
        if edit_distance(candidate.passes, baseline.passes) == n_edits:
            return candidate
    extra = tuple(rng.choice(catalog.passes) for _ in range(n_edits))
    return PassSequence(baseline.passes + extra)
