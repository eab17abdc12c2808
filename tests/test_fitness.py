import contextlib
import functools
import itertools
import json
import math
import os
import random
import re
import shlex
import signal
import sys
import time
import types
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import passevo.fitness as fitness_mod
from passevo.catalog import PassCatalog, PassSequence
from passevo.cli import main
from passevo.errors import ValidationError
from passevo.fitness import (
    PENALTY,
    EvaluationCache,
    EvaluationRecord,
    EvaluationStatus,
    RunResult,
    SimModel,
    edit_distance,
    edit_distances,
    expand_command,
    ir_digest,
    match_lanes,
    perturb_sequence,
    sequence_digest,
    simulated_fitnesses,
    simulated_record,
    time_execution,
)

from conftest import FAKE_TEMPLATES, Evaluator, assert_rejected, config_file, fake_backend, make_catalog


# --- the distance kernel, checked by one function over (target, candidates) batches ---

def recursive_edit_distance(a: tuple, b: tuple) -> int:
    @functools.lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return len(a) - i + len(b) - j
        return min(go(i + 1, j) + 1, go(i, j + 1) + 1, go(i + 1, j + 1) + (a[i] != b[j]))

    return go(0, 0)


@functools.lru_cache(maxsize=4096)
def matrix_edit_distance(a: tuple, b: tuple) -> int:
    """The O(len(a) * len(b)) Wagner-Fischer table, row by row (memoized: batches share candidates)."""
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        current = [i]
        for j, y in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (x != y)))
        previous = current
    return previous[-1]


def distance_mismatches(a: tuple, bs: list[tuple]) -> list:
    """(candidate, way) for each way of measuring a candidate from `a` that disagrees with
    matrix_edit_distance: "batch" (edit_distances), "lanes" (the batch with prebuilt
    match_lanes), "alone" (edit_distance) and "swapped" (edit_distance from the candidate).
    It reads the kernel through the module, so a test can swap it."""
    expected = [matrix_edit_distance(a, b) for b in bs]
    ways = {
        "batch": fitness_mod.edit_distances(a, bs),
        "lanes": fitness_mod.edit_distances(a, bs, match_lanes(a)),
        "alone": [fitness_mod.edit_distance(a, b) for b in bs],
        "swapped": [fitness_mod.edit_distance(b, a) for b in bs],
    }
    return [(b, way) for way, got in ways.items() for b, d, e in zip(bs, got, expected) if d != e]


def draw_edited(draw, base: tuple, alphabet: str, max_edits: int) -> tuple:
    """A copy of `base` with 0..max_edits random inserts, deletes and replacements."""
    edited = list(base)
    for _ in range(draw(st.integers(0, max_edits))):
        i = draw(st.integers(0, len(edited)))
        op = draw(st.sampled_from(("insert", "delete", "replace") if i < len(edited) else ("insert",)))
        edited[i : i + (op != "insert")] = [] if op == "delete" else [draw(st.sampled_from(alphabet))]
    return tuple(edited)


BYTE_EDGES = (0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65)


@st.composite
def batches(draw, kinds=("random", "edited", "splice", "ends", "duplicate"), most=12):
    """A target over 1-4 symbols, its length often at a lane's byte edge, and one candidate of up
    to 150 tokens if `most` is 1 (a pair), else 0-`most` of up to 80, each of a kind in `kinds`:
    random; edited, the target with 0-4 edits; splice, a prefix and a suffix of it; ends, its prefix
    and suffix around an independent core; or a duplicate of an earlier one. Few symbols make the
    ends ambiguous: ("a",) * 5 and ("a",) * 3 share a prefix of 3 and a suffix of 3, but 3 in all."""
    longest = 150 if most == 1 else 80
    alphabet = "abcd"[: draw(st.integers(1, 4))]

    def tokens(low: int, high: int) -> tuple:  # drawn as bytes, which hypothesis draws in bulk
        return tuple(alphabet[byte % len(alphabet)] for byte in draw(st.binary(min_size=low, max_size=high)))

    size = draw(st.one_of(st.sampled_from(BYTE_EDGES), st.integers(0, longest)))
    a = tokens(size, size)
    bs: list[tuple] = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1 if most == 1 else 0, max_size=most)):
        if kind == "edited":
            bs.append(draw_edited(draw, a, alphabet, 4))
        elif kind in ("splice", "ends"):
            cut = draw(st.integers(0, size))
            end = draw(st.integers(cut, size))
            bs.append(a[:cut] + tokens(0, longest - size + end - cut if kind == "ends" else 0) + a[end:])
        elif kind == "duplicate" and bs:
            bs.append(draw(st.sampled_from(bs)))
        else:
            bs.append(tokens(0, longest))
    return a, bs


@given(st.lists(st.sampled_from("abc"), max_size=9), st.lists(st.sampled_from("abc"), max_size=9))
def test_edit_distance_matches_recursive_oracle(a, b):
    a, b = tuple(a), tuple(b)
    assert distance_mismatches(a, [b]) == [] and matrix_edit_distance(a, b) == recursive_edit_distance(a, b)


@given(batches(("random",), most=1))
def test_edit_distance_matches_matrix_oracle(batch):
    assert distance_mismatches(*batch) == []


@given(batches(("edited",), most=1))
def test_edit_distance_matches_matrix_oracle_near_copies(batch):
    a, bs = batch
    assert distance_mismatches(a, bs) == [] and matrix_edit_distance(a, bs[0]) <= 4


@given(batches(("random", "edited"), most=1))
def test_edit_distance_is_symmetric(batch):
    assert distance_mismatches(*batch) == []


def test_edit_distance_crosses_word_boundaries():
    # the shared "x"/"y" ends wrap a core of exactly n tokens
    rng = random.Random(7)
    for n in (63, 64, 65, 130):
        a = ("a",) + tuple(rng.choice("ab") for _ in range(n - 2)) + ("a",)
        b = ("b",) + tuple(rng.choice("ab") for _ in range(n + 1)) + ("b",)
        wrapped_a, wrapped_b = ("x",) + a + ("y",), ("x",) + b + ("y",)
        assert distance_mismatches(wrapped_a, [wrapped_b]) == distance_mismatches(a, [b]) == []
        assert matrix_edit_distance(wrapped_a, wrapped_b) == matrix_edit_distance(a, b)


@given(batches(("ends", "random", "edited"), most=1))
def test_edit_distance_on_shared_ends_matches_oracle(batch):
    assert distance_mismatches(*batch) == []


def test_edit_distance_edge_cases():
    for a, b in [((), ()), ((), ("a",)), (("a",), ()), (("a", "a"), ("a",)),
                 (("a", "b", "a"), ("a", "a")), (("b", "a", "b"), ("b", "b", "b"))]:
        assert distance_mismatches(a, [b]) == []
    assert match_lanes(("a", "b", "a")) == {"a": b"\x05", "b": b"\x02"}
    assert match_lanes(tuple("a" * 8)) == {"a": b"\xff\x00"}  # a ninth bit guards the lane


@given(batches())
def test_edit_distances_match_matrix_oracle(batch):
    assert distance_mismatches(*batch) == []


@given(batches(), st.data())
def test_edit_distances_lanes_are_independent(batch, data):
    # a candidate's distance is the same alone, duplicated, and at any position,
    # whether or not the batch around it lets its shared ends be skipped
    a, bs = batch
    b = data.draw(st.lists(st.sampled_from("abcd"), max_size=80).map(tuple))
    position = data.draw(st.integers(0, len(bs)))
    for batch_with_b in (bs, [b, b, b], bs[:position] + [b] + bs[position:]):
        assert distance_mismatches(a, batch_with_b) == []


@pytest.mark.parametrize("size", BYTE_EDGES)
def test_edit_distances_at_byte_edges(size):
    rng = random.Random(size)
    a = tuple(rng.choice("ab") for _ in range(size))
    bs = [(), a, a[1:], a + ("a",), ("b",) * size, tuple(rng.choice("ab") for _ in range(2 * size + 3))]
    assert distance_mismatches(a, bs) == []


def test_edit_distances_run_only_the_columns_between_shared_ends(monkeypatch):
    columns = []

    def counting_zip_longest(*middles):
        for column in itertools.zip_longest(*middles):
            columns.append(column)
            yield column

    def columns_run(a, bs) -> int:
        columns.clear()
        edit_distances(a, bs)
        return len(columns)

    monkeypatch.setattr(fitness_mod, "zip_longest", counting_zip_longest)
    rng = random.Random(64)
    names = [f"-p{i}" for i in range(40)]
    a = tuple(rng.choice(names) for _ in range(64))
    # one central insert, replacement or delete each
    near = [a[:i] + new + a[i + cut :] for i in range(28, 37) for new, cut in ((("-x",), 0), (("-x",), 1), ((), 1))]
    assert distance_mismatches(a, near) == []
    assert columns_run(a, near) <= 2  # the full table would take 65
    for _ in range(20):
        bs = [tuple(rng.choice(names) for _ in range(rng.randint(0, 100))) for _ in range(rng.randint(1, 12))]
        assert distance_mismatches(a, bs) == []
        assert columns_run(a, bs) <= max(map(len, bs))


def test_edit_distances_empty_batch_and_empty_sequences():
    for a, bs, distances in ((("a", "b"), [], []), ((), [(), ("a",), ("a", "b", "c")], [0, 1, 3]),
                             (("a", "b", "c"), [(), ()], [3, 3])):
        assert distance_mismatches(a, bs) == [] and edit_distances(a, bs) == distances


def test_edit_distance_examples():
    # from ("a", "b", "c"), and by the swapped way to it
    bs = [("a", "b", "c"), ("a", "b"), (), ("x", "b", "y")]
    assert distance_mismatches(("a", "b", "c"), bs) == [] and edit_distances(("a", "b", "c"), bs) == [0, 1, 3, 2]


def test_the_distance_checker_names_the_way_that_broke(monkeypatch):
    a, bs = ("a", "b", "a", "b"), [("a", "b"), ("b", "b"), ("a", "b", "b", "a")]
    real = fitness_mod.edit_distances
    assert distance_mismatches(a, bs) == []

    def bent(error):
        """The real kernel, plus error(row side, lane) in each lane."""
        return lambda x, ys, lanes=None: [d + error(x, k) for k, d in enumerate(real(x, ys, lanes))]

    monkeypatch.setattr(fitness_mod, "edit_distances", bent(lambda x, k: k == 1))  # off by one in lane one
    assert distance_mismatches(a, bs) == [(bs[1], "batch"), (bs[1], "lanes")]
    monkeypatch.setattr(fitness_mod, "edit_distances", bent(lambda x, k: x != a))  # wrong only from a candidate
    assert distance_mismatches(a, bs) == [(b, "swapped") for b in bs]


# --- simulated landscape -----------------------------------------------------

def test_simulated_fitness_examples():
    target = PassSequence(("a", "b", "c"))
    model = SimModel(target=target, base_runtime=1.0)
    assert simulated_fitnesses([PassSequence(("a", "b", "c"))], model)[0] == 1.0
    # one edit away: 1.0 * (1 + 1/3); distance verified by the recursive oracle
    assert recursive_edit_distance(("a", "b"), ("a", "b", "c")) == 1
    assert simulated_fitnesses([PassSequence(("a", "b"))], model)[0] == pytest.approx(4 / 3, abs=1e-12)
    big = SimModel(target=target, base_runtime=2.0)
    assert simulated_fitnesses([PassSequence(())], big)[0] == pytest.approx(4.0, abs=1e-12)


def test_simulated_target_is_unique_global_minimum():
    alphabet = ("x", "y")
    target = PassSequence(("x", "y"))
    model = SimModel(target=target, base_runtime=1.0)
    best = simulated_fitnesses([target], model)[0]
    for length in range(len(target) + 2):
        for combo in itertools.product(alphabet, repeat=length):
            value = simulated_fitnesses([PassSequence(combo)], model)[0]
            if combo == target.passes:
                assert value == best
            else:
                assert value > best


@given(st.integers(0, 2**32), st.integers(0, 5), st.integers(0, 5), st.integers(3, 12))
def test_simulated_fitness_unchanged_on_perturbed_candidates(seed, target_edits, edits, size):
    # the model measures from the target's side with its prebuilt lanes; the
    # score must be what the candidate-side distance gives
    rng = random.Random(seed)
    catalog = make_catalog(size)
    baseline = PassSequence(tuple(rng.choice(catalog.passes) for _ in range(rng.randint(0, 20))))
    target = perturb_sequence(baseline, catalog, target_edits, rng)
    model = SimModel(target=target, base_runtime=1.5)
    candidate = perturb_sequence(target, catalog, edits, rng)
    distance = matrix_edit_distance(candidate.passes, target.passes)
    assert distance == edit_distance(candidate.passes, target.passes) == edits
    assert simulated_fitnesses([candidate], model)[0] == 1.5 * (1.0 + distance / max(len(target), 1))
    assert simulated_fitnesses([candidate, target, candidate], model) == [
        simulated_fitnesses([candidate], model)[0], 1.5, simulated_fitnesses([candidate], model)[0]
    ]


def test_sim_model_lanes_stay_out_of_equality_and_repr():
    target = PassSequence(("a", "b", "a"))
    model = SimModel(target, 1.0)
    assert model.lanes == match_lanes(target.passes)
    assert model == SimModel(target, 1.0) and hash(model) == hash(SimModel(target, 1.0))
    assert "lanes" not in repr(model)


@pytest.mark.parametrize("base_runtime", [0.0, -1.0, math.nan, math.inf])
def test_sim_model_rejects_non_finite_or_non_positive_runtime(base_runtime):
    with pytest.raises(ValueError, match="base_runtime"):
        SimModel(PassSequence(("a",)), base_runtime)


def test_penalty_orders_above_any_measurement():
    assert 1e9 < PENALTY
    assert simulated_fitnesses([PassSequence(())], SimModel(PassSequence(("a",)), 1e6))[0] < PENALTY


def test_simulated_record_shape():
    digest = sequence_digest(PassSequence(("a",)))
    record = simulated_record(digest, 1.5)
    assert record.status is EvaluationStatus.OK
    assert record.sequence_digest == digest
    assert record.samples == (record.mean,) == (1.5,)
    assert record.fitness == record.mean
    assert record == EvaluationRecord(
        sequence_digest=digest, runs=1, samples=(1.5,), mean=1.5, sample_stddev=0.0, status=EvaluationStatus.OK
    )
    # evaluate's exe dedupe copies a timed record under another digest this way
    copy = replace(record, sequence_digest="0" * 64)
    assert copy.sequence_digest == "0" * 64
    assert (copy.runs, copy.samples, copy.mean, copy.status) == (1, (1.5,), 1.5, EvaluationStatus.OK)


# --- digests -----------------------------------------------------------------

def test_digest_is_order_sensitive():
    assert sequence_digest(PassSequence(("a", "b"))) != sequence_digest(PassSequence(("b", "a")))
    assert sequence_digest(PassSequence(("a", "b"))) == sequence_digest(PassSequence(("a", "b")))


def test_digest_distinguishes_token_boundaries():
    assert sequence_digest(PassSequence(("ab", "c"))) != sequence_digest(PassSequence(("a", "bc")))


# --- perturbation ------------------------------------------------------------

@pytest.mark.parametrize("edits", [0, 1, 2, 3, 5])
def test_perturb_sequence_hits_exact_distance(edits):
    catalog = make_catalog(12)
    baseline = PassSequence(catalog.passes[:8])
    target = perturb_sequence(baseline, catalog, edits, random.Random(42))
    assert recursive_edit_distance(target.passes, baseline.passes) == edits


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_perturb_sequence_reaches_distance_over_one_pass(seed):
    # most draws cancel here; appending the passes still lands at distance 6
    catalog = PassCatalog(("-a",))
    baseline = PassSequence(("-a", "-a"))
    target = perturb_sequence(baseline, catalog, 6, random.Random(seed))
    assert matrix_edit_distance(target.passes, baseline.passes) == 6


@st.composite
def small_catalog_baselines(draw):
    """A 1-3 pass catalog and a baseline of 0-6 of its passes."""
    catalog = make_catalog(draw(st.integers(1, 3)))
    return catalog, PassSequence(tuple(draw(st.lists(st.sampled_from(catalog.passes), max_size=6))))


@settings(max_examples=50)
@given(small_catalog_baselines(), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_perturb_sequence_is_total_on_small_catalogs(catalog_and_baseline, edits, seed):
    catalog, baseline = catalog_and_baseline
    target = perturb_sequence(baseline, catalog, edits, random.Random(seed))
    assert matrix_edit_distance(target.passes, baseline.passes) == edits


def test_perturb_sequence_deterministic():
    catalog = make_catalog(12)
    baseline = PassSequence(catalog.passes[:8])
    a = perturb_sequence(baseline, catalog, 3, random.Random(5))
    b = perturb_sequence(baseline, catalog, 3, random.Random(5))
    assert a.passes == b.passes


# --- command templates -------------------------------------------------------

def test_expand_command_passes_token():
    argv = expand_command(
        "opt {passes} {ir} -o {output}",
        {"ir": "in.ll", "output": "out.ll"},
        ("-sroa", "-gvn"),
    )
    assert argv == ["opt", "-sroa", "-gvn", "in.ll", "-o", "out.ll"]


def test_expand_command_csv_inside_token():
    argv = expand_command(
        "opt -passes={passes_csv} {ir}",
        {"ir": "in.ll"},
        ("-sroa", "-gvn"),
    )
    assert argv == ["opt", "-passes=sroa,gvn", "in.ll"]


def test_expand_command_empty_sequence():
    assert expand_command("opt {passes} x", {}, ()) == ["opt", "x"]
    assert expand_command("opt -passes={passes_csv} x", {}, ()) == ["opt", "-passes=", "x"]


@pytest.mark.parametrize("template, subs, passes, argv", [
    # a substituted value that contains a placeholder
    ("cp {source} {ir}", {"source": "/data/{ir}/prog.ll", "ir": "b/program.ir"}, (),
     ["cp", "/data/{ir}/prog.ll", "b/program.ir"]),
    # a pass that contains one, under {passes_csv}
    ("opt -passes={passes_csv} -o {output}", {"output": "out.ll"}, ("-foo={output}", "-gvn"),
     ["opt", "-passes=foo={output},gvn", "-o", "out.ll"]),
    # a shell variable
    ("""sh -c 'cat "${VAR}/$0" > "$1"' {ir} {output}""", {"ir": "in.ll", "output": "out"}, (),
     ["sh", "-c", 'cat "${VAR}/$0" > "$1"', "in.ll", "out"]),
])
def test_expand_command_fills_each_placeholder_once(template, subs, passes, argv):
    assert expand_command(template, subs, passes) == argv


# --- time_execution ----------------------------------------------------------

def test_time_execution_measures_sleep():
    result = time_execution([sys.executable, "-c", "import time; time.sleep(0.2)"], timeout=5.0)
    assert not result.timed_out
    assert result.returncode == 0
    assert 0.2 <= result.seconds <= 0.5


def test_time_execution_kills_spinner():
    start = time.perf_counter()
    result = time_execution([sys.executable, "-c", "while True: pass"], timeout=0.5)
    elapsed = time.perf_counter() - start
    assert result.timed_out
    assert elapsed < 1.5


def test_time_execution_reports_failure_with_output():
    code = "import sys; print('boom'); sys.exit(1)"
    result = time_execution([sys.executable, "-c", code], timeout=5.0)
    assert result.returncode == 1
    assert "boom" in result.output


def test_time_execution_accepts_the_longest_timeout():
    result = time_execution(["true"], timeout=fitness_mod.MAX_TIMEOUT)
    assert (result.timed_out, result.returncode) == (False, 0)


def test_time_execution_spawn_failure():
    result = time_execution(["/nonexistent/tool-xyz"], timeout=1.0)
    assert result.returncode is None
    assert not result.timed_out
    assert "spawn failed" in result.output


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states in /proc")


def _background_sleeper(pidfile) -> list[str]:
    """A shell that starts a long sleep, records its pid and waits for it."""
    return ["sh", "-c", f"sleep 30 & echo $! > {shlex.quote(str(pidfile))}; wait"]


def _recorded_pid(pidfile, within: float = 5.0) -> int:
    deadline = time.monotonic() + within
    while not (pidfile.exists() and pidfile.read_text().endswith("\n")):
        assert time.monotonic() < deadline, "the shell never recorded its child"
        time.sleep(0.01)
    return int(pidfile.read_text())


def _has_exited(pid: int, within: float = 2.0) -> bool:
    """Whether `pid` is gone or a zombie (an orphan whose new parent does not reap it)."""
    deadline = time.monotonic() + within
    while True:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rpartition(")")[2].split()[0]
        except FileNotFoundError:
            return True
        if state == "Z" or time.monotonic() > deadline:
            return state == "Z"
        time.sleep(0.02)


@needs_proc
def test_time_execution_timeout_kills_the_process_group(tmp_path):
    pidfile = tmp_path / "pid"
    start = time.perf_counter()
    result = time_execution(_background_sleeper(pidfile), timeout=0.5)
    assert (result.timed_out, result.returncode) == (True, None)
    assert time.perf_counter() - start < 2.0
    assert _has_exited(_recorded_pid(pidfile))


@needs_proc
def test_time_execution_kills_what_a_clean_exit_leaves_in_the_group(tmp_path):
    pidfile = tmp_path / "pid"
    start = time.perf_counter()
    result = time_execution(["sh", "-c", f"sleep 30 & echo $! > {shlex.quote(str(pidfile))}"], timeout=5.0)
    assert (result.timed_out, result.returncode) == (False, 0)
    assert time.perf_counter() - start < 2.0
    assert _has_exited(_recorded_pid(pidfile))


@needs_proc
def test_time_execution_interrupt_kills_the_process_group_and_propagates(tmp_path, monkeypatch):
    pidfile = tmp_path / "pid"

    def interrupted_select(rlist, wlist, xlist, timeout=None):
        _recorded_pid(pidfile)  # Ctrl-C during the timed wait, once the child runs
        raise KeyboardInterrupt

    monkeypatch.setattr(fitness_mod.select, "select", interrupted_select)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        time_execution(_background_sleeper(pidfile), timeout=30.0)
    # the shell waits for its sleep, so a reap without the kill would take 30 s
    assert time.perf_counter() - start < 5.0
    assert _has_exited(_recorded_pid(pidfile))


# A leader that forks a child into its own session; the child records its pid
# and sleeps holding the output file. Once the child has left the process group
# (one still in it would die in the group kill), the leader prints, then waits
# 30 s if argv[2] is "wait", or else exits 0.
_FORKING_LEADER = """
import os, sys, time
if os.fork() == 0:
    os.setsid()
    with open(sys.argv[1], "w") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(8)
    os._exit(0)
while not os.path.exists(sys.argv[1]):
    time.sleep(0.01)
waits = sys.argv[2] == "wait"
print("parent waiting" if waits else "done", flush=True)
time.sleep(30 if waits else 0)
"""


@contextlib.contextmanager
def _forking_leader(tmp_path, then: str, timeout: float):
    """time_execution of _FORKING_LEADER, its wall seconds, and its child's pid; the child is killed on exit."""
    start = time.perf_counter()
    result = time_execution([sys.executable, "-c", _FORKING_LEADER, str(tmp_path / "pid"), then], timeout)
    elapsed = time.perf_counter() - start
    child = _recorded_pid(tmp_path / "pid")
    try:
        yield result, elapsed, child
    finally:
        os.kill(child, signal.SIGKILL)


@needs_proc
def test_time_execution_timeout_leaves_an_escaped_descendant_running(tmp_path):
    with _forking_leader(tmp_path, "wait", timeout=2.0) as (result, elapsed, escaped):
        assert (result.timed_out, result.returncode) == (True, None)
        assert "parent waiting" in result.output
        # the escaped child holds the output for 8 s; waiting for it would take that long
        assert elapsed < 2.0 + 2.0
        assert not _has_exited(escaped, within=0.0)


@needs_proc
def test_time_execution_scores_a_daemonizing_leader_by_its_exit(tmp_path):
    with _forking_leader(tmp_path, "exit", timeout=4.0) as (result, elapsed, daemon):
        assert (result.timed_out, result.returncode, result.output) == (False, 0, "done\n")
        assert elapsed < 2.0
        assert not _has_exited(daemon, within=0.0)


def test_time_execution_gives_the_process_no_stdin():
    """`cat` (or `opt` missing its input file) would wait on an inherited stdin that stays open."""
    read_end, write_end = os.pipe()
    saved_stdin = os.dup(0)
    os.dup2(read_end, 0)
    try:
        result = time_execution(["cat"], timeout=2.0)
    finally:
        os.dup2(saved_stdin, 0)
        for fd in (saved_stdin, read_end, write_end):
            os.close(fd)
    assert (result.timed_out, result.returncode, result.output) == (False, 0, "")
    assert result.seconds < 1.0


# --- external pipeline through the fake toolchain ----------------------------

def test_evaluate_ok_record(tmp_path):
    record = Evaluator(fake_backend(tmp_path, behavior="ok", runs_per_eval=3)).score("-sroa", "-gvn")
    assert record.status is EvaluationStatus.OK
    assert record.runs == 3
    assert len(record.samples) == 3
    assert record.mean == pytest.approx(sum(record.samples) / 3)
    assert record.fitness == record.mean
    assert math.isfinite(record.fitness)


def test_a_program_that_sleeps_scores_a_higher_mean(tmp_path):
    """Fitness points the right way: the fake toolchain's `sleep <s>` program is timed as slower."""
    slow = Evaluator(fake_backend(tmp_path / "slow", behavior="sleep 0.1")).score("-sroa")
    fast = Evaluator(fake_backend(tmp_path / "fast", behavior="ok")).score("-sroa")
    assert slow.status is fast.status is EvaluationStatus.OK
    assert slow.mean >= 0.1
    # a stand-in program starts in about a millisecond, so a sleep directive times close to its sleep
    assert slow.mean < 0.125
    assert slow.mean > fast.mean


# a timed-out run is scored in test_acceptance.py::test_criterion_9_timeout_handling
@pytest.mark.parametrize("behavior, names, status, diagnostics", [
    ("ok", ("-sroa", "-broken"), EvaluationStatus.COMPILE_ERROR, "unknown pass"),
    ("exit1", ("-sroa",), EvaluationStatus.RUN_ERROR, "deliberate failure"),
], ids=["broken-pass", "exit1"])
def test_evaluate_failure_scores_the_penalty(tmp_path, behavior, names, status, diagnostics):
    record = Evaluator(fake_backend(tmp_path, behavior=behavior)).score(*names)
    assert record.status is status
    assert record.fitness == PENALTY
    assert diagnostics in record.diagnostics


def test_evaluate_fixed_samples_arithmetic(tmp_path, processes):
    # pin run-stage durations to {1, 2, 3} s: mean 2.0, sample stddev 1.0
    durations = iter([1.0, 2.0, 3.0])
    processes.replies["run"] = lambda argv, real: RunResult(next(durations), 0, False, "")
    record = Evaluator(fake_backend(tmp_path, runs_per_eval=3)).score("-sroa")
    assert record.status is EvaluationStatus.OK
    assert record.samples == (1.0, 2.0, 3.0)
    assert record.mean == pytest.approx(2.0, abs=1e-12)
    assert record.sample_stddev == pytest.approx(1.0, abs=1e-12)


def test_evaluate_cache_hit_skips_toolchain(tmp_path, processes):
    evaluator = Evaluator(fake_backend(tmp_path, runs_per_eval=2))
    first = evaluator.score("-sroa", "-gvn")
    after_first = len(processes.calls)
    assert evaluator.score("-sroa", "-gvn") is first
    assert len(processes.calls) == after_first


def test_identical_executable_is_timed_once(tmp_path, processes):
    # the fake optimizer drops -noop, so both sequences link the same bytes
    evaluator = Evaluator(fake_backend(tmp_path, runs_per_eval=3))
    first = evaluator.score("-sroa")
    assert processes.stages.count("run") == 3
    second = evaluator.score("-sroa", "-noop")
    assert processes.stages.count("run") == 3
    assert second.sequence_digest == sequence_digest(PassSequence(("-sroa", "-noop")))
    assert second.sequence_digest != first.sequence_digest
    assert (second.samples, second.mean, second.sample_stddev, second.status) == (
        first.samples, first.mean, first.sample_stddev, first.status)
    assert len(second.samples) == 3
    assert len(evaluator.cache) == 2
    assert evaluator.cache.get(second.sequence_digest) is second


def test_executable_index_persists_and_reloads(tmp_path, processes):
    path = tmp_path / "eval_cache.jsonl"
    evaluator = Evaluator(fake_backend(tmp_path, runs_per_eval=2), path)
    first = evaluator.score("-sroa")
    evaluator.score("-sroa", "-noop")
    rows = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    assert len(rows) == 2
    assert rows[0]["exe"] == rows[1]["exe"]
    assert processes.stages.count("run") == 2

    third = Evaluator(evaluator.cfg, path).score("-noop", "-sroa", "-noop")
    assert processes.stages.count("run") == 2
    assert third.status is EvaluationStatus.OK
    assert third.mean == first.mean
    assert third.samples == ()  # copied from a reloaded record
    assert json.loads(path.read_text("utf-8").splitlines()[2])["exe"] == rows[0]["exe"]


def test_failed_build_row_has_the_timed_row_keys(tmp_path):
    path = tmp_path / "eval_cache.jsonl"
    evaluator = Evaluator(fake_backend(tmp_path, runs_per_eval=1), path)
    assert evaluator.score("-sroa").status is EvaluationStatus.OK
    assert evaluator.score("-broken").status is EvaluationStatus.COMPILE_ERROR
    timed, failed = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    assert failed.keys() == timed.keys()
    assert failed["exe"] is None and len(timed["exe"]) == 64


def test_fresh_linked_evaluation_hashes_each_artifact_once(tmp_path, monkeypatch):
    hashed = []
    real = fitness_mod.hashlib

    def sha256(data):
        hashed.append(data)
        return real.sha256(data)

    monkeypatch.setattr(fitness_mod, "hashlib", types.SimpleNamespace(sha256=sha256))
    record = Evaluator(fake_backend(tmp_path, runs_per_eval=1)).score("-sroa")
    assert record.status is EvaluationStatus.OK
    # the sequence, the optimized IR and the executable, which put_linked interns unhashed
    assert len(hashed) == 3
    assert hashed[0] == b"-sroa" and hashed[2].startswith(b"#!")


def test_equal_executables_are_interned_as_one_object():
    """Equal executables linked from two optimized IRs are kept as one bytes object, so the
    store holds one copy per distinct executable; an executable that differs stays apart."""
    cache = EvaluationCache()
    exe = b"#!/bin/sh\necho same\n"
    first, second, other = bytes(bytearray(exe)), bytes(bytearray(exe)), b"#!/bin/sh\necho other\n"
    assert first == second and first is not second
    for ir, linked in (("ir-a", first), ("ir-b", second), ("ir-c", other)):
        cache.put_linked(ir, linked)
    assert cache.get_linked("ir-a") is cache.get_linked("ir-b") is first
    assert cache.get_linked("ir-c") is other
    assert cache.get_linked("ir-d") is None


def test_different_executable_is_timed(tmp_path, processes):
    evaluator = Evaluator(fake_backend(tmp_path, runs_per_eval=2))
    evaluator.score("-sroa")
    record = evaluator.score("-sroa", "-gvn")
    assert processes.stages.count("run") == 4
    assert len(record.samples) == 2


def test_failed_runs_are_shared_by_identical_executables(tmp_path, processes):
    evaluator = Evaluator(fake_backend(tmp_path, behavior="exit1", runs_per_eval=2))
    first = evaluator.score("-sroa")
    second = evaluator.score("-noop", "-sroa")
    assert processes.stages.count("run") == 1
    assert first.status is second.status is EvaluationStatus.RUN_ERROR
    assert second.diagnostics == first.diagnostics


def test_tool_spawn_failure_is_not_cached(tmp_path):
    path = tmp_path / "eval_cache.jsonl"
    missing = Evaluator(fake_backend(tmp_path, compiler_front_command="/nonexistent/passevo-cc {source} {ir}"), path)
    record = missing.score("-sroa")
    assert record.status is EvaluationStatus.COMPILE_ERROR
    assert "spawn failed" in record.diagnostics
    assert len(missing.cache) == 0
    assert not path.exists() or path.read_text("utf-8") == ""

    # once the tool is there, the same output directory evaluates it for real
    record = Evaluator(fake_backend(tmp_path), path).score("-sroa")
    assert record.status is EvaluationStatus.OK
    assert len(path.read_text("utf-8").splitlines()) == 1


def test_program_spawn_failure_is_not_cached(tmp_path, processes):
    processes.replies["run"] = RunResult(0.0, None, False, "spawn failed: [Errno 8] Exec format error")
    evaluator = Evaluator(fake_backend(tmp_path))
    record = evaluator.score("-sroa")
    assert record.status is EvaluationStatus.RUN_ERROR
    assert "spawn failed" in record.diagnostics
    assert len(evaluator.cache) == 0

    # no executable was indexed either: a byte-identical build is timed; its
    # IR was linked before, so it skips the linker and runs the restored file
    outputs = []

    def startable(argv, real):
        result = real()
        outputs.append(result.output)
        return result

    processes.replies["run"] = startable
    record = evaluator.score("-sroa", "-noop")
    assert record.status is EvaluationStatus.OK
    assert len(record.samples) == evaluator.cfg.runs_per_eval
    assert processes.stages == ["cp", "opt", "link", "run", "cp", "opt", "run", "run"]
    assert outputs == ["passes: -sroa\n"] * evaluator.cfg.runs_per_eval


_STAGE_NAMES = {"cp": "front-end", "opt": "optimizer", "link": "linker", "run": "run"}
_OUTCOMES = {
    "timeout": RunResult(0.1, None, True, "slow"),
    "spawn": RunResult(0.0, None, False, "spawn failed: x"),
    "exit3": RunResult(0.0, 3, False, "boom"),
}


@pytest.mark.parametrize("outcome", sorted(_OUTCOMES))
@pytest.mark.parametrize("stage", sorted(_STAGE_NAMES))
def test_failure_triage_table(tmp_path, processes, stage, outcome):
    """Every stage x outcome: the exact status, diagnostics and caching."""
    processes.replies[stage] = _OUTCOMES[outcome]
    evaluator = Evaluator(fake_backend(tmp_path, runs_per_eval=3))
    record = evaluator.score("-sroa")

    name = _STAGE_NAMES[stage]
    expected = {
        "timeout": (EvaluationStatus.TIMEOUT, f"{name} timed out:\nslow"),
        "spawn": (
            EvaluationStatus.RUN_ERROR if stage == "run" else EvaluationStatus.COMPILE_ERROR,
            f"{name} failed:\nspawn failed: x",
        ),
        "exit3": (
            EvaluationStatus.RUN_ERROR if stage == "run" else EvaluationStatus.COMPILE_ERROR,
            f"{name} failed (exit 3):\nboom",
        ),
    }[outcome]
    assert (record.status, record.diagnostics) == expected
    assert (record.runs, record.samples, record.fitness) == (3, (), PENALTY)
    assert len(evaluator.cache) == (0 if outcome == "spawn" else 1)
    assert processes.stages.count("run") == (1 if stage == "run" else 0)

    if stage == "run":
        # a byte-identical twin reuses the failed timing, unless nothing started
        twin = evaluator.score("-sroa", "-noop")
        assert (twin.status, twin.diagnostics) == expected
        assert processes.stages.count("run") == (2 if outcome == "spawn" else 1)
        assert len(evaluator.cache) == (0 if outcome == "spawn" else 2)


# --- optimized-IR level: each distinct IR is linked once ---------------------

def test_ir_digest_ignores_only_the_leading_module_id():
    body = b'source_filename = "main.ll"\n\ndefine i32 @main() {\n  ret i32 0\n}\n'
    key = ir_digest(b"; ModuleID = '/tmp/passevo-a/program.ir'\n" + body)
    assert key == ir_digest(b"; ModuleID = '/tmp/passevo-b/program.ir'\n" + body)
    assert key != ir_digest(b"; ModuleID = '/tmp/passevo-a/program.ir'\n" + body.replace(b"i32 0", b"i32 1"))
    assert key != ir_digest(b"; ModuleID = '/tmp/passevo-a/program.ir'\n" + body + b"\n")
    # only the first line is the one opt writes; later and other comments count
    assert ir_digest(b"; ModuleID = 'a'\n; ModuleID = 'b'\n" + body) != ir_digest(
        b"; ModuleID = 'a'\n; ModuleID = 'c'\n" + body)
    assert ir_digest(b"\n; ModuleID = 'a'\n" + body) != ir_digest(b"\n; ModuleID = 'b'\n" + body)
    assert ir_digest(b"; comment a\n" + body) != ir_digest(b"; comment b\n" + body)

    # opt names its input path in source_filename too when the input IR names none; that line is left out
    code = b"\ndefine i32 @main() {\n  ret i32 0\n}\n"

    def opt_wrote(path: bytes, source_filename: bytes, gap: bytes = b"") -> bytes:
        return b"; ModuleID = '" + path + b"'\n" + gap + b'source_filename = "' + source_filename + b'"\n' + code

    assert ir_digest(opt_wrote(b"/tmp/passevo-a/program.ir", b"/tmp/passevo-a/program.ir")) == ir_digest(
        opt_wrote(b"/tmp/passevo-b/program.ir", b"/tmp/passevo-b/program.ir")) == ir_digest(code)
    # any other source_filename counts: the front end's, another path, one not right after the ModuleID line
    assert ir_digest(opt_wrote(b"/tmp/a.ir", b"main.c")) != ir_digest(opt_wrote(b"/tmp/a.ir", b"other.c"))
    assert ir_digest(opt_wrote(b"/tmp/a.ir", b"main.c")) != ir_digest(code)
    assert ir_digest(opt_wrote(b"/tmp/a.ir", b"/tmp/b.ir")) != ir_digest(opt_wrote(b"/tmp/a.ir", b"/tmp/c.ir"))
    assert ir_digest(opt_wrote(b"/tmp/a.ir", b"/tmp/a.ir", b"\n")) != ir_digest(
        opt_wrote(b"/tmp/b.ir", b"/tmp/b.ir", b"\n"))
    assert ir_digest(b'source_filename = "/tmp/a.ir"\n' + code) != ir_digest(b'source_filename = "/tmp/b.ir"\n' + code)


def test_identical_ir_is_linked_once(tmp_path, processes):
    evaluator = Evaluator(fake_backend(tmp_path, runs_per_eval=2))
    first = evaluator.score("-sroa")
    second = evaluator.score("-noop", "-sroa")
    assert processes.stages == ["cp", "opt", "link", "run", "run", "cp", "opt"]
    assert (second.status, second.mean) == (EvaluationStatus.OK, first.mean)

    # another IR links, and so does every build with a fresh cache
    evaluator.score("-sroa", "-gvn")
    Evaluator(evaluator.cfg).score("-noop", "-sroa")
    assert processes.stages.count("link") == 3


@pytest.mark.parametrize("placeholder", ["{passes}", "--with={passes_csv}"])
@pytest.mark.parametrize("key", ["compiler_front_command", "linker_command"])
def test_only_the_optimizer_takes_the_candidate(tmp_path, capsys, key, placeholder):
    """A front end or linker that took the pass list would make the optimized IR
    not decide the executable; it is refused at load, before anything is written."""
    name = placeholder[placeholder.index("{"):]
    assert_rejected(tmp_path, capsys, key, lambda template: f"{template} {placeholder}",
                    f"^{key} cannot take {re.escape(name)};")


_MISSING = {
    # the optimizer never sees the candidate, so every build would be the same
    "no-candidate": ("optimizer_command", lambda _: "opt -S -enable-new-pm=0 -O3 {ir} -o {output}",
                     "{passes} or {passes_csv}"),
    "no-optimized-ir": ("optimizer_command", lambda template: template.replace("{output}", "out.ll"), "{output}"),
    "no-linker-input": ("linker_command", lambda template: template.replace("{ir}", "fixed.ll"), "{ir}"),
    "no-executable": ("linker_command", lambda template: template.replace("{output}", "a.out"), "{output}"),
}


@pytest.mark.parametrize("missing", _MISSING)
def test_a_stage_without_what_it_must_take_exits_two(tmp_path, capsys, missing):
    key, edit, names = _MISSING[missing]
    assert_rejected(tmp_path, capsys, key, edit, f"^{key} must take {re.escape(names)}$")


def test_front_end_and_optimizer_input_are_not_required(tmp_path):
    """A no-op front end beside an optimizer that reads a fixed file builds; a simulated config needs no template."""
    fixed = tmp_path / "fixed.ir"
    fixed.write_text("ok\n")
    optimizer = FAKE_TEMPLATES["optimizer_command"].replace("{ir}", str(fixed))
    record = Evaluator(fake_backend(tmp_path, compiler_front_command="true", optimizer_command=optimizer)).score("-sroa")
    assert record.status is EvaluationStatus.OK, record.diagnostics
    assert fitness_mod.BackendConfig(optimizer_command="opt {ir}").kind == "simulated"


def test_the_seam_names_any_other_process_by_its_file_name(tmp_path, processes):
    """A one-word front end is legal, and an executable need not be program.bin."""
    record = Evaluator(fake_backend(tmp_path, compiler_front_command="true")).score("-sroa")
    processes.replies["baseline.bin"] = RunResult(0.5, 0, False, "")
    assert fitness_mod.time_execution([str(tmp_path / "baseline.bin")], 1.0).seconds == 0.5
    # the fake optimizer finds no IR, since `true` writes none
    assert (record.status, processes.stages) == (EvaluationStatus.COMPILE_ERROR, ["true", "opt", "baseline.bin"])


@pytest.mark.parametrize("outcome", sorted(_OUTCOMES))
def test_failed_link_is_never_stored(tmp_path, processes, outcome):
    """A link that fails, even after writing its output, is run again for the same IR."""

    def link_then_fail(argv, real):
        real()  # the linker writes the executable
        return _OUTCOMES[outcome]

    processes.replies["link"] = link_then_fail
    evaluator = Evaluator(fake_backend(tmp_path))
    first = evaluator.score("-sroa")
    twin = evaluator.score("-sroa", "-noop")
    assert processes.stages.count("link") == 2
    assert first.status is twin.status is (
        EvaluationStatus.TIMEOUT if outcome == "timeout" else EvaluationStatus.COMPILE_ERROR)
    assert first.diagnostics == twin.diagnostics
    assert first.diagnostics.startswith("linker ")


# stage: its template key, what it takes in place of the fake tool's, its output file, the stages before it
_SILENT_STAGES = {
    "optimizer": ("optimizer_command", "{output} {passes}", "program.opt.ir", ["cp"]),
    "linker": ("linker_command", "{ir} {output}", "program.bin", ["cp", "opt"]),
}


@pytest.mark.parametrize("stage", _SILENT_STAGES)
def test_a_stage_that_writes_no_output_is_a_compile_error(tmp_path, processes, stage):
    """A stage that exits 0 without writing its output ends the build there, and the failure is cached."""
    key, args, output, before = _SILENT_STAGES[stage]
    evaluator = Evaluator(fake_backend(tmp_path, **{key: f"{sys.executable} -c pass {args}"}))
    record = evaluator.score("-sroa")
    assert record.status is EvaluationStatus.COMPILE_ERROR
    assert record.diagnostics == f"{stage} exited 0 but wrote no {output}"
    assert evaluator.cache.get(record.sequence_digest) == record
    assert processes.stages == before + [os.path.basename(sys.executable)]


def test_evaluate_rejects_simulated_config():
    with pytest.raises(ValueError, match=r"experiment\.build_scorers"):
        Evaluator(fitness_mod.BackendConfig(kind="simulated")).score()


def test_program_receives_passes_through_pipeline(tmp_path):
    # the fake linker embeds the optimizer's pass list in the program output
    evaluator = Evaluator(fake_backend(tmp_path, behavior="ok", runs_per_eval=1))
    exe = evaluator.build(tmp_path / "build", "-sroa", "-gvn")
    result = time_execution([str(exe)], timeout=10.0)
    assert result.returncode == 0
    assert "passes: -sroa -gvn" in result.output

    # a name the shell would expand, split or end is printed verbatim; sh's echo would rewrite its \n
    name = "-a'b\"c$d`e\\nf;g"
    exe = evaluator.build(tmp_path / "quoted", "-sroa", name)
    result = time_execution([str(exe)], timeout=10.0)
    assert (result.returncode, result.output) == (0, f"passes: -sroa {name}\n")


# --- cache persistence -------------------------------------------------------

def test_cache_persists_and_reloads(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = EvaluationCache(path)
    record = EvaluationRecord(
        sequence_digest="d1", runs=4, samples=(1.0, 1.0, 1.0, 1.0),
        mean=1.0, sample_stddev=0.0, status=EvaluationStatus.OK,
    )
    cache.put(record)
    failure = EvaluationRecord(
        sequence_digest="d2", runs=4, samples=(), mean=PENALTY,
        sample_stddev=0.0, status=EvaluationStatus.COMPILE_ERROR, diagnostics="x",
    )
    cache.put(failure)

    reloaded = EvaluationCache(path)
    assert len(reloaded) == 2
    hit = reloaded.get("d1")
    assert hit.mean == 1.0
    assert hit.status is EvaluationStatus.OK
    assert hit.samples == ()
    bad = reloaded.get("d2")
    assert bad.fitness == PENALTY
    assert bad.status is EvaluationStatus.COMPILE_ERROR
    assert bad.diagnostics == "x"


def test_cache_reloads_the_tail_of_long_diagnostics(tmp_path):
    path = tmp_path / "cache.jsonl"
    diagnostics = "optimizer failed (exit 1):\n" + "".join(f"line {i}\n" for i in range(1000))
    assert len(diagnostics) > fitness_mod.DIAGNOSTICS_KEPT
    record = EvaluationRecord("d", 4, (), PENALTY, 0.0, EvaluationStatus.COMPILE_ERROR, diagnostics)
    assert EvaluationCache(path).put(record).diagnostics == diagnostics
    reloaded = EvaluationCache(path).get("d")
    assert reloaded.diagnostics == diagnostics[-fitness_mod.DIAGNOSTICS_KEPT:]


def test_cache_indexes_first_writer_per_executable_under_threads(tmp_path):
    import threading

    path = tmp_path / "cache.jsonl"
    cache = EvaluationCache(path)
    records = [EvaluationRecord(f"d{i}", 1, (float(i),), float(i), 0.0, EvaluationStatus.OK) for i in range(64)]
    barrier = threading.Barrier(8)

    def writer(k):
        barrier.wait(timeout=10)
        for record in records[k::8]:
            cache.put(record, "exe")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(cache) == 64
    rows = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    assert len(rows) == 64 and all(row["exe"] == "exe" for row in rows)
    # the indexed record is the one written first, in memory and after a reload
    assert cache.get_timed("exe") is cache.get(rows[0]["digest"])
    assert EvaluationCache(path).get_timed("exe").sequence_digest == rows[0]["digest"]


def _cache_line(digest: str, mean: float) -> str:
    row = {"digest": digest, "mean": mean, "runs": 1, "status": "ok", "stddev": 0.0}
    return json.dumps(row, sort_keys=True) + "\n"


def test_cache_skips_torn_last_line_and_resumes(tmp_path):
    path = tmp_path / "eval_cache.jsonl"
    whole = _cache_line("ab", 1.5) + _cache_line("bc", 2.5)
    path.write_text(whole + '{"digest": "cd", "me', "utf-8")
    with pytest.warns(UserWarning, match="eval_cache.jsonl"):
        cache = EvaluationCache(path)
    assert len(cache) == 2
    assert cache.get("ab").mean == 1.5
    assert cache.get("bc").mean == 2.5
    assert cache.get("cd") is None
    assert cache.get("ab").diagnostics == ""  # rows written before diagnostics were kept
    # the torn tail is cut, so the next append starts on its own line
    assert path.read_text("utf-8") == whole
    cache.put(EvaluationRecord("cd", 1, (3.5,), 3.5, 0.0, EvaluationStatus.OK))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reloaded = EvaluationCache(path)
    assert len(reloaded) == 3
    assert reloaded.get("cd").mean == 3.5


def test_cache_cuts_a_whole_row_without_its_newline(tmp_path):
    path = tmp_path / "eval_cache.jsonl"
    path.write_text(_cache_line("ab", 1.5) + _cache_line("bc", 2.5).rstrip("\n"), "utf-8")
    with pytest.warns(UserWarning, match="dropping torn last line 2 "):
        cache = EvaluationCache(path)
    assert (len(cache), cache.get("bc")) == (1, None)
    assert path.read_text("utf-8") == _cache_line("ab", 1.5)
    # the resumed run scores bc again, and no row is glued onto another
    for digest, mean in (("bc", 2.5), ("cd", 3.5)):
        cache.put(EvaluationRecord(digest, 1, (mean,), mean, 0.0, EvaluationStatus.OK))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reloaded = EvaluationCache(path)
    assert {digest: reloaded.get(digest).mean for digest in ("ab", "bc", "cd")} == {"ab": 1.5, "bc": 2.5, "cd": 3.5}


def test_cache_rejects_malformed_line_before_the_last(tmp_path):
    path = tmp_path / "eval_cache.jsonl"
    row = json.loads(_cache_line("cd", 2.0))
    not_records = [
        '{"digest": "cd", "me',
        json.dumps({**row, "status": "okay"}),
        json.dumps({key: value for key, value in row.items() if key != "runs"}),
        json.dumps([row]),
        json.dumps({**row, "exe": []}),
        json.dumps({**row, "exe": {"sha256": "d"}}),
        json.dumps({**row, "digest": 5}),
        json.dumps({**row, "mean": True}),
        json.dumps({**row, "mean": 10**400}),
        json.dumps({**row, "mean": math.nan}),
        json.dumps({**row, "stddev": math.inf}),
        json.dumps(row).replace('"mean": 2.0', '"mean": 1e400'),
        json.dumps({**row, "runs": 1.7}),
        json.dumps({**row, "diagnostics": 7}),
        # an ok mean is a mean of wall times; failure rows may carry a null one
        json.dumps({**row, "mean": None}),
        json.dumps({**row, "mean": -1.0}),
    ]
    # a whole line that is not a record is no torn tail, even when it is the last,
    # and a torn tail after it is not cut either
    tails = (_cache_line("ef", 2.5), "", '{"digest": "ef", "me')
    cases = [(line, tail) for line in not_records for tail in tails]
    for bad, tail in cases:
        text = _cache_line("ab", 1.5) + bad + "\n" + tail
        path.write_text(text, "utf-8")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: line 2 ")):
            EvaluationCache(path)
        assert path.read_text("utf-8") == text


def test_cache_loads_null_statistics_and_a_missing_or_null_exe(tmp_path):
    path = tmp_path / "eval_cache.jsonl"
    failed = {"digest": "ab", "status": "timeout", "runs": 3, "mean": None, "stddev": None, "diagnostics": "slow"}
    timed = {**json.loads(_cache_line("bc", 2.5)), "exe": "e" * 64}
    path.write_text("".join(json.dumps(row) + "\n" for row in (failed, {**timed, "digest": "cd", "exe": None}, timed)))
    cache = EvaluationCache(path)
    assert (cache.get("ab").status, cache.get("ab").fitness, cache.get("ab").sample_stddev) == (
        EvaluationStatus.TIMEOUT, PENALTY, 0.0
    )
    assert cache.get("cd").mean == 2.5 and cache.get("cd").diagnostics == ""
    assert cache.get_timed("e" * 64) is cache.get("bc")
    assert len(cache) == 3


def test_corrupt_cache_row_exits_two(tmp_path, capsys):
    config = config_file(tmp_path, fake_toolchain="ok")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "eval_cache.jsonl").write_text(
        _cache_line("ab", 1.5).replace('"ok"', '"okay"') + _cache_line("cd", 2.5), "utf-8"
    )
    # the rejected resume keeps the previous run's provenance
    provenance = b"[experiment]\ntrials = 3\n"
    (out_dir / "effective_config.ini").write_bytes(provenance)
    assert main(["evolve", "--config", str(config)]) == 2
    assert "eval_cache.jsonl: line 1 " in capsys.readouterr().err
    assert (out_dir / "effective_config.ini").read_bytes() == provenance


def test_cache_first_writer_wins():
    cache = EvaluationCache()
    a = EvaluationRecord("d", 1, (1.0,), 1.0, 0.0, EvaluationStatus.OK)
    b = EvaluationRecord("d", 1, (9.0,), 9.0, 0.0, EvaluationStatus.OK)
    assert cache.put(a) is a
    assert cache.put(b) is a
    assert cache.get("d") is a


# --- real native binary (clang only, no opt needed) --------------------------

def test_time_execution_on_real_compiled_binary(tmp_path):
    import shutil
    import subprocess
    from importlib import resources

    clang = shutil.which("clang") or shutil.which("gcc") or shutil.which("cc")
    if clang is None:
        pytest.skip("no C compiler available")
    source = tmp_path / "subset_sum.c"
    source.write_text(resources.files("passevo.data").joinpath("subset_sum.c").read_text("utf-8"))
    exe = tmp_path / "subset_sum"
    compiled = subprocess.run([clang, "-O1", str(source), "-o", str(exe)], capture_output=True)
    assert compiled.returncode == 0, compiled.stderr
    first = time_execution([str(exe)], timeout=30.0)
    second = time_execution([str(exe)], timeout=30.0)
    assert first.returncode == 0 and second.returncode == 0
    assert first.seconds > 0 and math.isfinite(first.seconds)
    assert first.output == second.output
    assert "subsets hitting" in first.output


# --- real LLVM 14 toolchain without clang -------------------------------------

def test_llvm14_identical_binaries_timed_once(tmp_path, processes):
    _llvm14_builds_link_once(tmp_path, processes, 'source_filename = "main.ll"\n\n')


def test_llvm14_ir_without_source_filename_links_once(tmp_path, processes):
    """opt then names each build's own input path in source_filename, which the IR key leaves out."""
    _llvm14_builds_link_once(tmp_path, processes, "")


def _llvm14_builds_link_once(tmp_path, processes, header: str) -> None:
    import shutil

    if not all(shutil.which(tool) for tool in ("opt", "llc", "gcc")):
        pytest.skip("needs opt, llc and gcc on PATH")
    source = tmp_path / "main.ll"
    source.write_text(header + "define i32 @main() {\n  ret i32 0\n}\n", "utf-8")
    evaluator = Evaluator(fitness_mod.BackendConfig(
        kind="external_compiler",
        source_path=str(source),
        compiler_front_command="cp {source} {ir}",
        optimizer_command="opt -S -enable-new-pm=0 {passes} {ir} -o {output}",
        linker_command="""sh -c 'llc -O2 "$0" -o "$1.s" && gcc -no-pie "$1.s" -o "$1"' {ir} {output}""",
        runs_per_eval=3,
        workdir=str(tmp_path / "build"),
    ))

    def links_and_runs():
        return processes.stages.count("sh"), processes.stages.count("run")

    first = evaluator.score("-sroa")
    assert first.status is EvaluationStatus.OK, first.diagnostics
    assert links_and_runs() == (1, 3)
    # -verify changes no code; each build has its own directory, so the optimized
    # IR differs only in the path opt writes into '; ModuleID' (and source_filename)
    second = evaluator.score("-sroa", "-verify")
    assert second.status is EvaluationStatus.OK, second.diagnostics
    assert links_and_runs() == (1, 3)
    assert second.mean == first.mean
    # -instnamer names the entry block: other IR, byte-identical executable
    third = evaluator.score("-instnamer")
    assert third.status is EvaluationStatus.OK, third.diagnostics
    assert links_and_runs() == (2, 3)
    assert third.mean == first.mean
