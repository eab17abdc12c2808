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
    evaluate,
    expand_command,
    ir_digest,
    match_lanes,
    perturb_sequence,
    sequence_digest,
    simulated_fitnesses,
    simulated_record,
    time_execution,
)

from conftest import (
    FAKE_TOOL,
    assert_trusted_is_public,
    evolve_with_template,
    external_config_text,
    fake_backend,
    make_catalog,
    write_test_inputs,
)


# --- independent oracle: plain recursive edit distance -----------------------

def recursive_edit_distance(a: tuple, b: tuple) -> int:
    @functools.lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(
            go(i + 1, j) + 1,
            go(i, j + 1) + 1,
            go(i + 1, j + 1) + (a[i] != b[j]),
        )

    return go(0, 0)


@given(st.lists(st.sampled_from("abc"), max_size=9), st.lists(st.sampled_from("abc"), max_size=9))
def test_edit_distance_matches_recursive_oracle(a, b):
    assert edit_distance(tuple(a), tuple(b)) == recursive_edit_distance(tuple(a), tuple(b))


# --- independent oracle: the full-matrix DP --------------------------------

def matrix_edit_distance(a: tuple, b: tuple) -> int:
    """The O(len(a) * len(b)) Wagner-Fischer table, row by row."""
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        current = [i]
        for j, y in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (x != y)))
        previous = current
    return previous[-1]


@st.composite
def token_pairs(draw):
    """Two sequences of 0-150 tokens over a 1-4 symbol alphabet."""
    alphabet = "abcd"[: draw(st.integers(1, 4))]
    tokens = st.lists(st.sampled_from(alphabet), max_size=150)
    return tuple(draw(tokens)), tuple(draw(tokens))


def draw_edited(draw, base: tuple, alphabet: str, max_edits: int) -> tuple:
    """A copy of `base` with 0..max_edits random inserts, deletes and replacements."""
    edited = list(base)
    for _ in range(draw(st.integers(0, max_edits))):
        op = draw(st.sampled_from(("insert", "delete", "replace") if edited else ("insert",)))
        if op == "insert":
            edited.insert(draw(st.integers(0, len(edited))), draw(st.sampled_from(alphabet)))
        elif op == "delete":
            del edited[draw(st.integers(0, len(edited) - 1))]
        else:
            edited[draw(st.integers(0, len(edited) - 1))] = draw(st.sampled_from(alphabet))
    return tuple(edited)


@st.composite
def edited_pairs(draw):
    """A base sequence and a copy with 0-4 random edits, so the trim has work."""
    alphabet = "abcd"[: draw(st.integers(1, 4))]
    base = tuple(draw(st.lists(st.sampled_from(alphabet), max_size=150)))
    return base, draw_edited(draw, base, alphabet, 4)


@given(token_pairs())
def test_edit_distance_matches_matrix_oracle(pair):
    a, b = pair
    assert edit_distance(a, b) == matrix_edit_distance(a, b)


@given(edited_pairs())
def test_edit_distance_matches_matrix_oracle_near_copies(pair):
    a, b = pair
    assert edit_distance(a, b) == matrix_edit_distance(a, b) <= 4


@given(st.one_of(token_pairs(), edited_pairs()))
def test_edit_distance_is_symmetric(pair):
    a, b = pair
    assert edit_distance(a, b) == edit_distance(b, a)


def test_edit_distance_crosses_word_boundaries():
    # the shared "x"/"y" ends wrap a core of exactly n tokens
    rng = random.Random(7)
    for n in (63, 64, 65, 130):
        a = ("a",) + tuple(rng.choice("ab") for _ in range(n - 2)) + ("a",)
        b = ("b",) + tuple(rng.choice("ab") for _ in range(n + 1)) + ("b",)
        expected = matrix_edit_distance(a, b)
        assert edit_distance(("x",) + a + ("y",), ("x",) + b + ("y",)) == expected
        assert edit_distance(b, a) == expected


@st.composite
def trimmed_pairs(draw):
    """Two sequences over a 1-2 symbol alphabet that share a prefix and a
    suffix around independent cores, either of which may be empty."""
    alphabet = "ab"[: draw(st.integers(1, 2))]
    tokens = st.lists(st.sampled_from(alphabet), max_size=70)
    prefix, suffix = draw(tokens), draw(tokens)
    core_a, core_b = draw(tokens), draw(tokens)
    return tuple(prefix + core_a + suffix), tuple(prefix + core_b + suffix)


@given(st.one_of(trimmed_pairs(), token_pairs(), edited_pairs()))
def test_edit_distance_on_shared_ends_matches_oracle(pair):
    a, b = pair
    assert edit_distance(a, b) == edit_distance(b, a) == matrix_edit_distance(a, b)


def test_edit_distance_edge_cases():
    for a, b in [((), ()), ((), ("a",)), (("a",), ()), (("a", "a"), ("a",)),
                 (("a", "b", "a"), ("a", "a")), (("b", "a", "b"), ("b", "b", "b"))]:
        assert edit_distance(a, b) == matrix_edit_distance(a, b)
    assert match_lanes(("a", "b", "a")) == {"a": b"\x05", "b": b"\x02"}
    assert match_lanes(tuple("a" * 8)) == {"a": b"\xff\x00"}  # a ninth bit guards the lane


# --- the lane-packed batch ---------------------------------------------------

BYTE_EDGES = (0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65)


@st.composite
def batches(draw):
    """A target whose length is often at a lane's byte edge, and 0-12 candidates."""
    alphabet = "abcd"[: draw(st.integers(1, 4))]
    size = draw(st.one_of(st.sampled_from(BYTE_EDGES), st.integers(0, 80)))
    target = tuple(draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size)))
    candidates = st.lists(st.sampled_from(alphabet), max_size=80).map(tuple)
    return target, draw(st.lists(candidates, max_size=12))


@st.composite
def near_copy_batches(draw):
    """A target over 1-2 symbols, often of a byte-edge length, and 0-12
    candidates that share its ends: 0-3-edit copies, splices of a prefix and
    a suffix of it (nothing left between the shared ends), duplicates and
    random tuples. Few symbols make the ends ambiguous: ("a",) * 5 and
    ("a",) * 3 share a prefix of 3 and a suffix of 3, but only 3 in all."""
    alphabet = "ab"[: draw(st.integers(1, 2))]
    size = draw(st.one_of(st.sampled_from(BYTE_EDGES), st.integers(0, 80)))
    a = tuple(draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size)))
    bs: list[tuple] = []
    for kind in draw(st.lists(st.sampled_from(("edited", "splice", "duplicate", "random")), max_size=12)):
        if kind == "edited":
            bs.append(draw_edited(draw, a, alphabet, 3))
        elif kind == "splice":
            cut = draw(st.integers(0, size))
            bs.append(a[:cut] + a[draw(st.integers(cut, size)) :])
        elif kind == "duplicate" and bs:
            bs.append(draw(st.sampled_from(bs)))
        else:
            bs.append(tuple(draw(st.lists(st.sampled_from(alphabet), max_size=80))))
    return a, bs


@given(st.one_of(batches(), near_copy_batches()))
def test_edit_distances_match_matrix_oracle(batch):
    a, bs = batch
    assert edit_distances(a, bs) == [matrix_edit_distance(a, b) for b in bs]
    assert edit_distances(a, bs, match_lanes(a)) == edit_distances(a, bs)


@given(st.one_of(batches(), near_copy_batches()), st.data())
def test_edit_distances_lanes_are_independent(batch, data):
    # a candidate's distance is the same alone, duplicated, and at any position,
    # whether or not the batch around it lets its shared ends be skipped
    a, bs = batch
    assert edit_distances(a, bs) == [edit_distance(a, b) for b in bs]
    b = data.draw(st.lists(st.sampled_from("abcd"), max_size=80).map(tuple))
    alone = edit_distance(a, b)
    assert edit_distances(a, [b, b, b]) == [alone] * 3
    position = data.draw(st.integers(0, len(bs)))
    batch_with_b = bs[:position] + [b] + bs[position:]
    assert edit_distances(a, batch_with_b)[position] == alone


@pytest.mark.parametrize("size", BYTE_EDGES)
def test_edit_distances_at_byte_edges(size):
    rng = random.Random(size)
    a = tuple(rng.choice("ab") for _ in range(size))
    bs = [(), a, a[1:], a + ("a",), ("b",) * size, tuple(rng.choice("ab") for _ in range(2 * size + 3))]
    assert edit_distances(a, bs) == [matrix_edit_distance(a, b) for b in bs]


def test_edit_distances_run_only_the_columns_between_shared_ends(monkeypatch):
    columns = []

    def counting_zip_longest(*middles):
        for column in itertools.zip_longest(*middles):
            columns.append(column)
            yield column

    monkeypatch.setattr(fitness_mod, "zip_longest", counting_zip_longest)
    rng = random.Random(64)
    names = [f"-p{i}" for i in range(40)]
    a = tuple(rng.choice(names) for _ in range(64))
    # one central insert, replacement or delete each
    near = [a[:i] + new + a[i + cut :] for i in range(28, 37) for new, cut in ((("-x",), 0), (("-x",), 1), ((), 1))]
    assert edit_distances(a, near) == [matrix_edit_distance(a, b) for b in near]
    assert len(columns) <= 2  # the full table would take 65
    for _ in range(20):
        columns.clear()
        bs = [tuple(rng.choice(names) for _ in range(rng.randint(0, 100))) for _ in range(rng.randint(1, 12))]
        assert edit_distances(a, bs) == [matrix_edit_distance(a, b) for b in bs]
        assert len(columns) <= max(map(len, bs))


def test_edit_distances_empty_batch_and_empty_sequences():
    assert edit_distances(("a", "b"), []) == []
    assert edit_distances((), [(), ("a",), ("a", "b", "c")]) == [0, 1, 3]
    assert edit_distances(("a", "b", "c"), [(), ()]) == [3, 3]


def test_edit_distance_examples():
    assert edit_distance(("a", "b", "c"), ("a", "b", "c")) == 0
    assert edit_distance(("a", "b"), ("a", "b", "c")) == 1
    assert edit_distance((), ("a", "b", "c")) == 3
    assert edit_distance(("a", "b", "c"), ("x", "b", "y")) == 2


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
    public = EvaluationRecord(
        sequence_digest=digest, runs=1, samples=(1.5,), mean=1.5, sample_stddev=0.0, status=EvaluationStatus.OK
    )
    assert_trusted_is_public(record, public)
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


# A parent that forks a child into its own session; the child records its pid
# and sleeps holding the output file, and the parent prints once it has.
_ESCAPING_PARENT = """
import os, sys, time
if os.fork() == 0:
    os.setsid()
    with open(sys.argv[1], "w") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(8)
    os._exit(0)
while not os.path.exists(sys.argv[1]):
    time.sleep(0.01)
print("parent waiting", flush=True)
time.sleep(30)
"""


@needs_proc
def test_time_execution_timeout_leaves_an_escaped_descendant_running(tmp_path):
    pidfile = tmp_path / "pid"
    start = time.perf_counter()
    result = time_execution([sys.executable, "-c", _ESCAPING_PARENT, str(pidfile)], timeout=2.0)
    elapsed = time.perf_counter() - start
    escaped = _recorded_pid(pidfile)
    try:
        assert (result.timed_out, result.returncode) == (True, None)
        assert "parent waiting" in result.output
        # the escaped child holds the output for 8 s; waiting for it would take that long
        assert elapsed < 2.0 + 2.0
        assert not _has_exited(escaped, within=0.0)
    finally:
        os.kill(escaped, signal.SIGKILL)


# A leader that prints, forks a child into its own session that records its
# pid and sleeps holding the output file, and exits 0 as soon as the child has
# left its process group (a child still in it would die in the group kill).
_DAEMONIZING_LEADER = """
import os, sys, time
print("done", flush=True)
if os.fork() == 0:
    os.setsid()
    with open(sys.argv[1], "w") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(8)
while not os.path.exists(sys.argv[1]):
    time.sleep(0.01)
os._exit(0)
"""


@needs_proc
def test_time_execution_scores_a_daemonizing_leader_by_its_exit(tmp_path):
    pidfile = tmp_path / "pid"
    start = time.perf_counter()
    result = time_execution([sys.executable, "-c", _DAEMONIZING_LEADER, str(pidfile)], timeout=4.0)
    elapsed = time.perf_counter() - start
    daemon = _recorded_pid(pidfile)
    try:
        assert (result.timed_out, result.returncode, result.output) == (False, 0, "done\n")
        assert elapsed < 2.0
        assert not _has_exited(daemon, within=0.0)
    finally:
        os.kill(daemon, signal.SIGKILL)


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
    cfg = fake_backend(tmp_path, behavior="ok", runs_per_eval=3)
    seq = PassSequence(("-sroa", "-gvn"))
    record = evaluate(seq, cfg, EvaluationCache())
    assert record.status is EvaluationStatus.OK
    assert record.runs == 3
    assert len(record.samples) == 3
    assert record.mean == pytest.approx(sum(record.samples) / 3)
    assert record.fitness == record.mean
    assert math.isfinite(record.fitness)


def test_evaluate_compile_error_on_broken_pass(tmp_path):
    cfg = fake_backend(tmp_path)
    record = evaluate(PassSequence(("-sroa", "-broken")), cfg, EvaluationCache())
    assert record.status is EvaluationStatus.COMPILE_ERROR
    assert record.fitness == PENALTY
    assert "unknown pass" in record.diagnostics


def test_evaluate_run_error(tmp_path):
    cfg = fake_backend(tmp_path, behavior="exit1")
    record = evaluate(PassSequence(("-sroa",)), cfg, EvaluationCache())
    assert record.status is EvaluationStatus.RUN_ERROR
    assert record.fitness == PENALTY
    assert "deliberate failure" in record.diagnostics


def test_evaluate_timeout(tmp_path):
    cfg = fake_backend(tmp_path, behavior="spin", run_timeout=0.5)
    start = time.perf_counter()
    record = evaluate(PassSequence(("-sroa",)), cfg, EvaluationCache())
    assert record.status is EvaluationStatus.TIMEOUT
    assert record.fitness == PENALTY
    assert time.perf_counter() - start < 5.0


def test_evaluate_fixed_samples_arithmetic(tmp_path, monkeypatch):
    # pin run-stage durations to {1, 2, 3} s: mean 2.0, sample stddev 1.0
    durations = iter([1.0, 2.0, 3.0])
    real = fitness_mod.time_execution

    def fake_time(argv, timeout):
        if argv[0].endswith("program.bin"):
            return RunResult(next(durations), 0, False, "")
        return real(argv, timeout)

    monkeypatch.setattr(fitness_mod, "time_execution", fake_time)
    cfg = fake_backend(tmp_path, runs_per_eval=3)
    record = evaluate(PassSequence(("-sroa",)), cfg, EvaluationCache())
    assert record.status is EvaluationStatus.OK
    assert record.samples == (1.0, 2.0, 3.0)
    assert record.mean == pytest.approx(2.0, abs=1e-12)
    assert record.sample_stddev == pytest.approx(1.0, abs=1e-12)


def test_evaluate_cache_hit_skips_toolchain(tmp_path, monkeypatch):
    calls = 0
    real = fitness_mod.time_execution

    def counting(argv, timeout):
        nonlocal calls
        calls += 1
        return real(argv, timeout)

    monkeypatch.setattr(fitness_mod, "time_execution", counting)
    cfg = fake_backend(tmp_path, runs_per_eval=2)
    cache = EvaluationCache()
    seq = PassSequence(("-sroa", "-gvn"))
    first = evaluate(seq, cfg, cache)
    after_first = calls
    second = evaluate(seq, cfg, cache)
    assert second is first
    assert calls == after_first


@pytest.fixture
def program_runs(monkeypatch):
    """Record every timed run of a built program (not the build stages)."""
    runs = []
    real = fitness_mod.time_execution

    def counting(argv, timeout):
        if argv[0].endswith("program.bin"):
            runs.append(argv[0])
        return real(argv, timeout)

    monkeypatch.setattr(fitness_mod, "time_execution", counting)
    return runs


def test_identical_executable_is_timed_once(tmp_path, program_runs):
    # the fake optimizer drops -noop, so both sequences link the same bytes
    cfg = fake_backend(tmp_path, runs_per_eval=3)
    cache = EvaluationCache()
    first = evaluate(PassSequence(("-sroa",)), cfg, cache)
    assert len(program_runs) == 3
    second = evaluate(PassSequence(("-sroa", "-noop")), cfg, cache)
    assert len(program_runs) == 3
    assert second.sequence_digest == sequence_digest(PassSequence(("-sroa", "-noop")))
    assert second.sequence_digest != first.sequence_digest
    assert (second.samples, second.mean, second.sample_stddev, second.status) == (
        first.samples, first.mean, first.sample_stddev, first.status)
    assert len(second.samples) == 3
    assert len(cache) == 2
    assert cache.get(second.sequence_digest) is second


def test_executable_index_persists_and_reloads(tmp_path, program_runs):
    cfg = fake_backend(tmp_path, runs_per_eval=2)
    path = tmp_path / "eval_cache.jsonl"
    cache = EvaluationCache(path)
    first = evaluate(PassSequence(("-sroa",)), cfg, cache)
    evaluate(PassSequence(("-sroa", "-noop")), cfg, cache)
    rows = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    assert len(rows) == 2
    assert rows[0]["exe"] == rows[1]["exe"]
    assert len(program_runs) == 2

    third = evaluate(PassSequence(("-noop", "-sroa", "-noop")), cfg, EvaluationCache(path))
    assert len(program_runs) == 2
    assert third.status is EvaluationStatus.OK
    assert third.mean == first.mean
    assert third.samples == ()  # copied from a reloaded record
    assert json.loads(path.read_text("utf-8").splitlines()[2])["exe"] == rows[0]["exe"]


def test_failed_build_row_has_the_timed_row_keys(tmp_path):
    path = tmp_path / "eval_cache.jsonl"
    cache = EvaluationCache(path)
    cfg = fake_backend(tmp_path, runs_per_eval=1)
    assert evaluate(PassSequence(("-sroa",)), cfg, cache).status is EvaluationStatus.OK
    assert evaluate(PassSequence(("-broken",)), cfg, cache).status is EvaluationStatus.COMPILE_ERROR
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
    record = evaluate(PassSequence(("-sroa",)), fake_backend(tmp_path, runs_per_eval=1), EvaluationCache())
    assert record.status is EvaluationStatus.OK
    # the sequence, the optimized IR and the executable, which put_linked interns unhashed
    assert len(hashed) == 3
    assert hashed[0] == b"-sroa" and hashed[2].startswith(b"#!")


def test_different_executable_is_timed(tmp_path, program_runs):
    cfg = fake_backend(tmp_path, runs_per_eval=2)
    cache = EvaluationCache()
    evaluate(PassSequence(("-sroa",)), cfg, cache)
    record = evaluate(PassSequence(("-sroa", "-gvn")), cfg, cache)
    assert len(program_runs) == 4
    assert len(record.samples) == 2


def test_failed_runs_are_shared_by_identical_executables(tmp_path, program_runs):
    cfg = fake_backend(tmp_path, behavior="exit1", runs_per_eval=2)
    cache = EvaluationCache()
    first = evaluate(PassSequence(("-sroa",)), cfg, cache)
    second = evaluate(PassSequence(("-noop", "-sroa")), cfg, cache)
    assert len(program_runs) == 1
    assert first.status is second.status is EvaluationStatus.RUN_ERROR
    assert second.diagnostics == first.diagnostics


def test_tool_spawn_failure_is_not_cached(tmp_path):
    path = tmp_path / "eval_cache.jsonl"
    seq = PassSequence(("-sroa",))
    missing = fake_backend(tmp_path, compiler_front_command="/nonexistent/passevo-cc {source} {ir}")
    cache = EvaluationCache(path)
    record = evaluate(seq, missing, cache)
    assert record.status is EvaluationStatus.COMPILE_ERROR
    assert "spawn failed" in record.diagnostics
    assert len(cache) == 0
    assert not path.exists() or path.read_text("utf-8") == ""

    # once the tool is there, the same output directory evaluates it for real
    record = evaluate(seq, fake_backend(tmp_path), EvaluationCache(path))
    assert record.status is EvaluationStatus.OK
    assert len(path.read_text("utf-8").splitlines()) == 1


def test_program_spawn_failure_is_not_cached(tmp_path, monkeypatch):
    real = fitness_mod.time_execution
    stages, outputs = [], []
    startable = [False]

    def unstartable(argv, timeout):
        is_run = argv[0].endswith("program.bin")
        stages.append("run" if is_run else argv[2])
        if is_run and not startable[0]:
            return RunResult(0.0, None, False, "spawn failed: [Errno 8] Exec format error")
        result = real(argv, timeout)
        if is_run:
            outputs.append(result.output)
        return result

    monkeypatch.setattr(fitness_mod, "time_execution", unstartable)
    cfg = fake_backend(tmp_path)
    cache = EvaluationCache()
    record = evaluate(PassSequence(("-sroa",)), cfg, cache)
    assert record.status is EvaluationStatus.RUN_ERROR
    assert "spawn failed" in record.diagnostics
    assert len(cache) == 0

    # no executable was indexed either: a byte-identical build is timed; its
    # IR was linked before, so it skips the linker and runs the restored file
    startable[0] = True
    record = evaluate(PassSequence(("-sroa", "-noop")), cfg, cache)
    assert record.status is EvaluationStatus.OK
    assert len(record.samples) == cfg.runs_per_eval
    assert stages == ["front", "opt", "link", "run", "front", "opt", "run", "run"]
    assert outputs == ["passes: -sroa\n"] * cfg.runs_per_eval


_STAGE_NAMES = {"front": "front-end", "opt": "optimizer", "link": "linker", "run": "run"}
_OUTCOMES = {
    "timeout": RunResult(0.1, None, True, "slow"),
    "spawn": RunResult(0.0, None, False, "spawn failed: x"),
    "exit3": RunResult(0.0, 3, False, "boom"),
}


@pytest.mark.parametrize("outcome", sorted(_OUTCOMES))
@pytest.mark.parametrize("stage", sorted(_STAGE_NAMES))
def test_failure_triage_table(tmp_path, monkeypatch, stage, outcome):
    """Every stage x outcome: the exact status, diagnostics and caching."""
    real = fitness_mod.time_execution
    runs = []

    def inject(argv, timeout):
        is_run = argv[0].endswith("program.bin")
        if is_run:
            runs.append(argv[0])
        if ("run" if is_run else argv[2]) == stage:
            return _OUTCOMES[outcome]
        return real(argv, timeout)

    monkeypatch.setattr(fitness_mod, "time_execution", inject)
    cfg = fake_backend(tmp_path, runs_per_eval=3)
    cache = EvaluationCache()
    record = evaluate(PassSequence(("-sroa",)), cfg, cache)

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
    assert len(cache) == (0 if outcome == "spawn" else 1)
    assert len(runs) == (1 if stage == "run" else 0)

    if stage == "run":
        # a byte-identical twin reuses the failed timing, unless nothing started
        twin = evaluate(PassSequence(("-sroa", "-noop")), cfg, cache)
        assert (twin.status, twin.diagnostics) == expected
        assert len(runs) == (2 if outcome == "spawn" else 1)
        assert len(cache) == (0 if outcome == "spawn" else 2)


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


def _fake_stages(calls) -> list[str]:
    """Each recorded fake-toolchain call as front, opt, link or run."""
    return ["run" if argv[0].endswith("program.bin") else argv[2] for argv in calls]


def test_identical_ir_is_linked_once(tmp_path, tool_calls):
    cfg = fake_backend(tmp_path, runs_per_eval=2)
    cache = EvaluationCache()
    first = evaluate(PassSequence(("-sroa",)), cfg, cache)
    second = evaluate(PassSequence(("-noop", "-sroa")), cfg, cache)
    assert _fake_stages(tool_calls) == ["front", "opt", "link", "run", "run", "front", "opt"]
    assert (second.status, second.mean) == (EvaluationStatus.OK, first.mean)

    # another IR links, and so does every build with a fresh cache
    evaluate(PassSequence(("-sroa", "-gvn")), cfg, cache)
    evaluate(PassSequence(("-noop", "-sroa")), cfg, EvaluationCache())
    assert _fake_stages(tool_calls).count("link") == 3


@pytest.mark.parametrize("placeholder", ["{passes}", "--with={passes_csv}"])
@pytest.mark.parametrize("key", ["compiler_front_command", "linker_command"])
def test_only_the_optimizer_takes_the_candidate(tmp_path, capsys, key, placeholder):
    """A front end or linker that took the pass list would make the optimized IR
    not decide the executable; it is refused at load, before anything is written."""
    name = placeholder[placeholder.index("{"):]
    with pytest.raises(ValueError, match=f"^{key} cannot take {re.escape(name)};"):
        fake_backend(tmp_path, **{key: f"{getattr(fake_backend(tmp_path), key)} {placeholder}"})
    code, err, wrote = evolve_with_template(tmp_path, capsys, key, lambda template: f"{template} {placeholder}")
    assert (code, wrote) == (2, False)
    assert err.startswith(f"error: {key} cannot take {name};")


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
    with pytest.raises(ValueError, match=f"^{key} must take {re.escape(names)}$"):
        fake_backend(tmp_path, **{key: edit(getattr(fake_backend(tmp_path), key))})
    code, err, wrote = evolve_with_template(tmp_path, capsys, key, edit)
    assert (code, wrote) == (2, False)
    assert err == f"error: {key} must take {names}\n"


def test_front_end_and_optimizer_input_are_not_required(tmp_path):
    """A no-op front end beside an optimizer that reads a fixed file builds; a simulated config needs no template."""
    fixed = tmp_path / "fixed.ir"
    fixed.write_text("ok\n")
    cfg = fake_backend(tmp_path, compiler_front_command="true",
                       optimizer_command=f"{sys.executable} {FAKE_TOOL} opt {fixed} {{output}} {{passes}}")
    record = evaluate(PassSequence(("-sroa",)), cfg, EvaluationCache())
    assert record.status is EvaluationStatus.OK, record.diagnostics
    assert fitness_mod.BackendConfig(optimizer_command="opt {ir}").kind == "simulated"


@pytest.mark.parametrize("outcome", sorted(_OUTCOMES))
def test_failed_link_is_never_stored(tmp_path, monkeypatch, outcome):
    """A link that fails, even after writing its output, is run again for the same IR."""
    real = fitness_mod.time_execution
    links = []

    def inject(argv, timeout):
        result = real(argv, timeout)
        if not argv[0].endswith("program.bin") and argv[2] == "link":
            links.append(argv)
            return _OUTCOMES[outcome]
        return result

    monkeypatch.setattr(fitness_mod, "time_execution", inject)
    cfg = fake_backend(tmp_path)
    cache = EvaluationCache()
    first = evaluate(PassSequence(("-sroa",)), cfg, cache)
    twin = evaluate(PassSequence(("-sroa", "-noop")), cfg, cache)
    assert len(links) == 2
    assert first.status is twin.status is (
        EvaluationStatus.TIMEOUT if outcome == "timeout" else EvaluationStatus.COMPILE_ERROR)
    assert first.diagnostics == twin.diagnostics
    assert first.diagnostics.startswith("linker ")


def test_optimizer_that_writes_no_ir_is_a_compile_error(tmp_path, tool_calls):
    cfg = fake_backend(tmp_path, optimizer_command=f"{sys.executable} -c pass {{output}} {{passes}}")
    cache = EvaluationCache()
    record = evaluate(PassSequence(("-sroa",)), cfg, cache)
    assert record.status is EvaluationStatus.COMPILE_ERROR
    assert record.diagnostics == "optimizer exited 0 but wrote no program.opt.ir"
    assert cache.get(record.sequence_digest) == record
    assert len(tool_calls) == 2 and "link" not in _fake_stages(tool_calls)


def test_linker_that_writes_no_executable_is_a_compile_error(tmp_path):
    cfg = fake_backend(tmp_path, linker_command=f"{sys.executable} -c pass {{ir}} {{output}}")
    cache = EvaluationCache()
    record = evaluate(PassSequence(("-sroa",)), cfg, cache)
    assert record.status is EvaluationStatus.COMPILE_ERROR
    assert record.diagnostics == "linker exited 0 but wrote no program.bin"
    assert cache.get(record.sequence_digest) == record


def test_evaluate_rejects_simulated_config():
    with pytest.raises(ValueError, match=r"experiment\.build_records_fn"):
        evaluate(PassSequence(()), fitness_mod.BackendConfig(kind="simulated"), EvaluationCache())


def test_program_receives_passes_through_pipeline(tmp_path):
    # the fake linker embeds the optimizer's pass list in the program output
    cfg = fake_backend(tmp_path, behavior="ok", runs_per_eval=1)
    build_dir = tmp_path / "build"
    build_dir.mkdir()
    exe = fitness_mod.build_executable(PassSequence(("-sroa", "-gvn")), cfg, build_dir, EvaluationCache())
    result = time_execution([str(exe)], timeout=10.0)
    assert result.returncode == 0
    assert "passes: -sroa -gvn" in result.output


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
    catalog_path, baseline_path, _, _ = write_test_inputs(tmp_path, 6, 3)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "eval_cache.jsonl").write_text(
        _cache_line("ab", 1.5).replace('"ok"', '"okay"') + _cache_line("cd", 2.5), "utf-8"
    )
    # the rejected resume keeps the previous run's provenance
    provenance = b"[experiment]\ntrials = 3\n"
    (out_dir / "effective_config.ini").write_bytes(provenance)
    config = tmp_path / "ext.ini"
    config.write_text(external_config_text(tmp_path, catalog_path, baseline_path, out_dir))
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

def test_llvm14_identical_binaries_timed_once(tmp_path, tool_calls):
    _llvm14_builds_link_once(tmp_path, tool_calls, 'source_filename = "main.ll"\n\n')


def test_llvm14_ir_without_source_filename_links_once(tmp_path, tool_calls):
    """opt then names each build's own input path in source_filename, which the IR key leaves out."""
    _llvm14_builds_link_once(tmp_path, tool_calls, "")


def _llvm14_builds_link_once(tmp_path, tool_calls, header: str) -> None:
    import shutil

    if not all(shutil.which(tool) for tool in ("opt", "llc", "gcc")):
        pytest.skip("needs opt, llc and gcc on PATH")
    source = tmp_path / "main.ll"
    source.write_text(header + "define i32 @main() {\n  ret i32 0\n}\n", "utf-8")
    cfg = fitness_mod.BackendConfig(
        kind="external_compiler",
        source_path=str(source),
        compiler_front_command="cp {source} {ir}",
        optimizer_command="opt -S -enable-new-pm=0 {passes} {ir} -o {output}",
        linker_command="""sh -c 'llc -O2 "$0" -o "$1.s" && gcc -no-pie "$1.s" -o "$1"' {ir} {output}""",
        runs_per_eval=3,
        workdir=str(tmp_path / "build"),
    )

    def links_and_runs():
        return (sum(argv[0] == "sh" for argv in tool_calls),
                sum(argv[0].endswith("program.bin") for argv in tool_calls))

    cache = EvaluationCache()
    first = evaluate(PassSequence(("-sroa",)), cfg, cache)
    assert first.status is EvaluationStatus.OK, first.diagnostics
    assert links_and_runs() == (1, 3)
    # -verify changes no code; each build has its own directory, so the optimized
    # IR differs only in the path opt writes into '; ModuleID' (and source_filename)
    second = evaluate(PassSequence(("-sroa", "-verify")), cfg, cache)
    assert second.status is EvaluationStatus.OK, second.diagnostics
    assert links_and_runs() == (1, 3)
    assert second.mean == first.mean
    # -instnamer names the entry block: other IR, byte-identical executable
    third = evaluate(PassSequence(("-instnamer",)), cfg, cache)
    assert third.status is EvaluationStatus.OK, third.diagnostics
    assert links_and_runs() == (2, 3)
    assert third.mean == first.mean
