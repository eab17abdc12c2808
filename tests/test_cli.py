import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import passevo
from passevo.cli import main
from passevo.catalog import serialize_sequence

from conftest import assert_rejected, config_file, write_test_inputs


# --- evolve ------------------------------------------------------------------

def test_evolve_simulated_exit_zero_and_summary(tmp_path, capsys):
    config = config_file(tmp_path)
    assert main(["evolve", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    assert "mean improvement" in captured.out
    assert (tmp_path / "out" / "summary.json").is_file()


def test_evolve_missing_catalog_exit_two(tmp_path, capsys):
    config = config_file(tmp_path)
    text = config.read_text().replace(str(tmp_path / "catalog.txt"), "/missing/cat.txt")
    config.write_text(text)
    assert main(["evolve", "--config", str(config)]) == 2
    assert "/missing/cat.txt" in capsys.readouterr().err


def test_evolve_missing_config_exit_two(tmp_path, capsys):
    assert main(["evolve", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "nope.ini" in capsys.readouterr().err


def test_evolve_flag_overrides_beat_config(tmp_path, capsys):
    config = config_file(tmp_path, trials=3, rng_seed=42)
    out_dir = tmp_path / "out"
    assert main(["evolve", "--config", str(config), "--trials", "1", "--seed", "7"]) == 0
    doc = json.loads((out_dir / "summary.json").read_text())
    assert len(doc["trials"]) == 1
    assert doc["trials"][0]["seed"] == 7
    effective = (out_dir / "effective_config.ini").read_text()
    assert "trials = 1" in effective
    assert "rng_seed = 7" in effective

    # --seed or --trials supersedes the file's seeds list: seeds count up from rng_seed
    listed = config_file(tmp_path / "listed", trials=3, seeds=(5, 6, 8), generations=2)
    out_dir = tmp_path / "listed" / "out"
    for flags, seeds in ((["--seed", "9"], [9, 10, 11]), (["--trials", "1", "--seed", "7"], [7])):
        assert main(["evolve", "--config", str(listed), *flags]) == 0
        doc = json.loads((out_dir / "summary.json").read_text())
        assert [t["seed"] for t in doc["trials"]] == seeds
        assert "seeds" not in (out_dir / "effective_config.ini").read_text()


def test_evolve_output_dir_override(tmp_path):
    config = config_file(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["evolve", "--config", str(config), "--output-dir", str(other)]) == 0
    assert (other / "summary.json").is_file()


def test_empty_output_dir_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch):
    config = config_file(tmp_path)
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(["evolve", "--config", str(config), "--trials", "1", "--output-dir", ""]) == 2
    assert "output_dir must not be empty" in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize(
    "out_name, entry, kind",
    [
        pytest.param("blocker", None, "file", id="blocker"),
        pytest.param("blocker/sub", None, "file", id="blocker/sub"),
        pytest.param("out", "trial_0", "file", id="trial-is-a-file"),
        pytest.param("out", "summary.json", "dir", id="summary-is-a-dir"),
        # the cache is read and appended to by the external backend only
        pytest.param("out", "eval_cache.jsonl", "dir", id="cache-is-a-dir"),
        pytest.param("out", "eval_cache.jsonl", "dangling", id="cache-append-fails"),
    ],
)
def test_unusable_output_dir_exit_two(tmp_path, capsys, out_name, entry, kind):
    out_dir = tmp_path / out_name
    if entry is None:
        blocked = tmp_path / "blocker"
    else:
        out_dir.mkdir()
        blocked = out_dir / entry
    if kind == "file":
        blocked.write_text("not a directory\n")
    elif kind == "dir":
        blocked.mkdir()
    else:
        blocked.symlink_to(tmp_path / "missing" / entry)
    if entry == "eval_cache.jsonl":
        config = config_file(tmp_path, fake_toolchain="ok")
        command = "evolve"
    else:
        config = config_file(tmp_path)
        command = "simulate"
    argv = [command, "--config", str(config), "--trials", "1", "--output-dir", str(out_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"cannot write output directory {out_dir}: " in err
    assert str(blocked) in err
    if kind == "file":
        assert blocked.read_text() == "not a directory\n"


def test_evolve_verbose_generation_lines(tmp_path, capsys):
    config = config_file(tmp_path, trials=1, generations=3)
    assert main(["evolve", "--config", str(config), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "trial 0 gen 0:" in out
    assert "trial 0 gen 2:" in out


def test_closed_stdout_exits_one_without_traceback(tmp_path):
    # about 180 kB of generation lines, more than the pipe and both buffers
    # hold, so the run is still printing when the reader goes away
    config = config_file(tmp_path, trials=1, population_size=4, generations=4000)
    src = str(Path(passevo.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen(
        [sys.executable, "-m", "passevo.cli", "evolve", "--config", str(config), "--verbose"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    try:
        assert proc.stdout.readline().startswith("trial 0 gen 0: ")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 1, err
    for text in ("Traceback", "cannot write output directory", "Exception ignored"):
        assert text not in err


def test_history_csv_schema_and_rederived_monotonicity(tmp_path):
    config = config_file(tmp_path, trials=2, generations=8, elitism_count=1)
    assert main(["evolve", "--config", str(config)]) == 0
    for i in range(2):
        lines = (tmp_path / "out" / f"trial_{i}" / "history.csv").read_text().splitlines()
        assert lines[0] == "generation,best_fitness,mean_fitness"
        assert len(lines) == 1 + 8
        bests = []
        for generation, row in enumerate(lines[1:]):
            fields = row.split(",")
            assert int(fields[0]) == generation
            best, mean = float(fields[1]), float(fields[2])
            assert mean >= best
            bests.append(best)
        # the elite carries each generation's best into the next
        assert all(b <= a for a, b in zip(bests, bests[1:]))


# --- simulate ----------------------------------------------------------------

def test_simulate_forces_simulated_backend(tmp_path):
    config = config_file(tmp_path, fake_toolchain="exit1", inputs=(16, 10))
    # the external backend would fail at the baseline; simulate never touches it
    assert main(["simulate", "--config", str(config)]) == 0
    effective = (tmp_path / "out" / "effective_config.ini").read_text()
    assert "kind = simulated" in effective


def test_simulate_one_pass_catalog_target(tmp_path):
    # random draws rarely land 6 edits from "-a -a" over a one-pass catalog
    config = config_file(tmp_path, trials=1, sim_target_edits=6)
    (tmp_path / "catalog.txt").write_text("-a\n")
    (tmp_path / "baseline.txt").write_text("-a\n-a\n")
    assert main(["simulate", "--config", str(config)]) == 0


# --- apply -------------------------------------------------------------------

def apply_argv(tmp_path, patch_text: str) -> list[str]:
    """`passevo apply` of patch_text, written to a file, to the catalog and baseline under tmp_path."""
    patch = tmp_path / "ind.patch"
    patch.write_text(patch_text)
    return ["apply", "--baseline", str(tmp_path / "baseline.txt"), "--individual", str(patch),
            "--catalog", str(tmp_path / "catalog.txt")]


def test_apply_three_patch_figure(tmp_path, capsys):
    write_test_inputs(tmp_path, 8, 5)
    assert main(apply_argv(tmp_path, "insert 0.0 -p7\ndelete 1.0\nreplace 0.5 -p6\n")) == 0
    out_lines = capsys.readouterr().out.splitlines()
    # insert grows to 6, delete shrinks to 5, replace keeps 5
    assert len(out_lines) == 5
    assert out_lines[0] == "-p7"
    assert "-p6" in out_lines


def test_apply_empty_individual_echoes_baseline(tmp_path, capsys):
    _, _, _, baseline = write_test_inputs(tmp_path, 8, 5)
    assert main(apply_argv(tmp_path, "")) == 0
    assert capsys.readouterr().out == serialize_sequence(baseline)


def test_apply_unknown_pass_exit_two(tmp_path, capsys):
    write_test_inputs(tmp_path, 8, 5)
    assert main(apply_argv(tmp_path, "insert 0.5 -nosuchpass\n")) == 2
    assert "-nosuchpass" in capsys.readouterr().err


# --- baseline ----------------------------------------------------------------

def test_baseline_simulated_prints_base_runtime(tmp_path, capsys):
    config = config_file(tmp_path, sim_target_edits=0, sim_base_runtime=1.5)
    assert main(["baseline", "--config", str(config)]) == 0
    assert "1.500000" in capsys.readouterr().out


def test_baseline_external_fake_toolchain(tmp_path, capsys):
    config = config_file(tmp_path, fake_toolchain="ok")
    assert main(["baseline", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "baseline mean runtime" in out
    assert "over 2 run(s)" in out


def test_baseline_timeout_exit_one(tmp_path, capsys):
    config = config_file(tmp_path, fake_toolchain="spin", run_timeout=0.5)
    assert main(["baseline", "--config", str(config)]) == 1
    assert "timeout" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evolve", "baseline"])
def test_unusable_workdir_exit_two(tmp_path, capsys, command):
    (tmp_path / "blocker").write_text("not a directory\n")
    workdir = tmp_path / "blocker" / "sub"
    config = config_file(tmp_path, fake_toolchain="ok", workdir=str(workdir))
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create a build directory")
    assert str(workdir) in err


@pytest.mark.parametrize("command", ["evolve", "baseline"])
@pytest.mark.parametrize("key", ["compiler_front_command", "optimizer_command", "linker_command"])
def test_unbalanced_quote_in_a_template_exits_two_before_any_output(tmp_path, capsys, key, command):
    config = config_file(tmp_path, fake_toolchain="ok")
    config.write_text(config.read_text().replace(f"{key} = ", f"{key} = 'unclosed ", 1))
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {key}: No closing quotation\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["optimizer_command", "linker_command"])
def test_source_outside_the_front_end_exits_two(tmp_path, capsys, key):
    assert_rejected(tmp_path, capsys, key, lambda template: f"{template} {{source}}",
                    "^" + re.escape(f"{key} cannot take {{source}}; it takes {{ir}}, {{output}}"))


def test_output_in_the_front_end_exits_two(tmp_path, capsys):
    key = "compiler_front_command"
    assert_rejected(tmp_path, capsys, key, lambda template: f"{template} -o {{output}}",
                    "^" + re.escape(f"{key} cannot take {{output}}; it takes {{source}}, {{ir}}") + "$")


@pytest.mark.parametrize("argument", ["-passes={passes}", "'{passes} -gvn'", "{passes}{passes}"])
def test_passes_inside_an_argument_exits_two(tmp_path, capsys, argument):
    key = "optimizer_command"
    assert_rejected(tmp_path, capsys, key, lambda template: template.replace("{passes}", argument),
                    "^" + re.escape(f"{key}: {{passes}} must be a whole argument; use {{passes_csv}} in one") + "$")


def test_all_trials_failed_exit_one(tmp_path, capsys):
    # the fake optimizer rejects '-broken' and the baseline is empty, so a
    # candidate builds only if its deletes undo all its inserts; no 8-gene
    # genome that seeds 1 and 2 draw does
    config = config_file(
        tmp_path, fake_toolchain="ok", runs_per_eval=1, trials=2, generations=1, population_size=1,
        elitism_count=0, init_genome_len_min=8, init_genome_len_max=8,
    )
    (tmp_path / "catalog.txt").write_text("-broken\n")
    (tmp_path / "baseline.txt").write_text("")
    assert main(["evolve", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "trial 0 (seed 1): FAILED: no candidate produced a finite fitness",
        "trial 1 (seed 2): FAILED: no candidate produced a finite fitness",
    ]
    assert captured.err == "warning: 2 of 2 trials failed\nall trials failed\n"
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert doc["summary"] is None
    assert [t["status"] for t in doc["trials"]] == ["failed", "failed"]


# --- stats -------------------------------------------------------------------

def test_stats_eight_reported_values(tmp_path, capsys):
    spread = 0.8768 * math.sqrt(7 / 8)
    values = [3.7 - spread] * 4 + [3.7 + spread] * 4
    data = tmp_path / "improvements.txt"
    data.write_text("\n".join(repr(v) for v in values) + "\n")
    assert main(["stats", str(data)]) == 0
    out = capsys.readouterr().out
    assert "n = 8" in out
    assert "t = 11.9357" in out
    assert "p = 3.29594e-06" in out


def test_stats_on_summary_json(tmp_path, capsys):
    config = config_file(tmp_path, trials=3)
    assert main(["evolve", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["stats", str(tmp_path / "out" / "summary.json")]) == 0
    assert "n = 3" in capsys.readouterr().out


def test_stats_degenerate_exit_one(tmp_path, capsys):
    data = tmp_path / "flat.txt"
    data.write_text("2.0\n2.0\n")
    assert main(["stats", str(data)]) == 1

    single = tmp_path / "one.txt"
    single.write_text("3.7\n")
    assert main(["stats", str(single)]) == 1


def test_stats_malformed_exit_two(tmp_path, capsys):
    data = tmp_path / "junk.txt"
    data.write_text("not numbers here\n")
    assert main(["stats", str(data)]) == 2

    ok_row = '{"status": "ok", "percent_improvement": 1.0}'
    summary = '{"trials": [{"status": "ok", "percent_improvement": %s}, {"status": "ok", "percent_improvement": %s}]}'
    for text in (
        '{"trials": [1, 2]}',
        '{"trials": [{"status": "ok", "percent_improvement": NaN}, %s]}' % ok_row,
        '{"trials": [{"status": "ok", "percent_improvement": Infinity}, %s]}' % ok_row,
        "nan 1 2\n",
        # finite values whose sum (1e308 and 1.5e308) or spread (1.7e308 and -1.7e308) is beyond a float
        "1e308\n1.5e308\n",
        "1.7e308\n-1.7e308\n",
        summary % ("1e308", "1.5e308"),
        summary % ("1.7e308", "-1.7e308"),
    ):
        data.write_text(text)
        assert main(["stats", str(data)]) == 2, text
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("rows", [
    ('{"status": "ok", "percent_improvement": true}', '{"status": "ok", "percent_improvement": "5"}'),
    ('{"status": "ok", "percent_improvement": false}', '{"status": "ok", "percent_improvement": 1.0}'),
    ('{"status": "ok", "percent_improvement": 1%s}' % ("0" * 400), '{"status": "ok", "percent_improvement": 1.0}'),
], ids=["true-and-string", "false", "int-beyond-float"])
def test_stats_non_numeric_summary_exit_two(tmp_path, capsys, rows):
    data = tmp_path / "summary.json"
    data.write_text('{"trials": [%s, %s]}' % rows)
    assert main(["stats", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unrecognized summary document: ")


# --- input files -------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["evolve", "--config", "{blob}"],
    ["apply", "--catalog", "{blob}", "--baseline", "{baseline}", "--individual", "{patch}"],
    ["apply", "--catalog", "{catalog}", "--baseline", "{blob}", "--individual", "{patch}"],
    ["apply", "--catalog", "{catalog}", "--baseline", "{baseline}", "--individual", "{blob}"],
    ["stats", "{blob}"],
], ids=["evolve-config", "apply-catalog", "apply-baseline", "apply-individual", "stats"])
def test_undecodable_input_exit_two(tmp_path, capsys, argv):
    write_test_inputs(tmp_path, 8, 5)
    patch = tmp_path / "ind.patch"
    patch.write_text("delete 0.5\n")
    blob = tmp_path / "blob.bin"
    blob.write_bytes(bytes(range(256)) + bytes(range(44)))  # 300 bytes, not UTF-8
    paths = {"blob": blob, "catalog": tmp_path / "catalog.txt",
             "baseline": tmp_path / "baseline.txt", "patch": patch}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert str(blob) in capsys.readouterr().err


# --- the shipped LLVM 14 experiment -----------------------------------------------

def test_llvm14_config_runs_at_toy_size(tmp_path, capsys, monkeypatch):
    import shutil

    if not all(shutil.which(tool) for tool in ("opt", "llc", "gcc")):
        pytest.skip("needs opt, llc and gcc on PATH")
    if "LLVM version 14." not in subprocess.run(["opt", "--version"], capture_output=True, text=True).stdout:
        pytest.skip("needs LLVM 14 opt")
    repo = Path(__file__).resolve().parent.parent
    text = (repo / "configs" / "llvm14.ini").read_text("utf-8")
    for paper, toy in (("generations = 25", "generations = 2"), ("population_size = 30", "population_size = 6"),
                       ("runs_per_eval = 10", "runs_per_eval = 2")):
        assert text.count(paper) == 1, paper
        text = text.replace(paper, toy)
    config = tmp_path / "llvm14.ini"
    config.write_text(text, "utf-8")
    out_dir = tmp_path / "out"
    monkeypatch.chdir(repo)
    assert main(["evolve", "--config", str(config), "--trials", "2", "--output-dir", str(out_dir)]) == 0
    assert "completed trials: 2/2" in capsys.readouterr().out
    trials = json.loads((out_dir / "summary.json").read_text("utf-8"))["trials"]
    assert [(t["trial_index"], t["status"]) for t in trials] == [(0, "ok"), (1, "ok")]
    rows = [json.loads(line) for line in (out_dir / "eval_cache.jsonl").read_text("utf-8").splitlines()]
    assert rows and all(row["status"] == "ok" and row["exe"] for row in rows)
