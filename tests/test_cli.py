"""Command-line flows: exit codes, produced files, manifests, and reruns."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from faircf.cli import main
from faircf.data import read_ratings
from faircf.fairness import PENALTY_KINDS
from faircf.model import load_params
from conftest import subprocess_env


def run_ok(argv):
    assert main(argv) == 0


def read_manifest(directory):
    return json.loads((directory / "manifest.json").read_text(encoding="utf-8"))


def make_dataset(tmp_path, name="data", extra=()):
    out = tmp_path / name
    run_ok(["generate", "--scenario", "P+O", "--users", "20", "--items", "15",
            "--seed", "3", "--out", str(out), *extra])
    return out


@pytest.mark.parametrize("command", ["generate", "train", "evaluate", "experiment",
                                     "prepare-movielens", "rerun"])
def test_help_shows_no_unset_default(command, capsys):
    """A parameter whose default is None, "unset", shows no default of its
    own; its help text says what happens when it is left out, once."""
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "default: None" not in text
    assert ") (default" not in text


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main([])                                    # subcommand required: argparse's own error
    assert info.value.code == 2
    assert main(["generate", "--scenario", "Z", "--out", str(tmp_path)]) == 2
    assert "error: --scenario: invalid choice 'Z' (choose from " in capsys.readouterr().err
    assert main(["train", "--data", str(tmp_path), "--out", str(tmp_path),
                 "--seed", "abc"]) == 2              # type failure
    assert capsys.readouterr().err == "faircf train: error: --seed: expected int, got 'abc'\n"
    assert main(["generate", "--scenario", "U"]) == 2          # --out missing
    assert main(["generate", "--out", str(tmp_path)]) == 2     # neither source
    spec = tmp_path / "spec.json"
    spec.write_text("{}", encoding="utf-8")
    assert main(["generate", "--scenario", "U", "--spec", str(spec),
                 "--out", str(tmp_path)]) == 2                  # both sources
    assert main(["experiment", "--scenario", "movielens",
                 "--out", str(tmp_path)]) == 2                  # no --ml-dir


def test_a_bad_test_fraction_exits_2_before_the_archive_is_read(tmp_path, capsys):
    assert main(["experiment", "--scenario", "movielens", "--ml-dir", str(tmp_path / "nowhere"),
                 "--test-fraction", "1.5", "--out", str(tmp_path / "out")]) == 2
    assert ("faircf experiment: error: --test-fraction: test_fraction must lie strictly "
            "between 0 and 1\n" == capsys.readouterr().err)


def test_data_errors_exit_1(tmp_path):
    assert main(["train", "--data", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "model")]) == 1
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["generate", "--scenario", "U", "--out", str(tmp_path / "x"),
                 "--config", str(bad)]) == 1


def test_a_failed_command_leaves_no_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--data", "nowhere", "--out", "runx"]) == 1
    assert not (tmp_path / "runx").exists()


def test_an_out_under_a_regular_file_exits_1_naming_it(tmp_path, capsys):
    (tmp_path / "plain").write_text("", encoding="utf-8")
    out = tmp_path / "plain" / "run"
    assert main(["generate", "--scenario", "U", "--users", "6", "--items", "5",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out) in err and "Traceback" not in err


def test_generate_writes_dataset_and_manifest(tmp_path):
    out = make_dataset(tmp_path)
    for name in ("ratings.tsv", "groups.tsv", "expected.tsv", "manifest.json"):
        assert (out / name).is_file()
    doc = read_manifest(out)
    assert doc["tool"] == "faircf" and doc["command"] == "generate"
    assert doc["params"]["scenario"] == "P+O" and doc["params"]["seed"] == 3
    assert doc["outputs"] == ["expected.tsv", "groups.tsv", "ratings.tsv"]
    assert doc["dataset"]["num_users"] == 20
    assert doc["wall_clock_seconds"] >= 0.0
    ratings = read_ratings(out / "ratings.tsv")
    expected = read_ratings(out / "expected.tsv")
    assert len(ratings) + len(expected) == 20 * 15


def test_generate_from_spec_file(tmp_path):
    from faircf.synthetic import builtin_specs, spec_to_json
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_to_json(builtin_specs(num_users=12, num_items=9,
                                                    seed=5)["P"]),
                         encoding="utf-8")
    out = tmp_path / "from-spec"
    run_ok(["generate", "--spec", str(spec_path), "--out", str(out)])
    assert read_manifest(out)["dataset"]["num_users"] == 12     # spec dims win
    override = tmp_path / "override"
    run_ok(["generate", "--spec", str(spec_path), "--users", "8",
            "--out", str(override)])
    assert read_manifest(override)["dataset"]["num_users"] == 8


def test_train_evaluate_flow(tmp_path):
    data = make_dataset(tmp_path)
    model_dir = tmp_path / "model"
    run_ok(["train", "--data", str(data), "--iterations", "40",
            "--penalty", "value", "--out", str(model_dir)])
    assert (model_dir / "model.txt").is_file()
    trace = (model_dir / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert trace[0] == "iteration,objective,penalty" and len(trace) == 41
    params = load_params(model_dir / "model.txt")
    assert params.num_users == 20 and params.num_items == 15

    report_dir = tmp_path / "report"
    run_ok(["evaluate", "--model", str(model_dir / "model.txt"),
            "--data", str(data), "--out", str(report_dir)])
    lines = (report_dir / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "error,value,absolute,under,over,nonparity"
    assert len([float(x) for x in lines[1].split(",")]) == 6


def test_experiment_flow(tmp_path):
    out = tmp_path / "exp"
    run_ok(["experiment", "--scenario", "synthetic_U", "--trials", "2",
            "--users", "20", "--items", "15", "--iterations", "25",
            "--penalties", "none,value", "--out", str(out)])
    for name in ("results.csv", "table.txt", "table.csv", "summary.json",
                 "manifest.json"):
        assert (out / name).is_file()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["penalties"] == ["none", "value"] and summary["trials"] == 2
    rows = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + 2 * 2 * 6


def test_prepare_movielens_flow(tmp_path, mini_ml_dir):
    out = tmp_path / "prep"
    run_ok(["prepare-movielens", "--ml-dir", str(mini_ml_dir),
            "--min-ratings", "2", "--out", str(out)])
    for name in ("ratings.tsv", "groups.tsv", "user_map.tsv", "movie_map.tsv",
                 "genre_stats.csv", "genre_stats.txt"):
        assert (out / name).is_file()
    doc = read_manifest(out)
    assert doc["dataset"]["num_users"] == 4 and doc["dataset"]["num_items"] == 4
    assert (out / "user_map.tsv").read_text(encoding="utf-8").splitlines()[0] == "0\t1"

    # the prepared directory feeds train directly, dims come from the manifest
    model_dir = tmp_path / "ml-model"
    run_ok(["train", "--data", str(out), "--iterations", "10",
            "--out", str(model_dir)])
    assert load_params(model_dir / "model.txt").num_items == 4


def test_a_manifest_lists_exactly_the_files_beside_it(tmp_path, mini_ml_dir):
    """Every command's manifest names, as ``outputs``, the files its run
    wrote into ``out``: no more and no fewer."""
    data = make_dataset(tmp_path)
    sweep = ["--users", "12", "--items", "9", "--trials", "2", "--iterations", "3"]
    runs = {
        "train": ["train", "--data", str(data), "--iterations", "3"],
        "evaluate": ["evaluate", "--model", str(tmp_path / "train" / "model.txt"),
                     "--data", str(data)],
        "synthetic": ["experiment", "--scenario", "synthetic_PO", *sweep],
        "fig1": ["experiment", "--scenario", "fig1", *sweep],
        "prepare": ["prepare-movielens", "--ml-dir", str(mini_ml_dir), "--min-ratings", "2"],
    }
    for name, argv in runs.items():
        run_ok(argv + ["--out", str(tmp_path / name)])
    for out in [data] + [tmp_path / name for name in runs]:
        written = sorted(path.name for path in out.iterdir() if path.name != "manifest.json")
        assert read_manifest(out)["outputs"] == written


def test_rerun_reproduces_bytes(tmp_path, monkeypatch):
    data = make_dataset(tmp_path)
    model_dir = tmp_path / "model"
    run_ok(["train", "--data", str(data), "--iterations", "30",
            "--out", str(model_dir)])
    before = {name: (model_dir / name).read_bytes()
              for name in ("model.txt", "trace.csv")}
    monkeypatch.setenv("FAIRCF_ITERATIONS", "5")    # recorded params win
    redo = tmp_path / "redo"
    run_ok(["rerun", str(model_dir / "manifest.json"), "--out", str(redo)])
    for name, blob in before.items():
        assert (redo / name).read_bytes() == blob
    # in-place rerun rewrites identical bytes too
    run_ok(["rerun", str(model_dir / "manifest.json")])
    for name, blob in before.items():
        assert (model_dir / name).read_bytes() == blob


def test_rerun_drops_adams_constants_at_their_old_values(tmp_path, capsys):
    """Up to 0.2.0 every train manifest recorded beta1, beta2 and epsilon;
    at those values a rerun drops them, any other value is a fault."""
    data = make_dataset(tmp_path)
    model_dir = tmp_path / "model"
    run_ok(["train", "--data", str(data), "--penalty", "value", "--iterations", "20",
            "--out", str(model_dir)])
    manifest = model_dir / "manifest.json"
    doc = read_manifest(model_dir)
    assert doc["params"]["dim"] == 2
    doc["params"].update(beta1=0.9, beta2=0.999, epsilon=1e-08)
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    redo = tmp_path / "redo"
    run_ok(["rerun", str(manifest), "--out", str(redo)])
    for name in ("model.txt", "trace.csv"):
        assert (redo / name).read_bytes() == (model_dir / name).read_bytes()
    doc["params"]["beta1"] = 0.8
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["rerun", str(manifest), "--out", str(redo)]) == 1
    assert "unknown parameter 'beta1' for 'train'" in capsys.readouterr().err
    config = tmp_path / "config.json"                   # a config file gets no such allowance
    config.write_text(json.dumps({"beta1": 0.9}), encoding="utf-8")
    assert main(["train", "--data", str(data), "--out", str(redo), "--config", str(config)]) == 2
    assert "unknown parameter 'beta1' for 'train'" in capsys.readouterr().err


def test_rerun_detects_changed_inputs(tmp_path):
    data = make_dataset(tmp_path)
    model_dir = tmp_path / "model"
    run_ok(["train", "--data", str(data), "--iterations", "10",
            "--out", str(model_dir)])
    with (data / "ratings.tsv").open("a", encoding="utf-8") as fh:
        fh.write("0\t1\t1.0\n")
    assert main(["rerun", str(model_dir / "manifest.json"),
                 "--out", str(tmp_path / "redo")]) == 1


def test_rerun_refuses_a_changed_dataset_manifest(tmp_path, capsys):
    """train takes its grid from <data>/manifest.json, so it records that file
    among its inputs and a rerun checks it."""
    data = make_dataset(tmp_path)
    model_dir = tmp_path / "model"
    run_ok(["train", "--data", str(data), "--iterations", "5", "--out", str(model_dir)])
    assert sorted(read_manifest(model_dir)["input_checksums"]) == [
        str(data / name) for name in ("groups.tsv", "manifest.json", "ratings.tsv")]
    doc = read_manifest(data)
    doc["dataset"]["num_items"] = 25
    (data / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    redo = tmp_path / "redo"
    assert main(["rerun", str(model_dir / "manifest.json"), "--out", str(redo)]) == 1
    assert (f"manifest input changed since the recorded run: {data / 'manifest.json'}"
            in capsys.readouterr().err)
    assert not redo.exists()


def test_rerun_refuses_a_manifest_whose_data_names_another_set(tmp_path, capsys):
    """Each recorded input must be among the files the repeated command
    reads: a manifest edited to name another dataset is refused, not run."""
    data, other = make_dataset(tmp_path), make_dataset(tmp_path, "other", ["--seed", "4"])
    model_dir = tmp_path / "model"
    run_ok(["train", "--data", str(data), "--iterations", "3", "--out", str(model_dir)])
    doc = read_manifest(model_dir)
    doc["params"]["data"] = str(other)
    manifest = tmp_path / "edited.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    redo = tmp_path / "redo"
    assert main(["rerun", str(manifest), "--out", str(redo)]) == 1
    assert (f"faircf rerun: {manifest}: manifest input not read by this run: "
            f"{data / 'groups.tsv'}\n" == capsys.readouterr().err)
    assert not redo.exists()


def test_a_train_manifest_that_records_no_dataset_manifest_reruns(tmp_path):
    """An older train manifest records ratings.tsv and groups.tsv alone, not
    the dataset manifest; a file read beyond the record is allowed."""
    data = make_dataset(tmp_path)
    model_dir = tmp_path / "model"
    run_ok(["train", "--data", str(data), "--iterations", "3", "--out", str(model_dir)])
    doc = read_manifest(model_dir)
    del doc["input_checksums"][str(data / "manifest.json")]
    (model_dir / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    redo = tmp_path / "redo"
    run_ok(["rerun", str(model_dir / "manifest.json"), "--out", str(redo)])
    for name in ("model.txt", "trace.csv"):
        assert (redo / name).read_bytes() == (model_dir / name).read_bytes()


def test_precedence_flag_over_config_over_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FAIRCF_SEED", "5")
    env_only = tmp_path / "env"
    run_ok(["generate", "--scenario", "U", "--users", "10", "--items", "8",
            "--out", str(env_only)])
    assert read_manifest(env_only)["params"]["seed"] == 5

    config = tmp_path / "config.json"
    config.write_text('{"seed": 7}', encoding="utf-8")
    with_config = tmp_path / "cfg"
    run_ok(["generate", "--scenario", "U", "--users", "10", "--items", "8",
            "--config", str(config), "--out", str(with_config)])
    assert read_manifest(with_config)["params"]["seed"] == 7

    with_flag = tmp_path / "flag"
    run_ok(["generate", "--scenario", "U", "--users", "10", "--items", "8",
            "--config", str(config), "--seed", "9", "--out", str(with_flag)])
    assert read_manifest(with_flag)["params"]["seed"] == 9

    typo = tmp_path / "typo.json"
    typo.write_text('{"seed": 7, "iteration": 3}', encoding="utf-8")
    assert main(["generate", "--scenario", "U", "--config", str(typo),
                 "--out", str(tmp_path / "typo")]) == 2
    assert f"{typo}: unknown parameter 'iteration'" in capsys.readouterr().err


# command -> the parameters it requires besides --out (a path under the test's directory)
REQUIRED = {"train": {"data": "data"}, "experiment": {"scenario": "synthetic_U"},
            "generate": {"scenario": "U"}, "prepare-movielens": {"ml-dir": "ml"}}


@pytest.mark.parametrize("origin, setting, message, command", [
    ("config", {"seed": "x"}, "{config}: seed: expected int, got 'x'", "train"),
    ("env", {"FAIRCF_SEED": "abc"}, "FAIRCF_SEED: expected int, got 'abc'", "train"),
    ("manifest", {"seed": "x"}, "{manifest}: params: seed: expected int, got 'x'", "train"),
    ("config", {"penalty": "fairest"}, "{config}: penalty: invalid choice 'fairest' (choose",
     "train"),
    ("env", {"FAIRCF_PENALTY": "fairest"}, "FAIRCF_PENALTY: invalid choice 'fairest' (choose",
     "train"),
    ("manifest", {"penalty": "fairest"}, "{manifest}: params: penalty: invalid choice 'fairest'",
     "train"),
    # An environment value is a string, never null.
    ("config", {"penalty_weight": None}, "{config}: penalty_weight: expected float, got null",
     "train"),
    ("manifest", {"penalty-weight": None},
     "{manifest}: params: penalty-weight: expected float, got null", "train"),
    # Both spellings of one parameter in one file: neither wins silently.
    ("config", {"learning-rate": 0.1, "learning_rate": 0.5},
     "{config}: 'learning-rate' and 'learning_rate' name one parameter", "train"),
    ("manifest", {"learning-rate": 0.1, "learning_rate": 0.5},
     "{manifest}: params: 'learning-rate' and 'learning_rate' name one parameter", "train"),
    # A training value out of its range.
    ("env", {"FAIRCF_LEARNING_RATE": "0e01"}, "FAIRCF_LEARNING_RATE: learning_rate must be > 0",
     "train"),
    ("config", {"dim": -2}, "{config}: dim: latent dimension must be >= 1", "train"),
    ("manifest", {"penalty-weight": -1.0},
     "{manifest}: params: penalty-weight: penalty_weight must be >= 0", "train"),
    # Any other value out of its range, checked by the class or rule that takes it.
    ("env", {"FAIRCF_TRIALS": "1"}, "FAIRCF_TRIALS: at least 2 trials are needed for standard "
     "errors", "experiment"),
    ("flag", {"jobs": "0"}, "--jobs: jobs must be >= 1", "experiment"),
    ("flag", {"test-fraction": "1.5"},
     "--test-fraction: test_fraction must lie strictly between 0 and 1", "experiment"),
    ("flag", {"users": "0"}, "--users: num_users and num_items must be positive", "experiment"),
    ("flag", {"penalties": "none,none"}, "--penalties: duplicate penalty 'none'", "experiment"),
    ("manifest", {"trials": 1},
     "{manifest}: params: trials: at least 2 trials are needed for standard errors", "experiment"),
    ("flag", {"seed": "-1"}, "--seed: seed must be non-negative", "train"),
    ("flag", {"users": "0"}, "--users: num_users and num_items must be positive", "generate"),
    ("config", {"users": 0}, "{config}: users: num_users and num_items must be positive",
     "generate"),
    ("flag", {"min-ratings": "0"}, "--min-ratings: min_ratings must be >= 1", "prepare-movielens"),
    ("flag", {"genres": " , "}, "--genres: at least one genre is required", "prepare-movielens"),
])
def test_a_bad_value_names_where_it_came_from(tmp_path, monkeypatch, capsys, origin, setting,
                                              message, command):
    """A bad value is refused before the command reads any input (none of
    those named here exists), naming where it came from; a flag, config file
    or environment value exits 2, a manifest's exits 1."""
    config, manifest = tmp_path / "t.json", tmp_path / "manifest.json"
    params = {**REQUIRED[command], "out": "out"}
    params = {name: str(tmp_path / value) if name in ("data", "ml-dir", "out") else value
              for name, value in params.items()}
    argv = [command] + [part for name, value in params.items() for part in (f"--{name}", value)]
    code = 2
    if origin == "env":
        for name, value in setting.items():
            monkeypatch.setenv(name, value)
    elif origin == "flag":
        argv += [part for name, value in setting.items() for part in (f"--{name}", value)]
    elif origin == "config":
        config.write_text(json.dumps(setting), encoding="utf-8")
        argv += ["--config", str(config)]
    else:
        manifest.write_text(json.dumps({"command": command, "params": {**params, **setting}}),
                            encoding="utf-8")
        argv, code = ["rerun", str(manifest)], 1
    assert main(argv) == code
    assert message.format(config=config, manifest=manifest) in capsys.readouterr().err


def test_the_module_entry_point_prints_the_version():
    proc = subprocess.run([sys.executable, "-m", "faircf.cli", "--version"],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0
    assert "faircf" in proc.stdout


def test_the_cli_does_not_import_scipy_stats():
    """scipy.stats took over half of a cold start; the t-test's p-value
    comes from scipy.special."""
    code = "import sys, faircf.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_movielens_demo_leaves_no_temp_files(tmp_path):
    # Without the real archive the demo writes a stand-in into the temp dir.
    temp, cwd = tmp_path / "tmp", tmp_path / "cwd"
    temp.mkdir()
    cwd.mkdir()
    demo = Path(__file__).resolve().parents[1] / "demos" / "06_movielens_pipeline.py"
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, cwd=cwd,
                          env=subprocess_env(TMPDIR=str(temp), FAIRCF_ML1M_DIR=None))
    assert proc.returncode == 0, proc.stderr
    assert "generated stand-in" in proc.stdout
    assert str(temp) not in proc.stdout          # the output is the same on every run
    assert list(temp.iterdir()) == []


def test_fig1_experiment_flow(tmp_path):
    out = tmp_path / "fig1"
    run_ok(["experiment", "--scenario", "fig1", "--trials", "2", "--users", "15",
            "--items", "12", "--iterations", "15", "--out", str(out)])
    table = (out / "table.txt").read_text(encoding="utf-8").splitlines()
    assert table[0].split()[:2] == ["Setting", "Error"]
    assert [line.split()[0] for line in table[1:]] == ["U", "O", "P", "P+O"]
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    with (out / "table.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["setting"] for row in rows] == ["U", "O", "P", "P+O"]
    for row in rows:
        means = summary["settings"][row["setting"]]["means"]["none"]
        for metric, mean in means.items():
            assert float(row[f"{metric}_mean"]) == mean
    outputs = ("results.csv", "table.txt", "table.csv", "summary.json")
    redo = tmp_path / "redo"
    run_ok(["rerun", str(out / "manifest.json"), "--out", str(redo)])
    for name in outputs:
        assert (redo / name).read_bytes() == (out / name).read_bytes()


@pytest.mark.parametrize("flag, value, message", [
    ("--penalties", "bogus,zzz", f"unknown penalty 'bogus'; valid: {', '.join(PENALTY_KINDS)}"),
    ("--test-fraction", "7", "test_fraction must lie strictly between 0 and 1"),
], ids=["penalties", "test-fraction"])
def test_fig1_checks_the_fields_it_records(tmp_path, capsys, flag, value, message):
    """fig1 trains penalty "none" alone and splits no archive, but its
    manifest records --penalties and --test-fraction, so it checks them."""
    assert main(["experiment", "--scenario", "fig1", flag, value,
                 "--out", str(tmp_path / "fig1")]) == 2
    assert capsys.readouterr().err == f"faircf experiment: error: {flag}: {message}\n"


def assert_jobs_write_the_serial_files(tmp_path, *flags):
    """Several trials (of several penalties, or settings): results assembled
    out of (penalty, trial) order would differ."""
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    args = ["experiment", *flags, "--users", "15", "--items", "12", "--iterations", "15"]
    run_ok(args + ["--out", str(serial)])
    run_ok(args + ["--jobs", "2", "--out", str(parallel)])
    for name in ("results.csv", "table.txt", "table.csv", "summary.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_jobs_flag_gives_identical_tables(tmp_path):
    assert_jobs_write_the_serial_files(tmp_path, "--scenario", "synthetic_U", "--trials", "3",
                                       "--penalties", "none,value,nonparity")


def test_fig1_with_jobs_writes_the_serial_files(tmp_path):
    assert_jobs_write_the_serial_files(tmp_path, "--scenario", "fig1", "--trials", "2")


def test_a_movielens_sweep_with_jobs_writes_the_serial_files(tmp_path, bulk_ml_dir):
    """The one sweep whose workers unpickle a rating set: synthetic trials
    build their sets in the worker, the movielens dataset is sent to it."""
    args = ["experiment", "--scenario", "movielens", "--ml-dir", str(bulk_ml_dir),
            "--trials", "2", "--iterations", "5", "--penalties", "none,value"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    run_ok(args + ["--out", str(serial)])
    run_ok(args + ["--jobs", "2", "--out", str(parallel)])
    for name in ("results.csv", "table.csv", "summary.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


@pytest.mark.parametrize("doc", [
    [1, 2],                                                   # top level not an object
    {"command": ["train"]},                                   # command not a string
    {"command": "train", "params": [1]},                      # params not an object
    {"command": "train", "params": {}, "input_checksums": [1]},
    {"command": "train", "params": {"data": "d", "out": "o", "iterations": "abc"}},
    {"command": "train", "params": {"data": "d", "out": "o", "iterations": None}},
    {"command": "train", "params": {"data": "d", "out": "o", "iterations": True}},
    {"command": "train", "params": {"data": "d", "out": "o", "iterations": 2.5}},
    {"command": "train", "params": {"data": "d", "out": "o", "penalty": "fairest"}},
    {"command": "train", "params": {"data": "d", "out": "o", "iteration": 3}},
])
def test_rerun_rejects_malformed_manifest(tmp_path, capsys, doc):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["rerun", str(manifest)]) == 1
    assert str(manifest) in capsys.readouterr().err


def test_a_failed_rerun_names_its_manifest(tmp_path, capsys):
    # the manifest's params, not a flag, sent the run to a missing directory
    manifest = tmp_path / "manifest.json"
    params = {"data": str(tmp_path / "nowhere"), "out": str(tmp_path / "out")}
    manifest.write_text(json.dumps({"command": "train", "params": params}), encoding="utf-8")
    assert main(["rerun", str(manifest)]) == 1
    assert (f"faircf rerun: {manifest}: missing {tmp_path / 'nowhere' / 'ratings.tsv'}\n"
            == capsys.readouterr().err)


@pytest.mark.parametrize("text", [
    '{"dataset": ',                                           # truncated JSON
    '[1]',                                                    # top level not an object
    '{"dataset": [20, 15]}',                                  # dataset not an object
    '{"dataset": {"num_users": "many", "num_items": 15}}',    # dims not integers
])
def test_train_rejects_corrupt_dataset_manifest(tmp_path, capsys, text):
    data = make_dataset(tmp_path)
    (data / "manifest.json").write_text(text, encoding="utf-8")
    assert main(["train", "--data", str(data), "--iterations", "2",
                 "--out", str(tmp_path / "model")]) == 1
    assert str(data / "manifest.json") in capsys.readouterr().err


def test_train_without_dataset_manifest_infers_grid(tmp_path):
    data = make_dataset(tmp_path)
    (data / "manifest.json").unlink()
    run_ok(["train", "--data", str(data), "--iterations", "2",
            "--out", str(tmp_path / "model")])
    assert load_params(tmp_path / "model" / "model.txt").num_users == 20
    assert sorted(read_manifest(tmp_path / "model")["input_checksums"]) == [
        str(data / name) for name in ("groups.tsv", "ratings.tsv")]


def test_train_rejects_a_negative_group_index(tmp_path, capsys):
    data = make_dataset(tmp_path)
    groups = data / "groups.tsv"
    groups.write_text("-1" + groups.read_text(encoding="utf-8")[1:], encoding="utf-8")
    assert main(["train", "--data", str(data), "--iterations", "2",
                 "--out", str(tmp_path / "model")]) == 1
    assert f"{groups}: line 1: bad user index" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["0 0 2", "a b c"])
def test_evaluate_rejects_a_bad_model_header(tmp_path, capsys, header):
    data = make_dataset(tmp_path)
    model = tmp_path / "model" / "model.txt"
    run_ok(["train", "--data", str(data), "--iterations", "2", "--out", str(model.parent)])
    rows = model.read_text(encoding="utf-8").split("\n", 1)[1]
    model.write_text(f"{header}\n{rows}", encoding="utf-8")
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path / "report")]) == 1
    assert f"{model}: line 1: " in capsys.readouterr().err


def truncate_groups(data, users):
    groups = data / "groups.tsv"
    lines = groups.read_text(encoding="utf-8").splitlines(keepends=True)
    groups.write_text("".join(lines[:users]), encoding="utf-8")
    return groups


def test_train_names_both_files_on_a_group_count_mismatch(tmp_path, capsys):
    data = make_dataset(tmp_path)
    groups = truncate_groups(data, 10)
    assert main(["train", "--data", str(data), "--iterations", "2",
                 "--out", str(tmp_path / "model")]) == 1
    assert (f"{groups} labels 10 users, but the grid of {data / 'manifest.json'} has 20 users"
            in capsys.readouterr().err)


def test_train_names_the_manifest_whose_grid_the_labels_miss(tmp_path, capsys):
    # the 30 users come from the manifest, not from ratings.tsv (largest user 19)
    data = make_dataset(tmp_path)
    manifest = read_manifest(data)
    manifest["dataset"]["num_users"] = 30
    (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert read_ratings(data / "ratings.tsv").num_users == 20
    assert main(["train", "--data", str(data), "--iterations", "2",
                 "--out", str(tmp_path / "model")]) == 1
    assert (f"faircf train: {data / 'groups.tsv'} labels 20 users, but the grid of "
            f"{data / 'manifest.json'} has 30 users\n" == capsys.readouterr().err)


def test_evaluate_names_both_files_on_a_group_count_mismatch(tmp_path, capsys):
    data = make_dataset(tmp_path)
    model = tmp_path / "model" / "model.txt"
    run_ok(["train", "--data", str(data), "--iterations", "2", "--out", str(model.parent)])
    groups = truncate_groups(data, 10)
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path / "report")]) == 1
    assert (f"{groups} labels 10 users, but the grid of {model} has 20 users"
            in capsys.readouterr().err)


def spec_payload(**changes):
    """A valid spec file's JSON object with ``changes`` applied; a value of
    None drops the field."""
    from faircf.synthetic import builtin_specs, spec_to_json
    payload = json.loads(spec_to_json(builtin_specs(num_users=12, num_items=9)["P"]))
    payload.update(changes)
    return {name: value for name, value in payload.items() if value is not None}


@pytest.mark.parametrize("text", [
    "{not json",
    "[1, 2]",
    json.dumps(spec_payload(num_users=[12])),
    json.dumps(spec_payload(num_users=12.5)),
    json.dumps(spec_payload(user_group_labels=4)),
    json.dumps(spec_payload(user_group_labels=[1, 2, 3, 4])),
    json.dumps(spec_payload(disadvantaged_user_groups=1)),
    json.dumps(spec_payload(seed="abc")),
    json.dumps(spec_payload(seed=-1)),
    json.dumps(spec_payload(like_probs=None)),
    json.dumps(spec_payload(colour="red")),
    json.dumps(spec_payload(like_probs="high")),
    json.dumps(spec_payload(obs_probs=[[0.1, 0.2], [0.3]])),
    json.dumps(spec_payload(user_group_proportions=[float("nan")] * 4)),
], ids=["invalid-json", "array", "num_users-list", "num_users-float", "labels-int",
        "labels-not-strings", "disadvantaged-int", "seed-string", "seed-negative",
        "missing-field", "unknown-field", "probs-string", "probs-ragged", "proportions-nan"])
def test_generate_rejects_a_malformed_spec(tmp_path, capsys, text):
    spec = tmp_path / "spec.json"
    spec.write_text(text, encoding="utf-8")
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    assert f"{spec}: " in capsys.readouterr().err


def relative_run(tmp_path, monkeypatch):
    """Generate and train with relative paths from ``tmp_path``; returns the
    train manifest's path relative to a sibling working directory."""
    monkeypatch.chdir(tmp_path)
    run_ok(["generate", "--scenario", "P+O", "--users", "20", "--items", "15",
            "--out", "data/po"])
    run_ok(["train", "--data", "data/po", "--iterations", "5", "--out", "runs/t"])
    (tmp_path / "elsewhere").mkdir()
    return Path("..") / "runs" / "t" / "manifest.json"


def test_rerun_from_another_directory(tmp_path, monkeypatch):
    manifest = relative_run(tmp_path, monkeypatch)
    doc = read_manifest(tmp_path / "runs" / "t")
    assert doc["params"]["data"] == str(tmp_path / "data" / "po")
    assert str(tmp_path / "data" / "po" / "groups.tsv") in doc["input_checksums"]
    monkeypatch.chdir(tmp_path / "elsewhere")
    run_ok(["rerun", str(manifest), "--out", "redo"])
    for name in ("model.txt", "trace.csv"):
        assert ((tmp_path / "elsewhere" / "redo" / name).read_bytes()
                == (tmp_path / "runs" / "t" / name).read_bytes())


def test_rerun_of_a_relative_manifest(tmp_path, monkeypatch, capsys):
    manifest = relative_run(tmp_path, monkeypatch)
    path = tmp_path / "runs" / "t" / "manifest.json"
    doc = read_manifest(path.parent)        # as written before paths were made absolute
    doc["params"].update(data="data/po", out="runs/t")
    doc["input_checksums"] = {os.path.relpath(name, tmp_path): digest
                              for name, digest in doc["input_checksums"].items()}
    path.write_text(json.dumps(doc), encoding="utf-8")
    run_ok(["rerun", str(path), "--out", "redo"])          # from the recording directory
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert main(["rerun", str(manifest), "--out", "redo"]) == 1
    missing = tmp_path / "elsewhere" / "data" / "po" / "ratings.tsv"
    assert f"faircf rerun: {manifest}: missing {missing}\n" == capsys.readouterr().err


def test_rerun_of_a_relative_out_writes_beside_the_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_ok(["generate", "--scenario", "P+O", "--users", "20", "--items", "15", "--out", "gen"])
    path = tmp_path / "gen" / "manifest.json"
    doc = read_manifest(path.parent)        # as written before paths were made absolute
    doc["params"]["out"] = "gen"
    path.write_text(json.dumps(doc), encoding="utf-8")
    names = ("ratings.tsv", "groups.tsv", "expected.tsv")
    before = {name: (path.parent / name).read_bytes() for name in names}
    for name in names:
        (path.parent / name).unlink()
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    run_ok(["rerun", str(Path("..") / "gen" / "manifest.json")])
    assert not any((tmp_path / "elsewhere").iterdir())
    for name, blob in before.items():
        assert (path.parent / name).read_bytes() == blob


def test_manifest_records_the_environment_and_peak_rss(tmp_path):
    doc = read_manifest(make_dataset(tmp_path))
    env = doc["environment"]
    assert set(env) == {"python", "numpy", "scipy", "cpu_count"}
    assert env["numpy"] == np.__version__
    assert all(isinstance(env[key], str) for key in ("python", "numpy", "scipy"))
    assert isinstance(env["cpu_count"], int) and env["cpu_count"] >= 1
    assert isinstance(doc["peak_rss_mb"], float) and doc["peak_rss_mb"] > 0


def test_manifest_records_the_peak_rss_of_worker_processes(tmp_path):
    args = ["experiment", "--scenario", "synthetic_U", "--trials", "2", "--users", "15",
            "--items", "12", "--iterations", "5", "--penalties", "none"]
    run_ok(args + ["--out", str(tmp_path / "serial")])
    run_ok(args + ["--jobs", "2", "--out", str(tmp_path / "parallel")])
    assert isinstance(read_manifest(tmp_path / "serial")["peak_rss_children_mb"], float)
    children = read_manifest(tmp_path / "parallel")["peak_rss_children_mb"]
    assert isinstance(children, float) and children > 0
