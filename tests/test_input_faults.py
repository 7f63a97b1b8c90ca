"""Faulty or missing input ends in exit 1 and a message naming the file and
the line; plus the library paths that reject such input."""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faircf.cli import main
from faircf.data import _read_lines, read_fields, read_groups, read_ratings
from faircf.fairness import FairnessReport
from faircf.model import ModelParams, load_params, predict, save_params
from faircf.synthetic import builtin_specs, spec_to_json
from conftest import MINI_RATINGS, MINI_USERS, write_ml_corpus


def make_dataset(tmp_path):
    out = tmp_path / "data"
    assert main(["generate", "--scenario", "P+O", "--users", "20", "--items", "15",
                 "--seed", "3", "--out", str(out)]) == 0
    return out


def train_model(tmp_path, data):
    model = tmp_path / "model" / "model.txt"
    assert main(["train", "--data", str(data), "--iterations", "2",
                 "--out", str(model.parent)]) == 0
    return model


@pytest.mark.parametrize("name", ["ratings.tsv", "groups.tsv"])
def test_train_names_the_line_that_is_not_utf8(tmp_path, capsys, name):
    data = make_dataset(tmp_path)
    path = data / name
    lines = path.read_bytes().split(b"\n")
    lines[4] = b"1\t\xff2\t1.0" if name == "ratings.tsv" else b"\xff4\t1"
    lines.insert(1, b"")                    # a blank line still counts
    path.write_bytes(b"\n".join(lines))
    assert main(["train", "--data", str(data), "--iterations", "2",
                 "--out", str(tmp_path / "model")]) == 1
    assert f"{path}: line 6: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("explicit", [False, True])
def test_evaluate_names_the_target_line_that_is_not_utf8(tmp_path, capsys, explicit):
    data = make_dataset(tmp_path)
    model = train_model(tmp_path, data)
    targets = data / "expected.tsv"
    lines = targets.read_bytes().split(b"\n")
    lines[99] = lines[99] + b"\xff"
    targets.write_bytes(b"\n".join(lines))
    argv = ["evaluate", "--model", str(model), "--data", str(data),
            "--out", str(tmp_path / "report")]
    assert main(argv + (["--targets", str(targets)] if explicit else [])) == 1
    assert f"{targets}: line 100: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("number", [1, 7])
def test_evaluate_names_the_model_line_that_is_not_utf8(tmp_path, capsys, number):
    # the header read decodes ahead of line 1, so a bad row 7 surfaces there
    data = make_dataset(tmp_path)
    model = train_model(tmp_path, data)
    lines = model.read_bytes().split(b"\n")
    lines[number - 1] = b"\xe9" + lines[number - 1]
    model.write_bytes(b"\n".join(lines))
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path / "report")]) == 1
    assert f"{model}: line {number}: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1e999"])
def test_evaluate_names_the_model_line_that_is_not_finite(tmp_path, capsys, value):
    data = make_dataset(tmp_path)
    model = train_model(tmp_path, data)
    lines = model.read_text(encoding="utf-8").split("\n")
    lines[30] = " ".join([value] + lines[30].split(" ")[1:])      # an item row
    model.write_text("\n".join(lines), encoding="utf-8")
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path / "report")]) == 1
    assert (f"faircf evaluate: {model}: line 31: model parameters must be finite\n"
            == capsys.readouterr().err)


def test_load_params_names_a_late_row_that_is_not_utf8(tmp_path):
    # far past the first decoded chunk, so the row reader meets the byte
    path = tmp_path / "model.txt"
    save_params(ModelParams.zeros(1500, 500, 2), path)
    lines = path.read_bytes().split(b"\n")
    lines[1800] = lines[1800].replace(b" ", b" \x80", 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=r": line 1801: not valid UTF-8$"):
        load_params(path)


@pytest.mark.parametrize("option", ["--spec", "--config"])
def test_generate_names_the_json_line_that_is_not_utf8(tmp_path, capsys, option):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"seed":\n 1\xff}\n')
    assert main(["generate", option, str(path), "--out", str(tmp_path / "data")]) == 1
    assert f"{path}: line 2: not valid UTF-8" in capsys.readouterr().err


def test_rerun_names_the_manifest_line_that_is_not_utf8(tmp_path, capsys):
    manifest = make_dataset(tmp_path) / "manifest.json"
    lines = manifest.read_bytes().split(b"\n")
    lines[2] = lines[2] + b"\xff"
    manifest.write_bytes(b"\n".join(lines))
    assert main(["rerun", str(manifest), "--out", str(tmp_path / "redo")]) == 1
    assert f"{manifest}: line 3: not valid UTF-8" in capsys.readouterr().err


def test_a_diverging_train_prints_one_line(tmp_path, capsys):
    # the objective of the initial parameters already overflows
    data = tmp_path / "data"
    data.mkdir()
    (data / "ratings.tsv").write_text("0\t0\t1e200\n", encoding="utf-8")
    (data / "groups.tsv").write_text("0\t1\n", encoding="utf-8")
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "model")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "objective became non-finite at iteration 0" in err[0]


def test_a_diverging_train_names_its_rating_file(tmp_path, capsys):
    # an infinite learning rate is in range, but its first update leaves no parameter finite
    data = make_dataset(tmp_path)
    assert main(["train", "--data", str(data), "--learning-rate", "inf",
                 "--out", str(tmp_path / "model")]) == 1
    assert (f"faircf train: {data / 'ratings.tsv'}: objective became non-finite at iteration 1 "
            "(value nan; non-finite user_vectors, item_vectors, user_bias, item_bias)\n"
            == capsys.readouterr().err)


@pytest.mark.parametrize("text", ["", "\n \t\n"])
def test_train_names_an_empty_rating_file(tmp_path, capsys, text):
    # the grid comes from the dataset's manifest, so the file may hold no entry
    data = make_dataset(tmp_path)
    (data / "ratings.tsv").write_text(text, encoding="utf-8")
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "model")]) == 1
    assert (f"faircf train: {data / 'ratings.tsv'}: cannot train on an empty rating set\n"
            == capsys.readouterr().err)


@pytest.mark.parametrize("text", ["", "\n \t\n"])
def test_evaluate_names_an_empty_target_file(tmp_path, capsys, text):
    data = make_dataset(tmp_path)
    model = train_model(tmp_path, data)
    targets = tmp_path / "targets.tsv"
    targets.write_text(text, encoding="utf-8")
    assert main(["evaluate", "--model", str(model), "--data", str(data), "--targets", str(targets),
                 "--out", str(tmp_path / "report")]) == 1
    assert (f"faircf evaluate: {targets}: cannot evaluate on an empty target set\n"
            == capsys.readouterr().err)


def test_prepare_movielens_names_a_repeated_user(tmp_path, capsys):
    # the last line of a repeated id used to win: user 1 became a man
    archive = write_ml_corpus(tmp_path / "ml", users=MINI_USERS + "1::M::1::10::48067\n")
    assert main(["prepare-movielens", "--ml-dir", str(archive), "--min-ratings", "2",
                 "--out", str(tmp_path / "prepared")]) == 1
    assert (f"faircf prepare-movielens: {archive / 'users.dat'}: line 7: duplicate user 1\n"
            == capsys.readouterr().err)


def test_prepare_movielens_names_a_repeated_rating(tmp_path, capsys):
    # a pair rated twice used to fail in RatingSet, naming no file or line
    archive = write_ml_corpus(tmp_path / "ml", ratings=MINI_RATINGS + "3::2::1::978302999\n")
    assert main(["prepare-movielens", "--ml-dir", str(archive), "--min-ratings", "2",
                 "--out", str(tmp_path / "prepared")]) == 1
    assert (f"faircf prepare-movielens: {archive / 'ratings.dat'}: line 12: "
            "duplicate (user, movie) pair\n" == capsys.readouterr().err)


def test_prepare_movielens_names_the_archive_that_no_user_passes(tmp_path, capsys):
    archive = write_ml_corpus(tmp_path / "ml")
    assert main(["prepare-movielens", "--ml-dir", str(archive), "--min-ratings", "50",
                 "--out", str(tmp_path / "prepared")]) == 1
    assert (f"faircf prepare-movielens: {archive}: no user passes the activity threshold\n"
            == capsys.readouterr().err)


def test_train_without_a_group_file(tmp_path, capsys):
    data = make_dataset(tmp_path)
    (data / "groups.tsv").unlink()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "model")]) == 1
    assert f"missing {data / 'groups.tsv'}" in capsys.readouterr().err


def test_evaluate_without_a_group_file_names_it_as_train_does(tmp_path, capsys):
    data = make_dataset(tmp_path)
    model = train_model(tmp_path, data)
    (data / "groups.tsv").unlink()
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path / "report")]) == 1
    assert f"faircf evaluate: missing {data / 'groups.tsv'}\n" == capsys.readouterr().err


def test_evaluate_without_expected_values(tmp_path, capsys):
    data = make_dataset(tmp_path)
    model = train_model(tmp_path, data)
    (data / "expected.tsv").unlink()
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path / "report")]) == 1
    assert (f"no target file: {data / 'expected.tsv'} (pass --targets to point at one)"
            in capsys.readouterr().err)


def test_movielens_experiment_records_the_archive_and_reruns(tmp_path, bulk_ml_dir):
    out = tmp_path / "exp"
    assert main(["experiment", "--scenario", "movielens", "--ml-dir", str(bulk_ml_dir),
                 "--iterations", "5", "--penalties", "none", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["trials"] == 5 and summary["scenario"] == "movielens"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["input_checksums"] == {
        str(bulk_ml_dir / name): "sha256:" + hashlib.sha256(
            (bulk_ml_dir / name).read_bytes()).hexdigest()
        for name in ("users.dat", "movies.dat", "ratings.dat")}
    outputs = ("results.csv", "table.txt", "table.csv", "summary.json")
    before = {name: (out / name).read_bytes() for name in outputs}
    assert main(["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "redo")]) == 0
    for name in outputs:
        assert (tmp_path / "redo" / name).read_bytes() == before[name]


def test_read_groups_rejects_an_empty_file(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_text("\n \n", encoding="utf-8")
    with pytest.raises(ValueError, match="empty group file"):
        read_groups(path)


def test_read_ratings_needs_dimensions_for_an_empty_file(tmp_path):
    path = tmp_path / "ratings.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty rating file needs explicit grid dimensions"):
        read_ratings(path)
    assert len(read_ratings(path, num_users=2, num_items=3)) == 0


def test_read_ratings_names_the_file_of_a_grid_fault(tmp_path):
    path = tmp_path / "ratings.tsv"
    path.write_text("0\t0\t1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: rating grid must have "
                                         "at least one user and one item$"):
        read_ratings(path, num_users=0, num_items=3)


def test_load_params_rejects_missing_rows(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("2 2 1\n0.5 0.0\n0.5 0.0\n0.5 0.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 4 entity rows, found 3"):
        load_params(path)


@pytest.mark.parametrize("text", [
    "error,value\n1.0,2.0\n",
    "error,value,absolute,under,over,nonparity\n1.0,2.0,3.0\n",
])
def test_fairness_report_csv_rejects_a_bad_header_or_row(text):
    with pytest.raises(ValueError, match="malformed fairness report CSV"):
        FairnessReport.from_csv(text)


def test_predict_rejects_an_item_out_of_range():
    params = ModelParams.zeros(2, 3, 1)
    assert predict(params, 1, 2) == 0.0
    with pytest.raises(IndexError, match="item index 3 out of range"):
        predict(params, 0, 3)
    with pytest.raises(IndexError, match="item index -1 out of range"):
        predict(params, 0, -1)


@pytest.mark.parametrize("user, item, message", [
    (1.5, 0, "user index: expected int, got 1.5"),     # used to score user 1
    (1, 0.5, "item index: expected int, got 0.5"),     # used to raise numpy's IndexError
    (True, 0, "user index: expected int, got True"),
    (0, np.float64(2.0), f"item index: expected int, got {np.float64(2.0)!r}"),
])
def test_predict_refuses_an_index_that_is_no_int(user, item, message):
    params = ModelParams.zeros(2, 3, 1)
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        predict(params, user, item)
    assert predict(params, np.int64(1), np.int32(2)) == 0.0


def oversized_train(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "ratings.tsv").write_text("0\t0\t4.0\n0\t999999999999\t3.0\n", encoding="utf-8")
    (data / "groups.tsv").write_text("0\t0\n", encoding="utf-8")
    return ["train", "--data", str(data), "--out", str(tmp_path / "run")]


@pytest.mark.parametrize("argv", [
    oversized_train,        # no manifest: the grid is read off an item index, 21.8 TiB of factors
    lambda tmp_path: ["generate", "--scenario", "U", "--users", "10000000",
                      "--items", "10000000", "--out", str(tmp_path / "grid")],     # 728 TiB
], ids=["train", "generate"])
def test_a_grid_too_large_to_allocate_exits_1_in_one_line(tmp_path, capsys, argv):
    """numpy refuses these sizes at once, with nothing allocated."""
    argv = argv(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"faircf {argv[0]}: out of memory: Unable to allocate ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.fixture(scope="module")
def mutation_base(tmp_path_factory):
    """What each mutant copies: a generated 8x6 set; a model trained on it
    for one update, with its manifest; a hand-written MovieLens archive; a
    block-model spec and a train config."""
    base = tmp_path_factory.mktemp("mutation")
    assert main(["generate", "--scenario", "P+O", "--users", "8", "--items", "6",
                 "--seed", "3", "--out", str(base / "data")]) == 0
    assert main(["train", "--data", str(base / "data"), "--iterations", "1",
                 "--out", str(base / "model")]) == 0
    write_ml_corpus(base / "ml")
    (base / "spec.json").write_text(spec_to_json(builtin_specs(8, 6)["P+O"]), encoding="utf-8")
    config = {"iterations": 1, "dim": 2, "reg": 0.001, "penalty": "value"}
    (base / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    return base


ENV_NAME, ENV_VALUE = "FAIRCF_LEARNING_RATE", b"0.01"
TRAIN = "train --data {w}/data --iterations 1"
DATASET = ("{w}/data/ratings.tsv", "{w}/data/groups.tsv", "{w}/data/manifest.json")
# mutated input -> (the command line that reads it, every input a failure may name)
MUTANTS = {
    "data/ratings.tsv": (TRAIN, DATASET),
    "data/groups.tsv": (TRAIN, DATASET),
    "config.json": (TRAIN + " --config {w}/config.json", DATASET + ("{w}/config.json",)),
    ENV_NAME: (TRAIN, DATASET + (ENV_NAME,)),
    "model/model.txt": ("evaluate --model {w}/model/model.txt --data {w}/data",
                        ("{w}/model/model.txt", "{w}/data/groups.tsv", "{w}/data/expected.tsv")),
    "data/expected.tsv": ("evaluate --model {w}/model/model.txt --data {w}/data",
                          ("{w}/model/model.txt", "{w}/data/groups.tsv", "{w}/data/expected.tsv")),
    # a filter that keeps no user names the archive directory
    **{f"ml/{name}": ("prepare-movielens --ml-dir {w}/ml --min-ratings 2",
                      ("{w}/ml/users.dat", "{w}/ml/movies.dat", "{w}/ml/ratings.dat", "{w}/ml:"))
       for name in ("users.dat", "movies.dat", "ratings.dat")},
    # the rerun reads the base's dataset, which the manifest names
    "model/manifest.json": ("rerun {w}/model/manifest.json", ("{w}/model/manifest.json",)),
    "spec.json": ("generate --spec {w}/spec.json", ("{w}/spec.json",)),
}
DUPLICATE = None            # repeat the line that holds the position; b"" deletes a byte
MUTATIONS = [b"\r", b"\0", b"\t", b":", b"e", b"9", b"-", b".", b"\xff", b"", DUPLICATE,
             b"::", b"1e400", b"12345678901234567890", b"1_0"]
RATING_FIELDS = ("\t", (int, int, float), 0)
# mutated file -> its read_fields arguments (separator, field kinds, skipped lines)
READ_FIELDS = {"data/ratings.tsv": RATING_FIELDS, "data/expected.tsv": RATING_FIELDS,
               "data/groups.tsv": ("\t", (int, str), 0), "model/model.txt": (" ", None, 1)}


def assert_read_as_the_line_loop_reads(path, sep, kinds, skip):
    """``read_fields`` gives the line numbers and values, bit for bit, of
    ``_read_lines``, its line-by-line oracle; a model's kinds come from its header."""
    if kinds is None:
        kinds = (float,) * (int(path.read_text(encoding="utf-8").split(None, 3)[2]) + 1)
    got, want = read_fields(path, sep, kinds, skip=skip), _read_lines(path, sep, kinds, "utf-8", skip)
    assert got[0].tolist() == want[0].tolist()
    for column, oracle in zip(got[1], want[1]):
        assert column.dtype == oracle.dtype and repr(column.tolist()) == repr(oracle.tolist())


def mutate(text, edits):
    """``text`` with each (position, mutation) edit applied in turn: a byte
    replaces the one at the position (b"" deletes it), DUPLICATE repeats
    its line."""
    for at, mutation in edits:
        at %= len(text)
        if mutation is DUPLICATE:
            start = text.rfind(b"\n", 0, at) + 1
            end = text.find(b"\n", at) + 1 or len(text)
            text = text[:start] + text[start:end].rstrip(b"\n") + b"\n" + text[start:]
        else:
            text = text[:at] + mutation + text[at + 1:]
    return text


@settings(derandomize=True, deadline=None, max_examples=300)
@example(target=ENV_NAME, edits=[(1, b"e")])                            # a rate of 0e01
@example(target=ENV_NAME, edits=[(1, b"1e400")])                        # inf: training diverges
@example(target="config.json", edits=[(29, b"-")])                      # "dim":-2
@example(target="ml/movies.dat", edits=[(25, b"\xff"), (59, b"\t")])     # no user keeps 2 ratings
@given(target=st.sampled_from(sorted(MUTANTS)),
       edits=st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(MUTATIONS)),
                      min_size=1, max_size=3))
def test_a_mutated_input_exits_0_1_or_2_with_one_stderr_line(mutation_base, target, edits):
    """Replace or delete 1-3 bytes of one input of ``train``, ``evaluate``,
    ``prepare-movielens``, ``rerun`` or ``generate --spec``, or repeat one of
    its lines: the run raises nothing and exits 0, 1 or 2, and a failed run
    prints one stderr line that names its command and one of its inputs
    (a file, or the FAIRCF_* variable).  An environment value holds no NUL.
    A mutated rating, group, model or target file that is accepted must be
    read to the values the line loop reads."""
    line, inputs = MUTANTS[target]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("data", "model", "ml", "spec.json", "config.json"):
            copy = shutil.copytree if (mutation_base / part).is_dir() else shutil.copy
            copy(mutation_base / part, work / part)
        environment = {}
        if target == ENV_NAME:
            value = mutate(ENV_VALUE, [(at, m) for at, m in edits if m != b"\0"])
            environment[ENV_NAME] = value.decode("utf-8", "surrogateescape")
        else:
            (work / target).write_bytes(mutate((work / target).read_bytes(), edits))
        argv = line.format(w=work).split(" ") + ["--out", str(work / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), mock.patch.dict(os.environ, environment):
            code = main(argv)
        if code == 0 and target in READ_FIELDS:
            assert_read_as_the_line_loop_reads(work / target, *READ_FIELDS[target])
    assert code in (0, 1, 2)
    if code:
        message = err.getvalue()
        assert message.startswith(f"faircf {argv[0]}") and message.endswith("\n"), message
        assert message.count("\n") == 1, message
        assert any(name.format(w=work) in message for name in inputs), message
