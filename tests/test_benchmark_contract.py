"""The benchmark in perfbench/ still runs against the library.

perfbench/smoke.py also checks traced call counts, which go stale whenever
the training loop changes, so it is not part of this suite.  These tests
run the untraced and the traced cycle of each workload at its tiny size and
assert that every call and every output check in them passes, and that
tracing changes no output.  Another test runs the CLI chain of the benchmark
on its tiny archive and counts the input files that miss the whole-file
parse.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from faircf import data
from faircf.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        import workloads
        yield run, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["paper-sweep", "ml-scale"])
def test_workload_cycle_runs_at_tiny_size(bench, name, tmp_path):
    run, workloads = bench
    cycles, *_ = run.measure(name, workloads.tiny(workloads.WORKLOADS[name]), 3, 0, tmp_path,
                             check_reference=False)
    assert cycles.failures == []
    assert cycles.attempted > 0


@pytest.mark.parametrize("name", ["paper-sweep", "ml-scale"])
def test_the_traced_cycle_gives_the_outputs_of_the_untraced_one(bench, name, tmp_path,
                                                                 monkeypatch):
    """The traced run makes one untraced and one traced cycle.  Each traced
    wrapper reads the arguments of its function (the byte count of
    predict_entries takes ``(params, users, items)`` by position), so a
    call shape it no longer fits fails the traced cycle."""
    run, workloads = bench
    outputs, compare = [], workloads.Cycles._compare
    monkeypatch.setattr(workloads.Cycles, "_compare",
                        lambda cycles, out: outputs.append(dict(out)) or compare(cycles, out))
    cycles, _, _, _, tracer = run.measure_traced(
        name, workloads.tiny(workloads.WORKLOADS[name]), 3, 0, tmp_path, check_reference=False)
    assert cycles.failures == []
    assert len(outputs) == 2 and outputs[0] and outputs[1] == outputs[0]
    predicted = [span for span in tracer.spans
                 if span[0] == "model.predict_entries" and span[4] >= 0]
    assert predicted and all(span[6] > 0 for span in predicted)


def test_the_tiny_cli_chain_parses_every_input_file_whole(bench, tmp_path, monkeypatch):
    """prepare-movielens, train and evaluate on the tiny archive stand-in:
    every file read_fields reads goes through one np.loadtxt call, and the
    line loop, data._read_lines, never runs."""
    _, workloads = bench
    ml_dir, prep, model = tmp_path / "ml", tmp_path / "prep", tmp_path / "model"
    workloads.archive.write(ml_dir, 0, **workloads.TINY_ARCHIVE)
    read_whole, read_lines = data._read_whole, data._read_lines
    reads, fallbacks = [], []
    monkeypatch.setattr(data, "_read_whole",
                        lambda path, *args: reads.append(path.name) or read_whole(path, *args))
    monkeypatch.setattr(data, "_read_lines",
                        lambda path, *args: fallbacks.append(path.name) or read_lines(path, *args))
    assert main(["prepare-movielens", "--ml-dir", str(ml_dir), "--out", str(prep)]) == 0
    assert main(["train", "--data", str(prep), "--iterations", "3", "--out", str(model)]) == 0
    assert main(["evaluate", "--model", str(model / "model.txt"), "--data", str(prep),
                 "--targets", str(prep / "ratings.tsv"), "--out", str(tmp_path / "eval")]) == 0
    assert sorted(set(reads)) == ["groups.tsv", "model.txt", "movies.dat", "ratings.dat",
                                  "ratings.tsv", "users.dat"]
    assert fallbacks == []
