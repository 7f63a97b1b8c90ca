"""The benchmark in perfbench/ still runs against the library.

perfbench/smoke.py also checks traced call counts, which go stale whenever
the training loop changes, so it is not part of this suite.  This test runs
only the untraced cycle of each workload at its tiny size and asserts that
every call and every output check in it passes.  A second test runs the
CLI chain of the benchmark on its tiny archive and counts the input files
that miss the whole-file parse.
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
