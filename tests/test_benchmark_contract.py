"""The benchmark in perfbench/ still runs against the library.

perfbench/smoke.py also checks traced call counts, which go stale whenever
the training loop changes, so it is not part of this suite.  This test runs
only the untraced cycle of each workload at its tiny size and asserts that
every call and every output check in it passes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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
