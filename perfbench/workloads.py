"""The workloads: set-up, the closed-loop cycle of calls, and the
checks on every output.

Every workload runs the same cycle of calls into the public API, one after
another in one process, at its own sizes:

    sweep         run_experiment over all seven penalty kinds + render x2
                  (paper-sweep only)
    train_plain   trainer.train, penalty none       -> train_plain_ms_per_iter
    train_fair    trainer.train, penalty value      -> train_fair_ms_per_iter
    evaluate      experiments.evaluate on the held-out cells -> eval_mcells_per_s
    prepare       cli main: prepare-movielens       -> prepare_s
    cli_train     cli main: train --penalty value   -> cli_train_s
    cli_evaluate  cli main: evaluate --targets <prepared ratings.tsv> -> cli_evaluate_s
    rerun         cli main: rerun of the train manifest -> rerun_s

so every end-to-end metric exists on every workload, while each workload
puts its weight on a different layer (see WORKLOADS).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import archive
from faircf import cli, experiments, fairness, model, synthetic, trainer

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
# Relative tolerance for reference values: wide enough for a change of
# summation order (about 1e-13 after 250 iterations), narrow enough to
# catch a wrong gradient.
REFERENCE_RTOL = 1e-9

SWEEP_TRIALS = 2                        # the fewest that give standard errors
CLI_ITERATIONS = 3
FULL_ARCHIVE = {}                                          # 6040 users, ~1.0M ratings
SMALL_ARCHIVE = {"num_users": 604, "target_ratings": 100_000}   # prepares to ~320 x 1100
TINY_ARCHIVE = {"num_users": 60, "num_movies": 1000, "target_ratings": 10_000}


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload.  The synthetic P+O grid feeds the library
    calls; the archive feeds the CLI calls."""

    users: int
    items: int
    train_iterations: int
    archive: dict
    sweep_iterations: int = 0           # 0: the cycle has no sweep
    # Short calls run several times per cycle, so their medians rest on
    # more samples.
    evaluate_repeats: int = 1
    pipeline_repeats: int = 1


WORKLOADS = {
    # 400 x 300 (~36k ratings): arrays fit in L2, so fixed per-call costs
    # dominate; the sweep trains 14 models per cycle, and the CLI part runs
    # on a paper-sized archive.
    "paper-sweep": Workload(400, 300, 50, SMALL_ARCHIVE, sweep_iterations=15,
                            evaluate_repeats=10, pipeline_repeats=3),
    # 3000 x 1000 (~901k ratings, 2.1M held-out cells): gather and bincount
    # bandwidth dominate training; the CLI part runs on the ML-1M-shaped
    # archive (~1.0M ratings, ~3k x 1k after preparation), where parsing,
    # TSV and model text I/O and checksums dominate.
    "ml-scale": Workload(3000, 1000, 4, FULL_ARCHIVE),
}


def tiny(workload: Workload) -> Workload:
    """The same cycle at sizes that run in about a second."""
    return replace(workload, users=40, items=30, train_iterations=3, archive=TINY_ARCHIVE,
                   sweep_iterations=min(workload.sweep_iterations, 3))


@dataclass(eq=False)
class Inputs:
    data: synthetic.SyntheticDataset
    targets: object                     # RatingSet of every unobserved cell
    ml_dir: Path
    archive_bytes: dict

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for arr in (self.data.observed.users, self.data.observed.items,
                    self.data.observed.values, self.data.groups.disadvantaged,
                    self.targets.users, self.targets.items, self.targets.values):
            digest.update(np.ascontiguousarray(arr).tobytes())
        for name in sorted(self.archive_bytes):
            digest.update((self.ml_dir / name).read_bytes())
        return digest.hexdigest()


def setup(workload: Workload, seed: int, work: Path) -> Inputs:
    """Generate every input of a run from ``seed``."""
    spec = synthetic.builtin_specs(workload.users, workload.items, seed=seed)["P+O"]
    data = synthetic.generate(spec)
    targets = synthetic.evaluation_set(data)
    ml_dir = work / "ml-1m"
    sizes = archive.write(ml_dir, seed, **workload.archive)
    return Inputs(data, targets, ml_dir, sizes)


def sizing(workload: Workload, inputs: Inputs) -> dict:
    """Computed bytes of the arrays each layer works on."""
    entry = 8 * 3                        # int64 user, int64 item, float64 value
    d = model.TrainConfig().d
    return {
        "ratings_bytes": len(inputs.data.observed) * entry,
        "targets_bytes": len(inputs.targets) * entry,
        "params_bytes": (workload.users + workload.items) * (d + 1) * 8,
        "archive_bytes": sum(inputs.archive_bytes.values()),
        "num_ratings": len(inputs.data.observed),
        "num_targets": len(inputs.targets),
    }


def _load_reference(workload_name: str):
    if not REFERENCE_PATH.exists():
        return None
    doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return doc.get("workloads", {}).get(workload_name)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)


class Cycles:
    """Runs cycles of one workload and keeps the counts, the timing samples
    and the outputs of the first cycle.

    ``on_operation(name)`` is called before each top-level call, so the
    tracer can tag spans with the operation that caused them.
    """

    def __init__(self, name: str, workload: Workload, seed: int, work: Path,
                 check_reference: bool = True):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = {}
        self.busy = []                  # per cycle: seconds inside top-level calls
        self._busy = 0.0
        self._fingerprint = None
        self.first_outputs = None
        self.reference = None
        if check_reference and seed == REFERENCE_SEED:
            self.reference = _load_reference(name)
            self.check(self.reference is not None, f"reference values for {name}")
        self.on_operation = None

    # -- bookkeeping -------------------------------------------------------

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def sample(self, metric: str, value: float):
        self.samples.setdefault(metric, []).append(value)

    def call(self, operation: str, fn, *args):
        """Time one top-level call; a failure is counted, not raised."""
        if self.on_operation is not None:
            self.on_operation(operation)
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            result = fn(*args)
        except (Exception, SystemExit):   # SystemExit: argparse rejecting an argv
            result = None
            self.failed += 1
            self.failures.append(f"{operation}: {traceback.format_exc(limit=3)}")
        seconds = time.perf_counter() - start
        self._busy += seconds
        return result, seconds

    def _cli(self, operation: str, argv):
        rc, seconds = self.call(operation, cli.main, [str(a) for a in argv])
        if rc is not None:
            self.check(rc == 0, f"{operation}: exit code {rc}")
        return rc == 0, seconds

    # -- set-up and one cycle ----------------------------------------------

    def setup(self, repeats: int = 1):
        """Set up ``repeats`` times; every set-up of the run must give the
        same inputs.  Returns the last inputs and each set-up's seconds."""
        times, inputs = [], None
        for _ in range(repeats):
            inputs = None                # free the previous repeat first
            start = time.perf_counter()
            inputs = setup(self.workload, self.seed, self.work)
            times.append(time.perf_counter() - start)
            fingerprint = inputs.fingerprint()
            if self._fingerprint is None:
                self._fingerprint = fingerprint
            else:
                self.check(fingerprint == self._fingerprint, "set-up repeats bit for bit")
        return inputs, times

    def run(self, inputs: Inputs) -> float:
        """One pass through every call of the workload.  Appends the time
        spent inside the calls to ``busy`` (this is ``wall_s``; it leaves out
        the bench's own checks and collections) and returns the elapsed time."""
        start = time.perf_counter()
        self._busy = 0.0
        outputs = {}
        if self.workload.sweep_iterations:
            outputs.update(self._sweep())
        params = None
        for kind, penalty in (("plain", "none"), ("fair", "value")):
            params, values = self._train(kind, penalty, inputs)
            outputs.update(values)
        if params is not None:
            outputs.update(self._repeated("evaluate", self.workload.evaluate_repeats,
                                          self._evaluate, params, inputs))
        outputs.update(self._repeated("pipeline", self.workload.pipeline_repeats,
                                      self._pipeline, inputs))
        self._compare(outputs)
        self.busy.append(self._busy)
        return time.perf_counter() - start

    def _repeated(self, what, repeats, fn, *args):
        results = [fn(*args) for _ in range(repeats)]
        self.check(all(r == results[0] for r in results), f"{what}: repeats agree")
        return results[0]

    def _sweep(self):
        w = self.workload
        plan = experiments.ExperimentPlan(
            scenario="synthetic_PO", penalties=model.PENALTY_KINDS, trials=SWEEP_TRIALS,
            config=model.TrainConfig(iterations=w.sweep_iterations), seed=self.seed,
            num_users=w.users, num_items=w.items, jobs=1)

        def sweep():
            result = experiments.run_experiment(plan)
            return result, experiments.render(result), experiments.render(result, fmt="csv")

        done, _ = self.call("sweep", sweep)
        if done is None:
            return {}
        result, text, table = done
        means = {f"sweep.{p}.{m}": result.means[p][m]
                 for p in result.penalties for m in fairness.METRIC_NAMES}
        self.check(all(map(math.isfinite, means.values())), "sweep: finite means")
        parsed = experiments.parse_table_csv(table)
        self.check(all(parsed[p][m][0] == result.means[p][m]
                       for p in result.penalties for m in fairness.METRIC_NAMES),
                   "sweep: CSV table reproduces the means exactly")
        self.check(len(text.splitlines()) == 1 + len(result.penalties),
                   "sweep: text table has a row per penalty")
        return means

    def _train(self, kind, penalty, inputs):
        iterations = self.workload.train_iterations
        config = model.TrainConfig(iterations=iterations, penalty=penalty, seed=self.seed)
        data = inputs.data
        done, seconds = self.call(f"train_{kind}", trainer.train, data.observed, data.groups,
                                  config)
        if done is None:
            return None, {}
        self.sample(f"train_{kind}_ms_per_iter", seconds / iterations * 1e3)
        params, trace = done
        self._check_trace(f"train_{kind}", trace.objective, trace.penalty)
        return params, {f"train_{kind}.objective": float(trace.objective[-1]),
                        f"train_{kind}.penalty": float(trace.penalty[-1])}

    def _check_trace(self, operation, objective, penalty):
        self.check(bool(np.all(np.isfinite(objective)) and np.all(np.isfinite(penalty))),
                   f"{operation}: finite trace")
        self.check(len(objective) >= 2 and objective[-1] < objective[0],
                   f"{operation}: objective ends below its first entry")

    def _evaluate(self, params, inputs):
        report, seconds = self.call("evaluate", experiments.evaluate, params, inputs.targets,
                                    inputs.data.groups)
        if report is None:
            return {}
        self.sample("eval_mcells_per_s", len(inputs.targets) / seconds / 1e6)
        values = {f"evaluate.{m}": v for m, v in report.as_dict().items()}
        self.check(all(map(math.isfinite, values.values())), "evaluate: finite metrics")
        return values

    def _pipeline(self, inputs):
        out = {}
        prep, trained = self.work / "prepared", self.work / "train"
        ok, seconds = self._cli("prepare", ["prepare-movielens", "--ml-dir", inputs.ml_dir,
                                            "--out", prep])
        if not ok:
            return out
        self.sample("prepare_s", seconds)
        dims = json.loads((prep / "manifest.json").read_text(encoding="utf-8"))["dataset"]
        for key in ("num_users", "num_items", "num_ratings"):
            out[f"prepare.{key}"] = dims[key]
        self.check(min(out.values()) > 0, "prepare: nonempty grid")

        ok, seconds = self._cli("cli_train", [
            "train", "--data", prep, "--penalty", "value", "--iterations", CLI_ITERATIONS,
            "--seed", self.seed, "--out", trained])
        if not ok:
            return out
        self.sample("cli_train_s", seconds)
        rows = (trained / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
        trace = np.array([[float(c) for c in row.split(",")[1:]] for row in rows])
        self._check_trace("cli_train", trace[:, 0], trace[:, 1])
        out["cli_train.objective"] = float(trace[-1, 0])

        ok, seconds = self._cli("cli_evaluate", [
            "evaluate", "--model", trained / "model.txt", "--data", prep,
            "--targets", prep / "ratings.tsv", "--out", self.work / "evaluate"])
        if ok:
            self.sample("cli_evaluate_s", seconds)
            text = (self.work / "evaluate" / "report.csv").read_text(encoding="utf-8")
            report = fairness.FairnessReport.from_csv(text).as_dict()
            self.check(all(map(math.isfinite, report.values())), "cli_evaluate: finite report")
            out.update({f"cli_evaluate.{m}": v for m, v in report.items()})

        rerun = self.work / "rerun"
        ok, seconds = self._cli("rerun", ["rerun", trained / "manifest.json", "--out", rerun])
        if ok:
            self.sample("rerun_s", seconds)
            for name in ("model.txt", "trace.csv"):
                self.check((rerun / name).read_bytes() == (trained / name).read_bytes(),
                           f"rerun: {name} reproduced byte for byte")
        return out

    def _compare(self, outputs):
        """Every cycle must repeat the first bit for bit; the first cycle of
        the reference seed must match the stored reference values."""
        if self.first_outputs is None:
            self.first_outputs = dict(outputs)
            if self.reference is not None:
                bad = sorted(k for k in set(self.reference) | set(outputs)
                             if k not in outputs or k not in self.reference
                             or not _close(outputs[k], self.reference[k]))
                self.check(not bad, f"reference values differ: {bad}")
            return
        self.check(outputs == self.first_outputs, "outputs repeat the first cycle exactly")


