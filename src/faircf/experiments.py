"""Multi-trial experiment harness: held-out evaluation, penalty sweeps with
a paired design, paired t-tests, and table rendering.

A sweep trains one model per penalty kind per trial.  All penalties inside a
trial share the same dataset (synthetic draw or train/test split), so
per-trial differences between penalties are paired observations; the
significance marking in the rendered tables uses a two-sided paired t-test
against the best-mean penalty of each metric column.

A plan is immutable and checked once, when built.  A result is its plan
plus one FairnessReport per penalty and trial.  The seeds are functions of
the plan (``ExperimentPlan.data_seed``/``train_seed``) and the statistics
are computed from the reports, so neither is stored.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import repeat

import numpy as np
from scipy import special

from .data import GroupAssignment, RatingSet, check_field_types, csv_text, text_table
from .fairness import (PENALTY_KINDS, FairnessReport, METRIC_NAMES, check_penalty,
                       group_item_averages, metric)
from .ingest import FilteredDataset, check_test_fraction, filter_dataset, parse, split
from .model import ModelParams, TrainConfig, predict_entries
from .synthetic import BlockModelSpec, builtin_specs, evaluation_set, generate
from .trainer import train

SETTING_BY_SCENARIO = {
    "synthetic_U": "U",
    "synthetic_O": "O",
    "synthetic_P": "P",
    "synthetic_PO": "P+O",
}
SCENARIOS = (*SETTING_BY_SCENARIO, "movielens")

# The six penalties reported in the reference tables, in row order.
PAPER_PENALTIES = ("none", "value", "absolute", "under", "over", "nonparity")
PENALTY_LABELS = {
    "none": "None", "value": "Value", "absolute": "Absolute", "under": "Under",
    "over": "Over", "nonparity": "Non-Parity", "under_plus_over": "Under+Over",
}
METRIC_LABELS = {
    "error": "Error", "value": "Value", "absolute": "Absolute",
    "under": "Underestimation", "over": "Overestimation", "nonparity": "Non-Parity",
}
SIGNIFICANCE_LEVEL = 0.05     # a paired t-test p-value below it tells two penalties apart


def derive_seed(base: int, *labels: str) -> int:
    """Stable 63-bit seed for the root seed ``base`` and a label path, e.g.
    ``derive_seed(root, "train", "value", "3")``: the same on every platform
    and in any call order."""
    text = ":".join([str(int(base)), *map(str, labels)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & ((1 << 63) - 1)


@dataclass(frozen=True)
class ExperimentPlan:
    """What to sweep: scenario, penalties, trial count, training config;
    immutable, and checked once, when built."""

    scenario: str
    penalties: tuple = PAPER_PENALTIES
    trials: int = 3
    config: TrainConfig = TrainConfig()
    seed: int = 0
    num_users: int = BlockModelSpec.num_users
    num_items: int = BlockModelSpec.num_items
    ml_dir: str | None = None
    test_fraction: float = 0.2
    jobs: int = 1

    def __post_init__(self):
        check_field_types(self, TrainConfig=TrainConfig)
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; valid: {', '.join(SCENARIOS)}")
        if self.trials < 2:
            raise ValueError("at least 2 trials are needed for standard errors")
        if not self.penalties:
            raise ValueError("at least one penalty is required")
        for i, p in enumerate(self.penalties):
            if p in self.penalties[:i]:
                raise ValueError(f"duplicate penalty {p!r}")
            check_penalty(p)
        if self.scenario == "movielens" and not self.ml_dir:
            raise ValueError("the movielens scenario needs ml_dir")
        check_test_fraction(self.test_fraction)
        BlockModelSpec(num_users=self.num_users, num_items=self.num_items)   # checks the grid
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def data_seed(self, trial: int) -> int:
        """Seed of the dataset of ``trial``: the synthetic draw, or the
        MovieLens train/test split."""
        if self.scenario == "movielens":
            return derive_seed(self.seed, "split", trial)
        return derive_seed(self.seed, "data", self.scenario, trial)

    def train_seed(self, penalty: str, trial: int) -> int:
        """Initialization seed of the ``penalty`` model of ``trial``."""
        return derive_seed(self.seed, "train", self.scenario, penalty, trial)


@dataclass(eq=False)
class ExperimentResult:
    """The plan and its per-trial reports, ``reports[penalty][trial]``;
    everything else is derived from them.

    ``indistinguishable[metric]`` holds every penalty whose trial values are
    statistically indistinguishable from the best-mean penalty of that
    column (always including the best itself).
    """

    plan: ExperimentPlan
    reports: dict

    penalties = property(lambda self: self.plan.penalties)

    @property
    def trial_seeds(self) -> list:
        return [self.plan.data_seed(t) for t in range(self.plan.trials)]

    @property
    def train_seeds(self) -> dict:
        return {p: [self.plan.train_seed(p, t) for t in range(self.plan.trials)]
                for p in self.penalties}

    def metric_values(self, penalty: str, metric: str) -> np.ndarray:
        return np.array([getattr(r, metric) for r in self.reports[penalty]])

    @cached_property
    def means(self) -> dict:
        return {p: {m: float(np.mean(self.metric_values(p, m))) for m in METRIC_NAMES}
                for p in self.penalties}

    @cached_property
    def stderrs(self) -> dict:
        return {p: {m: float(np.std(self.metric_values(p, m), ddof=1) / math.sqrt(self.plan.trials))
                    for m in METRIC_NAMES} for p in self.penalties}

    @cached_property
    def indistinguishable(self) -> dict:
        out = {}
        for metric in METRIC_NAMES:
            best = min(self.penalties, key=lambda p: self.means[p][metric])
            best_vals = self.metric_values(best, metric)
            out[metric] = {p for p in self.penalties if p == best or paired_t_statistic(
                self.metric_values(p, metric), best_vals)[1] >= SIGNIFICANCE_LEVEL}
        return out

    def summary_dict(self):
        return {
            "scenario": self.plan.scenario,
            "penalties": list(self.penalties),
            "trials": self.plan.trials,
            "means": self.means,
            "stderrs": self.stderrs,
            "indistinguishable": {m: sorted(s) for m, s in self.indistinguishable.items()},
            "trial_seeds": self.trial_seeds,
            "train_seeds": self.train_seeds,
            # Each run overrides seed and penalty; train_seeds and the
            # penalties list record those.
            "config": {k: v for k, v in asdict(self.plan.config).items()
                       if k not in ("seed", "penalty")},
            "seed": self.plan.seed,
        }


def evaluate(params: ModelParams, targets: RatingSet, groups: GroupAssignment) -> FairnessReport:
    """Score a model against held-out targets on its grid: mean squared
    error plus the five unfairness metrics computed on the target set."""
    if (params.num_users, params.num_items) != (targets.num_users, targets.num_items):
        raise ValueError(f"model grid {params.num_users} x {params.num_items} does not match "
                         f"target grid {targets.num_users} x {targets.num_items}")
    if len(targets) == 0:
        raise ValueError("cannot evaluate on an empty target set")
    preds = predict_entries(params, targets.users, targets.items)
    error = float(np.mean((preds - targets.values) ** 2))
    avgs = group_item_averages(preds, targets, groups)
    return FairnessReport(error, *(metric(k, avgs) for k in METRIC_NAMES[1:]))


def paired_t_statistic(a, b) -> tuple[float, float]:
    """Two-sided paired t-test statistic and p-value.

    Degenerate cases: identical samples give (0, 1); zero-variance nonzero
    differences give (signed inf, 0).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be 1-d arrays of equal length")
    n = a.shape[0]
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    diff = a - b
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * float(special.stdtr(n - 1, -abs(t)))     # the two t tails, as scipy.stats.t.sf
    return t, p


def _run_trial(plan: ExperimentPlan, trial: int, filtered: FilteredDataset | None) -> dict:
    """Train every penalty of one trial on that trial's shared dataset;
    returns penalty -> FairnessReport."""
    seed = plan.data_seed(trial)
    if plan.scenario == "movielens":
        (train_set, targets), groups = split(filtered, plan.test_fraction, seed), filtered.groups
    else:
        spec = builtin_specs(plan.num_users, plan.num_items, seed=seed)
        ds = generate(spec[SETTING_BY_SCENARIO[plan.scenario]])
        train_set, groups, targets = ds.observed, ds.groups, evaluation_set(ds)
    reports = {}
    for pen in plan.penalties:
        config = replace(plan.config, penalty=pen, seed=plan.train_seed(pen, trial))
        reports[pen] = evaluate(train(train_set, groups, config)[0], targets, groups)
    return reports


def run_experiment(plan: ExperimentPlan) -> ExperimentResult:
    """Run the full sweep described by ``plan``.

    Trials are independent and may run in parallel (``plan.jobs`` workers,
    at most one per trial); results are identical for any job count because
    every random choice is derived from the plan seed and the trials come
    back in order.
    """
    filtered = filter_dataset(parse(plan.ml_dir)) if plan.scenario == "movielens" else None
    args = (repeat(plan), range(plan.trials), repeat(filtered))
    if plan.jobs > 1:
        with ProcessPoolExecutor(max_workers=min(plan.jobs, plan.trials)) as pool:
            outputs = list(pool.map(_run_trial, *args))
    else:
        outputs = list(map(_run_trial, *args))
    return ExperimentResult(plan, {pen: [out[pen] for out in outputs] for pen in plan.penalties})


def run_bias_settings_study(trials: int = 5, **plan_fields) -> dict:
    """Penalty-free comparison across the four synthetic settings; returns
    an ExperimentResult per setting keyed U, O, P, P+O.  ``plan_fields``
    are the other ExperimentPlan fields (``config``, ``seed``,
    ``num_users``, ...), shared by the four plans."""
    return {setting: run_experiment(ExperimentPlan(scenario, ("none",), trials, **plan_fields))
            for scenario, setting in SETTING_BY_SCENARIO.items()}


def _render_table(key: str, rows, fmt: str) -> str:
    """Aggregate table over rows of (name, label, means, stderrs, best):
    ``best`` is the set of metrics whose statistically-best set holds the
    row, or None in a table without significance marks.

    ``text``: aligned ``mean ± stderr`` cells under the row labels, with
    ``*`` marking each best cell.  ``csv``: the row names with
    full-precision mean/stderr (and 0/1 best) columns per metric, so parsing
    it back reproduces the means exactly.
    """
    marked = any(best is not None for *_, best in rows)
    if fmt == "csv":
        header = [key]
        for m in METRIC_NAMES:
            header += [f"{m}_mean", f"{m}_stderr"] + ([f"{m}_best"] if marked else [])
        table = [header]
        for name, _, means, stderrs, best in rows:
            row = [name]
            for m in METRIC_NAMES:
                row += [means[m], stderrs[m]] + ([int(m in best)] if marked else [])
            table.append(row)
        return csv_text(table)
    if fmt != "text":
        raise ValueError(f"unknown render format {fmt!r}")
    table = [[key.capitalize()] + [METRIC_LABELS[m] for m in METRIC_NAMES]]
    for _, label, means, stderrs, best in rows:
        row = [label]
        for m in METRIC_NAMES:
            mark = ("*" if m in best else " ") if marked else ""
            row.append(f"{mark}{means[m]:.3f} ± {stderrs[m]:.1e}")
        table.append(row)
    return text_table(table)


def render(result: ExperimentResult, fmt: str = "text") -> str:
    """Render the penalty table (``fmt`` is ``text`` or ``csv``), rows in
    PENALTY_KINDS order, marking every cell statistically indistinguishable
    from its column best."""
    return _render_table("penalty", [
        (pen, PENALTY_LABELS[pen], result.means[pen], result.stderrs[pen],
         {m for m in METRIC_NAMES if pen in result.indistinguishable[m]})
        for pen in PENALTY_KINDS if pen in result.penalties], fmt)


def parse_table_csv(text: str) -> dict:
    """Inverse of render(..., fmt='csv'); returns
    penalty -> metric -> (mean, stderr, best_flag)."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    out = {}
    for cells in rows[1:]:
        pen = cells[0]
        out[pen] = {}
        for m in METRIC_NAMES:
            i = header.index(f"{m}_mean")
            out[pen][m] = (float(cells[i]), float(cells[i + 1]), cells[i + 2] == "1")
    return out


def render_settings(results: dict, fmt: str = "text") -> str:
    """Table over the four-setting study: one row per setting in the
    study's order, single penalty per result, no significance marks."""
    rows = []
    for name, res in results.items():
        pen = res.penalties[0]
        rows.append((name, name, res.means[pen], res.stderrs[pen], None))
    return _render_table("setting", rows, fmt)


def long_csv(results) -> str:
    """The results.csv text: a (scenario, penalty, trial, metric, value) row per report metric."""
    return csv_text([("scenario", "penalty", "trial", "metric", "value")] + [
        (res.plan.scenario, pen, trial, metric, float(getattr(report, metric)))
        for res in results for pen in res.penalties
        for trial, report in enumerate(res.reports[pen]) for metric in METRIC_NAMES])
