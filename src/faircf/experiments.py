"""Multi-trial experiment harness: held-out evaluation, penalty sweeps with
a paired design, paired t-tests, and table rendering.

A sweep trains one model per penalty kind per trial.  All penalties inside a
trial share the same dataset (synthetic draw or train/test split), so
per-trial differences between penalties are paired observations; the
significance marking in the rendered tables uses a two-sided paired t-test
against the best-mean penalty of each metric column.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np
from scipy import stats

from .data import GroupAssignment, RatingPlan, RatingSet, csv_text, text_table
from .fairness import FairnessReport, METRIC_NAMES, group_item_averages, metric
from .ingest import FilteredDataset, filter_dataset, parse, split
from .model import ModelParams, TrainConfig, predict_entries
from .seeding import derive_seed
from .synthetic import builtin_specs, evaluation_set, generate
from .trainer import train

SCENARIOS = ("synthetic_U", "synthetic_O", "synthetic_P", "synthetic_PO", "movielens")
SETTING_BY_SCENARIO = {
    "synthetic_U": "U",
    "synthetic_O": "O",
    "synthetic_P": "P",
    "synthetic_PO": "P+O",
}

# The six penalties reported in the reference tables, in row order.
PAPER_PENALTIES = ("none", "value", "absolute", "under", "over", "nonparity")
PENALTY_ROW_ORDER = PAPER_PENALTIES + ("under_plus_over",)
PENALTY_LABELS = {
    "none": "None", "value": "Value", "absolute": "Absolute", "under": "Under",
    "over": "Over", "nonparity": "Non-Parity", "under_plus_over": "Under+Over",
}
METRIC_LABELS = {
    "error": "Error", "value": "Value", "absolute": "Absolute",
    "under": "Underestimation", "over": "Overestimation", "nonparity": "Non-Parity",
}


@dataclass
class ExperimentPlan:
    """What to sweep: scenario, penalties, trial count, training config."""

    scenario: str
    penalties: tuple = PAPER_PENALTIES
    trials: int = 3
    config: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    num_users: int = 400
    num_items: int = 300
    ml_dir: str | None = None
    test_fraction: float = 0.2
    jobs: int = 1

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; valid: {', '.join(SCENARIOS)}")
        if self.trials < 2:
            raise ValueError("at least 2 trials are needed for standard errors")
        if not self.penalties:
            raise ValueError("at least one penalty is required")
        seen = set()
        for p in self.penalties:
            if p in seen:
                raise ValueError(f"duplicate penalty {p!r}")
            seen.add(p)
            replace(self.config, penalty=p)  # reuses TrainConfig validation
        if self.scenario == "movielens" and not self.ml_dir:
            raise ValueError("the movielens scenario needs ml_dir")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass(eq=False)
class ExperimentResult:
    """Per-trial reports plus aggregates and significance sets.

    ``indistinguishable[metric]`` holds every penalty whose trial values are
    statistically indistinguishable from the best-mean penalty of that
    column (always including the best itself).
    """

    scenario: str
    penalties: tuple
    trials: int
    reports: dict
    means: dict
    stderrs: dict
    indistinguishable: dict
    trial_seeds: list
    train_seeds: dict
    plan: ExperimentPlan

    def metric_values(self, penalty: str, metric: str) -> np.ndarray:
        return np.array([getattr(r, metric) for r in self.reports[penalty]])

    def long_rows(self):
        """(scenario, penalty, trial, metric, value) rows for results.csv."""
        rows = []
        for pen in self.penalties:
            for trial, report in enumerate(self.reports[pen]):
                for metric in METRIC_NAMES:
                    rows.append((self.scenario, pen, trial, metric, getattr(report, metric)))
        return rows

    def summary_dict(self):
        return {
            "scenario": self.scenario,
            "penalties": list(self.penalties),
            "trials": self.trials,
            "means": {p: dict(self.means[p]) for p in self.penalties},
            "stderrs": {p: dict(self.stderrs[p]) for p in self.penalties},
            "indistinguishable": {m: sorted(s) for m, s in self.indistinguishable.items()},
            "trial_seeds": list(self.trial_seeds),
            "train_seeds": {p: list(s) for p, s in self.train_seeds.items()},
            # Each run overrides seed and penalty; train_seeds and the
            # penalties list record those.
            "config": {k: v for k, v in asdict(self.plan.config).items()
                       if k not in ("seed", "penalty")},
            "seed": self.plan.seed,
        }


def evaluate(params: ModelParams, targets: RatingSet, groups: GroupAssignment) -> FairnessReport:
    """Score a model against held-out targets: mean squared error plus the
    five unfairness metrics computed on the target set."""
    if len(targets) == 0:
        raise ValueError("cannot evaluate on an empty target set")
    plan = RatingPlan(targets, groups)
    preds = predict_entries(params, plan.users, plan.items)
    error = float(np.mean((preds - plan.values) ** 2))
    avgs = group_item_averages(preds, plan)
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
    p = 2.0 * float(stats.t.sf(abs(t), n - 1))
    return t, p


def paired_t_test(a, b, alpha: float = 0.05) -> str:
    """'distinct' when the two paired samples differ at level alpha, else
    'indistinguishable' (p >= alpha keeps the null)."""
    _, p = paired_t_statistic(a, b)
    return "indistinguishable" if p >= alpha else "distinct"


def _synthetic_trial(plan: ExperimentPlan, trial: int):
    data_seed = derive_seed(plan.seed, "data", plan.scenario, trial)
    setting = SETTING_BY_SCENARIO[plan.scenario]
    spec = builtin_specs(plan.num_users, plan.num_items, seed=data_seed)[setting]
    ds = generate(spec)
    return ds.observed, ds.groups, evaluation_set(ds), data_seed


def _movielens_trial(filtered: FilteredDataset, plan: ExperimentPlan, trial: int):
    split_seed = derive_seed(plan.seed, "split", trial)
    train_set, test_set = split(filtered.ratings, plan.test_fraction, split_seed)
    return train_set, filtered.groups, test_set, split_seed


def _run_trial(plan: ExperimentPlan, trial: int, filtered: FilteredDataset | None):
    """Train every penalty of one trial on that trial's shared dataset."""
    if plan.scenario == "movielens":
        train_set, groups, targets, data_seed = _movielens_trial(filtered, plan, trial)
    else:
        train_set, groups, targets, data_seed = _synthetic_trial(plan, trial)
    out = {}
    seeds = {}
    for pen in plan.penalties:
        train_seed = derive_seed(plan.seed, "train", plan.scenario, pen, trial)
        config = replace(plan.config, penalty=pen, seed=train_seed)
        params, _ = train(train_set, groups, config)
        out[pen] = evaluate(params, targets, groups)
        seeds[pen] = train_seed
    return trial, data_seed, seeds, out


def run_experiment(plan: ExperimentPlan) -> ExperimentResult:
    """Run the full sweep described by ``plan``.

    Trials are independent and may run in parallel (``plan.jobs``); results
    are identical for any job count because every random choice is derived
    from the plan seed and aggregation order is fixed.
    """
    plan.validate()
    filtered = None
    if plan.scenario == "movielens":
        filtered = filter_dataset(parse(plan.ml_dir))

    trials = range(plan.trials)
    if plan.jobs > 1:
        with ProcessPoolExecutor(max_workers=plan.jobs) as pool:
            outputs = list(pool.map(_run_trial, repeat(plan), trials, repeat(filtered)))
    else:
        outputs = map(_run_trial, repeat(plan), trials, repeat(filtered))
    trial_outputs = {trial: rest for trial, *rest in outputs}

    reports = {pen: [trial_outputs[t][2][pen] for t in range(plan.trials)]
               for pen in plan.penalties}
    trial_seeds = [trial_outputs[t][0] for t in range(plan.trials)]
    train_seeds = {pen: [trial_outputs[t][1][pen] for t in range(plan.trials)]
                   for pen in plan.penalties}

    means = {pen: {m: float(np.mean([getattr(r, m) for r in reports[pen]]))
                   for m in METRIC_NAMES} for pen in plan.penalties}
    stderrs = {pen: {m: float(np.std([getattr(r, m) for r in reports[pen]], ddof=1)
                              / math.sqrt(plan.trials))
                     for m in METRIC_NAMES} for pen in plan.penalties}

    indistinguishable = {}
    for metric in METRIC_NAMES:
        best = min(plan.penalties, key=lambda p: means[p][metric])
        best_vals = np.array([getattr(r, metric) for r in reports[best]])
        members = {best}
        for pen in plan.penalties:
            if pen == best:
                continue
            vals = np.array([getattr(r, metric) for r in reports[pen]])
            if paired_t_test(vals, best_vals) == "indistinguishable":
                members.add(pen)
        indistinguishable[metric] = members

    return ExperimentResult(plan.scenario, tuple(plan.penalties), plan.trials, reports,
                            means, stderrs, indistinguishable, trial_seeds, train_seeds, plan)


def run_bias_settings_study(trials: int = 5, num_users: int = 400, num_items: int = 300,
                            config: TrainConfig | None = None, seed: int = 0,
                            jobs: int = 1) -> dict:
    """Penalty-free comparison across the four synthetic settings; returns
    an ExperimentResult per setting keyed U, O, P, P+O."""
    results = {}
    for scenario, setting in SETTING_BY_SCENARIO.items():
        plan = ExperimentPlan(scenario=scenario, penalties=("none",), trials=trials,
                              config=config if config is not None else TrainConfig(),
                              seed=seed, num_users=num_users, num_items=num_items, jobs=jobs)
        results[setting] = run_experiment(plan)
    return results


def _ordered(names, preferred) -> list:
    """``names`` with the ``preferred`` ones first, in that order."""
    return [n for n in preferred if n in names] + [n for n in names if n not in preferred]


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
    """Render the penalty table (``fmt`` is ``text`` or ``csv``), marking
    every cell statistically indistinguishable from its column best."""
    return _render_table("penalty", [
        (pen, PENALTY_LABELS.get(pen, pen), result.means[pen], result.stderrs[pen],
         {m for m in METRIC_NAMES if pen in result.indistinguishable[m]})
        for pen in _ordered(result.penalties, PENALTY_ROW_ORDER)], fmt)


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
    """Table over the four-setting study: one row per setting, single
    penalty per result, no significance marks."""
    rows = []
    for name in _ordered(results, SETTING_BY_SCENARIO.values()):
        res = results[name]
        pen = res.penalties[0]
        rows.append((name, name, res.means[pen], res.stderrs[pen], None))
    return _render_table("setting", rows, fmt)


def write_long_csv(rows, path):
    """Write (scenario, penalty, trial, metric, value) rows with a header."""
    Path(path).write_text(csv_text([("scenario", "penalty", "trial", "metric", "value")] + [
        (scenario, pen, trial, metric, float(value))
        for scenario, pen, trial, metric, value in rows]), encoding="utf-8")
