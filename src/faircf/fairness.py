"""Group-conditioned unfairness metrics and their differentiable penalties.

Every metric compares prediction behaviour between the disadvantaged and the
advantaged user group.  The shared statistic is a table with one row per item
and one column per group (0 advantaged, 1 disadvantaged), the layout of
``RatingPlan.key``: the mean predicted score, the mean observed score and the
entry count of each (item, group) cell, over exactly the (user, item) pairs
present in the supplied RatingSet, plus each group's overall mean
prediction.  With e_g(j) the signed error of group g on item j, mean
prediction minus mean score, each metric ``metric(kind, avgs)`` is the mean
of |d| over the rows of one gap d between the groups:

    value     d_j = e_dis(j) - e_adv(j)
    absolute  d_j = |e_dis(j)| - |e_adv(j)|
    under     d_j = max(0, -e_dis(j)) - max(0, -e_adv(j))
    over      d_j = max(0,  e_dis(j)) - max(0,  e_adv(j))
    nonparity d   = overall mean prediction (dis) - overall (adv), one row

The per-item gaps run over the items rated by BOTH groups; items seen by only
one group have undefined averages and are skipped.  Non-parity needs both
groups present.  A gap with no row gives the metric 0.

For gradient-based training each metric gets a smoothed variant: the outer
absolute value |d| is replaced by d**2 while |d| < 1 and kept as |d|
otherwise, which removes the kink at 0 (the two branches meet at 1).
``penalty`` evaluates that smoothed form from model parameters and
``penalty_gradient`` returns its analytic subgradient, using the |d|-branch
slope sign(d) at |d| = 1 and slope 0 at hinge corners and at inner
absolute-value zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GroupAssignment, RatingPlan, RatingSet, csv_text
from .model import ModelParams, PENALTY_KINDS, accumulate_gradient, predict_entries

# kind -> (transform of a group's signed error, its slope); slope 0 at the
# kinks of |e| and of the hinges.  Non-parity compares the overall means.
_GAPS = {
    "value": (lambda e: e, np.ones_like),
    "absolute": (np.abs, np.sign),
    "under": (lambda e: np.maximum(0.0, -e), lambda e: (e < 0) * -1.0),
    "over": (lambda e: np.maximum(0.0, e), lambda e: (e > 0) * 1.0),
    "nonparity": (lambda e: e, np.ones_like),
}

# Report column order, fixed for every CSV/table writer in the package.
METRIC_NAMES = ("error", *_GAPS)


@dataclass(eq=False)
class GroupItemAverages:
    """(num_items, 2) tables of per-(item, group) mean prediction, mean
    observed score and entry count, columns advantaged and disadvantaged,
    plus ``overall_pred``, the mean prediction of each group.

    Means are NaN wherever the count is zero; callers must consult the
    counts before using them.
    """

    avg_pred: np.ndarray
    avg_rating: np.ndarray
    counts: np.ndarray
    overall_pred: np.ndarray


@dataclass
class FairnessReport:
    """One evaluation row: squared error plus the five unfairness metrics."""

    error: float
    value: float
    absolute: float
    under: float
    over: float
    nonparity: float

    CSV_HEADER = ",".join(METRIC_NAMES)

    def as_dict(self):
        return {name: getattr(self, name) for name in METRIC_NAMES}

    def to_csv(self) -> str:
        return csv_text([METRIC_NAMES, [float(getattr(self, name)) for name in METRIC_NAMES]])

    @classmethod
    def from_csv(cls, text: str) -> "FairnessReport":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if len(lines) != 2 or lines[0] != cls.CSV_HEADER:
            raise ValueError("malformed fairness report CSV")
        cells = lines[1].split(",")
        if len(cells) != len(METRIC_NAMES):
            raise ValueError("malformed fairness report CSV")
        return cls(*(float(c) for c in cells))


def group_item_averages(predictions, ratings, groups: GroupAssignment | None = None
                        ) -> GroupItemAverages:
    """Per-item and overall group means of predictions and observed scores.

    ``predictions`` is aligned with the entries of ``ratings``: a RatingSet
    with its ``groups``, or a RatingPlan that holds them.  One bincount over
    the plan's (item, group) key gives every per-item prediction sum; the
    counts and the rating sums come with the plan.
    """
    plan = RatingPlan.of(ratings, groups)
    predictions = np.asarray(predictions, dtype=np.float64)
    if predictions.shape != plan.values.shape:
        raise ValueError("predictions must align with the rating entries")
    n = plan.num_items
    counts = plan.key_counts.reshape(n, 2)
    pred_sums = np.bincount(plan.key, weights=predictions, minlength=2 * n)
    with np.errstate(invalid="ignore", divide="ignore"):
        avg_pred = pred_sums.reshape(n, 2) / counts
        avg_rating = plan.key_rating_sums.reshape(n, 2) / counts
    overall = [predictions[mask].mean() if size else np.nan
               for mask, size in zip((~plan.dis, plan.dis), counts.sum(axis=0))]
    return GroupItemAverages(avg_pred, avg_rating, counts, np.array(overall))


def _gap(kind: str, avgs: GroupItemAverages):
    """The gap d of the ``kind`` metric, one per row, with its partials with
    respect to the two averaged predictions of the row, the entry count
    behind each of those averages (columns as in ``avgs``), and the items
    the row's partials apply to."""
    if kind not in _GAPS:
        raise ValueError(f"unknown fairness metric {kind!r}; valid: {', '.join(_GAPS)}")
    if kind == "nonparity":
        # One row: the overall means, against 0; its partials reach every item.
        pred, rating = avgs.overall_pred[None], 0.0
        counts = avgs.counts.sum(axis=0, keepdims=True)
    else:
        pred, rating, counts = avgs.avg_pred, avgs.avg_rating, avgs.counts
    rows = (counts[:, 0] > 0) & (counts[:, 1] > 0)
    error = (pred - rating)[rows]
    transform, slope = _GAPS[kind]
    d = transform(error[:, 1]) - transform(error[:, 0])
    items = slice(None) if kind == "nonparity" else rows
    return d, slope(error) * (-1.0, 1.0), counts[rows], items


def metric(kind: str, avgs: GroupItemAverages) -> float:
    """The ``kind`` unfairness metric (one of METRIC_NAMES after "error"):
    the mean of |d| over the rows of its gap, 0 when it has none."""
    d = _gap(kind, avgs)[0]
    return float(np.mean(np.abs(d))) if d.size else 0.0


def smoothed_penalty_term(d):
    """Huber-style surrogate for |d|: d**2 while |d| < 1, else |d|.

    Accepts scalars or arrays and preserves the input shape.
    """
    arr = np.asarray(d, dtype=np.float64)
    out = np.where(np.abs(arr) < 1.0, arr * arr, np.abs(arr))
    return float(out) if np.isscalar(d) or arr.ndim == 0 else out


def _smoothed_slope(d):
    """Derivative of smoothed_penalty_term; sign(d) on |d| >= 1 (the
    |d|-branch wins at the |d| = 1 kink)."""
    arr = np.asarray(d, dtype=np.float64)
    return np.where(np.abs(arr) < 1.0, 2.0 * arr, np.sign(arr))


def _smoothed_terms(kind: str, avgs: GroupItemAverages) -> tuple[float, np.ndarray]:
    """Smoothed metric and its derivative d metric / d yhat_k.  All entries
    of one (item, group) cell share that derivative, so it comes as a table
    in the layout of ``avgs``."""
    if kind == "under_plus_over":
        under, c_under = _smoothed_terms("under", avgs)
        over, c_over = _smoothed_terms("over", avgs)
        return under + over, c_under + c_over
    d, partial, counts, items = _gap(kind, avgs)
    coeff = np.zeros(avgs.counts.shape)
    if not d.size:
        return 0.0, coeff
    # outer slope * inner partial / (gap count * cell count)
    coeff[items] = (_smoothed_slope(d)[:, None] * partial) / (d.size * counts)
    return float(np.mean(smoothed_penalty_term(d))), coeff


def penalty_terms(kind: str, predictions, plan: RatingPlan,
                  weight: float = 1.0) -> tuple[float, np.ndarray]:
    """The weighted smoothed penalty and its derivative d penalty / d yhat_k
    for every rating entry, from ``predictions`` already made for the
    entries of ``plan``."""
    if kind not in PENALTY_KINDS:
        raise ValueError(f"unknown penalty {kind!r}; valid: {', '.join(PENALTY_KINDS)}")
    if kind == "none":
        return 0.0, np.zeros(len(plan))
    if len(plan) == 0:
        raise ValueError("cannot evaluate a penalty on an empty rating set")
    value, coeff = _smoothed_terms(kind, group_item_averages(predictions, plan))
    return weight * value, (weight * coeff).ravel()[plan.key]


def penalty(kind: str, params: ModelParams, ratings: RatingSet,
            groups: GroupAssignment, weight: float = 1.0) -> float:
    """Smoothed unfairness penalty of the model on the given rating set."""
    plan = RatingPlan(ratings, groups)
    return penalty_terms(kind, predict_entries(params, plan.users, plan.items), plan, weight)[0]


def penalty_gradient(kind: str, params: ModelParams, ratings: RatingSet,
                     groups: GroupAssignment, weight: float = 1.0) -> ModelParams:
    """Analytic (sub)gradient of ``penalty`` with respect to every parameter,
    in the parameter layout."""
    plan = RatingPlan(ratings, groups)
    preds = predict_entries(params, plan.users, plan.items)
    return accumulate_gradient(params, plan, penalty_terms(kind, preds, plan, weight)[1])
