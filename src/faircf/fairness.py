"""Group-conditioned unfairness metrics and their differentiable penalties.

Every metric compares prediction behaviour between the disadvantaged and the
advantaged user group.  The shared statistic is the per-item group average:
for item j and each group, the mean predicted score and the mean observed
score over exactly the (user, item) pairs present in the supplied RatingSet.
With signed per-item errors

    e_g(j)  = avg prediction by disadvantaged raters - avg score they gave
    e_a(j)  = the same for advantaged raters

the five metrics are

    value     mean_j | e_g(j) - e_a(j) |
    absolute  mean_j | |e_g(j)| - |e_a(j)| |
    under     mean_j | max(0, -e_g(j)) - max(0, -e_a(j)) |
    over      mean_j | max(0,  e_g(j)) - max(0,  e_a(j)) |
    nonparity | overall avg prediction (disadvantaged) - overall (advantaged) |

Per-item means run over the items rated by BOTH groups; items seen by only
one group have undefined averages and are skipped.  If no item qualifies the
metric is 0.

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

# Report column order, fixed for every CSV/table writer in the package.
METRIC_NAMES = ("error", "value", "absolute", "under", "over", "nonparity")


@dataclass(eq=False)
class GroupItemAverages:
    """Per-item group means plus the overall per-group prediction means.

    Array slots are NaN wherever the corresponding count is zero; callers
    must consult the counts (or ``both_observed``) before using them.
    """

    avg_pred_dis: np.ndarray
    avg_pred_adv: np.ndarray
    avg_rating_dis: np.ndarray
    avg_rating_adv: np.ndarray
    count_dis: np.ndarray
    count_adv: np.ndarray
    overall_pred_dis: float
    overall_pred_adv: float

    @property
    def both_observed(self) -> np.ndarray:
        """Mask of items rated by at least one user of each group."""
        return (self.count_dis > 0) & (self.count_adv > 0)


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
    dis = plan.dis
    n_dis = int(counts[:, 1].sum())
    overall_dis = float(predictions[dis].mean()) if n_dis else float("nan")
    overall_adv = float(predictions[~dis].mean()) if n_dis < len(plan) else float("nan")
    return GroupItemAverages(avg_pred[:, 1], avg_pred[:, 0], avg_rating[:, 1], avg_rating[:, 0],
                             counts[:, 1], counts[:, 0], overall_dis, overall_adv)


def _mean_gap(kind: str, avgs: GroupItemAverages) -> float:
    """Mean of |d_j| over the items rated by both groups, with d_j the
    per-item gap that the ``kind`` penalty smooths; 0 if no item qualifies."""
    valid = avgs.both_observed
    if not valid.any():
        return 0.0
    return float(np.mean(np.abs(_inner_terms(kind, avgs)[0][valid])))


def metric_value(avgs: GroupItemAverages) -> float:
    """Mean absolute gap between the two groups' signed per-item errors."""
    return _mean_gap("value", avgs)


def metric_absolute(avgs: GroupItemAverages) -> float:
    """Mean absolute gap between the groups' per-item error magnitudes."""
    return _mean_gap("absolute", avgs)


def metric_under(avgs: GroupItemAverages) -> float:
    """Mean absolute gap between the groups' per-item underestimation."""
    return _mean_gap("under", avgs)


def metric_over(avgs: GroupItemAverages) -> float:
    """Mean absolute gap between the groups' per-item overestimation."""
    return _mean_gap("over", avgs)


def metric_nonparity(avgs: GroupItemAverages) -> float:
    """Absolute gap between the groups' overall average predictions.

    Returns 0 when either group contributed no entries at all (the overall
    average is then undefined), mirroring the empty-item-set convention.
    """
    if np.isnan(avgs.overall_pred_dis) or np.isnan(avgs.overall_pred_adv):
        return 0.0
    return abs(avgs.overall_pred_dis - avgs.overall_pred_adv)


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


def _inner_terms(kind: str, avgs: GroupItemAverages):
    """Outer argument d_j per item plus its partials with respect to each
    group's average prediction.  Invalid items yield NaN and are masked by
    the callers."""
    with np.errstate(invalid="ignore"):
        err_dis = avgs.avg_pred_dis - avgs.avg_rating_dis
        err_adv = avgs.avg_pred_adv - avgs.avg_rating_adv
        if kind == "value":
            d = err_dis - err_adv
            fac_dis = np.ones_like(d)
            fac_adv = -np.ones_like(d)
        elif kind == "absolute":
            d = np.abs(err_dis) - np.abs(err_adv)
            fac_dis = np.sign(err_dis)
            fac_adv = -np.sign(err_adv)
        elif kind == "under":
            d = np.maximum(0.0, -err_dis) - np.maximum(0.0, -err_adv)
            fac_dis = -(err_dis < 0).astype(np.float64)
            fac_adv = (err_adv < 0).astype(np.float64)
        elif kind == "over":
            d = np.maximum(0.0, err_dis) - np.maximum(0.0, err_adv)
            fac_dis = (err_dis > 0).astype(np.float64)
            fac_adv = -(err_adv > 0).astype(np.float64)
        else:
            raise ValueError(f"no per-item form for penalty kind {kind!r}")
    return d, fac_dis, fac_adv


def _smoothed_terms(kind: str, avgs: GroupItemAverages) -> tuple[float, np.ndarray]:
    """Smoothed metric and its derivative d metric / d yhat_k.  All entries
    of one (item, group) cell share that derivative, so it comes as a table
    of one coefficient per item (rows) and group (columns advantaged,
    disadvantaged), in the layout of RatingPlan.key."""
    if kind == "under_plus_over":
        under, c_under = _smoothed_terms("under", avgs)
        over, c_over = _smoothed_terms("over", avgs)
        return under + over, c_under + c_over
    coeff = np.zeros((avgs.count_dis.shape[0], 2))
    if kind == "nonparity":
        n_dis, n_adv = int(avgs.count_dis.sum()), int(avgs.count_adv.sum())
        if n_dis == 0 or n_adv == 0:
            return 0.0, coeff
        gap = avgs.overall_pred_dis - avgs.overall_pred_adv
        slope = float(_smoothed_slope(gap))
        coeff[:] = -slope / n_adv, slope / n_dis
        return float(smoothed_penalty_term(gap)), coeff
    valid = avgs.both_observed
    n_valid = int(valid.sum())
    if n_valid == 0:
        return 0.0, coeff
    d, fac_dis, fac_adv = _inner_terms(kind, avgs)
    slope = _smoothed_slope(d[valid])
    # outer slope * inner partial / (|valid| * group count)
    coeff[valid, 1] = slope * fac_dis[valid] / (n_valid * avgs.count_dis[valid])
    coeff[valid, 0] = slope * fac_adv[valid] / (n_valid * avgs.count_adv[valid])
    return float(np.mean(smoothed_penalty_term(d[valid]))), coeff


def penalty_terms(kind: str, predictions, ratings, groups: GroupAssignment | None,
                  weight: float = 1.0) -> tuple[float, np.ndarray]:
    """The weighted smoothed penalty and its derivative d penalty / d yhat_k
    for every rating entry, from ``predictions`` already made for
    ``ratings`` (a RatingSet with its ``groups``, or a RatingPlan)."""
    if kind not in PENALTY_KINDS:
        raise ValueError(f"unknown penalty {kind!r}; valid: {', '.join(PENALTY_KINDS)}")
    plan = RatingPlan.of(ratings, groups)
    if kind == "none":
        return 0.0, np.zeros(len(plan))
    if len(plan) == 0:
        raise ValueError("cannot evaluate a penalty on an empty rating set")
    value, coeff = _smoothed_terms(kind, group_item_averages(predictions, plan))
    return weight * value, (weight * coeff).ravel()[plan.key]


def penalty(kind: str, params: ModelParams, ratings: RatingSet,
            groups: GroupAssignment, weight: float = 1.0) -> float:
    """Smoothed unfairness penalty of the model on the given rating set."""
    preds = predict_entries(params, ratings.users, ratings.items)
    return penalty_terms(kind, preds, ratings, groups, weight)[0]


def penalty_gradient(kind: str, params: ModelParams, ratings: RatingSet,
                     groups: GroupAssignment, weight: float = 1.0) -> ModelParams:
    """Analytic (sub)gradient of ``penalty`` with respect to every parameter,
    in the parameter layout."""
    plan = RatingPlan(ratings, groups)
    preds = predict_entries(params, plan.users, plan.items)
    return accumulate_gradient(params, plan, penalty_terms(kind, preds, plan, None, weight)[1])
