"""The trainer's loss pass and the fairness metrics against the
independent oracles.

``trainer.loss_terms`` plus ``model.accumulate_gradient`` give the
objective, the weighted penalty and the gradient of their sum;
``fairness.metric`` gives each unfairness metric.  Here they are checked
against ``tests/oracles.py``, which shares no code with the package: the
objective, the penalty and the metrics against the brute-force formulas,
the gradient against central finite differences of those formulas wherever
no kink sits nearby.  Hypothesis draws random rating sets, with one group
possibly empty, items possibly rated by one group only, and entries in
shuffled order; the degenerate cases below are pinned as examples.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faircf.data import GroupAssignment, RatingSet
from faircf.fairness import group_item_averages, metric
from faircf.model import PENALTY_KINDS, ModelParams, TrainConfig, accumulate_gradient
from faircf.trainer import loss_terms
from oracles import (away_from_kinks, brute_force_metrics, brute_force_penalty,
                     finite_difference, predictions_for)

PER_ITEM_KINDS = ("value", "absolute", "under", "over")


def oracle_objective(params, ratings, lambda_reg):
    factors = np.sum(params.user_vectors ** 2) + np.sum(params.item_vectors ** 2)
    error = brute_force_metrics(predictions_for(params, ratings), ratings,
                                np.zeros(ratings.num_users, dtype=bool))["error"]
    return 0.5 * lambda_reg * float(factors) + error


def oracle_loss(kind, ratings, disadvantaged, lambda_reg, weight):
    return lambda p: (oracle_objective(p, ratings, lambda_reg)
                      + brute_force_penalty(kind, p, ratings, disadvantaged, weight))


def fused(params, ratings, groups, kind, lambda_reg, weight):
    """Objective, penalty and gradient from the trainer's single pass."""
    config = TrainConfig(d=params.d, lambda_reg=lambda_reg, penalty=kind,
                         penalty_weight=weight)
    objective, pen, weights = loss_terms(params, ratings, groups, config)
    return objective, pen, accumulate_gradient(params, ratings, weights, lambda_reg)


def assert_gradient(grad, scalar_fn, params):
    for got, want in zip(grad.arrays(), finite_difference(scalar_fn, params)):
        assert got == pytest.approx(want, rel=1e-5, abs=1e-6)


def instance(params, cells, disadvantaged, values=None, lambda_reg=0.01, weight=1.0):
    """(params, ratings, groups, lambda_reg, weight); ``values=None`` rates
    every cell exactly as the oracle predicts it (zero errors)."""
    users, items = (np.array(c, dtype=np.int64) for c in zip(*cells))
    ratings = RatingSet(users, items, np.zeros(users.size), params.num_users, params.num_items)
    if values is None:
        values = predictions_for(params, ratings)
    ratings = RatingSet(users, items, values, params.num_users, params.num_items)
    return params, ratings, GroupAssignment(np.array(disadvantaged)), lambda_reg, weight


def dyadic_params(m, n, d):
    """Parameters whose every prediction is an exact binary fraction, so a
    zero-error instance stays exact under any summation order."""
    return ModelParams(np.full((m, d), 0.5), np.full((n, d), -0.25),
                       np.arange(m) * 0.125, np.arange(n) * -0.0625)


@st.composite
def instances(draw):
    """Hypothesis picks the shape, the density, the weights and whether to
    shuffle; a generator it seeds fills in the numbers and the labels."""
    m, n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = ModelParams(rng.uniform(-1, 1, (m, d)), rng.uniform(-1, 1, (n, d)),
                         rng.uniform(-1, 1, m), rng.uniform(-1, 1, n))
    observed = rng.random((m, n)) < draw(st.sampled_from([0.7, 0.3, 1.0]))
    observed[rng.integers(m), rng.integers(n)] = True
    cells = list(zip(*np.nonzero(observed)))
    if draw(st.booleans()):
        cells = [cells[k] for k in rng.permutation(len(cells))]
    values = rng.uniform(-5, 5, len(cells))
    return instance(params, cells, rng.random(m) < 0.5, values,
                    draw(st.sampled_from([1e-3, 0.25, 0.0])),
                    draw(st.sampled_from([1.0, 2.5, 0.0])))


ONE_GROUP_EMPTY = instance(dyadic_params(3, 2, 2), [(0, 0), (1, 1), (2, 0)],
                           [True, True, True], [1.0, -1.0, 0.5])
ONE_SIDED_ITEMS = instance(dyadic_params(4, 3, 2), [(0, 0), (1, 0), (2, 1), (3, 2)],
                           [True, True, False, False], [1.0, -1.0, 1.0, 2.0])
SINGLE_RATING = instance(dyadic_params(1, 1, 1), [(0, 0)], [False], [3.0])
SHUFFLED = instance(ModelParams([[0.3, -0.7], [0.9, 0.1], [-0.4, 0.6]],
                                [[0.2, 0.5], [-0.8, 0.3], [0.6, -0.1]],
                                [0.1, -0.2, 0.3], [-0.3, 0.2, 0.05]),
                    [(2, 1), (0, 2), (1, 0), (2, 0), (0, 0), (1, 2), (2, 2)],
                    [True, False, True], [1.0, -1.0, 0.5, 2.0, -2.0, 1.5, 0.0],
                    lambda_reg=0.1, weight=2.5)
ZERO_ERRORS = instance(dyadic_params(3, 3, 2), [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)],
                       [True, False, True], lambda_reg=0.25, weight=2.0)


@pytest.mark.parametrize("kind", PENALTY_KINDS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=instances())
@example(case=ONE_GROUP_EMPTY)
@example(case=ONE_SIDED_ITEMS)
@example(case=SINGLE_RATING)
@example(case=SHUFFLED)
@example(case=ZERO_ERRORS)
def test_loss_pass_matches_oracles(kind, case):
    params, ratings, groups, lambda_reg, weight = case
    dis = groups.disadvantaged
    objective, pen, grad = fused(params, ratings, groups, kind, lambda_reg, weight)

    assert objective == pytest.approx(oracle_objective(params, ratings, lambda_reg),
                                      rel=1e-12, abs=1e-12)
    assert pen == pytest.approx(brute_force_penalty(kind, params, ratings, dis, weight),
                                rel=1e-12, abs=1e-12)
    if kind == "none" or away_from_kinks(kind, params, ratings, dis):
        assert_gradient(grad, oracle_loss(kind, ratings, dis, lambda_reg, weight), params)


def test_zero_errors_leave_only_the_objective_gradient():
    """Every per-item error is exactly 0, the inner kink of each per-item
    metric, where the documented subgradient is 0; the smoothed d**2 is
    flat there, so the gradient is the objective's alone."""
    params, ratings, groups, lambda_reg, weight = ZERO_ERRORS
    for kind in PER_ITEM_KINDS + ("under_plus_over",):
        objective, pen, grad = fused(params, ratings, groups, kind, lambda_reg, weight)
        assert pen == 0.0
        assert objective == pytest.approx(0.5 * lambda_reg * float(
            np.sum(params.user_vectors ** 2) + np.sum(params.item_vectors ** 2)), rel=1e-12)
        assert_gradient(grad, lambda p: oracle_objective(p, ratings, lambda_reg), params)


# Signed per-item errors (disadvantaged, advantaged) that put the smoothed
# term of each kind exactly on its switch |d| = 1, away from inner kinks.
UNIT_GAP_ERRORS = {"value": (0.75, -0.25), "absolute": (-1.5, 0.5),
                   "under": (-1.25, -0.25), "over": (1.5, 0.5),
                   "under_plus_over": (-1.25, -0.25), "nonparity": (0.5, 0.5)}


@pytest.mark.parametrize("kind", sorted(UNIT_GAP_ERRORS))
def test_unit_gap_takes_the_absolute_branch(kind):
    """At |d| = 1 exactly the gradient uses the |d|-branch slope sign(d),
    which is the slope of the unsmoothed metric there."""
    e_dis, e_adv = UNIT_GAP_ERRORS[kind]
    # One item rated by one user of each group; predictions 1.5 and 0.5,
    # so the overall gap is exactly 1 too.
    params = ModelParams([[0.75], [0.25]], [[2.0]], [0.0, 0.0], [0.0])
    _, ratings, groups, lambda_reg, weight = instance(
        params, [(0, 0), (1, 0)], [True, False], [1.5 - e_dis, 0.5 - e_adv],
        lambda_reg=0.1, weight=1.5)
    metrics = ("under", "over") if kind == "under_plus_over" else (kind,)
    unsmoothed = brute_force_metrics([1.5, 0.5], ratings, groups.disadvantaged)
    assert sum(unsmoothed[m] for m in metrics) == 1.0

    objective, pen, grad = fused(params, ratings, groups, kind, lambda_reg, weight)
    assert pen == weight
    assert objective == pytest.approx(oracle_objective(params, ratings, lambda_reg), rel=1e-12)

    def loss(p):
        table = brute_force_metrics(predictions_for(p, ratings), ratings, groups.disadvantaged)
        return (oracle_objective(p, ratings, lambda_reg)
                + weight * sum(table[m] for m in metrics))

    assert_gradient(grad, loss, params)


@pytest.mark.parametrize("kind", PER_ITEM_KINDS + ("nonparity",))
@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=instances())
@example(case=ONE_GROUP_EMPTY)
@example(case=ONE_SIDED_ITEMS)
@example(case=SINGLE_RATING)
@example(case=SHUFFLED)
@example(case=ZERO_ERRORS)
def test_metric_matches_oracle(kind, case):
    params, ratings, groups, _, _ = case
    preds = predictions_for(params, ratings)
    want = brute_force_metrics(preds, ratings, groups.disadvantaged)[kind]
    got = metric(kind, group_item_averages(preds, ratings, groups))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", ["error", "parity", "under_plus_over"])
def test_metric_rejects_other_kinds(kind):
    params, ratings, groups, _, _ = SHUFFLED
    avgs = group_item_averages(predictions_for(params, ratings), ratings, groups)
    with pytest.raises(ValueError, match="unknown fairness metric"):
        metric(kind, avgs)
