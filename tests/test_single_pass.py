"""The trainer's single prediction pass against the per-term functions.

``trainer.loss_terms`` predicts once and reads the objective, the penalty and
dL/dyhat off that prediction; chained back by ``accumulate_gradient`` it
must give what the four separate passes give: ``mf_objective + penalty`` and
``mf_gradient + penalty_gradient``.  Hypothesis draws random rating sets,
including the degenerate shapes ``oracles.random_instance`` never makes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faircf.data import GroupAssignment, RatingSet
from faircf.fairness import penalty, penalty_gradient
from faircf.model import (PENALTY_KINDS, ModelParams, TrainConfig, accumulate_gradient,
                          mf_gradient, mf_objective, predict_entries)
from faircf.trainer import loss_terms

TOLERANCE = 1e-12


def make_instance(params, cells, disadvantaged, values=None, lambda_reg=0.01, weight=1.0):
    """(params, ratings, groups, lambda_reg, weight); ``values=None`` rates
    every cell exactly as the model predicts it (zero residuals)."""
    users, items = (np.array(c, dtype=np.int64) for c in zip(*cells))
    if values is None:
        values = predict_entries(params, users, items)
    ratings = RatingSet(users, items, values, params.num_users, params.num_items)
    return params, ratings, GroupAssignment(np.array(disadvantaged)), lambda_reg, weight


def grid_params(m, n, d, fill):
    return ModelParams(np.full((m, d), fill), np.full((n, d), -fill),
                       np.linspace(-0.5, 0.5, m), np.linspace(0.3, -0.3, n))


@st.composite
def instances(draw):
    """Hypothesis picks the shape, the density and the weights; a generator
    seeded by Hypothesis fills in the numbers and the group labels."""
    m, n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = ModelParams(rng.uniform(-1, 1, (m, d)), rng.uniform(-1, 1, (n, d)),
                         rng.uniform(-1, 1, m), rng.uniform(-1, 1, n))
    observed = rng.random((m, n)) < draw(st.sampled_from([0.7, 0.3, 1.0]))
    observed[rng.integers(m), rng.integers(n)] = True
    cells = list(zip(*np.nonzero(observed)))
    disadvantaged = rng.random(m) < 0.5
    values = None if rng.random() < 0.25 else rng.uniform(-5, 5, len(cells))
    lambda_reg = draw(st.sampled_from([1e-3, 0.25, 0.0]))
    weight = draw(st.sampled_from([1.0, 2.5, 0.0]))
    return make_instance(params, cells, disadvantaged, values, lambda_reg, weight)


ONE_GROUP_EMPTY = make_instance(grid_params(3, 2, 2, 0.4), [(0, 0), (1, 1), (2, 0)],
                                [True, True, True], [1.0, -1.0, 0.5])
ONE_SIDED_ITEMS = make_instance(grid_params(4, 3, 2, 0.3),
                                [(0, 0), (1, 0), (2, 1), (3, 2)],
                                [True, True, False, False], [1.0, -1.0, 1.0, 2.0])
SINGLE_RATING = make_instance(grid_params(1, 1, 1, 0.7), [(0, 0)], [False], [3.0])
ZERO_RESIDUALS = make_instance(grid_params(3, 3, 2, 0.2),
                               [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)],
                               [True, False, True])


@pytest.mark.parametrize("kind", PENALTY_KINDS)
@settings(derandomize=True, deadline=None)
@given(case=instances())
@example(case=ONE_GROUP_EMPTY)
@example(case=ONE_SIDED_ITEMS)
@example(case=SINGLE_RATING)
@example(case=ZERO_RESIDUALS)
def test_single_pass_matches_per_term_functions(kind, case):
    params, ratings, groups, lambda_reg, weight = case
    config = TrainConfig(d=params.d, lambda_reg=lambda_reg, penalty=kind,
                         penalty_weight=weight)
    objective, pen, weights = loss_terms(params, ratings, groups, config)
    grad = accumulate_gradient(params, ratings, weights, lambda_reg)

    assert abs(objective - mf_objective(params, ratings, lambda_reg)) <= TOLERANCE
    assert abs(pen - penalty(kind, params, ratings, groups, weight)) <= TOLERANCE
    want = (mf_gradient(params, ratings, lambda_reg).flat
            + penalty_gradient(kind, params, ratings, groups, weight).flat)
    assert np.max(np.abs(grad.flat - want)) <= TOLERANCE
