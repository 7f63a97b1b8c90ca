"""Full-gradient Adam training loop for the penalized objective.

Each iteration computes the exact gradient of

    L = mf_objective(params) + penalty_weight * penalty(kind, params)

over the whole training set (no minibatching) and applies one Adam update.
Everything that depends only on the ratings and the group labels (the group
check, each entry's (item, group) key with its counts and rating sums, the
CSR pattern of the grid) is built once per run, as a RatingPlan.  One pass
per update then predicts the observed cells once, reads the objective, the
penalty and dL/dyhat per entry off that prediction, and chains the latter
back to the parameters once.  Parameters are initialized i.i.d.
normal with standard deviation 0.1 from the seeded generator, in one draw
over the flat layout (user vectors, item vectors, user biases, item
biases), so a given (data, config) pair always trains to bit-identical
parameters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import GroupAssignment, RatingPlan, RatingSet, csv_text
from .fairness import penalty_terms
from .model import (ModelParams, TrainConfig, accumulate_gradient, mf_objective_terms,
                    predict_entries)

INIT_SCALE = 0.1


class DivergenceError(RuntimeError):
    """The objective stopped being finite; the message names the non-finite parameter blocks."""

    def __init__(self, iteration: int, value: float, params: ModelParams):
        bad = [name for name in ("user_vectors", "item_vectors", "user_bias", "item_bias")
               if not np.all(np.isfinite(getattr(params, name)))]
        cause = "non-finite " + ", ".join(bad) if bad else "all parameters finite, objective overflowed"
        super().__init__(f"objective became non-finite at iteration {iteration} "
                         f"(value {value}; {cause})")
        self.iteration = iteration


@dataclass(eq=False)
class TrainTrace:
    """Per-iteration objective and penalty values plus the wall-clock cost.

    Entry t holds the values measured right after update t, so the last
    entries match an independent recomputation on the returned parameters.
    """

    objective: np.ndarray
    penalty: np.ndarray
    duration_seconds: float

    def __len__(self):
        return int(self.objective.shape[0])

    def write_csv(self, path):
        rows = zip(range(1, len(self) + 1), self.objective.tolist(), self.penalty.tolist())
        Path(path).write_text(csv_text([("iteration", "objective", "penalty"), *rows]),
                              encoding="utf-8")


def init_params(num_users: int, num_items: int, d: int, rng: np.random.Generator) -> ModelParams:
    """Fresh parameters, every entry drawn N(0, INIT_SCALE**2)."""
    size = (num_users + num_items) * (d + 1)
    return ModelParams.from_flat(rng.normal(0.0, INIT_SCALE, size=size), num_users, num_items, d)


def adam_step(theta: np.ndarray, grad: np.ndarray, first_moment: np.ndarray,
              second_moment: np.ndarray, step: int,
              config: TrainConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adam update number ``step`` (from 1) on flat vectors; returns fresh
    parameters and moments, inputs untouched."""
    b1, b2 = config.adam_beta1, config.adam_beta2
    m = b1 * first_moment + (1.0 - b1) * grad
    v = b2 * second_moment + (1.0 - b2) * grad * grad
    theta = theta - (config.learning_rate * (m / (1.0 - b1 ** step))
                     / (np.sqrt(v / (1.0 - b2 ** step)) + config.adam_epsilon))
    return theta, m, v


def loss_terms(params: ModelParams, ratings, groups: GroupAssignment | None,
               config: TrainConfig) -> tuple[float, float, np.ndarray]:
    """One prediction pass: the objective, the weighted penalty and
    dL/dyhat for every rating entry; ``accumulate_gradient(params, ratings,
    weights, config.lambda_reg)`` turns the last into the gradient of L.
    ``ratings`` is a RatingSet with its ``groups``, or a RatingPlan."""
    plan = RatingPlan.of(ratings, groups)
    preds = predict_entries(params, plan.users, plan.items)
    objective, weights = mf_objective_terms(params, plan, preds, config.lambda_reg)
    if config.penalty == "none":
        return objective, 0.0, weights
    pen, pen_weights = penalty_terms(config.penalty, preds, plan, config.penalty_weight)
    weights += pen_weights
    return objective, pen, weights


def train(ratings: RatingSet, groups: GroupAssignment,
          config: TrainConfig) -> tuple[ModelParams, TrainTrace]:
    """Train a model on ``ratings`` under ``config``.

    Returns the final parameters and the per-iteration trace.  With
    ``iterations == 0`` the seeded initialization is returned unchanged and
    the trace is empty.
    """
    config.validate()
    if len(ratings) == 0:
        raise ValueError("cannot train on an empty rating set")
    plan = RatingPlan(ratings, groups)
    rng = np.random.default_rng(config.seed)
    m, n, d = ratings.num_users, ratings.num_items, config.d
    params = init_params(m, n, d, rng)
    objectives = np.empty(config.iterations)
    penalties = np.empty(config.iterations)
    start = time.perf_counter()
    first = np.zeros_like(params.flat)
    second = np.zeros_like(params.flat)
    _, _, weights = loss_terms(params, plan, None, config)
    for t in range(1, config.iterations + 1):
        grad = accumulate_gradient(params, plan, weights, config.lambda_reg).flat
        theta, first, second = adam_step(params.flat, grad, first, second, t, config)
        params = ModelParams.from_flat(theta, m, n, d)
        # The pass that starts update t + 1 also gives the trace entry of update t.
        obj, pen, weights = loss_terms(params, plan, None, config)
        if not (math.isfinite(obj) and math.isfinite(pen)):
            raise DivergenceError(t, obj + pen, params)
        objectives[t - 1] = obj
        penalties[t - 1] = pen
    trace = TrainTrace(objectives, penalties, time.perf_counter() - start)
    return params, trace
