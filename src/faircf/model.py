"""Biased matrix-factorization model: parameters, prediction rule, the
regularized squared-error objective and its analytic gradient.

A score is predicted as

    yhat_ij = p_i . q_j + u_i + v_j

with user vectors P (rows p_i), item vectors Q (rows q_j) and scalar biases
u, v.  The training objective over an observed rating set X is

    J = (reg / 2) * (||P||_F^2 + ||Q||_F^2) + (1 / |X|) * sum (yhat_ij - r_ij)^2

The bias vectors are deliberately left out of the norm term.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .data import RatingPlan, RatingSet, read_fields, write_fields

# Valid penalty selectors for TrainConfig and the fairness module.
PENALTY_KINDS = ("none", "value", "absolute", "under", "over", "nonparity", "under_plus_over")


class ModelParams:
    """Dense model state: (num_users, d) and (num_items, d) factor matrices
    plus one bias per user and per item.

    All four blocks live in one flat float64 vector ``flat``, laid out user
    vectors, item vectors, user biases, item biases; the block attributes are
    views into it.  Gradients and optimizer moments use the same layout.
    """

    def __init__(self, user_vectors, item_vectors, user_bias, item_bias):
        blocks = [np.asarray(a, dtype=np.float64)
                  for a in (user_vectors, item_vectors, user_bias, item_bias)]
        p, q, u, v = blocks
        if p.ndim != 2 or q.ndim != 2:
            raise ValueError("factor matrices must be 2-d")
        if p.shape[1] != q.shape[1]:
            raise ValueError("user and item vectors must share the latent dimension")
        if u.shape != (p.shape[0],):
            raise ValueError("user_bias length must match user_vectors")
        if v.shape != (q.shape[0],):
            raise ValueError("item_bias length must match item_vectors")
        self.flat = np.concatenate([b.ravel() for b in blocks])
        self.num_users, self.num_items, self.d = p.shape[0], q.shape[0], p.shape[1]
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("model parameters must be finite")

    @classmethod
    def from_flat(cls, flat, num_users, num_items, d) -> "ModelParams":
        """Wrap a flat vector in the block layout, without copying it or
        checking its values."""
        if flat.shape != ((num_users + num_items) * (d + 1),):
            raise ValueError("flat parameter vector does not match the block sizes")
        params = cls.__new__(cls)
        params.flat, params.num_users, params.num_items, params.d = flat, num_users, num_items, d
        return params

    def arrays(self):
        """User vectors, item vectors, user biases and item biases, as views
        into ``flat``."""
        m, n, d = self.num_users, self.num_items, self.d
        p, q, u, v = np.split(self.flat, [m * d, (m + n) * d, (m + n) * d + m])
        return p.reshape(m, d), q.reshape(n, d), u, v

    user_vectors = property(lambda self: self.arrays()[0])
    item_vectors = property(lambda self: self.arrays()[1])
    user_bias = property(lambda self: self.arrays()[2])
    item_bias = property(lambda self: self.arrays()[3])

    def copy(self) -> "ModelParams":
        return ModelParams.from_flat(self.flat.copy(), self.num_users, self.num_items, self.d)

    @classmethod
    def zeros(cls, num_users, num_items, d) -> "ModelParams":
        return cls.from_flat(np.zeros((num_users + num_items) * (d + 1)), num_users, num_items, d)


@dataclass
class TrainConfig:
    """Hyperparameters for the full-gradient Adam loop.

    ``penalty`` selects the fairness term added to the objective (one of
    PENALTY_KINDS); ``penalty_weight`` scales it and defaults to equal
    weighting.
    """

    d: int = 2
    lambda_reg: float = 1e-3
    iterations: int = 250
    learning_rate: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0
    penalty: str = "none"
    penalty_weight: float = 1.0

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.d < 1:
            raise ValueError("latent dimension must be >= 1")
        if self.lambda_reg < 0:
            raise ValueError("lambda_reg must be >= 0")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam betas must lie in [0, 1)")
        if self.adam_epsilon <= 0:
            raise ValueError("adam_epsilon must be > 0")
        if self.penalty not in PENALTY_KINDS:
            raise ValueError(f"unknown penalty {self.penalty!r}; valid: {', '.join(PENALTY_KINDS)}")
        if self.penalty_weight < 0:
            raise ValueError("penalty_weight must be >= 0")


def predict(params: ModelParams, user: int, item: int) -> float:
    """Predicted score for a single (user, item) pair."""
    if not 0 <= user < params.num_users:
        raise IndexError(f"user index {user} out of range")
    if not 0 <= item < params.num_items:
        raise IndexError(f"item index {item} out of range")
    return float(params.user_vectors[user] @ params.item_vectors[item]
                 + params.user_bias[user] + params.item_bias[item])


def predict_entries(params: ModelParams, users, items) -> np.ndarray:
    """Predicted scores for parallel index arrays (indices assumed valid).

    Each factor column is gathered from a contiguous copy of the transposed
    factor matrix.  The products of even and of odd k go to two running sums
    that meet at the end, the order in which ``einsum("ij,ij->i")`` sums
    them on two-lane SIMD for d < 8; then come the user and the item bias.
    """
    p, q, u, v = params.arrays()
    pt, qt = p.T.copy(), q.T.copy()
    dot = [pt[k][users] * qt[k][items] for k in range(min(params.d, 2))]
    for k in range(2, params.d):
        dot[k % 2] += pt[k][users] * qt[k][items]
    out = dot[0]
    if params.d > 1:
        out += dot[1]
    out += u[users]
    out += v[items]
    return out


def predict_matrix(params: ModelParams) -> np.ndarray:
    """Dense (num_users, num_items) prediction matrix."""
    return (params.user_vectors @ params.item_vectors.T
            + params.user_bias[:, None] + params.item_bias[None, :])


def mf_objective_terms(params: ModelParams, ratings, predictions,
                       lambda_reg: float) -> tuple[float, np.ndarray]:
    """The objective and its derivative dJ/dyhat_k for every rating entry,
    from ``predictions`` already made for ``ratings`` (a RatingSet or a
    RatingPlan).  The L2 part of the gradient is added by
    accumulate_gradient."""
    if len(ratings) == 0:
        raise ValueError("cannot evaluate the objective on an empty rating set")
    residual = predictions - ratings.values
    reg = 0.5 * lambda_reg * (np.sum(params.user_vectors ** 2) + np.sum(params.item_vectors ** 2))
    objective = float(reg + np.mean(residual ** 2))
    residual *= 2.0
    residual /= len(ratings)
    return objective, residual


def mf_objective(params: ModelParams, ratings: RatingSet, lambda_reg: float) -> float:
    """Regularized mean squared reconstruction error over the observed set."""
    preds = predict_entries(params, ratings.users, ratings.items)
    return mf_objective_terms(params, ratings, preds, lambda_reg)[0]


def accumulate_gradient(params: ModelParams, ratings, weights,
                        lambda_reg: float = 0.0) -> ModelParams:
    """Chain per-entry prediction-space derivatives dL/dyhat_k back to the
    parameters, plus ``lambda_reg`` times the factor matrices (the gradient
    of the L2 term).  ``weights`` is aligned with the entries of ``ratings``,
    a RatingSet or a RatingPlan; the gradient comes back in the parameter
    layout.

    The weights fill the plan's user-major CSR matrix A (one gather), and
    ``A @ [Q, 1]`` and ``A.T @ [P, 1]`` give the user and the item gradients,
    factors and bias together.  Each output sums its terms in a fixed order
    (a user's entries in entry order; an item's in user order, then entry
    order), so results are reproducible bit for bit.
    """
    a, order = RatingPlan.of(ratings).pattern
    a.data = weights if order is None else weights[order]
    m, n, d = params.num_users, params.num_items, params.d
    p, q, _, _ = params.arrays()
    by_user = a @ np.column_stack([q, np.ones(n)])
    by_item = a.T @ np.column_stack([p, np.ones(m)])
    grad = ModelParams.from_flat(np.concatenate(
        [by_user[:, :d].ravel(), by_item[:, :d].ravel(), by_user[:, d], by_item[:, d]]), m, n, d)
    if lambda_reg:
        factors = (m + n) * d
        grad.flat[:factors] += lambda_reg * params.flat[:factors]
    return grad


def mf_gradient(params: ModelParams, ratings: RatingSet, lambda_reg: float) -> ModelParams:
    """Analytic gradient of mf_objective with respect to every parameter."""
    preds = predict_entries(params, ratings.users, ratings.items)
    _, weights = mf_objective_terms(params, ratings, preds, lambda_reg)
    return accumulate_gradient(params, ratings, weights, lambda_reg)


def save_params(params: ModelParams, path):
    """Write parameters as text: a ``num_users num_items d`` header line,
    then one row per user and per item holding the factor vector followed by
    the bias, space-separated with full float precision."""
    p, q, u, v = params.arrays()
    table = np.vstack([np.column_stack([p, u]), np.column_stack([q, v])])
    write_fields(path, " ", table.T, header=f"{params.num_users} {params.num_items} {params.d}\n")


def load_params(path) -> ModelParams:
    """Read a file written by save_params."""
    with open(path, "r", encoding="utf-8") as fh:
        header = re.fullmatch(r"(\d+) (\d+) (\d+)\s*", fh.readline())
    m, n, d = map(int, header.groups()) if header else (0, 0, 0)
    if min(m, n, d) < 1:
        raise ValueError(f"{path}: line 1: expected a 'num_users num_items d' header "
                         "of three positive integers")
    if (m + n) * (d + 1) * 2 > os.path.getsize(path) + 1:   # a value takes at least 2 bytes
        raise ValueError(f"{path}: line 1: the header declares more values than the file holds")
    lines, columns = read_fields(path, " ", (float,) * (d + 1), skip=1)
    if lines.size != m + n:
        raise ValueError(f"{path}: expected {m + n} entity rows, found {lines.size}")
    table = np.column_stack(columns)
    return ModelParams(table[:m, :d], table[m:, :d], table[:m, d], table[m:, d])
