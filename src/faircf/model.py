"""Biased matrix-factorization model: parameters, prediction rule, the
regularized squared-error objective and its analytic gradient.

A score is predicted as

    yhat_ij = p_i . q_j + u_i + v_j

with user vectors P (rows p_i), item vectors Q (rows q_j) and scalar biases
u, v.  The training objective over an observed rating set X is

    J = (reg / 2) * (||P||_F^2 + ||Q||_F^2) + (1 / |X|) * sum (yhat_ij - r_ij)^2

The bias vectors are deliberately left out of the norm term.  Prediction
scores a dense set in user order by block GEMMs, every other set by one
gather per entry.
"""

from __future__ import annotations

import copy
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .data import RatingSet, check_field_types, open_text, read_fields, reject, write_fields
from .fairness import PENALTY_KINDS, check_penalty     # PENALTY_KINDS is re-exported

# From DENSE_RATIO on, the dense route matched or beat the per-entry one (d 1..10,
# 400x300 and 3111x1090).  A block GEMM of at most BLOCK_TERMS multiply-adds, the
# OpenBLAS threading threshold, runs on one thread: its bits ignore the count.
DENSE_RATIO = 0.6
BLOCK_TERMS = 2 ** 18


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
        m, n, d, flat = self.num_users, self.num_items, self.d, self.flat
        items, biases = m * d, (m + n) * d
        return (flat[:items].reshape(m, d), flat[items:biases].reshape(n, d),
                flat[biases:biases + m], flat[biases + m:])

    user_vectors = property(lambda self: self.arrays()[0])
    item_vectors = property(lambda self: self.arrays()[1])
    user_bias = property(lambda self: self.arrays()[2])
    item_bias = property(lambda self: self.arrays()[3])

    def copy(self) -> "ModelParams":
        return ModelParams.from_flat(self.flat.copy(), self.num_users, self.num_items, self.d)

    @classmethod
    def zeros(cls, num_users, num_items, d) -> "ModelParams":
        return cls.from_flat(np.zeros((num_users + num_items) * (d + 1)), num_users, num_items, d)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the full-gradient Adam loop; immutable, and
    checked once, when built (``dataclasses.replace`` derives one).

    ``penalty`` selects the fairness term added to the objective (one of
    ``fairness.PENALTY_KINDS``); ``penalty_weight`` scales it and defaults
    to equal weighting.  ``lambda_reg`` and ``penalty_weight`` must be
    finite; ``learning_rate`` may be inf (every update then diverges).
    Adam's decay rates and denominator offset are not settings: ``trainer``
    holds the published defaults as constants.
    """

    d: int = 2
    lambda_reg: float = 1e-3
    iterations: int = 250
    learning_rate: float = 0.01
    seed: int = 0
    penalty: str = "none"
    penalty_weight: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        if self.d < 1:
            raise ValueError("latent dimension must be >= 1")
        if not self.lambda_reg >= 0:     # NaN fails every comparison
            raise ValueError("lambda_reg must be >= 0")
        if self.lambda_reg == math.inf:
            raise ValueError("lambda_reg must be finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        check_penalty(self.penalty)
        if not self.penalty_weight >= 0:
            raise ValueError("penalty_weight must be >= 0")
        if self.penalty_weight == math.inf:
            raise ValueError("penalty_weight must be finite")


def predict(params: ModelParams, user: int, item: int) -> float:
    """Predicted score for a single (user, item) pair, by ``predict_entries``;
    an index must be an int or a numpy integer, not a bool."""
    for name, index, size in (("user", user, params.num_users), ("item", item, params.num_items)):
        if not isinstance(index, (int, np.integer)) or isinstance(index, bool):
            raise TypeError(f"{name} index: expected int, got {index!r}")
        if not 0 <= index < size:
            raise IndexError(f"{name} index {index} out of range")
    return float(predict_entries(params, [user], [item])[0])


def predict_entries(params: ModelParams, users, items) -> np.ndarray:
    """Predicted scores for parallel index arrays (indices assumed valid):
    the one prediction kernel, through which ``predict``, training and
    ``experiments.evaluate`` all score.

    Dense route, when ``users`` is non-decreasing and ``len(users) * (d + 1)
    >= DENSE_RATIO * num_users * num_items``: one GEMM ``[P, u, 1] @ [Q, 1,
    v].T`` per block of ``max(1, BLOCK_TERMS // (num_items * (d + 2)))`` user
    rows, blocks starting at multiples of that count whatever the entries,
    so a cell gets the same bits from every dense-route call on one model.

    Per-entry route otherwise, one gather per entry: the products p_ik * q_jk
    are added in k order, then the user and the item bias; the dense route
    differs by dot-product rounding only.
    """
    users, items = np.asarray(users), np.asarray(items)
    p, q, u, v = params.arrays()
    m, n, d = params.num_users, params.num_items, params.d
    if users.size * (d + 1) >= DENSE_RATIO * m * n and np.all(users[1:] >= users[:-1]):
        left, right = np.column_stack([p, u, np.ones(m)]), np.vstack([q.T, np.ones(n), v])
        rows = max(1, BLOCK_TERMS // (n * (d + 2)))
        block, out = np.empty((min(rows, m), n)), np.empty(users.size)
        starts = range(0, m, rows)
        bounds = np.searchsorted(users, [*starts, m]).tolist()
        flat = users * n + items
        for r0, s, e in zip(starts, bounds, bounds[1:]):
            if s < e:       # "clip" spares take a buffered copy; valid indices stay in the block
                scores = block[:min(rows, m - r0)]
                np.matmul(left[r0:r0 + rows], right, out=scores)
                index = flat[s:e]
                index -= r0 * n
                np.take(scores.ravel(), index, out=out[s:e], mode="clip")
        return out
    out = p[:, 0][users] * q[:, 0][items]
    for k in range(1, d):
        out += p[:, k][users] * q[:, k][items]
    out += u[users]
    out += v[items]
    return out


def mf_objective_terms(params: ModelParams, ratings: RatingSet, predictions,
                       lambda_reg: float) -> tuple[float, np.ndarray]:
    """The objective and its derivative dJ/dyhat_k for every rating entry,
    from ``predictions`` already made for ``ratings``; it reads only their
    values, so it builds no table on the set.  The L2 part of the gradient
    is added by accumulate_gradient."""
    if len(ratings) == 0:
        raise ValueError("cannot evaluate the objective on an empty rating set")
    residual = predictions - ratings.values
    p, q, _, _ = params.arrays()
    reg = 0.5 * lambda_reg * (np.sum(p ** 2) + np.sum(q ** 2))
    objective = float(reg + np.mean(residual ** 2))
    residual *= 2.0
    residual /= len(ratings)
    return objective, residual


def mf_objective(params: ModelParams, ratings: RatingSet, lambda_reg: float) -> float:
    """Regularized mean squared reconstruction error over the observed set."""
    preds = predict_entries(params, ratings.users, ratings.items)
    return mf_objective_terms(params, ratings, preds, lambda_reg)[0]


def accumulate_gradient(params: ModelParams, ratings: RatingSet, weights,
                        lambda_reg: float) -> ModelParams:
    """Chain per-entry prediction-space derivatives dL/dyhat_k back to the
    parameters, plus ``lambda_reg`` times the factor matrices (the gradient
    of the L2 term).  ``weights`` is aligned with the entries of
    ``ratings``; the gradient comes back in the parameter layout.

    The weights fill shallow copies of the user-major CSR matrix A and its
    CSC twin A.T that the set keeps (``RatingSet.pattern``), one data array
    for both (one gather for shuffled entries); the kept pair is never
    written, so concurrent calls may share a set.  ``A @ [Q, 1]`` and
    ``A.T @ [P, 1]`` give the user and the item gradients, factors and bias
    together.  Each output sums its terms in a fixed order (a user's entries
    in entry order; an item's in user order, then entry order), so results
    are reproducible bit for bit.
    """
    a, at, order = ratings.pattern
    a, at = copy.copy(a), copy.copy(at)
    a.data = at.data = weights if order is None else weights[order]
    m, n, d = params.num_users, params.num_items, params.d
    p, q, _, _ = params.arrays()
    by_user = a @ np.column_stack([q, np.ones(n)])
    by_item = at @ np.column_stack([p, np.ones(m)])
    grad = ModelParams.from_flat(np.concatenate(
        [by_user[:, :d].ravel(), by_item[:, :d].ravel(), by_user[:, d], by_item[:, d]]), m, n, d)
    if lambda_reg:
        factors = (m + n) * d
        grad.flat[:factors] += lambda_reg * params.flat[:factors]
    return grad


def save_params(params: ModelParams, path):
    """Write parameters as text: a ``num_users num_items d`` header line,
    then one row per user and per item holding the factor vector followed by
    the bias, space-separated with full float precision."""
    p, q, u, v = params.arrays()
    table = np.vstack([np.column_stack([p, u]), np.column_stack([q, v])])
    write_fields(path, " ", table.T, header=f"{params.num_users} {params.num_items} {params.d}\n")


def load_params(path) -> ModelParams:
    """Read a file written by save_params; a non-finite value is a fault of its line."""
    with open_text(path) as fh:
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
    reject(path, lines, ~np.isfinite(table).all(axis=1), "model parameters must be finite")
    return ModelParams(table[:m, :d], table[m:, :d], table[:m, d], table[m:, d])
