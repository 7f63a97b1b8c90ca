"""Fit a biased matrix-factorization model on a handful of ratings.

The model scores user u on item i as p_u . q_i + b_u + b_i and is trained
with full-gradient Adam on the mean squared error plus an L2 term on the
factor matrices (the biases are unregularized).
"""

import numpy as np

from faircf import ModelParams, RatingSet, TrainConfig, GroupAssignment
from faircf.model import mf_objective, predict, predict_entries
from faircf.trainer import train

rng = np.random.default_rng(0)

# Plant a rank-1 taste structure on a 12 x 8 grid and observe 70% of it.
taste_u = rng.normal(0.0, 1.0, 12)
taste_i = rng.normal(0.0, 1.0, 8)
truth = np.outer(taste_u, taste_i)
users, items = np.nonzero(rng.random((12, 8)) < 0.7)
ratings = RatingSet(users, items, truth[users, items], 12, 8)
groups = GroupAssignment(np.arange(12) % 2 == 0)  # unused by the base model

config = TrainConfig(d=2, iterations=250, learning_rate=0.01, seed=1)
params, trace = train(ratings, groups, config)

print(f"observed entries: {len(ratings)} of {12 * 8}")
print(f"objective: {trace.objective[0]:.4f} (first) -> {trace.objective[-1]:.4f} (last)")
print(f"recheck against the returned parameters: "
      f"{mf_objective(params, ratings, config.lambda_reg):.4f}")

held_out = np.ones((12, 8), dtype=bool)
held_out[users, items] = False
predicted = predict_entries(params, *np.nonzero(held_out))
print(f"held-out rmse vs planted truth: "
      f"{np.sqrt(np.mean((predicted - truth[held_out]) ** 2)):.3f}")
print(f"single prediction, user 3 on item 5: {predict(params, 3, 5):+.3f} "
      f"(truth {truth[3, 5]:+.3f})")

# The whole run is reproducible: same config, same numbers.
again, _ = train(ratings, groups, config)
assert all(np.array_equal(a, b) for a, b in zip(params.arrays(), again.arrays()))
print("retraining with the same seed reproduces the parameters bit for bit")
