"""Adam loop behavior: determinism, trace bookkeeping, call counts, and
actual learning."""

from collections import Counter

import numpy as np
import pytest

from faircf import experiments, fairness, model, trainer
from faircf.data import GroupAssignment, RatingSet
from faircf.experiments import evaluate
from faircf.fairness import penalty
from faircf.model import ModelParams, TrainConfig, mf_objective
from faircf.synthetic import builtin_specs, evaluation_set, generate
from faircf.trainer import DivergenceError, adam_step, init_params, train
from oracles import random_instance


def tiny_problem(seed=0):
    rng = np.random.default_rng(seed)
    ratings, groups, _ = random_instance(rng, max_users=6, max_items=5)
    return ratings, groups


def test_init_params_shapes_and_scale():
    rng = np.random.default_rng(0)
    params = init_params(300, 200, 2, rng)
    assert params.user_vectors.shape == (300, 2)
    assert params.item_vectors.shape == (200, 2)
    # entries drawn from N(0, 0.1^2)
    pooled = np.concatenate([a.ravel() for a in params.arrays()])
    assert abs(pooled.std() - 0.1) < 0.01
    assert abs(pooled.mean()) < 0.01


def test_adam_zero_gradient_is_a_no_op():
    theta = np.array([1.0, -2.0, 0.5, 0.25, 3.0, -1.0])
    zeros = np.zeros_like(theta)
    stepped, first, second = adam_step(theta, zeros, zeros, zeros, 1, TrainConfig())
    assert np.array_equal(stepped, theta)
    assert not np.any(first) and not np.any(second)


def test_adam_first_step_has_learning_rate_size():
    # with bias correction the first update is lr * g / (|g| + eps)
    theta = np.zeros(4)
    grad = np.array([0.5, -2.0, 4.0, -0.125])
    config = TrainConfig(learning_rate=0.01)
    stepped, _, _ = adam_step(theta, grad, np.zeros(4), np.zeros(4), 1, config)
    assert stepped == pytest.approx([-0.01, 0.01, -0.01, 0.01], rel=1e-5)


def test_adam_step_leaves_inputs_alone():
    theta = np.array([1.0, 2.0, 0.5, 0.25])
    grad = np.ones(4)
    first, second = np.zeros(4), np.zeros(4)
    adam_step(theta, grad, first, second, 1, TrainConfig())
    assert np.array_equal(theta, [1.0, 2.0, 0.5, 0.25])
    assert np.array_equal(grad, np.ones(4))
    assert not np.any(first) and not np.any(second)


def test_training_is_deterministic():
    ratings, groups = tiny_problem(3)
    config = TrainConfig(iterations=40, seed=11, penalty="value")
    one, trace_one = train(ratings, groups, config)
    two, trace_two = train(ratings, groups, config)
    for a, b in zip(one.arrays(), two.arrays()):
        assert np.array_equal(a, b)
    assert np.array_equal(trace_one.objective, trace_two.objective)
    assert np.array_equal(trace_one.penalty, trace_two.penalty)


def test_trace_matches_final_parameters():
    ratings, groups = tiny_problem(5)
    config = TrainConfig(iterations=30, seed=2, penalty="over", penalty_weight=0.5)
    params, trace = train(ratings, groups, config)
    assert len(trace) == 30
    assert trace.objective[-1] == pytest.approx(
        mf_objective(params, ratings, config.lambda_reg))
    assert trace.penalty[-1] == pytest.approx(
        penalty("over", params, ratings, groups, weight=0.5))
    assert trace.duration_seconds >= 0.0


def test_unpenalized_trace_has_zero_penalty_column():
    ratings, groups = tiny_problem(7)
    _, trace = train(ratings, groups, TrainConfig(iterations=10, seed=1))
    assert not np.any(trace.penalty)


def test_zero_iterations_returns_seeded_init():
    ratings, groups = tiny_problem(9)
    config = TrainConfig(iterations=0, seed=6)
    params, trace = train(ratings, groups, config)
    want = init_params(ratings.num_users, ratings.num_items, config.d,
                       np.random.default_rng(6))
    for got, expect in zip(params.arrays(), want.arrays()):
        assert np.array_equal(got, expect)
    assert len(trace) == 0


def test_objective_decreases_and_fits_planted_factors():
    rng = np.random.default_rng(8)
    m, n, d = 20, 15, 2
    planted = ModelParams(rng.normal(0.0, 0.7, (m, d)), rng.normal(0.0, 0.7, (n, d)),
                          np.zeros(m), np.zeros(n))
    users, items = np.nonzero(rng.random((m, n)) < 0.8)
    values = np.array([np.dot(planted.user_vectors[u], planted.item_vectors[i])
                       for u, i in zip(users, items)])
    ratings = RatingSet(users, items, values, m, n)
    groups = GroupAssignment(np.arange(m) % 2 == 0)
    params, trace = train(ratings, groups, TrainConfig(iterations=250, seed=0))
    assert trace.objective[-1] < 0.1 * trace.objective[0]
    residual = np.mean((np.array([np.dot(params.user_vectors[u], params.item_vectors[i])
                                  + params.user_bias[u] + params.item_bias[i]
                                  for u, i in zip(users, items)]) - values) ** 2)
    assert residual < 0.05


def test_value_penalty_improves_value_metric():
    data = generate(builtin_specs(num_users=60, num_items=45, seed=1)["P+O"])
    holdout = evaluation_set(data)
    plain, _ = train(data.observed, data.groups,
                     TrainConfig(iterations=150, seed=4))
    fair, _ = train(data.observed, data.groups,
                    TrainConfig(iterations=150, seed=4, penalty="value"))
    unfair_report = evaluate(plain, holdout, data.groups)
    fair_report = evaluate(fair, holdout, data.groups)
    assert fair_report.value < unfair_report.value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_reported():
    # a rating near the float ceiling overflows the first objective
    ratings = RatingSet([0], [0], [1e200], 1, 1)
    groups = GroupAssignment(np.array([True]))
    with pytest.raises(DivergenceError) as info:
        train(ratings, groups, TrainConfig(iterations=5, seed=0))
    assert info.value.iteration == 1
    assert str(info.value).endswith("all parameters finite, objective overflowed)")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_names_the_non_finite_parameter_blocks():
    # an infinite step sends every parameter block to +/-inf or nan
    ratings, groups = tiny_problem(2)
    with pytest.raises(DivergenceError) as info:
        train(ratings, groups, TrainConfig(iterations=5, learning_rate=float("inf")))
    assert info.value.iteration == 1
    assert str(info.value).endswith(
        "non-finite user_vectors, item_vectors, user_bias, item_bias)")


def test_train_checks_group_coverage():
    ratings, _ = tiny_problem(1)
    bad = GroupAssignment(np.zeros(ratings.num_users + 2, dtype=bool))
    with pytest.raises(ValueError):
        train(ratings, bad, TrainConfig(iterations=1))


@pytest.mark.parametrize("penalty, penalized", [("none", 0), ("value", 1)])
def test_train_runs_one_pass_per_update_over_one_plan(monkeypatch, penalty, penalized):
    """Calls inside one train of N updates: N + 1 predictions (the last one
    gives the final trace entry), N accumulations, group averages only when
    penalized, and the group labels checked once, when the plan is built."""
    ratings, groups = tiny_problem(4)
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for module in (model, fairness, trainer, experiments):
        for name in ("predict_entries", "accumulate_gradient", "group_item_averages"):
            if hasattr(module, name):
                count(module, name)
    count(GroupAssignment, "check_against")
    n = 7
    train(ratings, groups, TrainConfig(iterations=n, penalty=penalty))
    assert calls == Counter(predict_entries=n + 1, accumulate_gradient=n,
                            group_item_averages=(n + 1) * penalized, check_against=1)
