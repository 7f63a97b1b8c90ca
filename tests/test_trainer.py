"""Adam loop behavior: determinism, trace bookkeeping, call counts, and
actual learning."""

import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from faircf import data, experiments, fairness, model, trainer
from faircf.data import GroupAssignment, RatingSet
from faircf.experiments import evaluate
from faircf.model import ModelParams, TrainConfig, mf_objective
from faircf.synthetic import builtin_specs, evaluation_set, generate
from faircf.trainer import DivergenceError, adam_step, init_params, train
from conftest import loss_pass, subprocess_env
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
        loss_pass(params, ratings, groups, "over", weight=0.5)[1])
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


def test_divergence_is_reported():
    # a rating near the float ceiling overflows the first objective
    ratings = RatingSet([0], [0], [1e200], 1, 1)
    groups = GroupAssignment(np.array([True]))
    with pytest.raises(DivergenceError) as info:
        train(ratings, groups, TrainConfig(iterations=5, seed=0))
    assert info.value.iteration == 0
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


def count_calls(monkeypatch, calls, owner, name):
    """Replace ``owner.name`` by a wrapper that counts its calls in ``calls``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def count_table_builds(monkeypatch, calls):
    """Count in ``calls["tables"]`` every (item, group) table that
    ``RatingSet.cells`` builds, told apart by the key it returns."""
    keys, cells = [], data.RatingSet.cells

    def counted(self, groups):
        got = cells(self, groups)
        if not any(got[0] is key for key in keys):
            keys.append(got[0])
            calls["tables"] += 1
        return got
    monkeypatch.setattr(data.RatingSet, "cells", counted)


@pytest.mark.parametrize("penalty, penalized", [("none", 0), ("value", 1)])
def test_train_runs_one_pass_per_update_over_one_plan(monkeypatch, penalty, penalized):
    """Calls inside one train of N updates: N + 1 predictions (the last one
    gives the final trace entry), N accumulations, and group averages and
    an (item, group) table only when penalized: a plain train builds none."""
    ratings, groups = tiny_problem(4)
    calls = Counter()
    for module in (model, fairness, trainer, experiments):
        for name in ("predict_entries", "accumulate_gradient", "group_item_averages"):
            if hasattr(module, name):
                count_calls(monkeypatch, calls, module, name)
    count_table_builds(monkeypatch, calls)
    n = 7
    train(ratings, groups, TrainConfig(iterations=n, penalty=penalty))
    assert calls == Counter(predict_entries=n + 1, accumulate_gradient=n,
                            group_item_averages=(n + 1) * penalized, tables=penalized)


def test_a_second_groups_object_reuses_the_pattern_of_the_set():
    """The CSR pattern depends on the entries alone, so training under
    another groups object builds no new one."""
    ratings, groups = tiny_problem(4)
    train(ratings, groups, TrainConfig(iterations=2, penalty="value"))
    pattern = ratings.pattern
    others = GroupAssignment(~groups.disadvantaged)
    train(ratings, others, TrainConfig(iterations=2, penalty="value"))
    assert ratings.pattern is pattern


def test_two_threads_training_on_one_set_each_give_their_serial_bits():
    """Runs in two threads share the pattern and the cells of one set, and
    each gives the parameters it gives alone, plain and penalized."""
    data = generate(builtin_specs(num_users=400, num_items=300, seed=0)["P+O"])
    configs = (TrainConfig(iterations=60, seed=0),
               TrainConfig(iterations=60, seed=1, penalty="value"))
    serial = [train(data.observed, data.groups, config)[0].flat for config in configs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(3):
            runs = [pool.submit(train, data.observed, data.groups, config) for config in configs]
            for run, want in zip(runs, serial):
                assert np.array_equal(run.result(timeout=120)[0].flat, want)


def test_one_set_and_one_groups_object_build_one_plan(monkeypatch):
    """A plain train, a penalized train, an evaluate and a group_item_averages
    call on the same rating set and the same groups object share the (item,
    group) tables the set keeps; the set keeps one groups object's tables,
    so each switch to another groups object builds them again."""
    ratings, groups = tiny_problem(4)
    calls = Counter()
    count_table_builds(monkeypatch, calls)
    params, _ = train(ratings, groups, TrainConfig(iterations=3))
    train(ratings, groups, TrainConfig(iterations=3, penalty="value"))
    evaluate(params, ratings, groups)
    fairness.group_item_averages(np.zeros(len(ratings)), ratings, groups)
    assert calls["tables"] == 1
    same_labels = GroupAssignment(groups.disadvantaged)
    train(ratings, same_labels, TrainConfig(iterations=3, penalty="value"))
    evaluate(params, ratings, same_labels)
    assert calls["tables"] == 2
    evaluate(params, ratings, groups)
    assert calls["tables"] == 3


@pytest.mark.parametrize("shuffled", [False, True], ids=["user-ordered", "shuffled"])
def test_a_kept_plan_gives_the_bits_of_a_fresh_one(shuffled):
    """train and evaluate on one set, switching between two groups objects,
    give the bits that a new set, and so fresh tables, give every time."""
    rng = np.random.default_rng(12)
    ratings, groups, _ = random_instance(rng, max_users=9, max_items=7)
    if shuffled:
        ratings = ratings.subset(rng.permutation(len(ratings)))
    assert np.any(np.diff(ratings.users) < 0) == shuffled
    others = GroupAssignment(~groups.disadvantaged)

    def run(rating_set, labels, penalty):
        config = TrainConfig(iterations=6, seed=3, penalty=penalty)
        params, trace = train(rating_set, labels, config)
        report = np.array(list(evaluate(params, rating_set, labels).as_dict().values()))
        return [a.tobytes() for a in (params.flat, trace.objective, trace.penalty, report)]

    def fresh():
        return RatingSet(ratings.users, ratings.items, ratings.values,
                         ratings.num_users, ratings.num_items)

    for labels in (groups, others, groups, others):
        for penalty in ("none", "value", "nonparity"):
            assert run(ratings, labels, penalty) == run(fresh(), labels, penalty)


# Trains 400x300 P+O at d = 10 and d = 2 and scores the held-out cells; a
# whole-grid GEMM at d = 10 gives other bits on two BLAS threads than on one.
THREADED_TRAIN = """
import hashlib
from faircf.experiments import evaluate
from faircf.model import TrainConfig
from faircf.synthetic import builtin_specs, evaluation_set, generate
from faircf.trainer import train
data = generate(builtin_specs(num_users=400, num_items=300, seed=0)["P+O"])
held_out = evaluation_set(data)
for d in (10, 2):
    params, trace = train(data.observed, data.groups,
                          TrainConfig(d=d, iterations=20, penalty="value"))
    digest = hashlib.sha256(params.flat.tobytes() + trace.objective.tobytes()
                            + trace.penalty.tobytes())
    print(d, digest.hexdigest(), evaluate(params, held_out, data.groups).to_csv())
"""


def test_blas_thread_count_leaves_every_byte():
    """Training and evaluation give the same bytes on one and on two
    OpenBLAS threads."""
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", THREADED_TRAIN], capture_output=True,
                              text=True, timeout=300,
                              env=subprocess_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
