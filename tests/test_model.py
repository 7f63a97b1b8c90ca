"""Prediction, squared objective, and analytic gradients of the base model."""

import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircf.data import GroupAssignment, RatingSet
from faircf.model import (BLOCK_TERMS, ModelParams, TrainConfig, accumulate_gradient,
                          load_params, mf_objective, predict,
                          predict_entries, save_params)
from faircf.synthetic import builtin_specs, generate
from faircf.trainer import train
from conftest import loss_pass, takes_dense_route
from oracles import entries, finite_difference, oracle_loss, random_instance


def one_cell_instance():
    # p=2, q=1, u=1, v=-1 on a single observed cell rated 4
    params = ModelParams([[2.0]], [[1.0]], [1.0], [-1.0])
    ratings = RatingSet([0], [0], [4.0], 1, 1)
    return params, ratings


def test_predict_hand_value():
    params = ModelParams([[1.0, 2.0]], [[3.0, 4.0]], [0.5], [-0.25])
    # 1*3 + 2*4 + 0.5 - 0.25
    assert predict(params, 0, 0) == pytest.approx(11.25)


def test_predict_rejects_bad_index():
    params = ModelParams([[1.0]], [[1.0]], [0.0], [0.0])
    with pytest.raises(IndexError):
        predict(params, 1, 0)


def test_objective_hand_value():
    params, ratings = one_cell_instance()
    # (2-4)^2 + 0.5*0.5*(4+1)
    assert mf_objective(params, ratings, 0.5) == pytest.approx(5.25)


def test_objective_rejects_empty():
    params, _ = one_cell_instance()
    with pytest.raises(ValueError):
        mf_objective(params, RatingSet([], [], [], 1, 1), 0.1)


def test_gradient_hand_values():
    params, ratings = one_cell_instance()
    grad = loss_pass(params, ratings, GroupAssignment([False]), lambda_reg=0.5)[2]
    # residual -2: 2*(-2)*q + 0.5*p etc.; biases are unregularized
    assert grad.user_vectors == pytest.approx(np.array([[-3.0]]))
    assert grad.item_vectors == pytest.approx(np.array([[-7.5]]))
    assert grad.user_bias == pytest.approx([-4.0])
    assert grad.item_bias == pytest.approx([-4.0])


def test_prediction_helpers_agree():
    rng = np.random.default_rng(7)
    ratings, _, params = random_instance(rng, max_users=5, max_items=4)
    per_entry = predict_entries(params, ratings.users, ratings.items)
    for k, (u, i, _) in enumerate(entries(ratings)):
        assert per_entry[k] == predict(params, u, i)


@pytest.mark.parametrize("d", [2, 3])
def test_predict_gives_the_bits_of_the_kernel_on_a_trained_model(d):
    """predict scores a pair through predict_entries, so it gives the
    kernel's bits exactly; a dot product of the two vectors may fuse its
    multiply-adds and differ in the last bit."""
    data = generate(builtin_specs(num_users=400, num_items=300, seed=0)["P+O"])
    params = train(data.observed, data.groups, TrainConfig(d=d, iterations=100))[0]
    rng = np.random.default_rng(d)
    users, items = rng.integers(400, size=2000), rng.integers(300, size=2000)
    single = [predict(params, u, i) for u, i in zip(users.tolist(), items.tolist())]
    assert single == predict_entries(params, users, items).tolist()


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(8):
        ratings, groups, params = random_instance(rng)
        lam = float(rng.uniform(0.0, 0.3))
        grad = loss_pass(params, ratings, groups, lambda_reg=lam)[2]
        numeric = finite_difference(oracle_loss("none", ratings, None, lam), params)
        for got, want in zip(grad.arrays(), numeric):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_objective_invariant_under_latent_rotation():
    rng = np.random.default_rng(5)
    ratings, _, params = random_instance(rng, max_users=6, max_items=4, d=3)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    turned = ModelParams(params.user_vectors @ rot, params.item_vectors @ rot,
                         params.user_bias, params.item_bias)
    for lam in (0.0, 0.05):
        assert mf_objective(turned, ratings, lam) == pytest.approx(
            mf_objective(params, ratings, lam))


@st.composite
def user_ordered_entries(draw):
    """Parameters of latent dimension 1, 2, 3, 5 or 10 and the entries of a
    grid in user order, in which the first, the last or a middle user has
    none and at least two users have some; plus a permutation of the entries
    that is out of user order.  The sparser grids keep entries in user order
    on the per-entry route."""
    d = draw(st.sampled_from([1, 2, 3, 5, 10]))
    m, n = draw(st.integers(3, 12)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    empty = draw(st.sampled_from([0, m // 2, m - 1]))
    observed = rng.random((m, n)) < draw(st.sampled_from([0.02, 0.1, 0.2, 0.6, 1.0]))
    observed[empty] = False
    others = [u for u in range(m) if u != empty]
    observed[others[0], 0] = observed[others[-1], n - 1] = True
    users, items = np.nonzero(observed)
    params = ModelParams.from_flat(rng.normal(size=(m + n) * (d + 1)), m, n, d)
    shuffle = rng.permutation(users.size)
    if np.all(users[shuffle][1:] >= users[shuffle][:-1]):
        shuffle = shuffle[::-1]             # two users at least: now out of order
    return params, users, items, shuffle


def in_k_order(params, users, items):
    """The per-entry route's bits: the factor products added in k order,
    then the user and the item bias."""
    p, q, u, v = params.arrays()
    got = p[users, 0] * q[items, 0]
    for k in range(1, params.d):
        got += p[users, k] * q[items, k]
    return got + u[users] + v[items]


def assert_within_dot_rounding(got, params, users, items):
    """|got - in k order| stays within the rounding bound of a (d + 2)-term
    dot product, (d + 2) * eps * sum of the terms' magnitudes."""
    p, q, u, v = params.arrays()
    magnitude = np.abs(p[users] * q[items]).sum(axis=1) + np.abs(u[users]) + np.abs(v[items])
    bound = (params.d + 2) * np.finfo(np.float64).eps * magnitude
    assert np.all(np.abs(got - in_k_order(params, users, items)) <= bound)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=user_ordered_entries())
def test_ordered_and_shuffled_entries_predict_the_bits_of_the_gather(case):
    """A sparse set in user order and its shuffled copy both take the one
    gather per entry: entry by entry, both give the bits of the products in
    k order, then the two biases.  Entries in user order dense enough for
    block GEMMs sum in the BLAS kernel's order, so they are bounded by the
    dot-product rounding."""
    params, users, items, shuffle = case
    assert not takes_dense_route(params, users[shuffle])
    ordered = predict_entries(params, users, items)
    shuffled = np.empty_like(ordered)
    shuffled[shuffle] = predict_entries(params, users[shuffle], items[shuffle])
    assert np.array_equal(shuffled, in_k_order(params, users, items))
    if takes_dense_route(params, users):
        assert_within_dot_rounding(ordered, params, users, items)
    else:
        assert np.array_equal(ordered, shuffled)


def dense_grid(m, n, d, seed=0):
    """A model and every cell of its grid, in user order."""
    rng = np.random.default_rng(seed)
    params = ModelParams.from_flat(rng.normal(size=(m + n) * (d + 1)), m, n, d)
    users, items = np.divmod(np.arange(m * n), n)
    return params, users, items, rng


@pytest.mark.parametrize("m, n, d", [
    (300, 1000, 2),                     # 65-row blocks, the last one of 40 rows
    (7, 50, 3),                         # one block, fewer rows than a block holds
    (5, BLOCK_TERMS // 4 + 1, 2),       # a row of more terms than a block: one row per block
])
def test_a_cell_gets_the_same_bits_from_every_dense_call(m, n, d):
    """Scored with the whole grid, or in a user-ordered subset that still
    takes the dense route and leaves users out at the start, in the middle
    and at the end (some of them whole blocks), a cell gets the same bits;
    those stay within the dot-product rounding of the products in k order."""
    params, users, items, rng = dense_grid(m, n, d)
    assert takes_dense_route(params, users)
    whole = predict_entries(params, users, items)
    assert_within_dot_rounding(whole, params, users, items)
    left_out = np.isin(users, [0, m // 2, m - 1]) | (users < m // 4)
    keep = ~left_out & (rng.random(users.size) < 0.8)
    assert takes_dense_route(params, users[keep])
    assert np.array_equal(predict_entries(params, users[keep], items[keep]), whole[keep])


def loop_gradient(params, ratings, weights):
    """accumulate_gradient's result, one entry at a time."""
    want = ModelParams.zeros(params.num_users, params.num_items, params.d)
    for k, (u, i, _) in enumerate(entries(ratings)):
        want.user_vectors[u] += weights[k] * params.item_vectors[i]
        want.item_vectors[i] += weights[k] * params.user_vectors[u]
        want.user_bias[u] += weights[k]
        want.item_bias[i] += weights[k]
    return want


def test_accumulate_gradient_matches_loop():
    rng = np.random.default_rng(11)
    ratings, _, params = random_instance(rng)
    weights = rng.normal(size=len(ratings))
    got = accumulate_gradient(params, ratings, weights, 0.0)
    for got_arr, want_arr in zip(got.arrays(), loop_gradient(params, ratings, weights).arrays()):
        assert got_arr == pytest.approx(want_arr)


@pytest.mark.parametrize("shuffled", [False, True])
def test_one_plan_takes_new_weights_on_every_call(shuffled):
    """Each call puts its own weights into the CSR pattern a set keeps:
    call after call on one set, each gradient equals a fresh set's bit for
    bit, and the one-entry-at-a-time loop's."""
    rng = np.random.default_rng(17)
    ratings, _, params = random_instance(rng, max_users=6, max_items=5, d=3)
    if shuffled:
        ratings = ratings.subset(rng.permutation(len(ratings)))
    assert (ratings.pattern[2] is not None) == shuffled
    for _ in range(4):
        weights = rng.normal(size=len(ratings))
        got = accumulate_gradient(params, ratings, weights, 0.0)
        fresh = accumulate_gradient(params, ratings.subset(slice(None)), weights, 0.0)
        assert np.array_equal(got.flat, fresh.flat)
        assert got.flat == pytest.approx(loop_gradient(params, ratings, weights).flat)


def test_a_call_writes_nothing_into_the_kept_pattern():
    """accumulate_gradient leaves the pattern a set keeps as it was, so the
    set holds no reference to the weights of a call once it returns."""
    rng = np.random.default_rng(19)
    ratings, _, params = random_instance(rng, max_users=6, max_items=5)
    a, at, order = ratings.pattern
    assert order is None        # entries in user order: no gather copies the weights
    data, data_t = a.data, at.data
    kept = data.copy(), data_t.copy()
    weights = rng.normal(size=len(ratings))
    alive = weakref.ref(weights)
    accumulate_gradient(params, ratings, weights, 0.0)
    del weights
    assert alive() is None
    assert a.data is data and at.data is data_t
    assert np.array_equal(data, kept[0]) and np.array_equal(data_t, kept[1])


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams([[1.0]], [[1.0, 2.0]], [0.0], [0.0])       # d mismatch
    with pytest.raises(ValueError):
        ModelParams([[np.nan]], [[1.0]], [0.0], [0.0])          # non-finite
    with pytest.raises(ValueError):
        ModelParams([[1.0]], [[1.0]], [0.0, 0.0], [0.0])        # bias length


def test_train_config_validation():
    for bad in (dict(d=0), dict(lambda_reg=-1.0), dict(iterations=-1),
                dict(learning_rate=0.0), dict(penalty="bogus")):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


@pytest.mark.parametrize("header", ["0 0 2", "a b c", "3 4", "", "2 1 -1", "2 1 100000000"])
def test_load_params_names_a_bad_header(tmp_path, header):
    path = tmp_path / "model.txt"
    path.write_text(header + "\n0.5 1.0 0.0\n0.25 0.5 1.0\n0.0 0.0 0.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: "):
        load_params(path)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    _, _, params = random_instance(rng)
    path = tmp_path / "model.txt"
    save_params(params, path)
    back = load_params(path)
    for got, want in zip(back.arrays(), params.arrays()):
        assert np.array_equal(got, want)
