"""Smoothed penalty values and their analytic gradients."""

import zlib

import numpy as np
import pytest

from faircf.fairness import penalty_terms
from faircf.model import PENALTY_KINDS, accumulate_gradient, predict_entries
from conftest import loss_pass
from oracles import away_from_kinks, brute_force_penalty, finite_difference, random_instance

GRADED_KINDS = [k for k in PENALTY_KINDS if k != "none"]


def penalty_and_gradient(kind, params, ratings, groups, weight=1.0):
    """The weighted penalty and its gradient alone, from ``penalty_terms``
    and ``accumulate_gradient``."""
    preds = predict_entries(params, ratings.users, ratings.items)
    pen, weights = penalty_terms(kind, preds, ratings, groups, weight)
    return pen, accumulate_gradient(params, ratings, weights, 0.0)


def sample_smooth_point(rng, kind):
    """Random instance resampled until no kink sits near the test point."""
    while True:
        ratings, groups, params = random_instance(rng)
        if away_from_kinks(kind, params, ratings, groups.disadvantaged):
            return ratings, groups, params


def test_none_penalty_is_free():
    """Penalty "none" adds exactly what a zero-weighted penalty adds: nothing."""
    rng = np.random.default_rng(2)
    ratings, groups, params = random_instance(rng)
    objective, pen, grad = loss_pass(params, ratings, groups, "none", 0.1, weight=2.0)
    free_objective, _, free_grad = loss_pass(params, ratings, groups, "value", 0.1, weight=0.0)
    assert pen == 0.0
    assert objective == free_objective
    assert np.array_equal(grad.flat, free_grad.flat)


@pytest.mark.parametrize("kind", GRADED_KINDS)
def test_penalty_value_matches_brute_force(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for _ in range(100):
        ratings, groups, params = random_instance(rng)
        got = loss_pass(params, ratings, groups, kind, weight=1.25)[1]
        want = brute_force_penalty(kind, params, ratings, groups.disadvantaged, weight=1.25)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("kind", GRADED_KINDS)
def test_penalty_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(1 + zlib.crc32(kind.encode()))
    for _ in range(10):
        ratings, groups, params = sample_smooth_point(rng, kind)
        grad = penalty_and_gradient(kind, params, ratings, groups)[1]
        numeric = finite_difference(
            lambda p: brute_force_penalty(kind, p, ratings, groups.disadvantaged), params)
        for got, want in zip(grad.arrays(), numeric):
            assert got == pytest.approx(want, rel=1e-5, abs=1e-7)


def test_gradient_scales_linearly_with_weight():
    rng = np.random.default_rng(23)
    for kind in GRADED_KINDS:
        ratings, groups, params = random_instance(rng)
        one, base = penalty_and_gradient(kind, params, ratings, groups, weight=1.0)
        three, scaled = penalty_and_gradient(kind, params, ratings, groups, weight=3.5)
        for a, b in zip(base.arrays(), scaled.arrays()):
            assert b == pytest.approx(3.5 * a)
        assert three == pytest.approx(3.5 * one)


def test_under_plus_over_composes():
    rng = np.random.default_rng(29)
    for _ in range(20):
        ratings, groups, params = random_instance(rng)
        combined, got = penalty_and_gradient("under_plus_over", params, ratings, groups)
        under, u = penalty_and_gradient("under", params, ratings, groups)
        over, o = penalty_and_gradient("over", params, ratings, groups)
        assert combined == pytest.approx(under + over)
        for c, a, b in zip(got.arrays(), u.arrays(), o.arrays()):
            assert c == pytest.approx(a + b)


def test_unknown_kind_rejected():
    rng = np.random.default_rng(4)
    ratings, groups, params = random_instance(rng)
    with pytest.raises(ValueError):
        penalty_and_gradient("parity", params, ratings, groups)
    with pytest.raises(ValueError):
        loss_pass(params, ratings, groups, "parity")
