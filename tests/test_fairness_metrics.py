"""Group fairness metrics against hand values and a brute-force oracle."""

import numpy as np
import pytest

from faircf.data import GroupAssignment, RatingSet
from faircf.fairness import (FairnessReport, group_item_averages, metric,
                             smoothed_penalty_term)
from oracles import brute_force_metrics, predictions_for, random_instance

# Two users (0 disadvantaged, 1 not), two items, every cell observed.
# Per item signed group errors: item 0 -> +1 vs 0, item 1 -> -2 vs +1.
HAND_RATINGS = RatingSet([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 3.0, 2.0, 1.0], 2, 2)
HAND_PREDICTIONS = np.array([2.0, 1.0, 2.0, 2.0])
HAND_GROUPS = GroupAssignment(np.array([True, False]))


def hand_averages():
    return group_item_averages(HAND_PREDICTIONS, HAND_RATINGS, HAND_GROUPS)


def test_hand_case_metric_values():
    avgs = hand_averages()
    assert metric("value", avgs) == pytest.approx(2.0)      # (|1-0| + |-2-1|) / 2
    assert metric("absolute", avgs) == pytest.approx(1.0)   # (|1-0| + |2-1|) / 2
    assert metric("under", avgs) == pytest.approx(1.0)      # (0 + |2-0|) / 2
    assert metric("over", avgs) == pytest.approx(1.0)       # (|1-0| + |0-1|) / 2
    assert metric("nonparity", avgs) == pytest.approx(0.5)  # |1.5 - 2.0|


def test_items_seen_by_one_group_are_excluded():
    # a third item rated only by the advantaged user must not move the
    # per-item metrics, only the overall non-parity averages
    ratings = RatingSet([0, 0, 1, 1, 1], [0, 1, 0, 1, 2], [1.0, 3.0, 2.0, 1.0, 5.0], 2, 3)
    preds = np.array([2.0, 1.0, 2.0, 2.0, 4.0])
    avgs = group_item_averages(preds, ratings, HAND_GROUPS)
    assert np.array_equal((avgs.counts > 0).all(axis=1), [True, True, False])
    assert metric("value", avgs) == pytest.approx(2.0)
    assert metric("nonparity", avgs) == pytest.approx(7.0 / 6.0)


def test_no_shared_items_gives_zero():
    ratings = RatingSet([0, 1], [0, 1], [1.0, -1.0], 2, 2)
    avgs = group_item_averages(np.array([0.5, 0.5]), ratings, HAND_GROUPS)
    for kind in ("value", "absolute", "under", "over"):
        assert metric(kind, avgs) == 0.0
    assert metric("nonparity", avgs) == pytest.approx(0.0)


def test_single_group_nonparity_is_zero():
    ratings = RatingSet([0, 0], [0, 1], [1.0, -1.0], 2, 2)
    groups = GroupAssignment(np.array([True, True]))
    avgs = group_item_averages(np.array([1.0, 2.0]), ratings, groups)
    assert metric("nonparity", avgs) == 0.0


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        ratings, groups, params = random_instance(rng)
        preds = predictions_for(params, ratings)
        avgs = group_item_averages(preds, ratings, groups)
        want = brute_force_metrics(preds, ratings, groups.disadvantaged)
        assert metric("value", avgs) == pytest.approx(want["value"], abs=1e-12)
        assert metric("absolute", avgs) == pytest.approx(want["absolute"], abs=1e-12)
        assert metric("under", avgs) == pytest.approx(want["under"], abs=1e-12)
        assert metric("over", avgs) == pytest.approx(want["over"], abs=1e-12)
        assert metric("nonparity", avgs) == pytest.approx(want["nonparity"], abs=1e-12)


def test_group_swap_symmetry():
    # the outer absolute value makes every metric label-symmetric
    rng = np.random.default_rng(9)
    for _ in range(50):
        ratings, groups, params = random_instance(rng)
        preds = predictions_for(params, ratings)
        one = group_item_averages(preds, ratings, groups)
        other = group_item_averages(preds, ratings,
                                    GroupAssignment(~groups.disadvantaged))
        for kind in ("value", "absolute", "under", "over", "nonparity"):
            assert metric(kind, one) == pytest.approx(metric(kind, other))


def test_sign_flip_swaps_under_and_over():
    # negating predictions and ratings turns every underestimate into an
    # overestimate of the same size
    rng = np.random.default_rng(17)
    for _ in range(50):
        ratings, groups, params = random_instance(rng)
        preds = predictions_for(params, ratings)
        flipped = RatingSet(ratings.users, ratings.items, -ratings.values,
                            ratings.num_users, ratings.num_items)
        one = group_item_averages(preds, ratings, groups)
        other = group_item_averages(-preds, flipped, groups)
        assert metric("under", one) == pytest.approx(metric("over", other))
        assert metric("over", one) == pytest.approx(metric("under", other))
        assert metric("value", one) == pytest.approx(metric("value", other))
        assert metric("absolute", one) == pytest.approx(metric("absolute", other))


def test_shared_shift_invariance():
    # adding the same constant to predictions and ratings changes nothing
    rng = np.random.default_rng(13)
    for _ in range(20):
        ratings, groups, params = random_instance(rng)
        preds = predictions_for(params, ratings)
        shifted = RatingSet(ratings.users, ratings.items, ratings.values + 2.5,
                            ratings.num_users, ratings.num_items)
        one = group_item_averages(preds, ratings, groups)
        other = group_item_averages(preds + 2.5, shifted, groups)
        for kind in ("value", "absolute", "under", "over", "nonparity"):
            assert metric(kind, one) == pytest.approx(metric(kind, other))


def test_value_splits_into_under_plus_over():
    # per item |e_g - e_a| = |under term| + |over term|, so the means add up
    rng = np.random.default_rng(31)
    for _ in range(100):
        ratings, groups, params = random_instance(rng)
        avgs = group_item_averages(predictions_for(params, ratings), ratings, groups)
        assert metric("value", avgs) == pytest.approx(metric("under", avgs)
                                                      + metric("over", avgs))


def test_smoothed_penalty_term_values():
    assert smoothed_penalty_term(0.0) == 0.0
    assert smoothed_penalty_term(0.5) == pytest.approx(0.25)
    assert smoothed_penalty_term(-0.5) == pytest.approx(0.25)
    assert smoothed_penalty_term(1.0) == pytest.approx(1.0)
    assert smoothed_penalty_term(-2.0) == pytest.approx(2.0)
    arr = smoothed_penalty_term(np.array([0.5, -3.0]))
    assert arr == pytest.approx([0.25, 3.0])


def test_report_csv_round_trip(tmp_path):
    report = FairnessReport(error=1.5, value=2.0, absolute=1.0, under=1.0,
                            over=1.0, nonparity=0.5)
    path = tmp_path / "report.csv"
    path.write_text(report.to_csv(), encoding="utf-8")
    back = FairnessReport.from_csv(path.read_text(encoding="utf-8"))
    assert back == report
    assert report.as_dict()["value"] == 2.0
