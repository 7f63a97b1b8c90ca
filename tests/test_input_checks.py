"""Input checks of the library objects: each row builds an object, or makes
a call, that one check must refuse, and names the error it must raise (a
KeyError for an unknown genre, a ValueError otherwise)."""

import re

import numpy as np
import pytest

from faircf.data import GroupAssignment, RatingSet
from faircf.experiments import (ExperimentPlan, ExperimentResult, evaluate,
                                paired_t_statistic, render)
from faircf.fairness import PENALTY_KINDS, FairnessReport, group_item_averages
from faircf.ingest import FilteredDataset, GenreStats, MovieLensRaw, filter_dataset
from faircf.model import ModelParams, TrainConfig
from faircf.synthetic import BlockModelSpec, SyntheticDataset
from faircf.trainer import train


def empty_ratings():
    return RatingSet([], [], [], 2, 2)


def two_users():
    return RatingSet([0, 1], [0, 1], [1.0, -1.0], 2, 2)


def one_penalty_result():
    plan = ExperimentPlan("synthetic_U", penalties=("none",), trials=2)
    return ExperimentResult(plan, {"none": [FairnessReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)] * 2})


NO_RATINGS = MovieLensRaw({}, {}, *[np.zeros(0, dtype=np.int64)] * 3, "empty")

CASES = {
    "plan-no-penalties": (lambda: ExperimentPlan("synthetic_U", penalties=()),
                          "at least one penalty is required"),
    "plan-no-jobs": (lambda: ExperimentPlan("synthetic_U", jobs=0), "jobs must be >= 1"),
    "plan-unknown-penalty": (lambda: ExperimentPlan("synthetic_U", penalties=("gini",)),
                             f"unknown penalty 'gini'; valid: {', '.join(PENALTY_KINDS)}"),
    "plan-no-users": (lambda: ExperimentPlan("synthetic_U", num_users=0),
                      "num_users and num_items must be positive"),
    "plan-test-fraction": (lambda: ExperimentPlan("movielens", ml_dir="x", test_fraction=1.5),
                           "test_fraction must lie strictly between 0 and 1"),
    # A plan checks every field it records, whichever scenario reads it.
    "plan-synthetic-test-fraction": (lambda: ExperimentPlan("synthetic_U", test_fraction=7.0),
                                     "test_fraction must lie strictly between 0 and 1"),
    "plan-movielens-users": (lambda: ExperimentPlan("movielens", ml_dir="x", num_users=-5),
                             "num_users and num_items must be positive"),
    "config-penalty-weight": (lambda: TrainConfig(penalty_weight=-1.0),
                              "penalty_weight must be >= 0"),
    "config-seed-negative": (lambda: TrainConfig(seed=-1), "seed must be non-negative"),
    # NaN fails every comparison, so each range check must be one that NaN fails
    "config-reg-nan": (lambda: TrainConfig(lambda_reg=float("nan")), "lambda_reg must be >= 0"),
    "config-rate-nan": (lambda: TrainConfig(learning_rate=float("nan")),
                        "learning_rate must be > 0"),
    "config-weight-nan": (lambda: TrainConfig(penalty_weight=np.nan),
                          "penalty_weight must be >= 0"),
    # An infinite weight overflows the first objective; an infinite learning
    # rate stays allowed (tests/test_trainer.py forces divergence with it).
    "config-reg-inf": (lambda: TrainConfig(lambda_reg=float("inf")), "lambda_reg must be finite"),
    "config-weight-inf": (lambda: TrainConfig(penalty_weight=np.inf),
                          "penalty_weight must be finite"),
    "config-reg-minus-inf": (lambda: TrainConfig(lambda_reg=-np.inf), "lambda_reg must be >= 0"),
    "spec-no-users": (lambda: BlockModelSpec(num_users=0),
                      "num_users and num_items must be positive"),
    "spec-no-items": (lambda: BlockModelSpec(num_items=-3),
                      "num_users and num_items must be positive"),
    "spec-proportions-shape": (lambda: BlockModelSpec(item_group_proportions=np.full(4, 0.25)),
                               "item group proportions must match the labels"),
    "spec-probs-shape": (lambda: BlockModelSpec(like_probs=np.full((3, 3), 0.5)),
                         "like_probs must be shaped (user groups, item groups)"),
    # A field of the wrong type is refused when built, not met as a TypeError
    # inside train, run_experiment or generate.
    "config-iterations-float": (lambda: TrainConfig(iterations=2.5),
                                "iterations: expected int, got 2.5"),
    "config-d-bool": (lambda: TrainConfig(d=True), "d: expected int, got True"),
    "config-weight-str": (lambda: TrainConfig(penalty_weight="1"),
                          "penalty_weight: expected float, got '1'"),
    "plan-trials-float": (lambda: ExperimentPlan(scenario="synthetic_U", trials=2.5),
                          "trials: expected int, got 2.5"),
    "plan-penalties-str": (lambda: ExperimentPlan("synthetic_U", penalties="value"),
                           "penalties: expected tuple, got 'value'"),
    "plan-config-none": (lambda: ExperimentPlan(scenario="synthetic_U", config=None),
                         "config: expected TrainConfig, got None"),
    "plan-ml-dir-int": (lambda: ExperimentPlan(scenario="movielens", ml_dir=5),
                        "ml_dir: expected str | None, got 5"),
    "spec-users-float": (lambda: BlockModelSpec(num_users=2.5),
                         "num_users: expected int, got 2.5"),
    "spec-labels-ints": (lambda: BlockModelSpec(user_group_labels=[1, 2, 3, 4]),
                         "user_group_labels: expected tuple, got [1, 2, 3, 4]"),
    "spec-probs-dict": (lambda: BlockModelSpec(like_probs={"W": 0.5}),
                        "like_probs: expected numbers, got {'W': 0.5}"),
    "ratings-empty-grid": (lambda: RatingSet([], [], [], 0, 1),
                           "rating grid must have at least one user and one item"),
    # A grid size is an int, not truncated to one.
    "ratings-users-float": (lambda: RatingSet([0, 1], [0, 0], [1.0, 1.0], 2.9, 1),
                            "num_users: expected int, got 2.9"),
    "ratings-users-bool": (lambda: RatingSet([0], [0], [1.0], True, 1),
                           "num_users: expected int, got True"),
    "ratings-items-float": (lambda: RatingSet([0], [0], [1.0], 1, 1.0),
                            "num_items: expected int, got 1.0"),
    "groups-2d": (lambda: GroupAssignment(np.zeros((2, 2), dtype=bool)),
                  "disadvantaged must be a 1-d boolean array"),
    # An index or label array is refused unless its kind converts without loss.
    "ratings-users-floats": (lambda: RatingSet(np.array([0.7, 1.9]), [0, 0], [1.0, 2.0], 2, 1),
                             "users: expected integers, got array([0.7, 1.9])"),
    "ratings-items-bools": (lambda: RatingSet([0, 1], [True, False], [1.0, 2.0], 2, 1),
                            "items: expected integers, got [True, False]"),
    # A long refused value is cut short: 65 characters, not 500,030.
    "ratings-users-long": (lambda: RatingSet([0.5] * 100000, [0] * 100000, [1.0] * 100000, 1, 1),
                           "users: expected integers, got [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, ...]"),
    # A dataset refuses a set, labels or spec of another class.
    "synthetic-groups-none": (lambda: SyntheticDataset(two_users(), None, [0, 1], [0, 1],
                                                       BlockModelSpec()),
                              "groups: expected GroupAssignment, got None"),
    "filtered-ratings-list": (lambda: FilteredDataset([], GroupAssignment([True]), [], [1], [],
                                                      ("Action",)),
                              "ratings: expected RatingSet, got []"),
    "filtered-genres-not-tuples": (lambda: FilteredDataset(two_users(), GroupAssignment([True, False]),
                                                           ["Action", "Crime"], [1, 2], [1, 2],
                                                           ("Action", "Crime")),
                                   "movie_genres: expected tuple[tuple], got ['Action', 'Crime']"),
    "groups-str": (lambda: GroupAssignment(["0", "1"]),
                   "disadvantaged: expected booleans, got ['0', '1']"),
    "groups-float": (lambda: GroupAssignment(np.array([0.0, 1.0])),
                     "disadvantaged: expected booleans, got array([0., 1.])"),
    "spec-proportions-str": (lambda: BlockModelSpec(user_group_proportions=["0.25"] * 4),
                             "user_group_proportions: expected numbers, "
                             "got ['0.25', '0.25', '0.25', '0.25']"),
    "params-1d-factors": (lambda: ModelParams([1.0], [[1.0]], [0.0], [0.0]),
                          "factor matrices must be 2-d"),
    "params-item-bias": (lambda: ModelParams([[1.0]], [[1.0]], [0.0], [0.0, 0.0]),
                         "item_bias length must match item_vectors"),
    "params-flat-size": (lambda: ModelParams.from_flat(np.zeros(3), 1, 1, 1),
                         "flat parameter vector does not match the block sizes"),
    "render-xml": (lambda: render(one_penalty_result(), fmt="xml"),
                   "unknown render format 'xml'"),
    "averages-misaligned": (lambda: group_item_averages(np.zeros(3), empty_ratings(),
                                                        GroupAssignment([True, False])),
                            "predictions must align with the rating entries"),
    "t-test-lengths": (lambda: paired_t_statistic([1.0, 2.0], [1.0, 2.0, 3.0]),
                       "paired samples must be 1-d arrays of equal length"),
    "t-test-2d": (lambda: paired_t_statistic([[1.0, 2.0]], [[3.0, 4.0]]),
                  "paired samples must be 1-d arrays of equal length"),
    "t-test-one-pair": (lambda: paired_t_statistic([1.0], [2.0]),
                        "paired t-test needs at least 2 pairs"),
    "filter-min-ratings": (lambda: filter_dataset(NO_RATINGS, min_ratings=0),
                           "min_ratings must be >= 1"),
    "train-empty": (lambda: train(empty_ratings(), GroupAssignment([True, False]),
                                  TrainConfig()),
                    "cannot train on an empty rating set"),
    "evaluate-empty": (lambda: evaluate(ModelParams.zeros(2, 2, 1), empty_ratings(),
                                        GroupAssignment([True, False])),
                       "cannot evaluate on an empty target set"),
    # Labels that do not cover the grid are refused before the first update,
    # penalized or not, and by evaluate.
    "train-labels-none": (lambda: train(two_users(), GroupAssignment([True, False, True]),
                                        TrainConfig(iterations=1)),
                          "group labels cover 3 users, ratings declare 2"),
    "train-labels-value": (lambda: train(two_users(), GroupAssignment([True]),
                                         TrainConfig(iterations=1, penalty="value")),
                           "group labels cover 1 users, ratings declare 2"),
    "evaluate-labels": (lambda: evaluate(ModelParams.zeros(2, 2, 1), two_users(),
                                         GroupAssignment([True])),
                        "group labels cover 1 users, ratings declare 2"),
    # A model scores only targets on its own grid, smaller or larger.
    "evaluate-fewer-users": (lambda: evaluate(ModelParams.zeros(1, 2, 1), two_users(),
                                              GroupAssignment([True, False])),
                             "model grid 1 x 2 does not match target grid 2 x 2"),
    "evaluate-fewer-items": (lambda: evaluate(ModelParams.zeros(2, 1, 1), two_users(),
                                              GroupAssignment([True, False])),
                             "model grid 2 x 1 does not match target grid 2 x 2"),
    "evaluate-more-users": (lambda: evaluate(ModelParams.zeros(3, 2, 1), two_users(),
                                             GroupAssignment([True, False])),
                            "model grid 3 x 2 does not match target grid 2 x 2"),
    "genre-unknown": (lambda: GenreStats([]).get("Western"), "'Western'"),
}


@pytest.mark.parametrize("build, message", CASES.values(), ids=CASES.keys())
def test_an_invalid_input_raises_when_built(build, message):
    with pytest.raises((KeyError, ValueError), match=f"^{re.escape(message)}$"):
        build()


def test_a_rating_set_takes_numpy_integer_grid_sizes_as_ints():
    ratings = RatingSet([0, 1], [0, 2], [1.0, 1.0], np.int64(2), np.int32(3))
    assert (ratings.num_users, ratings.num_items) == (2, 3)
    assert type(ratings.num_users) is int and type(ratings.num_items) is int


def test_configs_take_numpy_integers_and_keep_a_list_of_str_as_a_tuple():
    assert TrainConfig(iterations=np.int64(3), lambda_reg=0).iterations == 3
    plan = ExperimentPlan("synthetic_U", penalties=["none", "value"], trials=np.int32(2))
    assert plan.penalties == ("none", "value")
    assert BlockModelSpec(user_group_labels=list("ABCD"),
                          disadvantaged_user_groups=["A"]).user_group_labels == tuple("ABCD")


def test_a_numpy_scalar_field_is_kept_as_its_python_value():
    config = TrainConfig(iterations=np.int64(3), lambda_reg=np.float32(0.5),
                         penalty=np.str_("value"))
    assert [type(config.iterations), type(config.lambda_reg), type(config.penalty)] \
        == [int, float, str]
    assert type(BlockModelSpec(seed=np.uint8(4)).seed) is int
