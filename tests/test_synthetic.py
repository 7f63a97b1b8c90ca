"""Block-model generator: quotas, rates, complements, and the builtin settings."""

import numpy as np
import pytest

from faircf.data import RatingSet
from faircf.fairness import group_item_averages, metric
from faircf.synthetic import (LIKE_PROBS, OBS_BIASED, OBS_UNIFORM, POP_IMBALANCED,
                              POP_UNIFORM, BlockModelSpec, builtin_specs,
                              evaluation_set, generate, load_spec, spec_from_json,
                              spec_to_json)


def test_builtin_tables_are_frozen():
    assert LIKE_PROBS == pytest.approx(np.array([
        [0.8, 0.2, 0.2],
        [0.8, 0.8, 0.2],
        [0.2, 0.8, 0.8],
        [0.2, 0.2, 0.8],
    ]))
    assert OBS_UNIFORM == pytest.approx(np.full((4, 3), 0.4))
    assert OBS_BIASED == pytest.approx(np.array([
        [0.6, 0.2, 0.1],
        [0.3, 0.4, 0.2],
        [0.1, 0.3, 0.5],
        [0.05, 0.5, 0.35],
    ]))
    assert POP_UNIFORM == pytest.approx(np.full(4, 0.25))
    assert POP_IMBALANCED == pytest.approx([0.4, 0.1, 0.4, 0.1])


def test_builtin_specs_wiring():
    specs = builtin_specs(num_users=40, num_items=30, seed=5)
    assert set(specs) == {"U", "O", "P", "P+O"}
    assert specs["U"].user_group_proportions == pytest.approx(POP_UNIFORM)
    assert specs["U"].obs_probs == pytest.approx(OBS_UNIFORM)
    assert specs["O"].user_group_proportions == pytest.approx(POP_UNIFORM)
    assert specs["O"].obs_probs == pytest.approx(OBS_BIASED)
    assert specs["P"].user_group_proportions == pytest.approx(POP_IMBALANCED)
    assert specs["P"].obs_probs == pytest.approx(OBS_UNIFORM)
    assert specs["P+O"].user_group_proportions == pytest.approx(POP_IMBALANCED)
    assert specs["P+O"].obs_probs == pytest.approx(OBS_BIASED)
    for spec in specs.values():
        assert spec.num_users == 40 and spec.num_items == 30 and spec.seed == 5


def test_group_quotas_are_exact():
    data = generate(builtin_specs(num_users=400, num_items=300, seed=0)["P"])
    counts = np.bincount(data.user_group, minlength=4)
    assert counts.tolist() == [160, 40, 160, 40]
    # W and WS form the disadvantaged side
    assert np.array_equal(data.groups.disadvantaged, data.user_group <= 1)
    items = np.bincount(data.item_group, minlength=3)
    assert items.tolist() == [100, 100, 100]


def test_quota_remainders_go_to_largest():
    # quarters of 10 leave two seats; stable tie-break hands them to the
    # first two groups
    spec = BlockModelSpec(num_users=10, num_items=3, seed=2)
    counts = np.bincount(generate(spec).user_group, minlength=4)
    assert counts.tolist() == [3, 3, 2, 2]


def test_expected_ratings_follow_like_table():
    data = generate(builtin_specs(num_users=40, num_items=30, seed=3)["U"])
    w_users = np.nonzero(data.user_group == 0)[0]
    fem_items = np.nonzero(data.item_group == 0)[0]
    stem_items = np.nonzero(data.item_group == 1)[0]
    # 2 * 0.8 - 1 and 2 * 0.2 - 1
    assert data.expected_ratings[np.ix_(w_users, fem_items)] == pytest.approx(0.6)
    assert data.expected_ratings[np.ix_(w_users, stem_items)] == pytest.approx(-0.6)


def test_observed_values_are_signs():
    data = generate(builtin_specs(num_users=40, num_items=30, seed=4)["P+O"])
    assert set(np.unique(data.observed.values)) <= {-1.0, 1.0}


def test_zero_observation_probability_gives_empty_set():
    spec = BlockModelSpec(num_users=8, num_items=6, seed=0,
                          obs_probs=np.zeros((4, 3)))
    data = generate(spec)
    assert len(data.observed) == 0
    assert len(evaluation_set(data)) == 8 * 6


def test_certain_likes_give_all_ones():
    spec = BlockModelSpec(num_users=8, num_items=6, seed=0,
                          like_probs=np.ones((4, 3)),
                          obs_probs=np.ones((4, 3)))
    data = generate(spec)
    assert len(data.observed) == 8 * 6
    assert np.all(data.observed.values == 1.0)


def test_block_rates_land_near_probabilities():
    data = generate(builtin_specs(num_users=400, num_items=300, seed=7)["U"])
    cells = 400 * 300
    rate = len(data.observed) / cells
    se = np.sqrt(0.4 * 0.6 / cells)
    assert abs(rate - 0.4) < 3 * se
    # like rate inside the (W, Fem) block
    w = data.user_group == 0
    fem = data.item_group == 0
    block = w[data.observed.users] & fem[data.observed.items]
    likes = np.mean(data.observed.values[block] == 1.0)
    se = np.sqrt(0.8 * 0.2 / block.sum())
    assert abs(likes - 0.8) < 3 * se


def test_evaluation_set_is_the_exact_complement():
    data = generate(builtin_specs(num_users=30, num_items=20, seed=9)["O"])
    held = evaluation_set(data)
    assert len(data.observed) + len(held) == 30 * 20
    seen = set(zip(data.observed.users.tolist(), data.observed.items.tolist()))
    held_keys = set(zip(held.users.tolist(), held.items.tolist()))
    assert not seen & held_keys
    for u, i, v in held.entries:
        assert v == data.expected_ratings[u, i]


def test_population_mix_puts_nonparity_in_the_truth():
    # P: W .4 (row mean -0.2), WS .1 (+0.2), MS .4 (+0.2), M .1 (-0.2) gives
    # group means -0.12 and +0.12 on the full grid; U balances them out.
    for setting, want in (("P", 0.24), ("U", 0.0)):
        data = generate(builtin_specs(num_users=400, num_items=300, seed=0)[setting])
        rows, cols = np.indices(data.expected_ratings.shape).reshape(2, -1)
        grid = RatingSet(rows, cols, data.expected_ratings[rows, cols], 400, 300)
        truth = metric("nonparity", group_item_averages(grid.values, grid, data.groups))
        assert truth == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("setting, biased", [("U", False), ("O", True),
                                              ("P", False), ("P+O", True)])
def test_biased_observation_is_missing_not_at_random(setting, biased):
    # Biased observation over-samples the cells each block likes, so each
    # group's observed ratings average above the truth of its held-out cells;
    # uniform observation keeps the two in line.
    data = generate(builtin_specs(num_users=400, num_items=300, seed=0)[setting])
    held = evaluation_set(data)
    for side in (True, False):
        seen = data.groups.disadvantaged[data.observed.users] == side
        unseen = data.groups.disadvantaged[held.users] == side
        observed_mean = data.observed.values[seen].mean()
        held_mean = held.values[unseen].mean()
        if biased:
            assert observed_mean > held_mean
        else:
            assert abs(observed_mean - held_mean) < 0.05


def test_generation_is_seed_deterministic():
    spec = builtin_specs(num_users=25, num_items=15, seed=13)["P+O"]
    one, two = generate(spec), generate(spec)
    assert np.array_equal(one.observed.users, two.observed.users)
    assert np.array_equal(one.observed.values, two.observed.values)
    assert np.array_equal(one.user_group, two.user_group)
    other = generate(builtin_specs(num_users=25, num_items=15, seed=14)["P+O"])
    assert not (len(one.observed) == len(other.observed)
                and np.array_equal(one.observed.users, other.observed.users)
                and np.array_equal(one.observed.values, other.observed.values))


def test_spec_json_round_trip(tmp_path):
    spec = builtin_specs(num_users=12, num_items=9, seed=31)["P"]
    back = spec_from_json(spec_to_json(spec))
    assert back.user_group_labels == spec.user_group_labels
    assert back.user_group_proportions == pytest.approx(spec.user_group_proportions)
    assert back.like_probs == pytest.approx(spec.like_probs)
    assert back.obs_probs == pytest.approx(spec.obs_probs)
    assert (back.num_users, back.num_items, back.seed) == (12, 9, 31)
    path = tmp_path / "spec.json"
    path.write_text(spec_to_json(spec), encoding="utf-8")
    assert load_spec(path).disadvantaged_user_groups == spec.disadvantaged_user_groups


def test_spec_validation():
    with pytest.raises(ValueError):
        BlockModelSpec(user_group_proportions=np.array([0.5, 0.5, 0.0, 0.5])).validate()
    with pytest.raises(ValueError):
        BlockModelSpec(obs_probs=np.full((4, 3), 1.5)).validate()
    with pytest.raises(ValueError):
        BlockModelSpec(disadvantaged_user_groups=("W", "Q")).validate()
