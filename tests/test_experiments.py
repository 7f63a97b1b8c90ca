"""Trial harness: evaluation, paired tests, aggregation, and rendering."""

import json

import numpy as np
import pytest
import scipy.stats

from faircf import experiments
from faircf.data import GroupAssignment, RatingSet, json_text
from faircf.experiments import (SIGNIFICANCE_LEVEL, ExperimentPlan, derive_seed, evaluate,
                                long_csv, paired_t_statistic, parse_table_csv, render,
                                run_experiment)
from faircf.model import ModelParams, TrainConfig
from oracles import brute_force_metrics, predictions_for, random_instance


def tiny_plan(**overrides):
    settings = dict(scenario="synthetic_U", penalties=("none", "value"), trials=2,
                    num_users=20, num_items=15, seed=3,
                    config=TrainConfig(iterations=30))
    settings.update(overrides)
    return ExperimentPlan(**settings)


def test_evaluate_hand_values():
    params = ModelParams.zeros(2, 2, 1)
    targets = RatingSet([0, 0, 1, 1], [0, 1, 0, 1], [1.0, -1.0, -1.0, 1.0], 2, 2)
    groups = GroupAssignment(np.array([True, False]))
    report = evaluate(params, targets, groups)
    assert report.error == pytest.approx(1.0)
    assert report.value == pytest.approx(2.0)
    assert report.absolute == pytest.approx(0.0)
    assert report.under == pytest.approx(1.0)
    assert report.over == pytest.approx(1.0)
    assert report.nonparity == pytest.approx(0.0)


def test_evaluate_matches_brute_force():
    rng = np.random.default_rng(15)
    for _ in range(30):
        targets, groups, params = random_instance(rng)
        report = evaluate(params, targets, groups)
        want = brute_force_metrics(predictions_for(params, targets), targets,
                                   groups.disadvantaged)
        for name, value in want.items():
            assert getattr(report, name) == pytest.approx(value, abs=1e-12)


def test_paired_t_hand_example():
    a = np.array([2.0, 3.0, 4.0])
    b = np.array([1.0, 1.0, 1.0])       # diffs 1, 2, 3
    t, p = paired_t_statistic(a, b)
    assert t == pytest.approx(2.0 * np.sqrt(3.0))
    assert p == pytest.approx(0.0742, abs=5e-4)
    assert p >= SIGNIFICANCE_LEVEL                  # indistinguishable


def test_paired_t_matches_scipy():
    rng = np.random.default_rng(44)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        a = rng.normal(size=n)
        b = a + rng.normal(size=n)
        t, p = paired_t_statistic(a, b)
        want = scipy.stats.ttest_rel(a, b)
        assert t == pytest.approx(want.statistic)
        assert p == pytest.approx(want.pvalue)


def test_paired_t_degenerate_cases():
    same = np.array([0.5, 0.5, 0.5])
    t, p = paired_t_statistic(same, same)
    assert (t, p) == (0.0, 1.0)
    assert p >= SIGNIFICANCE_LEVEL                  # indistinguishable
    shifted = same + 0.2                # zero variance, nonzero mean
    t, p = paired_t_statistic(shifted, same)
    assert p == 0.0 and np.isinf(t)
    assert p < SIGNIFICANCE_LEVEL                   # distinct


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(0, "data", "U", "0") == derive_seed(0, "data", "U", "0")
    seen = {derive_seed(0, "data", "U", "0"), derive_seed(0, "data", "U", "1"),
            derive_seed(0, "train", "U", "0"), derive_seed(1, "data", "U", "0")}
    assert len(seen) == 4
    for s in seen:
        assert 0 <= s < 2 ** 63


def test_run_experiment_shapes_and_aggregates():
    result = run_experiment(tiny_plan())
    assert result.penalties == ("none", "value")
    for pen in result.penalties:
        assert len(result.reports[pen]) == 2
        for metric in ("error", "value", "nonparity"):
            values = result.metric_values(pen, metric)
            assert result.means[pen][metric] == pytest.approx(values.mean())
            assert result.stderrs[pen][metric] == pytest.approx(
                values.std(ddof=1) / np.sqrt(2))
    for metric, members in result.indistinguishable.items():
        best = min(result.penalties, key=lambda p: result.means[p][metric])
        assert best in members


def test_trials_share_datasets_across_penalties():
    # the paired design feeds every penalty the same per-trial data, so the
    # seeded init makes unpenalized rows repeatable between plans
    one = run_experiment(tiny_plan(penalties=("none",)))
    two = run_experiment(tiny_plan(penalties=("none", "value")))
    assert one.trial_seeds == two.trial_seeds
    for r_one, r_two in zip(one.reports["none"], two.reports["none"]):
        assert r_one == r_two


def test_run_experiment_is_deterministic():
    one, two = run_experiment(tiny_plan()), run_experiment(tiny_plan())
    assert one.means == two.means and one.stderrs == two.stderrs


def test_parallel_trials_match_serial():
    serial = run_experiment(tiny_plan())
    parallel = run_experiment(tiny_plan(jobs=2))
    assert serial.means == parallel.means
    assert serial.indistinguishable == parallel.indistinguishable


def test_jobs_start_at_most_one_worker_per_trial(monkeypatch):
    """A pool asks for at most one worker per trial, however many jobs the
    plan allows (the fork start method starts every worker at the first
    submit); a stand-in pool records the count and runs nothing in parallel."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    for jobs in (4, 100000, 2):
        run_experiment(tiny_plan(jobs=jobs, penalties=("none",), config=TrainConfig(iterations=1)))
    assert asked == [2, 2, 2]


def test_a_plan_of_numpy_integers_writes_its_summary_as_json():
    plan = tiny_plan(penalties=("none",), trials=np.int64(2), seed=np.int32(3),
                     num_users=np.int64(20), config=TrainConfig(iterations=np.int64(2)))
    summary = run_experiment(plan).summary_dict()
    assert json.loads(json_text(summary)) == summary


def test_movielens_scenario_runs_on_corpus(bulk_ml_dir):
    plan = ExperimentPlan(scenario="movielens", penalties=("none",), trials=2,
                          ml_dir=str(bulk_ml_dir), test_fraction=0.25,
                          config=TrainConfig(iterations=20), seed=1)
    result = run_experiment(plan)
    report = result.reports["none"][0]
    assert np.isfinite(report.error)
    assert result.means["none"]["error"] >= 0.0


def test_render_text_and_csv():
    result = run_experiment(tiny_plan())
    text = render(result)
    assert "±" in text and "None" in text and "Value" in text
    parsed = parse_table_csv(render(result, fmt="csv"))
    for pen in result.penalties:
        for metric in ("error", "value"):
            mean, stderr, best = parsed[pen][metric]
            assert mean == pytest.approx(result.means[pen][metric])
            assert stderr == pytest.approx(result.stderrs[pen][metric])
            assert best == (pen in result.indistinguishable[metric])
    lines = long_csv([result]).splitlines()
    assert lines[0] == "scenario,penalty,trial,metric,value"
    assert len(lines) == 1 + 2 * 2 * 6  # penalties x trials x metrics


def test_plan_validation():
    with pytest.raises(ValueError):
        tiny_plan(trials=1)
    with pytest.raises(ValueError):
        tiny_plan(penalties=("none", "none"))
    with pytest.raises(ValueError):
        tiny_plan(scenario="bogus")
    with pytest.raises(ValueError):
        tiny_plan(scenario="movielens")   # needs ml_dir
    with pytest.raises(ValueError):
        tiny_plan(penalties=("gini",))
