"""Acceptance gate: one test and one printed verdict line per criterion.

Criteria 5 and 6 need the real MovieLens-1M archive and skip when it is not
around (FAIRCF_ML1M_DIR or ./data/ml-1m).  Criterion 3 compares the four
synthetic bias settings one factor at a time (U -> O and P -> P+O for
observation bias, U -> P and O -> P+O for population imbalance) and scores
non-parity as what the model adds on top of the non-parity already present in
the expected ratings; its failure message carries the clause-by-clause
breakdown.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from faircf.cli import main as cli_main
from faircf.data import GroupAssignment, RatingSet
from faircf.experiments import (PAPER_PENALTIES, ExperimentPlan, evaluate,
                                paired_t_statistic, run_bias_settings_study,
                                run_experiment)
from faircf.fairness import group_item_averages, metric, penalty_gradient
from faircf.ingest import filter_dataset, genre_stats, parse
from faircf.model import TrainConfig, mf_gradient
from faircf.synthetic import builtin_specs, evaluation_set, generate
from faircf.trainer import train
from conftest import find_ml1m_dir, write_ml_corpus
from oracles import (away_from_kinks, finite_difference, objective_fn,
                     penalty_fn, random_instance)

GRADIENT_KINDS = ("base", "value", "absolute", "under", "over", "nonparity",
                  "under_plus_over")

# MovieLens-1M reference statistics of the standard preparation, in the
# table order Romance, Action, Sci-Fi, Musical, Crime.
ML_USERS, ML_MOVIES = 2953, 1006
ML_GENRE_TABLE = {
    "Romance": (325, 54.79, 36.97, 3.64, 3.55),
    "Action": (425, 52.00, 82.97, 3.45, 3.45),
    "Sci-Fi": (237, 31.19, 50.46, 3.42, 3.44),
    "Musical": (93, 15.04, 10.83, 3.79, 3.58),
    "Crime": (142, 17.45, 23.90, 3.65, 3.68),
}


def announce(capsys, number, name, verdict, detail=""):
    tail = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[criterion {number}] {name}: {verdict}{tail}")


def pooled_stderr(res_a, res_b, pen_a, pen_b, metric):
    return math.hypot(res_a.stderrs[pen_a][metric], res_b.stderrs[pen_b][metric])


def test_criterion_1_gradients_match_central_differences(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for point in range(100):
        kind = GRADIENT_KINDS[point % len(GRADIENT_KINDS)]
        while True:
            ratings, groups, params = random_instance(rng, max_users=6, max_items=4, d=2)
            if kind == "base" or away_from_kinks(kind, params, ratings,
                                                 groups.disadvantaged):
                break
        if kind == "base":
            lam = float(rng.uniform(0.0, 0.2))
            grad = mf_gradient(params, ratings, lam)
            numeric = finite_difference(objective_fn(ratings, lam), params)
        else:
            grad = penalty_gradient(kind, params, ratings, groups)
            numeric = finite_difference(penalty_fn(kind, ratings, groups), params)
        for got, want in zip(grad.arrays(), numeric):
            rel = np.abs(got - want) / np.maximum(1.0, np.abs(got))
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    announce(capsys, 1, "analytic gradients vs central differences",
             "PASS" if ok else "FAIL",
             f"worst relative error {worst:.2e}, {elapsed:.1f}s for 100 points")
    assert worst <= 1e-4
    assert elapsed < 10.0


def test_criterion_2_metrics_match_brute_force(capsys):
    from oracles import brute_force_metrics, predictions_for
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        ratings, groups, params = random_instance(rng, max_users=5, max_items=4)
        report = evaluate(params, ratings, groups)
        want = brute_force_metrics(predictions_for(params, ratings), ratings,
                                   groups.disadvantaged)
        for name, value in want.items():
            worst = max(worst, abs(getattr(report, name) - value))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    announce(capsys, 2, "fairness metrics vs brute-force formulas",
             "PASS" if ok else "FAIL",
             f"worst absolute gap {worst:.2e}, {elapsed:.1f}s for 1000 instances")
    assert worst <= 1e-9
    assert elapsed < 5.0


def added_nonparity(result, setting):
    """Per-trial non-parity the model adds: its held-out non-parity minus the
    non-parity of the expected ratings on the same held-out cells."""
    plan = result.plan
    added = []
    for report, data_seed in zip(result.reports["none"], result.trial_seeds):
        data = generate(builtin_specs(plan.num_users, plan.num_items, seed=data_seed)[setting])
        held = evaluation_set(data)
        truth = metric("nonparity", group_item_averages(held.values, held, data.groups))
        added.append(report.nonparity - truth)
    return np.array(added)


def test_criterion_3_bias_settings_ordering(capsys):
    """One-factor bias effects of the 2x2 block-model design.

    The settings change one factor at a time, so each clause compares two
    settings that differ in one factor only.  U < O < P < P+O is not a total
    order the design gives: "O < P" would weigh the strength of OBS_BIASED
    against that of POP_IMBALANCED, two arbitrary constants.

    Observation bias (U -> O, P -> P+O).  OBS_BIASED over-samples the cells
    each block likes, so ratings are missing not at random: in each group the
    observed ratings average above the expected ratings of the held-out cells
    (five O draws: +0.27 and +0.17 observed against -0.12 and -0.07 held out).
    A model fitted to the observed cells therefore overestimates the held-out
    ones.  Error, value, absolute and over rise; under falls, because the
    per-item group errors move toward overestimation.

    Population imbalance (U -> P, O -> P+O) raises value, absolute and over.
    No document gives a direction for error or under, and both effects are
    tiny, so those links are printed as INFO and not asserted.

    Non-parity.  Under P the W .4 / WS .1 / MS .4 / M .1 mix puts the groups'
    mean expected ratings at -0.12 and +0.12, so the truth itself has a
    non-parity of 0.24 that any accurate model reproduces.  The clauses score
    the non-parity the model adds over the truth on the held-out cells.  The
    P clause is one-sided: L2 shrinkage leaves the model slightly below the
    truth, and that is not added unfairness.
    """
    study = run_bias_settings_study(trials=5, seed=0)
    clauses = []  # (name, hit, info); hit is None for INFO links
    info_links = []

    def link(metric, lo, hi, asserted=True):
        """Clause 'metric rises from lo to hi by more than 1 pooled se'."""
        gap = study[hi].means["none"][metric] - study[lo].means["none"][metric]
        need = pooled_stderr(study[lo], study[hi], "none", "none", metric)
        info = f"gap {gap:+.3f} vs se {need:.3f}"
        if asserted:
            clauses.append((f"{metric}: {lo} < {hi} by >1 pooled se", gap > need, info))
        else:
            clauses.append((f"{metric}: {lo} -> {hi} (unasserted: no documented "
                            "direction, tiny effect)", None, info))
            info_links.append(f"{metric} {lo}->{hi} {gap:+.3f}")

    for lo, hi in (("U", "O"), ("P", "P+O")):
        for metric in ("error", "value", "absolute", "over"):
            link(metric, lo, hi)
        link("under", hi, lo)
    for lo, hi in (("U", "P"), ("O", "P+O")):
        for metric in ("value", "absolute", "over"):
            link(metric, lo, hi)
        for metric in ("error", "under"):
            link(metric, lo, hi, asserted=False)

    added = {s: added_nonparity(study[s], s) for s in ("U", "O", "P", "P+O")}
    mean = {s: float(v.mean()) for s, v in added.items()}
    for setting in ("O", "P+O"):
        clauses.append((f"added nonparity: {setting} > 2x U", mean[setting] > 2 * mean["U"],
                        f"{mean[setting]:+.3f} vs 2x {mean['U']:+.3f}"))
    se = {s: float(v.std(ddof=1)) / math.sqrt(len(v)) for s, v in added.items()}
    wiggle = 2 * math.hypot(se["P"], se["U"])
    clauses.append(("added nonparity: P <= U + 2 pooled se",
                    mean["P"] <= mean["U"] + wiggle,
                    f"{mean['P']:+.3f} vs {mean['U']:+.3f} + {wiggle:.3f}"))

    asserted = [c for c in clauses if c[1] is not None]
    failed = [c for c in asserted if not c[1]]
    ok = not failed
    announce(capsys, 3, "one-factor bias effects across U, O, P, P+O",
             "PASS" if ok else "FAIL",
             f"{len(asserted) - len(failed)}/{len(asserted)} clauses hold; "
             f"INFO unasserted: {', '.join(info_links)}")
    status = {True: "PASS", False: "FAIL", None: "INFO"}
    breakdown = "\n".join(f"  {status[hit]}  {name}  [{info}]" for name, hit, info in clauses)
    assert ok, f"clauses failed:\n{breakdown}"


def test_criterion_4_penalties_reduce_their_own_metric(capsys):
    result = run_experiment(ExperimentPlan(scenario="synthetic_PO", trials=3, seed=0))
    own_metric = {"value": "value", "absolute": "absolute", "under": "under",
                  "over": "over", "nonparity": "nonparity"}
    clauses = []
    for pen, metric in own_metric.items():
        clauses.append((f"{pen} beats none on {metric}",
                        result.means[pen][metric] < result.means["none"][metric]))
    for metric, specialist in (("under", "under"), ("over", "over")):
        bound = (result.means[specialist][metric]
                 + result.stderrs[specialist][metric])
        clauses.append((f"value penalty ties {specialist} on {metric}",
                        result.means["value"][metric] <= bound))
    worst_excess = max(result.means[p]["error"] - result.means["none"]["error"]
                       for p in result.penalties)
    clauses.append(("no penalty costs more than 0.05 error", worst_excess <= 0.05))
    failed = [name for name, hit in clauses if not hit]
    ok = not failed
    announce(capsys, 4, "penalty sweep on the P+O setting",
             "PASS" if ok else "FAIL",
             f"max error excess {worst_excess:+.3f}" + (f"; failed: {failed}" if failed else ""))
    assert ok, f"clauses failed: {failed}"


def test_criterion_5_movielens_preparation(capsys):
    ml_dir = find_ml1m_dir()
    if ml_dir is None:
        announce(capsys, 5, "MovieLens-1M preparation", "SKIP",
                 "dataset not present")
        pytest.skip("MovieLens-1M not available")
    data = filter_dataset(parse(ml_dir))
    stats = genre_stats(data)
    problems = []
    if data.ratings.num_users != ML_USERS:
        problems.append(f"users {data.ratings.num_users} != {ML_USERS}")
    if data.ratings.num_items != ML_MOVIES:
        problems.append(f"movies {data.ratings.num_items} != {ML_MOVIES}")
    for genre, (count, per_f, per_m, avg_f, avg_m) in ML_GENRE_TABLE.items():
        row = stats.get(genre)
        if row.movie_count != count:
            problems.append(f"{genre} count {row.movie_count} != {count}")
        for name, got, want in (("ratings/female", row.ratings_per_female, per_f),
                                ("ratings/male", row.ratings_per_male, per_m),
                                ("avg female", row.avg_rating_female, avg_f),
                                ("avg male", row.avg_rating_male, avg_m)):
            if abs(got - want) > 0.01:
                problems.append(f"{genre} {name} {got:.3f} != {want:.2f}")
    ok = not problems
    announce(capsys, 5, "MovieLens-1M preparation", "PASS" if ok else "FAIL",
             "; ".join(problems) if problems else
             f"{ML_USERS} users, {ML_MOVIES} movies, all table cells")
    assert ok, problems


def test_criterion_6_movielens_penalty_sweep(capsys):
    ml_dir = find_ml1m_dir()
    if ml_dir is None:
        announce(capsys, 6, "MovieLens-1M penalty sweep", "SKIP",
                 "dataset not present")
        pytest.skip("MovieLens-1M not available")
    plan = ExperimentPlan(scenario="movielens", penalties=PAPER_PENALTIES,
                          trials=5, seed=0, ml_dir=str(ml_dir))
    result = run_experiment(plan)
    clauses = []
    for pen in ("value", "absolute", "under", "over", "nonparity"):
        best = min(result.penalties, key=lambda p: result.means[p][pen])
        bound = (result.means[best][pen]
                 + math.hypot(result.stderrs[pen][pen], result.stderrs[best][pen]))
        clauses.append((f"{pen} minimizes or ties its own column",
                        result.means[pen][pen] <= bound))
    clauses.append(("nonparity penalty drives nonparity below 0.02",
                    result.means["nonparity"]["nonparity"] < 0.02))
    errors = [result.means[p]["error"] for p in result.penalties]
    clauses.append(("error spread below 0.02", max(errors) - min(errors) < 0.02))
    failed = [name for name, hit in clauses if not hit]
    ok = not failed
    announce(capsys, 6, "MovieLens-1M penalty sweep", "PASS" if ok else "FAIL",
             f"failed: {failed}" if failed else "all clauses hold")
    assert ok, f"clauses failed: {failed}"


def test_criterion_7_manifest_reruns_are_byte_identical(capsys, tmp_path):
    corpus = write_ml_corpus(tmp_path / "corpus")
    data_dir = tmp_path / "data"
    model_dir = tmp_path / "model"
    report_dir = tmp_path / "report"
    exp_dir = tmp_path / "exp"
    prep_dir = tmp_path / "prep"
    runs = [
        ("generate", ["generate", "--scenario", "P+O", "--users", "20",
                      "--items", "15", "--seed", "3", "--out", str(data_dir)]),
        ("train", ["train", "--data", str(data_dir), "--iterations", "30",
                   "--penalty", "value", "--out", str(model_dir)]),
        ("evaluate", ["evaluate", "--model", str(model_dir / "model.txt"),
                      "--data", str(data_dir), "--out", str(report_dir)]),
        ("experiment", ["experiment", "--scenario", "synthetic_U", "--trials", "2",
                        "--users", "15", "--items", "12", "--iterations", "20",
                        "--penalties", "none,value", "--out", str(exp_dir)]),
        ("prepare-movielens", ["prepare-movielens", "--ml-dir", str(corpus),
                               "--min-ratings", "2", "--out", str(prep_dir)]),
    ]
    mismatches = []
    for label, argv in runs:
        assert cli_main(argv) == 0, label
        out_dir = Path(argv[argv.index("--out") + 1])
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        redo_dir = tmp_path / f"redo-{label}"
        assert cli_main(["rerun", str(out_dir / "manifest.json"),
                         "--out", str(redo_dir)]) == 0, label
        for name in manifest["outputs"]:
            if (out_dir / name).read_bytes() != (redo_dir / name).read_bytes():
                mismatches.append(f"{label}/{name}")
    ok = not mismatches
    announce(capsys, 7, "manifest reruns reproduce result files",
             "PASS" if ok else "FAIL",
             f"checked {len(runs)} commands" if ok else f"differs: {mismatches}")
    assert ok, mismatches


def test_criterion_8_t_test_calibration(capsys):
    rng = np.random.default_rng(808)
    rejections = 0
    for _ in range(1000):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        _, p = paired_t_statistic(a, b)
        rejections += p < 0.05
    rate = rejections / 1000.0
    ok = 0.03 <= rate <= 0.07
    announce(capsys, 8, "paired t-test null calibration",
             "PASS" if ok else "FAIL", f"rejection rate {rate:.3f} at alpha 0.05")
    assert ok, rate


def test_timing_ratio_informational(capsys):
    # soft target: penalized iterations should stay within ~4x the plain
    # ones; machine dependent, so reported without asserting
    data = generate(builtin_specs(num_users=200, num_items=150, seed=0)["U"])
    timings = {}
    for pen in ("none", "value"):
        config = TrainConfig(iterations=40, penalty=pen, seed=0)
        start = time.perf_counter()
        train(data.observed, data.groups, config)
        timings[pen] = (time.perf_counter() - start) / config.iterations
    ratio = timings["value"] / timings["none"]
    announce(capsys, "timing", "penalized / plain seconds per iteration", "INFO",
             f"{timings['value']:.4f}s vs {timings['none']:.4f}s, ratio {ratio:.2f}")
