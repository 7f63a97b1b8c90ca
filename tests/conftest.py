"""Shared fixtures and helpers: a tiny MovieLens-style corpus, real-data
discovery, the trainer's loss pass on a rating set, the route prediction
takes and the environment of a subprocess that imports the faircf under
test."""

import os
from pathlib import Path

import numpy as np
import pytest

import faircf
from faircf.model import DENSE_RATIO, TrainConfig, accumulate_gradient
from faircf.trainer import loss_terms

# Hand-sized archive used by the ingest and CLI tests.  With the default
# genre filter and min_ratings=2: movie 4 (Documentary) drops out, user 5
# keeps a single rating and user 6 none, so 4 users and 4 movies survive.
MINI_USERS = """\
1::F::1::10::48067
2::M::56::16::70072
3::F::25::15::55117
4::M::45::7::02460
5::F::50::9::55455
6::M::35::1::06810
"""

MINI_MOVIES = """\
1::Toy Gun (1995)::Action|Thriller
2::Love Letter (1996)::Romance
3::Space Probe (1997)::Sci-Fi|Action
4::Quiet Hall (1994)::Documentary
5::Song & Dance (1955)::Musical|Romance
"""

MINI_RATINGS = """\
1::1::5::978300760
1::2::3::978302109
1::3::4::978301968
2::1::4::978300275
2::3::5::978824291
3::2::5::978302268
3::5::4::978301368
4::1::2::978302039
4::5::3::978300719
5::2::4::978302268
6::4::5::978301368
"""


def write_ml_corpus(directory, users=MINI_USERS, movies=MINI_MOVIES, ratings=MINI_RATINGS):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "users.dat").write_text(users, encoding="latin-1")
    (directory / "movies.dat").write_text(movies, encoding="latin-1")
    (directory / "ratings.dat").write_text(ratings, encoding="latin-1")
    return directory


@pytest.fixture(scope="session")
def mini_ml_dir(tmp_path_factory):
    return write_ml_corpus(tmp_path_factory.mktemp("mini-ml"))


def write_bulk_ml_corpus(directory, seed=0):
    """Seeded archive big enough for the standard 50-rating threshold.

    Users 1..10 each rate 55 distinct selected-genre movies (so they all
    survive), users 11 and 12 rate too few; movies 65..80 carry unselected
    genres only.
    """
    rng = np.random.default_rng(seed)
    genre_cycle = ("Action", "Romance", "Sci-Fi|Action", "Musical|Romance", "Crime",
                   "Sci-Fi", "Musical", "Crime|Action", "Romance|Musical", "Action|Sci-Fi")
    users = []
    for uid in range(1, 13):
        gender = "F" if uid % 2 == 1 else "M"
        users.append(f"{uid}::{gender}::25::{uid % 20}::55117")
    movies = []
    for mid in range(1, 65):
        movies.append(f"{mid}::Film {mid} (199{mid % 10})::{genre_cycle[mid % 10]}")
    for mid in range(65, 81):
        movies.append(f"{mid}::Filler {mid} (2000)::Documentary|Drama")
    ratings = []
    ts = 978300000
    for uid in range(1, 11):
        picks = rng.choice(np.arange(1, 65), size=55, replace=False)
        for mid in picks.tolist():
            ts += 1
            ratings.append(f"{uid}::{mid}::{int(rng.integers(1, 6))}::{ts}")
    for uid in (11, 12):
        picks = rng.choice(np.arange(1, 65), size=10, replace=False)
        for mid in picks.tolist():
            ts += 1
            ratings.append(f"{uid}::{mid}::{int(rng.integers(1, 6))}::{ts}")
    return write_ml_corpus(directory,
                           users="\n".join(users) + "\n",
                           movies="\n".join(movies) + "\n",
                           ratings="\n".join(ratings) + "\n")


@pytest.fixture(scope="session")
def bulk_ml_dir(tmp_path_factory):
    return write_bulk_ml_corpus(tmp_path_factory.mktemp("bulk-ml"))


@pytest.fixture(autouse=True)
def no_faircf_environment(monkeypatch):
    """Unset every FAIRCF_* variable of the shell but FAIRCF_ML1M_DIR, so a
    command's parameters come from its test alone; a test that needs such a
    variable sets it with monkeypatch."""
    for name in list(os.environ):
        if name.startswith("FAIRCF_") and name != "FAIRCF_ML1M_DIR":
            monkeypatch.delenv(name)


def find_ml1m_dir():
    """Real MovieLens-1M directory, or None when it is not around."""
    candidates = []
    env = os.environ.get("FAIRCF_ML1M_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parents[1] / "data" / "ml-1m")
    for cand in candidates:
        if all((cand / name).is_file() for name in ("users.dat", "movies.dat", "ratings.dat")):
            return cand
    return None


@pytest.fixture(scope="session")
def ml1m_dir():
    found = find_ml1m_dir()
    if found is None:
        pytest.skip("MovieLens-1M not available (set FAIRCF_ML1M_DIR or unpack to data/ml-1m)")
    return found


def loss_pass(params, ratings, groups, kind="none", lambda_reg=0.0, weight=1.0):
    """The objective, the weighted ``kind`` penalty and the gradient of their
    sum, from the trainer's ``loss_terms`` and ``accumulate_gradient`` on
    ``ratings`` under ``groups``."""
    config = TrainConfig(d=params.d, lambda_reg=lambda_reg, penalty=kind, penalty_weight=weight)
    objective, pen, weights = loss_terms(params, ratings, groups, config)
    return objective, pen, accumulate_gradient(params, ratings, weights, lambda_reg)


def takes_dense_route(params, users):
    """Whether ``predict_entries(params, users, ...)`` scores by block GEMMs:
    the users are in order and dense enough on the grid."""
    users = np.asarray(users)
    return bool(np.all(users[1:] >= users[:-1]) and users.size * (params.d + 1)
                >= DENSE_RATIO * params.num_users * params.num_items)


def subprocess_env(**changes):
    """os.environ with ``changes`` applied (None unsets) and the faircf of
    this test run first on PYTHONPATH, so a subprocess imports the same one."""
    src = str(Path(faircf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env
