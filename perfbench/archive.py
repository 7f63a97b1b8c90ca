"""Seeded archive with the MovieLens-1M layout, for the CLI part of each workload.

The real archive cannot ship with the repository, so set-up writes a
stand-in: ``users.dat``, ``movies.dat`` and ``ratings.dat`` as latin-1
``::``-delimited text, with 6040 users, 3883 listed movies and about 1.0M
ratings over 18 genres.  The marginals follow the published archive:

* about 28% of users are women, with the archive's age and occupation codes;
* genre frequencies follow the archive's per-genre movie counts;
* user activity is heavy-tailed (median near 100 ratings, mean near 165);
* star values follow the archive's 1..5 shares, and women rate Romance and
  Musical titles more often and Action and Sci-Fi titles less often.

Popularity and genre counts are tuned so that the standard preparation
(Action, Crime, Musical, Romance, Sci-Fi; at least 50 ratings) keeps roughly
3.1k users, 1.1k movies and 375k ratings.  Group sizes, first genres,
popularity and activity come from exact quotas and fixed quantile sets that
only the seed shuffles, so that size moves by about 1% between seeds and
timings compare across seeds.  Everything is drawn from ``numpy`` generators
seeded by the caller, so one seed always writes the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.special import ndtri

NUM_USERS = 6040
NUM_MOVIES = 3883
MAX_MOVIE_ID = 3952
TARGET_RATINGS = 1_000_209

# Per-genre movie counts in the published archive (they sum to 6408 tags).
GENRE_COUNTS = {
    "Action": 503, "Adventure": 283, "Animation": 105, "Children's": 251,
    "Comedy": 1200, "Crime": 211, "Documentary": 127, "Drama": 1603, "Fantasy": 68,
    "Film-Noir": 44, "Horror": 343, "Musical": 114, "Mystery": 106, "Romance": 471,
    "Sci-Fi": 276, "Thriller": 492, "War": 143, "Western": 68,
}
GENRES = tuple(GENRE_COUNTS)
# Genres the standard preparation selects; their titles are rated more often.
SELECTED = ("Action", "Crime", "Musical", "Romance", "Sci-Fi")
SELECTED_POPULARITY_BOOST = 2.4
# How much more (or less) often women rate a title of each genre.
FEMALE_TASTE = {"Romance": 1.35, "Musical": 1.35, "Action": 0.75, "Sci-Fi": 0.75, "Crime": 0.9}
GENRES_PER_MOVIE_PROBS = (0.86, 0.12, 0.02)   # one, two, three genres

AGE_CODES = (1, 18, 25, 35, 45, 50, 56)
AGE_SHARES = np.array([222, 1103, 2096, 1193, 550, 496, 380], dtype=np.float64)
FEMALE_SHARE = 1709 / 6040
# Cumulative shares of 1..5 stars; cut points on a standard-normal score.
STAR_CUTS = np.array([-1.589, -0.978, -0.189, 0.752])
FIRST_TIMESTAMP, LAST_TIMESTAMP = 956703932, 1046454590

TITLE_WORDS = ("Night", "River", "Café", "Señor", "Über", "Lost", "City", "Dream", "Fire",
               "Garçon", "Shadow", "Return", "Blue", "Mañana", "Last", "Summer", "Crème",
               "Island", "Hearts", "Zoë")


def draw(seed: int, num_users: int = NUM_USERS, num_movies: int = NUM_MOVIES,
         target_ratings: int = TARGET_RATINGS):
    """Draw the archive tables in file order: users and movies as lists of
    field tuples, ratings as (user id, movie id, stars, timestamp) arrays.
    Sizes other than the defaults scale the archive down."""
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(6)]
    users = _draw_users(streams[0], num_users)
    movie_ids, genre_sets, popularity = _draw_movies(streams[1], num_movies)
    titles = _draw_titles(streams[2], movie_ids)
    female = np.array([u[1] == "F" for u in users])
    r_users, r_movies = _draw_pairs(streams[3], female, genre_sets, popularity, target_ratings)
    stars = _draw_stars(streams[4], r_users, r_movies, num_users, len(movie_ids))
    times = streams[5].integers(FIRST_TIMESTAMP, LAST_TIMESTAMP, size=len(r_users))
    movies = [(int(mid), titles[j], "|".join(genre_sets[j])) for j, mid in enumerate(movie_ids)]
    ratings = (r_users + 1, movie_ids[r_movies], stars, times)
    return users, movies, ratings


def write(directory, seed: int, **sizes) -> dict:
    """Write users.dat, movies.dat and ratings.dat under ``directory``;
    returns the byte size of each file."""
    users, movies, (r_users, r_movies, stars, times) = draw(seed, **sizes)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    texts = {
        "users.dat": "".join("%d::%s::%d::%d::%s\n" % u for u in users),
        "movies.dat": "".join("%d::%s::%s\n" % m for m in movies),
        "ratings.dat": "".join(
            "%d::%d::%d::%d\n" % row
            for row in zip(r_users.tolist(), r_movies.tolist(), stars.tolist(), times.tolist())),
    }
    sizes_out = {}
    for name, text in texts.items():
        data = text.encode("latin-1")
        (directory / name).write_bytes(data)
        sizes_out[name] = len(data)
    return sizes_out


def _draw_users(rng, num_users):
    female = _quota((FEMALE_SHARE, 1.0 - FEMALE_SHARE), num_users, rng) == 0
    ages = rng.choice(AGE_CODES, size=num_users, p=AGE_SHARES / AGE_SHARES.sum())
    occupations = rng.integers(0, 21, size=num_users)
    zips = rng.integers(0, 100000, size=num_users)
    return [(u + 1, "F" if f else "M", int(a), int(o), f"{z:05d}")
            for u, (f, a, o, z) in enumerate(zip(female.tolist(), ages.tolist(),
                                                   occupations.tolist(), zips.tolist()))]


def _quota(shares, total, rng):
    """Exactly round(share * total) labels of each kind (largest remainder),
    in random order."""
    shares = np.asarray(shares, dtype=np.float64) / np.sum(shares)
    counts = np.floor(shares * total).astype(np.int64)
    order = np.argsort(-(shares * total - counts), kind="stable")
    counts[order[:total - counts.sum()]] += 1
    labels = np.repeat(np.arange(len(shares)), counts)
    rng.shuffle(labels)
    return labels


def _lognormal_quantiles(count, sigma, rng):
    """``count`` evenly spaced quantiles of a lognormal, in random order, so
    their sum is the same for every seed."""
    values = np.exp(sigma * ndtri((np.arange(count) + 0.5) / count))
    rng.shuffle(values)
    return values


def _draw_movies(rng, num_movies):
    max_id = max(MAX_MOVIE_ID, num_movies)
    movie_ids = np.sort(rng.choice(np.arange(1, max_id + 1), size=num_movies, replace=False))
    weights = np.array([GENRE_COUNTS[g] for g in GENRES], dtype=np.float64)
    # First genre by exact quota; further genres by weighted sampling without
    # replacement (the largest Gumbel-perturbed log-weights).
    first = _quota(weights, num_movies, rng)
    extra = _quota(GENRES_PER_MOVIE_PROBS, num_movies, rng)
    keys = np.log(weights)[None, :] + rng.gumbel(size=(num_movies, len(GENRES)))
    keys[np.arange(num_movies), first] = np.inf
    order = np.argsort(-keys, axis=1)
    genre_sets = [tuple(GENRES[g] for g in sorted(order[j, :extra[j] + 1]))
                  for j in range(num_movies)]
    # Selected and other titles each get a fixed set of popularity values,
    # so the selected share of all ratings barely moves with the seed.
    boosted = np.array([any(g in SELECTED for g in gs) for gs in genre_sets])
    popularity = np.empty(num_movies)
    for mask, boost in ((boosted, SELECTED_POPULARITY_BOOST), (~boosted, 1.0)):
        popularity[mask] = boost * _lognormal_quantiles(int(mask.sum()), 1.2, rng)
    return movie_ids, genre_sets, popularity / popularity.sum()


def _draw_titles(rng, movie_ids):
    words = rng.integers(0, len(TITLE_WORDS), size=(len(movie_ids), 2))
    years = rng.integers(1919, 2001, size=len(movie_ids))
    return [f"{TITLE_WORDS[a]} {TITLE_WORDS[b]} {mid} ({y})"
            for mid, (a, b), y in zip(movie_ids.tolist(), words.tolist(), years.tolist())]


def _draw_pairs(rng, female, genre_sets, popularity, target_ratings):
    """Each (user, movie) pair is rated independently with probability
    activity(user) * popularity(movie) * taste(gender, genres), capped at 1,
    so no pair repeats.  Returns zero-based (user, movie) index arrays sorted
    by user, then movie."""
    num_users, num_movies = female.shape[0], popularity.shape[0]
    activity = np.empty(num_users)
    for mask in (female, ~female):
        activity[mask] = 20.0 + 76.0 * _lognormal_quantiles(int(mask.sum()), 1.1, rng)
    # Capping at probability 1 loses about 5% of the draws; aim above target.
    activity *= 1.05 * target_ratings / activity.sum()
    taste_f = np.array([np.mean([FEMALE_TASTE.get(g, 1.0) for g in gs]) for gs in genre_sets])
    taste_m = 2.0 - taste_f ** 0.5
    users_out, movies_out = [], []
    chunk = max(1, (1 << 22) // num_movies)
    for start in range(0, num_users, chunk):
        stop = min(num_users, start + chunk)
        taste = np.where(female[start:stop, None], taste_f[None, :], taste_m[None, :])
        prob = np.minimum(1.0, activity[start:stop, None] * popularity[None, :] * taste)
        rows, cols = np.nonzero(rng.random((stop - start, num_movies)) < prob)
        users_out.append(rows + start)
        movies_out.append(cols)
    return np.concatenate(users_out), np.concatenate(movies_out)


def _draw_stars(rng, r_users, r_movies, num_users, num_movies):
    quality = rng.normal(0.0, 0.5, size=num_movies)
    leniency = rng.normal(0.0, 0.4, size=num_users)
    score = quality[r_movies] + leniency[r_users] + rng.normal(0.0, 0.77, size=r_users.shape[0])
    return np.searchsorted(STAR_CUTS, score) + 1
