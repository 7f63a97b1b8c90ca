"""MovieLens-1M ingestion: parsing, genre/activity filtering, per-gender
genre statistics, and random train/test splitting.

The raw archive ships three ``::``-delimited latin-1 files (users.dat,
movies.dat, ratings.dat).  Preparation keeps only movies listing at least
one of the selected genres, then only users with at least ``min_ratings``
ratings on those movies, then reindexes both sides contiguously.  Women are
mapped to the disadvantaged group.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .data import (Container, GroupAssignment, IntArray, RatingSet, check_field_types, csv_text,
                   read_fields, reject, repeats, text_table)

ARCHIVE_FILES = ("users.dat", "movies.dat", "ratings.dat")
DEFAULT_GENRES = ("Action", "Crime", "Musical", "Romance", "Sci-Fi")
DEFAULT_MIN_RATINGS = 50

# Presentation order used by the statistics table.
GENRE_TABLE_ORDER = ("Romance", "Action", "Sci-Fi", "Musical", "Crime")


@dataclass(eq=False)
class MovieLensRaw:
    """Parsed ``ml_dir``: users maps id -> True for a woman, movies maps id ->
    genre tuple, ratings are parallel arrays (user id, movie id, stars)."""

    users: dict
    movies: dict
    rating_users: np.ndarray
    rating_movies: np.ndarray
    rating_values: np.ndarray
    ml_dir: str

    @property
    def num_ratings(self):
        return int(self.rating_values.shape[0])


@dataclass(frozen=True, eq=False)
class FilteredDataset(Container):
    """Reindexed study subset, immutable.  ``movie_genres[j]`` is the tuple
    of selected genres movie j carries (a movie can count toward several).
    ``user_ids``/``movie_ids`` (read-only) map the new contiguous indices back
    to the archive ids; ``genres`` is in the archive's spelling."""

    ratings: RatingSet
    groups: GroupAssignment
    movie_genres: tuple[tuple]
    user_ids: IntArray
    movie_ids: IntArray
    genres: tuple

    def __post_init__(self):
        check_field_types(self, RatingSet=RatingSet, GroupAssignment=GroupAssignment)


@dataclass
class GenreRow:
    genre: str
    movie_count: int
    ratings_per_female: float
    ratings_per_male: float
    avg_rating_female: float
    avg_rating_male: float


@dataclass(eq=False)
class GenreStats:
    """Per-genre movie counts, rating volume per user of each gender, and
    average given rating by gender."""

    rows: list

    def get(self, genre: str) -> GenreRow:
        for row in self.rows:
            if row.genre == genre:
                return row
        raise KeyError(genre)

    def to_csv(self) -> str:
        return csv_text([("genre", "movie_count", "ratings_per_female", "ratings_per_male",
                          "avg_rating_female", "avg_rating_male")]
                        + [astuple(r) for r in self.rows])

    def render(self) -> str:
        return text_table([("Genre", "Movies", "Ratings/female", "Ratings/male",
                            "Avg female", "Avg male")]
                          + [(r.genre, str(r.movie_count),
                              f"{r.ratings_per_female:.2f}", f"{r.ratings_per_male:.2f}",
                              f"{r.avg_rating_female:.2f}", f"{r.avg_rating_male:.2f}")
                             for r in self.rows])


def parse(ml_dir) -> MovieLensRaw:
    """Parse the ARCHIVE_FILES of the archive directory, keeping what the filter
    reads; every field is checked, and a repeated user id, movie id or
    (user, movie) pair is a fault at its second line."""
    paths = [Path(ml_dir) / name for name in ARCHIVE_FILES]
    for p in paths:
        if not p.exists():
            raise FileNotFoundError(f"missing MovieLens file: {p}")
    users_path, movies_path, ratings_path = paths

    lines, (uids, gender, *_) = read_fields(users_path, "::", (int, str, int, int, str),
                                            encoding="latin-1")
    reject(users_path, lines, ~np.isin(gender, ("F", "M")), "gender must be F or M")
    reject(users_path, lines, repeats(uids), "duplicate user {}", uids)
    users = dict(zip(uids.tolist(), (gender == "F").tolist()))

    lines, (mids, _, genres) = read_fields(movies_path, "::", (int, str, str),
                                           encoding="latin-1")
    reject(movies_path, lines, repeats(mids), "duplicate movie {}", mids)
    movies = {mid: tuple(g.split("|")) for mid, g in zip(mids.tolist(), genres.tolist())}

    lines, (r_users, r_movies, r_values, _) = read_fields(
        ratings_path, "::", (int, int, int, int), encoding="latin-1")
    if not lines.size:
        raise ValueError(f"{ratings_path}: no ratings found")
    reject(ratings_path, lines, (r_values < 1) | (r_values > 5), "rating outside 1..5")
    reject(ratings_path, lines, ~np.isin(r_users, uids), "unknown user {}", r_users)
    reject(ratings_path, lines, ~np.isin(r_movies, mids), "unknown movie {}", r_movies)
    # A pair's key from the offsets of its ids, known by now, within their
    # ranges, or from their ranks where the ranges are too wide for int64.
    span = int(mids.max()) - int(mids.min()) + 1
    if (int(uids.max()) - int(uids.min()) + 1) * span < 2**63:
        keys = (r_users - uids.min()) * span + (r_movies - mids.min())
    else:
        keys = (np.searchsorted(np.sort(uids), r_users) * mids.size
                + np.searchsorted(np.sort(mids), r_movies))
    reject(ratings_path, lines, repeats(keys), "duplicate (user, movie) pair")
    return MovieLensRaw(users, movies, r_users, r_movies, r_values.astype(np.float64), str(ml_dir))


def check_filter(genres=DEFAULT_GENRES, min_ratings: int = DEFAULT_MIN_RATINGS):
    """Raise ValueError unless the filter has a genre to keep and ``min_ratings`` >= 1."""
    if not genres:
        raise ValueError("at least one genre is required")
    if min_ratings < 1:
        raise ValueError("min_ratings must be >= 1")


def filter_dataset(raw: MovieLensRaw, genres=DEFAULT_GENRES,
                   min_ratings: int = DEFAULT_MIN_RATINGS) -> FilteredDataset:
    """Keep selected-genre movies, then sufficiently active users, then the
    ratings between them; reindex both sides by ascending archive id."""
    check_filter(genres, min_ratings)
    wanted = {g.casefold() for g in genres}

    # Movie pass: canonical spellings come from the archive itself.
    canonical = {}
    movie_selected = {}
    for mid, movie_genres in raw.movies.items():
        hits = tuple(g for g in movie_genres if g.casefold() in wanted)
        if hits:
            movie_selected[mid] = hits
            for g in hits:
                canonical.setdefault(g.casefold(), g)
    display_genres = tuple(canonical.get(g.casefold(), g) for g in genres)

    # User pass: activity counted on the kept movies only.
    kept_movie_mask = np.isin(raw.rating_movies, np.array(sorted(movie_selected), dtype=np.int64))
    active, counts = np.unique(raw.rating_users[kept_movie_mask], return_counts=True)
    user_ids = active[counts >= min_ratings]
    if not user_ids.size:
        raise ValueError(f"{raw.ml_dir}: no user passes the activity threshold")

    # Rating pass plus contiguous reindexing.
    final_mask = kept_movie_mask & np.isin(raw.rating_users, user_ids)
    movie_ids, items = np.unique(raw.rating_movies[final_mask], return_inverse=True)
    users = np.searchsorted(user_ids, raw.rating_users[final_mask])
    ratings = RatingSet(users, items, raw.rating_values[final_mask],
                        len(user_ids), len(movie_ids))

    disadvantaged = np.array([raw.users[uid] for uid in user_ids.tolist()], dtype=bool)
    movie_genres = [movie_selected[mid] for mid in movie_ids.tolist()]
    return FilteredDataset(ratings, GroupAssignment(disadvantaged), movie_genres,
                           user_ids, movie_ids, display_genres)


def genre_stats(data: FilteredDataset) -> GenreStats:
    """Movie counts, per-user rating volume, and mean given rating for each
    selected genre, split by gender.  A movie with several selected genres
    counts toward each of them.  Per-user volume divides by ALL retained
    users of that gender, raters or not."""
    female = data.groups.disadvantaged
    n_female = int(female.sum())
    n_male = data.ratings.num_users - n_female
    rating_female = female[data.ratings.users]

    order = [g for g in GENRE_TABLE_ORDER if g in data.genres]
    order += [g for g in data.genres if g not in order]
    rows = []
    for genre in order:
        movie_mask = np.array([genre in gs for gs in data.movie_genres], dtype=bool)
        in_genre = movie_mask[data.ratings.items]
        f_mask = in_genre & rating_female
        m_mask = in_genre & ~rating_female
        n_f, n_m = int(f_mask.sum()), int(m_mask.sum())
        rows.append(GenreRow(
            genre=genre,
            movie_count=int(movie_mask.sum()),
            ratings_per_female=n_f / n_female if n_female else float("nan"),
            ratings_per_male=n_m / n_male if n_male else float("nan"),
            avg_rating_female=float(data.ratings.values[f_mask].mean()) if n_f else float("nan"),
            avg_rating_male=float(data.ratings.values[m_mask].mean()) if n_m else float("nan"),
        ))
    return GenreStats(rows)


def check_test_fraction(test_fraction: float):
    """Raise ValueError unless 0 < ``test_fraction`` < 1."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")


def split(data: FilteredDataset, test_fraction: float, seed: int) -> tuple[RatingSet, RatingSet]:
    """Random disjoint train/test partition of the entries of ``data.ratings``.

    The test side gets round(n * test_fraction) entries; both sides must end
    up nonempty.
    """
    ratings = data.ratings
    check_test_fraction(test_fraction)
    n = len(ratings)
    n_test = int(round(n * test_fraction))
    if n_test == 0 or n_test == n:
        raise ValueError(f"test_fraction {test_fraction} leaves an empty side for {n} ratings")
    perm = np.random.default_rng(seed).permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return ratings.subset(train_idx), ratings.subset(test_idx)
