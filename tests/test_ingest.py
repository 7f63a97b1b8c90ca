"""Archive parsing, the genre/activity filter, stats, and splitting."""

import pickle
import re

import numpy as np
import pytest

from faircf.ingest import (DEFAULT_MIN_RATINGS, FilteredDataset, filter_dataset, genre_stats,
                           parse, split)
from conftest import MINI_MOVIES, MINI_RATINGS, MINI_USERS, write_ml_corpus
from oracles import entries


def filtered(mini_ml_dir, min_ratings=2):
    return filter_dataset(parse(mini_ml_dir), min_ratings=min_ratings)


def test_parse_reads_whole_archive(mini_ml_dir):
    raw = parse(mini_ml_dir)
    assert len(raw.users) == 6 and len(raw.movies) == 5
    assert raw.num_ratings == 11
    users = [line.split("::") for line in MINI_USERS.splitlines()]
    assert raw.users == {int(uid): gender == "F" for uid, gender, *_ in users}
    assert raw.users[1] is True
    movies = [line.split("::") for line in MINI_MOVIES.splitlines()]
    assert raw.movies == {int(mid): tuple(genres.split("|")) for mid, _, genres in movies}
    assert raw.movies[3] == ("Sci-Fi", "Action")
    assert raw.rating_values.min() >= 1 and raw.rating_values.max() <= 5


def test_parse_rejects_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse(tmp_path)


@pytest.mark.parametrize("column,content,message", [
    ("users", "1::F::1::10\n", "5 '::'-separated fields"),
    ("users", "1::X::1::10::48067\n", "gender"),
    ("ratings", "1::1::6::978300760\n", "outside 1..5"),
    ("ratings", "1::99::5::978300760\n", "unknown movie"),
    ("ratings", "9::1::5::978300760\n", "unknown user"),
    ("ratings", "", "no ratings"),
    # a repeated id is a fault at its second line, not a silent last-line-wins
    pytest.param("users", MINI_USERS + "1::M::1::10::48067\n",
                 "users.dat: line 7: duplicate user 1$", id="repeated-last-user"),
    pytest.param("users", "4::M::45::7::02460\n" + MINI_USERS,
                 "users.dat: line 5: duplicate user 4$", id="repeated-first-user"),
    pytest.param("movies", MINI_MOVIES + "3::Space Probe (1997)::Sci-Fi\n",
                 "movies.dat: line 6: duplicate movie 3$", id="repeated-movie"),
])
def test_parse_reports_bad_lines(tmp_path, column, content, message):
    corpus = write_ml_corpus(tmp_path / "corrupt", **{column: content})
    with pytest.raises(ValueError, match=message):
        parse(corpus)


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("name", ["users", "movies", "ratings"])
def test_a_line_written_twice_is_a_fault_at_its_copy(tmp_path, name, position):
    """A repeated user id, movie id or (user, movie) pair names the file
    and the line of its second occurrence."""
    text = {"users": MINI_USERS, "movies": MINI_MOVIES, "ratings": MINI_RATINGS}[name]
    rows = text.splitlines(keepends=True)
    k = {"first": 0, "middle": len(rows) // 2, "last": len(rows) - 1}[position]
    corpus = write_ml_corpus(tmp_path / "ml", **{name: "".join(rows[:k + 1] + rows[k:])})
    path = re.escape(str(corpus / f"{name}.dat"))
    with pytest.raises(ValueError, match=f"^{path}: line {k + 2}: "
                                         "duplicate (user|movie|\\(user, movie\\) pair)"):
        parse(corpus)


def test_ratings_out_of_order_are_not_repeats(tmp_path):
    rows = MINI_RATINGS.splitlines(keepends=True)
    assert parse(write_ml_corpus(tmp_path / "ml", ratings="".join(rows[::-1]))).num_ratings == 11


def test_a_repeated_pair_is_found_among_ids_too_far_apart_for_offsets(tmp_path):
    users = f"{-2**62}::F::1::10::48067\n{2**62}::M::56::16::70072\n"
    ratings = f"{2**62}::1::5::1\n{-2**62}::1::4::2\n"
    assert parse(write_ml_corpus(tmp_path / "ok", users=users, ratings=ratings)).num_ratings == 2
    corpus = write_ml_corpus(tmp_path / "ml", users=users, ratings=ratings + f"{2**62}::1::3::3\n")
    with pytest.raises(ValueError, match=r"ratings\.dat: line 3: duplicate \(user, movie\) pair$"):
        parse(corpus)


def test_filter_keeps_expected_users_and_movies(mini_ml_dir):
    data = filtered(mini_ml_dir)
    # Documentary-only movie 4 drops; users 5 and 6 fall under the threshold
    assert data.user_ids.tolist() == [1, 2, 3, 4]
    assert data.movie_ids.tolist() == [1, 2, 3, 5]
    assert data.ratings.num_users == 4 and data.ratings.num_items == 4
    assert len(data.ratings) == 9
    assert data.groups.disadvantaged.tolist() == [True, False, True, False]
    assert set(data.movie_genres[2]) == {"Sci-Fi", "Action"}


def test_a_filtered_dataset_holds_read_only_ids(mini_ml_dir):
    """The ids are what prepare-movielens writes into its id maps; a movielens
    worker receives the dataset pickled, through its constructor."""
    data = filtered(mini_ml_dir)
    for copy in (data, pickle.loads(pickle.dumps(data))):
        for name in ("user_ids", "movie_ids"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(copy, name)[0] = 99
        assert copy.user_ids.tolist() == [1, 2, 3, 4] and copy.movie_ids.tolist() == [1, 2, 3, 5]


def test_a_filtered_dataset_holds_its_movie_genres_as_tuples(mini_ml_dir):
    """genre_stats counts a movie by them, so neither the field nor the lists
    it was built from may change them later; a pickled copy keeps the tuples."""
    data = filtered(mini_ml_dir)
    stats = genre_stats(data).to_csv()
    for copy in (data, pickle.loads(pickle.dumps(data))):
        assert type(copy.movie_genres) is tuple
        assert all(type(genres) is tuple for genres in copy.movie_genres)
        with pytest.raises(TypeError):
            copy.movie_genres[0] = ("Western",)
    listed = [list(genres) for genres in data.movie_genres]
    rebuilt = FilteredDataset(data.ratings, data.groups, listed, data.user_ids, data.movie_ids,
                              data.genres)
    listed[0][0] = listed[2][1] = "Western"
    assert rebuilt.movie_genres == data.movie_genres
    assert genre_stats(rebuilt).to_csv() == stats


def test_filter_reindexes_ratings(mini_ml_dir):
    data = filtered(mini_ml_dir)
    kept = set(entries(data.ratings))
    assert (0, 0, 5.0) in kept           # archive user 1 on movie 1
    assert (3, 3, 3.0) in kept           # archive user 4 on movie 5
    assert (2, 3, 4.0) in kept           # archive user 3 on movie 5


def test_filter_threshold_is_counted_on_kept_movies(mini_ml_dir):
    # user 5's only rating is on a selected-genre movie but one is too few,
    # user 6 rates only the dropped Documentary
    data = filtered(mini_ml_dir, min_ratings=3)
    assert data.user_ids.tolist() == [1]
    assert data.movie_ids.tolist() == [1, 2, 3]


def test_filter_is_case_insensitive(mini_ml_dir):
    data = filter_dataset(parse(mini_ml_dir), genres=("ACTION", "sci-fi"),
                          min_ratings=1)
    assert data.genres == ("Action", "Sci-Fi")
    assert data.movie_ids.tolist() == [1, 3]


def test_genre_stats_hand_values(mini_ml_dir):
    stats = genre_stats(filtered(mini_ml_dir))
    assert [r.genre for r in stats.rows] == ["Romance", "Action", "Sci-Fi",
                                             "Musical", "Crime"]
    action = stats.get("Action")
    assert action.movie_count == 2
    assert action.ratings_per_female == pytest.approx(1.0)
    assert action.ratings_per_male == pytest.approx(1.5)
    assert action.avg_rating_female == pytest.approx(4.5)
    assert action.avg_rating_male == pytest.approx(11.0 / 3.0)
    romance = stats.get("Romance")
    assert romance.movie_count == 2
    assert romance.ratings_per_female == pytest.approx(1.5)
    assert romance.ratings_per_male == pytest.approx(0.5)
    assert romance.avg_rating_female == pytest.approx(4.0)
    assert romance.avg_rating_male == pytest.approx(3.0)
    crime = stats.get("Crime")
    assert crime.movie_count == 0
    assert crime.ratings_per_female == 0.0
    assert np.isnan(crime.avg_rating_female)


def test_genre_stats_render_and_csv(mini_ml_dir):
    stats = genre_stats(filtered(mini_ml_dir))
    table = stats.render()
    assert "Action" in table and "4.50" in table
    csv = stats.to_csv()
    assert csv.splitlines()[0].startswith("genre,movie_count")
    assert len(csv.splitlines()) == 6


def test_split_partitions_the_entries(mini_ml_dir):
    data = filtered(mini_ml_dir)
    train, test = split(data, test_fraction=0.2, seed=0)
    assert len(test) == 2 and len(train) == 7     # round(9 * 0.2) = 2
    keys = lambda rs: set(zip(rs.users.tolist(), rs.items.tolist()))
    assert not keys(train) & keys(test)
    assert keys(train) | keys(test) == keys(data.ratings)
    again_train, again_test = split(data, test_fraction=0.2, seed=0)
    assert np.array_equal(again_test.users, test.users)
    other_train, other_test = split(data, test_fraction=0.2, seed=1)
    assert keys(other_test) != keys(test)


def test_split_rejects_empty_sides(mini_ml_dir):
    data = filtered(mini_ml_dir)
    with pytest.raises(ValueError):
        split(data, test_fraction=0.01, seed=0)   # rounds to zero test entries
    with pytest.raises(ValueError):
        split(data, test_fraction=1.5, seed=0)


def test_filter_rejects_empty_results(mini_ml_dir):
    raw = parse(mini_ml_dir)
    with pytest.raises(ValueError):
        filter_dataset(raw, genres=())
    with pytest.raises(ValueError):
        filter_dataset(raw, min_ratings=50)       # nobody is that active here


def test_filter_matches_a_per_rating_reference(bulk_ml_dir):
    # The dict-and-loop form of the filter, kept as the reference for the
    # vectorized one: both must give the same arrays and ids exactly.
    raw = parse(bulk_ml_dir)
    data = filter_dataset(raw)
    selected = {mid for mid, gs in raw.movies.items() if set(gs) & set(data.genres)}
    counts = {}
    for uid, mid in zip(raw.rating_users.tolist(), raw.rating_movies.tolist()):
        if mid in selected:
            counts[uid] = counts.get(uid, 0) + 1
    kept = [(uid, mid, value) for uid, mid, value in zip(raw.rating_users.tolist(),
                                                         raw.rating_movies.tolist(),
                                                         raw.rating_values.tolist())
            if mid in selected and counts[uid] >= DEFAULT_MIN_RATINGS]
    user_ids = sorted({uid for uid, _, _ in kept})
    movie_ids = sorted({mid for _, mid, _ in kept})
    assert data.user_ids.tolist() == user_ids and data.movie_ids.tolist() == movie_ids
    assert entries(data.ratings) == [(user_ids.index(uid), movie_ids.index(mid), value)
                                    for uid, mid, value in kept]
