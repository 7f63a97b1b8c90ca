"""Rating-set containers, the TSV interchange formats, and the one field
reader behind every input file."""

import pickle
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from faircf.data import (GroupAssignment, RatingSet, read_groups, read_ratings,
                         write_groups, write_ratings)
from faircf.ingest import parse
from faircf.model import ModelParams, load_params, save_params
from conftest import write_ml_corpus
from oracles import entries


def small_set():
    return RatingSet([0, 0, 2], [1, 2, 0], [1.0, -1.0, 0.25], num_users=3, num_items=3)


def test_basic_properties():
    rs = small_set()
    assert len(rs) == 3
    assert rs.users.dtype == np.int64 and rs.values.dtype == np.float64
    assert entries(rs) == [(0, 1, 1.0), (0, 2, -1.0), (2, 0, 0.25)]


def test_subset_keeps_grid():
    rs = small_set()
    sub = rs.subset(np.array([2, 0]))
    assert sub.num_users == 3 and sub.num_items == 3
    assert entries(sub) == [(2, 0, 0.25), (0, 1, 1.0)]


@pytest.mark.parametrize("users,items,values,m,n", [
    ([0, 0], [1, 1], [1.0, 2.0], 2, 2),      # duplicate pair
    ([0, 3], [0, 0], [1.0, 2.0], 2, 2),      # user out of range
    ([0], [-1], [1.0], 2, 2),                # negative item
    ([0], [0], [np.inf], 1, 1),              # non-finite value
    ([0, 1], [0], [1.0], 2, 1),              # ragged arrays
])
def test_validation_rejects(users, items, values, m, n):
    with pytest.raises(ValueError):
        RatingSet(users, items, values, m, n)


def test_empty_set_is_allowed():
    rs = RatingSet([], [], [], 4, 5)
    assert len(rs) == 0 and rs.num_users == 4


def test_ratings_file_round_trip(tmp_path):
    rs = small_set()
    path = tmp_path / "ratings.tsv"
    write_ratings(rs, path)
    back = read_ratings(path, num_users=3, num_items=3)
    assert np.array_equal(back.users, rs.users)
    assert np.array_equal(back.items, rs.items)
    # repr round-trips doubles exactly
    assert np.array_equal(back.values, rs.values)


def test_read_ratings_infers_dimensions(tmp_path):
    path = tmp_path / "r.tsv"
    write_ratings(small_set(), path)
    back = read_ratings(path)
    assert back.num_users == 3 and back.num_items == 3


def test_read_ratings_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t0\t1.0\n0\tx\t2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        read_ratings(path)


@pytest.mark.parametrize("text,dims,line,message", [
    ("0\t0\t1.0\n\n1\t-1\t2.0\n", {}, 3, "item index out of range"),
    ("0\t0\t1.0\n0\t5\t2.0\n", dict(num_users=1, num_items=2), 2,
     "item index out of range"),
    ("0\t0\t1.0\n1\t1\t1.0\n\n0\t0\t2.0\n1\t1\t3.0\n", {}, 4,
     "duplicate"),
    ("0\t0\t1.0\n0\t1\tnan\n1\t0\tinf\n", {}, 2, "finite"),
])
def test_read_ratings_names_the_line_of_a_grid_error(tmp_path, text, dims, line, message):
    path = tmp_path / "bad.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"line {line}: .*{message}") as info:
        read_ratings(path, **dims)
    assert str(info.value).startswith(f"{path}: ")


def test_containers_keep_their_own_copies():
    users, items, values = np.array([0, 0, 2]), np.array([1, 2, 0]), np.array([1.0, -1.0, 0.25])
    labels = np.array([True, False, True])
    ratings, groups = RatingSet(users, items, values, 3, 3), GroupAssignment(labels)
    users[0], items[0], values[0], labels[0] = 1, 0, 9.0, False
    assert entries(ratings) == [(0, 1, 1.0), (0, 2, -1.0), (2, 0, 0.25)]
    assert groups.disadvantaged.tolist() == [True, False, True]


@pytest.mark.parametrize("write", [
    lambda r, g: r.users.__setitem__(0, 1),
    lambda r, g: r.values.fill(0.0),
    lambda r, g: g.disadvantaged.__setitem__(0, False),
], ids=["users", "values", "disadvantaged"])
def test_the_arrays_of_a_container_are_read_only(write):
    ratings, groups = small_set(), GroupAssignment([True, False, True])
    with pytest.raises(ValueError, match="read-only"):
        write(ratings, groups)
    assert entries(ratings) == entries(small_set()) and groups.disadvantaged.tolist() == [1, 0, 1]


@pytest.mark.parametrize("name", ["users", "values", "num_items", "disadvantaged"])
def test_the_attributes_of_a_container_cannot_be_rebound(name):
    ratings, groups = small_set(), GroupAssignment([True, False, True])
    owner = groups if name == "disadvantaged" else ratings
    with pytest.raises(AttributeError):
        setattr(owner, name, getattr(owner, name))


def test_a_set_keeps_the_cells_of_the_last_groups_object():
    ratings, groups = small_set(), GroupAssignment([True, False, True])
    cells = ratings.cells(groups)
    assert all(got is kept and not got.flags.writeable
               for got, kept in zip(ratings.cells(groups), cells))
    other = GroupAssignment(groups.disadvantaged)
    assert ratings.cells(other)[0] is not cells[0]
    assert ratings.cells(groups)[0] is not cells[0]          # one slot: the first tables are gone


def test_cells_that_fail_their_check_are_not_kept():
    ratings, groups = small_set(), GroupAssignment([True, False, True])
    key = ratings.cells(groups)[0]
    with pytest.raises(ValueError, match="group labels cover 2 users"):
        ratings.cells(GroupAssignment([True, False]))
    assert ratings.cells(groups)[0] is key


KEPT = {"pattern", "_cells"}     # what a set keeps in its __dict__ once built


def test_a_pickled_set_arrives_read_only_and_without_its_plan():
    """A set sent with its pattern and cells built pickles to the bytes of a
    fresh one, and arrives without them."""
    ratings, groups = small_set(), GroupAssignment([True, False, True])
    ratings.pattern, ratings.cells(groups)
    assert KEPT <= set(vars(ratings))
    sent = pickle.dumps((ratings, groups))
    assert sent == pickle.dumps((small_set(), GroupAssignment([True, False, True])))
    got, got_groups = pickle.loads(sent)
    assert entries(got) == entries(ratings) and got.num_users == 3
    assert not KEPT & set(vars(got))
    for array in (got.users, got.items, got.values, got_groups.disadvantaged):
        assert not array.flags.writeable
    assert got.cells(got_groups)[1].tolist() == ratings.cells(groups)[1].tolist()


def describe_in_a_worker(ratings, groups):
    """What a worker process sees of a set and its groups."""
    arrays = (ratings.users, ratings.items, ratings.values, groups.disadvantaged)
    return (entries(ratings), [a.flags.writeable for a in arrays],
            sorted(KEPT & set(vars(ratings))), len(ratings.cells(groups)[0]))


def test_a_set_crosses_a_process_boundary_read_only():
    """As a sweep's worker (``--jobs``) gets it: read-only, without the
    pattern and the cells built in the parent."""
    ratings, groups = small_set(), GroupAssignment([True, False, True])
    ratings.pattern, ratings.cells(groups)
    with ProcessPoolExecutor(max_workers=1) as pool:
        got = pool.submit(describe_in_a_worker, ratings, groups).result(timeout=60)
    assert got == (entries(ratings), [False] * 4, [], 3)


def test_groups_round_trip(tmp_path):
    groups = GroupAssignment(np.array([True, False, True]))
    path = tmp_path / "groups.tsv"
    write_groups(groups, path)
    back = read_groups(path)
    assert np.array_equal(back.disadvantaged, groups.disadvantaged)


def test_groups_must_cover_grid():
    groups = GroupAssignment(np.array([True, False]))
    with pytest.raises(ValueError, match="^group labels cover 2 users, ratings declare 3$"):
        small_set().cells(groups)


def test_group_file_rejects_gaps(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_text("0\t1\n2\t0\n", encoding="utf-8")  # user 1 missing
    with pytest.raises(ValueError):
        read_groups(path)


@pytest.mark.parametrize("text,line", [
    ("-1\t1\n1\t0\n", 1),
    ("0\t1\n-1\t0\n", 2),
])
def test_group_file_rejects_negative_users(tmp_path, text, line):
    path = tmp_path / "groups.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {line}: bad user index$"):
        read_groups(path)


def test_read_ratings_names_the_line_of_an_index_beyond_int64(tmp_path):
    path = tmp_path / "ratings.tsv"
    path.write_text("0\t0\t1.0\n99999999999999999999999\t1\t2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: field 1: "):
        read_ratings(path)


def test_extreme_floats_round_trip_bit_for_bit(tmp_path):
    extremes = [5e-324, -0.0, 1.7976931348623157e308, -2.2250738585072014e-308, 0.1]
    rs = RatingSet([0, 0, 1, 1, 2], [0, 1, 0, 1, 0], extremes, 3, 2)
    write_ratings(rs, tmp_path / "ratings.tsv")
    assert read_ratings(tmp_path / "ratings.tsv").values.tobytes() == rs.values.tobytes()
    params = ModelParams([[5e-324], [-0.0]], [[1.7976931348623157e308]], [0.1, -0.0], [1 / 3])
    save_params(params, tmp_path / "model.txt")
    assert load_params(tmp_path / "model.txt").flat.tobytes() == params.flat.tobytes()


def _dat_reader(attr):
    return lambda path: len(getattr(parse(path.parent), attr))


# name -> (file, header lines for n rows, row i, reader returning the entry
# count, a line with a wrong field count, a line whose field does not convert)
FORMATS = {
    "ratings": ("ratings.tsv", lambda n: [], lambda i: f"{i}\t{i % 7}\t{i / 7!r}",
                lambda path: len(read_ratings(path)), "0\t1", "0\tx\t1.0"),
    "groups": ("groups.tsv", lambda n: [], lambda i: f"{i}\t{i % 2}",
               lambda path: read_groups(path).num_users, "7", "x\t1"),
    "model rows": ("model.txt", lambda n: [f"{n - 1} 1 1\n"], lambda i: f"{i / 7!r} -0.5",
                   lambda path: load_params(path).num_users + 1, "0.5", "0.5 x"),
    "users.dat": ("users.dat", lambda n: [], lambda i: f"{i + 1}::F::25::10::48067",
                  _dat_reader("users"), "1::F::25", "x::F::25::10::48067"),
    "movies.dat": ("movies.dat", lambda n: [], lambda i: f"{i + 1}::Film {i} (1995)::Action",
                   _dat_reader("movies"), "1::Film", "x::Film::Action"),
    "ratings.dat": ("ratings.dat", lambda n: [],
                    lambda i: f"{i // 50 + 1}::{i % 50 + 1}::{i % 5 + 1}::{978300000 + i}",
                    _dat_reader("rating_values"), "1::1::5", "1::1::x::978300760"),
}


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_every_input_format_skips_blank_lines_and_names_the_faulty_line(tmp_path, fmt):
    name, header, row, read, short, unconvertible = FORMATS[fmt]
    # The .dat formats read the whole archive: 60 users and 50 movies, so
    # that the 3000 ratings rate 3000 distinct (user, movie) pairs.
    write_ml_corpus(tmp_path, users="".join(FORMATS["users.dat"][2](i) + "\n" for i in range(60)),
                    movies="".join(FORMATS["movies.dat"][2](i) + "\n" for i in range(50)))
    path = tmp_path / name
    rows = [row(i) + "\n" for i in range(3000)]
    lines = header(len(rows)) + rows[:2] + ["\n", " \t \n"] + rows[2:]
    path.write_text("".join(lines).rstrip("\n"), encoding="latin-1")
    assert read(path) == len(rows)
    for fault in (short, unconvertible):
        for at in (len(lines) - len(rows) + 5, len(lines) - 2):   # near the start, near the end
            path.write_text("".join(lines[:at] + [fault + "\n"] + lines[at:]), encoding="latin-1")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {at + 1}: "):
                read(path)


@pytest.mark.parametrize("num_users", [3, 300, 70_000])
def test_plan_order_is_the_stable_argsort_of_shuffled_entries(num_users):
    users = np.repeat(np.arange(num_users), 4)
    items = np.tile(np.arange(4), num_users)
    shuffle = np.random.default_rng(num_users).permutation(users.size)
    users, items = users[shuffle], items[shuffle]
    ratings = RatingSet(users, items, np.ones(users.size), num_users, 4)
    pattern, _, order = ratings.pattern
    assert order.dtype == np.intp
    assert np.array_equal(order, np.argsort(users.astype(np.int64), kind="stable"))
    assert np.array_equal(pattern.indices, items[order])


def test_the_kept_pattern_holds_one_read_only_zero_for_its_data():
    """No call reads the data of the kept CSR pair, so it views one zero at
    stride 0 and cannot be written."""
    ratings = RatingSet([0, 0, 1, 2], [0, 1, 1, 2], [1.0, 2.0, 3.0, 4.0], 3, 3)
    for shuffled in (ratings, ratings.subset([3, 1, 0, 2])):
        a, at, _ = shuffled.pattern
        for data in (a.data, at.data):
            assert data.shape == (4,) and data.strides == (0,)
            assert not data.flags.writeable and not data.any()
