"""Rating-set containers and the TSV interchange formats."""

import numpy as np
import pytest

from faircf.data import (GroupAssignment, RatingSet, read_groups, read_ratings,
                         write_groups, write_ratings)


def small_set():
    return RatingSet([0, 0, 2], [1, 2, 0], [1.0, -1.0, 0.25], num_users=3, num_items=3)


def test_basic_properties():
    rs = small_set()
    assert len(rs) == 3
    assert rs.users.dtype == np.int64 and rs.values.dtype == np.float64
    assert rs.entries == [(0, 1, 1.0), (0, 2, -1.0), (2, 0, 0.25)]


def test_from_entries_round_trip():
    rs = small_set()
    again = RatingSet.from_entries(rs.entries, rs.num_users, rs.num_items)
    assert np.array_equal(again.users, rs.users)
    assert np.array_equal(again.items, rs.items)
    assert np.array_equal(again.values, rs.values)


def test_subset_keeps_grid():
    rs = small_set()
    sub = rs.subset(np.array([2, 0]))
    assert sub.num_users == 3 and sub.num_items == 3
    assert sub.entries == [(2, 0, 0.25), (0, 1, 1.0)]


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


def test_groups_round_trip(tmp_path):
    groups = GroupAssignment(np.array([True, False, True]))
    path = tmp_path / "groups.tsv"
    write_groups(groups, path)
    back = read_groups(path)
    assert np.array_equal(back.disadvantaged, groups.disadvantaged)


def test_groups_must_cover_grid():
    groups = GroupAssignment(np.array([True, False]))
    with pytest.raises(ValueError):
        groups.check_against(small_set())


def test_group_file_rejects_gaps(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_text("0\t1\n2\t0\n", encoding="utf-8")  # user 1 missing
    with pytest.raises(ValueError):
        read_groups(path)
