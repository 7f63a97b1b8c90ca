"""``data.write_fields`` and the writers built on it against line-by-line
f-string writers.

Every file must equal the reference's bytes, whatever the columns hold:
repeated and distinct ints and floats, ``-0.0`` next to ``0.0``,
subnormals, the float and int64 extremes, zero rows, one row, and rows
spanning several write blocks (the block size is also shrunk to a few
bytes, so that block edges fall everywhere).  Files of finite floats must
read back through ``read_fields`` bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from faircf import data
from faircf.data import (GroupAssignment, RatingSet, read_fields, write_fields, write_groups,
                         write_ratings)
from faircf.model import ModelParams, save_params
from oracles import (save_params_line_by_line, write_fields_line_by_line,
                     write_groups_line_by_line, write_ratings_line_by_line)

INT64_MAX = 2**63 - 1
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1e-300, 1e16, 1e-5]
SPECIAL_INTS = [INT64_MAX, -INT64_MAX, 0, -1]
SEPS = ["\t", " ", "::"]

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])

ints = st.one_of(st.sampled_from(SPECIAL_INTS), st.integers(-5, 5),
                 st.integers(-INT64_MAX, INT64_MAX))
finite_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS + [1.0, 2.5, -3.0]),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def tables(draw, floats=finite_floats):
    """(kinds, columns): 1 to 4 columns of one row count, each int or float."""
    rows = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from([int, float]), min_size=1, max_size=4))
    columns = [np.array(draw(st.lists(ints if kind is int else floats,
                                      min_size=rows, max_size=rows)),
                        dtype=np.int64 if kind is int else np.float64)
               for kind in kinds]
    return tuple(kinds), columns


def assert_same_bytes(tmp_path, sep, columns, header=""):
    write_fields_line_by_line(tmp_path / "want", sep, columns, header)
    write_fields(tmp_path / "got", sep, columns, header)
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


@_SETTINGS
@given(table=tables(floats=st.one_of(finite_floats, st.floats())), sep=st.sampled_from(SEPS),
       header=st.sampled_from(["", "2 1 2\n"]), block=st.sampled_from([1, 16, 64, 1 << 20]))
def test_write_fields_matches_the_line_by_line_writer(tmp_path, table, sep, header, block):
    with mock.patch.object(data, "BLOCK_BYTES", block):
        assert_same_bytes(tmp_path, sep, table[1], header)


@_SETTINGS
@given(table=tables(), sep=st.sampled_from(SEPS), block=st.sampled_from([1, 16, 1 << 20]))
def test_write_fields_reads_back_bit_for_bit(tmp_path, table, sep, block):
    kinds, columns = table
    path = tmp_path / "fields.txt"
    with mock.patch.object(data, "BLOCK_BYTES", block):
        write_fields(path, sep, columns, header="# header\n")
    lines, back = read_fields(path, sep, kinds, skip=1)
    assert lines.tolist() == list(range(2, len(columns[0]) + 2))
    for column, read in zip(columns, back):
        assert read.dtype == column.dtype and read.tobytes() == column.tobytes()


def test_write_fields_special_values(tmp_path):
    floats = np.array(SPECIAL_FLOATS + [-x for x in SPECIAL_FLOATS], dtype=np.float64)
    ints = np.resize(np.array(SPECIAL_INTS, dtype=np.int64), floats.size)
    assert_same_bytes(tmp_path, "\t", [ints, floats, floats[::-1]])
    text = (tmp_path / "got").read_text(encoding="utf-8").splitlines()
    assert text[0] == f"{INT64_MAX}\t-0.0\t-1e-05"
    assert text[1] == f"{-INT64_MAX}\t0.0\t-1e+16"
    _, (_, back, _) = read_fields(tmp_path / "got", "\t", (int, float, float))
    assert back.tobytes() == floats.tobytes()


@pytest.mark.parametrize("rows", [0, 1])
def test_write_fields_of_zero_and_one_row(tmp_path, rows):
    columns = [np.arange(rows), np.full(rows, -0.0)]
    assert_same_bytes(tmp_path, "\t", columns, header="h\n")
    assert (tmp_path / "got").read_bytes() == b"h\n" + b"0\t-0.0\n" * rows


def test_write_fields_spans_several_blocks(tmp_path):
    rng = np.random.default_rng(5)
    rows = 4 * data.BLOCK_BYTES // 10 + 7          # at most 10 token bytes per row
    columns = [rng.integers(0, 3000, rows), rng.integers(-2, 3, rows).astype(np.float64) / 2]
    assert_same_bytes(tmp_path, "\t", columns)
    assert (tmp_path / "got").stat().st_size > 3 * data.BLOCK_BYTES


# Distinct (user, item) pairs, since a RatingSet holds no duplicate.
rating_entries = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 7)), min_size=1,
                          max_size=30, unique=True).flatmap(lambda pairs: st.tuples(
    st.just([u for u, _ in pairs]), st.just([i for _, i in pairs]),
    st.lists(finite_floats, min_size=len(pairs), max_size=len(pairs))))


@_SETTINGS
@given(entries=rating_entries)
def test_write_ratings_matches_the_line_by_line_writer(tmp_path, entries):
    ratings = RatingSet(*entries, 10, 8)
    write_ratings(ratings, tmp_path / "got")
    write_ratings_line_by_line(ratings, tmp_path / "want")
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


@_SETTINGS
@given(flags=st.lists(st.booleans(), min_size=1, max_size=50))
def test_write_groups_matches_the_line_by_line_writer(tmp_path, flags):
    groups = GroupAssignment(np.array(flags))
    write_groups(groups, tmp_path / "got")
    write_groups_line_by_line(groups, tmp_path / "want")
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


@_SETTINGS
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3)),
       seed=st.integers(0, 2**32 - 1), special=st.booleans())
def test_save_params_matches_the_line_by_line_writer(tmp_path, shape, seed, special):
    m, n, d = shape
    rng = np.random.default_rng(seed)
    flat = rng.normal(size=(m + n) * (d + 1))
    if special:
        flat = rng.choice(np.array(SPECIAL_FLOATS), flat.size) * rng.choice([-1.0, 1.0], flat.size)
    params = ModelParams.from_flat(flat, m, n, d)
    save_params(params, tmp_path / "got")
    save_params_line_by_line(params, tmp_path / "want")
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
