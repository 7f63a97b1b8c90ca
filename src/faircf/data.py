"""Rating and group-label containers and their on-disk text formats.

Ratings are kept sparse as parallel (user, item, value) arrays over a fixed
``num_users x num_items`` grid.  Group membership is one bit per user, with
``True`` marking the disadvantaged group.  All file formats are header-free,
tab-separated text:

* ratings / expected values: ``user<TAB>item<TAB>value``, one entry per line
* groups: ``user<TAB>flag`` with flag 1 = disadvantaged, 0 = advantaged

Every input file, these and the model and MovieLens files elsewhere, is read
through ``read_fields``: a blank or whitespace-only line holds no entry, and
bad input raises ``<path>: line N: <reason>``.  Numeric files go through
``np.loadtxt`` by blocks; a pure-Python fallback applies those rules.

Every numeric file (these, the model, the MovieLens id maps) is written by
``write_fields``, every report table by ``text_table`` or ``csv_text``.
Floats are written with ``repr`` everywhere, so a read-back is bit-identical.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np
from scipy import sparse


class RatingEntryError(ValueError):
    """A RatingSet check failed; ``entry`` is the index of the first entry
    at fault (for a duplicate pair, its second occurrence)."""

    def __init__(self, message, bad):
        super().__init__(message)
        self.entry = int(np.argmax(bad))


def _repeats(keys):
    """True at every entry whose key already appeared earlier."""
    repeated = np.ones(keys.size, dtype=bool)
    repeated[np.unique(keys, return_index=True)[1]] = False
    return repeated


class RatingSet:
    """Sparse set of observed (user, item, value) triples on a fixed grid.

    Parameters
    ----------
    users, items : int arrays of equal length
        Zero-based indices into the grid.
    values : float array
        Observed scores; +/-1 for synthetic likes, 1..5 for MovieLens stars,
        or real-valued targets for evaluation sets.
    num_users, num_items : int
        Grid dimensions.  Indices must stay inside them and each
        (user, item) pair may appear at most once.
    """

    def __init__(self, users, items, values, num_users, num_items, validate=True):
        self.users = np.ascontiguousarray(users, dtype=np.int64)
        self.items = np.ascontiguousarray(items, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        if validate:
            self.validate()

    def validate(self):
        if not (self.users.shape == self.items.shape == self.values.shape) or self.users.ndim != 1:
            raise ValueError("users, items and values must be 1-d arrays of equal length")
        if self.num_users <= 0 or self.num_items <= 0:
            raise ValueError("rating grid must have at least one user and one item")
        users, items = self.users, self.items
        if len(users):
            if users.min() < 0 or users.max() >= self.num_users:
                raise RatingEntryError("user index out of range",
                                       (users < 0) | (users >= self.num_users))
            if items.min() < 0 or items.max() >= self.num_items:
                raise RatingEntryError("item index out of range",
                                       (items < 0) | (items >= self.num_items))
            keys = users * self.num_items + items
            ordered = np.sort(keys)
            if not np.all(ordered[1:] - ordered[:-1]):
                raise RatingEntryError("duplicate (user, item) pair", _repeats(keys))
        finite = np.isfinite(self.values)
        if not np.all(finite):
            raise RatingEntryError("rating values must be finite", ~finite)

    def __len__(self):
        return int(self.values.shape[0])

    @property
    def entries(self):
        """Ratings as a list of (user, item, value) tuples."""
        return list(zip(self.users.tolist(), self.items.tolist(), self.values.tolist()))

    def subset(self, index):
        """New RatingSet holding the entries selected by ``index`` (same grid)."""
        return RatingSet(self.users[index], self.items[index], self.values[index],
                         self.num_users, self.num_items, validate=False)


@dataclass(eq=False)
class GroupAssignment:
    """Binary per-user group labels; ``disadvantaged[i]`` is True for the
    disadvantaged group."""

    disadvantaged: np.ndarray

    def __post_init__(self):
        self.disadvantaged = np.ascontiguousarray(self.disadvantaged, dtype=bool)
        if self.disadvantaged.ndim != 1:
            raise ValueError("disadvantaged must be a 1-d boolean array")

    @property
    def num_users(self):
        return int(self.disadvantaged.shape[0])

    def check_against(self, ratings: RatingSet):
        """Raise if these labels do not cover the rating grid."""
        if self.num_users != ratings.num_users:
            raise ValueError(
                f"group labels cover {self.num_users} users, ratings declare {ratings.num_users}")


class RatingPlan:
    """Everything a training run or an evaluation derives from ``(ratings,
    groups)`` alone, built once and then read by every pass over the entries.

    It exposes the rating arrays like a RatingSet does.  The group labels
    are checked against the grid when the plan is built; ``groups`` may be
    None when no group statistic is wanted.  The rest is built on first use:

    * ``dis``: True at the entries of disadvantaged users;
    * ``key``: the (item, group) cell of each entry, ``2 * item + dis``,
      with per-key entry counts ``key_counts`` and rating sums
      ``key_rating_sums`` (bincount sums in entry order);
    * ``pattern``: ``(A, order)``, the user-major CSR matrix of the grid
      whose slot s holds entry ``order[s]`` (``order``, a stable argsort of
      the users in their smallest unsigned type, radix-sorted up to 65536
      users, is None for entries in user order).  Each accumulate_gradient
      call refills ``A.data``.  ``A.T`` is the CSC view of the same arrays,
      so no item-major pattern is ever built.
    """

    def __init__(self, ratings: RatingSet, groups: GroupAssignment | None = None):
        if groups is not None:
            groups.check_against(ratings)
        self.groups = groups
        self.users, self.items, self.values = ratings.users, ratings.items, ratings.values
        self.num_users, self.num_items = ratings.num_users, ratings.num_items

    @classmethod
    def of(cls, ratings, groups: GroupAssignment | None = None) -> "RatingPlan":
        """``ratings`` itself if it is a plan already (``groups`` is then
        ignored), else a fresh plan of ``(ratings, groups)``."""
        return ratings if isinstance(ratings, cls) else cls(ratings, groups)

    def __len__(self):
        return int(self.values.shape[0])

    @cached_property
    def dis(self) -> np.ndarray:
        if self.groups is None:
            raise ValueError("group statistics need group labels")
        return self.groups.disadvantaged[self.users]

    @cached_property
    def key(self) -> np.ndarray:
        return 2 * self.items + self.dis

    @cached_property
    def key_counts(self) -> np.ndarray:
        return np.bincount(self.key, minlength=2 * self.num_items)

    @cached_property
    def key_rating_sums(self) -> np.ndarray:
        return np.bincount(self.key, weights=self.values, minlength=2 * self.num_items)

    @cached_property
    def pattern(self):
        users, items = self.users, self.items
        order = None
        if np.any(users[1:] < users[:-1]):
            order = np.argsort(users.astype(np.min_scalar_type(self.num_users - 1)), kind="stable")
            items = items[order]
        indptr = np.zeros(self.num_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(users, minlength=self.num_users), out=indptr[1:])
        shape = (self.num_users, self.num_items)
        return sparse.csr_matrix((np.zeros(len(self)), items, indptr), shape=shape), order


def write_ratings(ratings: RatingSet, path):
    write_fields(path, "\t", (ratings.users, ratings.items, ratings.values))


def read_ratings(path, num_users=None, num_items=None) -> RatingSet:
    """Read a tab-separated rating file.

    Grid dimensions default to max index + 1 when not given, which is only
    safe if the highest-numbered user/item actually appears in the file.
    """
    lines, (users, items, values) = read_fields(path, "\t", (int, int, float))
    if not lines.size and (num_users is None or num_items is None):
        raise ValueError(f"{path}: empty rating file needs explicit grid dimensions")
    try:
        return RatingSet(users, items, values,
                         users.max() + 1 if num_users is None else num_users,
                         items.max() + 1 if num_items is None else num_items)
    except RatingEntryError as exc:
        raise ValueError(f"{path}: line {lines[exc.entry]}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_groups(groups: GroupAssignment, path):
    write_fields(path, "\t", (np.arange(groups.num_users), groups.disadvantaged.astype(np.int64)))


def read_groups(path) -> GroupAssignment:
    """Read a group file; every user index 0..m-1 must appear exactly once."""
    lines, (users, flags) = read_fields(path, "\t", (int, str))
    if not lines.size:
        raise ValueError(f"{path}: empty group file")
    reject(path, lines, ~np.isin(flags, ("0", "1")), "expected 'user<TAB>0|1'")
    reject(path, lines, users < 0, "bad user index")
    reject(path, lines, _repeats(users), "duplicate user {}", users)
    if users.max() + 1 != users.size:       # unique and >= 0, so some index is missing
        missing = np.argmax(np.sort(users) != np.arange(users.size))
        raise ValueError(f"{path}: user {missing} has no group label")
    disadvantaged = np.zeros(users.size, dtype=bool)
    disadvantaged[users] = flags == "1"
    return GroupAssignment(disadvantaged)


_DTYPES = {int: np.int64, float: np.float64, str: object}
_SEP_NAMES = {"\t": "tab", " ": "space"}
BLOCK_BYTES = 1 << 20           # text read or written per block


def read_fields(path, sep, kinds, encoding="utf-8", skip=0):
    """Read a text file of ``sep``-separated fields, one entry per line,
    after its first ``skip`` lines.

    ``kinds`` holds the type of each field (int, float or str), so its length
    is the field count.  A blank or whitespace-only line holds no entry.
    Returns the line number of every entry and one array per field.  A line
    with another field count, or a field that does not convert, raises
    ``<path>: line N: <reason>``.

    Lines are read in blocks of about 1 MB.  If every field is a number, a
    block goes to ``np.loadtxt``, which takes only what ``int``/``float``
    take, to the same value.  A block it fails, warns on, or gets another
    row count for (it skips blank lines) goes to the block parser, which
    alone applies the rules above: it splits the block once and converts a
    column at a time with ``map``, so no Python statement runs per field.
    """
    n = len(kinds)
    dtype = None if str in kinds else [(f"f{k}", _DTYPES[kind]) for k, kind in enumerate(kinds)]
    numbers = [np.zeros(0, dtype=np.int64)]
    columns = [[np.zeros(0, dtype=_DTYPES[kind])] for kind in kinds]
    with open(path, "r", encoding=encoding) as fh:
        for _ in range(skip):
            fh.readline()
        first = skip + 1
        while block := fh.readlines(BLOCK_BYTES):
            start, first, table = first, first + len(block), ()
            if dtype is not None and (len(sep) == 1 or "\t" not in (text := "".join(block))):
                # loadtxt splits on one character, so "::" is rewritten to a tab
                source = block if len(sep) == 1 else io.StringIO(text.replace(sep, "\t"))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # e.g. "no data" for a block of blank lines
                    try:
                        table = np.loadtxt(source, delimiter=sep if len(sep) == 1 else "\t",
                                           dtype=dtype, comments=None, ndmin=1)
                    except (ValueError, OverflowError, Warning):
                        pass
            if len(table) == len(block):
                numbers.append(np.arange(start, first))
                for k, column in enumerate(columns):
                    column.append(table[f"f{k}"])
                continue
            blank = np.fromiter(map(str.isspace, block), bool, len(block))
            kept = np.flatnonzero(~blank)
            block_numbers = kept + start
            if blank.any():
                block = [block[i] for i in kept.tolist()]
            counts = np.fromiter(map(str.count, block, repeat(sep)), np.int64, len(block))
            reject(path, block_numbers, counts != n - 1,
                   f"expected {n} {_SEP_NAMES.get(sep, repr(sep))}-separated fields")
            text = "".join(block)
            # No field holds a newline, so a newline can stand in for sep;
            # the cut drops the empty string after the last line's newline.
            fields = text.replace(sep, "\n").split("\n")
            del fields[n * len(block):]
            for k, kind in enumerate(kinds):
                column = fields[k::n]
                try:
                    columns[k].append(np.fromiter(map(kind, column), _DTYPES[kind], len(column)))
                except (ValueError, OverflowError):
                    for number, field in zip(block_numbers.tolist(), column):
                        try:
                            np.array(kind(field), dtype=_DTYPES[kind])
                        except (ValueError, OverflowError) as exc:
                            raise ValueError(f"{path}: line {number}: field {k + 1}: {exc}") from None
                    raise
            numbers.append(block_numbers)
    return np.concatenate(numbers), [np.concatenate(column) for column in columns]


def write_fields(path, sep, columns, header=""):
    """Write ``header``, then a line of ``sep``-joined fields per entry of the
    equal-length 1-d int or float ``columns``.  Each distinct value is
    formatted once (a float, keyed by its bits so that -0.0 keeps its sign,
    with ``repr``) into a NUL-padded token table; blocks of BLOCK_BYTES are
    gathered from the tables by index and written without the NULs."""
    tables = []
    for k, column in enumerate(map(np.asarray, columns)):
        floats = column.dtype.kind == "f"
        keys = np.ascontiguousarray(column, np.float64).view(np.int64) if floats else column
        distinct, index = np.unique(keys, return_inverse=True)
        end = "\n" if k == len(columns) - 1 else sep
        values = (distinct.view(np.float64) if floats else distinct).tolist()
        tokens = np.array([f"{x}{end}" for x in values], "S")     # str(float) is repr
        tables.append((tokens.view(np.uint8).reshape(tokens.size, tokens.itemsize), index))
    step = max(1, BLOCK_BYTES // sum(table.shape[1] for table, _ in tables))
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        for start in range(0, len(tables[0][1]), step):
            rows = np.hstack([table[index[start:start + step]] for table, index in tables])
            fh.write(rows[rows != 0].tobytes())


def reject(path, lines, bad, reason, values=None):
    """Raise ``<path>: line N: <reason>`` for the first entry where ``bad``
    holds, N taken from ``lines``; ``{}`` in ``reason`` stands for that
    entry of ``values``."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{path}: line {lines[i]}: "
                         + reason.format(None if values is None else values[i]))


def text_table(rows) -> str:
    """Rows of cell strings as left-aligned columns two spaces apart, one
    line per row, trailing blanks stripped."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
                   for row in rows)


def csv_text(rows) -> str:
    """Rows as CSV text, each line ending in a bare newline; floats are
    written with ``repr``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [repr(float(c)) if isinstance(c, float) else c for c in row] for row in rows)
    return buf.getvalue()
