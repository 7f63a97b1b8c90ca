"""Rating and group-label containers and their on-disk text formats.

Ratings are kept sparse as parallel (user, item, value) arrays over a fixed
``num_users x num_items`` grid.  Group membership is one bit per user, with
``True`` marking the disadvantaged group.  All file formats are header-free,
tab-separated text:

* ratings / expected values: ``user<TAB>item<TAB>value``, one entry per line
* groups: ``user<TAB>flag`` with flag 1 = disadvantaged, 0 = advantaged

Every report table is written by the two text helpers here: ``text_table``
aligns columns for reading, ``csv_text`` emits CSV.  Floats are written with
``repr`` in every file format, so a read-back is bit-identical.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class RatingEntryError(ValueError):
    """A RatingSet check failed; ``entry`` is the index of the first entry
    at fault (for a duplicate pair, its second occurrence)."""

    def __init__(self, message, bad):
        super().__init__(message)
        self.entry = int(np.argmax(bad))


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
            if np.unique(keys).size != keys.size:
                repeated = np.ones(keys.size, dtype=bool)
                repeated[np.unique(keys, return_index=True)[1]] = False
                raise RatingEntryError("duplicate (user, item) pair", repeated)
        finite = np.isfinite(self.values)
        if not np.all(finite):
            raise RatingEntryError("rating values must be finite", ~finite)

    def __len__(self):
        return int(self.values.shape[0])

    @property
    def entries(self):
        """Ratings as a list of (user, item, value) tuples."""
        return list(zip(self.users.tolist(), self.items.tolist(), self.values.tolist()))

    @classmethod
    def from_entries(cls, entries, num_users, num_items):
        entries = list(entries)
        users = np.array([e[0] for e in entries], dtype=np.int64)
        items = np.array([e[1] for e in entries], dtype=np.int64)
        values = np.array([e[2] for e in entries], dtype=np.float64)
        return cls(users, items, values, num_users, num_items)

    def subset(self, index):
        """New RatingSet holding the entries selected by ``index`` (same grid)."""
        return RatingSet(self.users[index], self.items[index], self.values[index],
                         self.num_users, self.num_items, validate=False)


@dataclass(eq=False)
class GroupAssignment:
    """Binary per-user group labels; ``disadvantaged[i]`` is True for the
    disadvantaged group.  ``item_group`` optionally carries per-item labels
    (integer indices) for generators that have them; the model and the
    fairness metrics never look at it."""

    disadvantaged: np.ndarray
    item_group: np.ndarray | None = None

    def __post_init__(self):
        self.disadvantaged = np.ascontiguousarray(self.disadvantaged, dtype=bool)
        if self.disadvantaged.ndim != 1:
            raise ValueError("disadvantaged must be a 1-d boolean array")
        if self.item_group is not None:
            self.item_group = np.ascontiguousarray(self.item_group, dtype=np.int64)

    @property
    def num_users(self):
        return int(self.disadvantaged.shape[0])

    def check_against(self, ratings: RatingSet):
        """Raise if these labels do not cover the rating grid."""
        if self.num_users != ratings.num_users:
            raise ValueError(
                f"group labels cover {self.num_users} users, ratings declare {ratings.num_users}")
        if self.item_group is not None and self.item_group.shape[0] != ratings.num_items:
            raise ValueError("item_group length does not match the rating grid")


def write_ratings(ratings: RatingSet, path):
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for u, i, v in zip(ratings.users.tolist(), ratings.items.tolist(), ratings.values.tolist()):
            fh.write(f"{u}\t{i}\t{v!r}\n")


def read_ratings(path, num_users=None, num_items=None) -> RatingSet:
    """Read a tab-separated rating file.

    Grid dimensions default to max index + 1 when not given, which is only
    safe if the highest-numbered user/item actually appears in the file.
    """
    path = Path(path)
    users, items, values = [], [], []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 tab-separated fields")
            try:
                users.append(int(fields[0]))
                items.append(int(fields[1]))
                values.append(float(fields[2]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not users and (num_users is None or num_items is None):
        raise ValueError(f"{path}: empty rating file needs explicit grid dimensions")
    if num_users is None:
        num_users = max(users) + 1
    if num_items is None:
        num_items = max(items) + 1
    try:
        return RatingSet(np.array(users, dtype=np.int64), np.array(items, dtype=np.int64),
                         np.array(values, dtype=np.float64), num_users, num_items)
    except RatingEntryError as exc:
        with path.open("r", encoding="utf-8") as fh:     # blank lines hold no entry
            linenos = [n for n, line in enumerate(fh, start=1) if line.rstrip("\n")]
        raise ValueError(f"{path}: line {linenos[exc.entry]}: {exc}") from None


def write_groups(groups: GroupAssignment, path):
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for u, flag in enumerate(groups.disadvantaged.tolist()):
            fh.write(f"{u}\t{1 if flag else 0}\n")


def read_groups(path) -> GroupAssignment:
    """Read a group file; every user index 0..m-1 must appear exactly once."""
    path = Path(path)
    seen = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2 or fields[1] not in ("0", "1"):
                raise ValueError(f"{path}: line {lineno}: expected 'user<TAB>0|1'")
            try:
                user = int(fields[0])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad user index") from None
            if user in seen:
                raise ValueError(f"{path}: line {lineno}: duplicate user {user}")
            seen[user] = fields[1] == "1"
    if not seen:
        raise ValueError(f"{path}: empty group file")
    num_users = max(seen) + 1
    if len(seen) != num_users:
        missing = next(u for u in range(num_users) if u not in seen)
        raise ValueError(f"{path}: user {missing} has no group label")
    flags = np.zeros(num_users, dtype=bool)
    for user, flag in seen.items():
        flags[user] = flag
    return GroupAssignment(flags)


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
