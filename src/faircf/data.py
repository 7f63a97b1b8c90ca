"""Rating and group-label containers and their on-disk text formats.

Ratings are kept sparse as parallel (user, item, value) arrays over a fixed
``num_users x num_items`` grid.  Group membership is one bit per user, with
``True`` marking the disadvantaged group.  All file formats are header-free,
tab-separated text:

* ratings / expected values: ``user<TAB>item<TAB>value``, one entry per line
* groups: ``user<TAB>flag`` with flag 1 = disadvantaged, 0 = advantaged

Every input file, these and the model and MovieLens files elsewhere, is read
through ``read_fields``: a blank or whitespace-only line holds no entry, and
bad input raises ``<path>: line N: <reason>``.  A clean file is parsed by
one whole-file ``np.loadtxt`` call; a file it rejects is read a line at a
time by a plain loop that applies those rules.

Every numeric file (these, the model, the MovieLens id maps) is written by
``write_fields``, every report table by ``text_table`` or ``csv_text``.
Floats are written with ``repr`` everywhere, so a read-back is bit-identical.
JSON files (configs, manifests, specs) are read by ``read_json_object``;
``json_text`` gives the JSON text of manifests and summaries, and
``check_field_types`` is the field rule of every container and config.
"""

from __future__ import annotations

import csv
import io
import json
import os
import reprlib
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy import sparse


class RatingEntryError(ValueError):
    """A RatingSet check failed; ``entry`` is the index of the first entry
    at fault (for a duplicate pair, its second occurrence)."""

    def __init__(self, message, bad):
        super().__init__(message)
        self.entry = int(np.argmax(bad))


def repeats(keys):
    """True at every entry whose key already appeared earlier; keys that are
    strictly ascending, or distinct once sorted, take no ``np.unique``."""
    if np.all(keys[1:] > keys[:-1]) or np.all(np.diff(np.sort(keys))):
        return np.zeros(keys.size, dtype=bool)
    repeated = np.ones(keys.size, dtype=bool)
    repeated[np.unique(keys, return_index=True)[1]] = False
    return repeated


class Container:
    """Base of a frozen dataclass that holds arrays: it is pickled as its
    fields, so unpickling goes through its constructor, which converts,
    checks and freezes them as for a new one; what it builds later, such as
    ``RatingSet.pattern``, stays behind."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False, repr=False)
class RatingSet(Container):
    """Sparse set of observed (user, item, value) triples on a fixed grid;
    immutable: it holds read-only copies of the arrays it is given, and
    checks them once, when built.

    It keeps two tables, each built on first use: ``pattern``, from the
    entries alone, and ``cells``, from the entries and the last groups
    object it was asked for; the set is immutable, so neither can go stale.
    Beside the set's own arrays they hold the CSR indices, a data array of
    one read-only zero at stride 0, and the int64 (item, group) key of each
    entry; one set may be shared by concurrent calls, and a pickled set leaves both behind.

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

    users: IntArray
    items: IntArray
    values: FloatArray
    num_users: int
    num_items: int
    _cells = None           # not a field: (groups, key, counts, avg_rating) that ``cells`` keeps

    def __post_init__(self):
        check_field_types(self)
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
            if (repeated := repeats(users * self.num_items + items)).any():
                raise RatingEntryError("duplicate (user, item) pair", repeated)
        finite = np.isfinite(self.values)
        if not np.all(finite):
            raise RatingEntryError("rating values must be finite", ~finite)

    def __len__(self):
        return int(self.values.shape[0])

    def subset(self, index):
        """New RatingSet holding the entries selected by ``index`` (same grid)."""
        return RatingSet(self.users[index], self.items[index], self.values[index],
                         self.num_users, self.num_items)

    def check_groups(self, groups: GroupAssignment):
        """Raise ValueError unless ``groups`` labels exactly the users of the grid."""
        if groups.num_users != self.num_users:
            raise ValueError(
                f"group labels cover {groups.num_users} users, ratings declare {self.num_users}")

    @cached_property
    def pattern(self):
        """``(A, A.T, order)``: the user-major CSR matrix of the grid, whose
        slot s holds entry ``order[s]``, and its CSC view, built once from
        the same arrays, so no item-major pattern is ever built (``order``,
        a stable argsort of the users, is None for entries in user order)."""
        users, items = self.users, self.items
        order = None
        if np.any(users[1:] < users[:-1]):
            order = np.argsort(users, kind="stable")
            items = items[order]
        indptr = np.zeros(self.num_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(users, minlength=self.num_users), out=indptr[1:])
        shape = (self.num_users, self.num_items)
        a = sparse.csr_matrix((np.broadcast_to(0.0, len(self)), items, indptr), shape=shape)
        return a, a.T, order

    def cells(self, groups: GroupAssignment):
        """``(key, counts, avg_rating)``, read-only: the (item, group) cell
        ``2 * item + dis`` of each entry, ``dis`` its user's disadvantaged
        flag under ``groups``, and (num_items, 2) tables of the entry count
        and the mean rating of each cell, columns advantaged and
        disadvantaged (bincount sums in entry order; NaN where the count is
        0).  Built after ``check_groups`` on the first request for a groups
        object, and kept in one slot until a request names another (each
        request reads the slot once); a failed check leaves the slot as is."""
        if (kept := self._cells) is None or kept[0] is not groups:
            self.check_groups(groups)
            n = self.num_items
            key = 2 * self.items + groups.disadvantaged[self.users]
            counts = np.bincount(key, minlength=2 * n).reshape(n, 2)
            sums = np.bincount(key, weights=self.values, minlength=2 * n)
            with np.errstate(invalid="ignore", divide="ignore"):
                avg_rating = sums.reshape(n, 2) / counts
            for table in (key, counts, avg_rating):
                table.setflags(write=False)
            object.__setattr__(self, "_cells", kept := (groups, key, counts, avg_rating))
        return kept[1:]


@dataclass(frozen=True, eq=False)
class GroupAssignment(Container):
    """Binary per-user group labels; ``disadvantaged[i]`` is True for the
    disadvantaged group.  Immutable: it holds a read-only copy of the labels
    it is given."""

    disadvantaged: BoolArray

    def __post_init__(self):
        check_field_types(self)
        if self.disadvantaged.ndim != 1:
            raise ValueError("disadvantaged must be a 1-d boolean array")

    @property
    def num_users(self):
        return int(self.disadvantaged.shape[0])


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
    reject(path, lines, repeats(users), "duplicate user {}", users)
    if users.max() + 1 != users.size:       # unique and >= 0, so some index is missing
        missing = np.argmax(np.sort(users) != np.arange(users.size))
        raise ValueError(f"{path}: user {missing} has no group label")
    disadvantaged = np.zeros(users.size, dtype=bool)
    disadvantaged[users] = flags == "1"
    return GroupAssignment(disadvantaged)


_DTYPES = {int: np.int64, float: np.float64, str: object}
_SEP_NAMES = {"\t": "tab", " ": "space"}
BLOCK_BYTES = 1 << 20           # text written per block


@contextmanager
def open_text(path, encoding="utf-8"):
    """``open(path)`` for reading text; a byte that does not decode raises
    ``<path>: line N: not valid <encoding>``, N found by a second, lenient
    read, since the text layer decodes ahead of the line it returns."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "r", encoding=encoding, errors="surrogateescape") as fh:
            for number, line in enumerate(fh, 1):
                try:
                    line.encode(encoding)
                except UnicodeEncodeError:
                    raise ValueError(f"{path}: line {number}: not valid {encoding.upper()}") from None
        raise


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file ``path``; a file that is no JSON, or holds
    no object, raises ``<path>: <reason>`` naming ``what`` it should hold."""
    with open_text(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return doc


def json_text(doc) -> str:
    """``doc`` as JSON text, keys sorted and indented by two, ending in a newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# A field's annotation -> the types its value may take; a bool is none of them.
_FIELD_TYPES = {"int": (int, np.integer), "float": (int, float, np.integer, np.floating),
                "str": str, "str | None": (str, type(None)), "tuple": (list, tuple),
                "tuple[tuple]": (list, tuple)}
# An array field's annotation -> the dtype it is kept in, the dtype kinds it
# takes (np.can_cast then refuses a lossy one, such as uint64) and what it expects.
IntArray = FloatArray = BoolArray = np.ndarray
_ARRAY_TYPES = {"IntArray": (np.int64, "iu", "integers"), "BoolArray": (bool, "b", "booleans"),
                "FloatArray": (np.float64, "iuf", "numbers")}


def _is_str_tuple(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)


def check_field_types(container, **classes):
    """The one rule for the fields of the frozen dataclass ``container``:
    raise ``<field>: expected <what>, got <value>`` (a bounded repr) unless
    each field holds what its annotation names, then store it in its kept form.

    * An int, float, str, optional str or tuple field holds its type (see
      _FIELD_TYPES); a numpy scalar is stored as its Python value, and a
      tuple field must hold str and is stored as a tuple, a ``tuple[tuple]``
      field one such tuple per entry.
    * A field annotated with a name in ``classes`` (as
      ``TrainConfig=TrainConfig``) holds an instance of that class.
    * An IntArray, FloatArray or BoolArray field holds an array (or what
      ``np.asarray`` makes one of) whose kind converts to int64, float64 or
      bool without loss (an empty one always does), and is stored as a
      read-only copy in that dtype."""
    for f in fields(container):
        value = getattr(container, f.name)
        if f.type in _ARRAY_TYPES:
            dtype, kinds, expected = _ARRAY_TYPES[f.type]
            try:
                array = np.asarray(value)
                if array.size and not (array.dtype.kind in kinds
                                       and np.can_cast(array.dtype, dtype)):
                    raise ValueError
            except (ValueError, Warning):       # numpy < 1.24 warns of a ragged list
                raise ValueError(f"{f.name}: expected {expected}, got {reprlib.repr(value)}") from None
            value = np.array(array, dtype=dtype)
            value.setflags(write=False)
        else:
            types = _FIELD_TYPES.get(f.type) or classes.get(f.type)
            nested = f.type == "tuple[tuple]"
            if types and (not isinstance(value, types) or isinstance(value, bool)
                          or f.type == "tuple" and not _is_str_tuple(value)
                          or nested and not all(map(_is_str_tuple, value))):
                raise ValueError(f"{f.name}: expected {f.type}, got {reprlib.repr(value)}")
            value = (tuple(value) if f.type == "tuple" else tuple(map(tuple, value)) if nested
                     else value.item() if isinstance(value, np.generic) else value)
        object.__setattr__(container, f.name, value)


def read_fields(path, sep, kinds, encoding="utf-8", skip=0):
    """Read a text file of ``sep``-separated fields, one entry per line,
    after its first ``skip`` lines.

    ``kinds`` holds the type of each field (int, float or str), so its length
    is the field count.  A blank or whitespace-only line holds no entry.
    Returns the line number of every entry and one array per field.  A line
    with another field count, or a field that does not convert, raises
    ``<path>: line N: <reason>`` for the first line at fault.

    The file is first parsed whole by one ``np.loadtxt`` call (see
    ``_read_whole``), which takes only what ``int``/``float`` take, to the
    same value, and keeps a str field as written.  A file that fails a guard
    of that call is read a line at a time by ``_read_lines``, which alone
    applies the rules above.  The arrays of a whole-file parse are strided
    views of its one table, so a reader that stores a column copies it
    once, as a RatingSet does.
    """
    return _read_whole(path, sep, kinds, encoding, skip) or _read_lines(path, sep, kinds, encoding, skip)


def _read_lines(path, sep, kinds, encoding, skip):
    """``read_fields`` a line at a time.  Only an int can convert and still
    not fit its column, so only an int outside int64 goes to numpy, for its error."""
    n = len(kinds)
    numbers, columns = [], [[] for _ in kinds]
    with open_text(path, encoding) as fh:
        for number, line in enumerate(fh, 1):
            if number <= skip or line.isspace():
                continue
            tokens = line.removesuffix("\n").split(sep)
            if len(tokens) != n:
                raise ValueError(f"{path}: line {number}: "
                                 f"expected {n} {_SEP_NAMES.get(sep, repr(sep))}-separated fields")
            for k, (kind, field, column) in enumerate(zip(kinds, tokens, columns)):
                try:
                    value = kind(field)
                    if kind is int and not -2**63 <= value < 2**63:
                        np.array(value, dtype=np.int64)
                except (ValueError, OverflowError) as exc:
                    raise ValueError(f"{path}: line {number}: field {k + 1}: {exc}") from None
                column.append(value)
            numbers.append(number)
    return (np.array(numbers, dtype=np.int64),
            [np.array(column, dtype=_DTYPES[kind]) for column, kind in zip(columns, kinds)])


# np.loadtxt opens a file name through numpy's DataSource, which decompresses
# a file with one of these suffixes; the line loop reads its bytes as they are.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _read_whole(path, sep, kinds, encoding, skip):
    """``read_fields`` of a file by one ``np.loadtxt`` call over the whole
    file, or None if the file needs the line loop: the call must raise and
    warn nothing and return one row per line that ``_line_count`` finds, so
    that no blank line was skipped among them and the line numbers are a
    range.

    A doubled separator such as ``::`` is split on its character, so between
    two fields lies a column that must be empty in every row; then no field
    holds that character, and the fields are those of a split on ``sep``
    (``1:9:2::3`` is refused, ``1::::3`` has an empty middle field).  A file
    with no int or float field is left to the line loop, since loadtxt keeps
    a whitespace-only line as a row of str fields.

    loadtxt is given the file name: its C reader then takes the file in
    chunks, while a file object it reads a line at a time, which costs most
    of the gain.  So a name that numpy would decompress is left to the line
    loop, and the count and the parse see the same bytes."""
    n = len(kinds)
    char = sep[0]
    if (sep not in (char, 2 * char) or os.fspath(path).endswith(_COMPRESSED)
            or set(kinds) == {str} or not (rows := _line_count(path, skip))):
        return None
    dtype = [(f"f{k}", _DTYPES[kind]) for k, kind in enumerate(kinds)]
    gaps = [f"g{k}" for k in range(1, n)] if len(sep) == 2 else []
    for k, gap in enumerate(gaps):
        dtype.insert(2 * k + 1, (gap, "S1"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(path, delimiter=char, dtype=dtype, comments=None, ndmin=1,
                               skiprows=skip, encoding=encoding)
        except (ValueError, OverflowError, Warning):
            return None
    if len(table) != rows or any((table[gap] != b"").any() for gap in gaps):
        return None
    return np.arange(skip + 1, skip + 1 + rows), [table[f"f{k}"] for k in range(n)]


def _line_count(path, skip):
    """The number of lines after the first ``skip`` up to the last non-blank
    one (so a trailing blank line is not counted), or 0 if the file's bytes
    rule out the whole-file parse: a bare CR, a line end for the text layer
    but not for this count, or a NUL, which a bytes column reads as empty.
    The encoding must write CR, LF and NUL as their ASCII bytes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\0" in data or b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return 0
    start = 0
    for _ in range(skip):
        start = data.find(b"\n", start) + 1
        if not start:
            return 0
    end = len(data)
    while end > start and data[end - 1:end].isspace():
        end -= 1
    return data.count(b"\n", start, end) + 1 if end > start else 0


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
