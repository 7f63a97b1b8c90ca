"""``data.read_fields`` against a line-by-line reader.

Numeric files go through ``np.loadtxt`` a block at a time and fall back to
the block parser for any block it does not take whole.  Whichever path a
block takes, the result must equal ``oracles.read_fields_line_by_line``:
the same arrays bit for bit, the same dtypes and line numbers, or an error
naming the same line.  Hypothesis draws rows of the ratings, model-row and
``ratings.dat`` formats with at most one faulty line among them, mixed with
blank and whitespace-only lines, tokens that only Python's ``int``/``float``
accept (``1_0``, Arabic-Indic and fullwidth digits, a no-break space),
CRLF line ends and a missing final newline.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from faircf.data import read_fields
from oracles import read_fields_line_by_line

# name -> (sep, kinds, header line, encoding)
FORMATS = {
    "ratings": ("\t", (int, int, float), "", "utf-8"),
    "model rows": (" ", (float, float, float), "2 1 2\n", "utf-8"),
    "ratings.dat": ("::", (int, int, int, int), "", "latin-1"),
}
GOOD = {
    int: ["0", "7", "-3", "+5", " 5 ", "00012", "-0", "1_0", "\u0661", "\uff11", "\u00a04",
          "9223372036854775807", "-9223372036854775808"],
    float: ["0.5", "-0.0", "3", ".5", "+5", " 5 ", "1_0", "\u0661", "nan", "inf", "-Infinity",
            "1e999", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308"],
}
BAD = {
    int: ["x", "", "5#x", "3.0", "nan", "0x10", "1__0", "9223372036854775808",
          "99999999999999999999"],
    float: ["x", "", "5#x", "0x1p3", "1__0", "nan(1)", "1.5e"],
}
BLANKS = ["\n", "   \n", " \t \n", "\t\t\n"]


def outcome(reader, path, fmt):
    """(line numbers, columns) from ``reader``, or the ``<path>: line N``
    part of the error it raised."""
    sep, kinds, header, encoding = FORMATS[fmt]
    try:
        return reader(path, sep, kinds, encoding=encoding, skip=header.count("\n"))
    except ValueError as exc:
        return re.match(r"(.*: line \d+): ", str(exc)).group(1)


def assert_same(path, fmt):
    want, got = outcome(read_fields_line_by_line, path, fmt), outcome(read_fields, path, fmt)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got[0].dtype == np.int64 and got[0].tolist() == want[0].tolist()
    for column, expected in zip(got[1], want[1], strict=True):
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes()


@st.composite
def file_texts(draw, fmt):
    sep, kinds, header, encoding = FORMATS[fmt]

    def token(table, kind):
        return st.sampled_from([t for t in table[kind] if sep not in t
                                and t.encode(encoding, "replace").decode(encoding) == t])

    rows = st.tuples(*(token(GOOD, kind) for kind in kinds)).map(list)
    lines = draw(st.lists(st.one_of(rows.map(lambda r: sep.join(r) + "\n"),
                                    st.sampled_from(BLANKS)), max_size=12))
    fault = draw(st.sampled_from([None, "token", "count", "tab"]))
    if fault:
        fields = draw(rows)
        if fault == "token":
            k = draw(st.integers(0, len(kinds) - 1))
            fields[k] = draw(token(BAD, kinds[k]))
        elif fault == "count":
            fields = fields[:-1] if draw(st.booleans()) else fields + fields[:1]
        row = sep.join(fields)
        if fault == "tab" and draw(st.booleans()):   # a stray tab: a fault only for some formats
            row = row.replace(sep, "\t", 1)
        elif fault == "tab":
            at = draw(st.integers(0, len(row)))
            row = row[:at] + "\t" + row[at:]
        lines.insert(draw(st.integers(0, len(lines))), row + "\n")
    text = header + "".join(lines)
    if draw(st.booleans()):
        text = text.removesuffix("\n")
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    return text


def check_drawn_file(tmp_path, fmt, text):
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode(FORMATS[fmt][3]))
    assert_same(path, fmt)


_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@_SETTINGS
@given(text=file_texts("ratings"))
@example(text="\n\n\n")                                  # a block of only newlines
@example(text="0\t1\t2.5\n\n1\t0\t1_0\n")
@example(text="0\t1\t2.5\t\n")                           # a trailing tab
@example(text="0\t1\t2.5#x\n")                           # no comments in a field
@example(text="99999999999999999999\t1\t2.5\n")
@example(text="0\t1\t2.5\r\n1\t0\t-0.0")
def test_ratings_rows_match_the_line_by_line_reader(tmp_path, text):
    check_drawn_file(tmp_path, "ratings", text)


@_SETTINGS
@given(text=file_texts("model rows"))
@example(text="2 1 2\n0.5 1.5 2.5\n  \n0.5\t 1.5 2.5\n")  # a tab that Python strips
@example(text="2 1 2\n0.5 1.5\t2.5 3.5\n")
@example(text="2 1 2\n0.5 1.5\t2.5\n")                   # 2 spaces and a tab for 3 fields
def test_model_rows_match_the_line_by_line_reader(tmp_path, text):
    check_drawn_file(tmp_path, "model rows", text)


@_SETTINGS
@given(text=file_texts("ratings.dat"))
@example(text="1::2::3::978300760\t\n")                  # a tab blocks the "::" -> tab rewrite
@example(text="1::2\t3::4::5\n")
@example(text="1::2\t3::4\n")
@example(text="1::2::3::978300760\n \n1::2::+5::1_0\n")
def test_ratings_dat_rows_match_the_line_by_line_reader(tmp_path, text):
    check_drawn_file(tmp_path, "ratings.dat", text)


@pytest.mark.parametrize("fmt", list(FORMATS))
@pytest.mark.parametrize("fault", ["blank", "1_0", "x"])
def test_a_fallback_in_the_second_block_only(tmp_path, fmt, fault):
    """Over 1 MB: the first block parses in C, the second holds one line
    that sends it to the block parser (a blank line, a token only Python
    takes, or a bad field)."""
    sep, kinds, header, _ = FORMATS[fmt]
    skip = header.count("\n")
    rows, size = [], 0
    while size < 1.3 * (1 << 20):
        rows.append(sep.join(str(len(rows) % 97 + k) for k in range(len(kinds))) + "\n")
        size += len(rows[-1])
    at = len(rows) - 50
    rows.insert(at, "\n" if fault == "blank" else sep.join([fault] * len(kinds)) + "\n")
    path = tmp_path / "input.txt"
    path.write_text(header + "".join(rows), encoding="utf-8")
    assert_same(path, fmt)
    if fault == "x":
        with pytest.raises(ValueError, match=f": line {skip + at + 1}: "):
            read_fields(path, sep, kinds, skip=skip)


def test_a_block_of_blank_lines_warns_under_no_filter(tmp_path):
    """np.loadtxt warns on a block that holds no data; the fallback hides that."""
    path = tmp_path / "ratings.tsv"
    path.write_text("\n\n\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lines, columns = read_fields(path, "\t", (int, int, float))
    assert not caught and lines.size == 0 and [c.size for c in columns] == [0, 0, 0]
