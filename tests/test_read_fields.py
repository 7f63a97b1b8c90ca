"""``data.read_fields`` against a line-by-line reader.

Every file is first parsed whole by one ``np.loadtxt`` call; a file that
fails one of its guards is read by the line loop.  Whichever path a file
takes, the result must equal ``oracles.read_fields_line_by_line``: the same
numeric arrays bit for bit and str fields as written, the same dtypes and
line numbers, or an error naming the same (first faulty) line.  Hypothesis
draws rows of every input format (ratings, model rows, groups and the three
MovieLens files) with up to two faulty lines among them, mixed with blank
and whitespace-only lines, tokens that only Python's ``int``/``float``
accept (``1_0``, Arabic-Indic and fullwidth digits, a no-break space), str
fields with edge spaces, ``#``, ``"``, latin-1 letters or a ``:``, empty
str fields, CRLF line ends and a missing final newline.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from faircf import data
from faircf.data import read_fields
from oracles import read_fields_line_by_line

# name -> (sep, kinds, header line, encoding)
FORMATS = {
    "ratings": ("\t", (int, int, float), "", "utf-8"),
    "model rows": (" ", (float, float, float), "2 1 2\n", "utf-8"),
    "ratings.dat": ("::", (int, int, int, int), "", "latin-1"),
    "groups": ("\t", (int, str), "", "utf-8"),
    "users.dat": ("::", (int, str, int, int, str), "", "latin-1"),
    "movies.dat": ("::", (int, str, str), "", "latin-1"),
}
GOOD = {
    int: ["0", "7", "-3", "+5", " 5 ", "00012", "-0", "1_0", "\u0661", "\uff11", "\u00a04",
          "9223372036854775807", "-9223372036854775808"],
    float: ["0.5", "-0.0", "3", ".5", "+5", " 5 ", "1_0", "\u0661", "nan", "inf", "-Infinity",
            "1e999", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308"],
    str: ["0", "1", "F", "", " ", " 0", "1 ", " M ", "#", "5#x", '"', '"Quoted"', "Café",
          "Señor Zoë", "Crème brûlée (1995)", "Star Wars: Episode IV (1977)", "a:", ":b",
          "Action|Sci-Fi", "a\tb", "55117"],
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
        assert raw(column) == raw(expected)


def raw(column):
    """The bits of a numeric column, the strings of a str column."""
    return column.tolist() if column.dtype == object else column.tobytes()


@st.composite
def file_texts(draw, fmt):
    sep, kinds, header, encoding = FORMATS[fmt]

    def token(table, kind):
        return st.sampled_from([t for t in table[kind] if sep not in t
                                and t.encode(encoding, "replace").decode(encoding) == t])

    rows = st.tuples(*(token(GOOD, kind) for kind in kinds)).map(list)
    lines = draw(st.lists(st.one_of(rows.map(lambda r: sep.join(r) + "\n"),
                                    st.sampled_from(BLANKS)), max_size=12))
    for fault in draw(st.lists(st.sampled_from(["token", "count", "tab"]), max_size=2)):
        fields = draw(rows)
        if fault == "token":        # every str converts, so only a numeric field can fail
            k = draw(st.sampled_from([k for k, kind in enumerate(kinds) if kind is not str]))
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
@example(text="\n\n\n")                                  # a file of only newlines
@example(text="0\t1\t2.5\n\n1\t0\t1_0\n")
@example(text="0\t1\t2.5\n\n1\t0\t-0.0\n")                 # an empty line, which loadtxt skips
@example(text="0\t1\t2.5\t\n")                           # a trailing tab
@example(text="0\t1\t2.5#x\n")                           # no comments in a field
@example(text="99999999999999999999\t1\t2.5\n")
@example(text="0\t1\t2.5\r\n1\t0\t-0.0")
@example(text="0\t1\t2.5\r\n1\t0\t-0.0\r\n")               # CRLF
@example(text="0\t1\t2.5\n1\t0\t-0.0\n\n")                 # a trailing blank line
@example(text="0\t1\t2.5\r1\t0\t1.5\n\n2\t2\t0.5\n")      # a bare CR, balanced by a blank line
@example(text="0\tx\t1.0\n0\t1\n")                         # the first faulty line wins
def test_ratings_rows_match_the_line_by_line_reader(tmp_path, text):
    check_drawn_file(tmp_path, "ratings", text)


@_SETTINGS
@given(text=file_texts("model rows"))
@example(text="2 1 2\n0.5 1.5 2.5\n  \n0.5\t 1.5 2.5\n")  # a tab that Python strips
@example(text="2 1 2\n0.5 1.5\t2.5 3.5\n")
@example(text="2 1 2\n0.5 1.5\t2.5\n")                   # 2 spaces and a tab for 3 fields
@example(text="2 1\n0.5 1.5 2.5\n")                      # a header of another field count
@example(text="2 1 2 9\n0.5 1.5 2.5\n")
def test_model_rows_match_the_line_by_line_reader(tmp_path, text):
    check_drawn_file(tmp_path, "model rows", text)


@_SETTINGS
@given(text=file_texts("ratings.dat"))
@example(text="1::2::3::978300760\t\n")                  # a tab inside a "::" field
@example(text="1::2\t3::4::5\n")
@example(text="1::2\t3::4\n")
@example(text="1::2::3::978300760\n \n1::2::+5::1_0\n")
@example(text="1:9:2::3::4\n")                           # a single-colon field
@example(text="1::2::3::4::5\n")                         # an extra "::" field
@example(text="1::2::3::4:5\n")                          # a colon inside the last field
@example(text="1::::2::3::4\n")
@example(text="1::2::3::4::5\n1:9:2::3::4\n")            # the "::" counts balance out
@example(text="1:2::3::4::5\n6::7::8\n")                 # the first faulty line wins
@example(text="1:\x00:2::3::4\n")                        # a NUL, which a bytes column reads as empty
def test_ratings_dat_rows_match_the_line_by_line_reader(tmp_path, text):
    check_drawn_file(tmp_path, "ratings.dat", text)


@_SETTINGS
@given(text=file_texts("groups"))
@example(text="0\t 1\n1\t0 \n2\t\n")                     # str fields kept as written
@example(text="0\t1\n \t \n1\t0\n")                      # a whitespace-only line
@example(text="0\t1\n1\t#x\"\n")
def test_groups_rows_match_the_line_by_line_reader(tmp_path, text):
    check_drawn_file(tmp_path, "groups", text)


@_SETTINGS
@given(text=file_texts("users.dat"))
@example(text="1::F::1::10::48067\n2::M::56::16::70072\n")
@example(text="1::F::1::10::48067\n2:::M::56::16::70072\n")  # a ":" before a str field
@example(text="1::::1::10::\n")                           # empty str fields
def test_users_dat_rows_match_the_line_by_line_reader(tmp_path, text):
    check_drawn_file(tmp_path, "users.dat", text)


@_SETTINGS
@given(text=file_texts("movies.dat"))
@example(text="1::Toy Story (1995)::Animation|Children's|Comedy\n")
@example(text="1::Caf\u00e9 (1995)::Drama\n2::Star Wars: Episode IV (1977)::Action\n")
@example(text="1:a:b::c\n1::::c\n")                      # "::" counts balanced by empty titles
@example(text="1::a:::c\n")
@example(text='1:: "#x"::\n')
def test_movies_dat_rows_match_the_line_by_line_reader(tmp_path, text):
    check_drawn_file(tmp_path, "movies.dat", text)


def clean_rows(fmt):
    """3000 clean rows in the format ``fmt``; a str field holds edge spaces,
    ``#``, ``"`` and a latin-1 letter."""
    sep, kinds, _, _ = FORMATS[fmt]
    return [sep.join(f' {i % 97 + k} \u00e9#" ' if kind is str else str(i % 97 + k)
                     for k, kind in enumerate(kinds)) + "\n" for i in range(3000)]


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_a_clean_file_parses_in_one_loadtxt_call(tmp_path, monkeypatch, fmt):
    """The whole-file path takes a clean file, with or without a trailing
    blank line, in one call, and the line loop never runs."""
    sep, kinds, header, encoding = FORMATS[fmt]
    loadtxt, calls = np.loadtxt, []
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: calls.append(1) or loadtxt(*args, **kw))
    monkeypatch.setattr(data, "_read_lines", lambda *args: pytest.fail("the line loop ran"))
    text = header + "".join(clean_rows(fmt))
    results = []
    for tail in ("", "\n"):
        path = tmp_path / "input.txt"
        path.write_text(text + tail, encoding=encoding)
        calls.clear()
        results.append(read_fields(path, sep, kinds, encoding=encoding, skip=header.count("\n")))
        assert len(calls) == 1
    assert_same(path, fmt)
    (lines, columns), (tail_lines, tail_columns) = results
    assert lines.tolist() == tail_lines.tolist()
    assert list(map(raw, columns)) == list(map(raw, tail_columns))


@pytest.mark.parametrize("fmt", list(FORMATS))
@pytest.mark.parametrize("fault", ["blank", "1_0", "x"])
def test_a_fallback_in_the_second_block_only(tmp_path, fmt, fault):
    """One line near the end of a long file (a blank line, a token only
    Python takes, or a bad field) sends the whole file to the line loop,
    whose line numbers must count every line before it."""
    sep, kinds, header, _ = FORMATS[fmt]
    skip = header.count("\n")
    rows = clean_rows(fmt)
    at = len(rows) - 50
    rows.insert(at, "\n" if fault == "blank" else sep.join([fault] * len(kinds)) + "\n")
    path = tmp_path / "input.txt"
    path.write_text(header + "".join(rows), encoding="utf-8")
    assert_same(path, fmt)
    if fault == "x":
        with pytest.raises(ValueError, match=f": line {skip + at + 1}: "):
            read_fields(path, sep, kinds, skip=skip)


def test_a_block_of_blank_lines_warns_under_no_filter(tmp_path):
    """np.loadtxt warns on a file that holds no data; read_fields does not."""
    path = tmp_path / "ratings.tsv"
    path.write_text("\n\n\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lines, columns = read_fields(path, "\t", (int, int, float))
    assert not caught and lines.size == 0 and [c.size for c in columns] == [0, 0, 0]


def test_a_plain_file_named_like_a_compressed_one_is_read_as_it_stands(tmp_path):
    """np.loadtxt would gunzip a file named ``*.gz``; read_fields reads the
    bytes of every file as they are."""
    path = tmp_path / "ratings.tsv.gz"
    path.write_text("0\t1\t2.5\n1\t0\t-0.0\n", encoding="utf-8")
    assert_same(path, "ratings")
    lines, _ = read_fields(path, "\t", (int, int, float))
    assert lines.tolist() == [1, 2]


def test_a_warning_from_loadtxt_leaves_the_file_to_the_line_loop(tmp_path, monkeypatch):
    """numpy 1.x loadtxt warns on an int written as ``3.0`` and takes it as
    3; a warning must not leak out, and the line loop reads the file."""
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kw):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return loadtxt(*args, **kw)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    path = tmp_path / "ratings.tsv"
    path.write_text("0\t1\t2.5\n1\t0\t-0.0\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lines, columns = read_fields(path, "\t", (int, int, float))
    assert not caught and lines.tolist() == [1, 2]
    assert_same(path, "ratings")


def test_a_whitespace_only_line_holds_no_entry_in_a_file_of_str_fields(tmp_path):
    """np.loadtxt would keep the middle line as a row of one str field."""
    path = tmp_path / "names.txt"
    path.write_text("a\n \nb\n", encoding="utf-8")
    lines, (names,) = read_fields(path, "\t", (str,))
    assert lines.tolist() == [1, 3] and names.tolist() == ["a", "b"]
