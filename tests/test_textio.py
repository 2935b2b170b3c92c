"""Block-wise CSV reading and writing against per-line and per-row
reference loops, which are kept here as the specification."""

import io
import warnings
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hapstep import textio
from hapstep.errors import FormatError
from hapstep.trace import ForceTrace, TraceMeta, load_trace, write_trace


def reference_read_csv(source):
    """The per-line reader read_csv replaced."""
    comments, header, values = [], [], array("d")
    append = values.append
    with textio.opened(source, "r") as fh:
        where = f"{fh.name}: line" if hasattr(fh, "name") else "line"
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line[0] == "#":
                comments.append((lineno, line))
            elif not header:
                header = [h.strip() for h in line.split(",")]
            else:
                parts = line.split(",")
                if len(parts) != len(header):
                    raise FormatError(f"{where} {lineno}: expected "
                                      f"{len(header)} fields, got {len(parts)}")
                try:
                    for p in parts:
                        append(float(p))
                except ValueError as exc:
                    raise FormatError(f"{where} {lineno}: {exc}") from None
    return comments, header, np.array(values).reshape(-1, max(len(header), 1))


def outcome(read, source):
    """(comments, header, values as int64 bits) or the FormatError text."""
    try:
        comments, header, values = read(source)
    except FormatError as exc:
        return str(exc)
    assert values.dtype == np.float64
    return comments, header, values.shape, values.view(np.int64).tolist()


def assert_reads_like_reference(text, tmp_path):
    """Same outcome from bytes, a text stream and a path (which splits
    lines on a lone CR too)."""
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    for make in (text.encode, lambda: io.StringIO(text), lambda: str(path)):
        assert outcome(textio.read_csv, make()) == outcome(reference_read_csv, make())


BODY = "t,a,b\n0.0,1.5,-2\n0.001,1e-05,3\n"

CORPUS = {
    "plain": BODY,
    "comments-and-blanks-around-header":
        "\n# rate_hz=1000.0\n   \n\t\n  # x=1\nt,a,b\n\n# mid\n0.0,1,2\n  \n0.001,3,4\n#end\n\n",
    "spaces-in-fields": " t , a ,b \n 0.0 , 1.5,\t2 \n",
    "crlf": BODY.replace("\n", "\r\n"),
    "lone-cr": BODY.replace("\n", "\r"),
    "mixed-ends": "t,a,b\r\n0.0,1,2\r0.001,3,4\n",
    "cr-inside-field": "t,a,b\n0.0,1\r,2\n",
    "underscores": "t,a,b\n1_0,2_000.5,3\n",
    "non-ascii-digits": "t,a,b\n١٢,٣.٥,\U0001d7cf\n",
    "nan-inf-text": "t,a,b\nnan,-inf,Infinity\n-nan,+inf,NaN\n1e999,-0.0,5e-324\n",
    "too-few-fields": BODY + "0.002,5\n",
    "too-many-fields": BODY + "0.002,5,6,7\n",
    "bad-float": BODY + "0.002,oops,6\n",
    "empty-field": BODY + "0.002,,6\n",
    "hash-inside-row": BODY + "0.002,5#,6\n",
    "double-underscore": BODY + "0.002,1__0,6\n",
    "header-only": "# c\nt,a,b\n",
    "comments-only": "# c\n\n# d\n",
    "empty": "",
    "one-column": "x\n1\n2\n\n3\n",
    "bad-then-short": BODY + "0.002,x,6\n0.003,7\n",
    "short-then-bad": BODY + "0.002,7\n0.003,x,6\n",
    "empty-and-blank-lines-between-rows": "t,a,b\n0,1,2\n\n\r\n  \n\t\xa0\n0.001,3,4\n\n",
    "nul-in-field": BODY + "0.002,5\x00,6\n",
    "nul-before-field": BODY + "0.002,\x005,6\n",
    "nbsp-and-line-separator-padding": "t,a,b\n\xa00.0\xa0,\u20281,2\u2028\n",
    # whitespace to str.strip and numpy, not to float() of an ASCII field
    "x1c-padding-inside-row": BODY + "0.002,5\x1c,6\n",
    "x1f-padding-inside-row": BODY + "0.002,\x1f5,6\n",
    "x1c-padding-at-line-edges": BODY + "\x1c0.002,5,6\x1d\n",
    "x1c-beside-non-ascii": BODY + "0.002,\xa0\x1c5,6\n",
    "quoted-field": BODY + '0.002,"5",6\n',
    "hex": BODY + "0.002,0x1,6\n",
    "signed-nan-overflow": BODY + "+nan,1e400,-1e400\n",
    "trailing-comma": BODY + "0.002,5,6,\n",
    "trailing-comma-every-row": "t,a,b\n0,1,2,\n0.001,3,4,\n",
    "bom-before-row": BODY + "\ufeff0.002,5,6\n",
    "form-feed-padding": BODY + "\x0c0.002,5\x0b,6\n",
}


@pytest.mark.parametrize("text", CORPUS.values(), ids=CORPUS.keys())
def test_read_csv_equals_per_line_reference(text, tmp_path):
    assert_reads_like_reference(text, tmp_path)


ODD_LINES = {
    "bad-float": "0.5,bad,1", "short": "0.5,1", "comment": "# note", "blank": "  ",
    "empty": "", "whitespace": "\t\xa0\u2028 ", "nul": "0.5,1\x00,2",
    "padding": "\xa00.5,\u20281\x85,\x0c2\xa0", "x1c": "0.5,\x1c1,2",
    "quoted": '0.5,"1",2', "hex": "0.5,0x1,2", "nan-overflow": "+nan,1e400,-1e400",
    "trailing-comma": "0.5,1,2,", "underscore": "0.5,1_0,2", "lone-cr": "0.5,1,2\r\r",
}


@pytest.mark.parametrize("hint", [1, 40, 100])
@pytest.mark.parametrize("kind", ODD_LINES)
def test_block_boundaries(kind, hint, tmp_path, monkeypatch):
    """An odd line (bad, comment, blank, padded, ...) at every position
    of a file read in blocks of one to a few lines; at hint 1 an empty
    line is a block of its own."""
    monkeypatch.setattr(textio, "_READ_HINT", hint)
    rows = [f"{i / 1000!r},{i * 0.1!r},{-i!r}" for i in range(12)]
    odd = ODD_LINES[kind]
    for at in range(len(rows) + 1):
        lines = ["# rate_hz=1000.0", "t,a,b", *rows[:at], odd, *rows[at:]]
        assert_reads_like_reference("\n".join(lines) + "\n", tmp_path)


#: fields float() and numpy's reader may treat alike or apart
FIELDS = ["0", "-2", "1.5", "1e-05", "5e-324", "-0.0", "nan", "-nan", "+nan", "Infinity",
          "-inf", "1e400", "1_0", "1__0", "_1", "\u0661\u0662", "\U0001d7cf", "0x1", '"1"',
          "", "#", "5#", "oops", "\ufeff1", "1\x00", "\x001"]
PADDING = ["", " ", "\t", "\x0b", "\x0c", "\xa0", "\x85", "\u2028", "\u3000",
           "\x1c", "\x1d", "\x1e", "\x1f", "\r"]


@pytest.fixture(scope="module")
def prop_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("prop")


@st.composite
def csv_text(draw):
    """A header of one to three columns, plain rows, and odd lines with
    fields, padding and line ends from the lists above."""
    width = draw(st.integers(1, 3))
    plain = st.lists(st.sampled_from(FIELDS[:12]), min_size=width, max_size=width)
    field = st.tuples(*[st.sampled_from(PADDING), st.sampled_from(FIELDS),
                        st.sampled_from(PADDING)]).map("".join)
    odd = st.one_of(st.lists(field, min_size=1, max_size=4),
                    st.sampled_from([[""], [" "], ["# c"], ["\xa0"]]),
                    plain.map(lambda f: [*f, ""]))
    lines = draw(st.lists(st.one_of(plain, plain, plain, odd), max_size=120))
    ends = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
    header = ",".join("tab"[:width])
    return "".join(line + draw(ends) for line in [header, *map(",".join, lines)])


@settings(max_examples=150, deadline=None)
@given(text=csv_text(), hint=st.integers(1, 200))
def test_read_csv_property(text, hint, prop_dir):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(textio, "_READ_HINT", hint):
            assert_reads_like_reference(text, prop_dir)


def test_default_block_size_crossed(tmp_path):
    """A file of several default-size blocks, with a bad line near the
    end, matches the reference in values and in the error."""
    rng = np.random.default_rng(3)
    rows = ["%r,%r,%r" % tuple(r) for r in rng.normal(size=(5000, 3)).tolist()]
    text = "# c\nt,a,b\n" + "\n".join(rows) + "\n"
    assert len(text) > 3 * textio._READ_HINT
    assert_reads_like_reference(text, tmp_path)
    assert_reads_like_reference(text + "1,2,x\n" + rows[0] + "\n", tmp_path)


def reference_rows(names, *columns):
    """The per-row ``%r`` text write_columns replaced."""
    line = ",".join(["%r"] * len(names)) + "\n"
    rows = zip(*[np.asarray(c, dtype=float).tolist() for c in columns])
    return ",".join(names) + "\n" + "".join(line % row for row in rows)


SPECIAL = [-0.0, 1e-05, 1e16, 5e-324, float("nan"), float("inf"), -float("inf"),
           0.1, 1 / 3, -123456.789, 2.0 ** 60, 0.0]


@pytest.mark.parametrize("to_path", [False, True], ids=["stream", "path"])
@pytest.mark.parametrize("n", [0, 1, textio.WRITE_ROWS - 1, textio.WRITE_ROWS,
                               textio.WRITE_ROWS + 1])
def test_write_columns_equals_per_row_reference(n, to_path, tmp_path):
    rng = np.random.default_rng(n)
    a = np.resize(SPECIAL, n)
    b = rng.permutation(a)
    c = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    ms = np.arange(59_990, 59_990 + n) / 1000
    few = rng.choice([0.25, -0.0, 1 / 3], size=n)
    names = ("t", "x", "y", "ms", "few")
    if to_path:
        path = tmp_path / "out.csv"
        assert textio.write_columns(path, names, a, b, c, ms, few) == n
        text = path.read_bytes().decode()
    else:
        buf = io.StringIO()
        assert textio.write_columns(buf, names, a, b, c, ms, few) == n
        text = buf.getvalue()
    assert text == reference_rows(names, a, b, c, ms, few)


EDGES = {
    "negative-zero-beside-ms": [-0.0, 0.001],
    "half-ms": [0.0005],
    "last-ms-below-1e12": [999_999_999_999.999, 1e12],
    "2**53-ms": [2.0 ** 53 / 1000],
    # k / 1000 with k of 16 or 17 digits, whose repr is not the digits of k
    "ms-of-16-digits": [9_540_493_074_439.888],
    "ms-of-17-digits": [18_389_906_439_653.352],
    "nan-both-signs": [float("nan"), -float("nan")],
    "inf-both-signs": [float("inf"), -float("inf")],
    "subnormal": [5e-324],
    "largest": [1.7976931348623157e308, 1.0],
    "ms-grid": [0.0, 0.001, 0.01, 0.1, 0.12, 1.0, 29.998, 59.999, 86_400.0],
    "ms-grid-and-one-other": [0.0, 0.001, 0.002, 0.0025],
}


@pytest.mark.filterwarnings("error")  # no overflow warning from the millisecond check
@pytest.mark.parametrize("values", EDGES.values(), ids=EDGES.keys())
def test_reprs_edge_cases(values):
    col = np.array(values)
    assert textio._reprs(col) == list(map(repr, col.tolist()))
    buf = io.StringIO()
    textio.write_columns(buf, ("v", "w"), col, col[::-1])
    assert buf.getvalue() == reference_rows(("v", "w"), col, col[::-1])


def test_write_blocks_skips_an_empty_block():
    buf = io.StringIO()
    blocks = [[np.array([1.0]), np.array([0.5])], [np.empty(0), np.empty(0)],
              [np.array([2.0]), np.array([-0.0])]]
    assert textio.write_blocks(buf, ("a", "b"), blocks) == 2
    assert buf.getvalue() == "a,b\n1.0,0.5\n2.0,-0.0\n"


def column(kind, n):
    """A strategy for ``n`` floats: a few values repeated, a grid of
    whole milliseconds, or any floats."""
    if kind == "few":
        return st.lists(st.floats(), min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if kind == "ms":
        return st.lists(st.integers(0, 10 ** 17), min_size=n, max_size=n).map(
            lambda k: [i / 1000 for i in k])
    return st.lists(st.floats(), min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 60),
       kinds=st.lists(st.sampled_from(["few", "ms", "any"]), min_size=1, max_size=4))
def test_write_columns_of_mixed_columns(data, n, kinds):
    cols = [np.array(data.draw(column(kind, n)), dtype=float) for kind in kinds]
    for col in cols:
        assert textio._reprs(col) == list(map(repr, col.tolist()))
    names = [f"c{i}" for i in range(len(cols))]
    buf = io.StringIO()
    assert textio.write_columns(buf, names, *cols) == n
    assert buf.getvalue() == reference_rows(names, *cols)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 1500), rate=st.floats(1.0, 20000.0),
       with_z=st.booleans())
def test_write_then_load_trace_is_bit_exact(data, n, rate, with_z):
    channels = ("thenar_y", "heel_y", "thenar_z", "heel_z")[:4 if with_z else 2]
    values = {c: data.draw(arrays(np.float64, n, elements=finite)) for c in channels}
    tr = ForceTrace(sample_rate_hz=rate, meta=TraceMeta(data.draw(finite), "p01"),
                    **values)
    buf = io.StringIO()
    write_trace(tr, buf)
    back = load_trace(io.StringIO(buf.getvalue()))
    assert back.sample_rate_hz == tr.sample_rate_hz
    assert back.meta == tr.meta
    assert back.channels().keys() == tr.channels().keys()
    for name, chan in tr.channels().items():
        assert np.array_equal(back.channels()[name].view(np.int64), chan.view(np.int64))
