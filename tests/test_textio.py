"""Block-wise CSV reading and writing against per-line and per-row
reference loops, which are kept here as the specification."""

import io
import os
import threading
import warnings
from array import array
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hapstep import textio
from hapstep.errors import FormatError
from hapstep.plant import PlateModel, plate_forces
from hapstep.renderer import GaitEvent, to_vibstep
from hapstep.trace import ForceTrace, load_trace, write_trace

from conftest import make_curve, render_events


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
                if not header:
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
    """Same outcome from a text stream and a path (which splits lines on
    a lone CR too)."""
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    for make in (lambda: io.StringIO(text), lambda: str(path)):
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
    text = "".join(line + draw(ends) for line in [header, *map(",".join, lines)])
    return text if draw(st.booleans()) else text.rstrip("\r\n")  # no final line end


@settings(max_examples=150, deadline=None)
@given(text=csv_text(), hint=st.integers(1, 200))
def test_read_csv_property(text, hint, prop_dir):
    """A stream and a regular file, whose body numpy reads by its path
    unless the scan or the shape check refuses, read alike."""
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


def test_body_by_path_only_from_a_plain_regular_file(tmp_path, monkeypatch):
    """numpy gets the path of a regular file whose name it would not
    decompress, empty lines and CRLF ends included, and nothing else; a
    whitespace-only line makes numpy raise, and the per-line loop then
    reads the file alike."""
    loaded = []  # (source, whether numpy returned rows)
    loadtxt = np.loadtxt

    def spy(src, *args, **kwargs):
        loaded.append((src, False))
        rows = loadtxt(src, *args, **kwargs)
        loaded[-1] = (src, True)
        return rows

    monkeypatch.setattr(np, "loadtxt", spy)
    texts = {"walk.csv": BODY, "walk.csv.gz": BODY, "crlf.csv": BODY.replace("\n", "\r\n"),
             "empty_line.csv": BODY + "\n" + BODY[6:] + "\n",
             "space_line.csv": BODY + " \n" + BODY[6:]}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, newline="")
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)

    def from_fifo():
        threading.Thread(target=fifo.write_text, args=(BODY,), daemon=True).start()
        return str(fifo)

    def path(name):
        return lambda: str(tmp_path / name)

    cases = [(path(n), [(str(tmp_path / n), True)])
             for n in ("walk.csv", "crlf.csv", "empty_line.csv")]
    cases += [(lambda: tmp_path / "walk.csv", [(str(tmp_path / "walk.csv"), True)]),
              (path("space_line.csv"), [(str(tmp_path / "space_line.csv"), False)]),
              (lambda: io.StringIO(BODY), []),
              (path("walk.csv.gz"), []), (from_fifo, [])]
    for make, via in cases:
        loaded.clear()
        got = outcome(textio.read_csv, make())
        assert loaded == via
        assert got == outcome(reference_read_csv, make())
    with open(tmp_path / "walk.csv", encoding="utf-8", newline="") as fh:
        loaded.clear()
        textio.read_csv(fh)
        assert loaded == []


def reference_rows(names, *columns):
    """The per-row ``%r`` text write_blocks replaced."""
    line = ",".join(["%r"] * len(names)) + "\n"
    rows = zip(*[np.asarray(c, dtype=float).tolist() for c in columns])
    return ",".join(names) + "\n" + "".join(line % row for row in rows)


SPECIAL = [-0.0, 1e-05, 1e16, 5e-324, float("nan"), float("inf"), -float("inf"),
           0.1, 1 / 3, -123456.789, 2.0 ** 60, 0.0]


@pytest.mark.parametrize("to_path", [False, True], ids=["stream", "path"])
@pytest.mark.parametrize("n", [0, 1, textio.WRITE_ROWS - 1, textio.WRITE_ROWS,
                               textio.WRITE_ROWS + 1, 2 * textio.WRITE_ROWS + 1])
def test_write_blocks_equals_per_row_reference(n, to_path, tmp_path):
    rng = np.random.default_rng(n)
    a = np.resize(SPECIAL, n)
    b = rng.permutation(a)
    c = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    ms = np.arange(59_990, 59_990 + n) / 1000
    few = rng.choice([0.25, -0.0, 1 / 3], size=n)
    names = ("t", "x", "y", "ms", "few")
    if to_path:
        path = tmp_path / "out.csv"
        assert textio.write_blocks(path, names, [(a, b, c, ms, few)]) == n
        text = path.read_bytes().decode()
    else:
        buf = io.StringIO()
        assert textio.write_blocks(buf, names, [(a, b, c, ms, few)]) == n
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
    # the bounds of the short decimals the digit writer takes
    "1e-4-and-the-double-below": [1e-4, float(np.nextafter(1e-4, 0))],
    "1e-4-alone": [1e-4, 0.5],
    "15-digit-integer-and-1e15": [999_999_999_999_999.0, 1e15],
    "15-digit-integer": [999_999_999_999_999.0, -123_456_789_012_345.0],
    "powers-of-10": [float(f"1e{e}") for e in range(-4, 15)],
    "powers-of-10-and-one-above": [x for e in range(-4, 15)
                                   for x in (float(f"1e{e}"),
                                             float(np.nextafter(float(f"1e{e}"), 2.0)))],
    "15-significant-digits": [0.000123456789012345, 1234567.89012345],
    "16-significant-digits": [0.1234567890123456, 1.5],
    "negative-zero-among-decimals": [0.5, -0.0, 2.0, -1.25, 0.0],
    "all-zero": [0.0, 0.0, 0.0],
    "all-negative-zero": [-0.0, -0.0],
    # 2**-13 to 2**49, 0.5 among them
    "powers-of-2-in-range": [2.0 ** k for k in range(-13, 50)],
    "16-and-17-digits": [0.1 + 0.2, 1 / 3, 2 / 3 * 1e14],
    "neighbours-of-short-decimals": [float(np.nextafter(x, to))
                                     for x in (1e-4, 0.1, 0.3, 1.5, 29.998, 123_456.789,
                                               999_999_999_999_999.0)
                                     for to in (0.0, np.inf)],
    # two nearest candidates both round to the value: left to repr
    "ties-of-16-digits": [600_000_000_000_000.25, 600_000_000_000_000.75],
    "ties-of-17-digits": [1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17],
    "fixed-point-from-1e15": [1e15, 1_234_567_890_123_456.0, 9_999_999_999_999_998.0, 1e16],
}


def lines(names, *columns):
    """reference_rows without its header: the lines of one block."""
    return reference_rows(names, *columns).split("\n", 1)[1]


@pytest.mark.filterwarnings("error")  # no overflow or cast warning from the digit pass
@pytest.mark.parametrize("values", EDGES.values(), ids=EDGES.keys())
def test_reprs_edge_cases(values, monkeypatch):
    """Each edge value is written as repr writes it, from digits (in a
    block of any row count) or from repr."""
    col = np.array(values)
    names = ("v", "w")
    buf = io.StringIO()
    textio.write_blocks(buf, names, [(col, col[::-1])])
    assert buf.getvalue() == reference_rows(names, col, col[::-1])
    monkeypatch.setattr(textio, "_DIGIT_ROWS", 1)
    assert textio._rows([col, col[::-1]]) == lines(names, col, col[::-1])


def test_every_power_of_2_in_range_is_a_short_decimal():
    """So the digit pass may assume a symmetric rounding interval, which
    a power of 2 does not have, for every value of 16 or 17 digits."""
    powers = [2.0 ** k for k in range(-20, 60) if 1e-4 <= 2.0 ** k < 1e15]
    assert (powers[0], powers[-1]) == (2.0 ** -13, 2.0 ** 49)
    assert all(len(repr(p).replace(".", "").strip("0")) <= 15 for p in powers)


def test_ties_are_left_to_repr():
    col = np.array(EDGES["ties-of-16-digits"] + EDGES["ties-of-17-digits"])
    assert textio._shortest(col)[2].all()


def test_write_blocks_skips_an_empty_block():
    buf = io.StringIO()
    blocks = [[np.array([1.0]), np.array([0.5])], [np.empty(0), np.empty(0)],
              [np.array([2.0]), np.array([-0.0])]]
    assert textio.write_blocks(buf, ("a", "b"), blocks) == 2
    assert buf.getvalue() == "a,b\n1.0,0.5\n2.0,-0.0\n"


#: +-k / 10**q with k < 10**15 and q <= 18, clipped to 1e-4 <= |v| < 1e15
decimal = st.builds(lambda k, q, sign: sign * min(max(k / 10 ** q, 1e-4), 999_999_999_999_999.0),
                    st.integers(0, 10 ** 15 - 1), st.integers(0, 18), st.sampled_from([1.0, -1.0]))


#: values the run strategies repeat: signed zeros and two NaN payloads,
#: which are runs of their own, values left to repr and 17-digit ones
RUN_VALUES = [0.0, -0.0, float("nan"), float(np.int64(0x7FF8_0000_0000_0001).view(np.float64)),
              float("inf"), 2.1476925e-05, 1e15, 0.1 + 0.2, 1 / 3, 95 / 255]


def column(kind, n):
    """A strategy for ``n`` floats: a few values repeated, a grid of
    whole milliseconds, short decimals (one in ten of them zero), runs
    of RUN_VALUES of random length, or any floats."""
    if kind == "runs":
        return st.lists(st.tuples(st.sampled_from(RUN_VALUES), st.integers(1, 2 * n)),
                        min_size=1, max_size=n).map(
            lambda runs: np.resize(np.repeat(*map(np.array, zip(*runs))), n).tolist())
    if kind == "few":
        return st.lists(st.floats(), min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if kind == "ms":
        return st.lists(st.integers(0, 10 ** 17), min_size=n, max_size=n).map(
            lambda k: [i / 1000 for i in k])
    if kind == "decimal":
        return st.lists(st.one_of(*[decimal] * 9, st.sampled_from([0.0, -0.0])),
                        min_size=n, max_size=n)
    return st.lists(st.floats(), min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 60),
       kinds=st.lists(st.sampled_from(["few", "ms", "decimal", "decimal", "runs", "any"]),
                      min_size=1, max_size=4))
def test_write_columns_of_mixed_columns(data, n, kinds):
    cols = [np.array(data.draw(column(kind, n)), dtype=float) for kind in kinds]
    names = [f"c{i}" for i in range(len(cols))]
    buf = io.StringIO()
    assert textio.write_blocks(buf, names, [cols]) == n
    assert buf.getvalue() == reference_rows(names, *cols)
    with mock.patch.object(textio, "_DIGIT_ROWS", 1):
        assert textio._rows(cols) == lines(names, *cols)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_shortest_gives_the_digits_of_every_short_decimal(data, n):
    """repr's decimal of every short decimal, whole milliseconds of at
    most 15 digits among them, none left open."""
    ms = data.draw(st.lists(st.integers(0, 10 ** 15 - 1), min_size=n, max_size=n))
    a = np.abs(np.array(data.draw(column("decimal", n)) + [k / 1000 for k in ms]))
    d, ei, left_open = textio._shortest(a)
    assert not left_open.any()
    for v, digits, e in zip(a.tolist(), d.tolist(), (ei - 4).tolist()):
        assert Decimal(digits).scaleb(e - 16) == Decimal(repr(v))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 2 * textio.WRITE_ROWS + 1), width=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocks_of_any_bit_patterns(n, width, seed):
    """Uniform int64 bit patterns viewed as float64, so NaN payloads,
    infinities and subnormals too, written as one block and as the same
    rows cut at random points: an empty block, and a block of more than
    WRITE_ROWS rows where n allows, among them."""
    rng = np.random.default_rng(seed)
    cols = [rng.integers(-2 ** 63, 2 ** 63, n, dtype=np.int64, endpoint=False).view(np.float64)
            for _ in range(width)]
    names = [f"c{i}" for i in range(width)]
    past = textio.WRITE_ROWS + 1 if n > textio.WRITE_ROWS else 0
    a = int(rng.integers(0, n - past + 1))
    b = int(rng.integers(a + past, n + 1))
    cut = [[c[i:j] for c in cols] for i, j in [(0, a), (a, a), (a, b), (b, n)]]
    for blocks in ([cols], cut):
        buf = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert textio.write_blocks(buf, names, blocks) == n
        assert buf.getvalue() == reference_rows(names, *cols)


BLOCK = textio.WRITE_ROWS


def runs(values, lengths) -> np.ndarray:
    return np.repeat(np.array(values, dtype=float), lengths)


def heads_per_block(col) -> list:
    """The number of runs of one bit pattern in each WRITE_ROWS block."""
    blocks = np.split(col.view(np.int64), range(BLOCK, len(col), BLOCK))
    return [1 + np.count_nonzero(b[1:] != b[:-1]) for b in blocks]


def digit_lengths(monkeypatch) -> list:
    """The lengths of the columns write_blocks sends to _shortest from
    now on."""
    sizes, shortest = [], textio._shortest

    def counted(a):
        sizes.append(len(a))
        return shortest(a)

    monkeypatch.setattr(textio, "_shortest", counted)
    return sizes


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 2 * BLOCK + 1), mean_run=st.integers(1, 400),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocks_of_runs(n, mean_run, seed):
    """Runs of random length of RUN_VALUES and of random 17-digit
    values, some blocks short of runs and some not, as repr writes them."""
    rng = np.random.default_rng(seed)
    k = n // mean_run + 1
    values = np.where(rng.random(k) < 0.5, rng.choice(RUN_VALUES, k), rng.normal(size=k))
    col = np.resize(runs(values, rng.integers(1, 2 * mean_run + 1, k)), n)
    names = ("runs", "t")
    buf = io.StringIO()
    assert textio.write_blocks(buf, names, [(col, np.arange(n) / 1000)]) == n
    assert buf.getvalue() == reference_rows(names, col, np.arange(n) / 1000)


RUNS = {
    "alternating-signed-zeros": runs([0.0, -0.0] * 20, np.arange(1, 41) * 5),
    "one-run-over-a-block": runs([95 / 255], [BLOCK]),
    "runs-over-the-block-boundary": runs([0.0, 1 / 3, -0.0, float("nan")],
                                         [BLOCK - 50, 100, BLOCK - 50, 7]),
    "heads-below-digit-rows": runs(1 + np.arange(textio._DIGIT_ROWS - 1) / 3, 30),
    "heads-at-digit-rows": runs(1 + np.arange(textio._DIGIT_ROWS) / 3, 30),
}


@pytest.mark.parametrize("col", RUNS.values(), ids=RUNS.keys())
def test_runs_edge_cases(col, monkeypatch):
    """Each block of runs is written as repr writes it; _DIGIT_ROWS
    counts the runs of a block, not its rows."""
    lengths = digit_lengths(monkeypatch)
    buf = io.StringIO()
    textio.write_blocks(buf, ("v",), [(col,)])
    assert buf.getvalue() == reference_rows(("v",), col)
    assert lengths == [h for h in heads_per_block(col) if h >= textio._DIGIT_ROWS]


def rendered_duty(knot_table):
    """Fitted curves with the 95/255 floor and the duty log they render
    for 6 events 1.1 s apart."""
    fwd = make_curve("forward", slope=1.2, intercept=0.17, min_duty=95 / 255)
    bwd = make_curve("backward", slope=1.7, intercept=0.15, min_duty=95 / 255)
    events = [GaitEvent(t=0.05 + 1.1 * k, foot="LR"[k % 2], speed_kmh=(1.0, 2.5, 4.0)[k % 3])
              for k in range(6)]
    return fwd, bwd, render_events(knot_table, fwd, bwd, events)[1]


def test_run_heads_alone_take_the_digit_pass(knot_table, monkeypatch):
    """A VibStep column holds a few runs per block; only the first row
    of each run goes through the digit pass (with every column taking
    it), and at the default _DIGIT_ROWS those few rows go to repr."""
    heel, _ = to_vibstep(rendered_duty(knot_table)[2])
    assert len(heel) > BLOCK
    heads = heads_per_block(heel)
    assert max(heads) < textio._DIGIT_ROWS
    lengths = digit_lengths(monkeypatch)
    monkeypatch.setattr(textio, "_DIGIT_ROWS", 1)
    buf = io.StringIO()
    textio.write_blocks(buf, ("heel_duty",), [(heel,)])
    assert buf.getvalue() == reference_rows(("heel_duty",), heel)
    assert lengths == heads


def fallback_values(monkeypatch) -> list:
    """The values write_blocks sends to its repr fallback from now on."""
    sent, fallback = [], textio._fallback

    def counted(values):
        sent.extend(values.tolist())
        return fallback(values)

    monkeypatch.setattr(textio, "_fallback", counted)
    return sent


def test_all_decimal_block_is_written_from_digits(monkeypatch):
    """A block of short decimals is written from digits alone, and with
    one value below 1e-4 only that value goes to repr."""
    sent = fallback_values(monkeypatch)
    t = np.arange(textio.WRITE_ROWS) / 1000
    force = np.round(np.sin(t) * 3, 9)
    force[::7] = -0.0
    for expected in ([], [2.1476925e-05]):
        if expected:
            force[1234] = expected[0]
        buf = io.StringIO()
        assert textio.write_blocks(buf, ("t", "f"), [(t, force)]) == len(t)
        assert buf.getvalue() == reference_rows(("t", "f"), t, force)
        assert sent == expected


def test_plate_forces_take_the_digit_path(knot_table, monkeypatch):
    """The plant force column of a rendered log (16- and 17-digit values)
    is written from digits for every value with |v| >= 1e-4; only the
    lag's tail below that goes to repr."""
    fwd, bwd, duty = rendered_duty(knot_table)
    force = plate_forces(PlateModel(fwd, bwd), duty)
    assert len(force) > textio.WRITE_ROWS
    sent = fallback_values(monkeypatch)
    buf = io.StringIO()
    textio.write_blocks(buf, ("force",), [(force,)])
    assert buf.getvalue() == reference_rows(("force",), force)
    assert sent == force[(force != 0) & (np.abs(force) < 1e-4)].tolist()


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 1500), rate=st.floats(1.0, 20000.0),
       with_z=st.booleans())
def test_write_then_load_trace_is_bit_exact(data, n, rate, with_z):
    channels = ("thenar_y", "heel_y", "thenar_z", "heel_z")[:4 if with_z else 2]
    values = {c: data.draw(arrays(np.float64, n, elements=finite)) for c in channels}
    # a header speed is finite and >= 0
    speed = data.draw(st.floats(0.0, allow_infinity=False))
    tr = ForceTrace(sample_rate_hz=rate, speed_kmh=speed, participant="p01", **values)
    buf = io.StringIO()
    write_trace(tr, buf)
    back = load_trace(io.StringIO(buf.getvalue()))
    assert back.sample_rate_hz == tr.sample_rate_hz
    assert (back.speed_kmh, back.participant) == (tr.speed_kmh, tr.participant)
    assert back.channels().keys() == tr.channels().keys()
    for name, chan in tr.channels().items():
        assert np.array_equal(back.channels()[name].view(np.int64), chan.view(np.int64))
