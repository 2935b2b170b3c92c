"""Block-wise CSV reading and writing against per-line and per-row
reference loops, which are kept here as the specification."""

import io
from array import array

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
}


@pytest.mark.parametrize("text", CORPUS.values(), ids=CORPUS.keys())
def test_read_csv_equals_per_line_reference(text, tmp_path):
    assert_reads_like_reference(text, tmp_path)


@pytest.mark.parametrize("hint", [1, 40, 100])
@pytest.mark.parametrize("kind", ["bad-float", "short", "comment", "blank"])
def test_block_boundaries(kind, hint, tmp_path, monkeypatch):
    """A bad line, comment or blank line at every position of a file
    read in blocks of one to a few lines."""
    monkeypatch.setattr(textio, "_READ_HINT", hint)
    rows = [f"{i / 1000!r},{i * 0.1!r},{-i!r}" for i in range(12)]
    odd = {"bad-float": "0.5,bad,1", "short": "0.5,1",
           "comment": "# note", "blank": "  "}[kind]
    for at in range(len(rows) + 1):
        lines = ["# rate_hz=1000.0", "t,a,b", *rows[:at], odd, *rows[at:]]
        assert_reads_like_reference("\n".join(lines) + "\n", tmp_path)


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
@pytest.mark.parametrize("n", [0, 1, textio._WRITE_ROWS - 1, textio._WRITE_ROWS,
                               textio._WRITE_ROWS + 1])
def test_write_columns_equals_per_row_reference(n, to_path, tmp_path):
    rng = np.random.default_rng(n)
    a = np.resize(SPECIAL, n)
    b = rng.permutation(a)
    c = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    names = ("t", "x", "y")
    if to_path:
        path = tmp_path / "out.csv"
        assert textio.write_columns(path, names, a, b, c) == n
        text = path.read_bytes().decode()
    else:
        buf = io.StringIO()
        assert textio.write_columns(buf, names, a, b, c) == n
        text = buf.getvalue()
    assert text == reference_rows(names, a, b, c)


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
