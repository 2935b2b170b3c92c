"""Text file reading and writing shared by every artifact.

Every reader and writer takes either a path, which is opened here and
closed on exit, or an already open text stream, which is used as is and
left open; readers also accept ``bytes``.  Files are UTF-8 with ``\\n``
line ends.  JSON is written with sorted keys and CSV floats as their
``repr``, so re-running a stage reproduces its artifacts byte for byte.

CSV bodies go a block at a time, never a whole file at once: read_csv
converts about _READ_HINT characters of lines with one call to numpy's
C text reader (a per-line loop takes the header and the blocks that
reader refuses), and write_blocks writes each block of column arrays
(write_columns cuts its columns into WRITE_ROWS rows) in one call.
write_blocks has two writers, which write the same text.  A block whose
every value is a short decimal (+-0.0, or 1e-4 <= |v| < 1e15 and at
most 15 significant digits, such as a trace recorded to a few decimals)
is written from integer digits as one byte array (see _decimal_rows).
Any other block is written row by row from its columns' _reprs, which
format each distinct value of a column once, and a column of whole
milliseconds, such as a tick clock, from its distinct seconds and a
table of thousandths.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
from array import array
from contextlib import nullcontext

import numpy as np

from .errors import FormatError

#: characters of lines read_csv reads and converts per block
_READ_HINT = 1 << 16
#: rows per CSV write block, for write_columns and the offline render
WRITE_ROWS = 4096


def opened(target, mode: str):
    """Context manager yielding a text stream for ``target``.

    Only a stream opened here is closed on exit.
    """
    if isinstance(target, (str, os.PathLike)):
        return open(target, mode, encoding="utf-8", newline="")
    if isinstance(target, bytes):
        return io.StringIO(target.decode("utf-8"))
    return nullcontext(target)


def read_json(source):
    """The JSON value of ``source``; FormatError names the file unless
    it holds exactly one JSON value."""
    with opened(source, "r") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{getattr(fh, 'name', 'JSON')}: {exc}") from None


def write_json(dest, data) -> None:
    with opened(dest, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv(source) -> tuple[list[tuple[int, str]], list[str], np.ndarray]:
    """Comment lines, header fields and float rows of a CSV.

    Blank lines are skipped and lines starting with ``#`` are returned
    as (line number, text).  The first other line is the header; every
    later line must hold one number per header field, or FormatError
    names its line.  Rows come back as one 2-D array.

    A block of body lines is converted by numpy's C reader, which parses
    a field with float()'s own PyOS_string_to_double.  The per-line loop
    takes the header and each block that reader refuses or does not read
    as one row per line (a blank, ``#`` or bad line, ``1_0``, non-ASCII
    digits), one of blank lines only, and one holding \\x1c-\\x1f, which
    numpy strips from a field as whitespace and float() does not.
    """
    comments, header, blocks = [], [], []
    with opened(source, "r") as fh:
        where = f"{fh.name}: line" if hasattr(fh, "name") else "line"
        lineno = 0
        # one line at a time up to the header, then blocks of lines
        while lines := fh.readlines(_READ_HINT if header else 1):
            first, lineno = lineno + 1, lineno + len(lines)
            text = "".join(lines)
            if (header and not text.isspace()
                    and not any(map(text.__contains__, "\x1c\x1d\x1e\x1f"))):
                try:
                    rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
                    if rows.shape == (len(lines), len(header)):
                        blocks.append(rows.ravel())
                        continue
                except ValueError:
                    pass
            values = array("d")
            blocks.append(values)
            for n, line in enumerate(map(str.strip, lines), first):
                if not line:
                    continue
                if line[0] == "#":
                    comments.append((n, line))
                elif not header:
                    header = [h.strip() for h in line.split(",")]
                else:
                    parts = line.split(",")
                    if len(parts) != len(header):
                        raise FormatError(f"{where} {n}: expected "
                                          f"{len(header)} fields, got {len(parts)}")
                    try:
                        values.extend(map(float, parts))
                    except ValueError as exc:
                        raise FormatError(f"{where} {n}: {exc}") from None
    values = np.concatenate(blocks) if blocks else np.empty(0)
    return comments, header, values.reshape(-1, max(len(header), 1))


def read_columns(source, names, min_rows: int) -> list[np.ndarray]:
    """The columns ``names`` of a CSV (see read_csv), which must have at
    least ``min_rows`` rows, or FormatError."""
    _, header, data = read_csv(source)
    if not set(names) <= set(header):
        raise FormatError(f"{source}: expected columns {','.join(names)}")
    if len(data) < min_rows:
        raise FormatError(f"{source}: need at least {min_rows} rows")
    return [data[:, header.index(n)] for n in names]


def write_columns(dest, names, *columns) -> int:
    """write_blocks of the equal-length ``columns``, WRITE_ROWS rows each."""
    n = len(columns[0])
    return write_blocks(dest, names, ([c[i:i + WRITE_ROWS] for c in columns]
                                      for i in range(0, n, WRITE_ROWS)))


def write_blocks(dest, names, blocks) -> int:
    """Write the header ``names``, then each block, a sequence of
    equal-length column arrays, as one line per row of float ``repr``s,
    a whole block per write.  Returns the row count.

    A block whose every value is a short decimal is written from its
    integer digits (see _decimal_rows); any other block from its
    columns' _reprs, joined row by row.
    """
    n = 0
    with opened(dest, "w") as fh:
        fh.write(",".join(names) + "\n")
        for columns in blocks:
            cols = [np.asarray(c, dtype=float) for c in columns]
            if not len(cols[0]):
                continue
            text = _decimal_rows(cols)
            if text is None:
                strs = [_reprs(c) for c in cols]
                text = "\n".join(map(",".join, zip(*strs))) + "\n"
            fh.write(text)
            n += len(cols[0])
    return n


@functools.cache
def _binade_scales() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """By binary exponent (inf and NaN last): the first of 5e-324 and
    10**e for e in -4..15 above the binade's lowest value, and the
    10.0**q of a short decimal below and above it (NaN where none is
    one).  No binade holds two of them.  Built on first use, as the group
    words are, so that importing costs nothing; read-only, as shared."""
    edges = np.array(["5e-324", *(f"1e{e}" for e in range(-4, 16))], dtype=float)
    scales = np.array([1.0, np.nan, *(float(10 ** q) for q in range(18, -1, -1)),
                       np.nan, np.nan])
    count = np.searchsorted(edges, np.append(np.ldexp(1.0, np.arange(-1023, 1024)), np.inf),
                            "right")
    count[0] = 0  # zero and the subnormals
    tables = np.append(edges, np.nan)[count], scales[count], scales[count + 1]
    for t in tables:
        t.flags.writeable = False
    return tables


@functools.cache
def _group_words(strip_left: bool) -> np.ndarray:
    """The 4-digit ASCII groups 0000-9999 as native uint32 words, thrice:
    as they are (offset 0), with the zeros before the first non-zero
    digit (after the last one, unless ``strip_left``) as 0 bytes (offset
    10,000), and the same but keeping one digit of 0000 (offset 20,000).
    Read-only, as shared."""
    g = np.arange(10_000)
    words = np.empty((3, 10_000, 4), np.uint8)
    for j in range(4):
        upto = g // 10 ** (3 - j)      # the digits up to the j-th
        before = upto // 10
        digit = (upto - before * 10 + ord("0")).astype(np.uint8)
        # shown after a non-zero digit (strip_left) or before one
        shown = upto != 0 if strip_left else g != before * 10 ** (4 - j)
        words[0, :, j] = digit
        words[1, :, j] = digit * shown
        words[2, :, j] = digit * (shown | (j == (3 if strip_left else 0)))
    words.flags.writeable = False
    return words.view(np.uint32).ravel()


def _decimal_scale(a: np.ndarray):
    """(k, 10.0**q) with a == k / 10**q bit for bit, for the magnitudes
    ``a`` if each is a short decimal (see _decimal_rows), else None."""
    next_edge, below, above = _binade_scales()
    e = a.view(np.int64) >> 52
    scale = np.where(a >= next_edge[e], above[e], below[e])
    k = np.rint(a * scale)
    return (k, scale) if (k / scale == a).all() else None


def _decimal_fields(col, a, k, scale) -> list:
    """The sign byte, integer words, point and fraction words of a column
    of short decimals (see _decimal_rows), 0 bytes where a value has no
    digit."""
    int_words, frac_words = _group_words(True), _group_words(False)
    ip = np.floor(a)
    most = scale.max()
    # k % 10**q (as ip == k // 10**q), shifted to the column's most digits
    y = (k - ip * scale).astype(np.int64) * (most / scale).astype(np.int64)
    ip = ip.astype(np.int64)
    fields = [np.signbit(col).view(np.uint8) * np.uint8(ord("-"))]
    # integer groups from the left, leading zeros dropped while the digits
    # up to the group are < 10**4, the last group keeping one
    top = a.max()
    n_int = 1 + int(top >= 1e4) + int(top >= 1e8) + int(top >= 1e12)
    for i in range(n_int - 1, -1, -1):      # i groups follow this one
        upto = ip // 10 ** (4 * i) if i else ip
        off = 10_000 if i else 20_000
        if i == n_int - 1:
            fields.append(int_words[upto + off])
        else:
            fields.append(int_words[upto % 10_000 + off * (upto < 10_000)])
    fields.append(np.uint8(ord(".")))
    # fraction groups from the left, trailing zeros dropped where the rest
    # is 0, the first group keeping one, until the rest is 0 in every row
    rest, off = round(math.log10(most)), 20_000
    while rest > 4:
        rest -= 4
        g = y // 10 ** rest
        y -= g * 10 ** rest
        zero = y == 0
        fields.append(frac_words[g + off * zero])
        if zero.all():
            return fields
        off = 10_000
    fields.append(frac_words[y * 10 ** (4 - rest) + off])
    return fields


def _decimal_rows(cols) -> str | None:
    """The CSV lines of a block of equal-length columns if every value
    is a short decimal, else None.

    A value v is a short decimal when it is +-0.0, or when
    1e-4 <= |v| < 1e15 and |v| == k / 10**q bit for bit, for whole
    k < 10**15 and 0 <= q <= 18 (k and 10**q are exact doubles, so the
    division is correctly rounded).  Its text here is the digits of k
    with a point before the last q, less the leading and trailing zeros
    but one on each side of the point.  That is ``repr(v)``: the decimal
    k * 10**-q has at most 15 significant digits and rounds to v; no two
    distinct decimals of at most 15 digits round to the same double
    (DBL_DIG), so it is the shortest decimal that rounds to v, which
    ``repr`` prints; and ``repr`` is fixed-point for 1e-4 <= |v| < 1e16.
    q is 14 - e for 10**e <= |v| < 10**(e + 1); e comes from v's binary
    exponent and one comparison, as no binade holds two powers of 10.

    Each row becomes one line of fixed-width cells (sign, integer digits,
    point, fraction digits, separator) in one uint8 array, bytes a value
    does not use being 0, which are dropped at the end.  Digits come 4 at
    a time from integer division by 10**4 and a table of 4-digit groups.
    A strided sample of every column is checked first, so that most
    blocks holding other values are refused at the cost of one check of
    a few dozen values.
    """
    n = len(cols[0])
    if _decimal_scale(np.abs(np.concatenate([c[::max(1, n // 16)] for c in cols]))) is None:
        return None
    checked = []
    for col in cols:
        a = np.abs(col)
        ks = _decimal_scale(a)
        if ks is None:
            return None
        checked.append((col, a, *ks))
    fields = []
    while checked:  # a column's arrays go once its fields are made
        fields += [*_decimal_fields(*checked.pop(0)), np.uint8(ord(","))]
    fields[-1] = np.uint8(ord("\n"))
    width = sum(f.itemsize for f in fields)
    text = bytearray(n * width)
    out = np.frombuffer(text, np.uint8).reshape(n, width)
    pos = 0
    for f in fields:
        if f.itemsize == 1:
            out[:, pos] = f
        else:
            np.ndarray((n,), np.uint32, out, pos, (width,))[:] = f
        pos += f.itemsize
    return text.translate(None, b"\0").decode("ascii")


_MS = np.array([".0", *(f".{m:03d}".rstrip("0") for m in range(1, 1000))], dtype=object)


def _reprs(col: np.ndarray) -> list[str]:
    """``repr`` of each float of ``col``, one ``repr`` per distinct bit
    pattern (so -0.0 stays apart from 0.0 and NaN needs no comparison).

    If every v has no sign bit, v < 1e12 and v = k / 1000 bit for bit
    with k whole, the distinct seconds k // 1000 are joined to a table of
    thousandths (_MS) instead.  That is ``repr(v)``: the decimal
    k / 1000 rounds to v and has at most 15 (DBL_DIG) significant
    digits, so no other decimal that short rounds to v; and v = 0 or
    0.001 <= v < 1e12, where ``repr`` is fixed-point.
    """
    # col < 1e12 first, so that col * 1000 cannot overflow
    if (not np.signbit(col).any() and (col < 1e12).all() and np.array_equal(
            ((k := np.rint(col * 1000)) / 1000).view(np.int64), col.view(np.int64))):
        sec, ms = np.divmod(k.astype(np.int64), 1000)
        keys, inv = np.unique(sec, return_inverse=True)
        strs = np.array(list(map(str, keys.tolist())), dtype=object)
        return (strs[inv] + _MS[ms]).tolist()
    keys, inv = np.unique(col.view(np.int64), return_inverse=True)
    strs = np.array(list(map(repr, keys.view(float).tolist())), dtype=object)
    return strs[inv].tolist()
