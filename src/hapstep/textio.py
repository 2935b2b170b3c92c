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
write_blocks has one writer: a block becomes one byte array of
fixed-width cells.  A value v with v == 0 or 1e-4 <= |v| < 1e15, where
``repr`` is fixed-point, is written from the integer digits of the
decimal ``repr`` prints, which _shortest finds for the whole column at
once: of at most 15 digits by one division, of 16 or 17 from an exact
product of v and a power of 10.  That decimal is ``repr``'s because
v's rounding interval is symmetric (in range every power of 2, whose
interval is not, has at most 15 digits) and ``repr`` prints the
shortest decimal in it, and of those the nearest v.  Any other value
(NaN, +-inf, |v| < 1e-4 or >= 1e15, where ``repr`` may switch to an
exponent), a value whose candidates tie or lie within _TIE of the
interval's edge, and every value of a column of fewer than _DIGIT_ROWS
rows are written from their own ``repr`` into their cells.
"""

from __future__ import annotations

import functools
import io
import json
import os
from array import array
from contextlib import nullcontext

import numpy as np

from .errors import FormatError

#: characters of lines read_csv reads and converts per block
_READ_HINT = 1 << 16
#: rows per CSV write block, for write_columns and the offline render
WRITE_ROWS = 4096
#: a column of fewer rows is written from ``repr`` alone, which costs
#: less there than the fixed cost of the digit pass
_DIGIT_ROWS = 128
#: Veltkamp's splitter 2**27 + 1: x * _SPLIT - (x * _SPLIT - x) is the
#: upper half of x's bits, and the product of two such halves is exact
_SPLIT = 134217729.0
#: how near (in units of the 17th digit) a tie or the rounding bound may
#: lie before _shortest leaves a value to ``repr``
_TIE = 2.0 ** -20


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


def full_blocks(blocks):
    """The column blocks ``blocks`` joined and cut anew into blocks of
    WRITE_ROWS rows, the last one fewer.  A block is yielded only once
    later blocks fill it, so this suits only a source that never waits
    for input."""
    pending, n = [], 0
    for columns in blocks:
        pending.append(columns)
        n += len(columns[0])
        while n >= WRITE_ROWS:
            joined = [np.concatenate(c) for c in zip(*pending)]
            yield [c[:WRITE_ROWS] for c in joined]
            pending, n = [[c[WRITE_ROWS:] for c in joined]], n - WRITE_ROWS
    if n:
        yield [np.concatenate(c) for c in zip(*pending)]


def write_blocks(dest, names, blocks) -> int:
    """Write the header ``names``, then each block, a sequence of
    equal-length column arrays, as one line per row of float ``repr``s,
    a whole block per write.  Returns the row count.

    A block becomes one uint8 array of fixed-width cells, one per value
    (see _rows).  A value v is written from the digits _shortest finds
    for it when it is +-0.0 or 1e-4 <= |v| < 1e15, where ``repr`` is
    fixed-point.  Any other value (NaN, +-inf, |v| < 1e-4 or >= 1e15),
    the few _shortest leaves open, and every value of a column of fewer
    than _DIGIT_ROWS rows are written from their own ``repr`` into their
    cells (see _fallback).
    """
    n = 0
    with opened(dest, "w") as fh:
        fh.write(",".join(names) + "\n")
        for columns in blocks:
            cols = [np.asarray(c, dtype=float) for c in columns]
            if len(cols[0]):
                fh.write(_rows(cols))
                n += len(cols[0])
    return n


def _rows(cols) -> str:
    """The CSV lines of a non-empty block of equal-length float columns.

    Each row becomes one line of fixed-width cells in one uint8 array:
    per value its sign byte, integer digits, point and fraction digits
    (see _digit_fields) or its ``repr``, then a ``,`` or ``\\n``.  Bytes a
    value does not use are 0, and are dropped at the end.
    """
    n = len(cols[0])
    cells = [_cells(c) for c in cols]
    width = sum(w for _, w, _, _ in cells) + len(cells)
    text = bytearray(n * width)
    out = np.frombuffer(text, np.uint8).reshape(n, width)
    pos = 0
    for fields, w, other, reprs in cells:
        start = pos
        for f in fields:
            if f.itemsize == 1:
                out[:, pos] = f
            else:
                np.ndarray((n,), np.uint32, out, pos, (width,))[:] = f
            pos += f.itemsize
        pos = start + w
        if len(other):
            out[other, start:pos] = reprs
        out[:, pos] = ord(",")
        pos += 1
    out[:, -1] = ord("\n")
    return text.translate(None, b"\0").decode("ascii")


def _cells(col: np.ndarray):
    """The cells of a column (see _rows): the fields of its digits, the
    cell width, and the rows written from ``repr`` with their bytes,
    0-padded to that width."""
    a = np.abs(col)
    digits = ((a == 0) | ((a >= 1e-4) & (a < 1e15))) & (len(col) >= _DIGIT_ROWS)
    fields = []
    if digits.any():
        d, ei, open_ = _shortest(np.where(digits, a, 0.0))
        digits &= ~open_
        fields = _digit_fields(col, d, ei)
    other = np.flatnonzero(~digits)
    reprs = _fallback(col[other])
    width = max([sum(f.itemsize for f in fields), *map(len, reprs)])
    return fields, width, other, np.array(reprs, f"S{width}").view(np.uint8).reshape(-1, width)


def _fallback(values: np.ndarray) -> list[str]:
    """``repr`` of each of ``values``, for the cells not written from
    digits."""
    return list(map(repr, values.tolist()))


@functools.cache
def _scales() -> tuple[np.ndarray, ...]:
    """The tables of _shortest and _digit_fields, built on first use, as
    the group words are, so that importing costs nothing; read-only, as
    shared.

    By binary exponent, for the binades of 0 and of 1e-4 <= v < 1e15:
    the one power of 10 in the binade (no binade holds two), and e + 4
    for the v below it, 10**e <= v < 10**(e + 1) (for 0, e is 14).  By
    e + 4, for e in -4..14: 10.0**(14 - e), 10.0**(16 - e) and the upper
    and lower halves of its bits, all exact doubles; and for the
    f = 16 - e fraction digits of a 17-digit decimal, the int64 divisor
    giving its integer part (10**f, or 10**17 when e < 0, for 0), the
    divisor giving its first 12 fraction digits (10**(f - 12), or 1) and
    the factors that shift those 12 and the last 8 in place among 20
    (10**(12 - f), or 1, and 10**(20 - f), or 0 when f <= 12).
    """
    edges = np.array([f"1e{e}" for e in range(-4, 16)], dtype=float)
    count = np.searchsorted(edges, np.ldexp(1.0, np.arange(-1023, 1024)), "right")
    count[0] = 19  # zero and the subnormals
    e = np.arange(-4, 15)
    s17 = np.array([float(10 ** q) for q in (16 - e).tolist()])
    s17_hi = s17 * _SPLIT - (s17 * _SPLIT - s17)
    ints = np.array([[10 ** min(f, 17), 10 ** max(f - 12, 0), 10 ** max(12 - f, 0),
                      10 ** (20 - f) if f > 12 else 0] for f in (16 - e).tolist()],
                    dtype=np.int64)
    tables = (np.append(edges, np.inf)[count], count - 1, s17 / 100, s17, s17_hi,
              s17 - s17_hi, *ints.T.copy())
    for t in tables:
        t.flags.writeable = False
    return tables


def _shortest(a: np.ndarray):
    """(d, e + 4, open) for the magnitudes ``a``, each 0 or
    1e-4 <= a < 1e15: ``repr``'s decimal of each a is d * 10**(e - 16),
    for whole d < 10**17 and 10**e <= a < 10**(e + 1), except where
    ``open`` marks the a whose decimal is left to ``repr``.

    ``repr`` prints the decimal of fewest significant digits that rounds
    to a, and of those the one nearest a.  A decimal rounds to a when it
    lies in a's rounding interval, a +- half an ulp of a, which is
    symmetric unless a is a power of 2 (whose ulp below is half the one
    above).  So for a not a power of 2, some decimal of n digits rounds
    to a exactly when the n-digit decimal nearest a does, and if no
    shorter one rounds to a, that one is ``repr``'s:

    - at most 15 digits: k = rint(a * 10**(14 - e)) is the nearest, and
      k / 10**(14 - e) == a tests it (k and the power are exact doubles,
      so the division is correctly rounded).  No two decimals of at most
      15 digits round to one double (DBL_DIG), so this holds for a power
      of 2 too, and every power of 2 in range, 2**-13 to 2**49, is such
      a decimal;
    - 16 and 17 digits, so a is not a power of 2: x = a * 10**(16 - e)
      is computed exactly, as hi + lo (Dekker's product of a and the
      power, each split in halves).  d17 is the integer nearest x.  The
      16-digit decimal, the multiple of 10 nearest x, is taken when its
      distance to x is below half an ulp of a times 10**(16 - e), an
      exact double; otherwise d17 is, which always rounds to a, as it is
      within 1/2 of x and that bound is above 10**16 * 2**-54 > 0.55.

    Left open: an x within _TIE of that bound or of a tie between two
    nearest candidates.
    """
    next_edge, e_below, s15, s17, s17_hi, s17_lo = _scales()[:6]
    b = a.view(np.int64) >> 52
    ei = e_below[b] + (a >= next_edge[b])
    s = s15[ei]
    k = np.rint(a * s)
    short = k / s == a
    if short.all():
        return k.astype(np.int64) * 100, ei, ~short
    s, s_hi, s_lo = s17[ei], s17_hi[ei], s17_lo[ei]
    hi = a * s
    a_hi = a * _SPLIT - (a * _SPLIT - a)
    a_lo = a - a_hi
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    r = np.rint(lo)
    d17 = hi.astype(np.int64) + r.astype(np.int64)  # hi >= 10**16 is whole
    t = lo - r                                       # x - d17
    d16, u = np.divmod(d17, 10)
    u = u + t                                        # x - 10 * d16
    up = u > 5
    dist = np.abs(u - 10 * up)
    bound = np.spacing(a) * s / 2
    take16 = dist < bound
    open_ = ~short & ((np.abs(dist - bound) <= _TIE)
                      | (np.where(take16, np.abs(u - 5), np.abs(np.abs(t) - 0.5)) <= _TIE))
    d = np.where(short, k.astype(np.int64) * 100, np.where(take16, (d16 + up) * 10, d17))
    return d, ei, open_


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


def _digit_fields(col, d, ei) -> list:
    """The sign byte, integer words, point and fraction words of the
    decimals d * 10**(e - 16) of a column (see _shortest), as ``repr``
    writes them: with at least one digit on each side of the point and
    leading integer and trailing fraction zeros as 0 bytes.  Digits come
    4 at a time from integer division by 10**4 and a table of 4-digit
    groups; the fraction as its first 12 and last 8 digits of 20."""
    ip_div, frac_div, hi_shift, lo_shift = _scales()[6:]
    ip, frac = np.divmod(d, ip_div[ei])
    hi, lo = np.divmod(frac, frac_div[ei])
    hi *= hi_shift[ei]
    lo *= lo_shift[ei]
    int_words, frac_words = _group_words(True), _group_words(False)
    fields = [np.signbit(col).view(np.uint8) * np.uint8(ord("-"))]
    # integer groups from the left, leading zeros dropped while the digits
    # up to the group are < 10**4, the last group keeping one
    top = ip.max()
    n_int = 1 + int(top >= 10 ** 4) + int(top >= 10 ** 8) + int(top >= 10 ** 12)
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
    off = 20_000
    for g, zero in _fraction_groups(hi, lo):
        fields.append(frac_words[g + off * zero])
        if np.all(zero):
            break
        off = 10_000
    return fields


def _fraction_groups(hi, lo):
    """The 4-digit groups of the 20 fraction digits whose first 12 are
    ``hi`` and last 8 ``lo``, from the left, each with whether the
    digits after it are all 0."""
    lo_zero = lo == 0
    g, rest = np.divmod(hi, 10 ** 8)
    yield g, (rest == 0) & lo_zero
    g, rest = np.divmod(rest, 10 ** 4)
    yield g, (rest == 0) & lo_zero
    yield rest, lo_zero
    g, rest = np.divmod(lo, 10 ** 4)
    yield g, rest == 0
    yield rest, True
