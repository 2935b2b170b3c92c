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
write_blocks formats each distinct value of a column once, and a column
of whole milliseconds, such as a tick clock, from its distinct seconds
and a table of thousandths (see _reprs).
"""

from __future__ import annotations

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
    equal-length column arrays, as one line per row of float ``repr``s
    (see _reprs), a whole block per write.  Returns the row count.
    """
    n = 0
    with opened(dest, "w") as fh:
        fh.write(",".join(names) + "\n")
        for columns in blocks:
            cols = [_reprs(np.asarray(c, dtype=float)) for c in columns]
            if cols[0]:
                fh.write("\n".join(map(",".join, zip(*cols))) + "\n")
                n += len(cols[0])
    return n


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
