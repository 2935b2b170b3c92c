"""Text file reading and writing shared by every artifact.

Every reader and writer takes either a path, which is opened here and
closed on exit, or an already open text stream, which is used as is and
left open; readers also accept ``bytes``.  Files are UTF-8 with ``\\n``
line ends.  JSON is written with sorted keys and CSV floats as their
``repr``, so re-running a stage reproduces its artifacts byte for byte.

CSV bodies go a block at a time, never a whole file at once: read_csv
converts about _READ_HINT characters of lines and write_columns formats
_WRITE_ROWS rows of arrays, in one call each.  write_rows is the one
per-row writer, for render's command stream, written as it is produced.
"""

from __future__ import annotations

import io
import json
import os
from array import array
from contextlib import nullcontext
from itertools import repeat

import numpy as np

from .errors import FormatError

#: characters of lines read_csv reads and converts per block
_READ_HINT = 1 << 16
#: rows write_columns formats per block
_WRITE_ROWS = 4096


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
    with opened(source, "r") as fh:
        return json.load(fh)


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
    """
    comments, header, blocks = [], [], []
    with opened(source, "r") as fh:
        where = f"{fh.name}: line" if hasattr(fh, "name") else "line"
        lineno = 0
        # one line at a time up to the header, then blocks of lines
        while lines := fh.readlines(_READ_HINT if header else 1):
            lines = list(map(str.strip, lines))
            first, lineno = lineno + 1, lineno + len(lines)
            # a block of plain rows is converted in one call, by Python's
            # float parser, so bit-exact with float(); any blank, # or bad
            # line fails it and sends the block through the per-line loop
            if header and (list(map(str.count, lines, repeat(",")))
                           .count(len(header) - 1) == len(lines)):
                try:
                    blocks.append(np.array(",".join(lines).split(","), dtype=float))
                    continue
                except ValueError:
                    pass
            values = array("d")
            blocks.append(values)
            for n, line in enumerate(lines, first):
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
    """Write the header ``names``, then one line per row of the
    equal-length ``columns``, each value as the ``repr`` of a float,
    formatting _WRITE_ROWS rows per ``%`` call.  Returns the row count.
    """
    line = ",".join(["%r"] * len(names)) + "\n"
    n = len(columns[0])
    with opened(dest, "w") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(0, n, _WRITE_ROWS):
            block = np.column_stack([np.asarray(c[i:i + _WRITE_ROWS], dtype=float)
                                     for c in columns])
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))
    return n


def write_rows(dest, columns, rows) -> int:
    """Write the header ``columns``, then one line per row, each value
    as its ``repr``.  Rows are tuples of Python floats, such as command
    records, and are streamed, never joined in memory.  Returns the row
    count.
    """
    line = ",".join(["%r"] * len(columns)) + "\n"
    n = 0
    with opened(dest, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(line % row)
            n += 1
    return n
