"""Text file reading and writing shared by every artifact.

Every reader and writer takes either a path, which is opened here and
closed on exit, or an already open text stream, which is used as is and
left open; readers also accept ``bytes``.  Files are UTF-8 with ``\\n``
line ends.  JSON is written with sorted keys and CSV floats as their
``repr``, so re-running a stage reproduces its artifacts byte for byte.
"""

from __future__ import annotations

import io
import json
import os
from array import array
from contextlib import nullcontext
from itertools import chain

import numpy as np

from .errors import FormatError

#: rows per block when float_rows converts arrays
_BLOCK = 4096


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
    comments, header, values = [], [], array("d")
    append = values.append
    with opened(source, "r") as fh:
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


def read_columns(source, names, min_rows: int) -> list[np.ndarray]:
    """The columns ``names`` of a CSV (see read_csv), which must have at
    least ``min_rows`` rows, or FormatError."""
    _, header, data = read_csv(source)
    if not set(names) <= set(header):
        raise FormatError(f"{source}: expected columns {','.join(names)}")
    if len(data) < min_rows:
        raise FormatError(f"{source}: need at least {min_rows} rows")
    return [data[:, header.index(n)] for n in names]


def float_rows(*columns):
    """Rows of Python floats from equal-length numeric arrays, converted
    a block at a time so no full-size copy is held."""
    return chain.from_iterable(
        zip(*[np.asarray(c[i:i + _BLOCK], dtype=float).tolist() for c in columns])
        for i in range(0, len(columns[0]), _BLOCK))


def write_rows(dest, columns, rows) -> int:
    """Write the header ``columns``, then one line per row, each value
    as its ``repr``.  Rows are tuples of Python floats, such as command
    records or float_rows output, and are streamed, never joined in
    memory.  Returns the row count.
    """
    line = ",".join(["%r"] * len(columns)) + "\n"
    n = 0
    with opened(dest, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(line % row)
            n += 1
    return n
