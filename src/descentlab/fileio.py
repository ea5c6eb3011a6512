"""Atomic file output helpers.

Every artifact file is written to a temporary file in the target directory
and renamed into place, so an interrupted run never leaves a truncated
CSV or JSON file behind.  CSV tables are streamed: rows are formatted a
block at a time, column by column, and written block by block.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager

import numpy as np

CSV_BLOCK_ROWS = 1024  # rows formatted per block of a streamed CSV table


@contextmanager
def _atomic_handle(path):
    """A text handle on a temporary file, renamed onto ``path`` on success."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with _atomic_handle(path) as handle:
        handle.write(text)


def atomic_write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def atomic_write_columns(path, header, columns) -> None:
    """Write equal-length columns under ``header`` as a CSV table, atomically.

    A column is formatted by its ``np.asarray`` dtype: floats as their
    shortest round-trip ``repr``, booleans as 1 and 0, anything else
    (integers, strings) with ``str``.
    """
    with _atomic_handle(path) as handle:
        handle.writelines(_csv_blocks(header, columns))


def _csv_blocks(header, columns):
    """Yield the header line, then the rows a block at a time, as text."""
    columns = [np.asarray(column) for column in columns]
    if len(columns) != len(header) or len({len(column) for column in columns}) > 1:
        raise ValueError("a CSV table needs one column per header field, all of one length")
    yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        cells = [_cells(column[start:start + CSV_BLOCK_ROWS]) for column in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _cells(column):
    """The CSV cells of a 1-D array, as an iterator of strings."""
    if column.dtype.kind == "f":
        # tolist() gives Python floats, whose repr is plain and shortest
        return map(repr, column.tolist())
    if column.dtype.kind == "b":
        column = column.astype(np.int8)
    return map(str, column.tolist())
