"""Artifact formats and atomic file output.

Every artifact file is written to a temporary file in the target directory
and renamed into place, so an interrupted run never leaves a truncated
CSV or JSON file behind.  CSV tables are streamed: rows are formatted a
block at a time, column by column, and written block by block.  Every
JSON text, on stdout or in a file, is ``json_text`` of a ``plain`` value.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from enum import Enum

import numpy as np

CSV_BLOCK_ROWS = 1024  # rows formatted per block of a streamed CSV table


@contextmanager
def _atomic_handle(path):
    """A text handle on a temporary file, renamed onto ``path`` on success.

    The temporary name is ``.tmp-XXXXXXXX~``, padded with ``~`` to the
    byte length of ``path``'s name, so its path is never the shorter.
    """
    path = os.fspath(path)
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    pad = max(1, len(os.fsencode(name)) - 13)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~" * pad)
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


def plain(value):
    """``value`` in JSON's own types: a record as a dict of its fields in
    order, arrays and tuples as lists, numpy scalars as Python numbers, enums
    as their values, dicts and lists member by member; anything else as is.

    A record is an object whose class names its fields in ``__slots__``, as
    the library's report records do.
    """
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    names = getattr(type(value), "__slots__", None)
    if names is None:
        return value
    return {name: plain(getattr(value, name)) for name in names}


def json_text(payload) -> str:
    """The JSON text of ``payload``: indented by 2, ending in a newline."""
    return json.dumps(plain(payload), indent=2) + "\n"


def atomic_write_json(path, payload) -> None:
    atomic_write_text(path, json_text(payload))


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
