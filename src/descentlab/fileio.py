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
from contextlib import contextmanager, suppress
from enum import Enum

import numpy as np

CSV_BLOCK_ROWS = 1024  # rows formatted per block of a streamed CSV table


@contextmanager
def _atomic_handle(path):
    """A text handle on a temporary file, renamed onto ``path`` on success.

    The temporary name is ``.tmp-XXXXXXXX~``, eight random hex digits
    padded with ``~`` to the byte length of ``path``'s name, so its path is
    never the shorter.  It is created new with mode 0o666 less the umask,
    as ``open`` creates a file, and the rename keeps that mode.
    """
    path = os.fspath(path)
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    pad = max(1, len(os.fsencode(name)) - 13)
    while True:  # until a name is not taken
        tmp = os.path.join(directory, f".tmp-{os.urandom(4).hex()}" + "~" * pad)
        with suppress(FileExistsError):
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
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


class Record:
    """A report record: its fields are its class's ``__slots__``, in order.

    The constructor binds positional arguments, then keywords, to the
    fields; a field not given takes its entry in the class's
    ``_defaults``.  A missing field with no default, too many positional
    arguments, an unknown keyword and a field given twice are each a
    ``TypeError``.  Fields are set with ``object.__setattr__``, so a
    subclass may refuse later assignment.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, "
                            f"got {len(args)} positional arguments")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            values[name] = value
        for name in names:
            if name in values:
                object.__setattr__(self, name, values[name])
            elif name in cls._defaults:
                object.__setattr__(self, name, cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")

    def to_dict(self) -> dict:
        return plain(self)


def plain(value):
    """``value`` in JSON's own types: a record as a dict of its fields in
    order, arrays and tuples as lists, numpy scalars as Python numbers, enums
    as their values, dicts and lists member by member; anything else as is.

    A record is an object whose class names its fields in ``__slots__``, as
    every ``Record`` does.
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

    A column is formatted a block of rows at a time, by the ``np.asarray``
    dtype of the block: floats as their shortest round-trip ``repr``,
    booleans as 1 and 0, anything else (integers, strings) with ``str``.
    So a list column is never copied whole into an array.
    """
    with _atomic_handle(path) as handle:
        handle.writelines(_csv_blocks(header, columns))


def _csv_blocks(header, columns):
    """Yield the header line, then the rows a block at a time, as text."""
    if len(columns) != len(header) or len({len(column) for column in columns}) > 1:
        raise ValueError("a CSV table needs one column per header field, all of one length")
    yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        cells = [_cells(np.asarray(column[start:start + CSV_BLOCK_ROWS])) for column in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _cells(column):
    """The CSV cells of a 1-D array, as an iterator of strings."""
    if column.dtype.kind == "f":
        # tolist() gives Python floats, whose repr is plain and shortest
        return map(repr, column.tolist())
    if column.dtype.kind == "b":
        column = column.astype(np.int8)
    return map(str, column.tolist())
