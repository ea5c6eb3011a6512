"""Atomic writers, CSV cell formatting and the JSON form of values."""

import json
from enum import Enum

import numpy as np
import pytest

from descentlab.fileio import (
    CSV_BLOCK_ROWS,
    atomic_write_columns,
    atomic_write_json,
    atomic_write_text,
    json_text,
    plain,
)


def test_atomic_text_replaces_existing_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first\n")
    atomic_write_text(path, "second\n")
    assert path.read_text() == "second\n"
    # no leftover temporaries
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_text_creates_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(path, "x")
    assert path.read_text() == "x"


def test_atomic_json_round_trips(tmp_path):
    payload = {"alpha": 0.09, "counts": [1, 2, 3], "label": "Diverged"}
    path = tmp_path / "report.json"
    atomic_write_json(path, payload)
    assert json.loads(path.read_text()) == payload
    assert path.read_text().endswith("\n")


def test_csv_cells_follow_the_column_dtype(tmp_path):
    path = tmp_path / "table.csv"
    atomic_write_columns(
        path, ["k", "x", "flag", "name"],
        [[0, 1], [0.1, np.float64(0.25)], [True, False], ["a", "b"]],
    )
    text = path.read_text()
    assert text == "k,x,flag,name\n0,0.1,1,a\n1,0.25,0,b\n"
    # numpy wrappers must not leak into cells
    assert "np.float64" not in text


def test_float_cells_round_trip_exactly(tmp_path):
    values = [0.1, 1.0 / 3.0, 1e-300, np.float64(np.pi)]
    path = tmp_path / "table.csv"
    atomic_write_columns(path, ["v"], [values])
    parsed = [float(line) for line in path.read_text().strip().splitlines()[1:]]
    assert parsed == [float(v) for v in values]


def test_atomic_columns_write_file(tmp_path):
    path = tmp_path / "table.csv"
    atomic_write_columns(path, ["a", "b"], [[1, 3], [2, 4]])
    assert path.read_text() == "a,b\n1,2\n3,4\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_columns_stream_across_blocks_like_rows(tmp_path):
    n = 2 * CSV_BLOCK_ROWS + 3
    rng = np.random.default_rng(0)
    ks, xs, flags = np.arange(n), rng.normal(size=n), rng.random(n) < 0.5
    labels = [str(k % 7) if k % 3 else "Diverged" for k in range(n)]
    path = tmp_path / "table.csv"
    atomic_write_columns(path, ["k", "x", "flag", "label"], [ks, xs, flags, labels])
    expected = "".join(
        f"{k},{float(x)!r},{int(f)},{lab}\n" for k, x, f, lab in zip(ks, xs, flags, labels)
    )
    assert path.read_text() == "k,x,flag,label\n" + expected


def test_mismatched_columns_raise_and_leave_no_file(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError):
        atomic_write_columns(path, ["a", "b"], [np.arange(3), np.arange(4)])
    assert list(tmp_path.iterdir()) == []


class _Color(Enum):
    RED = "red"
    BLUE = 2


class _Inner:
    __slots__ = ("point", "color")

    def __init__(self, point: np.ndarray, color: _Color):
        self.point = point
        self.color = color


class _Outer:
    __slots__ = ("name", "inner", "window", "extra")

    def __init__(self, name: str, inner: _Inner, window: tuple, extra: float | None = None):
        self.name = name
        self.inner = inner
        self.window = window
        self.extra = extra


@pytest.mark.parametrize(
    "value, expected",
    [
        (np.int64(7), 7),
        (np.int8(-3), -3),
        (np.uint32(5), 5),
        (np.bool_(True), True),
        (np.bool_(False), False),
        (np.float64(0.1), 0.1),
        (np.float32(0.5), 0.5),
        (np.array(2.5), 2.5),
        (np.array(3), 3),
        (np.arange(4).reshape(2, 2), [[0, 1], [2, 3]]),
        (np.array([[[1.5]], [[-0.0]]]), [[[1.5]], [[-0.0]]]),
        (np.array([True, False]), [True, False]),
        ((1, np.int64(2), (3.0,)), [1, 2, [3.0]]),
        (_Color.RED, "red"),
        (_Color.BLUE, 2),
        (None, None),
        (float("inf"), float("inf")),
        (np.float64(-np.inf), -float("inf")),
        ("text", "text"),
        ({"a": [np.int64(1), (np.float64(2.0),)], 3: None}, {"a": [1, [2.0]], 3: None}),
    ],
)
def test_plain_gives_json_types(value, expected):
    result = plain(value)
    assert result == expected
    assert json.dumps(result) == json.dumps(expected)
    assert type(result) is type(expected)


def test_plain_turns_a_slotted_record_into_its_fields_in_order():
    value = _Outer("o", _Inner(np.array([1.0, 2.0]), _Color.BLUE), (np.int64(0), 4))
    result = plain(value)
    assert list(result) == ["name", "inner", "window", "extra"]
    assert result == {
        "name": "o",
        "inner": {"point": [1.0, 2.0], "color": 2},
        "window": [0, 4],
        "extra": None,
    }
    # a record type is not an instance, and is returned as it is
    assert plain(_Outer) is _Outer


def test_json_text_is_what_atomic_write_json_writes(tmp_path):
    payload = {"x": np.array([0.1, np.float64(1e-300)]), "n": np.int64(3), "inf": np.inf}
    text = json_text(payload)
    assert text == json.dumps({"x": [0.1, 1e-300], "n": 3, "inf": float("inf")}, indent=2) + "\n"
    path = tmp_path / "payload.json"
    atomic_write_json(path, payload)
    assert path.read_text() == text
