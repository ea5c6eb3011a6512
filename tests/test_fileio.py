"""Atomic writers and CSV cell formatting."""

import json

import numpy as np
import pytest

from descentlab.fileio import (
    CSV_BLOCK_ROWS,
    atomic_write_columns,
    atomic_write_json,
    atomic_write_text,
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
