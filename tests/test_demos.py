"""The narrative demos, each run as a script in a scratch directory."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(tmp_path, script):
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
