"""Golden pins: byte-for-byte CLI outputs on the Nesterov example.

Each case reruns one ``descentlab`` command with ``--out`` and compares
every file it writes, plus its stdout, with the copy stored under
``tests/golden/<case>/``.  The goldens change only when an output format
or a seed's trial starts change on purpose; regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and record the reason in CHANGES.md.
"""

import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "run": ["run", "--objective", "nesterov", "--x0", "0.5,0.3"],
    "montecarlo": ["montecarlo", "--objective", "nesterov", "--trials", "2000", "--seed", "0"],
    "classify": ["classify", "--objective", "nesterov"],
    "stable-set": ["stable-set", "--objective", "nesterov"],
    "invert": ["invert", "--objective", "nesterov", "--alpha", "0.05", "--y", "0.95,1.7"],
    "rates": ["rates", "--objective", "nesterov", "--x0", "0.5,0.3"],
}


def _run_case(name, out) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "descentlab", *CASES[name], "--out", str(out)],
        capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    stdout = _run_case(name, tmp_path)
    expected = GOLDEN / name
    assert stdout == (expected / "stdout.txt").read_bytes()
    written = sorted(p.name for p in tmp_path.iterdir())
    pinned = sorted(p.name for p in expected.iterdir() if p.name != "stdout.txt")
    assert written == pinned
    for filename in pinned:
        assert (tmp_path / filename).read_bytes() == (expected / filename).read_bytes(), filename


def regenerate() -> None:
    for name in CASES:
        target = GOLDEN / name
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.iterdir():
            stale.unlink()
        (target / "stdout.txt").write_bytes(_run_case(name, target))


if __name__ == "__main__":
    regenerate()
