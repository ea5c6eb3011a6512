"""Run the tests against this checkout's package, installed or not.

``src`` goes first on ``sys.path`` for the tests themselves and first on
``PYTHONPATH`` for the ``python -m descentlab`` and script subprocesses
that some tests start with the inherited environment.
"""

import os
import pathlib
import sys

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
