"""Run the tests against this checkout's package, installed or not.

``src`` goes first on ``sys.path`` for the tests themselves and first on
``PYTHONPATH`` for the ``python -m descentlab`` and script subprocesses
that some tests start with the inherited environment.

Hypothesis imports its patch writer, and with it libcst, only when a
``@given`` test fails.  libcst subclasses ``mypy_extensions.TypedDict``,
which warns of its own deprecation, and the ``error::DeprecationWarning``
filter of pyproject.toml turned that warning into an INTERNALERROR that
ended the session without the falsifying example.  So the writer is
imported here, with that one third-party warning ignored.
"""

import os
import pathlib
import sys
import warnings

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", r"mypy_extensions\.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: Hypothesis then writes no patch
        pass
