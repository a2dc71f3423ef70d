"""Shared test settings.

The suite imports dhj from this checkout's src/, with no install and no
PYTHONPATH to set: src/ goes first on sys.path, and first on PYTHONPATH
for the `python -m dhj.cli` subprocesses the tests start.

Hypothesis draws the same examples on every run (derandomize) and keeps no
example database, so tier-1 stays deterministic; no deadline, because a
loaded machine is not a failed property."""

import os
import sys

from hypothesis import settings

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

settings.register_profile("dhj", derandomize=True, deadline=None, database=None)
settings.load_profile("dhj")
