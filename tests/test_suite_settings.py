"""The suite's own settings, run on a small file in a fresh pytest."""

import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_property(x):
    assert x < 5


def test_after():
    pass
'''


def test_a_failing_property_does_not_abort_the_run(tmp_path):
    # hypothesis reports a failing example through an import that warns with
    # a DeprecationWarning; under error::DeprecationWarning alone that ends
    # the run with INTERNALERROR before the next test
    (tmp_path / "test_one_property.py").write_text(_FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "-c", str(_PYPROJECT), "--rootdir", str(tmp_path), "test_one_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_one_property.py::test_property" in proc.stdout
    assert "PASSED test_one_property.py::test_after" in proc.stdout
