"""Every run ends well: the CLI subcommands over extreme starts and slopes.

A run exits 0 or 1. It never raises and never emits a numpy warning, and a
non-finite CSV field appears only in a run that exits 1 and prints a
failure line saying why. The fixed grid holds starts from a subnormal to
1e300, slopes and momenta of 1e300, and three weight sets; a derandomized
strategy draws further starts from all of float64. Each command is given
only the flags it reads (test_cli.READS).
"""

import contextlib
import io
import itertools
import math
import re
import warnings

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from dhj.cli import main
from test_cli import read_csv, reads

COMMANDS = ("simulate", "hj-flow", "hj-vf", "compare", "check")
STARTS = (1e-320, -1e-13, 1e-13, 0.01, -0.5, 2.0, 1e5, 1e103, 8e153, 1e300)
FLAGS = ((), ("--ds1=1e300",), ("--gamma1=1e300",), ("--p1=1e300",))
WEIGHTS = ((), ("--r=2",), ("--r=0.5", "--s=2"))
# a failed part of the run ("flow failure at j = 2: ...") or a raised one
_FAILURE_LINE = re.compile(r"(trajectory|flow|vf|residual) failure at j = \d+: "
                           r"|numerical failure: ")


def _non_finite(field: str) -> bool:
    try:
        return not math.isfinite(float(field))
    except ValueError:  # a branch token
        return False


def bad_run(argv: list[str], csv) -> str | None:
    """What went wrong in one in-process run of argv, or None; a command
    that writes a CSV writes it to csv (check writes none)."""
    csv.unlink(missing_ok=True)
    output = [] if argv[0] == "check" else ["--csv", str(csv)]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main([*argv, "--steps=3", *output])
        except Exception as exc:  # the finding to report, with every other bad run
            return f"raised {type(exc).__name__}: {exc}"
    if caught:
        return f"warned {caught[0].category.__name__}: {caught[0].message}"
    if code not in (0, 1):
        return f"exit {code}"
    rows = read_csv(csv)[2] if csv.exists() else []
    explained = code == 1 and any(map(_FAILURE_LINE.match, err.getvalue().splitlines()))
    if any(_non_finite(field) for row in rows for field in row) and not explained:
        return f"non-finite field, exit {code}, stderr {err.getvalue()!r}"
    return None


@pytest.mark.parametrize("command", COMMANDS)
def test_every_run_of_the_grid_ends_well(command, tmp_path):
    bad = {}
    flag_sets = [flags for flags in FLAGS if reads(command, flags)]
    for q1, flags, weights in itertools.product(STARTS, flag_sets, WEIGHTS):
        argv = [command, f"--q1={q1!r}", *flags, *weights]
        why = bad_run(argv, tmp_path / "run.csv")
        if why is not None:
            bad[" ".join(argv)] = why
    assert bad == {}


@given(command=st.sampled_from(COMMANDS),
       q1=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
       flags=st.sampled_from(FLAGS), weights=st.sampled_from(WEIGHTS))
@example(command="compare", q1=1e308, flags=(), weights=())
@example(command="compare", q1=-1e308, flags=("--p1=1e300",), weights=("--r=2",))
@example(command="hj-vf", q1=5e-324, flags=("--gamma1=1e300",), weights=())
def test_any_float64_start_ends_well(tmp_path_factory, command, q1, flags, weights):
    assume(reads(command, flags))
    csv = tmp_path_factory.getbasetemp() / "sweep.csv"
    assert bad_run([command, f"--q1={q1!r}", *flags, *weights], csv) is None
