"""Inputs are validated once, where they enter the program.

Past PhasePoint, as_vec and as_grid, vectors are 1-D float64 arrays, and
the partials, the control elimination, Newton's residuals and the check
probes use them as they are.  The coercion helpers that remain are counted
here, at every module attribute a caller looks them up through, so a layer
that starts re-coercing again fails on a count that does not depend on the
machine.
"""

import contextlib
import dataclasses
import io
import math
from collections import Counter

import numpy as np
import pytest

import dhj.cli
import dhj.core
import dhj.hj_flow
import dhj.hj_vf
import dhj.mechanics
import dhj.optctrl
from dhj.cli import main
from dhj.core import PhasePoint, as_vec, fd_gradient, fd_jacobian, newton_solve
from dhj.hj_flow import run_closed_form_flow
from dhj.hj_vf import run_closed_form_vf, solve_gamma_generic
from dhj.mechanics import Side, hamiltonian_from_lagrangian, run_trajectory, step_right
from dhj.optctrl import make_sakamoto1d
from test_mechanics import cubic_right, midpoint_pendulum

_MODULES = (dhj.core, dhj.mechanics, dhj.optctrl, dhj.hj_flow, dhj.hj_vf, dhj.cli)
_HELPERS = ("as_vec", "norm_inf")


@pytest.fixture
def counts(monkeypatch):
    calls = Counter()
    for name in _HELPERS:
        original = getattr(dhj.core, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            # norm_inf reads a float64 array and a Python float as they are
            # and coerces anything else
            if _name == "norm_inf" and not (type(args[0]) is float
                                            or type(args[0]) is np.ndarray
                                            and args[0].dtype == np.float64):
                calls["norm_inf coerced"] += 1
            return _original(*args, **kwargs)

        for module in _MODULES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


# Before the float64 contract, these counters read 4.0 as_vec and 6.0
# norm_inf calls per step, plus 24.0 calls of optctrl's own coercion helper
# _vec (now gone), and 1186 as_vec, 1966 norm_inf and 6240 _vec calls per
# check.  norm_inf is not called less often: its one-entry case is cheaper.
# Before the steppers built their points from checked values, a step made
# two more as_vec calls (the new point's q and p), and a check 812.  Before
# the slope runners did the same for their rows, a check made 432 and a
# compare 46.  Before Newton read a one-entry residual's norm as |r| and the
# control elimination read |p| and |phi| the same way, a check made 1966
# norm_inf calls; the work is the same (see the exact counts below).  Since
# norm_inf reads a float64 array as it is, the elimination reads |p| and
# |phi| through it again: 1166 of a check's 1199 calls, none of them coercing.
# Since the benchmark's callbacks return Python floats, |phi| is read off a
# float, which norm_inf also takes as it is.
def test_a_step_coerces_only_at_its_point(counts):
    H = cubic_right()
    x = PhasePoint(index=1, q=[0.05], p=[0.0])
    counts.clear()
    steps = 100
    for _ in range(steps):
        step_right(H, x)
    # Newton's guess
    assert counts["as_vec"] <= steps
    assert counts["norm_inf"] <= 6 * steps


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_a_lagrangian_step_coerces_only_newtons_inputs(counts, monkeypatch, side):
    jacobians = []
    differences = dhj.core.fd_jacobian

    def counted(*args, **kwargs):
        jacobians.append(1)
        return differences(*args, **kwargs)

    monkeypatch.setattr(dhj.core, "fd_jacobian", counted)
    H = hamiltonian_from_lagrangian(midpoint_pendulum(0.2, 1.3), side)
    x = PhasePoint(index=1, q=[0.7], p=[-0.2])
    counts.clear()
    traj = run_trajectory(H, x, 32)
    assert len(traj) == 33 and jacobians
    # Newton's guess once a step and the x of each Jacobian; none for a point
    assert counts["as_vec"] <= 32 + len(jacobians)


def test_check_coerces_only_at_its_entry_points(counts):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", "--q1=0.05", "--steps=8"]) == 0
    assert counts["as_vec"] <= 400
    assert counts["norm_inf"] <= 1199
    assert counts["norm_inf coerced"] == 0


def test_check_does_the_same_newton_work(monkeypatch):
    # exact counts, not bounds: the one-entry float paths make each call
    # cheaper and must not change how many calls a check makes, nor skip one,
    # nor how many Jacobians Newton builds or reads
    calls = Counter()
    solve = dhj.core.newton_solve

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    def counted_solve(residual, *args, jacobian=None, **kwargs):
        calls["newton_solve"] += 1
        if jacobian is not None:
            jacobian = counted("jacobian", jacobian)
        return solve(counted("residual", residual), *args, jacobian=jacobian, **kwargs)

    for module in _MODULES:
        if hasattr(module, "newton_solve"):
            monkeypatch.setattr(module, "newton_solve", counted_solve)
    for name in ("eliminate_control", "secondary_constraint"):
        monkeypatch.setattr(dhj.optctrl, name, counted(name, getattr(dhj.optctrl, name)))
    fd = counted("fd_gradient", dhj.core.fd_gradient)
    for module in (dhj.optctrl, dhj.cli):
        monkeypatch.setattr(module, "fd_gradient", fd)
    # the one Jacobian builder: Newton's, looked up in dhj.core at each step,
    # and the symplecticity probe's, through dhj.mechanics.  Every solve of a
    # check is handed a Jacobian, so the four builds are the probe's, one per
    # point, and the Jacobian reads are the supplied callables' calls.
    fd_jacobian = counted("fd_jacobian", dhj.core.fd_jacobian)
    for module in (dhj.core, dhj.mechanics):
        monkeypatch.setattr(module, "fd_jacobian", fd_jacobian)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", "--q1=0.05", "--steps=8"]) == 0
    # residual evaluations include the finite-difference probes
    assert calls == {"newton_solve": 183, "residual": 367, "eliminate_control": 583,
                     "secondary_constraint": 583, "fd_gradient": 200, "jacobian": 185,
                     "fd_jacobian": 4}


def test_compare_coerces_only_at_its_entry_points(counts):
    # the orbit's seed and one Newton guess per step, and each slope run's
    # seed; none for a row a runner adds
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["compare", "--q1=0.05", "--steps=8"]) == 0
    assert counts["as_vec"] <= 14


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _newton(guess):
    return newton_solve(lambda x: x * x - 2.0, guess)


def _fd_gradient(x):
    return fd_gradient(lambda z: math.sin(z[0]), x)


def _fd_jacobian(x):
    return fd_jacobian(lambda z: z * z, x)


def _orbit(q):
    return [pt.q for pt in run_trajectory(cubic_right(), PhasePoint(index=1, q=q, p=0.0), 3).points]


def _flow(grid):
    return [pt.p for pt in run_closed_form_flow(grid, 0.0, 1e-4).points]


def _vf(grid):
    return [pt.p for pt in run_closed_form_vf(grid, 0.0).points]


def _generic_vf(gamma0):
    seq = solve_gamma_generic(cubic_right(), [0.05, 0.0475, 0.0453], gamma0)
    return [pt.p for pt in seq.points]


# (entry point, an array input, the same input as a list, as a scalar)
_ENTRY_POINTS = [
    (_newton, np.array([1.0]), [1.0], 1.0),
    (_fd_gradient, np.array([0.3]), [0.3], 0.3),
    (_fd_jacobian, np.array([0.3]), [0.3], 0.3),
    (_orbit, np.array([0.05]), [0.05], 0.05),
    (_generic_vf, np.array([0.01]), [0.01], 0.01),
]


@pytest.mark.parametrize("run, array, as_list, scalar", _ENTRY_POINTS,
                         ids=["newton_solve", "fd_gradient", "fd_jacobian", "run_trajectory",
                              "solve_gamma_generic"])
def test_public_entry_points_accept_lists_and_scalars(run, array, as_list, scalar):
    want = _bits(run(array))
    assert _bits(run(as_list)) == want
    assert _bits(run(scalar)) == want


@pytest.mark.parametrize("run", [_flow, _vf], ids=["run_closed_form_flow", "run_closed_form_vf"])
def test_slope_runners_accept_a_list_grid(run):
    grid = [0.05, 0.0475, 0.0453]
    assert _bits(run(grid)) == _bits(run(np.array(grid)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("run", [
    lambda bad: as_vec([0.1, bad]),
    lambda bad: PhasePoint(index=1, q=[0.1], p=[bad]),
    lambda bad: _newton([bad]),
    lambda bad: _fd_gradient([bad]),
    lambda bad: _fd_jacobian([bad]),
    lambda bad: _orbit([bad]),
    lambda bad: _generic_vf(bad),
    lambda bad: _flow([0.05, bad]),
    lambda bad: _vf([0.05, bad]),
], ids=["as_vec", "PhasePoint", "newton_solve", "fd_gradient", "fd_jacobian", "run_trajectory",
        "solve_gamma_generic", "run_closed_form_flow", "run_closed_form_vf"])
def test_public_entry_points_reject_non_finite_input(run, bad):
    with pytest.raises(ValueError, match="non-finite"):
        run(bad)


_START = PhasePoint(index=1, q=[0.05], p=[0.0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name, run", [
    ("index", lambda bad: PhasePoint(index=bad, q=[0.1], p=[0.2])),
    ("dim", lambda bad: dataclasses.replace(midpoint_pendulum(0.2, 1.3), dim=bad)),
    ("dim", lambda bad: dataclasses.replace(cubic_right(), dim=bad)),
    ("n", lambda bad: dataclasses.replace(make_sakamoto1d(), n=bad)),
    ("steps", lambda bad: run_trajectory(cubic_right(), _START, bad)),
], ids=["PhasePoint.index", "DiscreteLagrangian.dim", "DiscreteHamiltonian.dim",
        "ControlProblem.n", "run_trajectory.steps"])
def test_integer_arguments_name_themselves_on_inf_and_nan(name, run, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a (positive|nonnegative) integer, "
                                         f"got {bad}$"):
        run(bad)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("name, run", [
    ("r", lambda bad: make_sakamoto1d(r=bad)),
    ("s", lambda bad: make_sakamoto1d(s=bad)),
    ("h", lambda bad: run_closed_form_flow([0.05, 0.0475], 0.0, bad)),
    ("step", lambda bad: fd_gradient(lambda z: z[0], [0.3], bad)),
    ("step", lambda bad: fd_jacobian(lambda z: z, [0.3], bad)),
], ids=["make_sakamoto1d.r", "make_sakamoto1d.s", "run_closed_form_flow.h",
        "fd_gradient.step", "fd_jacobian.step"])
def test_weights_increments_and_steps_must_be_finite(name, run, bad):
    # each is refused where it enters, not as a Newton seed, a discriminant
    # or a NumericalError further in
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {bad}$"):
        run(bad)
