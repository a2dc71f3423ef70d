"""Discrete Lagrangian/Hamiltonian structures and one-step maps."""

import dataclasses
import hashlib
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import dhj.cli
import dhj.core
import dhj.hj_vf
import dhj.mechanics
import dhj.optctrl
from dhj.cli import _free_particle
from dhj.core import (NumericalError, PhasePoint, SingularJacobianError, dot, fd_jacobian,
                      newton_solve)
from dhj.hj_flow import hj_residual
from dhj.hj_vf import eval_field, vf_residual
from dhj.mechanics import (
    DiscreteHamiltonian,
    DiscreteLagrangian,
    Side,
    _left_right_gap,
    hamiltonian_from_lagrangian,
    left_right_relation_residual,
    run_trajectory,
    step_left,
    step_right,
    symplecticity_defect,
    verify_step,
)
from dhj.optctrl import discretize_right, make_sakamoto1d
from test_oracles import bench_oracles, rk4_reference


def _arr(x):
    return np.asarray(x, dtype=float)


def free_particle():
    return DiscreteLagrangian(
        eval=lambda a, b: 0.5 * float(np.sum((_arr(b) - _arr(a)) ** 2)),
        d1=lambda a, b: _arr(a) - _arr(b),
        d2=lambda a, b: _arr(b) - _arr(a),
        dim=1,
    )


def quadratic_lagrangian():
    # L(a, b) = (b - a)^2 / 2 - 0.05 a^2
    return DiscreteLagrangian(
        eval=lambda a, b: (0.5 * float(np.sum((_arr(b) - _arr(a)) ** 2))
                           - 0.05 * float(np.sum(_arr(a) ** 2))),
        d1=lambda a, b: _arr(a) - _arr(b) - 0.1 * _arr(a),
        d2=lambda a, b: _arr(b) - _arr(a),
        dim=1,
    )


def cubic_right():
    return discretize_right(make_sakamoto1d())


# The benchmark's unit weights and the six non-unit (r, s) of the comparisons.
WEIGHTS = ((1.0, 1.0), (2.0, 1.0), (0.5, 1.0), (1.0, 2.0), (1.0, 0.5), (2.0, 0.5), (0.5, 2.0))


def test_right_dual_of_free_particle():
    H = hamiltonian_from_lagrangian(free_particle(), Side.RIGHT)
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = rng.uniform(-1.0, 1.0, 1)
        pn = rng.uniform(-1.0, 1.0, 1)
        want = float(pn[0] * q[0] + 0.5 * pn[0] ** 2)
        assert abs(H.eval(q, pn) - want) <= 1e-12
        assert abs(H.d1(q, pn)[0] - pn[0]) <= 1e-10
        assert abs(H.d2(q, pn)[0] - (q[0] + pn[0])) <= 1e-10


def test_left_dual_of_free_particle():
    H = hamiltonian_from_lagrangian(free_particle(), Side.LEFT)
    rng = np.random.default_rng(9)
    for _ in range(20):
        qn = rng.uniform(-1.0, 1.0, 1)
        p = rng.uniform(-1.0, 1.0, 1)
        want = float(-p[0] * qn[0] + 0.5 * p[0] ** 2)
        assert abs(H.eval(qn, p) - want) <= 1e-12
        assert abs(H.d1(qn, p)[0] + p[0]) <= 1e-10
        assert abs(H.d2(qn, p)[0] + (qn[0] - p[0])) <= 1e-10


def test_left_and_right_steps_agree_free_particle():
    L = free_particle()
    Hp = hamiltonian_from_lagrangian(L, Side.RIGHT)
    Hm = hamiltonian_from_lagrangian(L, Side.LEFT)
    x = PhasePoint(index=1, q=[0.3], p=[0.2])
    a = step_right(Hp, x)
    b = step_left(Hm, x)
    assert abs(a.q[0] - 0.5) <= 1e-12 and abs(a.p[0] - 0.2) <= 1e-12
    assert abs(b.q[0] - a.q[0]) <= 1e-12
    assert abs(b.p[0] - a.p[0]) <= 1e-12


def test_left_and_right_steps_agree_quadratic():
    L = quadratic_lagrangian()
    Hp = hamiltonian_from_lagrangian(L, Side.RIGHT)
    Hm = hamiltonian_from_lagrangian(L, Side.LEFT)
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = PhasePoint(index=1, q=rng.uniform(-0.5, 0.5, 1),
                       p=rng.uniform(-0.5, 0.5, 1))
        a = step_right(Hp, x)
        b = step_left(Hm, x)
        assert abs(a.q[0] - b.q[0]) <= 1e-10
        assert abs(a.p[0] - b.p[0]) <= 1e-10


def test_step_right_cubic_benchmark_half():
    H = cubic_right()
    x = PhasePoint(index=1, q=[0.5], p=[0.0])
    nxt = step_right(H, x)
    assert abs(nxt.q[0] - 2.375) <= 1e-12
    assert abs(nxt.p[0] - (-2.0)) <= 1e-12


def test_trajectory_small_start_oracle():
    # third and fourth positions from q1 = 5e-8: exact rational arithmetic
    # gives 2.5e-7 and 6.5e-7 up to O(q^3) corrections
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[5e-8], p=[0.0]), 18)
    assert len(traj) == 19
    assert abs(traj.points[2].q[0] - 2.5000000000000438e-07) <= 5e-21
    assert abs(traj.points[3].q[0] - 6.5000000000007329e-07) <= 5e-21
    assert traj.meta["truncated"] is False


def test_trajectory_del_satisfaction():
    # consecutive triples satisfy the discrete stationarity condition
    cp = make_sakamoto1d()
    H = discretize_right(cp)
    traj = run_trajectory(H, PhasePoint(index=1, q=[0.05], p=[-0.02]), 6)
    for j in range(1, len(traj) - 1):
        prev, cur, nxt = traj.points[j - 1], traj.points[j], traj.points[j + 1]
        # momentum matching: p_j from step j-1 equals p_j entering step j
        res = verify_step(H, cur, nxt)
        assert res <= 1e-10
        assert cur.index == prev.index + 1 and nxt.index == cur.index + 1


def test_trajectory_truncates_on_singular_start():
    H = cubic_right()
    start = PhasePoint(index=1, q=[1.0 / math.sqrt(3.0)], p=[0.0])
    traj = run_trajectory(H, start, 10)
    assert len(traj) == 1
    assert traj.meta["truncated"] is True
    assert traj.meta["failure"] == "SingularJacobianError"
    assert traj.meta["failure_index"] == 1


def _escaping_lagrangian():
    # the free particle, except that D2 L_d overflows
    return dataclasses.replace(free_particle(), d2=lambda a, b: np.array([math.inf]))


@pytest.mark.parametrize("H, q, message, quantity", [
    # sakamoto from q = 1e103: Newton converges, then q - q^3 overflows
    (cubic_right(), 1e103, "D2 H+ contains non-finite entries: [-inf]", -math.inf),
    (DiscreteHamiltonian(side=Side.LEFT, eval=lambda a, b: 0.0, d1=lambda a, b: [math.nan],
                         d2=lambda a, b: -np.asarray(a), dim=1),
     0.5, "D1 H- contains non-finite entries: [nan]", math.nan),
    (hamiltonian_from_lagrangian(_escaping_lagrangian(), Side.RIGHT), 0.5,
     "D2 L_d contains non-finite entries: [inf]", math.inf),
], ids=["D2 H+", "D1 H-", "D2 L_d"])
def test_non_finite_step_output_truncates_naming_the_quantity(H, q, message, quantity):
    traj = run_trajectory(H, PhasePoint(index=1, q=[q], p=[0.0]), 2)
    assert len(traj) == 1
    meta = traj.meta
    assert (meta["truncated"], meta["failure"], meta["failure_index"]) == (True, "NumericalError", 1)
    assert meta["failure_message"] == message
    got = meta["failure_quantity"]
    assert got == quantity or (math.isnan(got) and math.isnan(quantity))


@pytest.mark.parametrize("q", [8e153, 1e300])
def test_a_non_finite_newton_residual_is_the_failure_quantity(q):
    # 3 q^2 overflows, so D1 H+(q, 0) = -inf * 0 + q is NaN at Newton's seed
    traj = run_trajectory(cubic_right(), PhasePoint(index=1, q=[q], p=[0.0]), 2)
    meta = traj.meta
    assert len(traj) == 1
    assert (meta["truncated"], meta["failure"], meta["failure_index"]) == (True, "NumericalError", 1)
    assert meta["failure_message"] == "non-finite residual evaluation at x = [0.]"
    assert math.isnan(meta["failure_quantity"])


def test_non_finite_points_from_the_caller_stay_value_errors():
    with pytest.raises(ValueError, match="^q contains non-finite"):
        PhasePoint(index=1, q=[math.inf], p=[0.0])


def test_step_right_raises_on_singular_start():
    H = cubic_right()
    with pytest.raises(SingularJacobianError):
        step_right(H, PhasePoint(index=1, q=[1.0 / math.sqrt(3.0)], p=[0.0]))


def test_symplecticity_defect_cubic():
    H = cubic_right()
    d = symplecticity_defect(H, PhasePoint(index=1, q=[0.5], p=[0.0]))
    assert d <= 1e-6


def test_symplecticity_defect_free_particle():
    H = hamiltonian_from_lagrangian(free_particle(), Side.RIGHT)
    d = symplecticity_defect(H, PhasePoint(index=1, q=[0.3], p=[0.2]))
    assert d <= 1e-8


def test_an_overflowing_newton_step_truncates_the_orbit():
    # Newton's step from p = 0 is -1e300 / 1e-13 = -inf, where D1 H+ reads 0:
    # a named truncation, not a ValueError from the new point
    H = DiscreteHamiltonian(side=Side.RIGHT, eval=lambda q, p: 0.0,
                            d1=lambda q, p: np.array([1e300 if p[0] == 0.0 else 0.0]),
                            d2=lambda q, p: q, d12=lambda q, p: np.array([[1e-13]]), dim=1)
    traj = run_trajectory(H, PhasePoint(index=1, q=[0.5], p=[0.0]), 2)
    assert len(traj) == 1
    meta = traj.meta
    assert (meta["truncated"], meta["failure"], meta["failure_index"]) == (True, "NumericalError", 1)
    assert meta["failure_message"] == "root x = [-inf] is not finite"
    assert meta["failure_quantity"] == -math.inf


def test_verify_step_detects_corruption():
    H = cubic_right()
    x = PhasePoint(index=1, q=[0.5], p=[0.0])
    nxt = step_right(H, x)
    bad = PhasePoint(index=nxt.index, q=nxt.q, p=nxt.p + 1e-6)
    assert verify_step(H, x, nxt) <= 1e-10
    assert verify_step(H, x, bad) >= 1e-7


def test_left_right_relation_free_particle():
    L = free_particle()
    Hp = hamiltonian_from_lagrangian(L, Side.RIGHT)
    Hm = hamiltonian_from_lagrangian(L, Side.LEFT)
    x = PhasePoint(index=1, q=[0.3], p=[0.2])
    nxt = step_right(Hp, x)
    res = left_right_relation_residual(Hp, Hm, x.q, x.p, nxt.q, nxt.p)
    assert res <= 1e-12


def test_an_overflowing_dual_relation_of_two_entries_is_inf_without_a_warning():
    # p . q overflows on both sides, |inf - (-inf)|, under the suite's
    # error::RuntimeWarning filter
    Hp, Hm = (DiscreteHamiltonian(side=side, eval=lambda a, b: 0.0, d1=None, d2=None, dim=2)
              for side in (Side.RIGHT, Side.LEFT))
    big = np.array([1e200, 1.0])
    assert _left_right_gap(Hp, Hm, big, big, big, big) == math.inf


def test_side_mismatch_rejected():
    L = free_particle()
    Hp = hamiltonian_from_lagrangian(L, Side.RIGHT)
    Hm = hamiltonian_from_lagrangian(L, Side.LEFT)
    x = PhasePoint(index=1, q=[0.3], p=[0.2])
    with pytest.raises(ValueError):
        step_right(Hm, x)
    with pytest.raises(ValueError):
        step_left(Hp, x)
    # run_trajectory dispatches on the Hamiltonian's own side
    left_traj = run_trajectory(Hm, x, 3)
    assert len(left_traj) == 4
    assert left_traj.meta["side"] == "left"


def test_mechanics_argument_checks_name_what_is_wrong():
    L = free_particle()
    Hp = hamiltonian_from_lagrangian(L, Side.RIGHT)
    Hm = hamiltonian_from_lagrangian(L, Side.LEFT)
    with pytest.raises(ValueError, match="^side must be Side.RIGHT or Side.LEFT, got 'right'$"):
        hamiltonian_from_lagrangian(L, "right")
    with pytest.raises(ValueError, match="^side must be a Side enum member, got 'right'$"):
        dataclasses.replace(Hp, side="right")
    with pytest.raises(ValueError, match=r"^dimension mismatch: point dim 2, H dim 1$"):
        step_right(Hp, PhasePoint(index=1, q=[0.1, 0.2], p=[0.0, 0.0]))
    with pytest.raises(ValueError, match=r"^step_right needs a Side.RIGHT Hamiltonian, got "):
        step_right(Hm, PhasePoint(index=1, q=[0.1], p=[0.0]))
    with pytest.raises(ValueError, match=r"^expected a \(right, left\) Hamiltonian pair$"):
        left_right_relation_residual(Hm, Hp, [0.1], [0.0], [0.1], [0.0])
    # a model partial of the wrong size is named where it enters the step
    wide = DiscreteHamiltonian(side=Side.RIGHT, eval=lambda q, p: 0.0, d1=lambda q, p: p - 0.5,
                               d2=lambda q, p: np.zeros(2), dim=1)
    with pytest.raises(ValueError, match=r"^D2 H\+ must have dimension 1, got shape \(2,\)$"):
        step_right(wide, PhasePoint(index=1, q=[0.1], p=[0.0]))


def test_run_trajectory_validation():
    H = cubic_right()
    with pytest.raises(ValueError):
        run_trajectory(H, PhasePoint(index=1, q=[0.1], p=[0.0]), -1)
    # zero steps is legal and returns just the seed point
    traj = run_trajectory(H, PhasePoint(index=1, q=[0.1], p=[0.0]), 0)
    assert len(traj) == 1


@pytest.mark.parametrize("r, s", WEIGHTS)
def test_trajectory_rows_match_the_exact_rational_map(r, s):
    # with the exact mixed partial one Newton step solves the affine D1 H+
    # equation to rounding; finite-difference Jacobians left ~1e-11 misses
    H = discretize_right(make_sakamoto1d(r=r, s=s))
    worst = 0.0
    for q1 in np.geomspace(1e-10, 0.3, 15):
        for sign in (1.0, -1.0):
            traj = run_trajectory(H, PhasePoint(index=1, q=[sign * q1], p=[0.0]), 40)
            for a, b in zip(traj.points[:-1], traj.points[1:]):
                if abs(a.q[0]) >= 0.9 or abs(b.q[0]) >= 0.9:
                    break
                worst = max(worst, bench_oracles.step_error(a.q[0], a.p[0], b.q[0], b.p[0], r, s))
    assert worst <= 1e-13


@pytest.mark.parametrize("r, s", WEIGHTS)
def test_orbit_without_a_supplied_control_matches_the_exact_rational_map(r, s):
    # with no supplied control, every elimination probes the constraint,
    # solves it and verifies the solution
    H = discretize_right(dataclasses.replace(make_sakamoto1d(r=r, s=s), control=None))
    worst = 0.0
    for q1 in np.geomspace(1e-6, 0.3, 8):
        for sign in (1.0, -1.0):
            traj = run_trajectory(H, PhasePoint(index=1, q=[sign * q1], p=[0.0]), 24)
            for a, b in zip(traj.points[:-1], traj.points[1:]):
                if abs(a.q[0]) < 0.9:
                    worst = max(worst, bench_oracles.step_error(a.q[0], a.p[0], b.q[0],
                                                                b.p[0], r, s))
    assert worst <= 1e-12


def _signed_power_of_ten(lo, hi):
    """+-10^u with u drawn from [lo, hi]."""
    return st.builds(lambda sign, u: sign * 10.0**u, st.sampled_from((1.0, -1.0)),
                     st.floats(lo, hi))


@given(weights=st.sampled_from(WEIGHTS), q=_signed_power_of_ten(-15.0, math.log10(0.5)),
       p=_signed_power_of_ten(-15.0, 0.0))
def test_a_right_step_is_the_exact_rational_map(weights, q, p):
    r, s = weights
    # where the seed's residual s q - 3 q^2 p is within Newton's absolute 1e-12
    # the seed is accepted and the step stalls: the strict xfail below
    assume(abs(s * q - 3.0 * q * q * p) > 1e-12)
    H = discretize_right(make_sakamoto1d(r=r, s=s))
    nxt = step_right(H, PhasePoint(index=1, q=[q], p=[p]))
    assert bench_oracles.step_error(q, p, nxt.q[0], nxt.p[0], r, s) <= 1e-14


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: Newton's absolute 1e-12 tolerance "
                                       "accepts the seed, so the step from (1e-13, 0) stalls")
def test_a_right_step_from_a_tiny_start_is_the_exact_rational_map():
    nxt = step_right(cubic_right(), PhasePoint(index=1, q=[1e-13], p=[0.0]))
    assert bench_oracles.step_error(1e-13, 0.0, nxt.q[0], nxt.p[0], 1.0, 1.0) <= 1e-14


def test_step_right_with_one_newton_iteration_runs_two_eliminations():
    # each accepted affine elimination evaluates the constraint three times
    base = make_sakamoto1d(r=2.0, s=0.5)
    calls = []

    def du_gamma(q, u):
        calls.append(1)
        return base.du_gamma(q, u)

    H = discretize_right(dataclasses.replace(base, du_gamma=du_gamma))
    H.d1(np.array([0.2]), np.array([-0.3]))  # warm-up
    for q, p in ((0.05, -0.02), (-0.4, 0.3), (0.3, 0.0)):
        calls.clear()
        step_right(H, PhasePoint(index=1, q=[q], p=[p]))
        assert len(calls) <= 2 * 3


def test_step_right_with_one_newton_iteration_evaluates_the_constraint_twice(monkeypatch):
    # the supplied control u = -p / r is accepted after one constraint
    # evaluation, so each of the step's two eliminations costs one
    calls = []
    constraint = dhj.optctrl.secondary_constraint

    def counted(*args):
        calls.append(1)
        return constraint(*args)

    monkeypatch.setattr(dhj.optctrl, "secondary_constraint", counted)
    monkeypatch.setattr(dhj.core, "MAX_ITER", 1)
    H = discretize_right(make_sakamoto1d(r=2.0, s=0.5))
    for q, p in ((0.05, -0.02), (-0.4, 0.3), (0.3, 0.0)):
        calls.clear()
        step_right(H, PhasePoint(index=1, q=[q], p=[p]))
        assert 1 <= len(calls) <= 2


def test_wrong_mixed_partial_costs_iterations_not_accuracy():
    H = cubic_right()
    off = dataclasses.replace(H, d12=lambda a, b: 1.3 * H.d12(a, b))
    x = PhasePoint(index=1, q=[0.2], p=[-0.1])
    want = step_right(H, x)
    got = step_right(off, x)
    assert abs(got.p[0] - want.p[0]) <= 1e-11
    assert abs(got.q[0] - want.q[0]) <= 1e-11


def test_lagrangian_duals_carry_no_mixed_partial():
    L = quadratic_lagrangian()
    for side in (Side.RIGHT, Side.LEFT):
        H = hamiltonian_from_lagrangian(L, side)
        assert H.d12 is None and H.lagrangian is L
    assert cubic_right().d12 is not None and cubic_right().lagrangian is None


def midpoint_pendulum(h, w2, counts=None, partials=False):
    """L_d(a, b) = h [((b - a)/h)^2 / 2 - w2 (1 - cos((a + b)/2))]; counts, if
    given, tallies the calls of each slot partial; partials supplies the
    closed-form second partials d11, d12 and d22."""

    def eval_(a, b):
        v = (b[0] - a[0]) / h
        return h * (0.5 * v * v - w2 * (1.0 - math.cos(0.5 * (a[0] + b[0]))))

    def d1(a, b):
        if counts is not None:
            counts["d1"] += 1
        return np.array([-(b[0] - a[0]) / h - 0.5 * h * w2 * math.sin(0.5 * (a[0] + b[0]))])

    def d2(a, b):
        if counts is not None:
            counts["d2"] += 1
        return np.array([(b[0] - a[0]) / h - 0.5 * h * w2 * math.sin(0.5 * (a[0] + b[0]))])

    if not partials:
        return DiscreteLagrangian(eval=eval_, d1=d1, d2=d2, dim=1)

    def same_slot(a, b):
        return np.array([[1.0 / h - 0.25 * h * w2 * math.cos(0.5 * (a[0] + b[0]))]])

    def d12(a, b):
        return np.array([[-1.0 / h - 0.25 * h * w2 * math.cos(0.5 * (a[0] + b[0]))]])

    return DiscreteLagrangian(eval=eval_, d1=d1, d2=d2, dim=1, d11=same_slot, d12=d12,
                              d22=same_slot)


def _mp_step_error(q, p, q_next, p_next, h, w2):
    """Relative miss of one transition against the pendulum's step solved in
    40-digit mpmath from the row's (q, p): D1 L_d(q, y) = -p, p' = D2 L_d(q, y)."""
    with mpmath.workdps(40):
        q, p, h, w2 = (mpmath.mpf(v) for v in (q, p, h, w2))

        def force(y):
            return h * w2 * mpmath.sin((q + y) / 2) / 2

        y = mpmath.findroot(lambda y: -(y - q) / h - force(y) + p, mpmath.mpf(q_next))
        pn = (y - q) / h - force(y)
        mag = max(abs(q), abs(p), abs(y), abs(pn))
        return float(max(abs(mpmath.mpf(q_next) - y), abs(mpmath.mpf(p_next) - pn)) / mag)


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_pendulum_orbit_that_stalled_nested_newton_runs_to_the_end(side):
    # this right-dual orbit once stopped at j = 23 with an outer residual of
    # 1.0255e-12 against tol 1e-12, computed through inexact inner inversions
    h, w2 = 0.24802639511217933, 0.9603206029955691
    H = hamiltonian_from_lagrangian(midpoint_pendulum(h, w2), side)
    traj = run_trajectory(H, PhasePoint(index=1, q=[-0.945361361224611],
                                        p=[-0.19958867950786907]), 32)
    assert traj.meta["truncated"] is False and len(traj) == 33
    worst = max(_mp_step_error(a.q[0], a.p[0], b.q[0], b.p[0], h, w2)
                for a, b in zip(traj.points[:-1], traj.points[1:]))
    assert worst <= 1e-10


# sha256 of the %.17g rows of the orbit below, recorded before the steppers
# built their points without re-validating them and before a one-entry
# finite-difference Jacobian was taken in Python floats
_PENDULUM_ROWS_SHA256 = "c81ed33da962590cbe11e66141d58d9877ae4d44680443dbc1bb5adc7ff8c959"


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_pendulum_dual_without_d12_keeps_its_rows_bit_for_bit(side):
    # no d12: every Newton Jacobian is a one-entry central difference
    H = hamiltonian_from_lagrangian(midpoint_pendulum(0.2, 1.3), side)
    traj = run_trajectory(H, PhasePoint(index=1, q=[0.7], p=[-0.2]), 32)
    assert traj.meta["truncated"] is False and len(traj) == 33
    rows = "".join("%.17g,%.17g\n" % (pt.q[0], pt.p[0]) for pt in traj.points)
    assert hashlib.sha256(rows.encode()).hexdigest() == _PENDULUM_ROWS_SHA256


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_second_partials_keep_the_pendulum_orbit_with_fewer_d1_calls(side):
    h, w2 = 0.24802639511217933, 0.9603206029955691
    x0 = PhasePoint(index=1, q=[-0.945361361224611], p=[-0.19958867950786907])
    d1_calls = []
    for partials in (False, True):
        counts = {"d1": 0, "d2": 0}
        H = hamiltonian_from_lagrangian(midpoint_pendulum(h, w2, counts, partials), side)
        traj = run_trajectory(H, x0, 32)
        assert traj.meta["truncated"] is False and len(traj) == 33
        worst = max(_mp_step_error(a.q[0], a.p[0], b.q[0], b.p[0], h, w2)
                    for a, b in zip(traj.points[:-1], traj.points[1:]))
        assert worst <= 1e-10
        d1_calls.append(counts["d1"])
    assert d1_calls[1] < d1_calls[0]


@pytest.mark.parametrize("L", [_free_particle(), midpoint_pendulum(0.2, 1.3, partials=True),
                               midpoint_pendulum(0.05, 0.7, partials=True)])
def test_second_partials_match_central_differences(L):
    for a, b in ((0.1, 0.15), (-1.0, -0.9), (0.7, 0.5), (2.5, -1.5)):
        a, b = np.array([a]), np.array([b])
        central = (fd_jacobian(lambda y: L.d1(y, b), a, 1e-5),
                   fd_jacobian(lambda y: L.d1(a, y), b, 1e-5),
                   fd_jacobian(lambda y: L.d2(a, y), b, 1e-5))
        for got, want in zip((L.d11(a, b), L.d12(a, b), L.d22(a, b)), central):
            assert got.shape == (1, 1)
            assert abs(got[0, 0] - want[0, 0]) <= 1e-8 * max(1.0, abs(want[0, 0]))


def _array_free_particle():
    """cli._free_particle with its callbacks in one-entry numpy arrays, the
    twin its Python-float callbacks must match bit for bit."""
    eye, minus_eye = np.broadcast_to(1.0, (1, 1)), np.broadcast_to(-1.0, (1, 1))
    return DiscreteLagrangian(eval=lambda a, b: 0.5 * dot(b - a, b - a),
                              d1=lambda a, b: a - b, d2=lambda a, b: b - a, dim=1,
                              d11=lambda a, b: eye, d12=lambda a, b: minus_eye,
                              d22=lambda a, b: eye)


def float_pendulum(h, w2, partials=False):
    """midpoint_pendulum with every callback returning a Python float, the
    same expressions over each point's one entry."""

    def eval_(a, b):
        a, b = a.item(), b.item()
        v = (b - a) / h
        return h * (0.5 * v * v - w2 * (1.0 - math.cos(0.5 * (a + b))))

    def d1(a, b):
        a, b = a.item(), b.item()
        return -(b - a) / h - 0.5 * h * w2 * math.sin(0.5 * (a + b))

    def d2(a, b):
        a, b = a.item(), b.item()
        return (b - a) / h - 0.5 * h * w2 * math.sin(0.5 * (a + b))

    if not partials:
        return DiscreteLagrangian(eval=eval_, d1=d1, d2=d2, dim=1)

    def same_slot(a, b):
        return 1.0 / h - 0.25 * h * w2 * math.cos(0.5 * (a.item() + b.item()))

    def d12(a, b):
        return -1.0 / h - 0.25 * h * w2 * math.cos(0.5 * (a.item() + b.item()))

    return DiscreteLagrangian(eval=eval_, d1=d1, d2=d2, dim=1, d11=same_slot, d12=d12,
                              d22=same_slot)


def _dual_outcomes(L, q, p):
    """For each dual of L: its step from (q, p) and its eval, d1 and d2 at
    (q, p), each as bytes or the NumericalError raised; d1 and d2 must be
    (1,) float64 arrays."""
    out = []
    for side, stepper in ((Side.RIGHT, step_right), (Side.LEFT, step_left)):
        H = hamiltonian_from_lagrangian(L, side)
        a, b = np.array([q]), np.array([p])
        calls = (lambda: stepper(H, PhasePoint(index=1, q=[q], p=[p])),
                 lambda: H.eval(a, b), lambda: H.d1(a, b), lambda: H.d2(a, b))
        for k, call in enumerate(calls):
            try:
                got = call()
            except NumericalError as exc:
                out.append((type(exc).__name__, str(exc)))
                continue
            if k == 0:
                got = (got.index, got.q.tobytes(), got.p.tobytes())
            elif k == 1:
                got = struct.pack("<d", got)
            else:
                assert type(got) is np.ndarray and got.dtype == np.float64
                assert got.shape == (1,)
                got = got.tobytes()
            out.append(got)
    return out


def test_the_float_free_particle_is_its_array_twin_bit_for_bit(monkeypatch):
    L, twin = _free_particle(), _array_free_particle()
    duals = [[hamiltonian_from_lagrangian(lag, side) for side in (Side.RIGHT, Side.LEFT)]
             for lag in (L, twin)]
    x0 = PhasePoint(index=1, q=[0.2], p=[0.1])
    # both duals' 50-step orbits from check_left_right's start, and each
    # transition's dual-relation gap along the right one
    orbits = [[[(pt.q.tobytes(), pt.p.tobytes()) for pt in run_trajectory(H, x0, 50).points]
               for H in pair] for pair in duals]
    assert orbits[0] == orbits[1] and len(orbits[0][0]) == len(orbits[0][1]) == 51
    (Hp, Hm), (Tp, Tm) = duals
    pts = run_trajectory(Hp, x0, 50).points
    for a, b in zip(pts[:-1], pts[1:]):
        got = _left_right_gap(Hp, Hm, a.q, a.p, b.q, b.p)
        want = _left_right_gap(Tp, Tm, a.q, a.p, b.q, b.p)
        assert struct.pack("<d", got) == struct.pack("<d", want)
    # eval, d1 and d2 of each dual along the orbit and at edge values
    starts = [(pt.q.item(), pt.p.item()) for pt in pts]
    edges = (0.0, -0.0, 5e-324, -1e-15, 0.3, -2.5, 1e154, -1e300)
    starts += [(q, p) for q in edges for p in edges]
    with np.errstate(all="ignore"):
        for q, p in starts:
            assert _dual_outcomes(L, q, p) == _dual_outcomes(twin, q, p)
    # the probe's own result
    got = dhj.cli.check_left_right()
    monkeypatch.setattr(dhj.cli, "_free_particle", _array_free_particle)
    want = dhj.cli.check_left_right()
    assert (got.name, got.status, got.detail) == (want.name, want.status, want.detail)
    assert struct.pack("<d", got.measured) == struct.pack("<d", want.measured)


@given(h=st.floats(0.05, 0.5), w2=st.floats(0.1, 3.0), q=st.floats(-2.0, 2.0),
       p=st.floats(-2.0, 2.0), partials=st.booleans())
def test_a_float_pendulum_steps_both_duals_as_its_array_twin(h, w2, q, p, partials):
    assert (_dual_outcomes(float_pendulum(h, w2, partials), q, p)
            == _dual_outcomes(midpoint_pendulum(h, w2, partials=partials), q, p))


_PENDULUM_STARTS = ((0.1, 0.2), (-1.1, 0.4), (0.9, -0.5), (1e-9, 0.0))


def test_lagrangian_dual_step_is_one_solve_on_the_momentum_relation():
    counts = {"d1": 0, "d2": 0}
    L = midpoint_pendulum(0.2, 1.3, counts)
    for side, stepper in ((Side.RIGHT, step_right), (Side.LEFT, step_left)):
        H = hamiltonian_from_lagrangian(L, side)
        for q, p in _PENDULUM_STARTS:
            counts.update(d1=0, d2=0)
            stepper(H, PhasePoint(index=1, q=[q], p=[p]))
            assert counts["d2"] == 1 and counts["d1"] <= 16


def _residual_types(monkeypatch, run) -> list:
    """type(residual(guess)) of every Newton solve that mechanics and hj_vf
    start while run() runs; each solve then goes ahead."""
    seen = []

    def recording(residual, guess, jacobian=None):
        seen.append(type(residual(guess)))
        return newton_solve(residual, guess, jacobian=jacobian)

    with monkeypatch.context() as mp:
        mp.setattr(dhj.mechanics, "newton_solve", recording)
        mp.setattr(dhj.hj_vf, "newton_solve", recording)
        run()
    return seen


def test_one_unknown_residuals_hand_newton_a_float(monkeypatch):
    # each one-unknown residual in src/ is formed over core._unboxed floats
    L = midpoint_pendulum(0.2, 1.3)
    Hp, Hm = (hamiltonian_from_lagrangian(L, side) for side in (Side.RIGHT, Side.LEFT))
    x = PhasePoint(index=1, q=[0.1], p=[0.2])
    a, b = np.array([0.1]), np.array([0.2])
    runs = {
        "step_right on the reduced H": lambda: step_right(cubic_right(), x),
        "step_left on a left H without its L_d":
            lambda: step_left(dataclasses.replace(Hm, lagrangian=None), x),
        "the Lagrangian flow, right": lambda: step_right(Hp, x),
        "the Lagrangian flow, left": lambda: step_left(Hm, x),
        "the right inversion": lambda: Hp.eval(a, b),
        "the left inversion": lambda: Hm.eval(a, b),
        "solve_gamma_generic": lambda: dhj.hj_vf.solve_gamma_generic(cubic_right(),
                                                                    [0.1, 0.09], 0.05),
    }
    for name, run in runs.items():
        seen = _residual_types(monkeypatch, run)
        assert seen and set(seen) == {float}, name


def test_two_unknowns_hand_newton_an_array(monkeypatch):
    from test_lq_orbit import orbit

    seen = _residual_types(monkeypatch, lambda: orbit((0.3, -0.1)))
    assert len(seen) == 20 and set(seen) == {np.ndarray}


def test_an_overflowing_one_unknown_residual_is_inf_without_a_warning(recwarn):
    # D1 L_d + p_j = 1e308 + 1e308 sums in Python floats: inf, no numpy warning
    L = dataclasses.replace(free_particle(), d1=lambda a, b: np.array([1e308]))
    x = PhasePoint(index=1, q=[0.0], p=[1e308])
    with pytest.raises(dhj.core.NumericalError) as exc:
        step_right(hamiltonian_from_lagrangian(L, Side.RIGHT), x)
    assert str(exc.value) == "non-finite residual evaluation at x = [0.]"
    assert exc.value.quantity == math.inf
    assert len(recwarn) == 0


def test_a_float32_partial_sums_in_float64(monkeypatch):
    # D1 L_d + p_j widens a float32 D1 L_d as numpy's promotion does, not
    # rounding the sum back to float32, so Newton still sees the float32
    # model's rounding as a residual and refuses to converge on it
    L = dataclasses.replace(free_particle(),
                            d1=lambda a, b: np.array([0.1], dtype=np.float32))
    values = []

    def recording(residual, guess, jacobian=None):
        values.append(residual(guess))
        return guess

    monkeypatch.setattr(dhj.mechanics, "newton_solve", recording)
    step_right(hamiltonian_from_lagrangian(L, Side.RIGHT), PhasePoint(index=1, q=[0.0],
                                                                       p=[1e-9]))
    want = np.array([0.1], dtype=np.float32) + np.array([1e-9])
    assert values == [want.item()] and type(values[0]) is float


def test_computed_returns_a_finite_one_entry_vector_as_it_is():
    from dhj.mechanics import _computed

    v = np.array([0.25])
    assert _computed(v, 1, "D2 H+") is v
    assert _computed(np.float64(0.25), 1, "D2 H+").tobytes() == v.tobytes()
    for value, dim, shape in ((v, 2, "(1,)"), (v.reshape(1, 1), 1, "(1, 1)")):
        with pytest.raises(ValueError) as exc:
            _computed(value, dim, "D2 H+")
        assert str(exc.value) == f"D2 H+ must have dimension {dim}, got shape {shape}"
    with pytest.raises(dhj.core.NumericalError) as exc:
        _computed(np.array([math.inf]), 1, "D2 H+")
    assert str(exc.value) == "D2 H+ contains non-finite entries: [inf]"
    assert exc.value.quantity == math.inf


def _square_partial(f):
    """f with its one-entry value returned as a (1, 1) array."""
    return lambda a, b: np.asarray(f(a, b)).reshape(1, 1)


def test_a_square_partial_in_a_one_entry_step_is_refused_as_before():
    # the Lagrangian flow, both steppers without it, and both inversions
    L = midpoint_pendulum(0.2, 1.3)
    bad_d1 = dataclasses.replace(L, d1=_square_partial(L.d1))
    bad_d2 = dataclasses.replace(L, d2=_square_partial(L.d2))
    Hr, Hm = cubic_right(), hamiltonian_from_lagrangian(L, Side.LEFT)
    x = PhasePoint(index=1, q=[0.1], p=[0.2])
    a, b = np.array([0.1]), np.array([0.2])
    for run in (lambda: step_right(hamiltonian_from_lagrangian(bad_d1, Side.RIGHT), x),
                lambda: step_right(dataclasses.replace(Hr, d1=_square_partial(Hr.d1)), x),
                lambda: step_left(dataclasses.replace(Hm, lagrangian=None,
                                                      d2=_square_partial(Hm.d2)), x),
                lambda: hamiltonian_from_lagrangian(bad_d2, Side.RIGHT).eval(a, b),
                lambda: hamiltonian_from_lagrangian(bad_d1, Side.LEFT).eval(a, b)):
        with pytest.raises(ValueError) as exc:
            run()
        assert str(exc.value) == ("residual must return a vector of dimension 1, "
                                  "got shape (1, 1)")


def test_right_and_left_duals_take_the_same_step():
    L = midpoint_pendulum(0.2, 1.3)
    Hp = hamiltonian_from_lagrangian(L, Side.RIGHT)
    Hm = hamiltonian_from_lagrangian(L, Side.LEFT)
    tol = dhj.core.TOL
    for q, p in _PENDULUM_STARTS:
        x = PhasePoint(index=1, q=[q], p=[p])
        a, b = step_right(Hp, x), step_left(Hm, x)
        assert a.index == b.index == 2
        assert a.q.tobytes() == b.q.tobytes() and a.p.tobytes() == b.p.tobytes()
        # each dual's partials recover the step through their own inversions
        assert verify_step(Hp, x, a) <= 10 * tol
        assert verify_step(Hm, x, b) <= 10 * tol


def test_midpoint_pendulum_converges_at_second_order_to_rk4():
    # the midpoint L_d samples L = v^2 / 2 - w2 (1 - cos q), whose flow is
    # q' = p, p' = -w2 sin q; RK4 at dt = 1e-4 is the continuous reference
    w2, T = 1.3, 2.0
    x0 = PhasePoint(index=1, q=[0.8], p=[0.0])
    ref = rk4_reference(lambda z: np.array([z[1], -w2 * math.sin(z[0])]), x0, 1e-4,
                        round(T / 1e-4))[-1]
    for side in (Side.RIGHT, Side.LEFT):
        errors = []
        for h in (0.2, 0.1, 0.05, 0.025):
            H = hamiltonian_from_lagrangian(midpoint_pendulum(h, w2), side)
            end = run_trajectory(H, x0, round(T / h)).points[-1]
            errors.append(max(abs(end.q[0] - ref.q[0]), abs(end.p[0] - ref.p[0])))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(3.9 <= r <= 4.1 for r in ratios), (side, errors, ratios)


def test_left_hj_equation_holds_along_the_pendulum_left_dual():
    # the left picture: with S_{j+1} = S_j + L_d(q_j, q_{j+1}) and DS_j = p_j,
    # the left evolution equation vanishes on every transition of the left
    # dual's orbit, and the left Legendre transform -D1 L_d(q_j, q_{j+1})
    # gives back p_j up to the Newton tolerance of the step that found q_{j+1}
    L = midpoint_pendulum(0.1, 1.3)
    Hm = hamiltonian_from_lagrangian(L, Side.LEFT)
    traj = run_trajectory(Hm, PhasePoint(index=1, q=[0.8], p=[0.0]), 30)
    assert traj.meta["truncated"] is False and len(traj) == 31
    eps, tol = np.finfo(float).eps, dhj.core.TOL
    S = 0.0
    for a, b in zip(traj.points[:-1], traj.points[1:]):
        S_next = S + L.eval(a.q, b.q)
        scale = max(1.0, abs(S), abs(S_next), abs(float(a.p @ a.q)))
        assert abs(hj_residual(Hm, S, S_next, a.p, a.q, b.q)) <= 16 * eps * scale
        assert abs(-L.d1(a.q, b.q)[0] - a.p[0]) <= tol * max(1.0, abs(a.p[0]))
        S = S_next


def test_left_field_is_the_left_step_along_the_pendulum_left_dual():
    # the left picture in vector-field form: the left field at (q_next, p_j)
    # is the pair (q_j, p_next) of the step, so the field equation holds at
    # the grid slope Dgamma = p_next / q_j and misses by |q_j| delta at
    # Dgamma + delta
    Hm = hamiltonian_from_lagrangian(midpoint_pendulum(0.1, 1.3), Side.LEFT)
    traj = run_trajectory(Hm, PhasePoint(index=1, q=[0.8], p=[0.0]), 30)
    assert traj.meta["truncated"] is False and len(traj) == 31
    for a, b in zip(traj.points[:-1], traj.points[1:]):
        dq, dp = eval_field(Hm, b.q, a.p)
        assert abs(dq[0] - a.q[0]) <= 1e-10 and abs(dp[0] - b.p[0]) <= 1e-10
        assert a.q[0] != 0.0
        dgamma = b.p[0] / a.q[0]
        assert vf_residual(Hm, b.q, a.p, dgamma) <= 1e-10 * max(1.0, abs(b.p[0]))
        missed = vf_residual(Hm, b.q, a.p, dgamma + 0.1)
        assert abs(missed - 0.1 * abs(a.q[0])) <= 1e-10


# the stable band |q| < 1/sqrt(3), where the cubic's right step is regular
_BAND = st.floats(-0.57, 0.57)


@given(q=_BAND, p=_BAND)
def test_the_shared_step_body_is_each_pre_fold_stepper(q, p):
    x = PhasePoint(index=2, q=[q], p=[p])
    L = midpoint_pendulum(0.1, 1.3, partials=True)
    Hp = cubic_right()
    # a left dual without its L_d steps through H-'s own partials
    Hm = dataclasses.replace(hamiltonian_from_lagrangian(L, Side.LEFT), lagrangian=None)
    # right: p_next solves D1 H+(q_j, p_next) = p_j, then q_next = D2 H+
    p_next = newton_solve(lambda g: Hp.d1(x.q, g) - x.p, x.p, jacobian=lambda g: Hp.d12(x.q, g))
    right = [x.index + 1, Hp.d2(x.q, p_next), p_next]
    # left: q_next solves -D2 H-(q_next, p_j) = q_j, then p_next = -D1 H-
    q_next = newton_solve(lambda g: -Hm.d2(g, x.p) - x.q, x.q)
    left = [x.index + 1, q_next, -Hm.d1(q_next, x.p)]
    # a dual of L_d: q_next solves D1 L_d(q_j, q_next) = -p_j, then p_next = D2 L_d
    q_next = newton_solve(lambda y: L.d1(x.q, y) + x.p, x.q, jacobian=lambda y: L.d12(x.q, y))
    flow = [x.index + 1, q_next, L.d2(x.q, q_next)]
    for got, want in ((step_right(Hp, x), right), (step_left(Hm, x), left),
                      (step_right(hamiltonian_from_lagrangian(L, Side.RIGHT), x), flow),
                      (step_left(hamiltonian_from_lagrangian(L, Side.LEFT), x), flow)):
        assert [got.index, got.q.tobytes(), got.p.tobytes()] == \
            [want[0], want[1].tobytes(), want[2].tobytes()]
