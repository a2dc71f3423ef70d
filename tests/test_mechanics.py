"""Discrete Lagrangian/Hamiltonian structures and one-step maps."""

import dataclasses
import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dhj.optctrl
from dhj.cli import _free_particle
from dhj.core import (NewtonConfig, NumericalError, PhasePoint, SingularJacobianError,
                      fd_jacobian, newton_solve)
from dhj.hj_flow import hj_residual
from dhj.hj_vf import eval_field, vf_residual
from dhj.mechanics import (
    DiscreteHamiltonian,
    DiscreteLagrangian,
    Side,
    del_step,
    hamiltonian_from_lagrangian,
    left_right_relation_residual,
    legendre,
    run_trajectory,
    step_left,
    step_right,
    symplecticity_defect,
    verify_step,
)
from dhj.optctrl import discretize_right, make_sakamoto1d
from test_oracles import rk4_reference


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


def test_legendre_transforms_free_particle():
    L = free_particle()
    right = legendre(L, Side.RIGHT, [0.3], [0.5])
    left = legendre(L, Side.LEFT, [0.3], [0.5])
    assert abs(right.p[0] - 0.2) <= 1e-15
    assert abs(left.p[0] - 0.2) <= 1e-15
    assert right.q[0] == 0.5 and left.q[0] == 0.3
    assert right.index == 2 and left.index == 1


def test_legendre_momenta_match_one_forms():
    # the discrete one-forms at a pair: theta+ = D2 L_d, theta- = -D1 L_d
    L = quadratic_lagrangian()
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.uniform(-1.0, 1.0, 1)
        b = rng.uniform(-1.0, 1.0, 1)
        assert abs(legendre(L, Side.RIGHT, a, b).p[0] - L.d2(a, b)[0]) <= 1e-15
        assert abs(legendre(L, Side.LEFT, a, b).p[0] - (-L.d1(a, b)[0])) <= 1e-15


def test_del_step_free_particle_extrapolates():
    q2 = del_step(free_particle(), [0.1], [0.3])
    assert abs(q2[0] - 0.5) <= 1e-12


def test_del_step_satisfies_stationarity():
    L = quadratic_lagrangian()
    q2 = del_step(L, [0.2], [0.35])
    res = L.d2([0.2], [0.35]) + L.d1([0.35], q2)
    assert abs(res[0]) <= 1e-10


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


def test_non_finite_points_from_the_caller_stay_value_errors():
    L = free_particle()
    with pytest.raises(ValueError, match="^q contains non-finite"):
        PhasePoint(index=1, q=[math.inf], p=[0.0])
    with pytest.raises(ValueError, match="^q_j contains non-finite"):
        legendre(L, Side.RIGHT, [math.nan], [0.0])
    with pytest.raises(ValueError, match="^q_next contains non-finite"):
        legendre(L, Side.LEFT, [0.0], [math.inf])
    with pytest.raises(ValueError, match="^q_prev contains non-finite"):
        del_step(L, [math.nan], [0.0])
    # a non-finite value the model computes is the step's NumericalError
    with pytest.raises(NumericalError, match=r"^D2 L_d contains non-finite entries: \[inf\]$"):
        legendre(_escaping_lagrangian(), Side.RIGHT, [0.0], [0.1])
    with pytest.raises(NumericalError, match=r"^D2 L_d contains non-finite entries: \[inf\]$"):
        del_step(_escaping_lagrangian(), [0.0], [0.1])


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


def test_symplecticity_probe_that_overflows_stays_an_error():
    # the probe q + fd_step = 2e308 is inf: no step is taken from it
    H = hamiltonian_from_lagrangian(free_particle(), Side.RIGHT)
    with pytest.raises(ValueError, match=r"^fd_step 1e\+308 overflows the probes around \["):
        symplecticity_defect(H, PhasePoint(index=1, q=[1e308], p=[0.0]), fd_step=1e308)


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


def test_run_trajectory_validation():
    H = cubic_right()
    with pytest.raises(ValueError):
        run_trajectory(H, PhasePoint(index=1, q=[0.1], p=[0.0]), -1)
    # zero steps is legal and returns just the seed point
    traj = run_trajectory(H, PhasePoint(index=1, q=[0.1], p=[0.0]), 0)
    assert len(traj) == 1


def test_hamiltonian_from_lagrangian_uses_newton_config():
    L = quadratic_lagrangian()
    H = hamiltonian_from_lagrangian(L, Side.RIGHT, NewtonConfig(tol=1e-13))
    x = PhasePoint(index=1, q=[0.2], p=[0.1])
    nxt = step_right(H, x)
    assert verify_step(H, x, nxt) <= 1e-10


# The benchmark's unit weights and the six non-unit (r, s) of the comparisons.
_WEIGHTS = ((1.0, 1.0), (2.0, 1.0), (0.5, 1.0), (1.0, 2.0), (1.0, 0.5), (2.0, 0.5), (0.5, 2.0))


def _exact_step_error(q, p, q_next, p_next, r, s):
    """Relative miss of one transition against the step map in rationals,
    p' = (p - s q) / (1 - 3 q^2), q' = q - q^3 - p' / r."""
    q, p, r, s = (Fraction(v) for v in (q, p, r, s))
    ep = (p - s * q) / (1 - 3 * q * q)
    eq = q - q**3 - ep / r
    mag = max(abs(q), abs(p), abs(eq), abs(ep))
    return float(max(abs(Fraction(q_next) - eq), abs(Fraction(p_next) - ep)) / mag)


@pytest.mark.parametrize("r, s", _WEIGHTS)
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
                worst = max(worst, _exact_step_error(a.q[0], a.p[0], b.q[0], b.p[0], r, s))
    assert worst <= 1e-13


@pytest.mark.parametrize("r, s", _WEIGHTS)
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
                    worst = max(worst, _exact_step_error(a.q[0], a.p[0], b.q[0], b.p[0], r, s))
    assert worst <= 1e-12


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
    H = discretize_right(make_sakamoto1d(r=2.0, s=0.5))
    for q, p in ((0.05, -0.02), (-0.4, 0.3), (0.3, 0.0)):
        calls.clear()
        step_right(H, PhasePoint(index=1, q=[q], p=[p]), NewtonConfig(max_iter=1))
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


def test_del_step_with_the_mixed_partial_finds_the_same_root():
    plain, exact = midpoint_pendulum(0.2, 1.3), midpoint_pendulum(0.2, 1.3, partials=True)
    for q_prev, q_j in ((0.1, 0.15), (-1.0, -0.9), (0.7, 0.5)):
        a, b = np.array([q_prev]), np.array([q_j])
        assert abs(del_step(exact, a, b)[0] - del_step(plain, a, b)[0]) <= 1e-13


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


def test_right_and_left_duals_take_the_same_step():
    L = midpoint_pendulum(0.2, 1.3)
    Hp = hamiltonian_from_lagrangian(L, Side.RIGHT)
    Hm = hamiltonian_from_lagrangian(L, Side.LEFT)
    tol = NewtonConfig().tol
    for q, p in _PENDULUM_STARTS:
        x = PhasePoint(index=1, q=[q], p=[p])
        a, b = step_right(Hp, x), step_left(Hm, x)
        assert a.index == b.index == 2
        assert a.q.tobytes() == b.q.tobytes() and a.p.tobytes() == b.p.tobytes()
        # each dual's partials recover the step through their own inversions
        assert verify_step(Hp, x, a) <= 10 * tol
        assert verify_step(Hm, x, b) <= 10 * tol


def test_del_step_is_the_stationarity_solve_bit_for_bit():
    L = midpoint_pendulum(0.2, 1.3)
    for q_prev, q_j in ((0.1, 0.15), (-1.0, -0.9), (0.7, 0.5)):
        a, b = np.array([q_prev]), np.array([q_j])
        const = L.d2(a, b)
        want = newton_solve(lambda y: const + L.d1(b, y), 2.0 * b - a)
        assert del_step(L, a, b).tobytes() == want.tobytes()


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
    # dual's orbit, and the left Legendre transform of (q_j, q_{j+1}) gives
    # back p_j up to the Newton tolerance of the step that found q_{j+1}
    L = midpoint_pendulum(0.1, 1.3)
    Hm = hamiltonian_from_lagrangian(L, Side.LEFT)
    traj = run_trajectory(Hm, PhasePoint(index=1, q=[0.8], p=[0.0]), 30)
    assert traj.meta["truncated"] is False and len(traj) == 31
    eps, tol = np.finfo(float).eps, NewtonConfig().tol
    S = 0.0
    for a, b in zip(traj.points[:-1], traj.points[1:]):
        S_next = S + L.eval(a.q, b.q)
        scale = max(1.0, abs(S), abs(S_next), abs(float(a.p @ a.q)))
        assert abs(hj_residual(Hm, S, S_next, a.p, a.q, b.q)) <= 16 * eps * scale
        assert abs(legendre(L, Side.LEFT, a.q, b.q).p[0] - a.p[0]) <= tol * max(1.0, abs(a.p[0]))
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


@given(a=_BAND, b=_BAND)
def test_legendre_is_each_pre_fold_transform(a, b):
    # legendre_right gave (q_next, D2 L_d) at index + 1, legendre_left
    # (q_j, -D1 L_d) at index
    L = midpoint_pendulum(0.1, 1.3)
    q_j, q_next = np.array([a]), np.array([b])
    right, left = legendre(L, Side.RIGHT, q_j, q_next, 3), legendre(L, Side.LEFT, q_j, q_next, 3)
    assert (right.index, right.q.tobytes(), right.p.tobytes()) == \
        (4, q_next.tobytes(), L.d2(q_j, q_next).tobytes())
    assert (left.index, left.q.tobytes(), left.p.tobytes()) == \
        (3, q_j.tobytes(), (-L.d1(q_j, q_next)).tobytes())


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
