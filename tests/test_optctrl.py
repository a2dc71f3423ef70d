"""Control elimination and the right discrete Hamiltonian built on it."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dhj.optctrl
from dhj.core import TOL, NumericalError, PhasePoint, SingularJacobianError, norm_inf
from dhj.mechanics import Side, run_trajectory
from dhj.optctrl import (
    ControlProblem,
    SignCriterion,
    discretize_right,
    eliminate_control,
    make_sakamoto1d,
    secondary_constraint,
)


def vec(x):
    """x as the one-entry float64 array that the partials and the elimination take."""
    return np.array([x], dtype=float)


def test_secondary_constraint_is_affine_in_control():
    cp = make_sakamoto1d(r=2.0)
    rng = np.random.default_rng(3)
    for _ in range(25):
        q = rng.uniform(-2.0, 2.0, 1)
        p = rng.uniform(-2.0, 2.0, 1)
        u = rng.uniform(-2.0, 2.0, 1)
        phi = secondary_constraint(cp, q, p, u)
        assert phi.shape == (1,)
        assert abs(phi[0] - (p[0] + 2.0 * u[0])) <= 1e-14


_SIGNED = st.sampled_from((0.0, -0.0)) | st.floats(-2.0, 2.0)


@given(q=_SIGNED, p=_SIGNED, u=_SIGNED, sign=st.sampled_from(SignCriterion))
def test_one_entry_constraint_and_d1_are_bitwise_numpys(q, p, u, sign):
    # the Python-float path sums from +0.0 as numpy's matmul does, so a
    # signed zero comes out as numpy's jac.T @ p + sign * grad gives it
    cp = dataclasses.replace(make_sakamoto1d(r=2.0, s=0.5), sign=sign)
    q, p, u = vec(q), vec(p), vec(u)
    want = cp.du_gamma(q, u).T @ p + sign.factor * cp.du_cost(q, u)
    assert secondary_constraint(cp, q, p, u).tobytes() == want.tobytes()
    u = eliminate_control(cp, q, p)
    want = cp.dq_gamma(q, u).T @ p + sign.factor * cp.dq_cost(q, u)
    assert discretize_right(cp).d1(q, p).tobytes() == want.tobytes()


def test_eliminate_control_exact_for_quadratic_cost():
    # without the supplied control, the affine shortcut lands within an ulp
    # of -p / r (the probe's (p + r) - p difference can carry one rounding)
    for r in (1.0, 2.0):
        cp = dataclasses.replace(make_sakamoto1d(r=r), control=None)
        rng = np.random.default_rng(17)
        for _ in range(20):
            q = rng.uniform(-1.5, 1.5, 1)
            p = rng.uniform(-1.5, 1.5, 1)
            u = eliminate_control(cp, q, p)
            assert abs(u[0] - (-p[0] / r)) <= 1e-15
            assert norm_inf(secondary_constraint(cp, q, p, u)) <= 1e-10


def test_eliminate_control_newton_fallback_quartic_cost():
    # quartic cost term makes the constraint p + u + 0.1 u^3 = 0 cubic in u
    cp = ControlProblem(
        gamma=lambda q, u: np.array([q[0] - q[0] ** 3 + u[0]]),
        cost=lambda q, u: 0.5 * u[0] ** 2 + 0.025 * u[0] ** 4,
        du_gamma=lambda q, u: np.array([[1.0]]),
        du_cost=lambda q, u: np.array([u[0] + 0.1 * u[0] ** 3]),
        sign=SignCriterion.PLUS,
        n=1,
        k=1,
    )
    u = eliminate_control(cp, vec(0.1), vec(0.5))
    assert abs(u[0] - (-0.4883533127285651)) <= 1e-12
    assert norm_inf(secondary_constraint(cp, vec(0.1), vec(0.5), u)) <= 1e-12


def test_eliminate_control_falls_through_to_newton_on_a_singular_affine_matrix(monkeypatch):
    # two controls that enter only as u0 + u1: phi = (p + u0 + u1) * (1, 1) is
    # affine in u with the singular matrix [[1, 1], [1, 1]], so the linear
    # solve raises and Newton runs from zero
    cp = ControlProblem(
        gamma=lambda q, u: np.array([u[0] + u[1]]),
        cost=lambda q, u: 0.5 * (u[0] + u[1]) ** 2,
        du_gamma=lambda q, u: np.array([[1.0, 1.0]]),
        du_cost=lambda q, u: np.array([u[0] + u[1], u[0] + u[1]]),
        sign=SignCriterion.PLUS,
        n=1,
        k=2,
    )
    guesses = []
    newton_solve = dhj.optctrl.newton_solve

    def counted(residual, guess, *args, **kwargs):
        guesses.append(guess.tolist())
        return newton_solve(residual, guess, *args, **kwargs)

    monkeypatch.setattr(dhj.optctrl, "newton_solve", counted)
    # at p = 0 the zero guess already solves it
    assert eliminate_control(cp, vec(0.1), vec(0.0)).tolist() == [0.0, 0.0]
    # elsewhere Newton meets the same singular matrix
    with pytest.raises(SingularJacobianError):
        eliminate_control(cp, vec(0.1), vec(0.5))
    assert guesses == [[0.0, 0.0], [0.0, 0.0]]


def test_minus_criterion_flips_control_sign():
    cp = dataclasses.replace(make_sakamoto1d(r=2.0), sign=SignCriterion.MINUS)
    u = eliminate_control(cp, vec(0.1), vec(0.5))
    assert abs(u[0] - 0.25) <= 1e-15
    assert SignCriterion.PLUS.factor == 1.0
    assert SignCriterion.MINUS.factor == -1.0


def test_reduce_matches_hand_formula_nonunit_weights():
    r, s = 2.0, 0.5
    H = discretize_right(make_sakamoto1d(r=r, s=s))
    rng = np.random.default_rng(23)
    for _ in range(30):
        q = rng.uniform(-2.0, 2.0, 1)
        p = rng.uniform(-2.0, 2.0, 1)
        want = (p[0] * (q[0] - q[0] ** 3) - p[0] ** 2 / (2.0 * r)
                + 0.5 * s * q[0] ** 2)
        assert abs(H.eval(q, p) - want) <= 1e-12
        # d2 = Gamma(q, u*) with u* = -p / r
        assert abs(H.d2(q, p)[0] - (q[0] - q[0] ** 3 - p[0] / r)) <= 1e-15 * (1.0 + abs(q[0]) ** 3)


def test_reduce_envelope_partials_match_finite_differences():
    H = discretize_right(make_sakamoto1d(r=2.0, s=0.5))
    rng = np.random.default_rng(29)
    from dhj.core import fd_gradient

    for _ in range(50):
        q = rng.uniform(-2.0, 2.0, 1)
        p = rng.uniform(-2.0, 2.0, 1)
        dq = np.asarray(H.d1(q, p), dtype=float)
        dp = np.asarray(H.d2(q, p), dtype=float)
        fd_q = fd_gradient(lambda z: H.eval(z, p), q, 1e-6)
        fd_p = fd_gradient(lambda z: H.eval(q, z), p, 1e-6)
        assert norm_inf(dq - fd_q) <= 1e-6
        assert norm_inf(dp - fd_p) <= 1e-6


def test_reduction_fidelity_on_grid():
    H = discretize_right(make_sakamoto1d())
    for q in np.linspace(-2.0, 2.0, 21):
        for p in np.linspace(-2.0, 2.0, 21):
            want = p * (q - q ** 3) - 0.5 * p ** 2 + 0.5 * q ** 2
            scale = max(1.0, abs(want))
            assert abs(H.eval(vec(q), vec(p)) - want) <= 1e-13 * scale


def test_discretize_right_is_pointwise():
    # H+(q_j, p_next) is the eliminated Hamiltonian at (q_j, p_next), no step factor
    H = discretize_right(make_sakamoto1d())
    assert H.side is Side.RIGHT
    assert H.dim == 1
    rng = np.random.default_rng(31)
    for _ in range(20):
        q = rng.uniform(-1.5, 1.5, 1)
        p = rng.uniform(-1.5, 1.5, 1)
        want = p[0] * (q[0] - q[0] ** 3) - 0.5 * p[0] ** 2 + 0.5 * q[0] ** 2
        assert abs(H.eval(q, p) - want) <= 1e-13 * max(1.0, abs(want))
        d1 = np.asarray(H.d1(q, p), dtype=float)
        d2 = np.asarray(H.d2(q, p), dtype=float)
        assert abs(d1[0] - ((1.0 - 3.0 * q[0] ** 2) * p[0] + q[0])) <= 1e-10
        assert abs(d2[0] - (q[0] - q[0] ** 3 - p[0])) <= 1e-10


def test_discretize_right_fd_fallback_without_state_partials():
    # same dynamics and cost, but no analytic state partials supplied: the
    # slot partials must come out of central differences to fd accuracy
    r, s = 1.0, 1.0
    cp = ControlProblem(
        gamma=lambda q, u: np.array([q[0] - q[0] ** 3 + u[0]]),
        cost=lambda q, u: 0.5 * (s * q[0] ** 2 + r * u[0] ** 2),
        du_gamma=lambda q, u: np.array([[1.0]]),
        du_cost=lambda q, u: np.array([r * u[0]]),
        sign=SignCriterion.PLUS,
        n=1,
        k=1,
    )
    H = discretize_right(cp)
    rng = np.random.default_rng(37)
    for _ in range(10):
        q = rng.uniform(-1.0, 1.0, 1)
        p = rng.uniform(-1.0, 1.0, 1)
        d1 = np.asarray(H.d1(q, p), dtype=float)
        assert abs(d1[0] - ((1.0 - 3.0 * q[0] ** 2) * p[0] + q[0])) <= 1e-6


def test_recover_controls_roundtrip():
    # u_j solves phi(q_j, p_next, u) = 0 in the step pairing, u = -p_next / r
    cp = make_sakamoto1d()
    H = discretize_right(cp)
    traj = run_trajectory(H, PhasePoint(index=1, q=[0.05], p=[-0.02]), 5)
    assert len(traj) == 6
    for a, b in zip(traj.points[:-1], traj.points[1:]):
        u = eliminate_control(cp, a.q, b.p)
        assert abs(u[0] - (-b.p[0])) <= 1e-14


def test_sakamoto1d_weight_validation():
    cp = make_sakamoto1d(r=3.0, s=2.0)
    assert cp.n == 1 and cp.k == 1
    with pytest.raises(ValueError):
        make_sakamoto1d(r=0.0)
    with pytest.raises(ValueError):
        make_sakamoto1d(s=-1.0)


def test_control_problem_validates_sign():
    with pytest.raises(ValueError):
        ControlProblem(
            gamma=lambda q, u: np.zeros(1),
            cost=lambda q, u: 0.0,
            du_gamma=lambda q, u: np.zeros((1, 1)),
            du_cost=lambda q, u: np.zeros(1),
            sign="plus",
            n=1,
            k=1,
        )


def _probed_reference(cp, q, p):
    """eval, d1 and d2 of the right discrete Hamiltonian, built on an
    elimination that probes the constraint afresh on every call."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    u = eliminate_control(cp, q, p)
    vel = np.asarray(cp.gamma(q, u), dtype=float)
    val = float(p @ vel) + cp.sign.factor * float(cp.cost(q, u))
    jac = np.asarray(cp.dq_gamma(q, u), dtype=float).reshape(cp.n, cp.n)
    d1 = jac.T @ p + cp.sign.factor * np.asarray(cp.dq_cost(q, u), dtype=float)
    return val, d1, vel


# p = 0 comes first, where a curved constraint reads affine in u; the small
# momenta are where a curved constraint's linear candidate would pass
# verification although the probe rejects it.
_GRID_Q = (-1.5, -0.4, 0.0, 0.3, 1.2)
_GRID_P = (0.0, -0.5, -1e-3, -1e-5, 1e-9, 1e-4, 0.02, 0.45)


def _assert_bitwise_equal_to_probed(cp):
    H = discretize_right(cp)
    for q in _GRID_Q:
        for p in _GRID_P:
            val, d1, d2 = _probed_reference(cp, [q], [p])
            assert H.eval(vec(q), vec(p)) == val
            assert np.array_equal(H.d1(vec(q), vec(p)), d1)
            assert np.array_equal(H.d2(vec(q), vec(p)), d2)


@pytest.mark.parametrize("sign", [SignCriterion.PLUS, SignCriterion.MINUS])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_reduced_hamiltonian_bitwise_equals_per_call_probe(r, s, sign):
    _assert_bitwise_equal_to_probed(dataclasses.replace(make_sakamoto1d(r=r, s=s), sign=sign))


def test_curved_constraint_is_probed_at_every_momentum():
    # phi = p (1 + 0.3 u^2) + u is curved in u, but at p = 0 it reads u, so an
    # affinity decided there would hand the later momenta a wrong linear solve
    cp = ControlProblem(
        gamma=lambda q, u: np.array([q[0] - q[0] ** 3 + u[0] + 0.1 * u[0] ** 3]),
        cost=lambda q, u: 0.5 * (q[0] ** 2 + u[0] ** 2),
        du_gamma=lambda q, u: np.array([[1.0 + 0.3 * u[0] ** 2]]),
        du_cost=lambda q, u: np.array([u[0]]),
        sign=SignCriterion.PLUS,
        n=1,
        k=1,
        dq_gamma=lambda q, u: np.array([[1.0 - 3.0 * q[0] ** 2]]),
        dq_cost=lambda q, u: np.array([q[0]]),
    )
    _assert_bitwise_equal_to_probed(cp)


def test_one_slot_partial_evaluates_the_constraint_at_most_three_times():
    base = make_sakamoto1d()
    calls = []

    def du_gamma(q, u):
        calls.append(1)
        return base.du_gamma(q, u)

    H = discretize_right(dataclasses.replace(base, du_gamma=du_gamma))
    H.d1(vec(0.2), vec(-0.3))  # warm-up
    for q, p in ((0.05, -0.02), (-0.7, 1.3), (0.4, 0.0)):
        calls.clear()
        H.d1(vec(q), vec(p))
        assert len(calls) <= 3


def _quartic_cost_problem():
    # phi = p + u + 0.1 u^3 is curved in u, so elimination always runs Newton
    return ControlProblem(
        gamma=lambda q, u: np.array([q[0] - q[0] ** 3 + u[0]]),
        cost=lambda q, u: 0.5 * u[0] ** 2 + 0.025 * u[0] ** 4,
        du_gamma=lambda q, u: np.array([[1.0]]),
        du_cost=lambda q, u: np.array([u[0] + 0.1 * u[0] ** 3]),
        sign=SignCriterion.PLUS,
        n=1,
        k=1,
    )


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_eliminate_control_names_the_non_finite_argument():
    with pytest.raises(NumericalError, match="^p contains non-finite"):
        eliminate_control(make_sakamoto1d(), vec(0.1), vec(float("nan")))
    with pytest.raises(NumericalError, match="^q contains non-finite"):
        eliminate_control(_quartic_cost_problem(), vec(float("inf")), vec(0.5))
    # phi of the benchmark does not depend on q: the affine solve is accepted
    assert eliminate_control(make_sakamoto1d(), vec(float("inf")), vec(0.1))[0] == -0.1


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("cp", [make_sakamoto1d(), _quartic_cost_problem()])
def test_non_finite_iterate_in_reduced_hamiltonian_is_a_numerical_error(cp):
    H = discretize_right(cp)
    H.d2(vec(0.2), vec(-0.3))
    with pytest.raises(NumericalError, match="^p contains non-finite"):
        H.d2(vec(0.1), vec(float("nan")))
    with pytest.raises(NumericalError, match="^p contains non-finite"):
        H.d2(vec(0.1), vec(float("-inf")))


def test_d2_bitwise_equals_a_fresh_elimination():
    # the cached control is keyed on the bytes of q and p, so -0.0 and 0.0
    # are distinct keys; a repeated point reuses the control of its first call
    for r, s in ((0.5, 2.0), (1.0, 1.0), (2.0, 0.5)):
        cp = make_sakamoto1d(r=r, s=s)
        H = discretize_right(cp)
        for q, p in ((0.2, -0.3), (0.2, -0.3), (0.2, 0.7), (-0.4, 0.7), (-0.4, 0.7),
                     (0.0, -0.0), (0.0, 0.0), (0.2, -0.3)):
            want = np.asarray(cp.gamma(np.array([q]), eliminate_control(cp, vec(q), vec(p))))
            assert np.array_equal(H.d2(vec(q), vec(p)), want)


def test_shared_control_reaches_the_callbacks_read_only():
    base = make_sakamoto1d()
    writeable = []

    def gamma(q, u):
        writeable.append(u.flags.writeable)
        return base.gamma(q, u)

    H = discretize_right(dataclasses.replace(base, gamma=gamma))
    H.eval(vec(0.2), vec(-0.3))
    H.d2(vec(0.2), vec(-0.3))
    assert writeable == [False, False]


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_mixed_partial_matches_central_differences_of_d1(r, s):
    H = discretize_right(make_sakamoto1d(r=r, s=s))
    step = 1e-6
    for q in np.linspace(-1.5, 1.5, 7):
        for p in np.linspace(-2.0, 2.0, 9):
            fd = (H.d1(vec(q), vec(p + step)) - H.d1(vec(q), vec(p - step))) / (2.0 * step)
            d12 = H.d12(vec(q), vec(p))
            assert d12.shape == (1, 1)
            assert abs(d12[0, 0] - fd[0]) <= 1e-8 * max(1.0, abs(fd[0]))


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_second_momentum_partial_matches_central_differences_of_d2(r, s):
    H = discretize_right(make_sakamoto1d(r=r, s=s))
    step = 1e-6
    for q in np.linspace(-1.5, 1.5, 7):
        for p in np.linspace(-2.0, 2.0, 9):
            fd = (H.d2(vec(q), vec(p + step)) - H.d2(vec(q), vec(p - step))) / (2.0 * step)
            d22 = H.d22(vec(q), vec(p))
            assert d22.shape == (1, 1)
            assert abs(d22[0, 0] - fd[0]) <= 1e-8 * max(1.0, abs(fd[0]))


# The elimination's acceptance test, max(tol, 1e-13 |p|), at the default tol.
def _accepts(cp, q, p, u):
    return norm_inf(secondary_constraint(cp, vec(q), vec(p), u)) <= max(1e-12, 1e-13 * abs(p))


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_supplied_control_agrees_with_probe_and_solve(r, s):
    cp = make_sakamoto1d(r=r, s=s)
    probed = dataclasses.replace(cp, control=None)
    for q in np.linspace(-0.55, 0.55, 7):
        for p in np.linspace(-2.0, 2.0, 13):
            u = eliminate_control(cp, vec(q), vec(p))
            v = eliminate_control(probed, vec(q), vec(p))
            assert _accepts(cp, q, p, u) and _accepts(cp, q, p, v)
            assert abs(u[0] - v[0]) <= 4 * math.ulp(p / r)


@pytest.mark.parametrize("wrong", [lambda q, p, r: -2.0 * p / r,
                                   lambda q, p, r: np.full(1, np.nan)])
def test_wrong_supplied_control_falls_back_to_probe_and_solve(wrong):
    for r, s in ((0.5, 2.0), (1.0, 1.0), (2.0, 0.5)):
        cp = make_sakamoto1d(r=r, s=s)
        probed = dataclasses.replace(cp, control=None)
        bad = dataclasses.replace(cp, control=lambda q, p: wrong(q, p, r))
        H, H_probed = discretize_right(bad), discretize_right(probed)
        for q, p in ((0.2, -0.3), (-0.4, 0.7), (0.05, 1.9), (0.3, 1e-9)):
            want = eliminate_control(probed, vec(q), vec(p))
            assert np.array_equal(eliminate_control(bad, vec(q), vec(p)), want)
            assert _accepts(cp, q, p, want)
            assert H.eval(vec(q), vec(p)) == H_probed.eval(vec(q), vec(p))
            assert np.array_equal(H.d2(vec(q), vec(p)), H_probed.d2(vec(q), vec(p)))


def test_supplied_control_skips_the_affinity_probe():
    # one constraint evaluation per elimination while the supplied control
    # holds; a miss probes the constraint at that point and then solves
    base = make_sakamoto1d(r=2.0)
    calls = []

    def du_gamma(q, u):
        calls.append(1)
        return base.du_gamma(q, u)

    H = discretize_right(dataclasses.replace(base, du_gamma=du_gamma))
    for q, p in ((0.2, -0.3), (-0.4, 0.7), (0.1, 0.0)):
        calls.clear()
        H.d1(vec(q), vec(p))
        assert len(calls) == 1
    missing = discretize_right(dataclasses.replace(base, du_gamma=du_gamma,
                                                   control=lambda q, p: 2.0 * p))
    for q, p in ((0.2, -0.3), (0.1, 0.4)):
        calls.clear()
        missing.d1(vec(q), vec(p))
        assert len(calls) == 1 + 4  # candidate, phi(0), phi(1), phi(2), verification


_ABOVE_TOL = math.nextafter(TOL, math.inf)


@pytest.mark.parametrize("jac, p, gap, accepted", [
    (0.0, 0.0, TOL, True),                # at TOL itself
    (0.0, 20.0, _ABOVE_TOL, True),        # past TOL, within 1e-13 |p| = 2e-12
    (0.0, 1.0, _ABOVE_TOL, False),        # the same gap past both
    (0.0, 1e6, 1e-6, False),              # past 1e-13 |p| = 1e-7 too
    (1.0, math.inf, 0.0, True),           # phi = p: an infinite gap, an infinite threshold
    (1.0, -math.inf, 0.0, True),
    (0.0, 1.0, math.nan, False),          # a NaN gap is never accepted
])
def test_supplied_control_is_accepted_exactly_within_the_threshold(jac, p, gap, accepted):
    # phi = (0.0 + jac p) + u, so the supplied control [gap] misses phi = 0 by
    # |phi| = gap for jac = 0; the rule is |phi| <= max(TOL, 1e-13 |p|)
    supplied = vec(gap)
    cp = ControlProblem(gamma=lambda q, u: u, cost=lambda q, u: 0.5 * u.item() ** 2,
                        du_gamma=lambda q, u: np.array([[jac]]), du_cost=lambda q, u: u,
                        sign=SignCriterion.PLUS, n=1, k=1, control=lambda q, p: supplied)
    measured = abs((0.0 + jac * p) + gap)
    assert (measured <= max(TOL, 1e-13 * abs(p))) is accepted
    u = eliminate_control(cp, vec(0.3), vec(p))
    if accepted:
        assert u is supplied
    else:
        # the affine path: one linear solve of phi(u) = u = 0
        assert u is not supplied and u.tolist() == [0.0]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_iterate_after_a_missed_control_is_a_numerical_error():
    cp = dataclasses.replace(make_sakamoto1d(), control=lambda q, p: np.full(1, np.nan))
    H = discretize_right(cp)
    with pytest.raises(NumericalError, match="^p contains non-finite"):
        H.d2(vec(0.1), vec(float("nan")))
    assert H.d2(vec(0.1), vec(0.5))[0] == 0.1 - 0.1**3 - 0.5


@given(q=st.floats(-0.5773, 0.5773), p=st.floats(-2.0, 2.0),
       r=st.sampled_from((0.5, 1.0, 2.0, 0.3, 3.7)))
def test_eliminated_control_is_the_exact_quotient_to_an_ulp(q, p, r):
    # the oracle is the rational -p / r, rounded once
    u = eliminate_control(make_sakamoto1d(r=r), vec(q), vec(p))
    exact = -Fraction(p) / Fraction(r)
    assert abs(Fraction(float(u[0])) - exact) <= Fraction(math.ulp(float(exact)))
