"""Control elimination and the right discrete Hamiltonian built on it."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dhj.core import TOL, NumericalError, PhasePoint, _power, norm_inf
from dhj.mechanics import Side, run_trajectory
from dhj.optctrl import (
    ControlProblem,
    SignCriterion,
    discretize_right,
    eliminate_control,
    make_sakamoto1d,
    secondary_constraint,
)
from test_mechanics import WEIGHTS


def vec(x):
    """x as the one-entry float64 array that the partials and the elimination take."""
    return np.array([x], dtype=float)


def with_sign(cp, sign):
    """The benchmark cp under sign, its control flipped with it: the root of
    phi = p + sign r u is u = -sign p / r, and negation is exact."""
    if sign is SignCriterion.PLUS:
        return cp
    plus = cp.control
    return dataclasses.replace(cp, sign=sign, control=lambda q, p: -plus(q, p))


def test_secondary_constraint_is_affine_in_control():
    cp = make_sakamoto1d(r=2.0)
    rng = np.random.default_rng(3)
    for _ in range(25):
        q = rng.uniform(-2.0, 2.0, 1)
        p = rng.uniform(-2.0, 2.0, 1)
        u = rng.uniform(-2.0, 2.0, 1)
        phi = secondary_constraint(cp, q, p, u)
        assert type(phi) is float
        assert abs(phi - (p[0] + 2.0 * u[0])) <= 1e-14


_SIGNED = st.sampled_from((0.0, -0.0)) | st.floats(-2.0, 2.0)


@given(q=_SIGNED, p=_SIGNED, u=_SIGNED, sign=st.sampled_from(SignCriterion))
def test_one_entry_constraint_and_d1_are_bitwise_numpys(q, p, u, sign):
    # the Python-float path sums from +0.0 as numpy's matmul does, so a
    # signed zero comes out as numpy's jac.T @ p + sign * grad gives it; the
    # model's float partials are boxed here to form numpy's value
    cp = with_sign(make_sakamoto1d(r=2.0, s=0.5), sign)
    q, p, u = vec(q), vec(p), vec(u)
    want = np.array([[cp.du_gamma(q, u)]]).T @ p + sign.factor * vec(cp.du_cost(q, u))
    phi = secondary_constraint(cp, q, p, u)
    assert type(phi) is float and vec(phi).tobytes() == want.tobytes()
    u = eliminate_control(cp, q, p)
    want = np.array([[cp.dq_gamma(q, u)]]).T @ p + sign.factor * vec(cp.dq_cost(q, u))
    d1 = discretize_right(cp).d1(q, p)
    assert type(d1) is float and vec(d1).tobytes() == want.tobytes()


def test_eliminate_control_exact_for_quadratic_cost():
    # the supplied control -p / r is the constraint's root to one rounding
    for r in (1.0, 2.0):
        cp = make_sakamoto1d(r=r)
        rng = np.random.default_rng(17)
        for _ in range(20):
            q = rng.uniform(-1.5, 1.5, 1)
            p = rng.uniform(-1.5, 1.5, 1)
            u = eliminate_control(cp, q, p)
            assert u == -p[0] / r
            assert norm_inf(secondary_constraint(cp, q, p, u)) <= 1e-15


def test_minus_criterion_flips_control_sign():
    cp = with_sign(make_sakamoto1d(r=2.0), SignCriterion.MINUS)
    u = eliminate_control(cp, vec(0.1), vec(0.5))
    assert u == 0.25
    assert secondary_constraint(cp, vec(0.1), vec(0.5), u) == 0.0
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
        assert abs(H.d2(q, p) - (q[0] - q[0] ** 3 - p[0] / r)) <= 1e-15 * (1.0 + abs(q[0]) ** 3)


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
        assert abs(H.d1(q, p) - ((1.0 - 3.0 * q[0] ** 2) * p[0] + q[0])) <= 1e-10
        assert abs(H.d2(q, p) - (q[0] - q[0] ** 3 - p[0])) <= 1e-10


def test_recover_controls_roundtrip():
    # u_j solves phi(q_j, p_next, u) = 0 in the step pairing, u = -p_next / r
    cp = make_sakamoto1d()
    H = discretize_right(cp)
    traj = run_trajectory(H, PhasePoint(index=1, q=[0.05], p=[-0.02]), 5)
    assert len(traj) == 6
    for a, b in zip(traj.points[:-1], traj.points[1:]):
        u = eliminate_control(cp, a.q, b.p)
        assert abs(u - (-b.p[0])) <= 1e-14


def test_sakamoto1d_weight_validation():
    cp = make_sakamoto1d(r=3.0, s=2.0)
    assert cp.n == 1
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
            control=lambda q, p: 0.0,
            dq_gamma=lambda q, u: np.zeros((1, 1)),
            dq_cost=lambda q, u: np.zeros(1),
        )


def _fresh_reference(cp, q, p):
    """eval, d1 and d2 of the right discrete Hamiltonian, built on a fresh
    elimination at every call, with no shared control."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    u = eliminate_control(cp, q, p)
    vel = np.asarray(cp.gamma(q, u), dtype=float).reshape(cp.n)
    val = float(p @ vel) + cp.sign.factor * float(cp.cost(q, u))
    jac = np.asarray(cp.dq_gamma(q, u), dtype=float).reshape(cp.n, cp.n)
    d1 = jac.T @ p + cp.sign.factor * np.asarray(cp.dq_cost(q, u), dtype=float)
    return val, d1, vel


# p = 0 and the small momenta are where the acceptance threshold is TOL.
_GRID_Q = (-1.5, -0.4, 0.0, 0.3, 1.2)
_GRID_P = (0.0, -0.5, -1e-3, -1e-5, 1e-9, 1e-4, 0.02, 0.45)


def _assert_bitwise_equal_to_fresh(cp):
    H = discretize_right(cp)
    for q in _GRID_Q:
        for p in _GRID_P:
            val, d1, d2 = _fresh_reference(cp, [q], [p])
            assert H.eval(vec(q), vec(p)) == val
            # a float-returning problem's partials are floats (core's one-entry float rule)
            assert np.array_equal(np.atleast_1d(H.d1(vec(q), vec(p))), d1)
            assert np.array_equal(np.atleast_1d(H.d2(vec(q), vec(p))), d2)


@pytest.mark.parametrize("sign", [SignCriterion.PLUS, SignCriterion.MINUS])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_reduced_hamiltonian_bitwise_equals_per_call_probe(r, s, sign):
    _assert_bitwise_equal_to_fresh(with_sign(make_sakamoto1d(r=r, s=s), sign))


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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_eliminate_control_names_the_non_finite_argument():
    with pytest.raises(NumericalError, match="^p contains non-finite"):
        eliminate_control(make_sakamoto1d(), vec(0.1), vec(float("nan")))
    # q is named first when both are non-finite
    with pytest.raises(NumericalError, match="^q contains non-finite"):
        eliminate_control(make_sakamoto1d(), vec(float("inf")), vec(float("nan")))
    # phi of the benchmark does not depend on q: the supplied control is accepted
    assert eliminate_control(make_sakamoto1d(), vec(float("inf")), vec(0.1)) == -0.1
    assert eliminate_control(make_sakamoto1d(), vec(float("nan")), vec(0.1)) == -0.1


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("cp", [make_sakamoto1d(),
                                with_sign(make_sakamoto1d(r=2.0), SignCriterion.MINUS)])
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
            want = cp.gamma(np.array([q]), eliminate_control(cp, vec(q), vec(p)))
            got = H.d2(vec(q), vec(p))
            assert type(want) is float and type(got) is float
            assert vec(got).tobytes() == vec(want).tobytes()


def test_shared_control_reaches_the_callbacks_read_only():
    base = make_sakamoto1d()
    supplied, seen = [], []

    def control(q, p):
        supplied.append(base.control(q, p))
        return supplied[-1]

    def gamma(q, u):
        seen.append(u)
        return base.gamma(q, u)

    # an array control reaches the callbacks as a read-only view
    arrays = dataclasses.replace(base, gamma=gamma, control=lambda q, p: vec(control(q, p)))
    H = discretize_right(arrays)
    H.eval(vec(0.2), vec(-0.3))
    H.d2(vec(0.2), vec(-0.3))
    assert [u.flags.writeable for u in seen] == [False, False]
    # a float control, which cannot be written to, reaches them as that float
    supplied.clear()
    seen.clear()
    H = discretize_right(dataclasses.replace(base, gamma=gamma, control=control))
    H.eval(vec(0.2), vec(-0.3))
    H.d2(vec(0.2), vec(-0.3))
    assert len(supplied) == 1 and type(supplied[0]) is float
    assert seen[0] is supplied[0] and seen[1] is supplied[0]


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_mixed_partial_matches_central_differences_of_d1(r, s):
    H = discretize_right(make_sakamoto1d(r=r, s=s))
    step = 1e-6
    for q in np.linspace(-1.5, 1.5, 7):
        for p in np.linspace(-2.0, 2.0, 9):
            fd = (H.d1(vec(q), vec(p + step)) - H.d1(vec(q), vec(p - step))) / (2.0 * step)
            d12 = H.d12(vec(q), vec(p))
            assert type(d12) is float
            assert abs(d12 - fd) <= 1e-8 * max(1.0, abs(fd))


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_second_momentum_partial_matches_central_differences_of_d2(r, s):
    H = discretize_right(make_sakamoto1d(r=r, s=s))
    step = 1e-6
    for q in np.linspace(-1.5, 1.5, 7):
        for p in np.linspace(-2.0, 2.0, 9):
            fd = (H.d2(vec(q), vec(p + step)) - H.d2(vec(q), vec(p - step))) / (2.0 * step)
            d22 = H.d22(vec(q), vec(p))
            assert type(d22) is float
            assert abs(d22 - fd) <= 1e-8 * max(1.0, abs(fd))


_MISS = r"^the supplied control misses the secondary constraint by \|phi\| = "


@pytest.mark.parametrize("wrong", [lambda q, p, r: -2.0 * p / r,
                                   lambda q, p, r: np.full(1, np.nan)])
def test_wrong_supplied_control_is_a_numerical_error(wrong):
    for r, s in ((0.5, 2.0), (1.0, 1.0), (2.0, 0.5)):
        cp = make_sakamoto1d(r=r, s=s)
        bad = dataclasses.replace(cp, control=lambda q, p: wrong(q, p, r))
        H = discretize_right(bad)
        for q, p in ((0.2, -0.3), (-0.4, 0.7), (0.05, 1.9), (0.3, 1e-9)):
            for f in (lambda: eliminate_control(bad, vec(q), vec(p)),
                      lambda: H.eval(vec(q), vec(p)), lambda: H.d2(vec(q), vec(p))):
                with pytest.raises(NumericalError, match=_MISS) as info:
                    f()
                assert f"at q = {vec(q)}, p = {vec(p)}" in str(info.value)
                gap = abs(secondary_constraint(bad, vec(q), vec(p), wrong(q, p, r)))
                assert info.value.quantity == gap or math.isnan(gap)


def test_supplied_control_costs_one_constraint_evaluation():
    # one constraint evaluation per elimination, shared by a point's partials
    base = make_sakamoto1d(r=2.0)
    calls = []

    def du_gamma(q, u):
        calls.append(1)
        return base.du_gamma(q, u)

    H = discretize_right(dataclasses.replace(base, du_gamma=du_gamma))
    for q, p in ((0.2, -0.3), (-0.4, 0.7), (0.1, 0.0)):
        calls.clear()
        H.d1(vec(q), vec(p))
        H.d2(vec(q), vec(p))
        assert len(calls) == 1


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
                        sign=SignCriterion.PLUS, n=1, control=lambda q, p: supplied,
                        dq_gamma=lambda q, u: np.zeros((1, 1)), dq_cost=lambda q, u: np.zeros(1))
    measured = abs((0.0 + jac * p) + gap)
    assert (measured <= max(TOL, 1e-13 * abs(p))) is accepted
    if accepted:
        assert eliminate_control(cp, vec(0.3), vec(p)) is supplied
    else:
        with pytest.raises(NumericalError, match=_MISS) as info:
            eliminate_control(cp, vec(0.3), vec(p))
        assert info.value.quantity == measured or math.isnan(gap)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_iterate_after_a_missed_control_is_a_numerical_error():
    cp = dataclasses.replace(make_sakamoto1d(), control=lambda q, p: np.full(1, np.nan))
    H = discretize_right(cp)
    with pytest.raises(NumericalError, match="^p contains non-finite"):
        H.d2(vec(0.1), vec(float("nan")))
    # at a finite point the NaN control is a miss
    with pytest.raises(NumericalError, match=_MISS):
        H.d2(vec(0.1), vec(0.5))


@given(q=st.floats(-0.5773, 0.5773), p=st.floats(-2.0, 2.0),
       r=st.sampled_from((0.5, 1.0, 2.0, 0.3, 3.7)), sign=st.sampled_from(SignCriterion))
def test_eliminated_control_is_the_exact_quotient_to_an_ulp(q, p, r, sign):
    # the oracle is the rational root of p + sign r u = 0, -p / r under
    # Plus and p / r under Minus, rounded once
    u = eliminate_control(with_sign(make_sakamoto1d(r=r), sign), vec(q), vec(p))
    exact = (-Fraction(p) if sign is SignCriterion.PLUS else Fraction(p)) / Fraction(r)
    assert type(u) is float
    assert abs(Fraction(u) - exact) <= Fraction(math.ulp(float(exact)))


def _array_sakamoto1d(r, s):
    """make_sakamoto1d as it stood with one-entry array callbacks, copied
    here as the reference its float callbacks must match bit for bit."""
    def gamma(q, u):
        x = q.item()
        return np.array([x - _power(x, 3) + u.item()])

    def cost(q, u):
        return 0.5 * (s * _power(q.item(), 2) + r * _power(u.item(), 2))

    one, curvature = np.broadcast_to(1.0, (1, 1)), np.broadcast_to(-1.0 / r, (1, 1))

    def du_gamma(q, u):
        return one

    def du_cost(q, u):
        return np.array([r * u.item()])

    def dq_gamma(q, u):
        return np.array([[1.0 - 3.0 * _power(q.item(), 2)]])

    def dq_cost(q, u):
        return np.array([s * q.item()])

    def control(q, p):
        return np.array([-p.item() / r])

    return ControlProblem(gamma=gamma, cost=cost, du_gamma=du_gamma, du_cost=du_cost,
                          sign=SignCriterion.PLUS, n=1, control=control, dq_gamma=dq_gamma,
                          dq_cost=dq_cost, d_qp=lambda q, p, u: dq_gamma(q, u),
                          d_pp=lambda q, p, u: curvature)


def _outcome(f, *args):
    """f(*args) as (shape, bytes) of its float64 value, or the error it raised."""
    try:
        v = f(*args)
    except (NumericalError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if type(v) is not float:
        assert type(v) is np.ndarray and v.dtype == np.float64
    return np.shape(v), np.asarray(v).tobytes()


def _assert_float_model_is_the_array_model(r, s, sign, points):
    models = [with_sign(make(r, s), sign) for make in (make_sakamoto1d, _array_sakamoto1d)]
    new, ref = [discretize_right(cp) for cp in models]
    for q, p in points:
        q, p = vec(q), vec(p)
        for name in ("eval", "d1", "d2", "d12", "d22"):
            got, want = _outcome(getattr(new, name), q, p), _outcome(getattr(ref, name), q, p)
            # each partial hands back the model's float where the reference's is an array
            assert got[1:] == want[1:] and got[0] in (want[0], ()), (name, q, p)
        got, want = (_outcome(eliminate_control, cp, q, p) for cp in models)
        # the supplied control is a float where the reference's is a one-entry array
        assert got[1:] == want[1:] and got[0] in (want[0], ()), ("control", q, p)


_EDGES = (0.0, -0.0, 1e-320, -1e-320, 1e-15, -1e-15, 0.3, -0.3, 0.7, -1.2,
          1e154, -1e154, 1e300, -1e300)


@pytest.mark.parametrize("sign", [SignCriterion.PLUS, SignCriterion.MINUS])
@pytest.mark.parametrize("r, s", WEIGHTS)
def test_float_callbacks_are_the_array_callbacks_bit_for_bit(r, s, sign):
    # signed zeros, a subnormal and powers that overflow (1e154 ** 3, 1e300 ** 2)
    _assert_float_model_is_the_array_model(
        r, s, sign, [(q, p) for q in _EDGES for p in _EDGES])


@given(weights=st.sampled_from(WEIGHTS), sign=st.sampled_from(SignCriterion),
       q=st.floats(allow_nan=False), p=st.floats(allow_nan=False))
def test_float_callbacks_are_the_array_callbacks_anywhere(weights, sign, q, p):
    _assert_float_model_is_the_array_model(*weights, sign, [(q, p)])
