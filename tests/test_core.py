"""Numeric kernel: vector coercion, finite differences, Newton, the stepping
loop."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dhj.core
from dhj.core import (
    ConvergenceError,
    NewtonConfig,
    NumericalError,
    PhasePoint,
    SingularJacobianError,
    as_vec,
    dot,
    fd_gradient,
    fd_jacobian,
    iterate,
    newton_solve,
    norm_inf,
)


def test_as_vec_accepts_scalar_and_sequence():
    v = as_vec(3.0)
    assert v.shape == (1,) and v.dtype == np.float64 and v[0] == 3.0
    v = as_vec([1.0, 2.0], dim=2)
    assert v.shape == (2,)


def test_as_vec_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vec([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vec([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        as_vec([np.nan])
    with pytest.raises(ValueError):
        as_vec([np.inf])


def test_non_finite_input_errors_keep_their_class_and_message():
    for value, shown in (([1.0, np.nan], "[ 1. nan]"), (np.inf, "[inf]"),
                         ([-np.inf, 2.0], "[-inf   2.]")):
        with pytest.raises(ValueError) as err:
            as_vec(value, name="x")
        assert err.type is ValueError and str(err.value) == f"x contains non-finite entries: {shown}"
    with pytest.raises(NumericalError) as err:
        newton_solve(lambda z: np.array([np.nan]), [1.0])
    assert err.type is NumericalError
    assert str(err.value) == "non-finite residual evaluation at x = [1.]"
    for entry in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericalError) as err:
            newton_solve(lambda z: z - 2.0, [1.0], jacobian=lambda z: np.array([[entry]]))
        assert err.type is NumericalError
        assert str(err.value) == "non-finite entries in supplied Jacobian"


def test_norm_inf_of_scalars_sequences_and_non_finite_entries():
    assert norm_inf(-2.5) == 2.5 and type(norm_inf(-2.5)) is float
    assert norm_inf(np.array(-3.0)) == 3.0
    assert norm_inf([1.0, -4.0, 2.0]) == 4.0
    assert math.isnan(norm_inf([1.0, np.nan]))
    assert norm_inf([1.0, -np.inf]) == math.inf and norm_inf(np.inf) == math.inf
    with pytest.raises(ValueError):
        norm_inf(np.array([]))


# every float64 class the primitives must agree with numpy on: NaN, +-inf,
# +-0.0, subnormals and the ordinary range
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _numpy_norm_inf(v) -> float:
    return float(np.abs(np.asarray(v, dtype=float)).max())


def _same_norm(got: float, want: float) -> bool:
    # NaN payloads carry nothing; every other value must match bit for bit
    return type(got) is float and (math.isnan(got) and math.isnan(want)
                                   or _bits(got) == _bits(want))


@given(st.lists(_ANY_FLOAT, min_size=1, max_size=6))
def test_norm_inf_is_numpys_max_abs_bit_for_bit(values):
    assert _same_norm(norm_inf(values), _numpy_norm_inf(values))
    assert _same_norm(norm_inf(np.array(values)), _numpy_norm_inf(values))


@given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=5),
       st.sampled_from([math.nan, -math.nan]))
def test_norm_inf_is_nan_whatever_the_nan_position(values, nan):
    for k in range(len(values) + 1):
        assert math.isnan(norm_inf(values[:k] + [nan] + values[k:]))


@given(_ANY_FLOAT)
def test_norm_inf_of_a_scalar_is_its_absolute_value(x):
    for v in (x, np.float64(x), np.array(x), [x]):
        assert _same_norm(norm_inf(v), _numpy_norm_inf(v))


@given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 3)), elements=_ANY_FLOAT))
def test_norm_inf_reads_a_matrix_flat(a):
    assert _same_norm(norm_inf(a), _numpy_norm_inf(a))
    assert _same_norm(norm_inf(a.tolist()), _numpy_norm_inf(a))


@pytest.mark.parametrize("empty", [[], np.array([]), np.zeros((0, 3)), np.zeros((2, 0))])
def test_norm_inf_of_no_entry_raises(empty):
    with pytest.raises(ValueError):
        norm_inf(empty)


def test_norm_inf_edge_values_bit_for_bit():
    tiny = 5e-324
    for v in ([-0.0], [0.0, -0.0], [-0.0, 0.0], [-tiny, tiny / 2], [-math.inf, 1.0],
              [1.0, math.inf], [-1e308, 1e308], [math.inf, math.nan], [math.nan, -math.inf]):
        assert _same_norm(norm_inf(v), _numpy_norm_inf(v))
    assert _bits(norm_inf(-0.0)) == _bits(0.0)


@given(_ANY_FLOAT, _ANY_FLOAT)
def test_dot_of_one_entry_is_numpys_matmul_bit_for_bit(a, b):
    # signed zeros, overflow and inf * 0 included; numpy's own product may warn
    with np.errstate(all="ignore"):
        want = float(np.array([a]) @ np.array([b]))
        assert _same_norm(dot(np.array([a]), np.array([b])), want)
        assert _same_norm(dot(np.array([[a]])[0], np.array([b])),
                          float((np.array([[a]]).T @ np.array([b]))[0]))


def test_dot_is_silent_where_matmul_warns(recwarn):
    assert dot(np.array([1e300]), np.array([1e300])) == math.inf
    assert math.isnan(dot(np.array([-math.inf]), np.array([0.0])))
    assert dot(np.array([1.0, 2.0]), np.array([3.0, -4.0])) == -5.0
    assert len(recwarn) == 0


@given(st.one_of(_ANY_FLOAT, st.lists(_ANY_FLOAT, min_size=1, max_size=4)))
def test_as_vec_rejects_exactly_what_numpy_calls_non_finite(value):
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if np.isfinite(v).all():
        got = as_vec(value, name="x")
        assert got.dtype == np.float64 and got.shape == v.shape
        assert [_bits(a) for a in got.tolist()] == [_bits(a) for a in v.tolist()]
    else:
        with pytest.raises(ValueError) as err:
            as_vec(value, name="x")
        assert err.type is ValueError
        assert str(err.value) == f"x contains non-finite entries: {v}"


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(st.integers(1, 3), st.data())
def test_newton_non_finite_residual_keeps_class_and_message(n, data):
    # one non-finite entry, at any position, in the first or a later residual
    k = data.draw(st.integers(0, n - 1))
    bad = data.draw(_NON_FINITE)
    first = data.draw(st.booleans())
    guess = np.ones(n)

    def residual(z):
        r = z - 2.0
        if first or not np.array_equal(z, guess):
            r[k] = bad
        return r

    with pytest.raises(NumericalError) as err:
        newton_solve(residual, guess, jacobian=lambda z: np.eye(n))
    at = guess if first else guess + 1.0
    assert err.type is NumericalError
    assert str(err.value) == f"non-finite residual evaluation at x = {at}"


@given(st.integers(1, 3), st.data())
def test_newton_non_finite_jacobian_keeps_class_and_message(n, data):
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    jac = np.eye(n)
    jac[i, j] = data.draw(_NON_FINITE)
    with pytest.raises(NumericalError) as err:
        newton_solve(lambda z: z - 2.0, np.ones(n), jacobian=lambda z: jac)
    assert err.type is NumericalError
    assert str(err.value) == "non-finite entries in supplied Jacobian"


@given(st.integers(1, 3), st.data())
def test_fd_jacobian_non_finite_entry_keeps_class_and_message(n, data):
    k = data.draw(st.integers(0, n - 1))
    bad = data.draw(_NON_FINITE)

    def residual(z):
        r = z.copy()
        r[k] = bad
        return r

    with pytest.raises(NumericalError) as err:
        fd_jacobian(residual, np.ones(n))
    assert err.type is NumericalError
    assert str(err.value) == "non-finite entries in finite-difference Jacobian"


@given(x0=st.floats(allow_nan=False, allow_infinity=False),
       step=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       hi=st.floats(), lo=st.floats())
@example(x0=0.3, step=1e-7, hi=math.inf, lo=math.inf)
@example(x0=1.7976931348623157e308, step=1e300, hi=1.0, lo=0.0)
def test_one_entry_fd_column_is_bitwise_the_generic_formula(x0, step, hi, lo):
    # the one-entry column runs in Python floats; numpy's column formula,
    # from the same probes, is the reference, and so is its error
    probes = []

    def residual(z):
        probes.append(z.tobytes())
        return np.array([hi if len(probes) == 1 else lo])

    x, e = np.array([x0]), np.array([step])
    with np.errstate(all="ignore"):
        want_probes = [(x + e).tobytes(), (x - e).tobytes()]
        want = ((np.array([hi]) - np.array([lo])) / (2.0 * step)).reshape(1, 1)
    if np.isfinite(want).all():
        assert fd_jacobian(residual, x, step).tobytes() == want.tobytes()
    else:
        with pytest.raises(NumericalError) as err:
            fd_jacobian(residual, x, step)
        assert err.type is NumericalError
        assert str(err.value) == "non-finite entries in finite-difference Jacobian"
    assert probes == want_probes


def test_one_entry_fd_column_checks_the_residual_size():
    with pytest.raises(ValueError, match="^residual must return a vector of dimension 1$"):
        fd_jacobian(lambda z: np.array([z[0], 0.0]), [0.3])


@pytest.mark.parametrize("step", [0.0, -1e-7, math.nan])
def test_fd_jacobian_rejects_a_step_that_is_not_positive(step):
    with pytest.raises(ValueError, match="^step must be positive"):
        fd_jacobian(lambda z: z, np.ones(2), step)


def test_fd_gradient_validates_x_once_and_matches_fd_partial(monkeypatch):
    calls = []
    coerce = dhj.core.as_vec

    def counted(*args, **kwargs):
        calls.append(1)
        return coerce(*args, **kwargs)

    def f(z):
        return math.sin(z[0]) * z[1] + z[2] ** 3

    x = [0.3, -1.2, 0.7]
    monkeypatch.setattr(dhj.core, "as_vec", counted)
    grad = fd_gradient(f, x, step=1e-6)
    assert len(calls) == 1
    monkeypatch.undo()
    # each entry is the central difference along its own axis
    z = np.array(x)
    want = [(f(z + e) - f(z - e)) / (2.0 * 1e-6) for e in np.eye(3) * 1e-6]
    assert [_bits(g) for g in grad.tolist()] == [_bits(w) for w in want]
    for step in (0.0, -1e-7, math.nan):
        with pytest.raises(ValueError, match="^step must be positive"):
            fd_gradient(f, x, step)


def test_phase_point_validation():
    pt = PhasePoint(index=1, q=[0.5], p=[0.25])
    assert pt.dim == 1 and pt.index == 1
    with pytest.raises(ValueError):
        PhasePoint(index=0, q=[0.0], p=[0.0])
    with pytest.raises(ValueError):
        PhasePoint(index=1, q=[0.0, 1.0], p=[0.0])


def test_newton_config_validation():
    cfg = NewtonConfig()
    assert cfg.tol == 1e-12 and cfg.max_iter == 50
    assert cfg.damping == 1.0 and cfg.fd_step == 1e-7
    with pytest.raises(ValueError):
        NewtonConfig(tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iter=0)
    with pytest.raises(ValueError):
        NewtonConfig(damping=1.5)
    with pytest.raises(ValueError):
        NewtonConfig(fd_step=-1e-7)


# A central-difference partial is one entry of fd_gradient (the one-axis
# helper these tests were written for is gone).
def test_fd_partial_cubic_at_origin():
    # central difference of x^3 at 0 with step 1e-6 is step^2 exactly
    (val,) = fd_gradient(lambda x: x[0] ** 3, [0.0], step=1e-6)
    assert abs(val) <= 1e-12


def test_fd_partial_cubic_away_from_origin():
    (val,) = fd_gradient(lambda x: x[0] ** 3, [2.0], step=1e-6)
    assert abs(val - 12.0) <= 1e-6


def test_fd_partial_square():
    (val,) = fd_gradient(lambda x: x[0] ** 2, [1.0], step=1e-7)
    assert abs(val - 2.0) <= 1e-9


def test_fd_partial_input_validation():
    with pytest.raises(ValueError):
        fd_gradient(lambda x: x[0], [[1.0]])
    with pytest.raises(ValueError):
        fd_gradient(lambda x: x[0], [1.0], step=0.0)
    with pytest.raises(NumericalError):
        fd_gradient(lambda x: float("nan"), [1.0])


def test_fd_gradient_matches_analytic_on_quadratics():
    rng = np.random.default_rng(11)
    for _ in range(25):
        A = rng.uniform(-1.0, 1.0, (3, 3))
        A = A + A.T
        b = rng.uniform(-1.0, 1.0, 3)
        x = rng.uniform(-1.0, 1.0, 3)
        grad = fd_gradient(lambda z: 0.5 * z @ A @ z + b @ z, x, step=1e-6)
        assert norm_inf(grad - (A @ x + b)) <= 1e-8


def test_fd_jacobian_linear_map_exact():
    A = np.array([[2.0, 1.0], [0.5, -3.0]])
    calls = []

    def residual(z):
        calls.append(1)
        return A @ z

    jac = fd_jacobian(residual, np.array([0.3, -0.7]), step=1e-6)
    assert norm_inf((jac - A).ravel()) <= 1e-9
    # two evaluations per column, none at the point itself
    assert len(calls) == 4


def test_newton_solves_linear_system():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -1.0])
    x = newton_solve(lambda z: A @ z - b, [0.0, 0.0])
    assert norm_inf(A @ x - b) <= 1e-12


def test_newton_quadratic():
    x = newton_solve(lambda z: np.array([z[0] ** 2 - 2.0]), [1.5])
    assert abs(x[0] - math.sqrt(2.0)) <= 1e-12


def test_newton_returns_guess_when_already_converged():
    root = newton_solve(lambda z: np.array([z[0] ** 2 - 2.0]), [1.5])
    calls = []

    def residual(z):
        calls.append(1)
        return np.array([z[0] ** 2 - 2.0])

    again = newton_solve(residual, root)
    # one residual evaluation, no Jacobian, no update
    assert len(calls) == 1
    assert again[0] == root[0]


def test_newton_damping_halves_each_update():
    # residual x with an exact Jacobian and damping 0.5: each update halves
    # the iterate exactly, and 0.5**39 > 1e-12 >= 0.5**40, so the root
    # returned is 0.5**40 after exactly 40 updates
    cfg = NewtonConfig(damping=0.5)
    x = newton_solve(lambda z: z.copy(), [1.0], cfg, jacobian=lambda z: np.eye(1))
    assert x[0] == 0.5**40


def test_newton_uses_supplied_jacobian():
    calls = []

    def jac(z):
        calls.append(1)
        return np.array([[2.0 * z[0]]])

    x = newton_solve(lambda z: np.array([z[0] ** 2 - 4.0]), [3.0], jacobian=jac)
    assert abs(x[0] - 2.0) <= 1e-12
    assert len(calls) >= 1


def test_newton_singular_jacobian():
    with pytest.raises(SingularJacobianError) as exc:
        newton_solve(lambda z: np.array([1.0]), [0.0])
    assert exc.value.det == 0.0
    assert exc.value.scale >= 1.0


def test_scalar_step_is_bitwise_the_linear_solve():
    # the 1 x 1 Newton step r / a against numpy's general path, over both
    # signs, magnitudes 1e-300 to 1e300 and subnormals (overflow and
    # underflow land on the same inf or zero on both sides)
    rng = np.random.default_rng(12)
    mags = np.concatenate([10.0 ** rng.uniform(-300.0, 300.0, 1500),
                           rng.uniform(5e-324, 2.2e-308, 100), [5e-324, 2.2e-308]])
    values = (mags * rng.choice([-1.0, 1.0], mags.size)).tolist()
    for a, r in zip(rng.permutation(values).tolist(), rng.permutation(values).tolist()):
        assert r / a == np.linalg.solve([[a]], [r])[0]


def test_overflowing_scalar_step_is_silent(recwarn):
    # a step that overflows is inf, as np.linalg.solve gives it, and the
    # non-finite iterate is reported as before, with no numpy warning
    with pytest.raises(NumericalError) as err:
        newton_solve(lambda z: np.array([1e300 if z[0] == 0.0 else np.nan]), [0.0],
                     jacobian=lambda z: [[1e-13]])
    assert str(err.value) == "non-finite residual evaluation at x = [-inf]"
    assert len(recwarn) == 0


def test_a_non_finite_root_is_a_numerical_error(recwarn):
    # the step 1e300 / 1e-13 overflows to -inf, where the residual reads 0:
    # converged, but not a root to return
    with pytest.raises(NumericalError) as err:
        newton_solve(lambda z: np.array([1e300 if z[0] == 0.0 else 0.0]), [0.0],
                     jacobian=lambda z: [[1e-13]])
    assert err.type is NumericalError
    assert str(err.value) == "root x = [-inf] is not finite"
    assert err.value.quantity == -math.inf
    # the same through np.linalg.solve, with a finite second entry
    with pytest.raises(NumericalError) as err:
        newton_solve(lambda z: np.array([1e300 if z[0] == 0.0 else 0.0, z[1]]), [0.0, 0.0],
                     jacobian=lambda z: np.diag([1e-13, 1.0]))
    assert err.type is NumericalError and err.value.quantity == -math.inf
    assert len(recwarn) == 0


def _cubic(z):
    return z**3 - 2.0 * z - 5.0


def _cubic_prime(z):
    return 3.0 * z**2 - 2.0


@pytest.mark.parametrize("guess", [3.0, 1.2, -0.4, 40.0, 2.2, -3.7, 0.3, 1e3, -25.0])
@pytest.mark.parametrize("damping", [1.0, 0.5])
def test_scalar_newton_matches_the_general_path_bit_for_bit(guess, damping):
    # the same residual stacked as a decoupled 2-D system goes through
    # np.linalg.det and np.linalg.solve; root and evaluation count agree
    cfg = NewtonConfig(damping=damping, max_iter=200)
    evals = {1: 0, 2: 0}

    def residual(z):
        evals[z.size] += 1
        return _cubic(z)

    one = newton_solve(residual, [guess], cfg, jacobian=lambda z: [[_cubic_prime(z[0])]])
    two = newton_solve(residual, [guess, guess], cfg,
                       jacobian=lambda z: np.diag(_cubic_prime(z)))
    assert one[0] == two[0] == two[1] and abs(_cubic(one[0])) <= 1e-12
    assert evals[1] == evals[2] > 2
    # central differences give the same diagonal and an exactly zero
    # off-diagonal, so the same root
    one = newton_solve(_cubic, [guess], cfg)
    two = newton_solve(_cubic, [guess, guess], cfg)
    assert one[0] == two[0] == two[1]


@pytest.mark.parametrize("a, singular", [
    (0.99e-14, True), (-0.99e-14, True), (1.01e-14, False), (-1.01e-14, False),
    (1e-14, False), (-1e-14, False),
])
def test_scalar_singular_floor_on_both_sides(a, singular):
    # residual a (z - 1000): one exact step from 0 lands on the root unless a
    # falls under SINGULAR_DET_FLOOR * max(1, |a|).  The decoupled 2-D system
    # diag(a, 1) decides the same way off the floor; on it np.linalg.det can
    # read a few ulps low (9.999999999999987e-15 for 1e-14), so the general
    # path is the reference only at +-0.99e-14 and +-1.01e-14
    def one():
        return newton_solve(lambda z: a * (z - 1e3), [0.0], jacobian=lambda z: [[a]])

    def two():
        return newton_solve(lambda z: np.array([a * (z[0] - 1e3), z[1]]), [0.0, 1.0],
                            jacobian=lambda z: np.diag([a, 1.0]))

    if singular:
        for solve in (two, one):
            with pytest.raises(SingularJacobianError) as exc:
                solve()
            assert exc.value.scale == 1.0
        assert exc.value.det == a
    else:
        root = one()[0]
        assert abs(root - 1e3) <= 1e-12 * 1e3
        if abs(a) != 1e-14:
            assert root == two()[0]


def test_scalar_singular_error_carries_the_entry_exactly():
    rng = np.random.default_rng(3)
    for a in [0.0, -0.0, 5e-324, *rng.uniform(-1e-14, 1e-14, 200)]:
        with pytest.raises(SingularJacobianError) as exc:
            newton_solve(lambda z: z - 1.0, [0.0], jacobian=lambda z: [[a]])
        assert exc.value.det == a and exc.value.quantity == a and exc.value.scale == 1.0
        assert str(exc.value) == (f"singular Jacobian: |det| = {abs(a):.6e} below 1e-14 "
                                  f"* scale (scale = 1.000000e+00)")


def test_newton_convergence_error_carries_residual():
    cfg = NewtonConfig(max_iter=5)
    with pytest.raises(ConvergenceError) as exc:
        newton_solve(lambda z: np.array([1.0 + z[0] ** 2]), [3.0], cfg)
    assert exc.value.iterations == 5
    assert exc.value.residual_norm > 0.0


def _plain_newton(residual, guess, cfg, jacobian=None):
    # newton_solve's scalar iteration with no early stop: it spends the whole
    # budget, the reference for the repeated-iterate rule
    x = np.array(guess, dtype=float).reshape(1)

    def _eval(z):
        r = np.asarray(residual(z), dtype=float).reshape(1)
        if not math.isfinite(r[0]):
            raise NumericalError(f"non-finite residual evaluation at x = {z}")
        return float(r[0])

    r = _eval(x)
    for iteration in range(cfg.max_iter + 1):
        if abs(r) <= cfg.tol:
            return x
        if iteration == cfg.max_iter:
            raise ConvergenceError(residual_norm=abs(r), iterations=cfg.max_iter)
        if jacobian is None:
            a = float(fd_jacobian(residual, x, cfg.fd_step)[0, 0])
        else:
            a = np.asarray(jacobian(x), dtype=float).item()
            if not math.isfinite(a):
                raise NumericalError("non-finite entries in supplied Jacobian")
        if abs(a) < 1e-14 * max(1.0, abs(a)):
            raise SingularJacobianError(det=a, scale=max(1.0, abs(a)))
        x = x - cfg.damping * (r / a)
        r = _eval(x)


def _outcome(solve, residual, guess, cfg, jacobian=None):
    """(the root's bits or the error's class, message and fields, residual
    evaluations) of one solve."""
    evals = [0]

    def counted(z):
        evals[0] += 1
        return residual(z)

    try:
        got = ("root", [_bits(v) for v in solve(counted, guess, cfg, jacobian=jacobian).tolist()])
    except NumericalError as exc:
        got = (type(exc).__name__, str(exc), _bits(exc.quantity),
               vars(exc).get("residual_norm"), vars(exc).get("iterations"))
    return got, evals[0]


def _cubic_cycle(z):
    # Newton on x^3 - 2x + 2 with the exact Jacobian maps 0 -> 1 -> 0
    return z**3 - 2.0 * z + 2.0


def _cubic_cycle_prime(z):
    return [[3.0 * z[0] ** 2 - 2.0]]


@pytest.mark.parametrize("max_iter, last", [(50, 2.0), (51, 1.0), (2, 2.0), (3, 1.0)])
def test_newton_stops_on_a_two_cycle_with_the_full_budgets_error(max_iter, last):
    cfg = NewtonConfig(max_iter=max_iter)
    got, evals = _outcome(newton_solve, _cubic_cycle, [0.0], cfg, _cubic_cycle_prime)
    message = f"no convergence after {max_iter} iterations, last residual norm {last:.6e}"
    assert got == ("ConvergenceError", message, _bits(last), last, max_iter)
    assert evals == 3
    # the plain loop reaches the same error after max_iter + 1 evaluations
    assert _outcome(_plain_newton, _cubic_cycle, [0.0], cfg, _cubic_cycle_prime) == (
        got, max_iter + 1)


def test_newton_stops_on_a_fixed_point_stall():
    # the step 1 / 1e300 is below half an ulp of 1, so the iterate stays put
    cfg = NewtonConfig()
    got, evals = _outcome(newton_solve, lambda z: np.array([1.0]), [1.0], cfg,
                          lambda z: [[1e300]])
    assert got == ("ConvergenceError",
                   "no convergence after 50 iterations, last residual norm 1.000000e+00",
                   _bits(1.0), 1.0, 50)
    assert evals == 2
    assert _outcome(_plain_newton, lambda z: np.array([1.0]), [1.0], cfg,
                    lambda z: [[1e300]]) == (got, 51)


@given(st.floats(-3.0, 3.0), st.integers(1, 60), st.sampled_from([1.0, 0.5]),
       st.booleans())
def test_newton_agrees_with_the_plain_loop(guess, max_iter, damping, exact):
    # roots, stalls and cycles alike: the same outcome, bit for bit, from no
    # more residual evaluations
    cfg = NewtonConfig(max_iter=max_iter, damping=damping)
    jacobian = _cubic_cycle_prime if exact else None
    got, evals = _outcome(newton_solve, _cubic_cycle, [guess], cfg, jacobian)
    want, plain_evals = _outcome(_plain_newton, _cubic_cycle, [guess], cfg, jacobian)
    assert got == want
    assert evals <= plain_evals


@pytest.mark.parametrize("q1, steps, r, s", [
    (0.01, 40, 1.0, 1.0), (-0.2, 24, 1.0, 1.0), (0.3, 24, 2.0, 1.0), (0.05, 24, 0.5, 3.0),
    (1e-3, 40, 1.0, 0.5), (0.6, 8, 1.0, 1.0), (-6.284409876985755e-06, 40, 1.0, 1.0)])
def test_sakamoto_steps_agree_with_the_plain_loop(q1, steps, r, s, monkeypatch):
    # every Newton solve of an escaping orbit against the plain loop on the
    # same residual and guess, the failing last one included: the j = 32 step
    # of simulate --q1 0.01 --steps 40 stalls on a fixed point, the last
    # start's failing step on a 2-cycle
    from dhj import mechanics
    from dhj.optctrl import discretize_right, make_sakamoto1d

    failed = []

    def both(residual, guess, cfg=None, jacobian=None):
        cfg = cfg if cfg is not None else NewtonConfig()
        want, plain_evals = _outcome(_plain_newton, residual, guess, cfg, jacobian)
        got, evals = _outcome(newton_solve, residual, guess, cfg, jacobian)
        assert got == want
        if want[0] != "root":
            failed.append((got, evals, plain_evals))
        return newton_solve(residual, guess, cfg, jacobian=jacobian)

    monkeypatch.setattr(mechanics, "newton_solve", both)
    H = discretize_right(make_sakamoto1d(r, s))
    traj = mechanics.run_trajectory(H, PhasePoint(index=1, q=[q1], p=[0.0]), steps)
    assert traj.meta["failure"] == "ConvergenceError"
    assert [got[1] for got, _, _ in failed] == [traj.meta["failure_message"]]
    assert failed[0][1] < failed[0][2] == 51
    if (q1, steps) == (0.01, 40):
        assert traj.meta["failure_index"] == 32
        assert failed == [(("ConvergenceError", "no convergence after 50 iterations, last "
                            "residual norm 1.254223e-06", _bits(1.2542225173190358e-06),
                            1.2542225173190358e-06, 50), 4, 51)]


def test_iterate_records_the_failed_step():
    def halve_until_small(x):
        if x < 0.1:
            raise ConvergenceError(residual_norm=x, iterations=3)
        return 0.5 * x

    items, meta = iterate(halve_until_small, 1.0, 10, first_index=4)
    assert items == [1.0, 0.5, 0.25, 0.125, 0.0625]
    assert meta["truncated"] is True
    assert meta["failure"] == "ConvergenceError"
    assert meta["failure_index"] == 8  # the index of 0.0625, counting 1.0 as 4
    assert meta["failure_quantity"] == 0.0625
    assert meta["failure_message"].startswith("no convergence after 3 iterations")
    items, meta = iterate(lambda x: x + 1, 0, 3)
    assert items == [0, 1, 2, 3]
    assert meta == {"truncated": False, "failure": None, "failure_index": None,
                    "failure_message": None, "failure_quantity": None}


def test_iterate_lets_other_errors_through():
    def bad(x):
        raise ValueError("not a numerical failure")

    with pytest.raises(ValueError):
        iterate(bad, 0.0, 2)


def test_newton_nonfinite_residual():
    with pytest.raises(NumericalError):
        newton_solve(lambda z: np.array([float("nan")]), [1.0])
