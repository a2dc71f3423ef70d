"""Numeric kernel: vector coercion, finite differences, Newton, the stepping
loop, RK4."""

import math

import numpy as np
import pytest

from dhj.core import (
    ConvergenceError,
    NewtonConfig,
    NumericalError,
    PhasePoint,
    SingularJacobianError,
    as_vec,
    fd_gradient,
    fd_jacobian,
    fd_partial,
    iterate,
    newton_solve,
    norm_inf,
    rk4_reference,
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


def test_fd_partial_cubic_at_origin():
    # central difference of x^3 at 0 with step 1e-6 is step^2 exactly
    val = fd_partial(lambda x: x[0] ** 3, [0.0], 0, step=1e-6)
    assert abs(val) <= 1e-12


def test_fd_partial_cubic_away_from_origin():
    val = fd_partial(lambda x: x[0] ** 3, [2.0], 0, step=1e-6)
    assert abs(val - 12.0) <= 1e-6


def test_fd_partial_square():
    val = fd_partial(lambda x: x[0] ** 2, [1.0], 0, step=1e-7)
    assert abs(val - 2.0) <= 1e-9


def test_fd_partial_input_validation():
    with pytest.raises(ValueError):
        fd_partial(lambda x: x[0], [1.0], 1)
    with pytest.raises(ValueError):
        fd_partial(lambda x: x[0], [1.0], 0, step=0.0)
    with pytest.raises(NumericalError):
        fd_partial(lambda x: float("nan"), [1.0], 0)


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


def test_rk4_zero_field_is_constant():
    pts = rk4_reference(lambda z: np.zeros(2), PhasePoint(index=1, q=[0.7], p=[-0.2]),
                        0.1, 10)
    assert len(pts) == 11
    assert [pt.index for pt in pts] == list(range(1, 12))
    for pt in pts:
        assert pt.q[0] == 0.7 and pt.p[0] == -0.2


def test_rk4_cubic_benchmark_field_one_step():
    # dq = q - q^3 - p, dp = (3q^2 - 1) p - q from (0.5, 0), dt = 1e-3
    def field(z):
        q, p = z
        return np.array([q - q ** 3 - p, (3.0 * q ** 2 - 1.0) * p - q])

    pts = rk4_reference(field, PhasePoint(index=1, q=[0.5], p=[0.0]), 1e-3, 1)
    assert abs(pts[1].q[0] - 0.5003752968710657) <= 1e-15
    assert abs(pts[1].p[0] - (-0.0005001252762228224)) <= 1e-15


def test_rk4_harmonic_circle():
    pts = rk4_reference(lambda z: np.array([z[1], -z[0]]),
                        PhasePoint(index=1, q=[1.0], p=[0.0]), 0.01, 628)
    err = math.hypot(pts[-1].q[0] - math.cos(6.28), pts[-1].p[0] + math.sin(6.28))
    assert err < 1e-6


def test_rk4_validation():
    x0 = PhasePoint(index=1, q=[0.0], p=[0.0])
    with pytest.raises(ValueError):
        rk4_reference(lambda z: np.zeros(2), x0, 0.0, 1)
    with pytest.raises(ValueError):
        rk4_reference(lambda z: np.zeros(2), x0, 0.1, 0)
    with pytest.raises(NumericalError):
        rk4_reference(lambda z: np.array([float("inf"), 0.0]), x0, 0.1, 1)
