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
    with pytest.raises(NumericalError) as err:
        newton_solve(lambda z: z - 2.0, [1.0], jacobian=lambda z: np.array([[np.inf]]))
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
