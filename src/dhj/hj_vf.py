"""Vector-field form of the discrete evolution equation.

Instead of evolving values S^j, evolve the slope function gamma directly as
a section of the momentum bundle.  Along a position grid the defining
equation at each transition is

    D2 H+(q_j, p_next) . Dgamma = D1 H+(q_j, p_next)

with Dgamma the grid derivative of gamma (a left H's form negates both
partials at (q_next, p_j); eval_field and vf_residual read H's side).  For
the one-dimensional cubic benchmark with unit parameters the right form has
an explicit rational update (closed_form_gamma_step); the generic Newton
solver reproduces it by using the quotient gamma_j / q_next with the new
gamma in the momentum slot, which is the discretization the closed form is
derived under.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (NumericalError, PhasePoint, _atleast_1d, _checked_point, _entry, _power, as_grid,
                   as_vec, iterate, newton_solve, norm_inf)
from .hj_flow import GeneratingSequence
from .mechanics import DiscreteHamiltonian, DiscreteTrajectory, Side

__all__ = [
    "DegenerateGridError",
    "SingularDenominatorError",
    "eval_field",
    "vf_residual",
    "solve_gamma_generic",
    "closed_form_gamma_step",
    "run_closed_form_vf",
    "equivalence_check",
]


class DegenerateGridError(NumericalError):
    """The position grid cannot support the slope quotient (zero or repeated q)."""


class SingularDenominatorError(NumericalError):
    """The closed-form gamma update's denominator is numerically zero."""

    def __init__(self, denominator: float, scale: float):
        self.denominator = float(denominator)
        self.scale = float(scale)
        super().__init__(f"singular denominator {self.denominator:.6e} "
                         f"(threshold 1e-14 * scale, scale = {self.scale:.6e})", self.denominator)


def eval_field(H: DiscreteHamiltonian, q, p) -> tuple[np.ndarray, np.ndarray]:
    """Evolution field of H at its own slot pair in the (dq, dp) frame: the
    coefficient pair (D2 H+, D1 H+) at (q, p) = (q_j, p_next) for a right H,
    (-D2 H-, -D1 H-) at (q, p) = (q_next, p_j) for a left one, each a
    Python float where H returns one (core's one-entry float rule)."""
    q = as_vec(q, dim=H.dim, name="q")
    p = as_vec(p, dim=H.dim, name="p")
    if H.side is Side.RIGHT:
        return H.d2(q, p), H.d1(q, p)
    return -H.d2(q, p), -H.d1(q, p)


def _apply_dgamma(d2, dgamma):
    dg = np.asarray(dgamma, dtype=float)
    if dg.ndim == 0 or (dg.ndim == 1 and dg.size == 1):
        # Python floats: inf * 0 is nan, with no numpy warning
        g = dg.item()
        if type(d2) is float:
            return d2 * g
        return np.array([v * g for v in d2.ravel().tolist()]).reshape(d2.shape)
    if dg.ndim == 2:
        return dg.T @ _atleast_1d(d2)
    raise ValueError(f"dgamma must be a scalar or square matrix, got shape {dg.shape}")


def vf_residual(H: DiscreteHamiltonian, q, p, dgamma) -> float:
    """Max-norm residual of the field equation dq . Dgamma = dp at H's slot
    pair (q, p), with (dq, dp) = eval_field(H, q, p)."""
    dq, dp = eval_field(H, q, p)
    return norm_inf(_apply_dgamma(dq, dgamma) - dp)


def solve_gamma_generic(H: DiscreteHamiltonian, q_sequence, gamma0) -> DiscreteTrajectory:
    """Advance gamma along a given position grid by solving the field equation.

    At each transition the grid derivative is discretized as the quotient
    gamma_j / q_next and the new slope sits in the momentum slot, so the
    update solves

        D2 H+(q_j, g) * (gamma_j / q_next) = D1 H+(q_j, g)

    for g by Newton from the guess gamma_j.  When H carries both d12 and d22
    the Newton Jacobian is d22 * (gamma_j / q_next) - d12; otherwise it is
    built by central differences.  One-dimensional only (the quotient has
    no dimension-general meaning).  The grid must have at least one
    position (one position gives just the seed row).  The rows are phase
    points (q_j, gamma_j).  A q_next that is zero or so small that
    gamma_j / q_next overflows (DegenerateGridError, with q_next as
    failure_quantity), a slope so large that D2 H+ (or d22) times the
    quotient overflows (NumericalError naming that product), or a Newton
    failure truncates the run with core.iterate's failure record in meta,
    keeping completed rows.  Its field residual returns a Python float.
    """
    if H.side is not Side.RIGHT:
        raise ValueError("solve_gamma_generic needs a Side.RIGHT Hamiltonian")
    if H.dim != 1:
        raise ValueError("the slope quotient scheme is one-dimensional only")
    arr = as_grid(q_sequence)
    gamma0 = float(as_vec(gamma0, dim=1, name="gamma0")[0])
    exact = H.d12 is not None and H.d22 is not None

    def advance(prev: PhasePoint) -> PhasePoint:
        # point j sits at arr[j - 1], so its successor's position is arr[j]; q_j
        # is the one-entry view the partials take, q_next a Python float, so an
        # overflowing quotient is inf without a numpy warning
        q_j, q_next = arr[prev.index - 1:prev.index], float(arr[prev.index])
        if q_next == 0.0:
            raise DegenerateGridError(f"q_sequence entry j = {prev.index + 1} is zero: the "
                                      f"slope quotient gamma / q_next is undefined", q_next)
        gamma = float(prev.p[0])
        quot = gamma / q_next
        if not math.isfinite(quot):
            raise DegenerateGridError(f"q_sequence entry j = {prev.index + 1} is {q_next:.6e}: "
                                      f"the slope quotient gamma / q_next = {gamma:.6e} / "
                                      f"{q_next:.6e} overflows", q_next)

        def slope_product(d, name: str, g: np.ndarray) -> float:
            # d * gamma_j / q_next in Python floats: an overflow is inf with no
            # numpy warning, reported as the slope's escape, not as Newton's
            # non-finite residual at the iterate
            d = _entry(d)
            product = d * quot
            if math.isfinite(d) and not math.isfinite(product):
                raise NumericalError(f"slope product {name} * gamma_j / q_next = {d:.6e} * "
                                     f"{quot:.6e} overflows at g = {g[0]:.6e}", product)
            return product

        def residual(g: np.ndarray) -> float:
            return slope_product(H.d2(q_j, g), "D2 H+", g) - _entry(H.d1(q_j, g))

        def jacobian(g: np.ndarray) -> float:
            return slope_product(H.d22(q_j, g), "D22 H+", g) - _entry(H.d12(q_j, g))

        g_next = newton_solve(residual, prev.p, jacobian=jacobian if exact else None)
        # Newton returns only a finite root, and as_grid checked q_next
        return _checked_point(prev.index + 1, np.array([q_next]), g_next)

    points, meta = iterate(advance, PhasePoint(index=1, q=arr[0], p=gamma0), arr.size - 1)
    return DiscreteTrajectory(points=points, meta=meta)


def closed_form_gamma_step(gamma_j: float, q_j: float, q_next: float) -> float:
    """One explicit slope update for the unit-parameter cubic benchmark.

    gamma_next = -(gamma_j q_j^2 - gamma_j + q_next) q_j
                 / (gamma_j + q_next - 3 q_j^2 q_next)

    Raises SingularDenominatorError when |denominator| falls below
    1e-14 * scale, with scale the magnitude of the terms being cancelled,
    and NumericalError, with the value as its quantity, when gamma_next is
    not finite (the update overflows).
    """
    gamma_j = float(gamma_j)
    q_j = float(q_j)
    q_next = float(q_next)
    q_j2 = _power(q_j, 2)
    den = gamma_j + q_next - 3.0 * q_j2 * q_next
    scale = max(1.0, abs(gamma_j) + abs(q_next) + abs(3.0 * q_j2 * q_next))
    if abs(den) < 1e-14 * scale:
        raise SingularDenominatorError(denominator=den, scale=scale)
    gamma = -(gamma_j * q_j2 - gamma_j + q_next) * q_j / den
    if not math.isfinite(gamma):
        raise NumericalError(f"gamma_next = {gamma:.6e} is not finite", gamma)
    return gamma


def _gamma_transition(prev: PhasePoint, q_next: float) -> PhasePoint:
    """One transition of run_closed_form_vf: the successor of prev, a point
    (q_j, gamma_j), at position q_next (closed_form_gamma_step's update)."""
    gamma = closed_form_gamma_step(prev.p.item(), prev.q.item(), q_next)
    # closed_form_gamma_step raises on a non-finite gamma
    return _checked_point(prev.index + 1, np.array([q_next]), np.array([gamma]))


def run_closed_form_vf(q_sequence, gamma0: float) -> DiscreteTrajectory:
    """Run the closed-form slope update over a scalar position grid.

    The rows are phase points (q_j, gamma_j).  A SingularDenominatorError
    truncates with core.iterate's failure record in meta, the denominator as
    failure_quantity, and so does an overflowing gamma_next, as a
    NumericalError with that value; completed rows are kept.  On an all-zero grid the very
    first update is rejected this way (the degenerate fixed point of the
    benchmark).
    """
    arr = as_grid(q_sequence)
    # point j sits at arr[j - 1], so its successor's position is arr[j]
    points, meta = iterate(lambda prev: _gamma_transition(prev, float(arr[prev.index])),
                           PhasePoint(index=1, q=arr[0], p=float(gamma0)), arr.size - 1)
    return DiscreteTrajectory(points=points, meta=meta)


def equivalence_check(H: DiscreteHamiltonian, flow_seq: GeneratingSequence) -> list[float]:
    """Residuals of the field equation along a generating sequence.

    For each transition of flow_seq's points the grid derivative of the
    slope is the difference quotient (DS_next - DS_j) / (q_next - q_j),
    DS in the momentum slot, and the field is
    evaluated at (q_j, DS_next).  When S and DS come from an exact solution
    the residuals vanish up to discretization; comparing them across schemes
    is how the value-evolution and field pictures are checked against each
    other.  Raises DegenerateGridError on repeated positions.
    """
    if H.side is not Side.RIGHT:
        raise ValueError("equivalence_check needs a Side.RIGHT Hamiltonian")
    if H.dim != 1:
        raise ValueError("the difference quotient is one-dimensional only")
    if len(flow_seq) < 2:
        raise ValueError("flow_seq must contain at least two rows")
    residuals = []
    for a, b in zip(flow_seq.points[:-1], flow_seq.points[1:]):
        dq = float(b.q[0]) - float(a.q[0])
        if dq == 0.0:
            raise DegenerateGridError(
                f"repeated position q = {float(a.q[0]):.17g} at j = {a.index}"
            )
        quot = (float(b.p[0]) - float(a.p[0])) / dq
        residuals.append(vf_residual(H, a.q, b.p, quot))
    return residuals
