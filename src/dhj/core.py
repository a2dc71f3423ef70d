"""Shared numeric kernel: vectors, finite differences, damped Newton, the
stepping loop, RK4 reference.

Everything downstream (discrete mechanics, generating-function flows, the
control benchmark) is built on the primitives in this module.  They are
deliberately small and fully deterministic: no randomness, no global state,
float64 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "ConvergenceError",
    "SingularJacobianError",
    "PhasePoint",
    "NewtonConfig",
    "as_vec",
    "as_grid",
    "norm_inf",
    "fd_partial",
    "fd_gradient",
    "fd_jacobian",
    "newton_solve",
    "iterate",
    "rk4_reference",
]

# Jacobians with |det J| below this floor (scaled, see _check_jacobian) are
# treated as singular rather than handed to the linear solver.
SINGULAR_DET_FLOOR = 1e-14


class NumericalError(RuntimeError):
    """A numeric computation produced a non-finite value or cannot proceed.

    quantity is the measured value that tripped the failure (a determinant,
    residual norm, discriminant or denominator), or None when there is none.
    """

    def __init__(self, message: str, quantity: float | None = None):
        super().__init__(message)
        self.quantity = None if quantity is None else float(quantity)


class ConvergenceError(NumericalError):
    """Newton iteration exhausted its budget without meeting the tolerance."""

    def __init__(self, residual_norm: float, iterations: int):
        self.residual_norm = float(residual_norm)
        self.iterations = int(iterations)
        super().__init__(f"no convergence after {self.iterations} iterations, "
                         f"last residual norm {self.residual_norm:.6e}", self.residual_norm)


class SingularJacobianError(NumericalError):
    """The Newton Jacobian is singular at the current iterate."""

    def __init__(self, det: float, scale: float):
        self.det = float(det)
        self.scale = float(scale)
        super().__init__(f"singular Jacobian: |det| = {abs(self.det):.6e} below "
                         f"{SINGULAR_DET_FLOOR:g} * scale (scale = {self.scale:.6e})", self.det)


def as_vec(x, dim: int | None = None, name: str = "value") -> np.ndarray:
    """Coerce a scalar or sequence to a finite 1-D float64 array.

    Scalars become shape-(1,) vectors.  Non-finite entries and rank >= 2
    inputs are rejected with ValueError; this is the single choke point
    through which all numeric inputs pass.
    """
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be a scalar or 1-D vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"{name} must have dimension {dim}, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries: {v}")
    return v


def as_grid(q_sequence) -> np.ndarray:
    """A scalar position grid as a flat float64 array of at least one finite
    entry; the slope recursions run along it."""
    arr = np.asarray(q_sequence, dtype=float).reshape(-1)
    if arr.size < 1:
        raise ValueError("q_sequence must contain at least one position")
    if not np.isfinite(arr).all():
        raise ValueError("q_sequence contains non-finite entries")
    return arr


def norm_inf(v) -> float:
    """Max-norm of a vector (or absolute value of a scalar)."""
    return float(np.abs(np.asarray(v, dtype=float)).max())


@dataclass(frozen=True)
class PhasePoint:
    """One phase-space sample (q_j, p_j) at integer step index j >= 1."""

    index: int
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if int(self.index) != self.index or self.index < 1:
            raise ValueError(f"index must be an integer >= 1, got {self.index}")
        object.__setattr__(self, "index", int(self.index))
        q = as_vec(self.q, name="q")
        p = as_vec(self.p, dim=q.size, name="p")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class NewtonConfig:
    """Knobs for the damped Newton iteration and its finite differences."""

    tol: float = 1e-12
    max_iter: int = 50
    damping: float = 1.0
    fd_step: float = 1e-7

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if int(self.max_iter) != self.max_iter or self.max_iter < 1:
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if not (0.0 < self.damping <= 1.0):
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if not (self.fd_step > 0.0):
            raise ValueError(f"fd_step must be positive, got {self.fd_step}")


def fd_partial(f, x, i: int, step: float = 1e-7) -> float:
    """Central-difference partial derivative of scalar f at x along coordinate i.

    f maps a 1-D vector to a scalar.  step must be positive; i must index
    into x.  A non-finite f evaluation raises NumericalError.
    """
    x = as_vec(x, name="x")
    if not (0 <= i < x.size):
        raise ValueError(f"coordinate index {i} out of range for dimension {x.size}")
    if not (step > 0.0):
        raise ValueError(f"step must be positive, got {step}")
    e = np.zeros_like(x)
    e[i] = step
    hi = float(np.asarray(f(x + e), dtype=float))
    lo = float(np.asarray(f(x - e), dtype=float))
    val = (hi - lo) / (2.0 * step)
    if not np.isfinite(val):
        raise NumericalError(
            f"non-finite finite-difference evaluation at coordinate {i} (step {step:g})"
        )
    return val


def fd_gradient(f, x, step: float = 1e-7) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one fd_partial per axis."""
    x = as_vec(x, name="x")
    return np.array([fd_partial(f, x, i, step) for i in range(x.size)])


def fd_jacobian(residual, x, step: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of a residual from R^n to R^n at x (columns
    by axis); 2n residual evaluations, none at x itself."""
    x = as_vec(x, name="x")
    m = x.size
    jac = np.empty((m, m))
    for i in range(m):
        e = np.zeros_like(x)
        e[i] = step
        hi = np.atleast_1d(np.asarray(residual(x + e), dtype=float))
        lo = np.atleast_1d(np.asarray(residual(x - e), dtype=float))
        if hi.size != m or lo.size != m:
            raise ValueError(f"residual must return a vector of dimension {m}")
        jac[:, i] = (hi - lo) / (2.0 * step)
    if not np.isfinite(jac).all():
        raise NumericalError("non-finite entries in finite-difference Jacobian")
    return jac


def _check_jacobian(jac: np.ndarray) -> None:
    # Scaled singularity test: |det J| < floor * max(1, ||J||_inf)^n.  The
    # power of n keeps the test meaningful when J is large in norm but
    # rank-deficient.
    n = jac.shape[0]
    scale = max(1.0, float(np.linalg.norm(jac, np.inf)))
    det = float(np.linalg.det(jac))
    if abs(det) < SINGULAR_DET_FLOOR * scale**n:
        raise SingularJacobianError(det=det, scale=scale)


def newton_solve(residual, guess, cfg: NewtonConfig | None = None,
                 jacobian=None) -> np.ndarray:
    """Solve residual(x) = 0 by damped Newton from guess; returns the root.

    residual maps an n-vector to an n-vector; jacobian, if given, maps the
    iterate to the n x n Jacobian (otherwise central differences with
    cfg.fd_step are used).  Convergence means ||residual||_inf <= cfg.tol.
    A guess that already satisfies the tolerance is returned unchanged after
    one residual evaluation.

    A 1 x 1 step is the division r / J[0, 0], bitwise what
    np.linalg.solve returns for it, under the same scaled singularity test
    on det J = J[0, 0] and ||J||_inf = |J[0, 0]|; a SingularJacobianError
    carries that entry exactly as its det.  Larger systems go through
    np.linalg.det and np.linalg.solve.
    """
    if cfg is None:
        cfg = NewtonConfig()
    x = as_vec(guess, name="guess").copy()
    n = x.size

    def _eval(z: np.ndarray) -> np.ndarray:
        r = np.atleast_1d(np.asarray(residual(z), dtype=float))
        if r.ndim != 1 or r.size != n:
            raise ValueError(
                f"residual must return a vector of dimension {n}, got shape {r.shape}"
            )
        if not np.isfinite(r).all():
            raise NumericalError(f"non-finite residual evaluation at x = {z}")
        return r

    r = _eval(x)
    rn = norm_inf(r)
    for iteration in range(cfg.max_iter + 1):
        if rn <= cfg.tol:
            return x
        if iteration == cfg.max_iter:
            break
        if jacobian is not None:
            jac = np.asarray(jacobian(x), dtype=float).reshape(n, n)
            if not np.isfinite(jac).all():
                raise NumericalError("non-finite entries in supplied Jacobian")
        else:
            jac = fd_jacobian(residual, x, cfg.fd_step)
        if n == 1:
            # Python floats: a step that overflows is inf, as from LAPACK,
            # with no numpy warning
            a = float(jac[0, 0])
            scale = max(1.0, abs(a))
            if abs(a) < SINGULAR_DET_FLOOR * scale:
                raise SingularJacobianError(det=a, scale=scale)
            dx = float(r[0]) / a
        else:
            _check_jacobian(jac)
            dx = np.linalg.solve(jac, r)
        x = x - cfg.damping * dx
        r = _eval(x)
        rn = norm_inf(r)
    raise ConvergenceError(residual_norm=rn, iterations=cfg.max_iter)


def iterate(step, first, steps: int, first_index: int = 1) -> tuple[list, dict]:
    """Apply step (an item to the next item) to the last item up to steps
    times: the one stepping loop of the trajectory and slope runners.

    Returns the items, first included, and the failure record meta.  A
    NumericalError from step ends the run instead of propagating: the items
    so far are kept and meta records truncated = True, failure (the class
    name), failure_index (the index of the item the failed step started
    from, counting first as first_index), failure_message and
    failure_quantity (the error's quantity).  An untruncated run leaves
    those four keys None.
    """
    items = [first]
    meta: dict = {"truncated": False, "failure": None, "failure_index": None,
                  "failure_message": None, "failure_quantity": None}
    for k in range(steps):
        try:
            items.append(step(items[-1]))
        except NumericalError as exc:
            meta.update(truncated=True, failure=type(exc).__name__,
                        failure_index=first_index + k, failure_message=str(exc),
                        failure_quantity=exc.quantity)
            break
    return items, meta


def rk4_reference(ham_field, x0: PhasePoint, dt: float, steps: int) -> list[PhasePoint]:
    """Classic fixed-step RK4 on a phase-space vector field, as a reference orbit.

    ham_field maps the stacked state (q, p) of length 2n to its time
    derivative of length 2n.  Returns steps + 1 points starting at x0 with
    consecutive indices.  Used as an independent continuous-time oracle to
    compare discrete trajectories against; not an integrator meant for
    production accuracy tuning.
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if int(steps) != steps or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    n = x0.dim
    y = np.concatenate([x0.q, x0.p])

    def _field(z: np.ndarray) -> np.ndarray:
        f = np.atleast_1d(np.asarray(ham_field(z), dtype=float))
        if f.ndim != 1 or f.size != 2 * n:
            raise ValueError(
                f"ham_field must return a vector of dimension {2 * n}, got shape {f.shape}"
            )
        if not np.isfinite(f).all():
            raise NumericalError("non-finite vector field evaluation")
        return f

    out = [x0]
    for k in range(int(steps)):
        k1 = _field(y)
        k2 = _field(y + 0.5 * dt * k1)
        k3 = _field(y + 0.5 * dt * k2)
        k4 = _field(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise NumericalError(f"non-finite state after RK4 step {k + 1}")
        out.append(PhasePoint(index=x0.index + k + 1, q=y[:n], p=y[n:]))
    return out
