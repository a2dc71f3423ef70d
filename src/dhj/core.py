"""Shared numeric kernel: vectors, finite differences, damped Newton and the
stepping loop.

Everything downstream (discrete mechanics, generating-function flows, the
control benchmark) is built on the primitives in this module.  They are
deliberately small and fully deterministic: no randomness, no global state,
float64 throughout.

Inputs are validated where they enter: as_vec (and PhasePoint, which calls
it) at an API boundary, once per call chain.  Past it, vectors are 1-D
float64 arrays, and the inner calls that receive them trust them.  The
vectors hold one or two entries, where numpy's fixed cost per call outweighs
the arithmetic, so the max-norm, one-entry products and the finiteness tests
run over Python floats.
"""

from __future__ import annotations

import math
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
    "dot",
    "fd_gradient",
    "fd_jacobian",
    "newton_solve",
    "iterate",
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
    """Newton iteration exhausted its budget without meeting the tolerance.

    It reports the outcome of max_iter iterations (its `iterations`):
    residual_norm is the norm after the last of them, also when
    newton_solve stopped early on a repeated iterate and read that norm off
    the cycle.
    """

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
    v = _atleast_1d(x)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a scalar or 1-D vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"{name} must have dimension {dim}, got {v.size}")
    if not _finite(v):
        raise ValueError(f"{name} contains non-finite entries: {v}")
    return v


def _atleast_1d(x) -> np.ndarray:
    # np.atleast_1d(np.asarray(x, dtype=float)) without the wrapper's cost
    v = np.asarray(x, dtype=float)
    return v.reshape(1) if v.ndim == 0 else v


def _finite(a: np.ndarray) -> bool:
    return all(map(math.isfinite, a.ravel().tolist()))


def as_grid(q_sequence) -> np.ndarray:
    """A scalar position grid as a flat float64 array of at least one finite
    entry; the slope recursions run along it."""
    arr = np.asarray(q_sequence, dtype=float).reshape(-1)
    if arr.size < 1:
        raise ValueError("q_sequence must contain at least one position")
    if not _finite(arr):
        raise ValueError("q_sequence contains non-finite entries")
    return arr


def norm_inf(v) -> float:
    """Max-norm of a vector (or absolute value of a scalar); any shape is
    read flat.  NaN if any entry is NaN; ValueError if there is no entry."""
    v = np.asarray(v, dtype=float)
    if v.size == 1:
        return abs(v.item())
    vals = v.ravel().tolist()
    if not vals:
        raise ValueError("norm_inf needs at least one entry")
    # max() would keep a NaN only in first place, so look for one
    return math.nan if any(map(math.isnan, vals)) else max(map(abs, vals))


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b of two 1-D float vectors of one size, as a float.

    One entry is multiplied in Python floats: bitwise numpy's matmul, which
    sums from +0.0 (so a -0.0 product reads +0.0), but with no numpy warning
    when the product overflows or is inf * 0.  Longer vectors go through
    matmul.
    """
    if a.size == 1:
        return 0.0 + a.item() * b.item()
    return float(a @ b)


def _power(x: float, n: int) -> float:
    """x ** n in Python floats, bitwise numpy's, with no overflow warning: where
    Python raises OverflowError, numpy returns the signed infinity given here."""
    try:
        return x ** n
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


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


def _checked_point(index: int, q: np.ndarray, p: np.ndarray) -> PhasePoint:
    """A PhasePoint of values already checked, stored as given."""
    pt = object.__new__(PhasePoint)
    pt.__dict__.update(index=index, q=q, p=p)
    return pt


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


_DEFAULT_NEWTON = NewtonConfig()  # newton_solve's cfg when it is given none


def fd_gradient(f, x, step: float = 1e-7) -> np.ndarray:
    """Central-difference gradient of scalar f at x (f maps a 1-D vector to a
    scalar), one partial per axis, with x and step validated once.  step must
    be positive; a non-finite partial raises NumericalError."""
    x = as_vec(x, name="x")
    _check_step(step)
    grad = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        val = (float(f(x + e)) - float(f(x - e))) / (2.0 * step)
        if not math.isfinite(val):
            raise NumericalError(f"non-finite finite-difference evaluation at coordinate {i} "
                                 f"(step {step:g})")
        grad.append(val)
    return np.array(grad)


def _check_step(step: float) -> None:
    if not (step > 0.0):
        raise ValueError(f"step must be positive, got {step}")


def fd_jacobian(residual, x, step: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of a residual from R^n to R^n at x (columns
    by axis); 2n residual evaluations, none at x itself.  step must be
    positive.  One entry is differenced in Python floats, bitwise numpy's."""
    x = as_vec(x, name="x")
    _check_step(step)
    m = x.size
    if m == 1:
        x0 = x.item()
        hi = _atleast_1d(residual(np.array([x0 + step])))
        lo = _atleast_1d(residual(np.array([x0 - step])))
        if hi.size != 1 or lo.size != 1:
            raise ValueError("residual must return a vector of dimension 1")
        d = (hi.item() - lo.item()) / (2.0 * step)
        if not math.isfinite(d):
            raise NumericalError("non-finite entries in finite-difference Jacobian")
        return np.array([[d]])
    jac = np.empty((m, m))
    for i in range(m):
        e = np.zeros_like(x)
        e[i] = step
        hi = _atleast_1d(residual(x + e))
        lo = _atleast_1d(residual(x - e))
        if hi.size != m or lo.size != m:
            raise ValueError(f"residual must return a vector of dimension {m}")
        # Python floats: inf - inf is nan, with no numpy warning
        jac[:, i] = [(a - b) / (2.0 * step) for a, b in zip(hi.tolist(), lo.tolist())]
    if not _finite(jac):
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
    one residual evaluation.  A converged iterate with a non-finite entry (a
    step overflowed) raises NumericalError with that entry as its quantity.

    Both residual and jacobian must be functions of the iterate alone: the
    same x (bit for bit) gives the same values.  So once an iterate repeats
    an earlier one, every later iterate is known.  The solve then stops
    before building another Jacobian and raises the ConvergenceError that
    cfg.max_iter iterations would raise, with the residual norm the cycle
    reaches at iteration cfg.max_iter.

    A 1 x 1 step is the division r / J[0, 0], bitwise what
    np.linalg.solve returns for it, under the same scaled singularity test
    on det J = J[0, 0] and ||J||_inf = |J[0, 0]|; a SingularJacobianError
    carries that entry exactly as its det.  Larger systems go through
    np.linalg.det and np.linalg.solve.
    """
    if cfg is None:
        cfg = _DEFAULT_NEWTON
    x = as_vec(guess, name="guess").copy()
    n = x.size

    def _eval(z: np.ndarray) -> np.ndarray:
        r = _atleast_1d(residual(z))
        if r.ndim != 1 or r.size != n:
            raise ValueError(
                f"residual must return a vector of dimension {n}, got shape {r.shape}"
            )
        if not _finite(r):
            raise NumericalError(f"non-finite residual evaluation at x = {z}")
        return r

    r = _eval(x)
    rn = norm_inf(r)
    seen: dict[bytes, int] = {}
    norms: list[float] = []
    for iteration in range(cfg.max_iter + 1):
        if rn <= cfg.tol:
            for v in x.tolist():
                if not math.isfinite(v):
                    raise NumericalError(f"root x = {x} is not finite", v)
            return x
        if iteration == cfg.max_iter:
            break
        key = x.tobytes()
        j = seen.get(key)
        if j is not None:
            # x repeats x_j, so the iterates cycle with period iteration - j
            # from j on; iteration max_iter would end on this norm
            rn = norms[j + (cfg.max_iter - j) % (iteration - j)]
            break
        seen[key] = iteration
        norms.append(rn)
        if jacobian is not None:
            jac = np.asarray(jacobian(x), dtype=float).reshape(n, n)
            if not _finite(jac):
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

