"""Shared numeric kernel: vectors, finite differences, Newton and the
stepping loop.

Everything downstream (discrete mechanics, generating-function flows, the
control benchmark) is built on the primitives in this module.  They are
deliberately small and fully deterministic: no randomness, no global state,
float64 throughout.

Inputs are validated where they enter: as_vec (and PhasePoint, which calls
it) at an API boundary, once per call chain.  Past it, vectors are 1-D
float64 arrays, and the inner calls that receive them trust them.  The
vectors hold one or two entries, where numpy's fixed cost per call outweighs
the arithmetic, so the max-norm, one-entry products, the finiteness tests,
the finite-difference probes of one entry and the residual and step of
newton_solve's one loop on one unknown run over Python floats, bitwise what
numpy computes.

The one-entry float rule.  Where a value has one entry (a model of dim 1, a
control problem of n = 1 with a one-entry control, a residual of one
unknown), any callback may return a Python float in place of its one-entry
vector or 1 x 1 matrix:
the callbacks of a ControlProblem, a DiscreteLagrangian and a
DiscreteHamiltonian, and a residual or Jacobian handed to newton_solve.  A
model built from another (discretize_right, hamiltonian_from_lagrangian)
hands back what its source computed, float or array.  Every reader takes
either (norm_inf, _entry, _unboxed, newton_solve), and a value is boxed
once, where mechanics._computed makes it an entry of a PhasePoint.
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

# newton_solve's settings, the same for every solve: it converges once
# ||residual||_inf <= TOL, takes at most MAX_ITER steps, and differences the
# residual centrally with FD_STEP when it is given no Jacobian.
TOL = 1e-12
MAX_ITER = 50
FD_STEP = 1e-7

_FLOAT64 = np.dtype(float)


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

    It reports the outcome of MAX_ITER iterations (its `iterations`):
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
    through which all numeric inputs pass.  A finite one-entry float64
    array, the common case, is returned as it is after one float test.
    """
    if (type(x) is np.ndarray and x.shape == (1,) and x.dtype is _FLOAT64
            and math.isfinite(x.item()) and (dim is None or dim == 1)):
        return x
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


def _unboxed(v):
    """v's entry as a float when v is a one-entry float vector, else v: a
    residual formed over it is a float for one unknown, an array for more.
    A float32 entry is widened, as numpy's float64 arithmetic widens it."""
    if type(v) is np.ndarray and v.shape == (1,) and v.dtype.kind == "f":
        return v.item()
    return v


def _entry(v) -> float:
    """v's one entry, for a value known to have one: a float as it is, an
    array's as a float."""
    return v if type(v) is float else v.item()


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
    read flat.  NaN if any entry is NaN; ValueError if there is no entry.
    A Python float and a float64 array are read as they are, one entry as
    abs of its float."""
    if type(v) is float:
        return abs(v)
    if type(v) is not np.ndarray or v.dtype is not _FLOAT64:
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
    sums from +0.0 (so a -0.0 product reads +0.0).  Longer vectors go
    through matmul.  Either way a sum that overflows or meets inf * 0 is
    inf or NaN, with no numpy warning.
    """
    if a.size == 1:
        return 0.0 + a.item() * b.item()
    with np.errstate(over="ignore", invalid="ignore"):
        return float(a @ b)


def _power(x: float, n: int) -> float:
    """x ** n in Python floats, bitwise numpy's, with no overflow warning: where
    Python raises OverflowError, numpy returns the signed infinity given here."""
    try:
        return x ** n
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


def _integer(name: str, value, least: int = 1) -> int:
    """value as an int, or a ValueError naming it when it is not an integer
    of at least least (1, or 0 for a count that may be empty), inf and NaN
    included."""
    try:
        if int(value) == value and value >= least:
            return int(value)
    except (OverflowError, ValueError):  # int() of inf or NaN
        pass
    kind = "positive" if least else "nonnegative"
    raise ValueError(f"{name} must be a {kind} integer, got {value}")


def _positive(name: str, value) -> float:
    """value as a float, or a ValueError naming it when it is not finite and
    positive."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


@dataclass(frozen=True)
class PhasePoint:
    """One phase-space sample (q_j, p_j) at integer step index j >= 1."""

    index: int
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "index", _integer("index", self.index))
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


def fd_gradient(f, x, step: float = 1e-7) -> np.ndarray:
    """Central-difference gradient of scalar f at x (f maps a 1-D vector to a
    scalar), one partial per axis, with x and step validated once.  step must
    be positive and finite; a non-finite partial raises NumericalError."""
    x = as_vec(x, name="x")
    step = _positive("step", step)
    if x.size == 1:
        # Python floats, bitwise numpy's x + e and x - e
        x0 = x.item()
        val = (float(f(np.array([x0 + step]))) - float(f(np.array([x0 - step])))) / (2.0 * step)
        if not math.isfinite(val):
            raise NumericalError(f"non-finite finite-difference evaluation at coordinate 0 "
                                 f"(step {step:g})")
        return np.array([val])
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


def fd_jacobian(residual, x, step: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of a residual from R^n to R^n at x (columns
    by axis); 2n residual evaluations, none at x itself.  step must be
    positive and finite.  One entry is differenced in Python floats, bitwise
    numpy's."""
    x = as_vec(x, name="x")
    step = _positive("step", step)
    m = x.size
    if m == 1:
        x0 = x.item()
        hi, lo = residual(np.array([x0 + step])), residual(np.array([x0 - step]))
        if type(hi) is not float or type(lo) is not float:
            hi, lo = _atleast_1d(hi), _atleast_1d(lo)
            if hi.size != 1 or lo.size != 1:
                raise ValueError("residual must return a vector of dimension 1")
            hi, lo = hi.item(), lo.item()
        d = (hi - lo) / (2.0 * step)
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
    # Scaled singularity test: |det J| < floor * max(1, ||J||_inf)^n, the power
    # of n for a J large in norm but rank-deficient.  det J = det R det Q (-1
    # per reflection with tau != 0) is exact for an upper-triangular J, where
    # np.linalg.det reads a few ulps low.  An overflow is inf, with no warning.
    n = jac.shape[0]
    with np.errstate(over="ignore"):
        scale = max(1.0, float(np.linalg.norm(jac, np.inf)))
        h, tau = np.linalg.qr(jac, mode="raw")
        det = float(np.prod(h.diagonal())) * (-1.0) ** int(np.count_nonzero(tau))
    if abs(det) < SINGULAR_DET_FLOOR * _power(scale, n):
        raise SingularJacobianError(det=det, scale=scale)


def newton_solve(residual, guess, jacobian=None) -> np.ndarray:
    """Solve residual(x) = 0 by Newton from guess; returns the root.

    residual maps an n-vector to an n-vector; jacobian, if given, maps the
    iterate to the n x n Jacobian (otherwise central differences with FD_STEP
    are used); for n = 1 either may return a Python float (the one-entry float
    rule).  Convergence means ||residual||_inf <= TOL.  A guess that already
    satisfies the tolerance is returned as a copy after one residual
    evaluation: the root is never the caller's guess object.  Past as_vec
    the guess is not copied, so residual (and jacobian) see the guess itself
    at their first call and must not write into it.  A converged iterate
    with a non-finite entry (a step overflowed) raises NumericalError with
    that entry as its quantity.

    Both residual and jacobian must be functions of the iterate alone: the
    same x (bit for bit) gives the same values.  So once an iterate repeats
    an earlier one, every later iterate is known.  The solve then stops
    before building another Jacobian and raises the ConvergenceError that
    MAX_ITER iterations would raise, with the residual norm the cycle
    reaches at iteration MAX_ITER (read at call time).

    One loop serves every n: only reading the residual (_read_residual) and
    taking the step (_newton_step) depend on it.
    """
    max_iter = MAX_ITER
    x = as_vec(guess, name="guess")
    r, rn = _read_residual(residual, x)
    seen: dict[bytes, int] = {}
    norms: list[float] = []
    for iteration in range(max_iter + 1):
        if rn <= TOL:
            for v in x.tolist():
                if not math.isfinite(v):
                    raise NumericalError(f"root x = {x} is not finite", v)
            # only the guess can be the caller's object; every step is new
            return x.copy() if iteration == 0 else x
        if iteration == max_iter:
            break
        # a repeat of iterate j: the iterates cycle with period iteration - j
        # from j on, so iteration max_iter ends on a norm already seen
        j = seen.setdefault(x.tobytes(), iteration)
        if j != iteration:
            rn = norms[j + (max_iter - j) % (iteration - j)]
            break
        norms.append(rn)
        x = _newton_step(residual, jacobian, x, r)
        r, rn = _read_residual(residual, x)
    raise ConvergenceError(residual_norm=rn, iterations=max_iter)


def _read_residual(residual, z: np.ndarray):
    """residual(z) and its max-norm: (r, |r|) in Python floats for one entry,
    (the array, its norm) otherwise.  The residual must be a finite vector of
    z's size, or for one entry a finite Python float, taken as it is; its
    first non-finite entry is a NumericalError's quantity."""
    r = residual(z)
    if type(r) is float and z.size == 1 and math.isfinite(r):
        return r, abs(r)
    r = _atleast_1d(r)
    if r.ndim != 1 or r.size != z.size:
        raise ValueError(f"residual must return a vector of dimension {z.size}, "
                         f"got shape {r.shape}")
    if r.size == 1:
        v = r.item()
        if math.isfinite(v):
            return v, abs(v)
    # a non-finite one-entry residual falls through to the raise below
    vals = r.tolist()
    for v in vals:
        if not math.isfinite(v):
            raise NumericalError(f"non-finite residual evaluation at x = {z}", v)
    return r, max(map(abs, vals))


def _newton_step(residual, jacobian, x: np.ndarray, r) -> np.ndarray:
    """The Newton update of iterate x, whose residual r is as
    _read_residual returns it; a supplied Jacobian must be finite.  A float64
    array Jacobian is read as it is, and for one unknown a Python float is
    read as J[0, 0]; anything else goes through np.asarray.  One
    unknown steps by x - r / a, a = J[0, 0], in Python floats,
    bitwise np.linalg.solve's (an overflow is inf, with no numpy warning),
    under _check_jacobian's test on det J = a, so a SingularJacobianError
    carries a exactly as its det."""
    n = x.size
    jac = fd_jacobian(residual, x, FD_STEP) if jacobian is None else jacobian(x)
    if not (type(jac) is np.ndarray and jac.dtype is _FLOAT64
            or type(jac) is float and n == 1):
        jac = np.asarray(jac, dtype=float)
    if n == 1:
        a = jac if type(jac) is float else jac.item()  # ValueError unless one entry
        if not math.isfinite(a):
            raise NumericalError("non-finite entries in supplied Jacobian")
        scale = max(1.0, abs(a))
        if abs(a) < SINGULAR_DET_FLOOR * scale:
            raise SingularJacobianError(det=a, scale=scale)
        return np.array([x.item() - r / a])
    if jacobian is not None:
        jac = jac.reshape(n, n)
        if not _finite(jac):
            raise NumericalError("non-finite entries in supplied Jacobian")
    _check_jacobian(jac)
    return x - np.linalg.solve(jac, r)


def iterate(step, first, steps: int, first_index: int = 1, until=None) -> tuple[list, dict]:
    """Apply step (an item to the next item) to the last item up to steps
    times: the one stepping loop of the trajectory and slope runners.

    Returns the items, first included, and the failure record meta.  A
    NumericalError from step ends the run instead of propagating: the items
    so far are kept and meta records truncated = True, failure (the class
    name), failure_index (the index of the item the failed step started
    from, counting first as first_index), failure_message and
    failure_quantity (the error's quantity).  An untruncated run leaves
    those four keys None.  until, if given, is called with each new item
    and ends the run, untruncated, after the first one it returns true for.
    """
    items = [first]
    meta = _untruncated()
    for k in range(steps):
        try:
            items.append(step(items[-1]))
        except NumericalError as exc:
            _record_failure(meta, exc, first_index + k)
            break
        if until is not None and until(items[-1]):
            break
    return items, meta


def _untruncated() -> dict:
    """The failure record of a run that has not failed."""
    return {"truncated": False, "failure": None, "failure_index": None,
            "failure_message": None, "failure_quantity": None}


def _record_failure(meta: dict, exc: NumericalError, index: int) -> None:
    """Record in meta that the step from the item at index raised exc."""
    meta.update(truncated=True, failure=type(exc).__name__, failure_index=index,
                failure_message=str(exc), failure_quantity=exc.quantity)
