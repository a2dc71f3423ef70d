"""Discrete mechanics on a lattice: one-step Lagrangians, their right/left
discrete Hamiltonian duals, and the induced phase-space maps.

Conventions.  A discrete Lagrangian L_d(q_j, q_next) generates momenta through
its two slot partials D1, D2.  The right Hamiltonian H+(q_j, p_next) and left
Hamiltonian H-(q_next, p_j) are its two partial Legendre duals; their step
equations are

    right:  q_next = D2 H+(q_j, p_next),   p_j    = D1 H+(q_j, p_next)
    left:   q_j    = -D2 H-(q_next, p_j),  p_next = -D1 H-(q_next, p_j)

where d1/d2 always differentiate the first/second argument slot.  One body
serves both sides of each relation, reading the side off H; step_right
and step_left each accept only their own.

Both duals of one L_d generate the same map: the discrete Lagrangian flow
(Lall & West 2006; Marsden & West 2001).  A dual built by
hamiltonian_from_lagrangian keeps its L_d, and both steppers take it
directly: solve D1 L_d(q_j, q_next) = -p_j for q_next with one Newton solve,
then read p_next = D2 L_d(q_j, q_next).  Its eval/d1/d2 still go through
their own Legendre inversions, so verify_step re-checks a step independently.

A DiscreteLagrangian may carry its second partials d11, d12 and d22, model
data like its slot partials.  Each is the exact Newton Jacobian of one of
these solves: d12 of the momentum relation (both steppers), d22 of the
right dual's inversion of D2 L_d, d11 of the left dual's inversion of
D1 L_d.  Without one, Newton differences d1 or d2 centrally,
two more evaluations per iteration and often one more iteration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (_FLOAT64, NumericalError, PhasePoint, _boxed, _checked_point, _positive_int,
                   _unboxed, as_vec, dot, fd_jacobian, iterate, newton_solve, norm_inf)

__all__ = [
    "Side",
    "DiscreteLagrangian",
    "DiscreteHamiltonian",
    "DiscreteTrajectory",
    "hamiltonian_from_lagrangian",
    "step_right",
    "step_left",
    "verify_step",
    "run_trajectory",
    "symplecticity_defect",
    "left_right_relation_residual",
]

DEFECT_STEP = 1e-6  # symplecticity_defect's central-difference step


class Side(enum.Enum):
    """Which partial Legendre dual a discrete Hamiltonian is."""

    RIGHT = "right"
    LEFT = "left"


@dataclass(frozen=True)
class DiscreteLagrangian:
    """One-step Lagrangian L_d(q_j, q_next) with analytic slot partials.

    eval(q_j, q_next) -> scalar; d1 and d2 return the gradient with respect
    to the first and second slot as vectors of length dim.  The optional
    second partials d11(a, b), d12(a, b) and d22(a, b) are the dim x dim
    Jacobians of d1 in the first slot, d1 in the second slot and d2 in the
    second slot; the module docstring names the Newton solve each serves.
    Every callback receives 1-D float64 arrays of length dim and returns a
    float64 array (eval a scalar), which is used as returned.  The one-entry
    float rule: with dim = 1 each callback may return a Python float in place
    of its one-entry array (eval and the slot partials) or its 1 x 1 array
    (the second partials).  A step boxes a slot partial's float once, in
    _computed, and the duals of hamiltonian_from_lagrangian still return
    float64 arrays from d1 and d2.
    """

    eval: object
    d1: object
    d2: object
    dim: int
    d11: object = None
    d12: object = None
    d22: object = None

    def __post_init__(self):
        object.__setattr__(self, "dim", _positive_int("dim", self.dim))


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Right or left discrete Hamiltonian with slot partials d1, d2.

    Slot convention: side Right means eval(q_j, p_next), side Left means
    eval(q_next, p_j).  d1/d2 differentiate the first/second slot and return
    vectors of length dim.  The optional d12(a, b) and d22(a, b) are the
    dim x dim Jacobians of d1 and d2 with respect to the second slot; with
    d12 step_right hands Newton an exact Jacobian instead of central
    differences of d1, and with both hj_vf.solve_gamma_generic does.  The
    optional lagrangian is the L_d this Hamiltonian is a Legendre dual of;
    when it is set, step_right and step_left take the discrete Lagrangian
    flow of L_d and use neither d12 nor the partials.  The partials receive
    1-D float64 arrays of length dim and return float64 arrays (eval a
    scalar), which no layer re-coerces: inputs are validated once, at the
    public entry points (PhasePoint, as_vec, as_grid), and an output once,
    by _computed where it enters a step or by Newton as a residual.
    """

    side: Side
    eval: object
    d1: object
    d2: object
    dim: int
    d12: object = None
    d22: object = None
    lagrangian: DiscreteLagrangian | None = None

    def __post_init__(self):
        if not isinstance(self.side, Side):
            raise ValueError(f"side must be a Side enum member, got {self.side!r}")
        object.__setattr__(self, "dim", _positive_int("dim", self.dim))


@dataclass
class DiscreteTrajectory:
    """An ordered run of phase points plus bookkeeping about how it was made.

    meta records the failure record of core.iterate; the points before a
    failed step are kept.  An orbit from run_trajectory also records its
    side and steps_requested; one that its until callback ended early is
    untruncated and shorter than steps_requested.  Every adjacent pair
    solves the stepper's Newton equation to its tolerance: D1 H+ (right) or
    D2 H- (left), or, for a dual of a Lagrangian, D1 L_d(q_j, q_next) =
    -p_j.  verify_step re-checks a pair through H's own partials.  The slope
    runners of hj_vf return the same container with the slope gamma_j in
    the momentum slot; they make no step-equation promise.
    """

    points: list[PhasePoint]
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)


def _computed(value, dim: int, name: str) -> np.ndarray:
    """A value the model computed as a float64 dim-vector, checked once where
    it enters a step: a non-finite entry is a NumericalError naming the
    value, with that entry as its quantity, so a run truncates there; a
    non-finite point from the caller stays as_vec's ValueError.  A finite
    one-entry float64 vector comes back as it is after one float test, and a
    finite Python float of one entry in a new one-entry array."""
    if (type(value) is np.ndarray and value.shape == (1,) and value.dtype is _FLOAT64
            and dim == 1 and math.isfinite(value.item())):
        return value
    if type(value) is float and dim == 1 and math.isfinite(value):
        return np.array([value])
    v = np.asarray(value, dtype=float)
    for entry in v.ravel().tolist():
        if not math.isfinite(entry):
            raise NumericalError(f"{name} contains non-finite entries: {np.atleast_1d(v)}",
                                 entry)
    if v.ndim > 1 or v.size != dim:
        raise ValueError(f"{name} must have dimension {dim}, got shape {v.shape}")
    return v if v.ndim else v.reshape(1)


def hamiltonian_from_lagrangian(L: DiscreteLagrangian, side: Side) -> DiscreteHamiltonian:
    """Build the right or left discrete Hamiltonian of L_d by Legendre duality.

    The evaluator inverts the matching momentum relation with a Newton solve
    and forms the dual value; the partials come from the envelope identities,
    so only L_d's first partials are needed (its second partials, when set,
    are the inversions' Newton Jacobians: d22 on the right, d11 on the left):

        right, with y(q, p') solving D2 L_d(q, y) = p':
            H+ = p'. y - L_d(q, y),  d1 = -D1 L_d(q, y),  d2 = y
        left, with y(q', p) solving D1 L_d(y, q') = -p:
            H- = -p . y - L_d(y, q'),  d1 = -D2 L_d(y, q'),  d2 = -y

    The result keeps L as its lagrangian field, so step_right and step_left
    take the discrete Lagrangian flow instead of these inversions.
    """
    if side is Side.RIGHT:
        d_q, d_y, d_yy = L.d1, L.d2, L.d22
    elif side is Side.LEFT:
        d_q, d_y, d_yy = L.d2, L.d1, L.d11
    else:
        raise ValueError(f"side must be Side.RIGHT or Side.LEFT, got {side!r}")
    right = side is Side.RIGHT

    def _recover(q: np.ndarray, p: np.ndarray) -> np.ndarray:
        # invert p = D2 L_d(q, .) on the right, p = -D1 L_d(., q) on the left,
        # from the guess q; a - (-p) is a + p, bit for bit, also in floats
        pv = _unboxed(p)
        if right:
            residual, jacobian = (lambda y: _unboxed(d_y(q, y)) - pv), (lambda y: d_yy(q, y))
        else:
            residual, jacobian = (lambda y: _unboxed(d_y(y, q)) + pv), (lambda y: d_yy(y, q))
        return newton_solve(residual, q, jacobian=None if d_yy is None else jacobian)

    def _eval(q: np.ndarray, p: np.ndarray) -> float:
        y = _recover(q, p)
        py = dot(p, y)
        # -dot(p, y), not dot(-p, y): the sign of a zero product differs
        return py - float(L.eval(q, y)) if right else -py - float(L.eval(y, q))

    def _d1(q: np.ndarray, p: np.ndarray) -> np.ndarray:
        y = _recover(q, p)
        return _boxed(-(d_q(q, y) if right else d_q(y, q)))

    return DiscreteHamiltonian(side=side, eval=_eval, d1=_d1,
                               d2=_recover if right else (lambda q, p: -_recover(q, p)),
                               dim=L.dim, lagrangian=L)


def step_right(H: DiscreteHamiltonian, x: PhasePoint) -> PhasePoint:
    """One right-Hamiltonian step: solve p_j = D1 H+(q_j, p_next) for p_next,
    then read off q_next = D2 H+(q_j, p_next).  Guess for p_next is p_j; the
    Newton Jacobian is H.d12 when set, else central differences of D1 H+.
    A dual of a Lagrangian takes the discrete Lagrangian flow of H.lagrangian
    instead (see the module docstring)."""
    return _step(H, x, Side.RIGHT)


def step_left(H: DiscreteHamiltonian, x: PhasePoint) -> PhasePoint:
    """One left-Hamiltonian step: solve q_j = -D2 H-(q_next, p_j) for q_next,
    then read off p_next = -D1 H-(q_next, p_j).  Guess for q_next is q_j.
    A dual of a Lagrangian takes the discrete Lagrangian flow of H.lagrangian
    instead (see the module docstring)."""
    return _step(H, x, Side.LEFT)


def _step(H: DiscreteHamiltonian, x: PhasePoint, side: Side) -> PhasePoint:
    """The body of step_right and step_left, for an H of the given side."""
    if H.side is not side:
        raise ValueError(f"step_{side.value} needs a Side.{side.name} Hamiltonian, got {H.side}")
    if x.dim != H.dim:
        raise ValueError(f"dimension mismatch: point dim {x.dim}, H dim {H.dim}")
    q, p = _unboxed(x.q), _unboxed(x.p)  # floats for one unknown
    if H.lagrangian is not None:
        # the discrete Lagrangian flow, the step map of both duals of L_d: solve
        # D1 L_d(q_j, q_next) + p_j = 0 from q_j, with Jacobian L.d12 when set
        L = H.lagrangian
        jacobian = None if L.d12 is None else (lambda y: L.d12(x.q, y))
        q_next = newton_solve(lambda y: _unboxed(L.d1(x.q, y)) + p, x.q, jacobian=jacobian)
        p_next = _computed(L.d2(x.q, q_next), H.dim, "D2 L_d")
    elif side is Side.RIGHT:
        jacobian = None if H.d12 is None else (lambda g: H.d12(x.q, g))
        p_next = newton_solve(lambda g: _unboxed(H.d1(x.q, g)) - p, x.p, jacobian=jacobian)
        q_next = _computed(H.d2(x.q, p_next), H.dim, "D2 H+")
    else:
        q_next = newton_solve(lambda g: -_unboxed(H.d2(g, x.p)) - q, x.q)
        p_next = -_computed(H.d1(q_next, x.p), H.dim, "D1 H-")
    return _checked_point(x.index + 1, q_next, p_next)


def verify_step(H: DiscreteHamiltonian, a: PhasePoint, b: PhasePoint) -> float:
    """Max-norm residual of the step equations on the adjacent pair (a, b)."""
    if H.side is Side.RIGHT:
        r1 = norm_inf(H.d1(a.q, b.p) - a.p)
        r2 = norm_inf(H.d2(a.q, b.p) - b.q)
    else:
        r1 = norm_inf(-H.d2(b.q, a.p) - a.q)
        r2 = norm_inf(-H.d1(b.q, a.p) - b.p)
    return max(r1, r2)


def run_trajectory(H: DiscreteHamiltonian, x0: PhasePoint, steps: int,
                   until=None) -> DiscreteTrajectory:
    """Iterate the step map from x0 for the requested number of steps.

    A numeric failure (singular Jacobian, divergence, non-finite values) does
    not raise: the trajectory is truncated at the last good point and meta
    carries core.iterate's failure record, with the index of the point the
    failed step started from, plus side and steps_requested.  until, if
    given, is called with each new point, and the orbit ends after the
    first one it returns true for: untruncated, and shorter than
    steps_requested when that point is not the last.
    """
    if int(steps) != steps or steps < 0:
        raise ValueError(f"steps must be a nonnegative integer, got {steps}")
    stepper = step_right if H.side is Side.RIGHT else step_left
    points, meta = iterate(lambda x: stepper(H, x), x0, int(steps), x0.index, until)
    meta.update(side=H.side.value, steps_requested=int(steps))
    return DiscreteTrajectory(points=points, meta=meta)


def symplecticity_defect(H: DiscreteHamiltonian, x: PhasePoint) -> float:
    """Max-norm of DF^T J DF - J for the step map F at x, with J the standard
    symplectic matrix.  Zero for an exact symplectic map; for dim 1 this
    equals |det DF - 1|.  DF is taken by central differences with
    DEFECT_STEP, whose probes around a finite point are finite."""
    n = H.dim
    stepper = step_right if H.side is Side.RIGHT else step_left

    def flow(z: np.ndarray) -> np.ndarray:
        pt = stepper(H, _checked_point(x.index, z[:n], z[n:]))
        return np.concatenate([pt.q, pt.p])

    df = fd_jacobian(flow, np.concatenate([x.q, x.p]), DEFECT_STEP)
    sym = np.zeros((2 * n, 2 * n))
    eye = np.eye(n)
    sym[:n, n:] = eye
    sym[n:, :n] = -eye
    # a DF too large to square reads inf or NaN, which the caller reports
    with np.errstate(over="ignore", invalid="ignore"):
        defect = df.T @ sym @ df - sym
    return float(np.linalg.norm(defect, np.inf))


def left_right_relation_residual(Hp: DiscreteHamiltonian, Hm: DiscreteHamiltonian,
                                 q_j, p_j, q_next, p_next) -> float:
    """Residual of the identity tying the two duals of one L_d:

        H-(q_next, p_j) + p_j . q_j = H+(q_j, p_next) - p_next . q_next

    Both sides equal -L_d(q_j, q_next) when the arguments obey the Legendre
    relations, so the residual vanishes on trajectory data."""
    if Hp.side is not Side.RIGHT or Hm.side is not Side.LEFT:
        raise ValueError("expected a (right, left) Hamiltonian pair")
    return _left_right_gap(Hp, Hm, as_vec(q_j, dim=Hp.dim, name="q_j"),
                           as_vec(p_j, dim=Hp.dim, name="p_j"),
                           as_vec(q_next, dim=Hp.dim, name="q_next"),
                           as_vec(p_next, dim=Hp.dim, name="p_next"))


def _left_right_gap(Hp, Hm, q_j, p_j, q_next, p_next) -> float:
    """left_right_relation_residual at 1-D float64 arrays already checked."""
    lhs = float(Hm.eval(q_next, p_j)) + dot(p_j, q_j)
    rhs = float(Hp.eval(q_j, p_next)) - dot(p_next, q_next)
    return abs(lhs - rhs)
