"""Discrete mechanics on a lattice: one-step Lagrangians, their Legendre
transforms, right/left discrete Hamiltonians, and the induced phase-space maps.

Conventions.  A discrete Lagrangian L_d(q_j, q_next) generates momenta through
its two slot partials D1, D2.  The right Hamiltonian H+(q_j, p_next) and left
Hamiltonian H-(q_next, p_j) are its two partial Legendre duals; their step
equations are

    right:  q_next = D2 H+(q_j, p_next),   p_j    = D1 H+(q_j, p_next)
    left:   q_j    = -D2 H-(q_next, p_j),  p_next = -D1 H-(q_next, p_j)

where d1/d2 always differentiate the first/second argument slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import (
    NewtonConfig,
    NumericalError,
    PhasePoint,
    as_vec,
    fd_jacobian,
    newton_solve,
    norm_inf,
)

__all__ = [
    "Side",
    "DiscreteLagrangian",
    "DiscreteHamiltonian",
    "DiscreteTrajectory",
    "legendre_right",
    "legendre_left",
    "del_step",
    "hamiltonian_from_lagrangian",
    "step_right",
    "step_left",
    "verify_step",
    "run_trajectory",
    "symplecticity_defect",
    "discrete_one_forms",
    "left_right_relation_residual",
]


class Side(enum.Enum):
    """Which partial Legendre dual a discrete Hamiltonian is."""

    RIGHT = "right"
    LEFT = "left"


@dataclass(frozen=True)
class DiscreteLagrangian:
    """One-step Lagrangian L_d(q_j, q_next) with analytic slot partials.

    eval(q_j, q_next) -> scalar; d1 and d2 return the gradient with respect
    to the first and second slot as vectors of length dim.
    """

    eval: object
    d1: object
    d2: object
    dim: int

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Right or left discrete Hamiltonian with slot partials d1, d2.

    Slot convention: side Right means eval(q_j, p_next), side Left means
    eval(q_next, p_j).  d1/d2 differentiate the first/second slot and return
    vectors of length dim.  The optional d12(a, b) is the dim x dim Jacobian
    of d1 with respect to the second slot; with it step_right hands Newton
    an exact Jacobian instead of central differences of d1.
    """

    side: Side
    eval: object
    d1: object
    d2: object
    dim: int
    d12: object = None

    def __post_init__(self):
        if not isinstance(self.side, Side):
            raise ValueError(f"side must be a Side enum member, got {self.side!r}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))


@dataclass
class DiscreteTrajectory:
    """An ordered run of phase points plus bookkeeping about how it was made.

    meta records the generating configuration and, when a step failed, the
    truncation flag with the failure class and the index it occurred at; the
    points before the failure are kept.  Every adjacent pair satisfies the
    step equations up to the Newton tolerance and can be re-checked with
    verify_step.
    """

    points: list[PhasePoint]
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def q_array(self) -> np.ndarray:
        return np.array([pt.q for pt in self.points])

    @property
    def p_array(self) -> np.ndarray:
        return np.array([pt.p for pt in self.points])


def legendre_right(L: DiscreteLagrangian, q_j, q_next, index: int = 1) -> PhasePoint:
    """Right Legendre transform: the pair (q_j, q_next) to (q_next, D2 L_d)."""
    q_j = as_vec(q_j, dim=L.dim, name="q_j")
    q_next = as_vec(q_next, dim=L.dim, name="q_next")
    p_next = as_vec(L.d2(q_j, q_next), dim=L.dim, name="D2 L_d")
    return PhasePoint(index=index + 1, q=q_next, p=p_next)


def legendre_left(L: DiscreteLagrangian, q_j, q_next, index: int = 1) -> PhasePoint:
    """Left Legendre transform: the pair (q_j, q_next) to (q_j, -D1 L_d)."""
    q_j = as_vec(q_j, dim=L.dim, name="q_j")
    q_next = as_vec(q_next, dim=L.dim, name="q_next")
    p_j = -as_vec(L.d1(q_j, q_next), dim=L.dim, name="D1 L_d")
    return PhasePoint(index=index, q=q_j, p=p_j)


def del_step(L: DiscreteLagrangian, q_prev, q_j, cfg: NewtonConfig | None = None,
             guess=None) -> np.ndarray:
    """Advance the discrete Euler-Lagrange equations by one position.

    Solves D2 L_d(q_prev, q_j) + D1 L_d(q_j, q_next) = 0 for q_next.  The
    default guess is the linear extrapolation 2 q_j - q_prev.
    """
    q_prev = as_vec(q_prev, dim=L.dim, name="q_prev")
    q_j = as_vec(q_j, dim=L.dim, name="q_j")
    if guess is None:
        guess = 2.0 * q_j - q_prev
    const = as_vec(L.d2(q_prev, q_j), dim=L.dim, name="D2 L_d")

    def residual(y: np.ndarray) -> np.ndarray:
        return const + np.asarray(L.d1(q_j, y), dtype=float)

    return newton_solve(residual, guess, cfg)


def hamiltonian_from_lagrangian(L: DiscreteLagrangian, side: Side,
                                cfg: NewtonConfig | None = None) -> DiscreteHamiltonian:
    """Build the right or left discrete Hamiltonian of L_d by Legendre duality.

    The evaluator inverts the matching momentum relation with an inner Newton
    solve and forms the dual value; the partials come from the envelope
    identities, so only L_d's first partials are ever needed:

        right, with y(q, p') solving D2 L_d(q, y) = p':
            H+ = p'. y - L_d(q, y),  d1 = -D1 L_d(q, y),  d2 = y
        left, with y(q', p) solving D1 L_d(y, q') = -p:
            H- = -p . y - L_d(y, q'),  d1 = -D2 L_d(y, q'),  d2 = -y

    cfg tunes the inner solves (default NewtonConfig()).
    """
    inner = cfg if cfg is not None else NewtonConfig()

    if side is Side.RIGHT:

        def _recover(q: np.ndarray, p_next: np.ndarray) -> np.ndarray:
            # invert p_next = D2 L_d(q, .) from the guess q
            return newton_solve(
                lambda y: np.asarray(L.d2(q, y), dtype=float) - p_next, q, inner
            )

        def _eval(q, p_next) -> float:
            q = as_vec(q, dim=L.dim, name="q_j")
            p_next = as_vec(p_next, dim=L.dim, name="p_next")
            y = _recover(q, p_next)
            return float(p_next @ y) - float(L.eval(q, y))

        def _d1(q, p_next) -> np.ndarray:
            q = as_vec(q, dim=L.dim, name="q_j")
            p_next = as_vec(p_next, dim=L.dim, name="p_next")
            y = _recover(q, p_next)
            return -np.asarray(L.d1(q, y), dtype=float)

        def _d2(q, p_next) -> np.ndarray:
            q = as_vec(q, dim=L.dim, name="q_j")
            p_next = as_vec(p_next, dim=L.dim, name="p_next")
            return _recover(q, p_next)

        return DiscreteHamiltonian(side=Side.RIGHT, eval=_eval, d1=_d1, d2=_d2, dim=L.dim)

    if side is Side.LEFT:

        def _recover_left(q_next: np.ndarray, p: np.ndarray) -> np.ndarray:
            # invert p = -D1 L_d(., q_next) from the guess q_next
            return newton_solve(
                lambda y: np.asarray(L.d1(y, q_next), dtype=float) + p, q_next, inner
            )

        def _eval_left(q_next, p) -> float:
            q_next = as_vec(q_next, dim=L.dim, name="q_next")
            p = as_vec(p, dim=L.dim, name="p_j")
            y = _recover_left(q_next, p)
            return -float(p @ y) - float(L.eval(y, q_next))

        def _d1_left(q_next, p) -> np.ndarray:
            q_next = as_vec(q_next, dim=L.dim, name="q_next")
            p = as_vec(p, dim=L.dim, name="p_j")
            y = _recover_left(q_next, p)
            return -np.asarray(L.d2(y, q_next), dtype=float)

        def _d2_left(q_next, p) -> np.ndarray:
            q_next = as_vec(q_next, dim=L.dim, name="q_next")
            p = as_vec(p, dim=L.dim, name="p_j")
            return -_recover_left(q_next, p)

        return DiscreteHamiltonian(side=Side.LEFT, eval=_eval_left, d1=_d1_left,
                                   d2=_d2_left, dim=L.dim)

    raise ValueError(f"side must be Side.RIGHT or Side.LEFT, got {side!r}")


def step_right(H: DiscreteHamiltonian, x: PhasePoint,
               cfg: NewtonConfig | None = None) -> PhasePoint:
    """One right-Hamiltonian step: solve p_j = D1 H+(q_j, p_next) for p_next,
    then read off q_next = D2 H+(q_j, p_next).  Guess for p_next is p_j; the
    Newton Jacobian is H.d12 when set, else central differences of D1 H+."""
    if H.side is not Side.RIGHT:
        raise ValueError(f"step_right needs a Side.RIGHT Hamiltonian, got {H.side}")
    if x.dim != H.dim:
        raise ValueError(f"dimension mismatch: point dim {x.dim}, H dim {H.dim}")

    def residual(g: np.ndarray) -> np.ndarray:
        return np.asarray(H.d1(x.q, g), dtype=float) - x.p

    jacobian = None if H.d12 is None else (lambda g: H.d12(x.q, g))
    p_next = newton_solve(residual, x.p, cfg, jacobian=jacobian)
    q_next = as_vec(H.d2(x.q, p_next), dim=H.dim, name="D2 H+")
    return PhasePoint(index=x.index + 1, q=q_next, p=p_next)


def step_left(H: DiscreteHamiltonian, x: PhasePoint,
              cfg: NewtonConfig | None = None) -> PhasePoint:
    """One left-Hamiltonian step: solve q_j = -D2 H-(q_next, p_j) for q_next,
    then read off p_next = -D1 H-(q_next, p_j).  Guess for q_next is q_j."""
    if H.side is not Side.LEFT:
        raise ValueError(f"step_left needs a Side.LEFT Hamiltonian, got {H.side}")
    if x.dim != H.dim:
        raise ValueError(f"dimension mismatch: point dim {x.dim}, H dim {H.dim}")

    def residual(g: np.ndarray) -> np.ndarray:
        return -np.asarray(H.d2(g, x.p), dtype=float) - x.q

    q_next = newton_solve(residual, x.q, cfg)
    p_next = -as_vec(H.d1(q_next, x.p), dim=H.dim, name="D1 H-")
    return PhasePoint(index=x.index + 1, q=q_next, p=p_next)


def verify_step(H: DiscreteHamiltonian, a: PhasePoint, b: PhasePoint) -> float:
    """Max-norm residual of the step equations on the adjacent pair (a, b)."""
    if H.side is Side.RIGHT:
        r1 = norm_inf(np.asarray(H.d1(a.q, b.p), dtype=float) - a.p)
        r2 = norm_inf(np.asarray(H.d2(a.q, b.p), dtype=float) - b.q)
    else:
        r1 = norm_inf(-np.asarray(H.d2(b.q, a.p), dtype=float) - a.q)
        r2 = norm_inf(-np.asarray(H.d1(b.q, a.p), dtype=float) - b.p)
    return max(r1, r2)


def run_trajectory(H: DiscreteHamiltonian, x0: PhasePoint, steps: int,
                   cfg: NewtonConfig | None = None) -> DiscreteTrajectory:
    """Iterate the step map from x0 for the requested number of steps.

    A numeric failure (singular Jacobian, divergence, non-finite values) does
    not raise: the trajectory is truncated at the last good point and meta
    records truncated = True with the failure class, message, and the index
    of the point the step started from.
    """
    if int(steps) != steps or steps < 0:
        raise ValueError(f"steps must be a nonnegative integer, got {steps}")
    stepper = step_right if H.side is Side.RIGHT else step_left
    points = [x0]
    meta: dict = {
        "side": H.side.value,
        "steps_requested": int(steps),
        "truncated": False,
        "failure": None,
        "failure_index": None,
        "failure_message": None,
    }
    for _ in range(int(steps)):
        try:
            points.append(stepper(H, points[-1], cfg))
        except NumericalError as exc:
            meta["truncated"] = True
            meta["failure"] = type(exc).__name__
            meta["failure_index"] = points[-1].index
            meta["failure_message"] = str(exc)
            break
    return DiscreteTrajectory(points=points, meta=meta)


def symplecticity_defect(H: DiscreteHamiltonian, x: PhasePoint,
                         fd_step: float = 1e-6) -> float:
    """Max-norm of DF^T J DF - J for the step map F at x, with J the standard
    symplectic matrix.  Zero for an exact symplectic map; for dim 1 this
    equals |det DF - 1|.  DF is taken by central differences with fd_step."""
    n = H.dim
    stepper = step_right if H.side is Side.RIGHT else step_left

    def flow(z: np.ndarray) -> np.ndarray:
        pt = stepper(H, PhasePoint(index=x.index, q=z[:n], p=z[n:]))
        return np.concatenate([pt.q, pt.p])

    z0 = np.concatenate([x.q, x.p])
    df = fd_jacobian(flow, z0, fd_step)
    sym = np.zeros((2 * n, 2 * n))
    eye = np.eye(n)
    sym[:n, n:] = eye
    sym[n:, :n] = -eye
    defect = df.T @ sym @ df - sym
    return float(np.linalg.norm(defect, np.inf))


def discrete_one_forms(L: DiscreteLagrangian, q_j, q_next) -> tuple[np.ndarray, np.ndarray]:
    """The two discrete one-forms (theta_plus, theta_minus) at a pair:
    theta_plus = D2 L_d(q_j, q_next), theta_minus = -D1 L_d(q_j, q_next).
    Their sum over the two slots is the total differential of L_d, which is
    what makes the step map symplectic."""
    q_j = as_vec(q_j, dim=L.dim, name="q_j")
    q_next = as_vec(q_next, dim=L.dim, name="q_next")
    theta_plus = np.asarray(L.d2(q_j, q_next), dtype=float)
    theta_minus = -np.asarray(L.d1(q_j, q_next), dtype=float)
    return theta_plus, theta_minus


def left_right_relation_residual(Hp: DiscreteHamiltonian, Hm: DiscreteHamiltonian,
                                 q_j, p_j, q_next, p_next) -> float:
    """Residual of the identity tying the two duals of one L_d:

        H-(q_next, p_j) + p_j . q_j = H+(q_j, p_next) - p_next . q_next

    Both sides equal -L_d(q_j, q_next) when the arguments obey the Legendre
    relations, so the residual vanishes on trajectory data."""
    if Hp.side is not Side.RIGHT or Hm.side is not Side.LEFT:
        raise ValueError("expected a (right, left) Hamiltonian pair")
    q_j = as_vec(q_j, dim=Hp.dim, name="q_j")
    p_j = as_vec(p_j, dim=Hp.dim, name="p_j")
    q_next = as_vec(q_next, dim=Hp.dim, name="q_next")
    p_next = as_vec(p_next, dim=Hp.dim, name="p_next")
    lhs = float(Hm.eval(q_next, p_j)) + float(p_j @ q_j)
    rhs = float(Hp.eval(q_j, p_next)) - float(p_next @ q_next)
    return abs(lhs - rhs)
