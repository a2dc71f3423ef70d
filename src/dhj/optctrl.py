"""Reduction of controlled dynamics to Hamiltonian form.

A control problem couples a controlled velocity field Gamma(q, u) with a
running cost. Adjoining the dynamics with momenta p gives the function

    H(q, p, u) = p . Gamma(q, u) + sign * cost(q, u)

whose stationarity in u is the secondary constraint

    phi_a(q, p, u) = p . dGamma/du_a + sign * dcost/du_a = 0.

Eliminating u through phi produces a reduced Hamiltonian of (q, p) alone;
substituting the step pair (q_j, p_next) for (q, p) turns it into a right
discrete Hamiltonian pointwise, which is what the lattice machinery consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import NewtonConfig, NumericalError, as_vec, fd_gradient, newton_solve, norm_inf
from .mechanics import DiscreteHamiltonian, DiscreteTrajectory, Side

__all__ = [
    "SignCriterion",
    "ControlProblem",
    "ReducedHamiltonian",
    "secondary_constraint",
    "eliminate_control",
    "reduce",
    "discretize_right",
    "recover_controls",
    "make_sakamoto1d",
    "MODEL_REGISTRY",
]


class SignCriterion(enum.Enum):
    """Sign with which the running cost enters the adjoined Hamiltonian."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def factor(self) -> float:
        return 1.0 if self is SignCriterion.PLUS else -1.0


@dataclass(frozen=True)
class ControlProblem:
    """Controlled dynamics q' = Gamma(q, u) with a running cost.

    gamma(q, u) -> n-vector and cost(q, u) -> scalar take a state q of
    dimension n and a control u of dimension k.  du_gamma (n x k) and
    du_cost (k,) are their analytic control partials; the optional state
    partials dq_gamma (n x n) and dq_cost (n,) sharpen the reduced
    Hamiltonian's slot partials from finite differences to exact values
    when supplied.  The optional d_qp(q, p, u) (n x n) is the reduced
    Hamiltonian's mixed partial d2H/dq dp at the eliminated control u,
    including the part that comes through u's dependence on p; it gives the
    right step an exact Newton Jacobian.
    """

    gamma: object
    cost: object
    du_gamma: object
    du_cost: object
    sign: SignCriterion
    n: int
    k: int
    dq_gamma: object = None
    dq_cost: object = None
    d_qp: object = None

    def __post_init__(self):
        if not isinstance(self.sign, SignCriterion):
            raise ValueError(f"sign must be a SignCriterion member, got {self.sign!r}")
        for label, val in (("n", self.n), ("k", self.k)):
            if int(val) != val or val < 1:
                raise ValueError(f"{label} must be a positive integer, got {val}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True)
class ReducedHamiltonian:
    """Hamiltonian of (q, p) after control elimination.

    eval(q, p) -> scalar; u_of_qp(q, p) -> the eliminated control, which
    satisfies the secondary constraint to solver tolerance; it keeps the
    control of the last (q, p) it was asked for, so the partials at one point
    share one elimination, and returns it read-only.  d_q and d_p are
    analytic slot partials when the underlying problem supplied state
    partials, else None (consumers fall back to finite differences); d_qp,
    the n x n mixed partial d2H/dq dp, is set when the problem supplied it.
    """

    eval: object
    u_of_qp: object
    n: int
    d_q: object = None
    d_p: object = None
    d_qp: object = None


def _vec(x, dim: int) -> np.ndarray:
    """x as a float64 dim-vector, unchecked for finiteness: inner q and p come
    from validated points or Newton iterates; Newton rejects non-finite residuals."""
    return np.asarray(x, dtype=float).reshape(dim)


def secondary_constraint(cp: ControlProblem, q, p, u) -> np.ndarray:
    """phi(q, p, u) = p . dGamma/du + sign * dcost/du, a k-vector."""
    q = _vec(q, cp.n)
    p = _vec(p, cp.n)
    u = _vec(u, cp.k)
    jac = np.asarray(cp.du_gamma(q, u), dtype=float).reshape(cp.n, cp.k)
    grad = _vec(cp.du_cost(q, u), cp.k)
    return jac.T @ p + cp.sign.factor * grad


# Relative threshold for the second-difference probe that detects a control-
# affine constraint, in which case elimination is a single linear solve.
_AFFINE_PROBE_TOL = 1e-10


def _affine_part(phi, k: int, probe: bool):
    """phi(0) and phi's matrix in u; with probe set, None for a curved phi."""
    phi0 = phi(np.zeros(k))
    aff = np.empty((k, k))
    for a in range(k):
        e = np.zeros(k)
        e[a] = 1.0
        phi1 = phi(e)
        if probe:
            phi2 = phi(2.0 * e)
            scale = max(1.0, norm_inf(phi0), norm_inf(phi1), norm_inf(phi2))
            if norm_inf(phi2 - 2.0 * phi1 + phi0) > _AFFINE_PROBE_TOL * scale:
                return phi0, None
        aff[:, a] = phi1 - phi0
    return phi0, aff


def eliminate_control(cp: ControlProblem, q, p, cfg: NewtonConfig | None = None,
                      guess=None, affine: bool | None = None) -> np.ndarray:
    """Solve the secondary constraint phi(q, p, u) = 0 for u.

    The constraint is probed for affinity in u with unit-offset second
    differences; when affine (quadratic costs with control-affine dynamics,
    the common case) the control comes from one linear solve, exact for the
    benchmark.  Otherwise, or when the linear candidate fails verification,
    a damped Newton runs from guess (default zero).  affine=True, a verdict
    worked out once by the caller, skips the probe; its candidate, if it
    fails verification, takes the probed path instead.

    A non-finite q or p that reaches Newton raises ValueError naming it.
    A caller that passes a verdict (True or False) hands in solver iterates,
    so for it the same condition is a NumericalError.
    """
    if cfg is None:
        cfg = NewtonConfig()

    def phi(u: np.ndarray) -> np.ndarray:
        return secondary_constraint(cp, q, p, u)

    phi0, aff = _affine_part(phi, cp.k, probe=not affine)
    cand = None
    if aff is not None:
        try:
            cand = np.linalg.solve(aff, -phi0)
        except np.linalg.LinAlgError:
            pass
        if cand is not None and norm_inf(phi(cand)) <= max(cfg.tol, 1e-13 * norm_inf(p)):
            return cand
    if affine:
        return eliminate_control(cp, q, p, cfg, guess, affine=False)
    for name, v in (("q", q), ("p", p)):
        if not np.all(np.isfinite(v)):
            error = ValueError if affine is None else NumericalError
            raise error(f"{name} contains non-finite entries: {np.asarray(v)}")
    if cand is not None:
        # affine but the candidate needs polish (rounding in the solve)
        return newton_solve(phi, cand, cfg)
    start = np.zeros(cp.k) if guess is None else as_vec(guess, dim=cp.k, name="guess")
    return newton_solve(phi, start, cfg)


def reduce(cp: ControlProblem, cfg: NewtonConfig | None = None) -> ReducedHamiltonian:
    """Eliminate the control and return the Hamiltonian of (q, p) alone.

    H(q, p) = p . Gamma(q, u*) + sign * cost(q, u*) with u* = u_of_qp(q, p).
    Because phi(q, p, u*) = 0, the partials obey the envelope identities:
    dH/dp = Gamma(q, u*) always, and dH/dq = dGamma/dq^T p + sign * dcost/dq
    when the problem carries analytic state partials (both evaluated at u*,
    with no du*/dq or du*/dp term surviving).
    """
    inner = cfg if cfg is not None else NewtonConfig()
    affine = None  # phi affine in u for every p: probed at p = 0 and each p = e_i
    last = (None, None)  # (bytes of q and p, their read-only control)

    def u_of_qp(q, p) -> np.ndarray:
        nonlocal affine, last
        q, p = _vec(q, cp.n), _vec(p, cp.n)
        key = q.tobytes() + p.tobytes()
        if key == last[0]:
            return last[1]
        if affine is None:
            phis = (partial(secondary_constraint, cp, q, m) for m in np.eye(cp.n + 1, cp.n, -1))
            affine = all(_affine_part(phi, cp.k, probe=True)[1] is not None for phi in phis)
        u = eliminate_control(cp, q, p, inner, affine=affine)
        u.setflags(write=False)
        last = (key, u)
        return u

    def _eval(q, p) -> float:
        q, p = _vec(q, cp.n), _vec(p, cp.n)
        u = u_of_qp(q, p)
        vel = _vec(cp.gamma(q, u), cp.n)
        return float(p @ vel) + cp.sign.factor * float(cp.cost(q, u))

    def d_p(q, p) -> np.ndarray:
        q, p = _vec(q, cp.n), _vec(p, cp.n)
        u = u_of_qp(q, p)
        return np.asarray(cp.gamma(q, u), dtype=float)

    d_q = None
    if cp.dq_gamma is not None and cp.dq_cost is not None:

        def d_q(q, p) -> np.ndarray:
            q, p = _vec(q, cp.n), _vec(p, cp.n)
            u = u_of_qp(q, p)
            jac = np.asarray(cp.dq_gamma(q, u), dtype=float).reshape(cp.n, cp.n)
            grad = _vec(cp.dq_cost(q, u), cp.n)
            return jac.T @ p + cp.sign.factor * grad

    d_qp = None
    if cp.d_qp is not None:

        def d_qp(q, p) -> np.ndarray:
            q, p = _vec(q, cp.n), _vec(p, cp.n)
            return np.asarray(cp.d_qp(q, p, u_of_qp(q, p)), dtype=float).reshape(cp.n, cp.n)

    return ReducedHamiltonian(eval=_eval, u_of_qp=u_of_qp, n=cp.n, d_q=d_q, d_p=d_p,
                              d_qp=d_qp)


def discretize_right(Hc: ReducedHamiltonian, fd_step: float = 1e-7) -> DiscreteHamiltonian:
    """Read the reduced Hamiltonian as a right discrete one, pointwise.

    The substitution is bare: eval(q_j, p_next) = Hc.eval(q_j, p_next) with
    no step-size factor.  Slot partials use Hc's analytic ones when present
    and central differences with fd_step otherwise; Hc.d_qp becomes d12.
    """

    def _eval(q, p_next) -> float:
        return float(Hc.eval(q, p_next))

    if Hc.d_q is not None:
        def _d1(q, p_next) -> np.ndarray:
            return np.asarray(Hc.d_q(q, p_next), dtype=float)
    else:
        def _d1(q, p_next) -> np.ndarray:
            return fd_gradient(lambda z: Hc.eval(z, p_next), q, fd_step)

    if Hc.d_p is not None:
        def _d2(q, p_next) -> np.ndarray:
            return np.asarray(Hc.d_p(q, p_next), dtype=float)
    else:
        def _d2(q, p_next) -> np.ndarray:
            return fd_gradient(lambda z: Hc.eval(q, z), p_next, fd_step)

    return DiscreteHamiltonian(side=Side.RIGHT, eval=_eval, d1=_d1, d2=_d2, dim=Hc.n,
                               d12=Hc.d_qp)


def recover_controls(cp: ControlProblem, traj: DiscreteTrajectory,
                     cfg: NewtonConfig | None = None) -> list[np.ndarray]:
    """Controls along a discrete trajectory: u_j solves phi(q_j, p_next, u) = 0.

    Returns one control per transition (len(traj) - 1 entries), matching the
    step pairing in which the new momentum enters the constraint.
    """
    out = []
    for a, b in zip(traj.points[:-1], traj.points[1:]):
        out.append(eliminate_control(cp, a.q, b.p, cfg))
    return out


def make_sakamoto1d(r: float = 1.0, s: float = 1.0) -> ControlProblem:
    """The scalar cubic benchmark: q' = q - q^3 + u, cost (s q^2 + r u^2) / 2.

    r > 0 weights the control effort, s > 0 the state; the Plus criterion
    gives phi = p + r u, so the eliminated control is u = -p / r and the
    reduced Hamiltonian is p (q - q^3) - p^2 / (2 r) + s q^2 / 2.  Its mixed
    partial is 1 - 3 q^2 for every (r, s), since neither state partial
    depends on u.
    """
    r = float(r)
    s = float(s)
    if not (r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    if not (s > 0.0):
        raise ValueError(f"s must be positive, got {s}")

    def gamma(q, u):
        return np.array([q[0] - q[0] ** 3 + u[0]])

    def cost(q, u):
        return 0.5 * (s * q[0] ** 2 + r * u[0] ** 2)

    def du_gamma(q, u):
        return np.array([[1.0]])

    def du_cost(q, u):
        return np.array([r * u[0]])

    def dq_gamma(q, u):
        return np.array([[1.0 - 3.0 * q[0] ** 2]])

    def dq_cost(q, u):
        return np.array([s * q[0]])

    def d_qp(q, p, u):
        return np.array([[1.0 - 3.0 * q[0] ** 2]])

    return ControlProblem(gamma=gamma, cost=cost, du_gamma=du_gamma, du_cost=du_cost,
                          sign=SignCriterion.PLUS, n=1, k=1,
                          dq_gamma=dq_gamma, dq_cost=dq_cost, d_qp=d_qp)


# Models addressable by name from configuration; callables take (r, s).
MODEL_REGISTRY = {"sakamoto1d": make_sakamoto1d}
