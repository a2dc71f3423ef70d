"""Reduction of controlled dynamics to Hamiltonian form.

A control problem couples a controlled velocity field Gamma(q, u) with a
running cost. Adjoining the dynamics with momenta p gives the function

    H(q, p, u) = p . Gamma(q, u) + sign * cost(q, u)

whose stationarity in u is the secondary constraint

    phi_a(q, p, u) = p . dGamma/du_a + sign * dcost/du_a = 0.

The model states the control that solves phi in closed form, and
eliminate_control checks it there.  Eliminating u produces a Hamiltonian of
(q, p) alone; read at the step pair (q_j, p_next) it is a right discrete
Hamiltonian, which is what the lattice machinery consumes (discretize_right
builds it in one step).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# as_vec, fd_gradient and newton_solve are not called here; bench/tracing.py wraps them
from .core import (TOL, NumericalError, _entry, _integer, _positive, _power, as_vec, dot,
                   fd_gradient, newton_solve, norm_inf)
from .mechanics import DiscreteHamiltonian, Side

__all__ = [
    "SignCriterion",
    "ControlProblem",
    "secondary_constraint",
    "eliminate_control",
    "discretize_right",
    "make_sakamoto1d",
]


class SignCriterion(enum.Enum):
    """Sign with which the running cost enters the adjoined Hamiltonian."""

    PLUS = "plus"
    MINUS = "minus"

    def __init__(self, value: str):
        # +1.0 or -1.0, set once per member: every constraint evaluation reads it
        self.factor = 1.0 if value == "plus" else -1.0


@dataclass(frozen=True)
class ControlProblem:
    """Controlled dynamics q' = Gamma(q, u) with a running cost.

    gamma(q, u) -> n-vector and cost(q, u) -> scalar take a state q of
    dimension n and a control u of dimension k.  du_gamma (n x k) and
    du_cost (k,) are their control partials, and dq_gamma (n x n) and
    dq_cost (n,) their state partials, all analytic.  control(q, p) is the
    eliminated control, the root of the secondary constraint in closed
    form; eliminate_control checks it there.  The optional d_qp(q, p, u)
    (n x n) is the control-eliminated Hamiltonian's mixed partial d2H/dq dp
    at the eliminated control u, including the part that comes through u's
    dependence on p; it gives the right step an exact Newton Jacobian.  The
    optional d_pp(q, p, u) (n x n) is likewise d2H/dp^2 at u; with d_qp it
    gives the generic slope solver an exact Newton Jacobian.  The callbacks
    receive q, p and u as 1-D float64 arrays and return float64 arrays of
    the shapes given here (cost a scalar), used as returned: their
    finiteness is checked where a value enters a step or a Newton residual.
    With n = 1 and a one-entry control a callback may return a Python float
    (core's one-entry float rule), and a float control reaches the
    callbacks as that float; the reduction then runs in Python floats,
    bitwise numpy's.
    """

    gamma: object
    cost: object
    du_gamma: object
    du_cost: object
    sign: SignCriterion
    n: int
    control: object
    dq_gamma: object
    dq_cost: object
    d_qp: object = None
    d_pp: object = None

    def __post_init__(self):
        if not isinstance(self.sign, SignCriterion):
            raise ValueError(f"sign must be a SignCriterion member, got {self.sign!r}")
        object.__setattr__(self, "n", _integer("n", self.n))


def _adjoined(sign: float, jac, p: np.ndarray, grad):
    """jac^T p + sign * grad.  With one entry each (jac and grad a float or a
    one-entry array), the float (0.0 + jac * p) + sign * grad in Python
    floats: bitwise numpy's (see core.dot), with no numpy warning."""
    if type(jac) is float or jac.size == 1:
        return ((0.0 + _entry(jac) * p.item()) + sign * _entry(grad))
    return jac.T @ p + sign * grad


def secondary_constraint(cp: ControlProblem, q: np.ndarray, p: np.ndarray, u):
    """phi(q, p, u) = p . dGamma/du + sign * dcost/du, a k-vector, or a float
    when it has one entry."""
    return _adjoined(cp.sign.factor, cp.du_gamma(q, u), p, cp.du_cost(q, u))


def eliminate_control(cp: ControlProblem, q: np.ndarray, p: np.ndarray):
    """The control cp.control(q, p), checked against the secondary constraint.

    It is accepted when |phi| at it is at most max(core.TOL, 1e-13 |p|), one
    evaluation of the constraint, and returned as the model gave it (a
    one-entry problem's float stays a float).  A miss, a NaN |phi| included,
    raises NumericalError: one naming q or p when that has a non-finite
    entry, else one naming the gap, q and p.  q and p are float64 n-vectors
    (the problem's callbacks receive them as they are), not checked on the
    way in.
    """
    u = cp.control(q, p)
    gap = norm_inf(secondary_constraint(cp, q, p, u))
    if gap <= TOL or gap <= 1e-13 * norm_inf(p):
        return u
    for name, v in (("q", q), ("p", p)):
        if not np.all(np.isfinite(v)):
            raise NumericalError(f"{name} contains non-finite entries: {v}")
    raise NumericalError(f"the supplied control misses the secondary constraint by "
                         f"|phi| = {gap} at q = {q}, p = {p}", gap)


def discretize_right(cp: ControlProblem) -> DiscreteHamiltonian:
    """Eliminate the control and read the result as a right discrete Hamiltonian.

    H+(q_j, p_next) = p_next . Gamma(q_j, u*) + sign * cost(q_j, u*), with u*
    the control solving the secondary constraint at (q_j, p_next): a bare
    substitution, with no step-size factor.  The partials at one (q, p)
    share one eliminate_control call: the control of the last (q, p), keyed
    on their bytes, is kept and handed to the model, an array as a read-only
    view and a float as it is.  Because phi(q, p, u*) = 0, the envelope
    identities give d2 = Gamma(q, u*) and d1 = dGamma/dq^T p + sign *
    dcost/dq, both at u* with no du*/dq or du*/dp term.  The problem's d_qp
    and d_pp become d12 and d22.
    The partials return what the model computed (core's one-entry float
    rule), and eval a float.
    """
    sign, gamma, cost = cp.sign.factor, cp.gamma, cp.cost
    dq_gamma, dq_cost = cp.dq_gamma, cp.dq_cost
    last_key = last_u = None  # the bytes of the last q and p, and their control

    def control(q: np.ndarray, p: np.ndarray):
        nonlocal last_key, last_u
        key = q.tobytes() + p.tobytes()
        if key != last_key:
            u = eliminate_control(cp, q, p)
            if type(u) is not float:
                # a read-only view: the model's control may hand back its own array
                u = u.view()
                u.setflags(write=False)
            last_key, last_u = key, u
        return last_u

    def _eval(q: np.ndarray, p: np.ndarray) -> float:
        u = control(q, p)
        g = gamma(q, u)
        # core.dot's one-entry arithmetic for a float velocity
        pg = 0.0 + p.item() * g if type(g) is float else dot(p, g)
        return pg + sign * float(cost(q, u))

    def _d2(q: np.ndarray, p: np.ndarray):
        return gamma(q, control(q, p))

    def _d1(q: np.ndarray, p: np.ndarray):
        u = control(q, p)
        return _adjoined(sign, dq_gamma(q, u), p, dq_cost(q, u))

    def second_partial(d):
        # d(q, p, u) read at the eliminated control
        return None if d is None else (lambda q, p: d(q, p, control(q, p)))

    return DiscreteHamiltonian(side=Side.RIGHT, eval=_eval, d1=_d1, d2=_d2, dim=cp.n,
                               d12=second_partial(cp.d_qp), d22=second_partial(cp.d_pp))


def make_sakamoto1d(r: float = 1.0, s: float = 1.0) -> ControlProblem:
    """The scalar cubic benchmark: q' = q - q^3 + u, cost (s q^2 + r u^2) / 2.

    r > 0 weights the control effort, s > 0 the state, both finite; the
    Plus criterion gives phi = p + r u, so the eliminated control is
    u = -p / r (supplied as control, exact to rounding of the one division)
    and the reduced Hamiltonian is p (q - q^3) - p^2 / (2 r) + s q^2 / 2.
    Its mixed partial is 1 - 3 q^2 for every (r, s), since neither state
    partial depends on u, and its second momentum partial is -1 / r.  Every
    callback returns a Python float (core's one-entry float rule).
    """
    r, s = _positive("r", r), _positive("s", s)

    # Python floats: a product that overflows is inf, with no numpy warning.
    # q and p arrive as one-entry arrays; u is the supplied control's float,
    # or a one-entry array where a caller hands one in.
    curvature = -1.0 / r

    def gamma(q, u):
        x = q.item()
        return x - _power(x, 3) + _entry(u)

    def cost(q, u):
        return 0.5 * (s * _power(q.item(), 2) + r * _power(_entry(u), 2))

    def du_gamma(q, u):
        return 1.0

    def du_cost(q, u):
        return r * _entry(u)

    def dq_gamma(q, u):
        return 1.0 - 3.0 * _power(q.item(), 2)

    def dq_cost(q, u):
        return s * q.item()

    def control(q, p):
        return -p.item() / r

    return ControlProblem(gamma=gamma, cost=cost, du_gamma=du_gamma, du_cost=du_cost,
                          sign=SignCriterion.PLUS, n=1, control=control, dq_gamma=dq_gamma,
                          dq_cost=dq_cost, d_qp=lambda q, p, u: dq_gamma(q, u),
                          d_pp=lambda q, p, u: curvature)
