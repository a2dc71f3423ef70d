"""Generating functions along a discrete flow.

A right discrete Hamiltonian H+ drives an evolution equation for a sequence
of generating-function values S^j with slopes DS^j identified with the
momenta:

    S_next - S_j - DS_next . q_next + H+(q_j, DS_next) = 0        (right)
    S_next - S_j + DS_j . q_j + H-(q_next, DS_j) = 0              (left)

hj_residual evaluates either form, the one of H's side.
solve_generating_sequence lifts a right orbit of the Hamiltonian flow to a
solution of the right form: the slopes are the orbit's momenta.
run_closed_form_flow implements the explicit slope recursion for the
one-dimensional cubic benchmark with unit parameters, where the update is a
quadratic with two root branches.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (NumericalError, PhasePoint, _checked_point, _positive, _power, as_grid, as_vec,
                   dot, iterate, norm_inf)
# step_right is not called here; bench/tracing.py wraps dhj.hj_flow.step_right
from .mechanics import DiscreteHamiltonian, DiscreteTrajectory, Side, step_right

__all__ = [
    "Branch",
    "BranchError",
    "ResidualCheckFailure",
    "GeneratingSequence",
    "hj_residual",
    "solve_generating_sequence",
    "run_closed_form_flow",
]


class Branch(enum.Enum):
    """Root selection policy for the closed-form slope update."""

    PLUS = "plus"
    MINUS = "minus"
    CONTINUITY = "continuity"


class BranchError(NumericalError):
    """The closed-form slope update has no finite real root: its discriminant
    is negative, or not finite because its terms overflow."""

    def __init__(self, discriminant: float):
        self.discriminant = float(discriminant)
        what = "negative" if self.discriminant < 0.0 else "not finite"
        super().__init__(f"no real branch: discriminant = {self.discriminant:.6e} is {what}",
                         self.discriminant)


class ResidualCheckFailure(NumericalError):
    """A completed transition's recomputed evolution residual is too large."""


@dataclass
class GeneratingSequence:
    """Phase points (q_j, DS_j), the slope in the momentum slot, with the
    values S_j in S and the per-step branch log.

    branch_log[i] names how row i was produced: "init" for the seed row,
    "plus"/"minus" for closed-form root choices, "direct" for the lift of an
    orbit.  meta carries the truncation flag and failure details when a step
    could not be completed; completed rows are always kept.  residuals holds
    a lift's signed right evolution residual for each accepted transition,
    residuals[i] for the step from row i to row i + 1 (bitwise
    hj_residual's value); the closed form re-checks nothing and leaves
    it None.
    """

    points: list[PhasePoint]
    S: list[float]
    branch_log: list[str]
    meta: dict = field(default_factory=dict)
    residuals: list[float] | None = None

    def __len__(self) -> int:
        return len(self.points)


def hj_residual(H: DiscreteHamiltonian, S_j: float, S_next: float, DS, q_j, q_next) -> float:
    """Signed residual of H's evolution equation at one transition: the right
    form with DS = DS_next for a right H, the left form with DS = DS_j for a
    left one."""
    DS = as_vec(DS, dim=H.dim, name="DS")
    q_j = as_vec(q_j, dim=H.dim, name="q_j")
    q_next = as_vec(q_next, dim=H.dim, name="q_next")
    if H.side is Side.RIGHT:
        pq, H_value = -dot(DS, q_next), H.eval(q_j, DS)
    else:
        pq, H_value = dot(DS, q_j), H.eval(q_next, DS)
    return float(S_next) - float(S_j) + pq + float(H_value)


# Relative limit on a transition's recomputed evolution residual.
_POST_CHECK_TOL = 1e-12


def residual_limit(S_j: float, S_next: float, pq: float, H_value: float) -> float:
    """Limit on the right evolution residual of one transition: it sums S_j,
    S_next, p_next . q_next and H+(q_j, p_next), so its rounding grows with
    the largest of them, and the limit is _POST_CHECK_TOL times that (or 1)."""
    return _POST_CHECK_TOL * max(1.0, abs(S_j), abs(pq), abs(H_value), abs(S_next))


def solve_generating_sequence(H: DiscreteHamiltonian, traj: DiscreteTrajectory
                              ) -> GeneratingSequence:
    """Lift a right orbit of H to a generating sequence along it.

    The slope is the momentum, DS_j = p_j, and S starts at 0 and
    accumulates via

        S_next = S_j + p_next . q_next - H+(q_j, p_next)

    which makes the right evolution residual vanish identically.  The
    sequence's points are traj's own.  Each transition is still re-checked
    against residual_limit, with a second evaluation of H+ (the residual is
    bitwise hj_residual's), and residuals keeps each one accepted.  A
    violation (ResidualCheckFailure) truncates the sequence with
    core.iterate's failure record in meta.  Otherwise meta carries traj's
    own failure record, so a truncated orbit gives a sequence truncated at
    the same point.  A step whose position update D2 H+ is identically zero
    marks meta["degenerate"] (the position collapses and no longer
    determines the flow).  traj must be a right orbit from run_trajectory
    (meta["side"] == "right").
    """
    if H.side is not Side.RIGHT or traj.meta.get("side") != Side.RIGHT.value:
        raise ValueError("solve_generating_sequence needs a Side.RIGHT Hamiltonian and "
                         "a right orbit from run_trajectory")
    transitions = zip(traj.points[:-1], traj.points[1:])
    degenerate, residuals = False, []

    def advance(S: float) -> float:
        nonlocal degenerate
        x, x_next = next(transitions)
        if norm_inf(x_next.q) == 0.0:
            # distinguish a genuine zero crossing from a position update that
            # ignores the momentum entirely
            if norm_inf(H.d2(x.q, x_next.p + 1.0)) == 0.0:
                degenerate = True
        pq = dot(x_next.p, x_next.q)
        H_value = float(H.eval(x.q, x_next.p))
        s_next = S + pq - H_value
        # hj_residual's arithmetic on the points' validated arrays, with
        # H+ evaluated again: re-using H_value would leave only the rounding
        # of s_next, which cannot exceed the limit
        res = s_next - S - pq + float(H.eval(x.q, x_next.p))
        limit = residual_limit(S, s_next, pq, H_value)
        if not abs(res) <= limit:  # a NaN residual fails too
            raise ResidualCheckFailure(f"transition residual {res:.6e} is not at most {limit:g}",
                                       res)
        residuals.append(res)
        return s_next

    values, meta = iterate(advance, 0.0, len(traj) - 1, traj.points[0].index)
    if not meta["truncated"]:
        meta = {key: traj.meta.get(key, value) for key, value in meta.items()}
    meta["degenerate"] = degenerate
    return GeneratingSequence(points=traj.points[:len(values)], S=values,
                              branch_log=["init"] + ["direct"] * (len(values) - 1), meta=meta,
                              residuals=residuals)


def _ds_roots(q_j: float, q_next: float, prev_ds: float, h: float) -> tuple[float, float]:
    # Quadratic in the new slope; prefix is the vertex, disc the discriminant.
    # An overflowing power is inf, so disc reads inf or NaN, not OverflowError.
    prefix = -_power(q_j, 3) + q_j - q_next
    disc = (_power(q_j, 6) - 2.0 * _power(q_j, 4) + 2.0 * _power(q_j, 3) * q_next
            + 2.0 * h * prev_ds + 2.0 * _power(q_j, 2) - 2.0 * q_j * q_next + _power(q_next, 2))
    if not 0.0 <= disc < math.inf:
        raise BranchError(discriminant=disc)
    root = math.sqrt(disc)
    return prefix + root, prefix - root


def _ds_transition(prev: PhasePoint, q_next: float, h: float,
                   branch: Branch) -> tuple[PhasePoint, Branch]:
    """One transition of run_closed_form_flow's recursion: the successor of
    prev, a point (q_j, DS_j) of that recursion, at position q_next, and the
    root taken.  A BranchError means there is no finite real root."""
    prev_ds = prev.p.item()
    plus, minus = _ds_roots(prev.q.item(), q_next, prev_ds, h)
    taken = branch
    if taken is Branch.CONTINUITY:
        taken = Branch.MINUS if abs(minus - prev_ds) < abs(plus - prev_ds) else Branch.PLUS
    # _ds_roots accepts only a finite discriminant, so its roots are finite
    return (_checked_point(prev.index + 1, np.array([q_next]),
                           np.array([plus if taken is Branch.PLUS else minus])), taken)


def run_closed_form_flow(q_sequence, ds0: float, h: float,
                         branch: Branch = Branch.CONTINUITY) -> GeneratingSequence:
    """Run the closed-form slope recursion over a fixed position grid.

    q_sequence is a scalar grid (the benchmark is one-dimensional), and h is
    positive and finite.  Each step solves the quadratic the right evolution
    equation reduces to when H+ is the benchmark Hamiltonian with r = s = 1
    and S accumulates h times the previous slope, S_next = S_j + h * DS_j
    from S = 0.  branch picks the root: Plus and Minus take the fixed sign;
    Continuity takes the root closer to the previous slope, resolving ties
    toward Plus.  branch_log records "init" and then the root taken each
    step.  A step with no finite real root (BranchError) truncates with
    core.iterate's failure record in meta, the discriminant as
    failure_quantity; completed rows are kept.
    """
    grid = [float(v) for v in as_grid(q_sequence)]
    h = _positive("h", h)
    if not isinstance(branch, Branch):
        raise ValueError(f"branch must be a Branch enum member, got {branch!r}")
    branch_log = ["init"]

    def advance(prev: PhasePoint) -> PhasePoint:
        # point j sits at grid[j - 1], so its successor's position is grid[j]
        nxt, taken = _ds_transition(prev, grid[prev.index], h, branch)
        branch_log.append(taken.value)
        return nxt

    points, meta = iterate(advance, PhasePoint(index=1, q=[grid[0]], p=[float(ds0)]),
                           len(grid) - 1)
    return _closed_form_sequence(points, h, branch_log, meta)


def _closed_form_sequence(points: list, h: float, branch_log: list,
                          meta: dict) -> GeneratingSequence:
    """The flow of points (q_j, DS_j) with S_next = S_j + h * DS_j from S = 0."""
    S = itertools.accumulate((h * x.p.item() for x in points[:-1]), initial=0.0)
    return GeneratingSequence(points, list(S), branch_log, meta)
