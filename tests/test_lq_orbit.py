"""A two-dimensional orbit: a linear-quadratic control problem against its
exact step map in rational arithmetic.

The problem is q' = A q + B u with running cost (q.Q q + R u^2) / 2 under
the Plus criterion.  Eliminating u = -B^T p_next / R gives the right
discrete Hamiltonian H+(q, p') = p'.A q - (B^T p')^2 / (2 R) + q.Q q / 2,
so the right step p_j = D1 H+ = A^T p' + Q q_j, q_next = D2 H+ is

    p' = A^-T (p_j - Q q_j),    q_next = A q_j - B B^T p' / R,

which fractions evaluates exactly from the floats' own values.
"""

from fractions import Fraction

import numpy as np
import pytest

from dhj.core import PhasePoint
from dhj.hj_flow import solve_generating_sequence
from dhj.mechanics import run_trajectory, symplecticity_defect
from dhj.optctrl import ControlProblem, SignCriterion, discretize_right

A = np.array([[1.0, 0.1], [-0.2, 0.9]])
B = np.array([[0.0], [1.0]])
Q = np.diag([1.0, 0.5])
R = 2.0
STARTS = [(0.3, -0.1), (1e-6, 2e-6), (-0.5, 0.4)]
P1 = (0.05, 0.02)
STEPS = 20


def lq_problem(exact_jacobian: bool = True) -> ControlProblem:
    """The problem with exact state partials; d_qp = A^T when exact_jacobian."""
    return ControlProblem(
        gamma=lambda q, u: A @ q + B @ u,
        cost=lambda q, u: 0.5 * (q @ Q @ q + R * u @ u),
        du_gamma=lambda q, u: B,
        du_cost=lambda q, u: R * u,
        sign=SignCriterion.PLUS, n=2, k=1,
        dq_gamma=lambda q, u: A,
        dq_cost=lambda q, u: Q @ q,
        d_qp=(lambda q, p, u: A.T) if exact_jacobian else None,
    )


def exact_step(q, p):
    """(q_next, p_next) of the exact map from the floats q and p, as Fractions."""
    a = [[Fraction(x) for x in row] for row in A.tolist()]
    qf, pf = [Fraction(x) for x in q.tolist()], [Fraction(x) for x in p.tolist()]
    rhs = [pf[i] - Fraction(Q[i, i]) * qf[i] for i in range(2)]  # Q is diagonal
    # A^T y = rhs, by Cramer's rule on the 2 x 2 transpose
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    p_next = [(a[1][1] * rhs[0] - a[1][0] * rhs[1]) / det,
              (a[0][0] * rhs[1] - a[0][1] * rhs[0]) / det]
    u = -p_next[1] / Fraction(R)  # B^T p' = p'[1]
    q_next = [a[0][0] * qf[0] + a[0][1] * qf[1],
              a[1][0] * qf[0] + a[1][1] * qf[1] + u]
    return q_next, p_next


def relative_miss(got: np.ndarray, exact) -> float:
    """max |got - exact| / max |exact|, the max-norm miss relative to its scale."""
    scale = max(abs(x) for x in exact)
    return float(max(abs(Fraction(g) - x) for g, x in zip(got.tolist(), exact)) / scale)


def orbit(q1, exact_jacobian: bool = True):
    H = discretize_right(lq_problem(exact_jacobian))
    return H, run_trajectory(H, PhasePoint(index=1, q=list(q1), p=list(P1)), STEPS)


def worst_row_miss(traj) -> float:
    misses = []
    for a, b in zip(traj.points, traj.points[1:]):
        q_next, p_next = exact_step(a.q, a.p)
        misses += [relative_miss(b.q, q_next), relative_miss(b.p, p_next)]
    return max(misses)


@pytest.mark.parametrize("q1", STARTS)
def test_lq_orbit_matches_the_exact_map(q1):
    _, traj = orbit(q1)
    assert not traj.meta["truncated"]
    assert len(traj) == STEPS + 1
    assert worst_row_miss(traj) <= 1e-15


@pytest.mark.parametrize("q1", STARTS)
def test_lq_step_map_is_symplectic_and_lifts_untruncated(q1):
    H, traj = orbit(q1)
    assert max(symplecticity_defect(H, pt) for pt in traj.points) <= 1e-5
    seq = solve_generating_sequence(H, traj)
    assert not seq.meta["truncated"]
    assert len(seq) == STEPS + 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: Newton's absolute 1e-12 tolerance "
                                       "accepts a finite-difference step that misses by ~1e-11 "
                                       "relative at |q| ~ 1e-6")
def test_lq_orbit_without_an_exact_jacobian_matches_the_exact_map_at_a_small_start():
    _, traj = orbit((1e-6, 2e-6), exact_jacobian=False)
    assert worst_row_miss(traj) <= 1e-15
