"""A two-dimensional orbit: a linear-quadratic control problem against its
exact step map in rational arithmetic.

The problem is q' = A q + B u with running cost (q.Q q + R u^2) / 2 under
the Plus criterion.  Eliminating u = -B^T p_next / R gives the right
discrete Hamiltonian H+(q, p') = p'.A q - (B^T p')^2 / (2 R) + q.Q q / 2,
so the right step p_j = D1 H+ = A^T p' + Q q_j, q_next = D2 H+ is

    p' = A^-T (p_j - Q q_j),    q_next = A q_j - B B^T p' / R,

which fractions evaluates exactly from the floats' own values.

On an orbit whose momentum is a linear function of its position, p_j =
P_j q_j, the step maps it to p' = P' q' with P' given by the discrete
Riccati recursion

    P' = A^-T (P - Q) M^-1,    M = A - B B^T A^-T (P - Q) / R,

the discrete HJ equation of the problem (Ohsawa, Bloch & Leok, SIAM J.
Control Optim. 2011), so the exact P_j is an oracle of every row.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dhj.core import PhasePoint
from dhj.hj_flow import solve_generating_sequence
from dhj.mechanics import run_trajectory, symplecticity_defect
from dhj.optctrl import ControlProblem, SignCriterion, discretize_right, eliminate_control

A = np.array([[1.0, 0.1], [-0.2, 0.9]])
B = np.array([[0.0], [1.0]])
Q = np.diag([1.0, 0.5])
R = 2.0
STARTS = [(0.3, -0.1), (1e-6, 2e-6), (-0.5, 0.4)]
P1 = (0.05, 0.02)
STEPS = 20


def lq_problem(exact_jacobian: bool = True) -> ControlProblem:
    """The problem with its control -B^T p / R and exact state partials;
    d_qp = A^T when exact_jacobian."""
    return ControlProblem(
        gamma=lambda q, u: A @ q + B @ u,
        cost=lambda q, u: 0.5 * (q @ Q @ q + R * u @ u),
        du_gamma=lambda q, u: B,
        du_cost=lambda q, u: R * u,
        sign=SignCriterion.PLUS, n=2,
        control=lambda q, p: -(B.T @ p) / R,
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


def orbit(q1, exact_jacobian: bool = True, p1=P1):
    H = discretize_right(lq_problem(exact_jacobian))
    return H, run_trajectory(H, PhasePoint(index=1, q=list(q1), p=list(p1)), STEPS)


def worst_row_miss(traj) -> float:
    misses = []
    for a, b in zip(traj.points, traj.points[1:]):
        q_next, p_next = exact_step(a.q, a.p)
        misses += [relative_miss(b.q, q_next), relative_miss(b.p, p_next)]
    return max(misses)


_COORD = st.floats(-1e6, 1e6)


@given(q=st.tuples(_COORD, _COORD), p=st.tuples(_COORD, _COORD))
def test_lq_control_is_the_exact_quotient_to_an_ulp(q, p):
    # the oracle is the rational -B^T p / R, rounded once
    u = eliminate_control(lq_problem(), np.array(q), np.array(p))
    btp = sum(Fraction(b) * Fraction(x) for b, x in zip(B[:, 0].tolist(), p))
    exact = -btp / Fraction(R)
    assert u.shape == (1,)
    assert abs(Fraction(u[0]) - exact) <= Fraction(math.ulp(float(exact)))


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


def fractions(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def matmul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def inverse(x):
    det = x[0][0] * x[1][1] - x[0][1] * x[1][0]
    return [[x[1][1] / det, -x[0][1] / det], [-x[1][0] / det, x[0][0] / det]]


def riccati_step(P):
    """P' = A^-T (P - Q) M^-1 with M = A - B B^T A^-T (P - Q) / R, exactly."""
    a, q, bbt = fractions(A.tolist()), fractions(Q.tolist()), fractions((B @ B.T).tolist())
    x = matmul(inverse([[a[0][0], a[1][0]], [a[0][1], a[1][1]]]),
               [[P[i][j] - q[i][j] for j in range(2)] for i in range(2)])
    bx = matmul(bbt, x)
    m = [[a[i][j] - bx[i][j] / Fraction(R) for j in range(2)] for i in range(2)]
    return matmul(x, inverse(m))


def apply(P, q) -> list[Fraction]:
    """P q exactly, for the floats q."""
    return [sum(P[i][k] * Fraction(q[k]) for k in range(2)) for i in range(2)]


RICCATI_P1 = [fractions([[Fraction(1, 2), Fraction(1, 10)], [Fraction(1, 10), Fraction(3, 10)]]),
              fractions([[Fraction(2), Fraction(-1, 4)], [Fraction(-1, 4), Fraction(1, 5)]])]


@pytest.mark.parametrize("P1", RICCATI_P1, ids=["P1a", "P1b"])
@pytest.mark.parametrize("q1", STARTS)
def test_lq_slope_is_the_riccati_sequence(q1, P1):
    # the orbit from p1 = float(P1 q1): each row's momentum is P_j q_j, to
    # rounding, with P_j the exact Riccati sequence, which stays symmetric
    _, traj = orbit(q1, p1=[float(x) for x in apply(P1, q1)])
    assert not traj.meta["truncated"]
    assert len(traj) == STEPS + 1
    P = P1
    for pt in traj.points:
        assert P[0][1] == P[1][0]
        assert relative_miss(pt.p, apply(P, pt.q.tolist())) <= 2e-15
        P = riccati_step(P)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: Newton's absolute 1e-12 tolerance "
                                       "accepts a finite-difference step that misses by ~1e-11 "
                                       "relative at |q| ~ 1e-6")
def test_lq_orbit_without_an_exact_jacobian_matches_the_exact_map_at_a_small_start():
    _, traj = orbit((1e-6, 2e-6), exact_jacobian=False)
    assert worst_row_miss(traj) <= 1e-15
