"""Momentum-slope recursion: field coefficients, generic and closed-form
solvers, and the quotient-based equivalence check."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dhj.core
from dhj.core import NumericalError, PhasePoint
from dhj.hj_flow import GeneratingSequence, run_closed_form_flow
from dhj.hj_vf import (
    DegenerateGridError,
    SingularDenominatorError,
    closed_form_gamma_step,
    equivalence_check,
    eval_field,
    run_closed_form_vf,
    solve_gamma_generic,
    vf_residual,
)
from dhj.mechanics import (
    DiscreteHamiltonian,
    DiscreteTrajectory,
    Side,
    hamiltonian_from_lagrangian,
    run_trajectory,
)
from dhj.optctrl import discretize_right, make_sakamoto1d
from test_mechanics import WEIGHTS, cubic_right, free_particle, midpoint_pendulum
from test_oracles import bench_oracles


def free_pair():
    L = free_particle()
    return (hamiltonian_from_lagrangian(L, Side.RIGHT),
            hamiltonian_from_lagrangian(L, Side.LEFT))


def test_eval_field_free_particle():
    Hp, Hm = free_pair()
    dq, dp = eval_field(Hp, [0.3], [0.2])
    assert abs(dq[0] - 0.5) <= 1e-10
    assert abs(dp[0] - 0.2) <= 1e-10
    dq, dp = eval_field(Hm, [0.5], [0.2])
    assert abs(dq[0] - 0.3) <= 1e-10
    assert abs(dp[0] - 0.2) <= 1e-10


def test_vf_residual_zero_iff_slope_consistent():
    Hp, Hm = free_pair()
    # dq coefficient is q + p, dp coefficient is p; slope g satisfies
    # (q + p) g = p
    q, p = 0.3, 0.2
    g = p / (q + p)
    assert vf_residual(Hp, [q], [p], g) <= 1e-12
    assert vf_residual(Hp, [q], [p], g + 0.1) > 1e-3
    gl = p / (q - p)
    assert vf_residual(Hm, [q], [p], gl) <= 1e-12


def test_vf_residual_takes_a_square_matrix_dgamma():
    # a 2-D right H with field (dq, dp) = (q, p): Dgamma^T q = p
    H = DiscreteHamiltonian(side=Side.RIGHT, eval=lambda q, p: float(q @ p),
                            d1=lambda q, p: p, d2=lambda q, p: q, dim=2)
    q, p = np.array([1.0, 2.0]), np.array([5.0, -1.0])
    dgamma = np.array([[1.0, 1.0], [2.0, -1.0]])  # columns give q . col = p
    assert vf_residual(H, q, p, dgamma) == 0.0
    assert vf_residual(H, q, p, np.eye(2)) == 4.0  # max |q - p|
    # in one dimension a 1 x 1 matrix is the scalar, bit for bit
    Hp, _ = free_pair()
    assert vf_residual(Hp, [0.3], [0.2], [[0.7]]) == vf_residual(Hp, [0.3], [0.2], 0.7)
    for bad in (np.zeros(2), np.zeros((1, 1, 1))):
        with pytest.raises(ValueError) as exc:
            vf_residual(H, q, p, bad)
        assert str(exc.value) == ("dgamma must be a scalar or square matrix, got shape "
                                  f"{bad.shape}")


def test_closed_form_second_value_oracle():
    # with gamma1 = 0 the second value is -q1 / (1 - 3 q1^2) independent of
    # the next position up to a rounding ulp in the shared-factor cancellation
    q1 = 5e-8
    want = -5.0000000000000375e-08
    for q_next in (q1, 1.5e-7, -7.0, 123.456):
        g2 = closed_form_gamma_step(0.0, q1, q_next)
        assert abs(g2 - want) <= 1e-20


def test_closed_form_singular_denominator():
    with pytest.raises(SingularDenominatorError) as exc:
        closed_form_gamma_step(0.0, 0.0, 0.0)
    assert exc.value.denominator == 0.0
    assert exc.value.scale >= 1.0


def test_an_overflowing_closed_form_slope_is_a_numerical_error():
    # gamma_j q_j^2 = 1e300 * 1e10 overflows
    with pytest.raises(NumericalError, match="^gamma_next = -inf is not finite$") as exc:
        closed_form_gamma_step(1e300, 1e5, 1e5)
    assert exc.value.quantity == -math.inf


def test_run_closed_form_vf_truncates_on_singularity():
    seq = run_closed_form_vf([0.0, 0.0, 0.0], 0.0)
    assert len(seq) == 1
    assert seq.meta["truncated"] is True
    assert seq.meta["failure"] == "SingularDenominatorError"


def test_closed_form_tracks_trajectory_momentum():
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[5e-8], p=[0.0]), 18)
    grid = [pt.q[0] for pt in traj.points]
    seq = run_closed_form_vf(grid, 0.0)
    assert abs(seq.points[1].p[0] - traj.points[1].p[0]) <= 1e-15
    worst = 0.0
    for j in range(len(seq)):
        if abs(grid[j]) < 0.9:
            worst = max(worst, abs(seq.points[j].p[0] - traj.points[j].p[0]))
    assert worst <= 1e-11


def test_generic_solver_matches_closed_form():
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[5e-8], p=[0.0]), 18)
    grid = [pt.q[0] for pt in traj.points]
    closed = run_closed_form_vf(grid, 0.0)
    generic = solve_gamma_generic(H, grid, 0.0)
    n = min(len(closed), len(generic))
    assert n == len(grid)
    worst = max(abs(closed.points[j].p[0] - generic.points[j].p[0]) for j in range(n))
    assert worst <= 1e-9


@pytest.mark.parametrize("r, s", WEIGHTS)
def test_generic_slope_rows_match_the_exact_rational_update(r, s):
    # row-local: each row re-derived from the emitted inputs of the row before
    H = discretize_right(make_sakamoto1d(r=r, s=s))
    worst = 0.0
    for q1 in (3e-9, -2e-6, 4e-4, -0.02, 0.15):
        traj = run_trajectory(H, PhasePoint(index=1, q=[q1], p=[0.0]), 24)
        seq = solve_gamma_generic(H, [pt.q[0] for pt in traj.points], 0.0)
        assert len(seq) == len(traj)
        for a, b in zip(seq.points[:-1], seq.points[1:]):
            want = bench_oracles.exact_gamma(a.p[0], a.q[0], b.q[0], r, s)
            assert want is not None
            miss = abs(Fraction(b.p[0]) - want) / max(abs(want), abs(Fraction(a.p[0])))
            worst = max(worst, float(miss))
    assert worst <= 1e-13


def test_exact_slope_jacobian_builds_no_finite_differences(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("finite-difference Jacobian built")

    monkeypatch.setattr(dhj.core, "fd_jacobian", refuse)
    H = discretize_right(make_sakamoto1d(r=2.0, s=0.5))
    traj = run_trajectory(H, PhasePoint(index=1, q=[0.01], p=[0.0]), 10)
    seq = solve_gamma_generic(H, [pt.q[0] for pt in traj.points], 0.0)
    assert len(seq) == 11 and not seq.meta["truncated"]


def test_wrong_second_momentum_partial_costs_iterations_not_accuracy():
    H = discretize_right(make_sakamoto1d(r=2.0, s=0.5))
    off = dataclasses.replace(H, d22=lambda a, b: 1.3 * H.d22(a, b))
    # five steps from 0.05 stay inside |q| < 0.5, away from the singular band
    grid = [pt.q[0] for pt in run_trajectory(H, PhasePoint(index=1, q=[0.05], p=[0.0]), 5).points]
    want = solve_gamma_generic(H, grid, 0.0)
    got = solve_gamma_generic(off, grid, 0.0)
    assert len(got) == len(want) == len(grid)
    for a, b in zip(got.points, want.points):
        assert abs(a.p[0] - b.p[0]) <= 1e-11


def test_generic_solver_rejections():
    H = cubic_right()
    with pytest.raises(ValueError):
        solve_gamma_generic(H, [], 0.0)
    # a single grid position yields the seed row and no transitions
    seq = solve_gamma_generic(H, [0.5], 0.25)
    assert len(seq) == 1 and seq.points[0].p[0] == 0.25
    assert seq.meta["truncated"] is False
    # a zero q_next is rejected by its step: the rows before it are kept
    seq = solve_gamma_generic(H, [0.5, 0.25, 0.0, 0.7], 0.0)
    assert len(seq) == 2
    assert seq.meta["truncated"] is True and seq.meta["failure_index"] == 2
    assert seq.meta["failure"] == DegenerateGridError.__name__
    assert seq.meta["failure_message"].startswith("q_sequence entry j = 3 is zero")
    assert seq.meta["failure_quantity"] == 0.0
    multi = DiscreteHamiltonian(
        side=Side.RIGHT,
        eval=lambda q, p: 0.0,
        d1=lambda q, p: np.zeros(2),
        d2=lambda q, p: np.zeros(2),
        dim=2,
    )
    with pytest.raises(ValueError, match="^the slope quotient scheme is one-dimensional only$"):
        solve_gamma_generic(multi, [0.5, 0.7], 0.0)
    with pytest.raises(ValueError, match="^solve_gamma_generic needs a Side.RIGHT Hamiltonian$"):
        solve_gamma_generic(free_pair()[1], [0.5, 0.7], 0.0)


def test_equivalence_check_rejections():
    Hp, Hm = free_pair()
    seq = run_closed_form_flow_free(Hp, [0.3, 0.4], 0.1)
    with pytest.raises(ValueError, match="^equivalence_check needs a Side.RIGHT Hamiltonian$"):
        equivalence_check(Hm, seq)
    multi = DiscreteHamiltonian(side=Side.RIGHT, eval=lambda q, p: 0.0, d1=lambda q, p: p,
                                d2=lambda q, p: q, dim=2)
    with pytest.raises(ValueError, match="^the difference quotient is one-dimensional only$"):
        equivalence_check(multi, seq)
    one_row = dataclasses.replace(seq, points=seq.points[:1], S=seq.S[:1],
                                  branch_log=seq.branch_log[:1])
    with pytest.raises(ValueError, match="^flow_seq must contain at least two rows$"):
        equivalence_check(Hp, one_row)


def test_generic_solver_truncates_on_newton_failure():
    # d2 = 1, d1 = g^2 + 1: residual g^2 + 1 - gamma_j / q_next has no real
    # root for the first transition, so the solver must stop and record it
    H = DiscreteHamiltonian(
        side=Side.RIGHT,
        eval=lambda q, p: 0.0,
        d1=lambda q, p: np.array([float(p[0]) ** 2 + 1.0]),
        d2=lambda q, p: np.array([1.0]),
        dim=1,
    )
    seq = solve_gamma_generic(H, [0.5, 0.25], 0.0)
    assert len(seq) == 1
    assert seq.meta["truncated"] is True
    assert seq.meta["failure"] in ("ConvergenceError", "SingularJacobianError")


def test_equivalence_free_particle_small_offset():
    Hp, _ = free_pair()
    p0 = 1e-9
    grid = [0.3, 0.3 + p0, 0.3 + 2 * p0]
    seq = run_closed_form_flow_free(Hp, grid, p0)
    residuals = equivalence_check(Hp, seq)
    assert len(residuals) == 2
    assert all(r < 1e-8 for r in residuals)


def run_closed_form_flow_free(H, grid, p0):
    # free-particle generating data on an arithmetic grid: constant slope p0
    S = [0.0]
    for j in range(1, len(grid)):
        S.append(S[-1] + p0 * grid[j] - H.eval(np.array([grid[j - 1]]), np.array([p0])))
    points = [PhasePoint(index=j + 1, q=[q], p=[p0]) for j, q in enumerate(grid)]
    return GeneratingSequence(points=points, S=S, branch_log=["init"] * len(grid), meta={})


def test_equivalence_rejects_repeated_grid_points():
    Hp, _ = free_pair()
    points = [PhasePoint(index=1, q=[0.5], p=[0.1]), PhasePoint(index=2, q=[0.5], p=[0.1])]
    seq = GeneratingSequence(points=points, S=[0.0, 0.0], branch_log=["init", "direct"],
                             meta={})
    with pytest.raises(DegenerateGridError):
        equivalence_check(Hp, seq)


def test_equivalence_residual_halves_with_grid():
    # the residual is first-order in the grid spacing; only the first
    # transition keeps a common footing between the two runs (its spacing is
    # proportional to the start, so halving q0 halves it exactly), later
    # transitions of the halved run land at different positions entirely
    H = cubic_right()

    def first_transition(q0):
        traj = run_trajectory(H, PhasePoint(index=1, q=[q0], p=[0.0]), 10)
        grid = [pt.q[0] for pt in traj.points]
        seq = run_closed_form_flow(grid, 0.0, 1e-4)
        return grid[1] - grid[0], equivalence_check(H, seq)[0]

    dq_coarse, res_coarse = first_transition(5e-8)
    dq_fine, res_fine = first_transition(2.5e-8)
    assert 1.9 <= dq_coarse / dq_fine <= 2.1
    ratio = res_coarse / res_fine
    assert 1.9 <= ratio <= 2.1


def test_sequence_accessors():
    # both slope runners return phase points (q_j, gamma_j) on the grid
    grid = [5e-8, 1.5e-7]
    for seq in (run_closed_form_vf(grid, 0.0), solve_gamma_generic(cubic_right(), grid, 0.0)):
        assert isinstance(seq, DiscreteTrajectory) and len(seq) == 2
        assert [pt.index for pt in seq.points] == [1, 2]
        assert [pt.q[0] for pt in seq.points] == grid
        assert seq.points[0].p[0] == 0.0


# the stable band |q| < 1/sqrt(3); one pendulum's two duals give both sides
_BAND = st.floats(-0.57, 0.57)


def pendulum_pair():
    L = midpoint_pendulum(0.1, 1.3, partials=True)
    return hamiltonian_from_lagrangian(L, Side.RIGHT), hamiltonian_from_lagrangian(L, Side.LEFT)


@given(q=_BAND, p=_BAND)
def test_eval_field_is_each_pre_fold_field(q, p):
    # eval_field gave (D2 H+, D1 H+) at (q_j, p_next), eval_field_left
    # (-D2 H-, -D1 H-) at (q_next, p_j)
    Hp, Hm = pendulum_pair()
    a, b = np.array([q]), np.array([p])
    for H, want in ((Hp, (Hp.d2(a, b), Hp.d1(a, b))), (Hm, (-Hm.d2(a, b), -Hm.d1(a, b)))):
        assert [v.tobytes() for v in eval_field(H, a, b)] == [v.tobytes() for v in want]


@given(q=_BAND, p=_BAND, dgamma=st.floats(-10.0, 10.0))
def test_vf_residual_is_each_pre_fold_residual(q, p, dgamma):
    # vf_residual gave |D2 H+ Dgamma - D1 H+|, vf_residual_left
    # |(-D2 H-) Dgamma - (-D1 H-)|, at the same slot pairs as eval_field
    Hp, Hm = pendulum_pair()
    a, b = np.array([q]), np.array([p])
    right = abs(Hp.d2(a, b)[0] * dgamma - Hp.d1(a, b)[0])
    left = abs(-Hm.d2(a, b)[0] * dgamma - -Hm.d1(a, b)[0])
    got = (vf_residual(Hp, a, b, dgamma), vf_residual(Hm, a, b, dgamma))
    assert np.array(got).tobytes() == np.array([right, left]).tobytes()
