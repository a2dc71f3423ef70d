"""Momentum-slope recursion: field coefficients, generic and closed-form
solvers, and the quotient-based equivalence check."""

import numpy as np
import pytest

from dhj.core import PhasePoint
from dhj.hj_flow import GeneratingEntry, GeneratingSequence, run_closed_form_flow
from dhj.hj_vf import (
    DegenerateGridError,
    GammaSource,
    SingularDenominatorError,
    closed_form_gamma_step,
    equivalence_check,
    eval_field,
    eval_field_left,
    run_closed_form_vf,
    solve_gamma_generic,
    vf_residual,
    vf_residual_left,
)
from dhj.mechanics import (
    DiscreteHamiltonian,
    DiscreteLagrangian,
    Side,
    hamiltonian_from_lagrangian,
    run_trajectory,
)
from dhj.optctrl import discretize_right, make_sakamoto1d


def cubic_right():
    return discretize_right(make_sakamoto1d())


def free_pair():
    L = DiscreteLagrangian(
        eval=lambda a, b: 0.5 * float((b - a) @ (b - a)),
        d1=lambda a, b: np.asarray(a - b, dtype=float),
        d2=lambda a, b: np.asarray(b - a, dtype=float),
        dim=1,
    )
    return (hamiltonian_from_lagrangian(L, Side.RIGHT),
            hamiltonian_from_lagrangian(L, Side.LEFT))


def test_eval_field_free_particle():
    Hp, Hm = free_pair()
    dq, dp = eval_field(Hp, [0.3], [0.2])
    assert abs(dq[0] - 0.5) <= 1e-10
    assert abs(dp[0] - 0.2) <= 1e-10
    dq, dp = eval_field_left(Hm, [0.5], [0.2])
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
    assert vf_residual_left(Hm, [q], [p], gl) <= 1e-12


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


def test_run_closed_form_vf_truncates_on_singularity():
    seq = run_closed_form_vf([0.0, 0.0, 0.0], 0.0)
    assert len(seq.entries) == 1
    assert seq.meta["truncated"] is True
    assert seq.meta["failure"] == "SingularDenominatorError"
    assert seq.source is GammaSource.CLOSED_FORM


def test_closed_form_tracks_trajectory_momentum():
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[5e-8], p=[0.0]), 18)
    grid = [pt.q[0] for pt in traj.points]
    seq = run_closed_form_vf(grid, 0.0)
    assert abs(seq.entries[1].gamma[0] - traj.points[1].p[0]) <= 1e-15
    worst = 0.0
    for j in range(len(seq.entries)):
        if abs(grid[j]) < 0.9:
            worst = max(worst, abs(seq.entries[j].gamma[0] - traj.points[j].p[0]))
    assert worst <= 1e-11


def test_generic_solver_matches_closed_form():
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[5e-8], p=[0.0]), 18)
    grid = [pt.q[0] for pt in traj.points]
    closed = run_closed_form_vf(grid, 0.0)
    generic = solve_gamma_generic(H, grid, 0.0)
    assert generic.source is GammaSource.GENERIC
    n = min(len(closed.entries), len(generic.entries))
    assert n == len(grid)
    worst = max(abs(closed.entries[j].gamma[0] - generic.entries[j].gamma[0])
                for j in range(n))
    assert worst <= 1e-9


def test_generic_solver_rejections():
    H = cubic_right()
    with pytest.raises(ValueError):
        solve_gamma_generic(H, [], 0.0)
    # a single grid position yields the seed row and no transitions
    seq = solve_gamma_generic(H, [0.5], 0.25)
    assert len(seq) == 1 and seq.entries[0].gamma[0] == 0.25
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
    with pytest.raises(ValueError):
        solve_gamma_generic(multi, [0.5, 0.7], 0.0)


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
    assert len(seq.entries) == 1
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
    entries = [GeneratingEntry(j=1, q=grid[0], S=0.0, DS=p0)]
    S = 0.0
    for j in range(1, len(grid)):
        S = S + p0 * grid[j] - H.eval([grid[j - 1]], [p0])
        entries.append(GeneratingEntry(j=j + 1, q=grid[j], S=S, DS=p0))
    return GeneratingSequence(entries=entries, branch_log=["init"] * len(grid),
                              h=0.0, meta={})


def test_equivalence_rejects_repeated_grid_points():
    Hp, _ = free_pair()
    entries = [GeneratingEntry(j=1, q=0.5, S=0.0, DS=0.1),
               GeneratingEntry(j=2, q=0.5, S=0.0, DS=0.1)]
    seq = GeneratingSequence(entries=entries, branch_log=["init", "direct"],
                             h=0.0, meta={})
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
    grid = [5e-8, 1.5e-7]
    seq = run_closed_form_vf(grid, 0.0)
    assert seq.q_values.shape == (2, 1)
    assert np.allclose(seq.q_values.ravel(), grid)
    assert seq.gamma_values.shape == (2, 1)
    assert len(seq) == 2
