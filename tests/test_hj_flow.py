"""Generating-function flow: residual evaluators, closed-form recursion,
branch selection, and the momentum identification."""

import numpy as np
import pytest

from dhj.core import PhasePoint
from dhj.hj_flow import (
    Branch,
    BranchError,
    GeneratingEntry,
    GeneratingSequence,
    closed_form_ds_step,
    hj_residual_left,
    hj_residual_right,
    run_closed_form_flow,
    solve_generating_sequence,
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


def free_right():
    L = DiscreteLagrangian(
        eval=lambda a, b: 0.5 * float((b - a) @ (b - a)),
        d1=lambda a, b: np.asarray(a - b, dtype=float),
        d2=lambda a, b: np.asarray(b - a, dtype=float),
        dim=1,
    )
    return hamiltonian_from_lagrangian(L, Side.RIGHT)


def free_left():
    L = DiscreteLagrangian(
        eval=lambda a, b: 0.5 * float((b - a) @ (b - a)),
        d1=lambda a, b: np.asarray(a - b, dtype=float),
        d2=lambda a, b: np.asarray(b - a, dtype=float),
        dim=1,
    )
    return hamiltonian_from_lagrangian(L, Side.LEFT)


def test_generated_sequence_has_tiny_residual():
    H = cubic_right()
    seq = solve_generating_sequence(H, [5e-8], 0.0, [0.0], 10)
    assert len(seq.entries) == 11
    for j in range(len(seq.entries) - 1):
        a, b = seq.entries[j], seq.entries[j + 1]
        res = hj_residual_right(H, a.S, b.S, b.DS, a.q, b.q)
        assert abs(res) <= 1e-15


def test_residual_detects_perturbation():
    H = cubic_right()
    seq = solve_generating_sequence(H, [0.2], 0.0, [-0.05], 3)
    a, b = seq.entries[1], seq.entries[2]
    clean = hj_residual_right(H, a.S, b.S, b.DS, a.q, b.q)
    dirty = hj_residual_right(H, a.S, b.S, b.DS + 1e-3, a.q, b.q)
    assert abs(clean) <= 1e-12
    assert abs(dirty) > 1e-7


def test_left_residual_free_particle():
    # free particle: S' - S + DS . q + H_left(q', DS) with S = 0.02,
    # q = 0.3, p = 0.2, q' = 0.5 closes to zero when S' = S + p q' - H_plus
    Hp = free_right()
    Hm = free_left()
    q, p, qn = np.array([0.3]), np.array([0.2]), np.array([0.5])
    S = 0.02
    Sn = S + float(p @ qn) - Hp.eval(q, p)
    assert abs(hj_residual_right(Hp, S, Sn, p, q, qn)) <= 1e-15
    assert abs(hj_residual_left(Hm, S, Sn, p, q, qn)) <= 1e-15


def test_closed_form_step_both_roots():
    plus = closed_form_ds_step(5e-8, 1.5e-7, 0.0, 1e-4, Branch.PLUS)
    minus = closed_form_ds_step(5e-8, 1.5e-7, 0.0, 1e-4, Branch.MINUS)
    assert abs(plus - 1.1803398874989471e-08) <= 1e-20
    assert abs(minus - (-2.1180339887498971e-07)) <= 1e-20


def test_continuity_prefers_nearest_root():
    # prev_ds = -3 sits far below both roots; minus root is nearer
    plus = closed_form_ds_step(0.5, 0.9, -3.0, 1e-4, Branch.PLUS)
    minus = closed_form_ds_step(0.5, 0.9, -3.0, 1e-4, Branch.MINUS)
    cont = closed_form_ds_step(0.5, 0.9, -3.0, 1e-4, Branch.CONTINUITY)
    assert abs(plus - 0.1995860887430837) <= 1e-12
    assert abs(minus - (-1.2495860887430839)) <= 1e-12
    assert cont == minus


def test_negative_discriminant_raises():
    with pytest.raises(BranchError) as exc:
        closed_form_ds_step(0.5, 0.9, -1e4, 1e-4, Branch.PLUS)
    assert abs(exc.value.discriminant - (-1.4743749999999998)) <= 1e-10


def test_continuity_ladder_matches_frozen_values():
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[5e-8], p=[0.0]), 6)
    grid = [pt.q[0] for pt in traj.points]
    seq = run_closed_form_flow(grid, 0.0, 1e-4, Branch.CONTINUITY)
    want = [
        (1, 2.071067812e-08),
        (2, 1.893192508e-06),
        (3, 1.906435207e-05),
        (4, 6.071079188e-05),
    ]
    for idx, val in want:
        got = seq.entries[idx].DS[0]
        assert abs(got - val) <= 1e-6 * abs(val)
    assert seq.branch_log[0] == "init"
    assert all(tag == "plus" for tag in seq.branch_log[1:])


def test_flow_accumulates_action():
    grid = [5e-8, 1.5e-7, 2.5e-7]
    seq = run_closed_form_flow(grid, 0.0, 1e-4, Branch.CONTINUITY)
    assert seq.entries[0].S == 0.0
    for j in range(1, len(seq.entries)):
        prev = seq.entries[j - 1]
        assert abs(seq.entries[j].S - (prev.S + 1e-4 * prev.DS[0])) <= 1e-18


def test_minus_branch_dies_quickly():
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[5e-8], p=[0.0]), 18)
    grid = [pt.q[0] for pt in traj.points]
    seq = run_closed_form_flow(grid, 0.0, 1e-4, Branch.MINUS)
    assert len(seq.entries) == 2
    assert seq.meta["truncated"] is True
    assert seq.meta["failure"] == "BranchError"
    assert abs(seq.meta["failure_quantity"] - (-2.4109635623731073e-11)) <= 1e-20
    assert seq.branch_log == ["init", "minus"]


def test_flow_values_share_momentum_sign_and_monotonicity():
    # what the closed-form recursion promises on a trajectory grid: with
    # q' = q - q^3 - p', the vertex q_j - q_j^3 - q_{j+1} of the branch
    # quadratic is the momentum p_{j+1}, so the two roots straddle it, and
    # their product is -(q_j^2 + 2 h DS_j).  That product fixes the sign of
    # the value taken: opposite-signed roots when it is negative (plus > 0,
    # minus < 0), roots of the momentum's sign when it is positive.  DS itself
    # is not the momentum (S advances by h DS_j, not by the Hamilton-Jacobi
    # increment); |p| still grows monotonically while |q| < 0.9
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[5e-8], p=[0.0]), 18)
    grid = [pt.q[0] for pt in traj.points]
    seq = run_closed_form_flow(grid, 0.0, 1e-4, Branch.CONTINUITY)
    prev_p_mag = 0.0
    checked = 0
    for j in range(1, len(seq.entries)):
        q = seq.entries[j].q[0]
        if not 0.0 < abs(q) < 0.9:
            continue
        prev = seq.entries[j - 1]
        q_j, ds_j = prev.q[0], prev.DS[0]
        ds = seq.entries[j].DS[0]
        p = traj.points[j].p[0]
        plus = closed_form_ds_step(q_j, q, ds_j, seq.h, Branch.PLUS)
        minus = closed_form_ds_step(q_j, q, ds_j, seq.h, Branch.MINUS)
        assert ds in (plus, minus), f"index {j}: {ds} is neither root"
        mid = 0.5 * (plus + minus)
        assert abs(mid - p) <= 1e-12 * abs(p), (
            f"index {j}: root midpoint {mid} is not the momentum {p}"
        )
        product = -(q_j ** 2 + 2.0 * seq.h * ds_j)
        assert abs(plus * minus - product) <= 1e-12 * abs(product), (
            f"index {j}: root product {plus * minus} is not {product}"
        )
        if product < 0.0:
            want = 1.0 if ds == plus else -1.0
        else:
            want = np.sign(p)
        assert np.sign(ds) == want, (
            f"index {j}: branch value {ds} has the wrong sign for root "
            f"product {product} and momentum {p}"
        )
        assert abs(p) >= prev_p_mag
        prev_p_mag = abs(p)
        checked += 1
    assert checked > 0


def test_degenerate_hamiltonian_flagged():
    H = DiscreteHamiltonian(
        side=Side.RIGHT,
        eval=lambda q, p: 0.0,
        d1=lambda q, p: np.zeros(1),
        d2=lambda q, p: np.zeros(1),
        dim=1,
    )
    seq = solve_generating_sequence(H, [0.0], 0.0, [0.0], 3)
    assert len(seq.entries) == 4
    assert all(e.S == 0.0 for e in seq.entries)
    assert seq.meta.get("degenerate") is True


def test_solver_rejects_left_side_and_bad_steps():
    Hm = free_left()
    with pytest.raises(ValueError):
        solve_generating_sequence(Hm, [0.1], 0.0, [0.0], 3)
    Hp = free_right()
    with pytest.raises(ValueError):
        solve_generating_sequence(Hp, [0.1], 0.0, [0.0], -1)
    # zero steps returns just the seed row
    seq = solve_generating_sequence(Hp, [0.1], 0.0, [0.0], 0)
    assert len(seq) == 1


def test_flow_input_validation():
    with pytest.raises(ValueError):
        run_closed_form_flow([], 0.0, 1e-4)
    with pytest.raises(ValueError):
        run_closed_form_flow([0.1, float("nan")], 0.0, 1e-4)
    with pytest.raises(ValueError):
        run_closed_form_flow([0.1, 0.2], 0.0, 0.0)
    # a single grid position yields the seed row and no transitions
    seq = run_closed_form_flow([0.1], 0.3, 1e-4)
    assert len(seq) == 1
    assert seq.branch_log == ["init"]


def test_entry_and_sequence_accessors():
    e = GeneratingEntry(j=1, q=0.5, S=0.0, DS=-0.2)
    seq = GeneratingSequence(entries=[e], branch_log=["init"], h=1e-4, meta={})
    assert seq.q_values.shape == (1, 1)
    assert seq.q_values[0, 0] == 0.5
    assert seq.ds_values[0, 0] == -0.2
    assert len(seq) == 1
