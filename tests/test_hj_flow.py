"""Generating-function flow: residual evaluators, closed-form recursion,
branch selection, and the momentum identification."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dhj.core import PhasePoint
from dhj.hj_flow import (
    Branch,
    BranchError,
    hj_residual,
    run_closed_form_flow,
    solve_generating_sequence,
)
from dhj.hj_vf import run_closed_form_vf
from dhj.mechanics import (
    DiscreteHamiltonian,
    Side,
    hamiltonian_from_lagrangian,
    run_trajectory,
)
from test_mechanics import cubic_right, free_particle, midpoint_pendulum


def lift(H, q0, ds0, steps):
    """The generating sequence of H's right orbit from (q0, ds0)."""
    return solve_generating_sequence(
        H, run_trajectory(H, PhasePoint(index=1, q=[q0], p=[ds0]), steps))


def ds_step(q_j, q_next, prev_ds, h, branch=Branch.CONTINUITY):
    """One closed-form slope update from (q_j, prev_ds) to q_next: the run of
    the recursion over the two-point grid [q_j, q_next]."""
    return run_closed_form_flow([q_j, q_next], prev_ds, h, branch)


def ds_root(*args):
    """The slope ds_step takes; the step must not truncate."""
    seq = ds_step(*args)
    assert not seq.meta["truncated"], seq.meta
    return seq.points[1].p[0]


def free_right():
    return hamiltonian_from_lagrangian(free_particle(), Side.RIGHT)


def free_left():
    return hamiltonian_from_lagrangian(free_particle(), Side.LEFT)


def test_generated_sequence_has_tiny_residual():
    H = cubic_right()
    seq = lift(H, 5e-8, 0.0, 10)
    assert len(seq) == len(seq.S) == 11
    for j in range(len(seq) - 1):
        a, b = seq.points[j], seq.points[j + 1]
        res = hj_residual(H, seq.S[j], seq.S[j + 1], b.p, a.q, b.q)
        assert abs(res) <= 1e-15


def test_residual_detects_perturbation():
    H = cubic_right()
    seq = lift(H, 0.2, -0.05, 3)
    a, b = seq.points[1], seq.points[2]
    clean = hj_residual(H, seq.S[1], seq.S[2], b.p, a.q, b.q)
    dirty = hj_residual(H, seq.S[1], seq.S[2], b.p + 1e-3, a.q, b.q)
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
    assert abs(hj_residual(Hp, S, Sn, p, q, qn)) <= 1e-15
    assert abs(hj_residual(Hm, S, Sn, p, q, qn)) <= 1e-15


@pytest.mark.filterwarnings("error")
def test_an_overflowing_slope_product_in_the_residual_warns_nothing():
    # DS . q = 1e200 * 1e200 overflows to inf in Python floats, as numpy's
    # matmul does, but with no RuntimeWarning; the benchmark's H+ at
    # DS = 1e200 is -inf + inf, so its residual is NaN
    assert math.isnan(hj_residual(cubic_right(), 0.0, 0.0, [1e200], [0.1], [1e200]))
    for side, want in ((Side.RIGHT, -math.inf), (Side.LEFT, math.inf)):
        H = DiscreteHamiltonian(side=side, eval=lambda q, p: 0.0, d1=None, d2=None, dim=1)
        assert hj_residual(H, 0.0, 0.0, [1e200], [1e200], [1e200]) == want


def test_closed_form_step_both_roots():
    plus = ds_root(5e-8, 1.5e-7, 0.0, 1e-4, Branch.PLUS)
    minus = ds_root(5e-8, 1.5e-7, 0.0, 1e-4, Branch.MINUS)
    assert abs(plus - 1.1803398874989471e-08) <= 1e-20
    assert abs(minus - (-2.1180339887498971e-07)) <= 1e-20


def test_continuity_prefers_nearest_root():
    # prev_ds = -3 sits far below both roots; minus root is nearer
    plus = ds_root(0.5, 0.9, -3.0, 1e-4, Branch.PLUS)
    minus = ds_root(0.5, 0.9, -3.0, 1e-4, Branch.MINUS)
    cont = ds_root(0.5, 0.9, -3.0, 1e-4, Branch.CONTINUITY)
    assert abs(plus - 0.1995860887430837) <= 1e-12
    assert abs(minus - (-1.2495860887430839)) <= 1e-12
    assert cont == minus


def test_negative_discriminant_raises():
    # the BranchError truncates the run, the discriminant its quantity
    seq = ds_step(0.5, 0.9, -1e4, 1e-4, Branch.PLUS)
    assert len(seq) == 1 and seq.meta["failure"] == BranchError.__name__
    assert abs(seq.meta["failure_quantity"] - (-1.4743749999999998)) <= 1e-10


@pytest.mark.parametrize("q_j, q_next", [(2.0, 1e300), (1e100, 0.5)])
def test_an_overflowing_discriminant_is_a_branch_error_that_carries_it(q_j, q_next):
    # q_next^2 overflows to inf; q_j^6 - 2 q_j^4 reads inf - inf = NaN
    seq = ds_step(q_j, q_next, 0.0, 1e-4)
    assert len(seq) == 1 and seq.meta["failure"] == BranchError.__name__
    assert seq.meta["failure_message"].endswith("is not finite")
    assert not math.isfinite(seq.meta["failure_quantity"])


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
        got = seq.points[idx].p[0]
        assert abs(got - val) <= 1e-6 * abs(val)
    assert seq.branch_log[0] == "init"
    assert all(tag == "plus" for tag in seq.branch_log[1:])


def test_flow_accumulates_action():
    grid = [5e-8, 1.5e-7, 2.5e-7]
    seq = run_closed_form_flow(grid, 0.0, 1e-4, Branch.CONTINUITY)
    assert seq.S[0] == 0.0 and len(seq.S) == len(seq) == 3
    for j in range(1, len(seq)):
        assert abs(seq.S[j] - (seq.S[j - 1] + 1e-4 * seq.points[j - 1].p[0])) <= 1e-18


def test_minus_branch_dies_quickly():
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[5e-8], p=[0.0]), 18)
    grid = [pt.q[0] for pt in traj.points]
    seq = run_closed_form_flow(grid, 0.0, 1e-4, Branch.MINUS)
    assert len(seq) == len(seq.S) == 2
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
    h = 1e-4
    seq = run_closed_form_flow(grid, 0.0, h, Branch.CONTINUITY)
    prev_p_mag = 0.0
    checked = 0
    for j in range(1, len(seq)):
        q = seq.points[j].q[0]
        if not 0.0 < abs(q) < 0.9:
            continue
        q_j, ds_j = seq.points[j - 1].q[0], seq.points[j - 1].p[0]
        ds = seq.points[j].p[0]
        p = traj.points[j].p[0]
        plus = ds_root(q_j, q, ds_j, h, Branch.PLUS)
        minus = ds_root(q_j, q, ds_j, h, Branch.MINUS)
        assert ds in (plus, minus), f"index {j}: {ds} is neither root"
        mid = 0.5 * (plus + minus)
        assert abs(mid - p) <= 1e-12 * abs(p), (
            f"index {j}: root midpoint {mid} is not the momentum {p}"
        )
        product = -(q_j ** 2 + 2.0 * h * ds_j)
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
    seq = lift(H, 0.0, 0.0, 3)
    assert len(seq) == 4
    assert seq.S == [0.0] * 4
    assert seq.meta.get("degenerate") is True


def test_solver_rejects_left_side_and_left_orbits():
    Hm = free_left()
    Hp = free_right()
    left_orbit = run_trajectory(Hm, PhasePoint(index=1, q=[0.1], p=[0.0]), 3)
    with pytest.raises(ValueError):
        solve_generating_sequence(Hm, left_orbit)
    with pytest.raises(ValueError):
        solve_generating_sequence(Hp, left_orbit)
    # a slope run records no side: it is not an orbit to lift
    with pytest.raises(ValueError):
        solve_generating_sequence(Hp, run_closed_form_vf([0.1, 0.2], 0.0))
    # a zero-step orbit lifts to just the seed row
    seq = lift(Hp, 0.1, 0.0, 0)
    assert len(seq) == 1


def test_lift_reads_slopes_off_the_orbit_from_S0():
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=3, q=[0.01], p=[-0.002]), 5)
    seq = solve_generating_sequence(H, traj)
    # the orbit's own points, not copies
    assert len(seq) == len(traj) and all(a is b for a, b in zip(seq.points, traj.points))
    # S_0 is +0.0, as the closed form's
    assert math.copysign(1.0, seq.S[0]) == 1.0 and seq.S[0] == 0.0
    # S_next - S_j is p_next q_next - H+(q_j, p_next), the first difference from S_0
    b, a = traj.points[1], traj.points[0]
    assert seq.S[1] == float(b.p @ b.q) - float(H.eval(a.q, b.p))
    for a, b, S_j, S_next in zip(seq.points, seq.points[1:], seq.S, seq.S[1:]):
        assert abs(hj_residual(H, S_j, S_next, b.p, a.q, b.q)) <= 1e-15
    assert seq.meta["truncated"] is False and seq.meta["degenerate"] is False


def test_lift_of_a_truncated_orbit_keeps_its_failure_record():
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[0.01], p=[0.0]), 40)
    assert traj.meta["truncated"]
    seq = solve_generating_sequence(H, traj)
    assert len(seq) == len(traj)
    keys = ("truncated", "failure", "failure_index", "failure_message", "failure_quantity")
    assert {k: seq.meta[k] for k in keys} == {k: traj.meta[k] for k in keys}


def test_lift_truncates_at_the_first_transition_failing_the_recheck():
    # S_next is built to close the residual, so only an H.eval that disagrees
    # with itself fails the re-check: shift the value the third transition's
    # re-check sees (each transition evaluates H twice)
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[0.01], p=[0.0]), 5)
    calls = []

    def eval_(q, p):
        calls.append(1)
        return H.eval(q, p) + (1e-9 if len(calls) == 6 else 0.0)

    seq = solve_generating_sequence(dataclasses.replace(H, eval=eval_), traj)
    assert len(seq) == 3
    assert seq.meta["truncated"] is True
    assert seq.meta["failure"] == "ResidualCheckFailure"
    assert seq.meta["failure_index"] == 3


def test_lift_keeps_each_accepted_residual():
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[0.01], p=[0.0]), 5)
    seq = solve_generating_sequence(H, traj)
    assert len(seq.residuals) == len(seq) - 1 == 5
    assert seq.residuals == [hj_residual(H, S_j, S_next, b.p, a.q, b.q)
                             for a, b, S_j, S_next in
                             zip(seq.points, seq.points[1:], seq.S, seq.S[1:])]
    # a re-check that misses its limit is not among the accepted residuals
    calls = []

    def eval_(q, p):
        calls.append(1)
        return H.eval(q, p) + {4: 1e-15, 6: 1e-9}.get(len(calls), 0.0)

    cut = solve_generating_sequence(dataclasses.replace(H, eval=eval_), traj)
    assert len(cut) == 3 and len(cut.residuals) == 2
    assert abs(cut.residuals[1] - 1e-15) <= 1e-17
    assert solve_generating_sequence(H, run_trajectory(H, traj.points[0], 0)).residuals == []
    assert run_closed_form_flow([0.1, 0.09], 0.0, 1e-4).residuals is None


def test_lift_recheck_is_relative_to_the_size_of_S():
    # this orbit escapes and S reaches -8e6 on its last transition, where the
    # rounding of S alone exceeds an absolute 1e-12: a shift of 1e-13 |S| of
    # the value that transition's re-check sees passes, one of 1e-9 |S| fails
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[0.05], p=[0.0]), 12)
    clean = solve_generating_sequence(H, traj)
    assert len(clean) == len(traj) and clean.meta["failure"] == traj.meta["failure"]
    assert abs(clean.S[-1]) >= 1e3
    last = len(traj) - 1

    def shifted(rel):
        calls = []

        def eval_(q, p):
            calls.append(1)
            return H.eval(q, p) + (rel * abs(clean.S[-1]) if len(calls) == 2 * last else 0.0)

        return solve_generating_sequence(dataclasses.replace(H, eval=eval_), traj)

    assert shifted(1e-13).meta == clean.meta
    seq = shifted(1e-9)
    assert len(seq) == last
    assert seq.meta["failure"] == "ResidualCheckFailure"
    assert seq.meta["failure_index"] == last


def test_flow_input_validation():
    with pytest.raises(ValueError):
        run_closed_form_flow([], 0.0, 1e-4)
    with pytest.raises(ValueError):
        run_closed_form_flow([0.1, float("nan")], 0.0, 1e-4)
    with pytest.raises(ValueError):
        run_closed_form_flow([0.1, 0.2], 0.0, 0.0)
    # the branch policy is checked on entry, also where no step runs
    with pytest.raises(ValueError, match="^branch must be a Branch"):
        run_closed_form_flow([0.1], 0.0, 1e-4, "plus")
    # a single grid position yields the seed row and no transitions
    seq = run_closed_form_flow([0.1], 0.3, 1e-4)
    assert len(seq) == 1
    assert seq.branch_log == ["init"]


# the stable band |q| < 1/sqrt(3)
_BAND = st.floats(-0.57, 0.57)


@given(S_j=st.floats(-1.0, 1.0), S_next=st.floats(-1.0, 1.0), ds=_BAND, q_j=_BAND,
       q_next=_BAND)
def test_hj_residual_is_each_pre_fold_equation(S_j, S_next, ds, q_j, q_next):
    # hj_residual_right gave S_next - S_j - DS_next . q_next + H+(q_j, DS_next),
    # hj_residual_left S_next - S_j + DS_j . q_j + H-(q_next, DS_j)
    L = midpoint_pendulum(0.1, 1.3, partials=True)
    Hp, Hm = hamiltonian_from_lagrangian(L, Side.RIGHT), hamiltonian_from_lagrangian(L, Side.LEFT)
    DS, a, b = np.array([ds]), np.array([q_j]), np.array([q_next])
    right = S_next - S_j - float(DS @ b) + float(Hp.eval(a, DS))
    left = S_next - S_j + float(DS @ a) + float(Hm.eval(b, DS))
    got = (hj_residual(Hp, S_j, S_next, DS, a, b), hj_residual(Hm, S_j, S_next, DS, a, b))
    assert np.array(got).tobytes() == np.array([right, left]).tobytes()
