"""Acceptance battery: twelve numbered criteria, one test each.

Each test prints `criterion NN: PASS/FAIL` with the measured quantity at the
stated tolerance.  Criterion 03 states the near-origin growth of the right
step map: linearised at the origin it is the symplectic matrix
[[2, -1], [-1, 1]], so from zero momentum the position ratios are ratios of
odd-indexed Fibonacci numbers, 2 on the first step and tending to the square
of the golden ratio, about 2.618.
"""

import math
import subprocess
import sys

import mpmath
import numpy as np

from dhj.core import PhasePoint
from dhj.hj_flow import (
    Branch,
    hj_residual,
    run_closed_form_flow,
    solve_generating_sequence,
)
from dhj.hj_vf import closed_form_gamma_step, equivalence_check
from dhj.mechanics import (
    Side,
    hamiltonian_from_lagrangian,
    left_right_relation_residual,
    run_trajectory,
    step_right,
    symplecticity_defect,
)
from dhj.cli import main
from test_mechanics import cubic_right, free_particle


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def test_01_symplectic_determinant_along_trajectory():
    # |det DF - 1| < 1e-5 at 20 trajectory points with |q| < 0.9, Jacobian
    # by central differences with step 1e-6
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[1e-9], p=[0.0]), 25)
    pts = [pt for pt in traj.points if abs(pt.q[0]) < 0.9]
    assert len(pts) >= 20
    worst = max(symplecticity_defect(H, pt) for pt in pts[:20])
    report(1, worst < 1e-5,
           f"max |det DF - 1| = {worst:.3e} over 20 points with |q| < 0.9, "
           f"limit 1e-5")


def test_02_single_right_step_closed_form():
    # p2 = -q1 / (1 - 3 q1^2), q2 = q1 - q1^3 - p2, both to 1e-18 absolute
    H = cubic_right()
    q1 = 5e-8
    nxt = step_right(H, PhasePoint(index=1, q=[q1], p=[0.0]))
    p2_ref = -q1 / (1.0 - 3.0 * q1 ** 2)
    q2_ref = q1 - q1 ** 3 - p2_ref
    gap_p = abs(nxt.p[0] - p2_ref)
    gap_q = abs(nxt.q[0] - q2_ref)
    report(2, gap_p < 1e-18 and gap_q < 1e-18,
           f"|p2 - ref| = {gap_p:.3e}, |q2 - ref| = {gap_q:.3e}, limit 1e-18")


def test_03_doubling_regime_near_origin():
    # the step map of criterion 02, p' = (p - q)/(1 - 3 q^2) and
    # q' = q - q^3 - p', linearises at the origin to [[2, -1], [-1, 1]]
    # (trace 3, det 1, eigenvalues (3 +- sqrt 5)/2); from p_1 = 0 the linear
    # orbit is q_1 (1, 2, 5, 13, ...) = q_1 F_{2j-1}, so q_{j+1}/q_j is
    # F_{2j+1}/F_{2j-1}: 2 on the first step only, then towards phi^2.
    # Every ratio with |q_j| < 0.01 must lie within 0.01 of that Fibonacci
    # ratio and match a 60-digit mpmath iteration of the exact map
    H = cubic_right()
    q1 = 5e-8
    traj = run_trajectory(H, PhasePoint(index=1, q=[q1], p=[0.0]), 18)
    with mpmath.workdps(60):
        q, p = mpmath.mpf(q1), mpmath.mpf(0)
        exact = [q]
        for _ in range(len(traj) - 1):
            p = (p - q) / (1 - 3 * q ** 2)
            q = q - q ** 3 - p
            exact.append(q)
        exact_ratios = [float(b / a) for a, b in zip(exact, exact[1:])]
    fib = [0, 1]
    while len(fib) < 2 * len(traj) + 2:
        fib.append(fib[-1] + fib[-2])
    ratios = []
    for j in range(len(traj) - 1):
        q = traj.points[j].q[0]
        if abs(q) < 0.01:
            idx = traj.points[j].index
            ratios.append((traj.points[j + 1].q[0] / q,
                           fib[2 * idx + 1] / fib[2 * idx - 1],
                           exact_ratios[j]))
    assert ratios
    first = ratios[0][0]
    off_fib = sum(abs(r - f) >= 0.01 for r, f, _ in ratios)
    off_exact = sum(abs(r - e) > 1e-9 * abs(e) for r, _, e in ratios)
    worst_fib = max(abs(r - f) for r, f, _ in ratios)
    worst_exact = max(abs(r - e) / abs(e) for r, _, e in ratios)
    report(3, abs(first - 2.0) < 0.01 and not off_fib and not off_exact,
           f"first ratio = {first:.6f} (want 2 within 0.01); "
           f"{off_fib} of {len(ratios)} ratios off F_(2j+1)/F_(2j-1) "
           f"by >= 0.01 (max gap {worst_fib:.2e}); {off_exact} off the "
           f"mpmath map at rel 1e-9 (max {worst_exact:.2e}); last ratio = "
           f"{ratios[-1][0]:.6f}, phi^2 = {(3 + math.sqrt(5)) / 2:.6f}")


def test_04_phase_portrait_shape():
    # |p_{j+1}| strictly increases while |q_{j+1}| lies in (0, 0.9); the
    # run's largest |p| occurs at an index with |q| in (0.8, 1.2)
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[3e-8], p=[0.0]), 19)
    absq = [abs(pt.q[0]) for pt in traj.points]
    absp = [abs(pt.p[0]) for pt in traj.points]
    ladder = [absp[j + 1] for j in range(len(traj) - 1)
              if 0.0 < absq[j + 1] < 0.9]
    increasing = all(b > a for a, b in zip(ladder, ladder[1:]))
    k = int(np.argmax(absp))
    located = 0.8 < absq[k] < 1.2
    report(4, increasing and located,
           f"{len(ladder)} banded magnitudes strictly increasing: {increasing}; "
           f"max |p| = {absp[k]:.4f} at |q| = {absq[k]:.4f}, window (0.8, 1.2)")


def test_05_flow_residuals_below_tolerance():
    # independent re-evaluation of the evolution equation at every
    # transition of the generating sequences
    H = cubic_right()
    worst = 0.0
    for q0, steps in ((5e-8, 18), (3e-8, 19)):
        traj = run_trajectory(H, PhasePoint(index=1, q=[q0], p=[0.0]), steps)
        seq = solve_generating_sequence(H, traj)
        assert not seq.meta["truncated"]
        for a, b, S_j, S_next in zip(seq.points, seq.points[1:], seq.S, seq.S[1:]):
            worst = max(worst, abs(hj_residual(H, S_j, S_next, b.p, a.q, b.q)))
    report(5, worst < 1e-12,
           f"max evolution residual = {worst:.3e}, limit 1e-12")


def test_06_momentum_identification():
    # DS_j of the generating sequence equals p_j of the trajectory
    H = cubic_right()
    traj = run_trajectory(H, PhasePoint(index=1, q=[5e-8], p=[0.0]), 18)
    seq = solve_generating_sequence(H, traj)
    assert len(seq) == len(traj)
    worst = max(abs(e.p[0] - pt.p[0]) for e, pt in zip(seq.points, traj.points))
    report(6, worst < 1e-12,
           f"max |DS_j - p_j| = {worst:.3e} over {len(traj)} indices, limit 1e-12")


def test_07_vector_field_first_value():
    # gamma_2 from the explicit slope update, with gamma_1 = 0 and
    # q_1 = q_2 = 5e-8, equals the p_2 of criterion 2
    H = cubic_right()
    q1 = 5e-8
    g2 = closed_form_gamma_step(0.0, q1, q1)
    p2 = step_right(H, PhasePoint(index=1, q=[q1], p=[0.0])).p[0]
    gap = abs(g2 - p2)
    report(7, gap < 1e-15, f"|gamma_2 - p_2| = {gap:.3e}, limit 1e-15")


def test_08_accuracy_ranking_in_compare_footer(tmp_path):
    # mean |gamma - p| must not exceed mean |DS - p| over the common index
    # range with |q| < 0.9; both means come from the compare footer
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--csv", str(out)]) == 0
    footer = {}
    lines = out.read_text(encoding="utf-8").splitlines()
    colnames_seen = False
    for line in lines:
        if not line.startswith("# "):
            colnames_seen = True
            continue
        if colnames_seen:
            key, _, value = line[2:].partition(" = ")
            footer[key] = float(value)
    mean_vf = footer["mean_err_vf"]
    mean_flow = footer["mean_err_flow"]
    report(8, mean_vf <= mean_flow,
           f"mean |gamma - p| = {mean_vf:.3e} <= mean |DS - p| = {mean_flow:.3e}")


def test_09_left_right_dual_identity():
    # both duals of L(a, b) = (b - a)^2 / 2; the defining relation between
    # them re-evaluated along 50 steps
    L = free_particle()
    Hp = hamiltonian_from_lagrangian(L, Side.RIGHT)
    Hm = hamiltonian_from_lagrangian(L, Side.LEFT)
    traj = run_trajectory(Hp, PhasePoint(index=1, q=[0.2], p=[0.1]), 50)
    assert not traj.meta["truncated"]
    worst = max(left_right_relation_residual(Hp, Hm, a.q, a.p, b.q, b.p)
                for a, b in zip(traj.points[:-1], traj.points[1:]))
    report(9, worst < 1e-9,
           f"max dual-relation residual = {worst:.3e} over 50 steps, limit 1e-9")


def test_10_equivalence_residual_halving():
    # halving the start position halves the effective grid spacing of the
    # first transition (the one transition the two runs share a footing on);
    # its equivalence residual must shrink by a factor in [1.5, 3]
    H = cubic_right()

    def first_transition(q0: float):
        traj = run_trajectory(H, PhasePoint(index=1, q=[q0], p=[0.0]), 10)
        grid = [pt.q[0] for pt in traj.points]
        seq = run_closed_form_flow(grid, 0.0, 1e-4, Branch.CONTINUITY)
        return grid[1] - grid[0], equivalence_check(H, seq)[0]

    dq_c, res_c = first_transition(5e-8)
    dq_f, res_f = first_transition(2.5e-8)
    spacing_ratio = dq_c / dq_f
    ratio = res_c / res_f
    report(10, 1.5 <= ratio <= 3.0,
           f"grid spacing ratio = {spacing_ratio:.6f}, residual ratio = "
           f"{ratio:.6f}, window [1.5, 3]")


def test_11_reduction_fidelity():
    # eliminated-control Hamiltonian against the hand formula at 1000
    # sampled points; then the discrete partials against central differences
    # of the hand right-hand sides
    H = cubic_right()
    rng = np.random.default_rng(0)
    worst_val = 0.0
    for _ in range(1000):
        q = rng.uniform(-2.0, 2.0)
        p = rng.uniform(-2.0, 2.0)
        want = p * (q - q ** 3) - 0.5 * p ** 2 + 0.5 * q ** 2
        worst_val = max(worst_val, abs(H.eval(np.array([q]), np.array([p])) - want))
    step = 1e-6

    def hand(qq: float, pp: float) -> float:
        return pp * (qq - qq ** 3) - 0.5 * pp ** 2 + 0.5 * qq ** 2

    worst_par = 0.0
    for _ in range(100):
        q = rng.uniform(-1.5, 1.5)
        p = rng.uniform(-1.5, 1.5)
        d1 = float(H.d1(np.array([q]), np.array([p]))[0])
        d2 = float(H.d2(np.array([q]), np.array([p]))[0])
        fd_q = (hand(q + step, p) - hand(q - step, p)) / (2.0 * step)
        fd_p = (hand(q, p + step) - hand(q, p - step)) / (2.0 * step)
        worst_par = max(worst_par, abs(d1 - fd_q), abs(d2 - fd_p))
    report(11, worst_val < 1e-12 and worst_par < 1e-6,
           f"max |H - hand| = {worst_val:.3e} (limit 1e-12); "
           f"max partial gap = {worst_par:.3e} (limit 1e-6)")


def test_12_singular_start_cli_classification(tmp_path):
    # starting on the stationary band must classify as a singular implicit
    # update: exit code 1 and a truncated but written CSV
    csv = tmp_path / "singular.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "dhj.cli", "simulate",
         "--q1", repr(1.0 / math.sqrt(3.0)), "--csv", str(csv)],
        capture_output=True, text=True)
    written = csv.exists()
    lines = csv.read_text(encoding="utf-8").splitlines() if written else []
    data_rows = [ln for ln in lines if ln and not ln.startswith("#")
                 and not ln.startswith("j,")]
    ok = (proc.returncode == 1 and "SingularJacobianError" in proc.stderr
          and written and len(data_rows) == 1)
    report(12, ok,
           f"exit = {proc.returncode} (want 1), error named = "
           f"{'yes' if 'SingularJacobianError' in proc.stderr else 'no'}, "
           f"csv rows = {len(data_rows)} (truncated, still written)")
