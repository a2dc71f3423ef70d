"""Command-line interface: determinism, file formats, exit codes."""

import argparse
import dataclasses
import errno
import hashlib
import math
import re
import subprocess
import sys
import types
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import dhj.cli
import dhj.core
import dhj.hj_flow
import dhj.mechanics
from dhj.cli import check_partial_consistency, main
from dhj.core import PhasePoint, _checked_point
from dhj.hj_flow import Branch, hj_residual, run_closed_form_flow, solve_generating_sequence
from dhj.hj_vf import run_closed_form_vf, solve_gamma_generic
from dhj.mechanics import DiscreteHamiltonian, Side, run_trajectory
from dhj.optctrl import discretize_right, make_sakamoto1d


def read_csv(path):
    """Split a written CSV into (header dict, colnames, data rows, footer dict)."""
    header, rows, footer = {}, [], {}
    colnames = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            if colnames is None:
                header[key] = value
            else:
                footer[key] = value
        elif colnames is None:
            colnames = line.split(",")
        else:
            rows.append(line.split(","))
    return header, colnames, rows, footer


# the contract: the flags each command reads, written out here and not taken
# from dhj.cli; a command's config file keys are these (without --config),
# spelled with underscores, and the solver settings below
READS = {command: set(flags.split()) for command, flags in {
    "simulate": "--config --r --s --q1 --p1 --steps --csv --svg --log-abs",
    "hj-flow": "--config --r --s --q1 --p1 --q2 --ds1 --steps --h --branch --csv --svg --log-abs",
    "hj-vf": "--config --r --s --q1 --p1 --q2 --gamma1 --steps --csv --svg --log-abs",
    "compare": "--config --r --s --q1 --p1 --q2 --ds1 --gamma1 --steps --h --branch "
               "--csv --svg --log-abs",
    "check": "--config --r --s --q1 --p1 --gamma1 --steps",
}.items()}
SOLVER_KEYS = ("tol", "max_iter", "damping", "fd_step")
# the flags no command reads: the weights fix the slope method, and there is one model
REMOVED = {"--method", "--model"}
# each (command, flag) of the 26 flags that the command does not read
UNREAD = [(command, flag) for command in READS
          for flag in sorted((READS["compare"] - READS[command]) | REMOVED)]


# the flags hj-flow takes and its generic method does not read: it lifts
# the orbit from --q1 and --p1
GENERIC_FLOW_UNREAD = {"--ds1", "--q2", "--h", "--branch"}
# the generic compare lifts that orbit too, and the generic check's vf-agreement,
# which alone reads --gamma1 there, needs the closed form
GENERIC_UNREAD = {"hj-flow": GENERIC_FLOW_UNREAD, "compare": {"--ds1"}, "check": {"--gamma1"}}


def reads(command: str, flags, generic: bool = False) -> bool:
    """Whether command, on the generic method if generic, reads every flag of
    flags, each spelled --flag=value."""
    unread = GENERIC_UNREAD.get(command, set()) if generic else set()
    return all(flag.split("=")[0] in READS[command] - unread for flag in flags)


def test_simulate_csv_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["simulate", "--csv", str(a)]) == 0
    assert main(["simulate", "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of the outputs, pinned so that a change made for speed cannot move a
# byte of them unnoticed; a change that means to move them says why and
# updates the digests.
_COMPARE_DIGESTS = {
    "defaults": ("0b978b9635600d1bbc4c84a1ea99867d41a04a65674a1dd7e06be8b2702f8083",
                 "e3c2b96bee8a24199e9ec2d91f93b6874d0fbffbfa47e744db10b6f8ea253533"),
    "r2-s0.5": ("bec2f5f46c69d22855d5380c7c1bf280ea229059603dbbac744ed7af8b0bd528",
                "e572696250a68365c68d8888b83ea9523eac478d7c41ac692a5eeaee2873cee5"),
}
# check flags -> (exit code, report digest): the default partials, the
# generic ones with a vf-agreement SKIP, and a FAIL that quotes a truncation
_CHECK_DIGESTS = {
    ("--q1=0.05", "--steps=8"): (
        0, "4048a01c144ab30bb6689b05d026ceaf12571abfb7cc9b08444bc947b665b974"),
    ("--q1=0.05", "--steps=8", "--r=2", "--s=0.5"): (
        0, "bdd816c8a24433c2c2b30474c1f1bf94f80295b5a8a38c58251babe6380cacf7"),
    ("--q1=1e-13", "--steps=4"): (
        1, "5a8556975b8ecaea93e7161f1d2d7a8f2296f35d88e506682dabf06724319482"),
}


@pytest.mark.parametrize("label, flags", [("defaults", []), ("r2-s0.5", ["--r=2", "--s=0.5"])])
def test_compare_outputs_are_pinned_byte_for_byte(label, flags, tmp_path, capsys):
    csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    assert main(["compare", *flags, "--csv", str(csv), "--svg", str(svg)]) == 0
    digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (csv, svg))
    assert digests == _COMPARE_DIGESTS[label]


def test_check_report_is_pinned_byte_for_byte(capsys):
    for flags, (code, digest) in _CHECK_DIGESTS.items():
        assert main(["check", *flags]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_simulate_csv_row_oracle(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["simulate", "--csv", str(out)]) == 0
    header, colnames, rows, _ = read_csv(out)
    assert colnames == ["j", "q", "p", "abs_q", "abs_p"]
    assert header["model"] == "sakamoto1d"
    assert len(rows) == 19
    assert rows[2][0] == "3"
    assert abs(float(rows[2][1]) - 2.5000000000000438e-07) <= 5e-21


def test_exit_codes_via_subprocess(tmp_path):
    base = [sys.executable, "-m", "dhj.cli"]
    ok = subprocess.run(base + ["simulate"], capture_output=True, text=True)
    assert ok.returncode == 0

    bad = subprocess.run(base + ["simulate", "--steps", "0"],
                         capture_output=True, text=True)
    assert bad.returncode == 2
    assert "config error" in bad.stderr

    csv = tmp_path / "partial.csv"
    sing = subprocess.run(
        base + ["simulate", "--q1", repr(1.0 / math.sqrt(3.0)), "--csv", str(csv)],
        capture_output=True, text=True)
    assert sing.returncode == 1
    assert "SingularJacobianError" in sing.stderr
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 15  # 13 header lines, column names, one surviving row


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("q1 = 0.01\nsteps = 3  # overridden below\n",
                       encoding="utf-8")
    out = tmp_path / "run.csv"
    rcode = main(["simulate", "--config", str(cfgfile), "--steps", "5",
                  "--csv", str(out)])
    assert rcode == 0
    header, _, rows, _ = read_csv(out)
    assert float(header["q1"]) == 0.01
    assert header["steps"] == "5"
    assert len(rows) == 6


def test_unknown_config_key_is_a_config_error(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("bogus = 1\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfgfile)]) == 2


def test_config_file_errors_name_the_file_and_line(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    missing = str(tmp_path / "missing.cfg")
    assert main(["simulate", "--config", missing]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot read config file {missing!r}: [Errno {errno.ENOENT}] ")
    for text, err in (("steps 3\n", "expected 'key = value', got 'steps 3'"),
                      ("\n   # a note\nsteps = three\n", "bad value 'three' for 'steps'"),
                      ("log_abs = maybe\n", "bad value 'maybe' for 'log_abs'")):
        cfgfile.write_text(text, encoding="utf-8")
        assert main(["simulate", "--config", str(cfgfile)]) == 2
        line = text.count("\n")
        assert capsys.readouterr() == ("", f"config error: {cfgfile}:{line}: {err}\n")
    # blank and comment-only lines are skipped
    cfgfile.write_text("\n# a note\n   \nsteps = 2  # two\n", encoding="utf-8")
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", str(cfgfile), "--csv", str(out)]) == 0
    assert len(read_csv(out)[2]) == 3


@pytest.mark.parametrize("argv, err", [
    (["simulate", "--steps=0"], "steps must be at least 1, got 0"),
    (["hj-flow", "--branch=left"], "unknown branch 'left'"),
])
def test_resolve_config_names_the_bad_setting(argv, err, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: {err}\n")


def test_a_panel_with_no_finite_data_says_so(tmp_path):
    out = tmp_path / "p.svg"
    dhj.cli.write_svg(str(out), [{"title": "empty", "series": [("a", [math.nan], [1.0])]}])
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    texts = [el.text for el in root if el.tag.endswith("text")]
    assert texts == ["empty", "no finite data"]
    assert not [el for el in root if el.tag.endswith(("polyline", "circle"))]


def test_generic_vf_solves_along_the_orbit_with_q2_spliced(tmp_path):
    out = tmp_path / "vf.csv"
    assert main(["hj-vf", "--r=2", "--q1=0.01", "--q2=0.02", "--steps=4", "--gamma1=0.001",
                 "--csv", str(out)]) == 0
    rows = read_csv(out)[2]
    H = discretize_right(make_sakamoto1d(r=2.0))
    grid = [pt.q.item() for pt in run_trajectory(H, PhasePoint(index=1, q=[0.01], p=[0.0]),
                                                 4).points]
    grid[1] = 0.02
    want = solve_gamma_generic(H, grid, [0.001])
    assert [row[1] for row in rows] == [format(q, ".17g") for q in grid]
    assert [row[2] for row in rows] == [format(pt.p.item(), ".17g") for pt in want.points]


def test_singular_start_reports_a_completed_step():
    H = dhj.mechanics.hamiltonian_from_lagrangian(dhj.cli._free_particle(), Side.RIGHT)
    res = dhj.cli.singular_start_probe(H)
    assert (res.status, res.detail) == (
        "INFO", "step from q = 1/sqrt(3) completed; no singularity detected")


def test_hj_flow_q2_override_splices_only_second_entry(tmp_path):
    out = tmp_path / "flow.csv"
    assert main(["hj-flow", "--q2", "1.5e-7", "--csv", str(out)]) == 0
    _, colnames, rows, _ = read_csv(out)
    assert colnames == ["j", "q", "S", "DS", "branch", "residual"]
    assert float(rows[1][1]) == 1.5e-7
    assert abs(float(rows[1][3]) - 1.1803398874989471e-08) <= 1e-9 * 1.18e-8
    assert rows[1][4] == "plus"
    # the third grid entry stays the trajectory's own
    assert abs(float(rows[2][1]) - 2.5000000000000438e-07) <= 5e-21


def test_hj_flow_generic_reproduces_momenta(tmp_path):
    sim = tmp_path / "sim.csv"
    flow = tmp_path / "flow.csv"
    assert main(["simulate", "--r=2", "--csv", str(sim)]) == 0
    assert main(["hj-flow", "--r=2", "--csv", str(flow)]) == 0
    _, _, sim_rows, _ = read_csv(sim)
    _, _, flow_rows, _ = read_csv(flow)
    assert len(flow_rows) == len(sim_rows)
    for srow, frow in zip(sim_rows[1:], flow_rows[1:]):
        assert abs(float(frow[3]) - float(srow[2])) <= 1e-15
        assert frow[4] == "direct"
        assert abs(float(frow[5])) <= 1e-12


def test_generic_compare_steps_one_right_orbit(monkeypatch, tmp_path):
    # the flow lifts the orbit the grid came from instead of stepping its own
    calls = []
    step_right = dhj.mechanics.step_right

    def counted(*args, **kwargs):
        calls.append(1)
        return step_right(*args, **kwargs)

    for module in (dhj.mechanics, dhj.hj_flow, dhj.cli):
        monkeypatch.setattr(module, "step_right", counted)
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--r=2", "--q1=0.01", "--steps=10", "--csv", str(out)]) == 0
    assert len(read_csv(out)[2]) == 11
    assert len(calls) == 10


def _full_grid_runs(rc, H, flow=False, vf=False, sequence=False):
    # the reference: the whole orbit, then each closed-form slope runner asked
    # for over the grid it gives (--q2 in its second position)
    traj = run_trajectory(H, PhasePoint(index=1, q=[rc.q1], p=[rc.p1]), rc.steps)
    grid = [pt.q.item() for pt in traj.points]
    if rc.q2 is not None and len(grid) >= 2:
        grid[1] = rc.q2
    return (traj, run_closed_form_flow(grid, rc.ds1, rc.h, Branch(rc.branch)) if flow else None,
            run_closed_form_vf(grid, rc.gamma1) if vf else None)


def _run_outputs(command, argv, tmp_path, capsys):
    csv, svg = tmp_path / "run.csv", tmp_path / "run.svg"
    code = main([command, *argv, "--csv", str(csv), "--svg", str(svg)])
    out, err = capsys.readouterr()
    return code, csv.read_bytes(), svg.read_bytes(), out, err.splitlines()


_PORTRAIT = ["--r=1.0", "--s=1.0", "--steps=24", "--h=0.0001"]
_TABLE_ENDS = [
    ["--q1=-1.901555638953343e-08", *_PORTRAIT],  # the flow has no root at j = 2
    ["--q1=1.887335789153114e-08", *_PORTRAIT],   # nor at j = 22
    ["--q1=1e-13"], ["--branch=plus"], ["--branch=minus"], ["--q2=1e-7"],
    ["--q1=0.5773502691896258"], ["--q1", "0.01", "--steps", "40"], ["--q1=1e103"],
    ["--q1=0", "--ds1=-1"],  # both slopes fail on the first transition
]


def _table_cases() -> dict:
    """Each command's _TABLE_ENDS cases without the flags it does not read, by
    id (compare's are argv0 to argv9, the others' carry the command's name);
    a case that then repeats an earlier one goes (hj-vf's argv4)."""
    cases = {}
    for command in ("compare", "hj-flow", "hj-vf"):
        for k, argv in enumerate(_TABLE_ENDS):
            argv = [a for a in argv if not a.startswith("--") or reads(command, [a])]
            if (command, argv) not in cases.values():
                cases[f"{'' if command == 'compare' else command + '-'}argv{k}"] = (command, argv)
    return cases


_TABLE_CASES = _table_cases()


@pytest.mark.parametrize("command, argv", list(_TABLE_CASES.values()), ids=list(_TABLE_CASES))
def test_compare_ends_its_orbit_with_its_table(command, argv, monkeypatch, tmp_path, capsys):
    # the same files, stdout and exit code as the full-grid reference; its
    # stderr lines that name a j past the table's last row are gone
    code, csv, svg, out, err = _run_outputs(command, argv, tmp_path, capsys)
    monkeypatch.setattr(dhj.cli, "_runs", _full_grid_runs)
    ref_code, ref_csv, ref_svg, ref_out, ref_err = _run_outputs(command, argv, tmp_path, capsys)
    assert (code, csv, svg, out) == (ref_code, ref_csv, ref_svg, ref_out)
    last = int(read_csv(tmp_path / "run.csv")[2][-1][0])
    assert err == [line for line in ref_err
                   if int(re.match(r"\w+ failure at j = (\d+): ", line)[1]) <= last]


@pytest.mark.parametrize("argv, code, calls, err", [
    # the table ends at row 2, where the flow has no real root, so the orbit
    # takes the two steps that give row 3's position, not the 23 it has
    (["compare", "--q1=-1.901555638953343e-08", "--steps=24"], 1, 2,
     ["flow failure at j = 2: BranchError: no real branch: discriminant = -1.570600e-12 "
      "is negative"]),
    (["hj-flow", "--branch=minus"], 1, 2,
     ["flow failure at j = 2: BranchError: no real branch: discriminant = -2.410964e-11 "
      "is negative"]),
    (["hj-vf", "--q1=1e-13"], 1, 2,
     ["vf failure at j = 2: SingularDenominatorError: singular denominator -3.000000e-39 "
      "(threshold 1e-14 * scale, scale = 1.000000e+00)"]),
    # the generic flow steps only the orbit it lifts, from (q1, p1); at r = 2 the
    # exact orbit from (0.01, 0.02) stays in |q| < 0.9 (bench_oracles.escapes)
    (["hj-flow", "--r=2", "--p1=0.02", "--q1=0.01", "--steps=10"], 0, 10, []),
], ids=["compare", "hj-flow", "hj-vf", "hj-flow-generic"])
def test_compare_steps_its_orbit_only_as_far_as_its_table(argv, code, calls, err, monkeypatch,
                                                          capsys):
    counted_calls = []
    step_right = dhj.mechanics.step_right

    def counted(*args, **kwargs):
        counted_calls.append(1)
        return step_right(*args, **kwargs)

    monkeypatch.setattr(dhj.mechanics, "step_right", counted)
    assert main(argv) == code
    assert len(counted_calls) == calls
    assert capsys.readouterr().err.splitlines() == err


def test_generic_flow_csv_reads_the_lift_residuals(monkeypatch, tmp_path):
    # the lift evaluates H+ twice per transition (value and re-check) and the
    # residual column is its re-check, so ten transitions cost 20 evaluations
    # and the column is what hj_residual recomputes
    calls = []
    build_model = dhj.cli.build_model

    def counted_model(rc):
        H = build_model(rc)

        def eval_(q, p):
            calls.append(1)
            return H.eval(q, p)
        return dataclasses.replace(H, eval=eval_)

    monkeypatch.setattr(dhj.cli, "build_model", counted_model)
    out = tmp_path / "flow.csv"
    assert main(["hj-flow", "--r=2", "--q1=0.01", "--steps=10", "--csv", str(out)]) == 0
    assert len(calls) == 20
    _, _, rows, _ = read_csv(out)
    H = discretize_right(make_sakamoto1d(r=2.0))
    seq = solve_generating_sequence(H, run_trajectory(H, PhasePoint(index=1, q=[0.01], p=[0.0]),
                                                      10))
    want = ["0"] + [format(hj_residual(H, S_j, S_next, b.p, a.q, b.q), ".17g")
                    for a, b, S_j, S_next in zip(seq.points, seq.points[1:], seq.S, seq.S[1:])]
    assert [row[5] for row in rows] == want


@pytest.mark.parametrize("flags", [["--p1=0.01"], ["--p1=-0.0"]])
def test_generic_flow_lifts_its_orbit_from_p1(flags, tmp_path):
    # the lift's DS column is the momentum of the orbit from (q1, p1), -0.0 as given
    out = tmp_path / "flow.csv"
    argv = ["hj-flow", "--r=2", "--q1=0.01", "--steps=8", *flags, "--csv", str(out)]
    assert main(argv) == 0
    header, _, rows, _ = read_csv(out)
    H = discretize_right(make_sakamoto1d(r=2.0))
    p1 = float(flags[0].split("=")[1])
    own = run_trajectory(H, PhasePoint(index=1, q=[0.01], p=[p1]), 8)
    assert [row[3] for row in rows] == [format(pt.p[0], ".17g") for pt in own.points]
    assert rows[0][3] == header["p1"] == format(p1, ".17g")


# each command's table and the columns, if any, that show the orbit's q and p
_START_COLUMNS = [(["simulate"], 1, 2), (["simulate", "--r=2"], 1, 2), (["compare"], 1, 2),
                  (["compare", "--s=0.5"], 1, 2), (["hj-flow", "--r=2"], 1, 3),
                  (["hj-flow"], 1, None), (["hj-vf"], 1, None), (["hj-vf", "--r=2"], 1, None)]


@pytest.mark.parametrize("argv, q_col, p_col", _START_COLUMNS,
                         ids=["-".join(argv) for argv, _, _ in _START_COLUMNS])
@pytest.mark.parametrize("p1", ["0.01", "-0.0"])
def test_the_first_row_of_every_command_is_q1_p1(argv, q_col, p_col, p1, tmp_path):
    # every orbit starts from (q1, p1): the first row shows them bit for bit, as the header does
    out = tmp_path / "run.csv"
    assert main([*argv, "--q1=0.03", f"--p1={p1}", "--steps=2", "--csv", str(out)]) == 0
    header, _, rows, _ = read_csv(out)
    assert rows[0][0] == "1" and rows[0][q_col] == header["q1"] == "0.029999999999999999"
    assert header["p1"] == format(float(p1), ".17g")
    if p_col is not None:
        assert rows[0][p_col] == header["p1"]


@pytest.mark.parametrize("p1", ["0.01", "-0.0"])
def test_generic_compare_lifts_the_orbit_it_steps(p1, monkeypatch, tmp_path):
    # one orbit from (q1, p1): ten steps, and DS is its momentum bit for bit
    calls = []
    step_right = dhj.mechanics.step_right

    def counted(*args, **kwargs):
        calls.append(1)
        return step_right(*args, **kwargs)

    monkeypatch.setattr(dhj.mechanics, "step_right", counted)
    out = tmp_path / "cmp.csv"
    argv = ["compare", "--r=2", "--q1=0.01", "--steps=10", f"--p1={p1}", "--csv", str(out)]
    assert main(argv) == 0
    assert len(calls) == 10
    _, _, rows, footer = read_csv(out)
    assert len(rows) == 11 and rows[0][2] == format(float(p1), ".17g")
    assert [row[3] for row in rows] == [row[2] for row in rows]
    assert {row[5] for row in rows} == {"0"}
    assert (footer["max_err_flow"], footer["mean_err_flow"]) == ("0", "0")


def test_check_steps_its_orbit_once(monkeypatch, capsys):
    # the flow-residuals probe lifts the run's orbit, -0.0 start and all
    calls = []
    run_trajectory = dhj.mechanics.run_trajectory

    def counted(H, start, *args, **kwargs):
        calls.append(start.p.tobytes())
        return run_trajectory(H, start, *args, **kwargs)

    monkeypatch.setattr(dhj.cli, "run_trajectory", counted)
    assert main(["check", "--r=2", "--p1=-0.0", "--steps=6"]) == 0
    # the run's orbit and check_left_right's free particle
    assert calls == [np.array([-0.0]).tobytes(), np.array([0.1]).tobytes()]
    line, = [ln for ln in capsys.readouterr().out.splitlines() if "flow-residuals" in ln]
    assert line.startswith("CHECK flow-residuals: PASS ") and "over 6 transitions" in line


_GENERIC_COMPARE_ERROR = ("config error: the generic compare lifts its orbit from q1 and p1 "
                          "and reads no ds1\n")


def test_generic_compare_rejects_ds1(tmp_path, capsys):
    # by flag or by config file, on --method generic or on weights that pick it
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("ds1 = 0.3\n", encoding="utf-8")
    for argv in (["--ds1=0.3", "--s=2"], ["--r=2", "--ds1=0.3"],
                 ["--config", str(cfgfile), "--s=0.5"], ["--ds1=0", "--r=2"]):
        assert main(["compare", "--steps=2", *argv]) == 2
        assert capsys.readouterr() == ("", _GENERIC_COMPARE_ERROR)
    # the closed form reads it: DS starts there
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--steps=2", "--ds1=0.3", "--csv", str(out)]) == 0
    assert read_csv(out)[2][0][3] == "0.29999999999999999"


def test_escaping_generic_flow_stops_where_its_orbit_does(tmp_path, capsys):
    # S reaches -1e4 here; its rounding once cut the flow at j = 4 with a
    # ResidualCheckFailure against an absolute 1e-12
    out = tmp_path / "cmp.csv"
    argv = ["compare", "--q1=0.14458683537042474", "--r=0.5", "--s=2", "--steps=24",
            "--csv", str(out)]
    assert main(argv) == 1
    assert len(read_csv(out)[2]) == 5
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[0:2] for line in err] == [
        ["trajectory failure at j = 5", "ConvergenceError"],
        ["flow failure at j = 5", "ConvergenceError"]]


def test_generic_check_rejects_gamma1(tmp_path, capsys):
    # by flag or by config file: off unit weights vf-agreement SKIPs before it reads gamma1
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("gamma1 = 0.5\n", encoding="utf-8")
    for argv in (["--r=2", "--gamma1=0.5"], ["--config", str(cfgfile), "--s=0.5"],
                 ["--gamma1=0", "--r=2"]):
        assert main(["check", "--q1=0.05", "--steps=4", *argv]) == 2
        assert capsys.readouterr() == ("", "config error: the generic check lifts its orbit "
                                           "from q1 and p1 and reads no gamma1\n")
    # the closed form's vf-agreement starts both of its slopes there
    assert main(["check", "--q1=0.05", "--steps=4", "--config", str(cfgfile)]) == 0
    assert "CHECK vf-agreement: PASS " in capsys.readouterr().out


_GENERIC_FLOW_ERROR = ("config error: the generic hj-flow lifts its orbit from q1 and p1 "
                       "and reads no ")


def test_hj_flow_rejects_q2_with_generic_method(capsys):
    assert main(["hj-flow", "--r", "2", "--q2", "1e-7"]) == 2
    assert capsys.readouterr().err == f"{_GENERIC_FLOW_ERROR}q2\n"


@pytest.mark.parametrize("flag", sorted(GENERIC_FLOW_UNREAD))
def test_generic_hj_flow_rejects_each_key_it_does_not_read(flag, tmp_path, capsys):
    # by flag or by config file, on --method generic or on weights that pick it
    key, value = flag[2:], {"--branch": "plus"}.get(flag, "0.001")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {value}\n", encoding="utf-8")
    for argv in ([f"{flag}={value}", "--s=2"], [f"{flag}={value}", "--r=2"],
                 ["--config", str(cfgfile), "--s=0.5"]):
        assert main(["hj-flow", "--steps=2", *argv]) == 2
        assert capsys.readouterr() == ("", f"{_GENERIC_FLOW_ERROR}{key}\n")
    # the closed form reads it
    csv = str(tmp_path / "run.csv")
    assert main(["hj-flow", "--steps=2", "--csv", csv, f"{flag}={value}"]) == 0


def test_generic_hj_flow_names_every_key_it_does_not_read(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("h = 0.001\n", encoding="utf-8")
    assert main(["hj-flow", "--r=2", "--branch=plus", "--ds1=0", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == f"{_GENERIC_FLOW_ERROR}ds1, h, branch\n"


def test_hj_vf_csv_values(tmp_path):
    out = tmp_path / "vf.csv"
    assert main(["hj-vf", "--csv", str(out)]) == 0
    _, colnames, rows, _ = read_csv(out)
    assert colnames == ["j", "q", "gamma", "residual"]
    assert float(rows[0][2]) == 0.0
    assert abs(float(rows[1][2]) - (-5.0000000000000375e-08)) <= 1e-15
    for row in rows[1:]:
        assert abs(float(row[3])) <= 1e-9


def test_compare_footer_statistics(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--csv", str(out)]) == 0
    _, colnames, rows, footer = read_csv(out)
    assert colnames == ["j", "q", "p", "DS", "gamma", "err_flow", "err_vf"]
    max_flow = float(footer["max_err_flow"])
    mean_flow = float(footer["mean_err_flow"])
    mean_vf = float(footer["mean_err_vf"])
    assert abs(max_flow - 0.36465819356950657) <= 1e-3 * 0.365
    assert abs(mean_flow - 0.031895239599148459) <= 1e-3 * 0.032
    assert mean_vf <= mean_flow


def test_check_battery_passes_on_defaults(capsys):
    assert main(["check"]) == 0
    text = capsys.readouterr().out
    assert "CHECK partial-consistency: PASS" in text
    assert "CHECK symplecticity: PASS" in text
    assert "INFO singular-start:" in text
    assert "0 failed" in text


def test_check_builds_finite_difference_jacobians_only_for_symplecticity(monkeypatch, capsys):
    # every Newton solve in check has an exact Jacobian; symplecticity_defect
    # alone differentiates the step map, once per band point
    fd_jacobian, defect = dhj.core.fd_jacobian, dhj.cli.symplecticity_defect
    calls, inside = [], []

    def counted_fd_jacobian(*args, **kwargs):
        calls.append(bool(inside))
        return fd_jacobian(*args, **kwargs)

    def marked_defect(*args, **kwargs):
        inside.append(True)
        try:
            return defect(*args, **kwargs)
        finally:
            inside.pop()

    for module in (dhj.core, dhj.mechanics):
        monkeypatch.setattr(module, "fd_jacobian", counted_fd_jacobian)
    monkeypatch.setattr(dhj.cli, "symplecticity_defect", marked_defect)
    assert main(["check"]) == 0
    band = int(re.search(r"CHECK symplecticity: PASS .* over (\d+) points",
                         capsys.readouterr().out).group(1))
    assert band > 0 and calls == [True] * band


def test_each_left_right_newton_solve_takes_one_exact_step(monkeypatch):
    # the free particle's relations are linear: with its exact second
    # partials one Newton step lands, a residual at the guess and one after
    newton_solve, evals = dhj.mechanics.newton_solve, []

    def counted(residual, *args, **kwargs):
        evals.append(0)

        def tallied(z):
            evals[-1] += 1
            return residual(z)
        return newton_solve(tallied, *args, **kwargs)

    monkeypatch.setattr(dhj.mechanics, "newton_solve", counted)
    assert dhj.cli.check_left_right().status == "PASS"
    assert len(evals) > 50 and set(evals) == {2}


class _NumpyWithLinalg:
    """numpy as dhj.core sees it, with linalg.solve, qr and norm replaced."""

    def __init__(self, **linalg):
        self.linalg = types.SimpleNamespace(**linalg)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("argv", [["check", "--q1=0.05", "--steps=8"],
                                  ["compare", "--q1=0.01", "--r=2", "--steps=24"]])
def test_scalar_newton_steps_call_no_dense_linear_algebra(argv, monkeypatch, tmp_path, capsys):
    # every Newton system the CLI solves is 1 x 1, so each step is one
    # division: with numpy's solve, qr and norm refusing to run inside
    # dhj.core, output and CSV are unchanged
    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra inside dhj.core")

    csv = tmp_path / "run.csv"
    if argv[0] == "compare":
        argv = argv + ["--csv", str(csv)]
    runs = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(dhj.core, "np",
                                _NumpyWithLinalg(solve=refuse, qr=refuse, norm=refuse))
        code = main(argv)
        runs.append((code, capsys.readouterr(), csv.read_bytes() if csv.exists() else None))
    assert runs[0] == runs[1]
    # check passes; compare's orbit escapes and stops on a 50-step Newton stall
    assert runs[0][0] == (0 if argv[0] == "check" else 1)


def test_two_dimensional_newton_still_solves_through_numpy(monkeypatch):
    calls = []

    def counted(name):
        def call(*args, **kwargs):
            calls.append(name)
            return getattr(np.linalg, name)(*args, **kwargs)
        return call

    monkeypatch.setattr(dhj.core, "np", _NumpyWithLinalg(
        **{name: counted(name) for name in ("solve", "qr", "norm")}))
    A, b = np.array([[3.0, 1.0], [1.0, 2.0]]), np.array([1.0, -1.0])
    x = dhj.core.newton_solve(lambda z: A @ z - b, [0.0, 0.0], jacobian=lambda z: A)
    assert np.abs(A @ x - b).max() <= 1e-12
    assert calls.count("solve") >= 1 and calls.count("qr") == calls.count("solve")


def test_partial_consistency_flags_corrupted_hamiltonian():
    H = discretize_right(make_sakamoto1d())
    bad = DiscreteHamiltonian(
        side=Side.RIGHT,
        eval=H.eval,
        d1=lambda q, p: np.asarray(H.d1(q, p), dtype=float) + 0.1,
        d2=H.d2,
        dim=1,
    )
    res = check_partial_consistency(bad)
    assert res.status == "FAIL"
    assert res.measured > 1e-3


def test_partial_consistency_fails_a_nan_partial():
    # max() drops a NaN that is not in first place, so a d1 that is NaN
    # everywhere once read as a pass at the size of d2's gap
    H = discretize_right(make_sakamoto1d())
    bad = dataclasses.replace(H, d1=lambda q, p: np.array([math.nan]))
    res = check_partial_consistency(bad)
    assert res.status == "FAIL"
    assert math.isnan(res.measured)


def _nan_closed_form_vf(grid, gamma1):
    vf = run_closed_form_vf(grid, gamma1)
    vf.points = [_checked_point(pt.index, pt.q, np.array([math.nan])) for pt in vf.points]
    return vf


@pytest.mark.parametrize("name, measure, nan", [
    ("step-residuals", "verify_step", lambda *args: math.nan),
    ("symplecticity", "symplecticity_defect", lambda *args, **kwargs: math.nan),
    ("vf-agreement", "run_closed_form_vf", _nan_closed_form_vf),
    ("left-right-identity", "_left_right_gap", lambda *args: math.nan),
])
def test_a_nan_worst_fails_every_measured_probe(name, measure, nan, monkeypatch, capsys):
    # each probe's own measure reads NaN; worst <= limit is false for it
    monkeypatch.setattr(dhj.cli, measure, nan)
    assert main(["check", "--q1=0.05", "--steps=8"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [ln for ln in lines if ": FAIL " in ln]
    assert len(failed) == 1 and failed[0].startswith(f"CHECK {name}: FAIL (measured = nan; ")
    assert lines[-1] == "check: 5 passed, 1 failed, 0 skipped"


def _quadratic_2d(d1_error=(0.0, 0.0)):
    # H(q, p) = q.A q / 2 + q.B p + p.C p / 2, with d1 off by d1_error
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    B = np.array([[1.0, -0.3], [0.2, 0.7]])
    C = np.array([[-1.0, 0.1], [0.1, -0.5]])
    return DiscreteHamiltonian(
        side=Side.RIGHT,
        eval=lambda q, p: 0.5 * q @ A @ q + q @ B @ p + 0.5 * p @ C @ p,
        d1=lambda q, p: A @ q + B @ p + np.array(d1_error),
        d2=lambda q, p: B.T @ q + C @ p,
        dim=2,
    )


def test_partial_consistency_in_two_dimensions():
    H = _quadratic_2d()
    res = check_partial_consistency(H)
    assert res.status == "PASS"
    # the largest relative gap as numpy forms it, on the check's own draw
    want = 0.0
    for q, p in np.random.default_rng(0).uniform(-2.0, 2.0, (100, 2, 2)):
        for analytic, fd in ((H.d1(q, p), dhj.core.fd_gradient(lambda z: H.eval(z, p), q, 1e-6)),
                             (H.d2(q, p), dhj.core.fd_gradient(lambda z: H.eval(q, z), p, 1e-6))):
            want = max(want, float(np.abs(analytic - fd).max()) / max(1.0, float(np.abs(fd).max())))
    assert res.measured == want
    # a wrong second entry, or a NaN there, is not hidden behind a right first one
    res = check_partial_consistency(_quadratic_2d(d1_error=(0.0, 0.1)))
    assert res.status == "FAIL" and res.measured > 1e-3
    res = check_partial_consistency(_quadratic_2d(d1_error=(0.0, math.nan)))
    assert res.status == "FAIL" and math.isnan(res.measured)


def _numpy_gap(analytic, fd):
    with np.errstate(all="ignore"):
        return float(np.abs(analytic - fd).max()) / max(1.0, float(np.abs(fd).max()))


@pytest.mark.parametrize("a", [0.0, -0.0, 5e-324, 0.3, -1.7, 1e300, -1e300, math.inf,
                               -math.inf, math.nan])
@pytest.mark.parametrize("b", [0.0, -0.0, 5e-324, 0.3, -1.7, 1e300, -1e300])
def test_a_one_entry_relative_gap_is_numpys_bit_for_bit(a, b):
    # read as two floats: the NaN rule and the max(1, |fd|) scale kept
    got = dhj.cli._relative_gap(np.array([a]), np.array([b]))
    want = _numpy_gap(np.array([a]), np.array([b]))
    assert (math.isnan(got) and math.isnan(want)) or got.hex() == want.hex()


def test_partial_consistency_of_one_entry_is_numpys_worst_gap():
    H = discretize_right(make_sakamoto1d())
    want = 0.0
    for q, p in np.random.default_rng(0).uniform(-2.0, 2.0, (100, 2, 1)):
        for analytic, fd in ((H.d1(q, p), dhj.core.fd_gradient(lambda z: H.eval(z, p), q, 1e-6)),
                             (H.d2(q, p), dhj.core.fd_gradient(lambda z: H.eval(q, z), p, 1e-6))):
            want = max(want, _numpy_gap(analytic, fd))
    assert check_partial_consistency(H).measured.hex() == want.hex()


def test_svg_deterministic_and_well_formed(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert main(["simulate", "--svg", str(a)]) == 0
    assert main(["simulate", "--svg", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    root = ET.parse(str(a)).getroot()
    assert root.tag.endswith("svg")
    assert root.get("width") == "800" and root.get("height") == "600"
    ns = {"s": "http://www.w3.org/2000/svg"}
    assert root.findall(".//s:polyline", ns)
    assert "log10 " not in a.read_text(encoding="utf-8")


def test_svg_log_axis_labelled(tmp_path):
    out = tmp_path / "log.svg"
    assert main(["simulate", "--log-abs", "--svg", str(out)]) == 0
    assert "log10 " in out.read_text(encoding="utf-8")


def test_closed_form_method_requires_unit_weights(tmp_path, capsys):
    # the weights fix the method: the closed form at r = s = 1, Newton at any other
    out = tmp_path / "run.csv"
    for weights, method in (([], "closed-form"), (["--r=1.0", "--s=1"], "closed-form"),
                            (["--r=2"], "generic"), (["--s=0.5"], "generic")):
        assert main(["hj-vf", *weights, "--steps=2", "--csv", str(out)]) == 0
        assert read_csv(out)[0]["method"] == method
        assert f"hj-vf: method={method} points=3 truncated=no" in capsys.readouterr().out


def test_minus_branch_truncates_with_partial_csv(tmp_path, capsys):
    out = tmp_path / "minus.csv"
    assert main(["hj-flow", "--branch", "minus", "--csv", str(out)]) == 1
    _, _, rows, _ = read_csv(out)
    assert len(rows) == 2
    assert capsys.readouterr().err.startswith("flow failure at j = 2: BranchError: no real branch")


@pytest.mark.parametrize("command", ["simulate", "hj-flow", "hj-vf", "compare"])
def test_truncated_run_names_each_failed_part_on_stderr(command, capsys):
    # the trajectory from q1 = 0.01 escapes and stops at j = 32
    assert main([command, "--q1", "0.01", "--steps", "40"]) == 1
    out, err = capsys.readouterr()
    assert f"{command}: " in out and "truncated=yes" in out
    lines = err.splitlines()
    assert lines[0].startswith("trajectory failure at j = 32: ConvergenceError: "
                               "no convergence after 50 iterations")
    for line in lines:
        assert re.fullmatch(r"(trajectory|flow|vf) failure at j = \d+: [A-Za-z]+Error: .+", line)


@pytest.mark.parametrize("command", ["hj-vf", "compare"])
@pytest.mark.parametrize("weights", [["--r=2"], ["--s=2"], ["--r=0.5", "--s=3"]])
def test_trajectory_stopped_at_its_first_step_gives_one_row(command, weights, tmp_path, capsys):
    # from 1/sqrt(3) the first step is singular, so the slope grid has one
    # position: the generic slope solver returns its seed row
    out = tmp_path / "one.csv"
    argv = [command, "--q1=0.5773502691896258", *weights, "--csv", str(out)]
    assert main(argv) == 1
    _, _, rows, _ = read_csv(out)
    assert len(rows) == 1 and rows[0][0] == "1"
    assert "SingularJacobianError" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hj-vf", "compare"])
def test_zero_grid_truncates_the_generic_slope_solver(command, tmp_path, capsys):
    # q1 = 0 is a fixed point, so every grid entry is zero and the first slope
    # quotient gamma / q_next is undefined
    out = tmp_path / "zero.csv"
    assert main([command, "--q1=0", "--r=2", "--csv", str(out)]) == 1
    _, _, rows, _ = read_csv(out)
    assert len(rows) == 1 and rows[0][0] == "1"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("vf failure at j = 1: DegenerateGridError: q_sequence entry j = 2")


@pytest.mark.parametrize("weights", [["--s=2"], ["--r=2"]])
@pytest.mark.parametrize("command", ["hj-vf", "compare"])
def test_overflowing_slope_quotient_truncates_the_generic_slope_solver(command, weights):
    # from the subnormal q1 = 1e-310 the next grid entry is just as small (the
    # step's seed p2 = p1 = 0 already meets TOL, so q2 = q1 - q1^3 = q1 at any
    # weights), and gamma / q_next = 1 / 1e-310 overflows before Newton runs
    run = subprocess.run([sys.executable, "-m", "dhj.cli", command, "--q1=1e-310",
                          "--gamma1=1", "--steps=3", *weights], capture_output=True, text=True)
    assert run.returncode == 1
    assert "RuntimeWarning" not in run.stderr
    assert run.stderr.splitlines() == [
        "vf failure at j = 1: DegenerateGridError: q_sequence entry j = 2 is 1.000000e-310: "
        "the slope quotient gamma / q_next = 1.000000e+00 / 1.000000e-310 overflows"]


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "dhj.cli", *argv], capture_output=True, text=True)


@pytest.mark.parametrize("command, label", [
    (["simulate"], "trajectory"), (["compare"], "trajectory"), (["hj-flow", "--r=2"], "flow")])
def test_non_finite_step_output_truncates_the_run(command, label, tmp_path):
    # from q1 = 1e103 the step's Newton solve converges, then D2 H+ = q - q^3 - p
    # overflows: the run keeps its first row instead of ending in a traceback
    run = _cli(*command, "--q1=1e103", "--steps=2", "--csv", str(tmp_path / "out.csv"),
               "--svg", str(tmp_path / "out.svg"))
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines()[-1] == (f"{label} failure at j = 1: NumericalError: "
                                           "D2 H+ contains non-finite entries: [-inf]")
    _, _, rows, _ = read_csv(tmp_path / "out.csv")
    assert [row[:2] for row in rows] == [["1", "1e+103"]]
    ET.parse(tmp_path / "out.svg")


def test_non_finite_step_output_fails_the_check_that_needs_the_orbit():
    # the probes of a one-point orbit measure nothing: each says why, and the
    # ones with nothing to compare SKIP rather than pass vacuously
    run = _cli("check", "--q1=1e103", "--steps=2")
    assert run.returncode == 1
    assert run.stderr == ""
    why = "orbit truncated at j = 1: NumericalError: D2 H+ contains non-finite entries: [-inf]"
    lines = run.stdout.splitlines()
    assert lines[1:5] == [
        f"CHECK step-residuals: SKIP (measured = n/a; no transition to measure; {why})",
        f"CHECK symplecticity: SKIP (measured = n/a; no point with |q| < 0.9 to measure; {why})",
        "CHECK flow-residuals: FAIL (measured = 0.000000e+00; sequence truncated: "
        "D2 H+ contains non-finite entries: [-inf])",
        "CHECK vf-agreement: FAIL (measured = 0.000000e+00; max |generic - closed form| "
        f"over 1 rows, limit 1e-9; {why})"]
    assert lines[-1] == "check: 2 passed, 2 failed, 2 skipped"


def test_a_tripped_flow_recheck_reports_the_residual_it_rejected(capsys):
    # from p1 = 1e300 the first transition's p_next q_next and H+ overflow, so
    # its residual is NaN: the lift's re-check rejects it, and the probe
    # measures that NaN, not the maximum over no accepted transition (0)
    assert main(["check", "--q1=0.01", "--p1=1e300", "--steps=3"]) == 1
    line, = [ln for ln in capsys.readouterr().out.splitlines() if "flow-residuals" in ln]
    assert line == ("CHECK flow-residuals: FAIL (measured = nan; sequence truncated: "
                    "transition residual nan is not at most inf)")


@pytest.mark.parametrize("command", ["simulate", "hj-flow", "hj-vf", "compare", "check"])
def test_an_overflowing_orbit_prints_no_numpy_warning(command, tmp_path):
    csv = [] if command == "check" else ["--csv", str(tmp_path / "out.csv")]
    run = _cli(command, "--q1=1e103", "--steps=2", *csv)
    assert run.returncode == 1
    assert "Warning" not in run.stderr


@pytest.mark.parametrize("argv, rows, failures", [
    # D1 H+ = (1 - 3 q^2) p + q reads -inf * 0 once 3 q^2 overflows
    (["simulate", "--q1=8e153", "--steps=2"], [["1", "8e+153", "0", "8e+153", "0"]],
     ["trajectory failure at j = 1: NumericalError: non-finite residual evaluation at x = [0.]"]),
    # the lift's p_next q_next and H+'s p_next . Gamma overflow at p_next = 1e300,
    # so S_2 and the transition's residual are NaN: the lift rejects it; the
    # orbit it lifts stops one step later
    (["hj-flow", "--q1=1e-320", "--steps=3", "--p1=1e300", "--r=2"],
     [["1", "9.9998886718268301e-321", "0", "1.0000000000000001e+300", "init", "0"]],
     ["trajectory failure at j = 2: NumericalError: non-finite residual evaluation at "
      "x = [1.e+300]",
      "flow failure at j = 1: ResidualCheckFailure: transition residual nan is not at most inf"]),
    # the row re-check multiplies D2 H+ = 0 by gamma_1 / q_2 = 1e300 / 1e-320 = inf:
    # the NaN row is kept and flagged, after the closed form's own truncation
    (["hj-vf", "--q1=1e-320", "--steps=3", "--gamma1=1e300"],
     [["1", "9.9998886718268301e-321", "1.0000000000000001e+300", "0"],
      ["2", "9.9998886718268301e-321", "9.9998886718268301e-321", "nan"]],
     ["vf failure at j = 2: SingularDenominatorError: singular denominator 1.999978e-320 "
      "(threshold 1e-14 * scale, scale = 1.000000e+00)",
      "residual failure at j = 2: ResidualCheckFailure: residual nan is not finite: "
      "quotient gamma_1 / q_2 = 1e+300 / 1e-320"]),
], ids=["simulate", "hj-flow", "hj-vf"])
def test_an_extreme_product_prints_no_numpy_warning(argv, rows, failures, tmp_path, capsys):
    # in process, so pytest's error::RuntimeWarning filter fails the run on a warning
    assert main([*argv, "--csv", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == failures
    assert read_csv(tmp_path / "out.csv")[2] == rows


@pytest.mark.parametrize("argv, quotient, rows", [
    # gamma_1 / q_2 = 1e300 / 1e-13 overflows
    (["--q1=1e-13", "--gamma1=1e300"], "1e+300 / 1e-13",
     [["1", "1e-13", "1.0000000000000001e+300", "0"], ["2", "1e-13", "1e-13", "nan"],
      ["3", "1e-13", "-0", "0"], ["4", "1e-13", "-1e-13", "0"]]),
    # q_2 = 0, where the closed form's denominator is gamma_1 = 5
    (["--q1=0.01", "--q2=0", "--gamma1=5"], "5.0 / 0.0",
     [["1", "0.01", "5", "0"], ["2", "0", "0.0099990000000000009", "nan"],
      ["3", "0.050035056782890636", "-0", "0"],
      ["4", "0.13059187316939941", "-0.050413689845134987", "6.9388939039072284e-18"]]),
], ids=["overflow", "zero"])
def test_an_unformed_vf_residual_is_flagged_and_its_row_kept(argv, quotient, rows, tmp_path,
                                                              capsys):
    # row 2 has no residual; the slope run itself goes on to the end
    out = tmp_path / "out.csv"
    assert main(["hj-vf", *argv, "--steps=3", "--csv", str(out)]) == 1
    streams = capsys.readouterr()
    assert "hj-vf: method=closed-form points=4 truncated=no" in streams.out.splitlines()
    assert streams.err.splitlines() == [
        "residual failure at j = 2: ResidualCheckFailure: residual nan is not finite: "
        f"quotient gamma_1 / q_2 = {quotient}"]
    assert read_csv(out)[2] == rows


_DS_OVERFLOW = "flow failure at j = 1: BranchError: no real branch: discriminant = inf is not finite"
_GAMMA_OVERFLOW = "vf failure at j = 1: NumericalError: gamma_next = -inf is not finite"


@pytest.mark.parametrize("argv, failure, rows", [
    # the orbit leaves q = 2 with p = 1e300, so q_next^2 in the slope
    # discriminant overflows, where Python's ** raises OverflowError
    (["hj-flow", "--q1=2", "--p1=1e300"], _DS_OVERFLOW, 1),
    (["compare", "--q1=2", "--p1=1e300"], _DS_OVERFLOW, 1),
    # a second grid entry of 1e300 overflows q_j^2 in both closed forms
    (["hj-flow", "--q1=0.01", "--q2=1e300"], _DS_OVERFLOW, 1),
    (["hj-vf", "--q1=0.01", "--q2=1e300"],
     "vf failure at j = 2: NumericalError: gamma_next = nan is not finite", 2),
    # gamma_j q_j^2 = 1e300 * 1e10 overflows, so gamma_next is -inf
    (["hj-vf", "--q1=1e5", "--gamma1=1e300"], _GAMMA_OVERFLOW, 1),
    (["compare", "--q1=1e5", "--gamma1=1e300"], _GAMMA_OVERFLOW, 1),
], ids=["hj-flow-p1", "compare-p1", "hj-flow-q2", "hj-vf-q2", "hj-vf-gamma1", "compare-gamma1"])
def test_an_overflowing_closed_form_truncates_and_keeps_its_rows(argv, failure, rows, tmp_path,
                                                                  capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--steps=3", "--csv", str(out)]) == 1
    assert failure in capsys.readouterr().err.splitlines()
    assert [row[0] for row in read_csv(out)[2]] == [str(j) for j in range(1, rows + 1)]


@pytest.mark.parametrize("start, product", [
    # at s / r = 1 the exact map takes q1 = 1e-5 to q_next = q1 - q1^3 + q1 / (1 - 3 q1^2),
    # 2e-5 to 6 digits; gamma_j / q_next = 1e300 / 2e-5 is finite, but
    # D2 H+ = q - q^3 - g / r = -5e299 at g = 1e300 times it is not
    (["--q1=1e-5", "--gamma1=1e300", "--r=2", "--s=2"],
     "D2 H+ * gamma_j / q_next = -5.000000e+299 * 5.000000e+304 overflows at g = 1.000000e+300"),
    # the residual's product is finite, but the Jacobian's d22 = -1/r is larger
    (["--q1=1e-303", "--gamma1=1e-3", "--r=1e-10"],
     "D22 H+ * gamma_j / q_next = -1.000000e+10 * 1.000000e+300 overflows at g = 1.000000e-03"),
], ids=["residual", "jacobian"])
@pytest.mark.parametrize("command", ["hj-vf", "compare"])
def test_overflowing_slope_product_truncates_the_generic_slope_solver(command, start, product,
                                                                       tmp_path):
    run = _cli(command, *start, "--steps=3",
               "--csv", str(tmp_path / "out.csv"), "--svg", str(tmp_path / "out.svg"))
    assert run.returncode == 1
    assert run.stderr.splitlines() == [
        f"vf failure at j = 1: NumericalError: slope product {product}"]
    _, _, rows, _ = read_csv(tmp_path / "out.csv")
    assert len(rows) == 1 and rows[0][0] == "1"


def test_a_raising_probe_fails_alone_and_the_battery_goes_on(capsys):
    # symplecticity_defect steps from the singular start 1/sqrt(3) and raises
    assert main(["check", "--q1=0.5773502691896258"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [re.match(r"(CHECK|INFO) ([a-z-]+): ", line).group(2) for line in lines[:-1]] == [
        "partial-consistency", "step-residuals", "symplecticity", "flow-residuals",
        "vf-agreement", "left-right-identity", "singular-start"]
    assert lines[2].startswith("CHECK symplecticity: FAIL (measured = n/a; raised "
                               "SingularJacobianError: singular Jacobian")
    # the orbit stops at its start, so step-residuals has no transition to measure
    assert lines[1].startswith("CHECK step-residuals: SKIP (measured = n/a; no transition to "
                               "measure; orbit truncated at j = 1: SingularJacobianError: ")
    assert lines[-1] == "check: 2 passed, 3 failed, 1 skipped"


@pytest.mark.parametrize("q1, causes", [
    ("1e-13", ["closed form truncated at j = 2: SingularDenominatorError: "]),
    ("0", ["generic truncated at j = 1: DegenerateGridError: q_sequence entry j = 2",
           "closed form truncated at j = 1: SingularDenominatorError: "]),
])
def test_vf_agreement_names_each_truncated_side(q1, causes, capsys):
    assert main(["check", f"--q1={q1}", "--steps=8"]) == 1
    line, = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("CHECK vf-agreement: ")]
    assert line.startswith("CHECK vf-agreement: FAIL (measured = ")
    assert [cause in line for cause in causes] == [True] * len(causes)
    assert line.count(" truncated at j = ") == len(causes)


def test_negative_float_with_exponent_is_a_separate_value(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["simulate", "--q1", "-3.2e-05", "--steps", "2", "--csv", str(out)]) == 0
    assert "# q1 = -3.1999999999999999e-05" in out.read_text(encoding="utf-8").splitlines()

    out = tmp_path / "all.csv"
    # compare reads every float flag on the closed form (the generic one reads
    # no --ds1); the flow has no real root from this slope, so it exits 1, and
    # the header still records each value
    rcode = main(["compare", "--q1", "-1e-7", "--p1", "-2E-8", "--q2", "-.25e-6",
                  "--ds1", "-1e-9", "--gamma1", "-3.5e-9", "--steps", "2", "--csv", str(out)])
    assert rcode == 1
    header, _, _, _ = read_csv(out)
    assert [header[k] for k in ("q1", "p1", "q2", "ds1", "gamma1")] == [
        format(v, ".17g") for v in (-1e-7, -2e-8, -0.25e-6, -1e-9, -3.5e-9)]


def test_negative_weight_or_scale_is_read_then_rejected(capsys):
    for flag in ("--r", "--s", "--h"):
        assert main(["compare", flag, "-1e-3"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "expected one argument" not in err


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--q1=nan"),
    ("hj-vf", "--gamma1=nan"),
    ("hj-flow", "--ds1=inf"),
    ("compare", "--q2=nan"),
    ("compare", "--r=inf"),
    ("compare", "--s=inf"),
    ("compare", "--h=inf"),
])
def test_non_finite_float_setting_is_a_config_error(command, flag, capsys):
    assert main([command, flag, "--steps", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "must be finite" in err


def test_non_finite_float_in_config_file_is_a_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("q1 = inf\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfgfile), "--steps", "2"]) == 2
    assert "config error: q1 must be finite" in capsys.readouterr().err


def _assert_names_the_command(err: str, command: str, flags: list[str]) -> None:
    """err is argparse's report of flags that command does not read: the
    command's own usage line and an error that carries its name."""
    assert err.startswith(f"usage: dhj {command} [-h] [--config FILE] ")
    assert err.endswith(f"\ndhj {command}: error: unrecognized arguments: {' '.join(flags)}\n")


def _unread_exit(argv: list[str], capsys) -> str:
    """Run argv, whose last flags the command does not read: argparse exits 2
    before anything runs, with no traceback; its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err


def taken_flags() -> dict:
    """Each subcommand's flags as the parser has them, without --help."""
    parser = dhj.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {command: {flag for action in sp._actions for flag in action.option_strings}
            - {"-h", "--help"} for command, sp in sub.choices.items()}


def test_each_command_takes_the_flags_it_reads():
    assert taken_flags() == READS
    assert len(UNREAD) == 26


@pytest.mark.parametrize("command, flag", UNREAD)
def test_an_unread_flag_is_rejected(command, flag, capsys):
    given = [flag] if flag == "--log-abs" else [flag, "1"]
    err = _unread_exit([command, "--steps=2", *given], capsys)
    _assert_names_the_command(err, command, given)


# a value compare accepts for each unread key it reads, none for the optional ones,
# and the removed keys' old defaults
_KEY_VALUES = {"q2": "none", "csv": "none", "svg": "none", "ds1": "0", "gamma1": "0",
               "h": "1e-4", "branch": "continuity", "log_abs": "true", "method": "auto",
               "model": "sakamoto1d"}


@pytest.mark.parametrize("command, flag", UNREAD)
def test_an_unread_config_key_is_rejected(command, flag, tmp_path, capsys):
    key = flag[2:].replace("-", "_")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"steps = 2\n{key} = {_KEY_VALUES[key]}\n", encoding="utf-8")
    assert main([command, "--config", str(cfgfile)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: {cfgfile}:2: {command} reads no key {key!r}\n"
    # compare reads every key but the removed ones, and the value is one it takes
    assert main(["compare", "--config", str(cfgfile)]) == (2 if flag in REMOVED else 0)


def test_no_command_reads_a_solver_setting(tmp_path, capsys):
    # Newton's settings are constants of dhj.core: no config key sets one
    cfgfile = tmp_path / "run.cfg"
    for key, value in zip(SOLVER_KEYS, ("1e-12", "50", "1", "1e-7")):
        cfgfile.write_text(f"steps = 2\n{key} = {value}\n", encoding="utf-8")
        for command in READS:
            assert main([command, "--config", str(cfgfile)]) == 2
            assert capsys.readouterr() == (
                "", f"config error: {cfgfile}:2: {command} reads no key {key!r}\n")
        # and no command takes one as a flag
        _unread_exit(["compare", f"--{key.replace('_', '-')}=1"], capsys)


@pytest.mark.parametrize("argv", [["simulate", "--h", "0.5"], ["simulate", "--gam=3"],
                                  ["compare", "--gam=3"], ["hj-vf", "--log"]])
def test_a_flag_is_spelled_in_full(argv, capsys):
    # with abbreviations, simulate's --h would be --help: usage on stdout, exit 0
    err = _unread_exit(argv, capsys)
    _assert_names_the_command(err, argv[0], argv[1:])


def test_an_unread_flag_exits_2_from_the_shell():
    for argv in (["simulate", "--h", "0.5"], ["check", "--log-abs"]):
        run = subprocess.run([sys.executable, "-m", "dhj.cli", *argv],
                             capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (2, "")
        assert "Traceback" not in run.stderr and "unrecognized arguments" in run.stderr


@pytest.mark.parametrize("flags, config", [
    (["--csv", "c.csv"], ""), (["--svg", "c.svg"], ""), (["--csv", "c.csv", "--svg", "c.svg"], ""),
    ([], "csv = c.csv\n"), ([], "svg = c.svg\n")])
def test_check_rejects_an_output_file(flags, config, tmp_path, monkeypatch, capsys):
    # check prints its report and writes no file, so it reads no --csv or --svg
    monkeypatch.chdir(tmp_path)
    if config:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        assert main(["check", "--steps=3", "--config", "run.cfg"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: run.cfg:1: check reads no key {config[:3]!r}\n"
    else:
        err = _unread_exit(["check", "--steps=3", *flags], capsys)
        _assert_names_the_command(err, "check", flags)
    assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if config else [])
    # nor may a config file name them to say none
    (tmp_path / "run.cfg").write_text("csv = none\nsvg = none\n", encoding="utf-8")
    assert main(["check", "--steps=3", "--config", "run.cfg"]) == 2
    assert capsys.readouterr().err == "config error: run.cfg:1: check reads no key 'csv'\n"


@pytest.mark.parametrize("flags", [["--csv", ""], ["--svg", ""], ["--csv", "", "--svg", ""]])
def test_an_empty_output_path_is_a_config_error(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--steps", "2", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: cannot write '': [Errno ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, target", [("--csv", "missing/x.csv"), ("--svg", ".")])
def test_an_unwritable_output_file_is_a_config_error(flag, target, tmp_path, capsys):
    # a missing directory, or a directory where the file should be
    path = str(tmp_path / target)
    assert main(["simulate", "--steps", "2", flag, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: cannot write {path!r}: [Errno ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("bad", ["missing/y.svg", ""])
@pytest.mark.parametrize("svg_first", [False, True])
def test_no_file_is_written_when_one_output_path_cannot_be(bad, svg_first, tmp_path,
                                                           monkeypatch, capsys):
    # the paths are checked before the run, so the good one is not written
    # either, whichever flag comes first
    monkeypatch.chdir(tmp_path)
    flags = [["--csv", "x.csv"], ["--svg", bad]]
    argv = ["simulate", "--steps", "2", *flags[svg_first], *flags[not svg_first]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: cannot write {bad!r}: [Errno 2] ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("csv, svg", [("x.out", "x.out"), ("./x.out", "x.out"),
                                      ("sub/../x.out", "x.out")])
def test_csv_and_svg_naming_one_file_is_a_config_error(csv, svg, tmp_path, monkeypatch, capsys):
    # one file would hold only the SVG, the CSV silently overwritten
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(["simulate", "--steps", "2", "--csv", csv, "--svg", svg]) == 2
    assert capsys.readouterr() == (
        "", f"config error: --csv and --svg name one file: {csv!r} and {svg!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


def _symlink_to_existing(tmp_path):
    (tmp_path / "a.out").write_text("kept\n", encoding="utf-8")
    (tmp_path / "link.out").symlink_to("a.out")
    return "a.out", "link.out"


def _symlink_to_missing(tmp_path):
    (tmp_path / "link.out").symlink_to("a.out")
    return "a.out", "link.out"


def _hard_link(tmp_path):
    (tmp_path / "a.out").write_text("kept\n", encoding="utf-8")
    (tmp_path / "hard.out").hardlink_to(tmp_path / "a.out")
    return "a.out", "hard.out"


def _symlinked_directory(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "dirlink").symlink_to("sub")
    return "sub/a.out", "dirlink/a.out"


@pytest.mark.parametrize("make", [_symlink_to_existing, _symlink_to_missing, _hard_link,
                                  _symlinked_directory])
@pytest.mark.parametrize("swap", [False, True])
def test_csv_and_svg_reaching_one_file_through_a_link_is_a_config_error(make, swap, tmp_path,
                                                                        monkeypatch, capsys):
    # the file would hold only the SVG; refused before the run, nothing written
    monkeypatch.chdir(tmp_path)
    csv, svg = make(tmp_path)[::-1 if swap else 1]
    before = {p: (p.is_symlink(), p.read_bytes() if p.is_file() else None)
              for p in tmp_path.rglob("*")}
    calls = []
    monkeypatch.setattr(dhj.cli, "run_trajectory", lambda *args: calls.append(args))
    assert main(["simulate", "--steps", "2", "--csv", csv, "--svg", svg]) == 2
    assert capsys.readouterr() == (
        "", f"config error: --csv and --svg name one file: {csv!r} and {svg!r}\n")
    assert calls == []
    assert {p: (p.is_symlink(), p.read_bytes() if p.is_file() else None)
            for p in tmp_path.rglob("*")} == before


def test_a_symlink_into_a_missing_directory_is_refused_before_the_run(tmp_path, monkeypatch,
                                                                      capsys):
    # its target's directory is missing, so its write would fail: refused
    # with open's error before any step, and nothing is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.out").symlink_to("missing/a.out")
    calls = []
    monkeypatch.setattr(dhj.cli, "run_trajectory", lambda *args: calls.append(args))
    assert main(["simulate", "--steps", "2", "--csv", "a.out", "--svg", "link.out"]) == 2
    assert capsys.readouterr() == (
        "", f"config error: cannot write 'link.out': [Errno {errno.ENOENT}] "
            f"No such file or directory: 'link.out'\n")
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.out"]


def test_distinct_outputs_beside_links_are_written(tmp_path, monkeypatch, capsys):
    # a link to another file, and one name in two directories, are two files
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.out").symlink_to("b.out")
    for csv, svg in (("a.out", "link.out"), ("a.out", "sub/a.out")):
        assert main(["simulate", "--steps", "2", "--csv", csv, "--svg", svg]) == 0
        assert (tmp_path / csv).read_text(encoding="utf-8").startswith("# command = simulate")
        assert (tmp_path / svg).read_text(encoding="utf-8").startswith("<svg ")
    capsys.readouterr()


@pytest.mark.parametrize("long_flag", ["--csv", "--svg"])
def test_an_output_that_cannot_be_written_leaves_neither_file(long_flag, tmp_path, monkeypatch,
                                                              capsys):
    # a 300-character name passes the checks made before the run and fails
    # at open; the CSV, written first, is removed again
    monkeypatch.chdir(tmp_path)
    paths = {"--csv": "y.csv", "--svg": "y.svg"}
    paths[long_flag] = "A" * 300 + long_flag.replace("--", ".")
    argv = ["simulate", "--steps", "2", "--csv", paths["--csv"], "--svg", paths["--svg"]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: cannot write {paths[long_flag]!r}: "
                          f"[Errno {errno.ENAMETOOLONG}] ")
    assert list(tmp_path.iterdir()) == []


def test_an_unknown_option_before_the_command_gets_the_root_usage(capsys):
    err = _unread_exit(["--foo", "simulate", "--steps=2"], capsys)
    assert err.startswith("usage: dhj [-h] {simulate,hj-flow,hj-vf,compare,check} ...\n")
    assert err.endswith("\ndhj: error: unrecognized arguments: --foo\n")


def test_an_unknown_option_after_the_command_gets_the_command_usage(capsys):
    err = _unread_exit(["simulate", "--steps=2", "--foo"], capsys)
    _assert_names_the_command(err, "simulate", ["--foo"])
