"""What the benchmark harness reads from dhj, checked in the fast suite.

bench/tracing.py wraps dhj functions at the module attributes their callers
look up and reads the `meta` failure record of every run it traces.  A
rename of either breaks the benchmark; these tests make it fail here too.
So does a command that refuses an argv the CLI workloads build.
"""

import math
import sys

import numpy as np
import pytest

import dhj
import dhj.cli
import dhj.mechanics
from dhj.core import NumericalError, PhasePoint
from dhj.hj_flow import run_closed_form_flow, solve_generating_sequence
from dhj.hj_vf import run_closed_form_vf, solve_gamma_generic
from dhj.mechanics import DiscreteHamiltonian, Side, hamiltonian_from_lagrangian, run_trajectory
from dhj.optctrl import discretize_right, make_sakamoto1d
from test_mechanics import cubic_right, midpoint_pendulum
from test_oracles import bench_oracles, load_bench

_SINGULAR_Q = 1.0 / math.sqrt(3.0)


def test_tracer_installs_on_every_name_and_uninstalls(tmp_path):
    tracing = load_bench("tracing")
    patched = [(module, attr) for modules, attr in
               list(tracing.SPANS.values()) + list(tracing.COUNTS.values())
               for module in modules]
    originals = [getattr(module, attr) for module, attr in patched]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a) is not f for (m, a), f in zip(patched, originals))
        csv, svg = tmp_path / "run.csv", tmp_path / "run.svg"
        code = dhj.cli.main(["compare", f"--q1={_SINGULAR_Q!r}", "--csv", str(csv),
                             "--svg", str(svg)])
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is f for (m, a), f in zip(patched, originals))
    assert code == 1
    metrics = tracer.metrics(0.0)
    assert metrics["mechanics.run_trajectory.truncated.SingularJacobianError"] == 1
    assert metrics["cli.bytes_written"] == csv.stat().st_size + svg.stat().st_size
    # counted only if build_model looks up dhj.cli.discretize_right
    assert metrics["optctrl.H.d1.calls_per_step"] > 0


def test_traced_generic_compare_lifts_one_right_orbit(tmp_path):
    # the flow must be reached through dhj.cli.solve_generating_sequence and
    # the orbit stepped through the traced step_right and run_trajectory
    tracing = load_bench("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        code = dhj.cli.main(["compare", "--r=2", "--q1=0.01", "--steps=10",
                             "--csv", str(tmp_path / "run.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[3] for span in tracer.spans}
    assert {"hj_flow.solve_generating_sequence", "mechanics.run_trajectory",
            "hj_vf.solve_gamma_generic"} <= names
    metrics = tracer.metrics(0.0)
    assert metrics["mechanics.step_right.calls"] == 10
    assert metrics["core.fd_jacobian.calls_per_step"] == 0
    assert metrics["hj_flow.truncated"] == 0
    assert metrics["optctrl.H.d1.calls_per_step"] > 0


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_traced_lagrangian_dual_solves_through_the_traced_names(side):
    # the lagrangian workload's per-layer counts read core.newton_solve at
    # the mechanics attribute and core.fd_jacobian at the core attribute:
    # a step that solved or differenced another way would read 0
    tracing = load_bench("tracing")
    tracer = tracing.Tracer()
    H = hamiltonian_from_lagrangian(midpoint_pendulum(0.2, 1.3), side)
    tracer.install()
    try:
        tracer.begin_op()
        traj = dhj.mechanics.run_trajectory(H, PhasePoint(index=1, q=[0.7], p=[-0.2]), 8)
    finally:
        tracer.uninstall()
    assert len(traj) == 9
    assert tracer.counts[f"mechanics.step_{side.value}"] == 8
    assert tracer.counts["core.newton_solve"] == 8
    assert tracer.metrics(0.0)["core.fd_jacobian.calls_per_step"] > 0


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_reduced_hamiltonian_eliminates_through_the_traced_name(r):
    # bench/tracing.py counts optctrl.eliminate_control at the module
    # attribute: a partial that reached elimination another way would read 0
    tracing = load_bench("tracing")
    tracer = tracing.Tracer()
    H = discretize_right(make_sakamoto1d(r=r))
    tracer.install()
    try:
        H.d1(np.array([0.1]), np.array([-0.03]))
        first = tracer.counts["optctrl.eliminate_control"]
        H.d2(np.array([0.1]), np.array([-0.03]))   # the same (q, p): one elimination serves both
        second = tracer.counts["optctrl.eliminate_control"]
        H.d1(np.array([0.1]), np.array([0.02]))
        third = tracer.counts["optctrl.eliminate_control"]
    finally:
        tracer.uninstall()
    assert (first, second, third) == (1, 1, 2)
    assert tracer.counts["optctrl.secondary_constraint"] == 2


def _no_real_root():
    # d2 = 1, d1 = g^2 + 1: the slope equation has no real root
    return DiscreteHamiltonian(side=Side.RIGHT, eval=lambda q, p: 0.0,
                               d1=lambda q, p: np.array([float(p[0]) ** 2 + 1.0]),
                               d2=lambda q, p: np.array([1.0]), dim=1)


@pytest.mark.parametrize("run, failures", [
    (lambda: run_trajectory(cubic_right(), PhasePoint(index=1, q=[_SINGULAR_Q], p=[0.0]), 3),
     {"SingularJacobianError"}),
    (lambda: solve_generating_sequence(cubic_right(), run_trajectory(
        cubic_right(), PhasePoint(index=1, q=[_SINGULAR_Q], p=[0.0]), 3)),
     {"SingularJacobianError"}),
    (lambda: run_closed_form_flow([0.5, 0.9], -1e4, 1e-4), {"BranchError"}),
    (lambda: solve_gamma_generic(_no_real_root(), [0.5, 0.25], 0.0),
     {"ConvergenceError", "SingularJacobianError"}),
    (lambda: run_closed_form_vf([0.0, 0.0, 0.0], 0.0), {"SingularDenominatorError"}),
], ids=["run_trajectory", "solve_generating_sequence", "run_closed_form_flow",
        "solve_gamma_generic", "run_closed_form_vf"])
def test_truncated_runs_name_the_failure_class(run, failures):
    meta = run().meta
    assert meta["truncated"] is True
    assert meta["failure"] in failures
    assert issubclass(getattr(dhj, meta["failure"]), NumericalError)
    assert meta["failure_index"] == 1 and meta["failure_message"]


def _workloads():
    # bench/workloads.py imports the oracles by their bare name, as bench/run.py runs it
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "oracles", bench_oracles)
        return load_bench("workloads")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["portrait", "weights", "battery"])
def test_every_cli_workload_argv_is_accepted(name, seed, tmp_path):
    # parsed and resolved as main does, not run: a refusal exits 2, which the
    # benchmark's oracle counts as an incorrect output
    workloads = _workloads()
    workload = workloads.CliWorkload(name, seed, str(tmp_path))
    assert len(workload) == workloads.POOL[name]
    parser = dhj.cli.build_parser()
    for argv in workload.argv:
        ns, unread = parser.parse_known_args(dhj.cli._attach_negative_numbers(argv))
        assert unread == []
        assert dhj.cli.resolve_config(ns).command == argv[0]
