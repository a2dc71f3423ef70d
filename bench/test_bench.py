"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q bench

Each workload's first pass runs twice, traced: every count, row total,
truncation, verdict and the output digest must repeat exactly.
"""

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def first_pass(name, outdir):
    tracer = tracing.Tracer()
    result = run.measure(name, SEED, 0.0, tracer, str(outdir))
    counts = {k: v for k, v in tracer.metrics(0.0).items()
              if not k.endswith((".self_ms", ".us_p50")) and k != "trace.overhead_frac"}
    verdicts = {result.wl.describe(k): v.ok for k, (v, _) in result.first.items()}
    return counts, verdicts, result.digest(), result.repeatable


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_first_pass_repeats_exactly(name, tmp_path):
    counts, verdicts, digest, repeatable = first_pass(name, tmp_path)
    assert repeatable
    assert first_pass(name, tmp_path) == (counts, verdicts, digest, repeatable)
    steps = counts["mechanics.step_right.calls"] + counts["mechanics.step_left.calls"]
    assert steps > 0
    optctrl = [v for k, v in counts.items() if k.startswith("optctrl.")]
    if name == "lagrangian":
        assert not any(optctrl) and counts["mechanics.L.d1.calls_per_step"] > 0
    else:
        assert counts["optctrl.eliminate_control.calls_per_step"] > 0
        # the step map stalls where s |q1| <= 1e-12; nothing else fails today
        for desc, ok in verdicts.items():
            assert ok or abs(float(desc.split("--q1=")[1].split()[0])) <= 2.5e-12, desc


@pytest.mark.parametrize("name", ("portrait", "weights", "battery"))
def test_inputs_below_the_stall_threshold_do_not_depend_on_the_seed(name, tmp_path):
    def below(seed):
        wl = workloads.CliWorkload(name, seed, str(tmp_path))
        return sum(abs(p["q1"]) * p.get("s", 1.0) <= workloads.STALL for p in wl.params)

    counts = {below(seed) for seed in range(1, 21)}
    assert len(counts) == 1
    assert 0.15 < counts.pop() / workloads.POOL[name] < 0.3


def test_step_oracle_rejects_a_stalled_row():
    q, p = 1e-13, 0.0
    q_next, p_next = (float(v) for v in oracles.exact_step(q, p, 1.0, 1.0))
    assert oracles.step_error(q, p, q_next, p_next, 1.0, 1.0) < 1e-15
    assert oracles.step_error(q, p, q, p, 1.0, 1.0) == pytest.approx(0.5)


def test_gamma_oracle_is_the_closed_form_at_unit_weights():
    gamma, q, q_next = Fraction(0.3), Fraction(0.1), Fraction(0.25)
    closed = -(gamma * q**2 - gamma + q_next) * q / (gamma + q_next - 3 * q**2 * q_next)
    assert oracles.exact_gamma(0.3, 0.1, 0.25, 1.0, 1.0) == closed


def test_battery_oracle_needs_every_check_to_pass():
    passing = "CHECK step-residuals: PASS (measured = 1e-15; ...)\n"
    failing = "CHECK vf-agreement: FAIL (measured = 4e-13; ...)\n"
    assert oracles.check_battery(0, passing).ok
    assert not oracles.check_battery(1, passing + failing).ok
    assert not oracles.check_battery(0, "").ok


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "portrait", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
