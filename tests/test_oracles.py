"""Reference computations the tests check the toolkit against, and tests of
the references themselves.

An oracle here shares no solver with dhj, so agreement with it is evidence,
not a tautology.  Other test modules import the oracles from here, the
benchmark's exact maps among them (`bench_oracles`).
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from dhj.core import NumericalError, PhasePoint

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str):
    """bench/NAME.py, loaded by path as the module bench_NAME.

    A distinct name keeps it from shadowing the benchmark's own `import
    oracles` when one pytest run collects tests/ and bench/.  The module is
    registered before it runs: a @dataclass looks its module up by name."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# the benchmark's exact rational step map and slope update, and its mpmath checks
bench_oracles = load_bench("oracles")


def rk4_reference(ham_field, x0: PhasePoint, dt: float, steps: int) -> list[PhasePoint]:
    """Classic fixed-step RK4 on a phase-space vector field, as a reference orbit.

    ham_field maps the stacked state (q, p) of length 2n to its time
    derivative of length 2n.  Returns steps + 1 points starting at x0 with
    consecutive indices.  Used as an independent continuous-time oracle to
    compare discrete trajectories against; not an integrator meant for
    production accuracy tuning.
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if int(steps) != steps or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    n = x0.dim
    y = np.concatenate([x0.q, x0.p])

    def _field(z: np.ndarray) -> np.ndarray:
        f = np.atleast_1d(np.asarray(ham_field(z), dtype=float))
        if f.ndim != 1 or f.size != 2 * n:
            raise ValueError(
                f"ham_field must return a vector of dimension {2 * n}, got shape {f.shape}"
            )
        if not np.isfinite(f).all():
            raise NumericalError("non-finite vector field evaluation")
        return f

    out = [x0]
    for k in range(int(steps)):
        k1 = _field(y)
        k2 = _field(y + 0.5 * dt * k1)
        k3 = _field(y + 0.5 * dt * k2)
        k4 = _field(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise NumericalError(f"non-finite state after RK4 step {k + 1}")
        out.append(PhasePoint(index=x0.index + k + 1, q=y[:n], p=y[n:]))
    return out


def test_rk4_zero_field_is_constant():
    pts = rk4_reference(lambda z: np.zeros(2), PhasePoint(index=1, q=[0.7], p=[-0.2]),
                        0.1, 10)
    assert len(pts) == 11
    assert [pt.index for pt in pts] == list(range(1, 12))
    for pt in pts:
        assert pt.q[0] == 0.7 and pt.p[0] == -0.2


def test_rk4_cubic_benchmark_field_one_step():
    # dq = q - q^3 - p, dp = (3q^2 - 1) p - q from (0.5, 0), dt = 1e-3
    def field(z):
        q, p = z
        return np.array([q - q ** 3 - p, (3.0 * q ** 2 - 1.0) * p - q])

    pts = rk4_reference(field, PhasePoint(index=1, q=[0.5], p=[0.0]), 1e-3, 1)
    assert abs(pts[1].q[0] - 0.5003752968710657) <= 1e-15
    assert abs(pts[1].p[0] - (-0.0005001252762228224)) <= 1e-15


def test_rk4_harmonic_circle():
    pts = rk4_reference(lambda z: np.array([z[1], -z[0]]),
                        PhasePoint(index=1, q=[1.0], p=[0.0]), 0.01, 628)
    err = math.hypot(pts[-1].q[0] - math.cos(6.28), pts[-1].p[0] + math.sin(6.28))
    assert err < 1e-6


def test_rk4_validation():
    x0 = PhasePoint(index=1, q=[0.0], p=[0.0])
    with pytest.raises(ValueError):
        rk4_reference(lambda z: np.zeros(2), x0, 0.0, 1)
    with pytest.raises(ValueError):
        rk4_reference(lambda z: np.zeros(2), x0, 0.1, 0)
    with pytest.raises(NumericalError):
        rk4_reference(lambda z: np.array([float("inf"), 0.0]), x0, 0.1, 1)
