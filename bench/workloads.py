"""The benchmark's seeded workloads.

A workload turns a seed into a fixed pool of inputs; the program sees only
those inputs.  One operation is one `dhj.cli.main([...])` call for the CLI
workloads and one `run_trajectory` orbit for `lagrangian`.  Inputs are made
with the standard library's `random`, so a seed gives the same inputs on
every platform.

Initial positions are drawn log-uniform in |q1| on [1e-15, 0.3] with either
sign, stratified.  The range of log10 |q1| is cut at the stall threshold
s |q1| = 1e-12 (Newton's absolute tolerance: below it the step map returns
its seed today), each side gets its proportional share of the inputs, and
within a side the k-th input falls in the k-th of equal slices.  Every run
of a workload thus covers the whole range in the same proportions, and the
number of inputs below the threshold, about a fifth, is the same for every
seed, so the figures of runs with different seeds are comparable.

Positions are passed as `--q1=VALUE`: `--q1 -3.2e-05` (a negative float
with an exponent, as a separate word) is rejected by the CLI's argument
parser with exit 2, "expected one argument".
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, replace

import numpy as np

import dhj.cli
from dhj import mechanics
from dhj.core import PhasePoint
from dhj.mechanics import DiscreteLagrangian, Side, hamiltonian_from_lagrangian

import oracles

Q1_LOG10 = (-15.0, math.log10(0.3))
# s |q1| at and below which the step map stalls today; the strata meet here.
STALL = 1e-12
COMPARE_STEPS = 24
H_SLOPE = 1e-4
# Non-unit (r, s) of the weights workload; each appears equally often.
WEIGHT_SET = ((2.0, 1.0), (0.5, 1.0), (1.0, 2.0), (1.0, 0.5), (2.0, 0.5), (0.5, 2.0))
# A cap on check's steps, which keeps one check near 0.2 s.
BATTERY_MAX_STEPS = 8
LAGRANGIAN_STEPS = 32
# Inputs per seed.  Every run makes at least one full pass over them, which
# takes 5 to 15 s on a 2-vCPU x86-64 machine.
POOL = {"portrait": 128, "weights": 96, "battery": 64, "lagrangian": 96}


def q1_pool(rng: random.Random, n: int, s: float = 1.0) -> list[float]:
    """n positions, log-uniform in |q1| on Q1_LOG10, stratified at s |q1| = STALL."""
    lo, hi = Q1_LOG10
    cut = math.log10(STALL / s)
    n_low = round(n * (cut - lo) / (hi - lo))
    return [rng.choice((-1.0, 1.0)) * 10.0 ** (a + (b - a) * (k + rng.random()) / m)
            for a, b, m in ((lo, cut, n_low), (cut, hi, n - n_low)) for k in range(m)]


@dataclass(frozen=True)
class Pendulum:
    """Midpoint pendulum L_d(a, b) = h [((b - a)/h)^2 / 2 - w2 (1 - cos((a + b)/2))]
    and the start of one orbit."""

    h: float
    w2: float
    q0: float
    p0: float
    side: Side

    def lagrangian(self) -> DiscreteLagrangian:
        h, w2 = self.h, self.w2

        def eval_(a, b):
            v = (b[0] - a[0]) / h
            return h * (0.5 * v * v - w2 * (1.0 - math.cos(0.5 * (a[0] + b[0]))))

        def d1(a, b):
            return np.array([-(b[0] - a[0]) / h - 0.5 * h * w2 * math.sin(0.5 * (a[0] + b[0]))])

        def d2(a, b):
            return np.array([(b[0] - a[0]) / h - 0.5 * h * w2 * math.sin(0.5 * (a[0] + b[0]))])

        return DiscreteLagrangian(eval=eval_, d1=d1, d2=d2, dim=1)


def pendulum_pool(seed: int) -> list[Pendulum]:
    """Bounded librations: |q0| <= 1.2 and |p0| <= 0.5 keep the energy below
    the separatrix for w2 >= 0.5; sides alternate so both duals run equally."""
    rng = random.Random(seed)
    n = POOL["lagrangian"]
    return [Pendulum(h=10.0 ** rng.uniform(-1.0, math.log10(0.3)), w2=rng.uniform(0.5, 2.0),
                     q0=rng.uniform(-1.2, 1.2), p0=rng.uniform(-0.5, 0.5),
                     side=Side.RIGHT if k % 2 == 0 else Side.LEFT)
            for k in range(n)]


def build_models(name: str, seed: int, wrap=None):
    """The workload's model objects: what `build_model` makes for each (r, s)
    the CLI workload runs, or both Legendre duals of each seeded pendulum.
    wrap(label, fn), if given, wraps the pendulum's slot partials."""
    if name == "lagrangian":
        models = []
        for pend in pendulum_pool(seed):
            L = pend.lagrangian()
            if wrap is not None:
                L = replace(L, d1=wrap("mechanics.L.d1", L.d1), d2=wrap("mechanics.L.d2", L.d2))
            models.append(hamiltonian_from_lagrangian(L, pend.side))
        return models
    weights = WEIGHT_SET if name == "weights" else ((1.0, 1.0),)
    return [dhj.cli.build_model(dhj.cli.RunConfig(command="compare", r=r, s=s))
            for r, s in weights]


def _band_steps(q1: float) -> int:
    first_out = oracles.escapes(q1, 0.0, 1.0, 1.0, BATTERY_MAX_STEPS, bound=oracles.BAND)
    return BATTERY_MAX_STEPS if first_out is None else first_out - 2


@dataclass
class Outcome:
    """What one operation produced: its exit code, the bytes it emitted,
    which the output digest covers, and their text for the oracle."""

    code: object
    data: bytes
    text: str


def _take(path: str) -> bytes:
    """Read and remove a file the operation wrote; empty if it wrote none."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return b""
    os.remove(path)
    return data


class CliWorkload:
    """portrait, weights and battery: one in-process `dhj.cli.main` call per operation."""

    def __init__(self, name: str, seed: int, outdir: str):
        self.name = name
        rng = random.Random(seed)
        n = POOL[name]
        self.csv = os.path.join(outdir, "out.csv")
        self.svg = os.path.join(outdir, "out.svg")
        self.params = []
        self.argv = []
        if name == "battery":
            for q1 in q1_pool(rng, n):
                self.params.append(dict(q1=q1))
                self.argv.append(["check", f"--q1={q1!r}", f"--steps={_band_steps(q1)}"])
        else:
            # weights: each (r, s) gets an equal share of the inputs and its own pool
            weights = WEIGHT_SET if name == "weights" else ((1.0, 1.0),)
            for r, s in weights:
                for q1 in q1_pool(rng, n // len(weights), s):
                    self.params.append(dict(q1=q1, r=r, s=s))
                    self.argv.append(["compare", f"--q1={q1!r}", f"--r={r!r}", f"--s={s!r}",
                                      f"--steps={COMPARE_STEPS}", f"--h={H_SLOPE!r}",
                                      "--csv", self.csv, "--svg", self.svg])
        order = list(range(n))
        rng.shuffle(order)
        self.params = [self.params[k] for k in order]
        self.argv = [self.argv[k] for k in order]

    def __len__(self) -> int:
        return len(self.argv)

    def describe(self, k: int) -> str:
        return " ".join(a for a in self.argv[k] if a not in ("--csv", "--svg", self.csv, self.svg))

    def call(self, k: int, traced: bool = False):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = dhj.cli.main(self.argv[k])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def outcome(self, k: int, raw) -> Outcome:
        code, stdout = raw
        if self.name == "battery":
            return Outcome(code, stdout.encode(), stdout)
        csv, svg = _take(self.csv), _take(self.svg)
        return Outcome(code, csv + svg, csv.decode())

    def verify(self, k: int, out: Outcome) -> oracles.Verdict:
        p = self.params[k]
        if self.name == "battery":
            return oracles.check_battery(out.code, out.text)
        return oracles.check_compare(out.code, out.text, q1=p["q1"], r=p["r"], s=p["s"],
                                     steps=COMPARE_STEPS, h=H_SLOPE,
                                     closed_form=self.name == "portrait")


class LagrangianWorkload:
    """One `run_trajectory` orbit per operation on a prebuilt dual Hamiltonian."""

    name = "lagrangian"

    def __init__(self, seed: int, wrap=None):
        self.pendulums = pendulum_pool(seed)
        self.models = build_models("lagrangian", seed)
        self.traced_models = build_models("lagrangian", seed, wrap) if wrap else None

    def __len__(self) -> int:
        return len(self.pendulums)

    def describe(self, k: int) -> str:
        return repr(self.pendulums[k])

    def call(self, k: int, traced: bool = False):
        pend = self.pendulums[k]
        H = (self.traced_models if traced else self.models)[k]
        return mechanics.run_trajectory(H, PhasePoint(index=1, q=[pend.q0], p=[pend.p0]),
                                        LAGRANGIAN_STEPS)

    def outcome(self, k: int, traj) -> Outcome:
        rows = [(float(pt.q[0]), float(pt.p[0])) for pt in traj.points]
        text = "".join(f"{q:.17g},{p:.17g}\n" for q, p in rows)
        return Outcome(1 if traj.meta["truncated"] else 0, text.encode(), text)

    def verify(self, k: int, out: Outcome) -> oracles.Verdict:
        pend = self.pendulums[k]
        points = [tuple(float(v) for v in line.split(",")) for line in out.text.splitlines()]
        return oracles.check_lagrangian(points, out.code != 0, steps=LAGRANGIAN_STEPS,
                                        h=pend.h, w2=pend.w2)


def make(name: str, seed: int, outdir: str, wrap=None):
    if name == "lagrangian":
        return LagrangianWorkload(seed, wrap)
    return CliWorkload(name, seed, outdir)
