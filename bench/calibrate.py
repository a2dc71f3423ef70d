"""Machine-speed calibration of the benchmark's times.

The machines this benchmark runs on are shared, and their speed drifts.
On a 2-vCPU x86-64 container, one fixed `dhj compare` call took 95 to 173 ms
in windows of 2.5 s, and whole 30 s runs of one seed differed by up to 30%,
in CPU time as much as in wall time.  A fixed reference computation run
next to it slowed down by the same factor to within about 5%.

So every timed operation is followed by one run of `reference()`.  Its wall
time is divided by the median wall time of the references run right after
it and its nearest neighbours, and multiplied by REF_MS.  The result is
the operation's time in milliseconds at the speed at which the reference
takes REF_MS.  Set-up is calibrated the same way.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Wall time of reference() on an idle 2.1 GHz Xeon; the scale of calibrated times.
REF_MS = 4.5
# References on each side of an operation that set its speed.
WINDOW = 2


def reference() -> float:
    """A fixed scalar Newton workload in the style of the program: small
    numpy arrays, a 1 x 1 determinant and solve, Python-level loops."""
    acc = 0.0
    for i in range(100):
        x = np.array([0.5 + 1e-3 * (i % 7)])
        for _ in range(3):
            r = np.atleast_1d(np.asarray(x**3 - x - 0.1, dtype=float))
            jac = np.array([[3.0 * x[0] ** 2 - 1.0]])
            if abs(float(np.linalg.det(jac))) < 1e-14:
                break
            x = x - np.linalg.solve(jac, r)
            acc += float(np.max(np.abs(r)))
    return acc


def time_reference() -> int:
    """Wall time of one reference() run, in ns."""
    t0 = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - t0


def calibrated_ms(op_ns: list[int], ref_ns: list[int]) -> list[float]:
    """Each operation's time in ms at reference speed; ref_ns[i] is the
    reference run right after operation i."""
    return [t * REF_MS / statistics.median(ref_ns[max(0, i - WINDOW): i + WINDOW + 1])
            for i, t in enumerate(op_ns)]
