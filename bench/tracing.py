"""Spans and counts around the calls into each dhj module, from outside.

dhj's modules import names directly (`from .core import newton_solve`), so
a wrapper has to sit at every name a caller looks up: `dhj.mechanics.
newton_solve`, `dhj.optctrl.eliminate_control`, `dhj.cli.run_trajectory`
and so on.  `Tracer.install` puts the wrappers there and `uninstall` puts
the originals back, so an untraced operation runs the program unchanged.

A span records name, start, end, parent and the operation it belongs to;
its self time is its duration minus the durations of its direct children.
Counts are taken at the same boundaries; `as_vec` and the other small
helpers get counts only.  Counts are kept for the first pass over a
workload's inputs, which every run makes in full, so they repeat exactly
for a seed; times are kept for every traced operation.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import replace

import dhj.cli
import dhj.core
import dhj.hj_flow
import dhj.hj_vf
import dhj.mechanics
import dhj.optctrl
from dhj.core import NumericalError

# span name -> (modules whose attribute is replaced, attribute name)
SPANS = {
    "cli.main": ((dhj.cli,), "main"),
    "core.newton_solve": ((dhj.mechanics, dhj.optctrl, dhj.hj_vf), "newton_solve"),
    "core.fd_jacobian": ((dhj.core, dhj.mechanics), "fd_jacobian"),
    "core.fd_gradient": ((dhj.cli, dhj.optctrl), "fd_gradient"),
    "optctrl.eliminate_control": ((dhj.optctrl,), "eliminate_control"),
    "mechanics.step_right": ((dhj.mechanics, dhj.hj_flow, dhj.cli), "step_right"),
    "mechanics.step_left": ((dhj.mechanics,), "step_left"),
    "mechanics.run_trajectory": ((dhj.mechanics, dhj.cli), "run_trajectory"),
    "mechanics.symplecticity_defect": ((dhj.cli,), "symplecticity_defect"),
    "mechanics.verify_step": ((dhj.cli,), "verify_step"),
    "hj_flow.solve_generating_sequence": ((dhj.cli,), "solve_generating_sequence"),
    "hj_flow.run_closed_form_flow": ((dhj.cli,), "run_closed_form_flow"),
    "hj_vf.solve_gamma_generic": ((dhj.cli,), "solve_gamma_generic"),
    "hj_vf.run_closed_form_vf": ((dhj.cli,), "run_closed_form_vf"),
    "cli.write_csv": ((dhj.cli,), "write_csv"),
    "cli.write_svg": ((dhj.cli,), "write_svg"),
    "cli.check.partial_consistency": ((dhj.cli,), "check_partial_consistency"),
    "cli.check.step_residuals": ((dhj.cli,), "check_step_residuals"),
    "cli.check.symplecticity": ((dhj.cli,), "check_symplecticity"),
    "cli.check.flow_residuals": ((dhj.cli,), "check_flow_residuals"),
    "cli.check.vf_agreement": ((dhj.cli,), "check_vf_agreement"),
    "cli.check.left_right": ((dhj.cli,), "check_left_right"),
    "cli.check.singular_start": ((dhj.cli,), "singular_start_probe"),
}
COUNTS = {
    "core.as_vec": ((dhj.core, dhj.mechanics, dhj.optctrl, dhj.hj_flow, dhj.hj_vf), "as_vec"),
    "optctrl.secondary_constraint": ((dhj.optctrl,), "secondary_constraint"),
}
FAILURE_CLASSES = ("ConvergenceError", "SingularJacobianError", "other")


def _failure_class(name: str) -> str:
    return name if name in FAILURE_CLASSES else "other"


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []    # (op, id, parent id, name, start_ns, end_ns)
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.durations_ns = defaultdict(list)
        self.ops = 0                    # traced operations so far
        self.counted_ops = 0            # operations in the counting pass
        self.counting = True
        self._stack: list[list] = []    # [span id, start, child time] of open spans
        self._ids = itertools.count()
        self._patches = []
        for name, (modules, attr) in SPANS.items():
            self._patch(modules, attr, self._span_wrapper(name, getattr(modules[0], attr)))
        for name, (modules, attr) in COUNTS.items():
            self._patch(modules, attr, self.counter(name, getattr(modules[0], attr)))
        self._patch((dhj.cli,), "discretize_right",
                    self._count_hamiltonian(dhj.cli.discretize_right))

    def _patch(self, modules, attr, wrapper):
        for module in modules:
            self._patches.append((module, attr, getattr(module, attr), wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def begin_op(self) -> None:
        self.ops += 1
        if self.counting:
            self.counted_ops += 1

    def end_counting(self) -> None:
        self.counting = False

    def count(self, name: str, n: int = 1) -> None:
        if self.counting:
            self.counts[name] += n

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return counted

    def _count_hamiltonian(self, discretize_right):
        def wrapped(*args, **kwargs):
            H = discretize_right(*args, **kwargs)
            return replace(H, eval=self.counter("optctrl.H.eval", H.eval),
                           d1=self.counter("optctrl.H.d1", H.d1),
                           d2=self.counter("optctrl.H.d2", H.d2))
        return wrapped

    def _span_wrapper(self, name: str, fn):
        after = _AFTER.get(name)

        def spanned(*args, **kwargs):
            if name == "core.newton_solve":
                args = (self.counter("core.newton_solve.resid_evals", args[0]),) + args[1:]
            sid = next(self._ids)
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, time.perf_counter_ns(), 0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except NumericalError as exc:
                if name == "core.newton_solve":
                    self.count(f"{name}.failed.{_failure_class(type(exc).__name__)}")
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                duration = end - frame[1]
                self.self_ns[name] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                if name in _DURATIONS:
                    self.durations_ns[name].append(duration)
                self.count(name)
                if self.counting:
                    self.spans.append((self.counted_ops, sid, parent, name, frame[1], end))
            if after is not None:
                after(self, args, result)
            return result
        return spanned

    def write_spans(self, path: str) -> None:
        """Write the counting pass's spans, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as f:
            for op, sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                    "start_ns": start, "end_ns": end}) + "\n")

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        c, ops = self.counts, max(self.counted_ops, 1)
        steps = c["mechanics.step_right"] + c["mechanics.step_left"]

        def per_op(name):
            return c[name] / ops

        def per_step(name):
            return c[name] / steps if steps else 0.0

        def self_ms(name):
            return self.self_ns[name] / max(self.ops, 1) / 1e6

        def us_p50(name):
            d = self.durations_ns[name]
            return statistics.median(d) / 1e3 if d else 0.0

        closed = c["hj_flow.branch.plus"] + c["hj_flow.branch.minus"]
        out = {
            "core.newton_solve.calls": per_op("core.newton_solve"),
            "core.newton_solve.resid_evals_per_call":
                c["core.newton_solve.resid_evals"] / c["core.newton_solve"]
                if c["core.newton_solve"] else 0.0,
            "core.fd_jacobian.calls_per_step": per_step("core.fd_jacobian"),
            "core.as_vec.calls_per_step": per_step("core.as_vec"),
            "optctrl.eliminate_control.calls_per_step": per_step("optctrl.eliminate_control"),
            "optctrl.secondary_constraint.calls_per_step": per_step("optctrl.secondary_constraint"),
            "optctrl.H.eval.calls": per_op("optctrl.H.eval"),
            "optctrl.H.d1.calls_per_step": per_step("optctrl.H.d1"),
            "optctrl.H.d2.calls_per_step": per_step("optctrl.H.d2"),
            "mechanics.L.d1.calls_per_step": per_step("mechanics.L.d1"),
            "mechanics.L.d2.calls_per_step": per_step("mechanics.L.d2"),
            "hj_flow.run_closed_form_flow.rows": per_op("hj_flow.run_closed_form_flow.rows"),
            "hj_flow.branch.minus_share": c["hj_flow.branch.minus"] / closed if closed else 0.0,
            "hj_flow.truncated": per_op("hj_flow.truncated"),
            "hj_vf.truncated": per_op("hj_vf.truncated"),
            "cli.bytes_written": per_op("cli.bytes_written"),
            "trace.overhead_frac": overhead_frac,
        }
        for cls in FAILURE_CLASSES:
            out[f"core.newton_solve.failed.{cls}"] = per_op(f"core.newton_solve.failed.{cls}")
            out[f"mechanics.run_trajectory.truncated.{cls}"] = \
                per_op(f"mechanics.run_trajectory.truncated.{cls}")
        for side in ("mechanics.step_right", "mechanics.step_left"):
            out[f"{side}.calls"] = per_op(side)
            out[f"{side}.us_p50"] = us_p50(side)
        for name in SPANS:
            out[f"{name}.self_ms"] = self_ms(name)
        return out


# Spans whose individual durations are kept, for a median per call.
_DURATIONS = {"mechanics.step_right", "mechanics.step_left"}


def _after_trajectory(tracer, args, traj):
    if traj.meta["truncated"]:
        tracer.count(f"mechanics.run_trajectory.truncated.{_failure_class(traj.meta['failure'])}")


def _after_sequence(layer):
    def after(tracer, args, seq):
        if seq.meta.get("truncated"):
            tracer.count(f"{layer}.truncated")
    return after


def _after_closed_form_flow(tracer, args, seq):
    _after_sequence("hj_flow")(tracer, args, seq)
    tracer.count("hj_flow.run_closed_form_flow.rows", len(seq))
    for token in seq.branch_log[1:]:
        tracer.count(f"hj_flow.branch.{token}")


def _after_write(tracer, args, result):
    tracer.count("cli.bytes_written", os.path.getsize(args[0]))


_AFTER = {
    "mechanics.run_trajectory": _after_trajectory,
    "hj_flow.solve_generating_sequence": _after_sequence("hj_flow"),
    "hj_flow.run_closed_form_flow": _after_closed_form_flow,
    "hj_vf.solve_gamma_generic": _after_sequence("hj_vf"),
    "hj_vf.run_closed_form_vf": _after_sequence("hj_vf"),
    "cli.write_csv": _after_write,
    "cli.write_svg": _after_write,
}
