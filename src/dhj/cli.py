"""Command line driver: simulate, hj-flow, hj-vf, compare, check.

Outputs are deterministic: CSV floats carry 17 significant digits, SVG
geometry is emitted with fixed two-decimal coordinates, and no timestamps
or environment details are written.  Exit codes: 0 success, 1 numerical
failure (partial outputs are still written), 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import NewtonConfig, NumericalError, PhasePoint, fd_gradient, norm_inf
from .hj_flow import Branch, hj_residual, run_closed_form_flow, solve_generating_sequence
from .hj_vf import run_closed_form_vf, solve_gamma_generic, vf_residual
from .mechanics import (
    DiscreteLagrangian,
    Side,
    _left_right_gap,
    hamiltonian_from_lagrangian,
    run_trajectory,
    step_right,
    symplecticity_defect,
    verify_step,
)
from .optctrl import MODEL_REGISTRY, discretize_right

__all__ = ["ConfigError", "RunConfig", "main", "run_checks", "CheckResult"]


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Fully resolved configuration of one CLI run."""

    command: str
    model: str = "sakamoto1d"
    r: float = 1.0
    s: float = 1.0
    q1: float = 5e-8
    p1: float = 0.0
    q2: float | None = None
    ds1: float = 0.0
    gamma1: float = 0.0
    steps: int = 18
    h: float = 1e-4
    branch: str = "continuity"
    method: str = "auto"
    tol: float = 1e-12
    max_iter: int = 50
    damping: float = 1.0
    fd_step: float = 1e-7
    csv: str | None = None
    svg: str | None = None
    log_abs: bool = False


_FLOAT_KEYS = {"r", "s", "q1", "p1", "q2", "ds1", "gamma1", "h", "tol", "damping", "fd_step"}
_INT_KEYS = {"steps", "max_iter"}
_BOOL_KEYS = {"log_abs"}
_STR_KEYS = {"model", "branch", "method", "csv", "svg"}
_OPTIONAL_KEYS = {"q2", "csv", "svg"}
# argparse takes a word such as -3.2e-05 for an option, not a value.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _g17(x) -> str:
    return format(float(x), ".17g")


def load_config_file(path: str) -> dict:
    """Parse a key = value configuration file into a typed dict."""
    out: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in (_FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in _OPTIONAL_KEYS and value.lower() == "none":
            out[key] = None
            continue
        try:
            if key in _FLOAT_KEYS:
                out[key] = float(value)
            elif key in _INT_KEYS:
                out[key] = int(value)
            elif key in _BOOL_KEYS:
                if value.lower() in ("true", "1", "yes", "on"):
                    out[key] = True
                elif value.lower() in ("false", "0", "no", "off"):
                    out[key] = False
                else:
                    raise ValueError(value)
            else:
                out[key] = value
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for {key!r}")
    return out


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", default=None, metavar="FILE",
                    help="key = value file; explicit flags override it")
    sp.add_argument("--model", default=None, help="registered model name")
    sp.add_argument("--r", type=float, default=None, help="control effort weight")
    sp.add_argument("--s", type=float, default=None, help="state cost weight")
    sp.add_argument("--q1", type=float, default=None, help="initial position")
    sp.add_argument("--p1", type=float, default=None, help="initial momentum")
    sp.add_argument("--q2", type=float, default=None,
                    help="override the second grid position fed to the slope "
                         "recursions (the later grid stays the trajectory's own)")
    sp.add_argument("--ds1", type=float, default=None, help="initial slope DS_1")
    sp.add_argument("--gamma1", type=float, default=None, help="initial slope gamma_1")
    sp.add_argument("--steps", type=int, default=None, help="number of steps")
    sp.add_argument("--h", type=float, default=None,
                    help="increment scale of the closed-form slope recursion")
    sp.add_argument("--branch", choices=["plus", "minus", "continuity"], default=None,
                    help="root policy of the closed-form slope recursion")
    sp.add_argument("--method", choices=["auto", "closed-form", "generic"], default=None,
                    help="closed-form recursions need unit weights; auto picks "
                         "them when valid and the Newton path otherwise")
    sp.add_argument("--csv", default=None, metavar="FILE", help="write results as CSV")
    sp.add_argument("--svg", default=None, metavar="FILE", help="write plots as SVG")
    sp.add_argument("--log-abs", dest="log_abs", action="store_true", default=None,
                    help="log10 vertical scale on magnitude plots")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhj",
        description="Discrete Hamilton-Jacobi runs on reduced control models")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "iterate the implicit phase-space map"),
        ("hj-flow", "evolve generating-function values and slopes"),
        ("hj-vf", "evolve the slope as a discrete vector field section"),
        ("compare", "run all three on one configuration and difference them"),
        ("check", "run the internal consistency battery"),
    ):
        _add_common(sub.add_parser(name, help=text))
    return parser


def _unit_weights(rc: RunConfig) -> bool:
    """Whether the closed-form recursions apply: sakamoto1d with r = s = 1."""
    return rc.model == "sakamoto1d" and rc.r == 1.0 and rc.s == 1.0


def resolve_config(ns: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and explicit flags; validate the result."""
    rc = RunConfig(command=ns.command)
    if ns.config is not None:
        for key, value in load_config_file(ns.config).items():
            rc = replace(rc, **{key: value})
    rc = replace(rc, **{f.name: getattr(ns, f.name) for f in fields(RunConfig)
                        if f.name != "command" and getattr(ns, f.name, None) is not None})

    for key in sorted(_FLOAT_KEYS):
        value = getattr(rc, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    if rc.model not in MODEL_REGISTRY:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise ConfigError(f"unknown model {rc.model!r} (known: {known})")
    if not (rc.r > 0.0) or not (rc.s > 0.0):
        raise ConfigError(f"weights must be positive, got r = {rc.r}, s = {rc.s}")
    if rc.steps < 1:
        raise ConfigError(f"steps must be at least 1, got {rc.steps}")
    if not (rc.h > 0.0):
        raise ConfigError(f"h must be positive, got {rc.h}")
    if not (rc.tol > 0.0) or rc.max_iter < 1 or not (0.0 < rc.damping <= 1.0) \
            or not (rc.fd_step > 0.0):
        raise ConfigError("invalid solver settings (tol, max_iter, damping, fd_step)")
    if rc.branch not in ("plus", "minus", "continuity"):
        raise ConfigError(f"unknown branch {rc.branch!r}")
    if rc.method not in ("auto", "closed-form", "generic"):
        raise ConfigError(f"unknown method {rc.method!r}")
    unit = _unit_weights(rc)
    if rc.method == "auto":
        rc = replace(rc, method="closed-form" if unit else "generic")
    elif rc.method == "closed-form" and not unit:
        raise ConfigError("the closed-form recursions are derived for "
                          "sakamoto1d with r = s = 1; use --method generic")
    return rc


def build_model(rc: RunConfig):
    """The right discrete Hamiltonian of rc's model and rc's Newton settings."""
    cfg = NewtonConfig(tol=rc.tol, max_iter=rc.max_iter, damping=rc.damping,
                       fd_step=rc.fd_step)
    return discretize_right(MODEL_REGISTRY[rc.model](r=rc.r, s=rc.s), cfg), cfg


def _orbit(rc: RunConfig, H, cfg):
    """The run's right orbit from (q1, p1)."""
    return run_trajectory(H, PhasePoint(index=1, q=[rc.q1], p=[rc.p1]), rc.steps, cfg)


def trajectory_grid(rc: RunConfig, H, cfg):
    """Simulated position grid, with the optional second-entry override."""
    traj = _orbit(rc, H, cfg)
    grid = [float(pt.q[0]) for pt in traj.points]
    if rc.q2 is not None and len(grid) >= 2:
        grid[1] = float(rc.q2)
    return grid, traj


def config_header(rc: RunConfig) -> list[tuple[str, str]]:
    """Every RunConfig field up to fd_step (the settings), in declaration order."""
    header = []
    for f in fields(RunConfig):
        value = getattr(rc, f.name)
        header.append((f.name, "none" if value is None
                       else _g17(value) if f.name in _FLOAT_KEYS else str(value)))
        if f.name == "fd_step":
            return header


def write_csv(path: str, rc: RunConfig, colnames: list[str], rows: list[list[str]],
              footer: list[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        for key, value in config_header(rc):
            f.write(f"# {key} = {value}\n")
        f.write(",".join(colnames) + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")
        for line in footer or ():
            f.write(f"# {line}\n")


# ---------------------------------------------------------------------------
# SVG emission.  One page, up to two stacked panels, everything positioned
# with fixed two-decimal pixel coordinates so output is byte-stable.

_PAGE_W, _PAGE_H = 800, 600
_COLORS = ("#1f77b4", "#d62728", "#2ca02c")


def _px(x: float) -> str:
    return f"{x:.2f}"


def _panel(out: list[str], box: tuple[float, float, float, float], title: str,
           series: list[tuple[str, list[float], list[float]]], log_y: bool) -> None:
    x0, y0, w, h = box
    plotted = []
    for label, xs, ys in series:
        pts = [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
        if log_y:
            pts = [(x, math.log10(max(abs(y), 1e-300))) for x, y in pts]
        plotted.append((label, pts))
    allpts = [pt for _, pts in plotted for pt in pts]
    out.append(f'<rect x="{_px(x0)}" y="{_px(y0)}" width="{_px(w)}" height="{_px(h)}" '
               f'fill="none" stroke="#333333" stroke-width="1"/>')
    out.append(f'<text x="{_px(x0 + w / 2)}" y="{_px(y0 - 8)}" text-anchor="middle" '
               f'font-family="monospace" font-size="13">{title}</text>')
    if not allpts:
        out.append(f'<text x="{_px(x0 + w / 2)}" y="{_px(y0 + h / 2)}" '
                   f'text-anchor="middle" font-family="monospace" font-size="12">'
                   f'no finite data</text>')
        return
    xmin = min(p[0] for p in allpts)
    xmax = max(p[0] for p in allpts)
    ymin = min(p[1] for p in allpts)
    ymax = max(p[1] for p in allpts)
    # a single value gets a range of width 1 around it, or of two ulps where
    # 0.5 is below its ulp (a one-row run that stopped at |q| = 1e103)
    if xmin == xmax:
        pad = max(0.5, math.ulp(xmin))
        xmin, xmax = xmin - pad, xmax + pad
    if ymin == ymax:
        pad = max(0.5, math.ulp(ymin))
        ymin, ymax = ymin - pad, ymax + pad

    def mx(x: float) -> float:
        return x0 + (x - xmin) / (xmax - xmin) * w

    def my(y: float) -> float:
        return y0 + h - (y - ymin) / (ymax - ymin) * h

    for k, (label, pts) in enumerate(plotted):
        color = _COLORS[k % len(_COLORS)]
        if len(pts) >= 2:
            coords = " ".join(f"{_px(mx(x))},{_px(my(y))}" for x, y in pts)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       f'stroke-width="1.2"/>')
        for x, y in pts:
            out.append(f'<circle cx="{_px(mx(x))}" cy="{_px(my(y))}" r="2" '
                       f'fill="{color}"/>')
        out.append(f'<text x="{_px(x0 + w - 6)}" y="{_px(y0 + 16 + 14 * k)}" '
                   f'text-anchor="end" font-family="monospace" font-size="11" '
                   f'fill="{color}">{label}</text>')
    ylab = "log10 " if log_y else ""
    out.append(f'<text x="{_px(x0)}" y="{_px(y0 + h + 16)}" text-anchor="start" '
               f'font-family="monospace" font-size="11">{format(xmin, ".6g")}</text>')
    out.append(f'<text x="{_px(x0 + w)}" y="{_px(y0 + h + 16)}" text-anchor="end" '
               f'font-family="monospace" font-size="11">{format(xmax, ".6g")}</text>')
    out.append(f'<text x="{_px(x0 - 6)}" y="{_px(y0 + h)}" text-anchor="end" '
               f'font-family="monospace" font-size="11">{ylab}{format(ymin, ".6g")}</text>')
    out.append(f'<text x="{_px(x0 - 6)}" y="{_px(y0 + 12)}" text-anchor="end" '
               f'font-family="monospace" font-size="11">{ylab}{format(ymax, ".6g")}</text>')


def write_svg(path: str, panels: list[dict]) -> None:
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PAGE_W}" height="{_PAGE_H}" '
        f'viewBox="0 0 {_PAGE_W} {_PAGE_H}">',
        f'<rect x="0" y="0" width="{_PAGE_W}" height="{_PAGE_H}" fill="#ffffff"/>',
    ]
    n = len(panels)
    slot = (_PAGE_H - 40.0) / max(n, 1)
    for i, panel in enumerate(panels):
        box = (90.0, 40.0 + i * slot, _PAGE_W - 140.0, slot - 60.0)
        _panel(out, box, panel["title"], panel["series"], panel.get("log_y", False))
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Subcommands.


def _portrait(what: str, name: str, qs: list[float], vs: list[float],
              log_y: bool) -> list[dict]:
    """The two SVG panels of one quantity: name against q, |name| against |q|."""
    return [
        {"title": f"{what} {name} against position q",
         "series": [(f"{name}(q)", qs, vs)]},
        {"title": f"|{name}| against |q|",
         "series": [(f"|{name}|(|q|)", [abs(q) for q in qs], [abs(v) for v in vs])],
         "log_y": log_y},
    ]


def _finish(rc: RunConfig, summary: str, colnames: list[str], rows: list[list[str]],
            panels: list[dict], parts: list[tuple[str, dict]],
            footer: list[str] | None = None) -> int:
    """Write the CSV and SVG, print the footer and summary, and report each
    failed part (a label and its failure record) on stderr.  Exit code 1 if
    any part failed, else 0."""
    if rc.csv:
        write_csv(rc.csv, rc, colnames, rows, footer)
        print(f"wrote {rc.csv}")
    if rc.svg:
        write_svg(rc.svg, panels)
        print(f"wrote {rc.svg}")
    for line in footer or ():
        print(line)
    truncated = any(meta["truncated"] for _, meta in parts)
    print(f"{rc.command}: {summary} truncated={'yes' if truncated else 'no'}")
    failed = [(label, meta) for label, meta in parts if meta["failure"] is not None]
    for label, meta in failed:
        print(f"{label} failure at j = {meta['failure_index']}: "
              f"{meta['failure']}: {meta['failure_message']}", file=sys.stderr)
    return 1 if failed else 0


def cmd_simulate(rc: RunConfig) -> int:
    H, cfg = build_model(rc)
    traj = _orbit(rc, H, cfg)
    qs = [float(pt.q[0]) for pt in traj.points]
    ps = [float(pt.p[0]) for pt in traj.points]
    rows = [[str(pt.index), _g17(q), _g17(p), _g17(abs(q)), _g17(abs(p))]
            for pt, q, p in zip(traj.points, qs, ps)]
    return _finish(rc, f"model={rc.model} points={len(traj)}",
                   ["j", "q", "p", "abs_q", "abs_p"], rows,
                   _portrait("momentum", "p", qs, ps, rc.log_abs), [("trajectory", traj.meta)])


def _flow_rows(H, seq):
    # a lift carries its residuals; the closed form's are evaluated here
    res = seq.residuals
    if res is None:
        res = [hj_residual(H, S_j, S_next, b.p, a.q, b.q)
               for a, b, S_j, S_next in zip(seq.points, seq.points[1:], seq.S, seq.S[1:])]
    res = ["0"] + [_g17(r) for r in res]
    return [[str(pt.index), _g17(pt.q[0]), _g17(S), _g17(pt.p[0]), token, r]
            for pt, S, token, r in zip(seq.points, seq.S, seq.branch_log, res)]


def _flow_orbit(rc: RunConfig, H, cfg, traj=None):
    """The right orbit the generic flow lifts, from (q1, ds1): traj when it
    starts there bit for bit (-0.0 and 0.0 are different starts), else a
    fresh run."""
    start = PhasePoint(index=1, q=[rc.q1], p=[rc.ds1])
    if traj is not None and traj.points[0].q.tobytes() == start.q.tobytes() \
            and traj.points[0].p.tobytes() == start.p.tobytes():
        return traj
    return run_trajectory(H, start, rc.steps, cfg)


def _flow_sequence(rc: RunConfig, H, cfg, grid, traj=None):
    """The generating sequence of rc.method: the closed form on grid, or the
    lift of the generic flow's own orbit (see _flow_orbit)."""
    if rc.method == "closed-form":
        return run_closed_form_flow(grid, rc.ds1, rc.h, Branch(rc.branch))
    return solve_generating_sequence(H, _flow_orbit(rc, H, cfg, traj))


def cmd_hj_flow(rc: RunConfig) -> int:
    H, cfg = build_model(rc)
    grid, parts = None, []
    if rc.method == "closed-form":
        grid, traj = trajectory_grid(rc, H, cfg)
        parts.append(("trajectory", traj.meta))
    elif rc.q2 is not None:
        raise ConfigError("--q2 only applies to the closed-form method "
                          "(the generic solver generates its own grid)")
    seq = _flow_sequence(rc, H, cfg, grid)
    qs = [float(pt.q[0]) for pt in seq.points]
    dss = [float(pt.p[0]) for pt in seq.points]
    return _finish(rc, f"method={rc.method} points={len(seq)}",
                   ["j", "q", "S", "DS", "branch", "residual"], _flow_rows(H, seq),
                   _portrait("slope", "DS", qs, dss, rc.log_abs), parts + [("flow", seq.meta)])


def _vf_rows(H, seq):
    # the residual re-checks the defining equation with the quotient gamma_prev /
    # q_next that both update rules solve; the failure record names the first
    # row where it cannot be formed (q_next = 0, an overflow, inf * 0); it stays
    first = seq.points[0]
    rows = [[str(first.index), _g17(first.q[0]), _g17(first.p[0]), "0"]]
    meta = {"truncated": False, "failure": None}
    for prev, pt in zip(seq.points, seq.points[1:]):
        gamma, q = float(prev.p[0]), float(pt.q[0])
        res = vf_residual(H, prev.q, pt.p, gamma / q) if q != 0.0 else math.nan
        if not math.isfinite(res) and meta["failure"] is None:
            meta.update(failure="ResidualCheckFailure", failure_index=pt.index,
                        failure_message=f"residual {res} is not finite: quotient gamma_"
                                        f"{prev.index} / q_{pt.index} = {gamma!r} / {q!r}")
        rows.append([str(pt.index), _g17(pt.q[0]), _g17(pt.p[0]), _g17(res)])
    return rows, meta


def _gamma_sequence(rc: RunConfig, H, cfg, grid):
    """The slope sequence of rc.method on grid."""
    if rc.method == "closed-form":
        return run_closed_form_vf(grid, rc.gamma1)
    return solve_gamma_generic(H, grid, [rc.gamma1], cfg)


def cmd_hj_vf(rc: RunConfig) -> int:
    H, cfg = build_model(rc)
    grid, traj = trajectory_grid(rc, H, cfg)
    seq = _gamma_sequence(rc, H, cfg, grid)
    qs = [float(pt.q[0]) for pt in seq.points]
    gs = [float(pt.p[0]) for pt in seq.points]
    rows, residuals = _vf_rows(H, seq)
    return _finish(rc, f"method={rc.method} points={len(seq)}",
                   ["j", "q", "gamma", "residual"], rows,
                   _portrait("slope", "gamma", qs, gs, rc.log_abs),
                   [("trajectory", traj.meta), ("vf", seq.meta), ("residual", residuals)])


def cmd_compare(rc: RunConfig) -> int:
    H, cfg = build_model(rc)
    grid, traj = trajectory_grid(rc, H, cfg)
    flow = _flow_sequence(rc, H, cfg, grid, traj)
    vf = _gamma_sequence(rc, H, cfg, grid)
    rows, stats_flow, stats_vf = [], [], []
    for pt, f, v in zip(traj.points, flow.points, vf.points):
        q, p, ds, g = float(pt.q[0]), float(pt.p[0]), float(f.p[0]), float(v.p[0])
        err_flow, err_vf = abs(ds - p), abs(g - p)
        if abs(q) < 0.9:
            stats_flow.append(err_flow)
            stats_vf.append(err_vf)
        rows.append([str(pt.index), _g17(q), _g17(p), _g17(ds), _g17(g),
                     _g17(err_flow), _g17(err_vf)])

    def _stat(vals, fn):
        return _g17(fn(vals)) if vals else "nan"

    footer = [
        f"max_err_flow = {_stat(stats_flow, max)}",
        f"mean_err_flow = {_stat(stats_flow, lambda v: sum(v) / len(v))}",
        f"max_err_vf = {_stat(stats_vf, max)}",
        f"mean_err_vf = {_stat(stats_vf, lambda v: sum(v) / len(v))}",
    ]

    def column(k):
        # the 17 significant digits of a row give back the float exactly
        return [float(r[k]) for r in rows]

    js = column(0)
    panels = [
        {"title": "momentum and slopes along the run",
         "series": [("p", js, column(2)), ("DS", js, column(3)), ("gamma", js, column(4))]},
        {"title": "slope errors against the momentum",
         "series": [("|DS - p|", js, column(5)), ("|gamma - p|", js, column(6))],
         "log_y": rc.log_abs},
    ]
    return _finish(rc, f"method={rc.method} points={len(rows)}",
                   ["j", "q", "p", "DS", "gamma", "err_flow", "err_vf"], rows, panels,
                   [("trajectory", traj.meta), ("flow", flow.meta), ("vf", vf.meta)], footer)


# ---------------------------------------------------------------------------
# Consistency battery.


@dataclass
class CheckResult:
    name: str
    status: str  # PASS / FAIL / SKIP / INFO
    measured: float | None
    detail: str


def check_partial_consistency(H, points: int = 100, box: float = 2.0,
                              rel_tol: float = 1e-6, seed: int = 0) -> CheckResult:
    """Analytic slot partials against central differences at sampled points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    # one draw, in the order of a q then a p per point
    for q, p in rng.uniform(-box, box, (points, 2, H.dim)):
        fd1 = fd_gradient(lambda z: H.eval(z, p), q, 1e-6)
        fd2 = fd_gradient(lambda z: H.eval(q, z), p, 1e-6)
        e1 = norm_inf(H.d1(q, p) - fd1) / max(1.0, norm_inf(fd1))
        e2 = norm_inf(H.d2(q, p) - fd2) / max(1.0, norm_inf(fd2))
        worst = max(worst, e1, e2)
    status = "PASS" if worst <= rel_tol else "FAIL"
    return CheckResult("partial-consistency", status, worst,
                       f"max relative gap over {points} sampled points, limit {rel_tol:g}")


def _truncation(label: str, meta: dict) -> str:
    return (f"{label} truncated at j = {meta['failure_index']}: "
            f"{meta['failure']}: {meta['failure_message']}")


def _nothing_measured(name: str, what: str, traj) -> CheckResult:
    """A SKIP for a probe whose orbit left it nothing to measure, naming why."""
    why = f"; {_truncation('orbit', traj.meta)}" if traj.meta["truncated"] else ""
    return CheckResult(name, "SKIP", None, f"no {what} to measure{why}")


def check_step_residuals(H, traj, cfg) -> CheckResult:
    if len(traj) < 2:
        return _nothing_measured("step-residuals", "transition", traj)
    limit = 10.0 * cfg.tol
    worst = 0.0
    for a, b in zip(traj.points[:-1], traj.points[1:]):
        worst = max(worst, verify_step(H, a, b))
    status = "PASS" if worst <= limit else "FAIL"
    return CheckResult("step-residuals", status, worst,
                       f"max step-equation residual over {len(traj) - 1} "
                       f"transitions, limit {limit:g}")


def check_symplecticity(H, traj, band: float = 0.9, limit: float = 1e-5) -> CheckResult:
    pts = [pt for pt in traj.points if norm_inf(pt.q) < band]
    if not pts:
        return _nothing_measured("symplecticity", f"point with |q| < {band:g}", traj)
    worst = 0.0
    for pt in pts:
        worst = max(worst, symplecticity_defect(H, pt, fd_step=1e-6))
    status = "PASS" if worst <= limit else "FAIL"
    return CheckResult("symplecticity", status, worst,
                       f"max defect over {len(pts)} points with |q| < {band:g}, "
                       f"limit {limit:g}")


def check_flow_residuals(H, rc, cfg, traj) -> CheckResult:
    # the lift re-checks every transition against residual_limit and
    # truncates at the first that misses it, so an untruncated lift passes
    seq = solve_generating_sequence(H, _flow_orbit(rc, H, cfg, traj))
    worst = max(map(abs, seq.residuals), default=0.0)
    if seq.meta["truncated"]:
        return CheckResult("flow-residuals", "FAIL", worst,
                           f"sequence truncated: {seq.meta['failure_message']}")
    return CheckResult("flow-residuals", "PASS", worst,
                       f"max evolution-equation residual over {len(seq) - 1} "
                       f"transitions, limit 1e-12")


def check_vf_agreement(H, rc, cfg, traj) -> CheckResult:
    if not _unit_weights(rc):
        return CheckResult("vf-agreement", "SKIP", None,
                           "closed-form reference needs r = s = 1")
    grid = [float(pt.q[0]) for pt in traj.points]
    gen = solve_gamma_generic(H, grid, [rc.gamma1], cfg)
    cf = run_closed_form_vf(grid, rc.gamma1)
    n = min(len(gen), len(cf))
    worst = 0.0
    for i in range(n):
        worst = max(worst, abs(float(gen.points[i].p[0]) - float(cf.points[i].p[0])))
    sides = [("generic", gen.meta), ("closed form", cf.meta)]
    if n < 2:
        # an orbit truncated at its first step leaves a one-entry grid
        sides.append(("orbit", traj.meta))
    truncated = "".join(f"; {_truncation(label, meta)}"
                        for label, meta in sides if meta["truncated"])
    status = "PASS" if n >= 2 and not truncated and worst <= 1e-9 else "FAIL"
    return CheckResult("vf-agreement", status, worst,
                       f"max |generic - closed form| over {n} rows, limit 1e-9{truncated}")


def _free_particle() -> DiscreteLagrangian:
    return DiscreteLagrangian(
        eval=lambda a, b: 0.5 * float((b - a) @ (b - a)),
        d1=lambda a, b: a - b,
        d2=lambda a, b: b - a,
        dim=1,
        d11=lambda a, b: np.eye(1),
        d12=lambda a, b: -np.eye(1),
        d22=lambda a, b: np.eye(1),
    )


def check_left_right(cfg, steps: int = 50) -> CheckResult:
    """Right/left dual identity along a free-particle trajectory."""
    L = _free_particle()
    Hp = hamiltonian_from_lagrangian(L, Side.RIGHT, cfg)
    Hm = hamiltonian_from_lagrangian(L, Side.LEFT, cfg)
    traj = run_trajectory(Hp, PhasePoint(index=1, q=[0.2], p=[0.1]), steps, cfg)
    worst = 0.0
    for a, b in zip(traj.points[:-1], traj.points[1:]):
        worst = max(worst, _left_right_gap(Hp, Hm, a.q, a.p, b.q, b.p))
    ok = not traj.meta["truncated"]
    status = "PASS" if ok and worst <= 1e-9 else "FAIL"
    return CheckResult("left-right-identity", status, worst,
                       f"max dual-relation residual over {len(traj) - 1} "
                       f"free-particle transitions, limit 1e-9")


def singular_start_probe(H, cfg) -> CheckResult:
    """Classify what a step from the stationary-band start does."""
    q_band = 1.0 / math.sqrt(3.0)
    try:
        step_right(H, PhasePoint(index=1, q=[q_band], p=[0.0]), cfg)
    except NumericalError as exc:
        return CheckResult("singular-start", "INFO", None,
                           f"step from q = 1/sqrt(3) raised {type(exc).__name__} "
                           f"(expected: the implicit update is singular there)")
    return CheckResult("singular-start", "INFO", None,
                       "step from q = 1/sqrt(3) completed; no singularity detected")


def run_checks(rc: RunConfig) -> list[CheckResult]:
    """Run every probe; one that raises a NumericalError FAILs on its own."""
    H, cfg = build_model(rc)
    traj = _orbit(rc, H, cfg)
    probes = [
        ("partial-consistency", lambda: check_partial_consistency(H)),
        ("step-residuals", lambda: check_step_residuals(H, traj, cfg)),
        ("symplecticity", lambda: check_symplecticity(H, traj)),
        ("flow-residuals", lambda: check_flow_residuals(H, rc, cfg, traj)),
        ("vf-agreement", lambda: check_vf_agreement(H, rc, cfg, traj)),
        ("left-right-identity", lambda: check_left_right(cfg)),
        ("singular-start", lambda: singular_start_probe(H, cfg)),
    ]
    results = []
    for name, probe in probes:
        try:
            results.append(probe())
        except NumericalError as exc:
            results.append(CheckResult(name, "FAIL", None,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results


def cmd_check(rc: RunConfig) -> int:
    results = run_checks(rc)
    n_pass = n_fail = n_skip = 0
    for res in results:
        if res.status == "INFO":
            print(f"INFO {res.name}: {res.detail}")
            continue
        measured = "n/a" if res.measured is None else f"{res.measured:.6e}"
        print(f"CHECK {res.name}: {res.status} (measured = {measured}; {res.detail})")
        if res.status == "PASS":
            n_pass += 1
        elif res.status == "SKIP":
            n_skip += 1
        else:
            n_fail += 1
    print(f"check: {n_pass} passed, {n_fail} failed, {n_skip} skipped")
    return 1 if n_fail else 0


_HANDLERS = {
    "simulate": cmd_simulate,
    "hj-flow": cmd_hj_flow,
    "hj-vf": cmd_hj_vf,
    "compare": cmd_compare,
    "check": cmd_check,
}


def _attach_negative_numbers(argv: list[str]) -> list[str]:
    """Join each float flag to a negative number after it as --flag=value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1][2:] in _FLOAT_KEYS and _NEGATIVE_NUMBER.fullmatch(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = parser.parse_args(_attach_negative_numbers(argv))
        rc = resolve_config(ns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[rc.command](rc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
