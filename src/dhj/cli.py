"""Command line driver: simulate, hj-flow, hj-vf, compare, check.

Outputs are deterministic: CSV floats carry 17 significant digits, SVG
geometry is emitted with fixed two-decimal coordinates, and no timestamps
or environment details are written.  Exit codes: 0 success, 1 numerical
failure (partial outputs are still written), 2 configuration error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import (TOL, NumericalError, PhasePoint, _entry, _record_failure, _untruncated,
                   fd_gradient, norm_inf)
# run_closed_form_flow is not called here; bench/tracing.py wraps dhj.cli.run_closed_form_flow
from .hj_flow import (Branch, _closed_form_sequence, _ds_transition, hj_residual,
                      run_closed_form_flow, solve_generating_sequence)
from .hj_vf import _gamma_transition, run_closed_form_vf, solve_gamma_generic, vf_residual
from .mechanics import (
    DiscreteLagrangian,
    DiscreteTrajectory,
    Side,
    _left_right_gap,
    hamiltonian_from_lagrangian,
    run_trajectory,
    step_right,
    symplecticity_defect,
    verify_step,
)
from .optctrl import discretize_right, make_sakamoto1d

__all__ = ["ConfigError", "RunConfig", "main", "run_checks", "CheckResult"]


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Fully resolved configuration of one CLI run: the one model, and the
    slope method that its weights fix (the closed form at r = s = 1)."""

    command: str
    model: str = field(default="sakamoto1d", init=False)
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
    method: str = field(init=False)
    csv: str | None = None
    svg: str | None = None
    log_abs: bool = False

    def __post_init__(self) -> None:
        self.method = "closed-form" if self.r == 1.0 and self.s == 1.0 else "generic"


_FLOAT_KEYS = {"r", "s", "q1", "p1", "q2", "ds1", "gamma1", "h"}
_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}
# each config file key's parser; a ValueError or KeyError is a bad value
_PARSERS = {**dict.fromkeys(_FLOAT_KEYS, float), "steps": int,
            "log_abs": lambda value: _BOOLS[value.lower()],
            **dict.fromkeys(("branch", "csv", "svg"), str)}
_OPTIONAL_KEYS = {"q2", "csv", "svg"}
# the keys each generic command reads no value of: it lifts the orbit from (q1, p1), and
# check's vf-agreement, the one reader of gamma1 there, needs the closed form
_GENERIC_UNREAD = {"hj-flow": ("ds1", "q2", "h", "branch"), "compare": ("ds1",),
                   "check": ("gamma1",)}
# each flag's help
_HELP = {
    "r": "control effort weight",
    "s": "state cost weight",
    "q1": "initial position",
    "p1": "initial momentum",
    "q2": "override the second grid position fed to the slope recursions, and only it",
    "ds1": "initial slope DS_1",
    "gamma1": "initial slope gamma_1",
    "steps": "number of steps",
    "h": "increment scale of the closed-form slope recursion",
    "branch": "root policy of the closed-form slope recursion: plus, minus or continuity",
    "csv": "write results as CSV",
    "svg": "write plots as SVG",
    "log_abs": "log10 vertical scale on magnitude plots",
}
# the stable band: compare's footer and the symplecticity probe read only
# the points with |q| below it
_STABLE_BAND = 0.9
# argparse takes a word such as -3.2e-05 for an option, not a value.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _g17(x) -> str:
    return format(float(x), ".17g")


def load_config_file(path: str, command: str) -> dict:
    """Parse command's key = value configuration file into a typed dict."""
    keys = _COMMANDS[command][2]
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
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: {command} reads no key {key!r}")
        if key in _OPTIONAL_KEYS and value.lower() == "none":
            out[key] = None
            continue
        try:
            out[key] = _PARSERS[key](value)
        except (ValueError, KeyError):
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for {key!r}")
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhj",
        description="Discrete Hamilton-Jacobi runs on reduced control models")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, reads) in _COMMANDS.items():
        # flags are spelled in full: an abbreviation would read --h as --help
        sp = sub.add_parser(name, help=text, allow_abbrev=False)
        sp.set_defaults(parser=sp)  # main reports an unread flag with this usage
        sp.add_argument("--config", metavar="FILE",
                        help="key = value file; explicit flags override it")
        for key in reads:
            flag = "--" + key.replace("_", "-")
            if key == "log_abs":
                sp.add_argument(flag, action="store_true", default=None, help=_HELP[key])
            else:
                sp.add_argument(flag, type=_PARSERS[key], help=_HELP[key])
    return parser


def resolve_config(ns: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and explicit flags; validate the result."""
    given = {} if ns.config is None else load_config_file(ns.config, ns.command)
    given.update((f.name, getattr(ns, f.name)) for f in fields(RunConfig)
                 if f.name != "command" and getattr(ns, f.name, None) is not None)
    rc = replace(RunConfig(command=ns.command), **given)

    for key in sorted(_FLOAT_KEYS):
        value = getattr(rc, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    if not (rc.r > 0.0) or not (rc.s > 0.0):
        raise ConfigError(f"weights must be positive, got r = {rc.r}, s = {rc.s}")
    if rc.steps < 1:
        raise ConfigError(f"steps must be at least 1, got {rc.steps}")
    if not (rc.h > 0.0):
        raise ConfigError(f"h must be positive, got {rc.h}")
    if rc.branch not in ("plus", "minus", "continuity"):
        raise ConfigError(f"unknown branch {rc.branch!r}")
    ignored = [key for key in _GENERIC_UNREAD.get(rc.command, ()) if key in given]
    if rc.method == "generic" and ignored:
        raise ConfigError(f"the generic {rc.command} lifts its orbit from q1 and p1 and "
                          "reads no " + ", ".join(ignored))
    _check_output_paths(rc)
    return rc


def _check_output_paths(rc: RunConfig) -> None:
    """A ConfigError, worded as open's, for an output path that is empty, a
    directory or in a directory that does not exist (a dangling symlink's
    target's), or for --csv and --svg that reach one file, before the run."""
    reached = []
    for path in [path for path in (rc.csv, rc.svg) if path is not None]:
        # a symlink that reaches no file is read as its target, resolved once
        target = (path if os.path.exists(path) or not os.path.islink(path)
                  else os.path.realpath(path))
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not path or not os.path.isdir(os.path.dirname(target) or "."):
            code = errno.ENOENT
        else:
            reached.append(target)
            continue
        raise ConfigError(f"cannot write {path!r}: {OSError(code, os.strerror(code), path)}")
    if len(reached) == 2 and _one_file(*reached):
        raise ConfigError(f"--csv and --svg name one file: {rc.csv!r} and {rc.svg!r}")


def _one_file(a: str, b: str) -> bool:
    """Whether outputs a and b (a dangling symlink resolved) reach one file:
    samefile when both exist, else one name in one directory, by (st_dev, st_ino)."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return (os.path.basename(a) == os.path.basename(b)
            and os.path.samefile(os.path.dirname(a) or ".", os.path.dirname(b) or "."))


def build_model(rc: RunConfig):
    """The right discrete Hamiltonian of rc's model."""
    return discretize_right(make_sakamoto1d(r=rc.r, s=rc.s))


def _orbit(rc: RunConfig, H, until=None):
    """The run's right orbit from (q1, p1); until as run_trajectory's."""
    return run_trajectory(H, PhasePoint(index=1, q=[rc.q1], p=[rc.p1]), rc.steps, until)


def config_header(rc: RunConfig) -> list[tuple[str, str]]:
    """Every RunConfig field up to method (the settings), in declaration order."""
    header = []
    for f in fields(RunConfig):
        value = getattr(rc, f.name)
        header.append((f.name, "none" if value is None
                       else _g17(value) if f.name in _FLOAT_KEYS else str(value)))
        if f.name == "method":
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
        pixels = [(_px(mx(x)), _px(my(y))) for x, y in pts]
        if len(pixels) >= 2:
            coords = " ".join(f"{cx},{cy}" for cx, cy in pixels)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       f'stroke-width="1.2"/>')
        out.extend(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>' for cx, cy in pixels)
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


def _portrait(what: str, name: str, points, log_y: bool) -> list[dict]:
    """The two SVG panels of the momentum slot of points, named name: it
    against q, and its magnitude against |q|."""
    qs, vs = [pt.q.item() for pt in points], [pt.p.item() for pt in points]
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
    any part failed, else 0; a file that cannot be written is a ConfigError,
    raised after removing the one already written."""
    written = []
    for path, write in ((rc.csv, lambda: write_csv(rc.csv, rc, colnames, rows, footer)),
                        (rc.svg, lambda: write_svg(rc.svg, panels))):
        if path is not None:
            try:
                write()
            except OSError as exc:
                for done in written:
                    os.remove(done)
                raise ConfigError(f"cannot write {path!r}: {exc}")
            written.append(path)
    for path in written:
        print(f"wrote {path}")
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
    H = build_model(rc)
    traj = _orbit(rc, H)
    rows = [[str(pt.index), *map(_g17, (q, p, abs(q), abs(p)))]
            for pt in traj.points for q, p in [(pt.q.item(), pt.p.item())]]
    return _finish(rc, f"model={rc.model} points={len(traj)}",
                   ["j", "q", "p", "abs_q", "abs_p"], rows,
                   _portrait("momentum", "p", traj.points, rc.log_abs), [("trajectory", traj.meta)])


def _flow_rows(H, seq):
    # a lift carries its residuals; the closed form's are evaluated here
    res = seq.residuals
    if res is None:
        res = [hj_residual(H, S_j, S_next, b.p, a.q, b.q)
               for a, b, S_j, S_next in zip(seq.points, seq.points[1:], seq.S, seq.S[1:])]
    res = ["0"] + [_g17(r) for r in res]
    return [[str(pt.index), _g17(pt.q[0]), _g17(S), _g17(pt.p[0]), token, r]
            for pt, S, token, r in zip(seq.points, seq.S, seq.branch_log, res)]


def _runs(rc: RunConfig, H, flow: bool = False, vf: bool = False):
    """The orbit from (q1, p1) and the slope runs a command asks for, as
    (traj, flow, vf), None for a slope run not asked for.

    The generic flow lifts that orbit; the generic vf solves along its
    positions, --q2 in the second when it is set.  On the closed form each
    new orbit point takes each slope one transition to its position (the
    second is --q2 when it is set), and the orbit ends after the first
    point that a slope cannot step to, the one that transition needed, so
    it takes no step for a row the command's table would drop.  A
    closed-form slope run is a DiscreteTrajectory with the slope in the
    momentum slot and core.iterate's failure record in meta; the flow's is a
    GeneratingSequence whose branch log names the root each transition took,
    and S accumulates h times the previous slope from 0."""
    if rc.method == "generic":
        traj = _orbit(rc, H)
        flow_run = solve_generating_sequence(H, traj) if flow else None
        if not vf:
            return traj, flow_run, None
        grid = [rc.q2 if pt.index == 2 and rc.q2 is not None else pt.q.item()
                for pt in traj.points]
        return traj, flow_run, solve_gamma_generic(H, grid, [rc.gamma1])
    branch, tokens = Branch(rc.branch), ["init"]

    def ds_step(x, q_next):
        nxt, taken = _ds_transition(x, q_next, rc.h, branch)
        tokens.append(taken.value)
        return nxt

    def start(p1: float) -> DiscreteTrajectory:
        return DiscreteTrajectory([PhasePoint(index=1, q=[rc.q1], p=[p1])], _untruncated())

    flow_run = start(rc.ds1) if flow else None
    vf_run = start(rc.gamma1) if vf else None
    slopes = [(seq, step) for seq, step in ((flow_run, ds_step), (vf_run, _gamma_transition))
              if seq is not None]

    def until(pt) -> bool:
        q_next = rc.q2 if pt.index == 2 and rc.q2 is not None else pt.q.item()
        stop = False
        for seq, transition in slopes:
            try:
                seq.points.append(transition(seq.points[-1], q_next))
            except NumericalError as exc:
                _record_failure(seq.meta, exc, seq.points[-1].index)
                stop = True
        return stop

    traj = _orbit(rc, H, until)
    if flow:
        flow_run = _closed_form_sequence(flow_run.points, rc.h, tokens, flow_run.meta)
    return traj, flow_run, vf_run


def cmd_hj_flow(rc: RunConfig) -> int:
    H = build_model(rc)
    traj, seq, _ = _runs(rc, H, flow=True)
    return _finish(rc, f"method={rc.method} points={len(seq)}",
                   ["j", "q", "S", "DS", "branch", "residual"], _flow_rows(H, seq),
                   _portrait("slope", "DS", seq.points, rc.log_abs),
                   [("trajectory", traj.meta), ("flow", seq.meta)])


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


def cmd_hj_vf(rc: RunConfig) -> int:
    H = build_model(rc)
    traj, _, seq = _runs(rc, H, vf=True)
    rows, residuals = _vf_rows(H, seq)
    return _finish(rc, f"method={rc.method} points={len(seq)}",
                   ["j", "q", "gamma", "residual"], rows,
                   _portrait("slope", "gamma", seq.points, rc.log_abs),
                   [("trajectory", traj.meta), ("vf", seq.meta), ("residual", residuals)])


def cmd_compare(rc: RunConfig) -> int:
    H = build_model(rc)
    traj, flow, vf = _runs(rc, H, flow=True, vf=True)
    # each row's floats: j, q, p, DS, gamma and the two slope errors
    table, stats_flow, stats_vf = [], [], []
    for pt, f, v in zip(traj.points, flow.points, vf.points):
        q, p, ds, g = pt.q.item(), pt.p.item(), f.p.item(), v.p.item()
        err_flow, err_vf = abs(ds - p), abs(g - p)
        if abs(q) < _STABLE_BAND:
            stats_flow.append(err_flow)
            stats_vf.append(err_vf)
        table.append((pt.index, q, p, ds, g, err_flow, err_vf))
    rows = [[str(j), *map(_g17, vals)] for j, *vals in table]

    def _stat(vals, fn):
        return _g17(fn(vals)) if vals else "nan"

    footer = [
        f"max_err_flow = {_stat(stats_flow, max)}",
        f"mean_err_flow = {_stat(stats_flow, lambda v: sum(v) / len(v))}",
        f"max_err_vf = {_stat(stats_vf, max)}",
        f"mean_err_vf = {_stat(stats_vf, lambda v: sum(v) / len(v))}",
    ]
    js, _, ps, dss, gs, errs_flow, errs_vf = zip(*table)
    js = [float(j) for j in js]
    panels = [
        {"title": "momentum and slopes along the run",
         "series": [("p", js, ps), ("DS", js, dss), ("gamma", js, gs)]},
        {"title": "slope errors against the momentum",
         "series": [("|DS - p|", js, errs_flow), ("|gamma - p|", js, errs_vf)],
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


def _measured(name: str, worst: float, limit: float | str, detail: str, ok: bool = True,
              note: str = "") -> CheckResult:
    """A measured probe's result: PASS when ok (the probe's own condition)
    holds and worst <= limit, so a NaN worst FAILs.  limit is a float, shown
    in %g, or the text to show; the detail ends in ", limit" and it, then
    note."""
    shown = limit if isinstance(limit, str) else format(limit, "g")
    status = "PASS" if ok and worst <= float(limit) else "FAIL"
    return CheckResult(name, status, worst, f"{detail}, limit {shown}{note}")


def check_partial_consistency(H) -> CheckResult:
    """Analytic slot partials against central differences at 100 points drawn
    from [-2, 2] with seed 0."""
    rng = np.random.default_rng(0)
    gaps = []
    # one draw, in the order of a q then a p per point
    for q, p in rng.uniform(-2.0, 2.0, (100, 2, H.dim)):
        fd1 = fd_gradient(lambda z: H.eval(z, p), q, 1e-6)
        fd2 = fd_gradient(lambda z: H.eval(q, z), p, 1e-6)
        gaps.append(_relative_gap(H.d1(q, p), fd1))
        gaps.append(_relative_gap(H.d2(q, p), fd2))
    return _measured("partial-consistency", _worst(gaps), 1e-6,
                     "max relative gap over 100 sampled points")


def _relative_gap(analytic: np.ndarray, fd: np.ndarray) -> float:
    """norm_inf(analytic - fd) / max(1, norm_inf(fd)) in one pass over Python
    floats, bitwise numpy's; fd is finite, and a NaN gap stays NaN.  One
    entry is read off each as a float (analytic may be one already)."""
    if fd.size == 1:
        a, b = _entry(analytic), fd.item()
        return abs(a - b) / max(1.0, abs(b))
    gap, scale = 0.0, 1.0
    for a, b in zip(analytic.tolist(), fd.tolist()):
        d = abs(a - b)
        if d > gap or d != d:
            gap = d
        if abs(b) > scale:
            scale = abs(b)
    return gap / scale


def _worst(values) -> float:
    """The largest of values, 0.0 if there is none, and NaN if one is NaN:
    max() would keep a NaN only in first place."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def _truncation(label: str, meta: dict) -> str:
    return (f"{label} truncated at j = {meta['failure_index']}: "
            f"{meta['failure']}: {meta['failure_message']}")


def _nothing_measured(name: str, what: str, traj) -> CheckResult:
    """A SKIP for a probe whose orbit left it nothing to measure, naming why."""
    why = f"; {_truncation('orbit', traj.meta)}" if traj.meta["truncated"] else ""
    return CheckResult(name, "SKIP", None, f"no {what} to measure{why}")


def check_step_residuals(H, traj) -> CheckResult:
    if len(traj) < 2:
        return _nothing_measured("step-residuals", "transition", traj)
    worst = _worst(verify_step(H, a, b) for a, b in zip(traj.points[:-1], traj.points[1:]))
    return _measured("step-residuals", worst, 10.0 * TOL,
                     f"max step-equation residual over {len(traj) - 1} transitions")


def check_symplecticity(H, traj) -> CheckResult:
    pts = [pt for pt in traj.points if norm_inf(pt.q) < _STABLE_BAND]
    if not pts:
        return _nothing_measured("symplecticity", f"point with |q| < {_STABLE_BAND:g}", traj)
    worst = _worst(symplecticity_defect(H, pt) for pt in pts)
    return _measured("symplecticity", worst, 1e-5,
                     f"max defect over {len(pts)} points with |q| < {_STABLE_BAND:g}")


def check_flow_residuals(H, traj) -> CheckResult:
    # the lift re-checks every transition against residual_limit and
    # truncates at the first that misses it, so an untruncated lift passes
    seq = solve_generating_sequence(H, traj)
    worst = max(map(abs, seq.residuals), default=0.0)
    if seq.meta["failure"] == "ResidualCheckFailure":
        # the re-check tripped: the residual it rejected is what failed
        worst = abs(seq.meta["failure_quantity"])
    if seq.meta["truncated"]:
        return CheckResult("flow-residuals", "FAIL", worst,
                           f"sequence truncated: {seq.meta['failure_message']}")
    return CheckResult("flow-residuals", "PASS", worst,
                       f"max evolution-equation residual over {len(seq) - 1} "
                       f"transitions, limit 1e-12")


def check_vf_agreement(H, rc, traj) -> CheckResult:
    if rc.method != "closed-form":
        return CheckResult("vf-agreement", "SKIP", None,
                           "closed-form reference needs r = s = 1")
    grid = [float(pt.q[0]) for pt in traj.points]
    gen = solve_gamma_generic(H, grid, [rc.gamma1])
    cf = run_closed_form_vf(grid, rc.gamma1)
    n = min(len(gen), len(cf))
    worst = _worst(abs(float(gen.points[i].p[0]) - float(cf.points[i].p[0])) for i in range(n))
    sides = [("generic", gen.meta), ("closed form", cf.meta)]
    if n < 2:
        # an orbit truncated at its first step leaves a one-entry grid
        sides.append(("orbit", traj.meta))
    truncated = "".join(f"; {_truncation(label, meta)}"
                        for label, meta in sides if meta["truncated"])
    return _measured("vf-agreement", worst, "1e-9", f"max |generic - closed form| over {n} rows",
                     ok=n >= 2 and not truncated, note=truncated)


def _free_particle() -> DiscreteLagrangian:
    # Python floats by core's one-entry float rule, bitwise the array
    # arithmetic (eval is 0.5 * core.dot(b - a, b - a))
    def eval_(a: np.ndarray, b: np.ndarray) -> float:
        v = b.item() - a.item()
        return 0.5 * (0.0 + v * v)

    return DiscreteLagrangian(
        eval=eval_,
        d1=lambda a, b: a.item() - b.item(),
        d2=lambda a, b: b.item() - a.item(),
        dim=1,
        d11=lambda a, b: 1.0,
        d12=lambda a, b: -1.0,
        d22=lambda a, b: 1.0,
    )


def check_left_right() -> CheckResult:
    """Right/left dual identity along a 50-step free-particle trajectory."""
    L = _free_particle()
    Hp = hamiltonian_from_lagrangian(L, Side.RIGHT)
    Hm = hamiltonian_from_lagrangian(L, Side.LEFT)
    traj = run_trajectory(Hp, PhasePoint(index=1, q=[0.2], p=[0.1]), 50)
    worst = _worst(_left_right_gap(Hp, Hm, a.q, a.p, b.q, b.p)
                   for a, b in zip(traj.points[:-1], traj.points[1:]))
    return _measured("left-right-identity", worst, "1e-9",
                     f"max dual-relation residual over {len(traj) - 1} free-particle transitions",
                     ok=not traj.meta["truncated"])


def singular_start_probe(H) -> CheckResult:
    """Classify what a step from the stationary-band start does."""
    q_band = 1.0 / math.sqrt(3.0)
    try:
        step_right(H, PhasePoint(index=1, q=[q_band], p=[0.0]))
    except NumericalError as exc:
        return CheckResult("singular-start", "INFO", None,
                           f"step from q = 1/sqrt(3) raised {type(exc).__name__} "
                           f"(expected: the implicit update is singular there)")
    return CheckResult("singular-start", "INFO", None,
                       "step from q = 1/sqrt(3) completed; no singularity detected")


def run_checks(rc: RunConfig) -> list[CheckResult]:
    """Run every probe; one that raises a NumericalError FAILs on its own."""
    H = build_model(rc)
    traj = _orbit(rc, H)
    probes = [
        ("partial-consistency", lambda: check_partial_consistency(H)),
        ("step-residuals", lambda: check_step_residuals(H, traj)),
        ("symplecticity", lambda: check_symplecticity(H, traj)),
        ("flow-residuals", lambda: check_flow_residuals(H, traj)),
        ("vf-agreement", lambda: check_vf_agreement(H, rc, traj)),
        ("left-right-identity", check_left_right),
        ("singular-start", lambda: singular_start_probe(H)),
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
    for res in results:
        if res.status == "INFO":
            print(f"INFO {res.name}: {res.detail}")
            continue
        measured = "n/a" if res.measured is None else f"{res.measured:.6e}"
        print(f"CHECK {res.name}: {res.status} (measured = {measured}; {res.detail})")
    statuses = [res.status for res in results]
    n_fail = statuses.count("FAIL")
    print(f"check: {statuses.count('PASS')} passed, {n_fail} failed, "
          f"{statuses.count('SKIP')} skipped")
    return 1 if n_fail else 0


# each command's handler, help line and the RunConfig fields it reads, as
# flags and as config file keys
_COMMANDS = {name: (handler, text, tuple(reads.split())) for name, handler, text, reads in (
    ("simulate", cmd_simulate, "iterate the implicit phase-space map",
     "r s q1 p1 steps csv svg log_abs"),
    ("hj-flow", cmd_hj_flow, "evolve generating-function values and slopes",
     "r s q1 p1 q2 ds1 steps h branch csv svg log_abs"),
    ("hj-vf", cmd_hj_vf, "evolve the slope as a discrete vector field section",
     "r s q1 p1 q2 gamma1 steps csv svg log_abs"),
    ("compare", cmd_compare, "run all three on one configuration and difference them",
     "r s q1 p1 q2 ds1 gamma1 steps h branch csv svg log_abs"),
    ("check", cmd_check, "run the internal consistency battery",
     "r s q1 p1 gamma1 steps"),
)}


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
        ns, unread = parser.parse_known_args(args := _attach_negative_numbers(argv))
        if unread:
            # a word before the command word is the root parser's to report
            root = unread[0] in args[:args.index(ns.command)]
            (parser if root else ns.parser).error(f"unrecognized arguments: {' '.join(unread)}")
        rc = resolve_config(ns)
        return _COMMANDS[rc.command][0](rc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
