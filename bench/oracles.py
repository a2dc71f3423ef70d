"""Independent oracles for the benchmark's outputs.

Nothing here calls into dhj.  Every check re-derives a value from the
emitted inputs of one row, in exact rational arithmetic (fractions) or in
mpmath at high precision, and compares it with the emitted value relative
to the row's magnitude.  Row-local checks are used because the benchmark
orbit grows hyperbolically, which would amplify rounding in a global
comparison.

References: Marsden & West, "Discrete mechanics and variational
integrators" (Acta Numerica 2001) for the discrete Euler-Lagrange and
Legendre relations; Ohsawa, Bloch & Leok, "Discrete Hamilton-Jacobi theory"
(SIAM J. Control Optim. 2011) for the slope recursions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

# Relative tolerance of every row check.  Healthy rows measure below 1e-11;
# the orbits stalled by the absolute Newton tolerance miss by 0.4 to 1.
REL_TOL = 1e-9

# An exact orbit that reaches |q| >= ESCAPE_Q within the requested steps is
# escaping (past the unstable band |q| = 1/sqrt(3) it grows like q^3), so a
# truncation after correct rows is a legitimate outcome there.
ESCAPE_Q = 1.0

# The band |q| < BAND in which `dhj compare` summarizes its slope errors and
# `dhj check` takes its symplecticity points.
BAND = 0.9

# Working precision of the mpmath oracles, in decimal digits.
DPS = 40


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str


OK = Verdict(True, "")


def _rel(err, mag) -> float:
    return float(abs(err) / mag) if mag else float(abs(err))


def exact_step(q: float, p: float, r: float, s: float) -> tuple[Fraction, Fraction]:
    """The benchmark's right step map in exact rationals:
    p' = (p - s q) / (1 - 3 q^2),  q' = q - q^3 - p' / r."""
    q, p, r, s = (Fraction(v) for v in (q, p, r, s))
    p_next = (p - s * q) / (1 - 3 * q * q)
    return q - q**3 - p_next / r, p_next


def step_error(q: float, p: float, q_next: float, p_next: float, r: float, s: float) -> float:
    """Relative miss of an emitted transition against the exact step map."""
    eq, ep = exact_step(q, p, r, s)
    mag = max(abs(Fraction(q)), abs(Fraction(p)), abs(eq), abs(ep))
    return _rel(max(abs(Fraction(q_next) - eq), abs(Fraction(p_next) - ep)), mag)


def exact_gamma(gamma: float, q: float, q_next: float, r: float, s: float) -> Fraction | None:
    """Slope update of the vector-field scheme in exact rationals.

    Solves D2 H+(q, g) c = D1 H+(q, g) with c = gamma / q_next for the reduced
    Hamiltonian of the cubic model; at r = s = 1 this is the closed form
    -(gamma q^2 - gamma + q_next) q / (gamma + q_next - 3 q^2 q_next).
    None when the update has no solution (zero denominator)."""
    gamma, q, q_next, r, s = (Fraction(v) for v in (gamma, q, q_next, r, s))
    # both sides multiplied through by q_next
    den = q_next * (1 - 3 * q * q) + gamma / r
    return None if den == 0 else (gamma * (q - q**3) - s * q * q_next) / den


def ds_discriminant(q: float, q_next: float, ds: float, h: float):
    """Vertex and discriminant of the closed-form slope quadratic, in mpmath."""
    q, qn, ds, h = (mpmath.mpf(v) for v in (q, q_next, ds, h))
    prefix = -q**3 + q - qn
    disc = (q**6 - 2 * q**4 + 2 * q**3 * qn + 2 * h * ds
            + 2 * q**2 - 2 * q * qn + qn**2)
    return prefix, disc


def continuity_ds_error(q: float, q_next: float, ds: float, h: float, ds_next: float) -> float:
    """Relative miss of an emitted closed-form slope (continuity branch)
    against the mpmath root, relative to the terms the root is formed from."""
    with mpmath.workdps(DPS):
        prefix, disc = ds_discriminant(q, q_next, ds, h)
        if disc < 0:
            return float("inf")
        root = mpmath.sqrt(disc)
        plus, minus = prefix + root, prefix - root
        mag = max(abs(prefix), root, abs(ds))
        d_plus, d_minus = abs(plus - ds), abs(minus - ds)
        err_plus, err_minus = _rel(ds_next - plus, mag), _rel(ds_next - minus, mag)
        if abs(d_plus - d_minus) <= REL_TOL * mag:
            # the two roots are equally close to the previous slope: either is right
            return min(err_plus, err_minus)
        return err_minus if d_minus < d_plus else err_plus


def escapes(q1: float, p1: float, r: float, s: float, steps: int,
            bound: float = ESCAPE_Q) -> int | None:
    """Index of the first row of the exact orbit with |q| >= bound within the
    requested steps, or None if the orbit stays inside."""
    with mpmath.workdps(DPS):
        q, p, r, s = (mpmath.mpf(v) for v in (q1, p1, r, s))
        if abs(q) >= bound:
            return 1
        for j in range(2, steps + 2):
            p = (p - s * q) / (1 - 3 * q * q)
            q = q - q**3 - p / r
            if abs(q) >= bound:
                return j
    return None


# ---------------------------------------------------------------------------
# CLI outputs.


def parse_csv(text: str) -> tuple[dict, list[str], list[list[float]], dict]:
    """Split a dhj CSV into its header dict, column names, rows and footer."""
    header, footer, rows, cols = {}, {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            (footer if cols is not None and rows else header)[key] = value
        elif cols is None:
            cols = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, cols or [], rows, footer


def _truncation_explained(q1, last, *, r, s, steps, h, closed_form) -> bool:
    """Whether a correct program may stop after the last emitted row: the
    exact orbit escapes within the requested steps, or the next closed-form
    slope update has no real root or a vanishing denominator."""
    if escapes(q1, 0.0, r, s, steps) is not None:
        return True
    if not closed_form:
        return False
    _, q, p, ds, gamma, _, _ = last
    qn = float(exact_step(q, p, r, s)[0])
    with mpmath.workdps(DPS):
        prefix, disc = ds_discriminant(q, qn, ds, h)
        if disc <= REL_TOL * max(prefix**2, abs(2 * h * ds)):
            return True
    q, gamma = Fraction(q), Fraction(gamma)
    den = gamma + qn - 3 * q * q * qn
    return abs(den) <= REL_TOL * (abs(gamma) + abs(qn) + abs(3 * q * q * qn))


def check_compare(code, csv_text: str, *, q1: float, r: float, s: float, steps: int,
                  h: float, closed_form: bool) -> Verdict:
    """Verdict on one `dhj compare` run: every row, the exit code, the footer.

    The closed-form slope DS is checked on transitions inside the band
    |q| < BAND that the compare footer also uses: past |q| ~ 1e3 the
    expanded discriminant the program evaluates loses all its digits."""
    if not isinstance(code, int) or code not in (0, 1):
        return Verdict(False, f"exit {code!r}")
    try:
        _, cols, rows, footer = parse_csv(csv_text)
    except ValueError as exc:
        return Verdict(False, f"unparsable CSV: {exc}")
    if cols != ["j", "q", "p", "DS", "gamma", "err_flow", "err_vf"] or not rows:
        return Verdict(False, f"unexpected CSV layout {cols}")
    if rows[0][1] != q1:
        return Verdict(False, "first row is not the initial condition")
    worst = 0.0
    for a, b in zip(rows, rows[1:]):
        _, q, p, ds, gamma, _, _ = a
        _, qn, pn, dsn, gn, _, _ = b
        worst = max(worst, step_error(q, p, qn, pn, r, s))
        if not closed_form:
            # the generic flow carries the slope as its own orbit's momentum
            worst = max(worst, step_error(q, ds, qn, dsn, r, s))
        elif abs(q) < BAND and abs(qn) < BAND:
            worst = max(worst, continuity_ds_error(q, qn, ds, h, dsn))
        g = exact_gamma(gamma, q, qn, r, s)
        if g is None:
            return Verdict(False, f"row after q = {qn!r} has no exact slope update")
        worst = max(worst, _rel(Fraction(gn) - g, max(abs(g), abs(Fraction(gamma)))))
    for row in rows:
        _, q, p, ds, gamma, err_flow, err_vf = row
        worst = max(worst, _rel(err_flow - abs(ds - p), max(abs(ds), abs(p))),
                    _rel(err_vf - abs(gamma - p), max(abs(gamma), abs(p))))
    if worst > REL_TOL:
        return Verdict(False, f"row miss {worst:.3e} > {REL_TOL:g}")
    if len(rows) == steps + 1:
        if code != 0:
            return Verdict(False, f"exit {code} with all {len(rows)} rows")
    elif code == 0:
        return Verdict(False, f"exit 0 with {len(rows)} of {steps + 1} rows")
    elif not _truncation_explained(q1, rows[-1], r=r, s=s, steps=steps, h=h,
                                   closed_form=closed_form):
        return Verdict(False, f"stopped after {len(rows)} of {steps + 1} rows where a "
                              f"correct run continues")
    banded = [row for row in rows if abs(row[1]) < BAND]
    for name, col in (("flow", 5), ("vf", 6)):
        errs = [row[col] for row in banded]
        for stat, want in (("max", max(errs, default=None)),
                           ("mean", sum(errs) / len(errs) if errs else None)):
            got = footer.get(f"{stat}_err_{name}")
            if got is None or (want is None) != (got == "nan") or \
                    want is not None and _rel(float(got) - want, want) > REL_TOL:
                return Verdict(False, f"footer {stat}_err_{name} = {got}, expected {want}")
    return OK


def check_battery(code, stdout: str) -> Verdict:
    """Verdict on one `dhj check` run on a configuration inside the band:
    exit 0 and every CHECK line PASS."""
    lines = [ln for ln in stdout.splitlines() if ln.startswith("CHECK ")]
    failing = [ln.split(":")[0][6:] for ln in lines if ": PASS " not in ln]
    if code != 0 or not lines or failing:
        return Verdict(False, f"exit {code!r}, not passing: {', '.join(failing) or 'none'}")
    return OK


# ---------------------------------------------------------------------------
# Library outputs: the benchmark's own pendulum Lagrangian.


def pendulum_partials(a, b, h, w2):
    """D1 and D2 of L_d(a, b) = h [ ((b - a)/h)^2 / 2 - w2 (1 - cos((a + b)/2)) ]
    in mpmath, plus the magnitude of their terms."""
    v = (b - a) / h
    f = h * w2 * mpmath.sin((a + b) / 2) / 2
    return -v - f, v - f, max(abs(v), abs(f))


def check_lagrangian(points, truncated: bool, *, steps: int, h: float, w2: float) -> Verdict:
    """Both Legendre relations on every transition and the discrete
    Euler-Lagrange equation on every interior point of a pendulum orbit."""
    if truncated or len(points) != steps + 1:
        return Verdict(False, f"truncated at {len(points)} of {steps + 1} points")
    worst = 0.0
    with mpmath.workdps(DPS):
        h, w2 = mpmath.mpf(h), mpmath.mpf(w2)
        pts = [(mpmath.mpf(q), mpmath.mpf(p)) for q, p in points]
        prev_d2 = None
        for (q, p), (qn, pn) in zip(pts, pts[1:]):
            d1, d2, mag = pendulum_partials(q, qn, h, w2)
            mag = max(mag, abs(p), abs(pn))
            worst = max(worst, _rel(p + d1, mag), _rel(pn - d2, mag))
            if prev_d2 is not None:
                worst = max(worst, _rel(prev_d2[0] + d1, max(mag, prev_d2[1])))
            prev_d2 = (d2, mag)
    if worst > REL_TOL:
        return Verdict(False, f"row miss {worst:.3e} > {REL_TOL:g}")
    return OK
