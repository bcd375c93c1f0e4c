"""Correctness gate applied to every benchmarked CLI invocation.

A sweep's CSV must hold the physical invariants on every row, repeat byte for
byte, and agree on seed-chosen rows with a reference computed here.  The
reference is written from the three-level ladder solution of the model (see
README.md of the package), with numpy and without any twinphoton code.  Its
tolerance is derived from certified tail bounds, not from recorded bytes:
every entry of a per-Fock-term density matrix is at most 1 in magnitude, so
a lattice sum truncated with neglected thermal mass m is off by at most m.
"""

from __future__ import annotations

import math
import re

import numpy as np

# rounding allowance on the invariants and the spot check
ROUNDING = 1e-12
# envelope on the closed-form vs oracle deviation printed by `check`
CHECK_MAX_DEVIATION = 1e-13
# neglected mass of the reference's own geometric truncation, per mode
REFERENCE_MODE_TAIL = 1e-16
# negativity is 6-Lipschitz in (A, D, E) under the max norm: 2|dA| + 2|dD| + 2|dE|
NEGATIVITY_LIPSCHITZ = 6.0

CSV_HEADER = "gt,A,B,C,D,E,epsilon"
_TAIL = re.compile(r"neglected_mass<=(\S+)")
_DEVIATION = re.compile(r"overall max deviation (\S+)")


def parse_sweep(text):
    """(tail_bound, rows) of a sweep CSV; rows has columns gt,A,B,C,D,E,epsilon."""
    lines = text.splitlines()
    match = next((m for m in map(_TAIL.search, lines) if m), None)
    if match is None or CSV_HEADER not in lines:
        raise ValueError("not a sweep CSV: tail bound or header line missing")
    body = lines[lines.index(CSV_HEADER) + 1 :]
    rows = np.array([[float(v) for v in line.split(",")] for line in body], ndmin=2)
    if rows.shape[1] != 7:
        raise ValueError(f"expected 7 columns, got {rows.shape[1]}")
    return float(match.group(1)), rows


def negativity(a, d, e):
    """Closed-form X-state negativity (the model's formula, vectorized)."""
    return np.where(e * e > a * d, np.sqrt((d - a) ** 2 + 4.0 * e * e) - d - a, 0.0)


def _geometric(nbar):
    """Thermal weights truncated where the neglected mass drops below REFERENCE_MODE_TAIL."""
    if nbar == 0.0:
        return np.ones(1), 0.0
    r = nbar / (1.0 + nbar)
    n_max = math.ceil(math.log(REFERENCE_MODE_TAIL) / math.log(r))
    return r ** np.arange(n_max + 1) / (1.0 + nbar), r ** (n_max + 1)


def _ladder(m1, m2, gt):
    """Couplings and phase of the ladder |++>|m-1> <-> |S>|m> <-> |-->|m+1>.

    alpha^2 = 2 m1 m2 couples the top rung to the symmetric state |S>,
    beta^2 = 2 (m1+1)(m2+1) couples |S> to the bottom rung, and the block
    oscillates at Omega = sqrt(alpha^2 + beta^2) (time in units of 1/g).
    """
    a2 = 2.0 * m1 * m2
    b2 = 2.0 * (m1 + 1.0) * (m2 + 1.0)
    w2 = np.where(a2 + b2 > 0, a2 + b2, 1.0)
    phase = np.sqrt(w2) * gt
    return a2, b2, w2, np.cos(phase), np.sin(phase)


def _pure_terms(variant, n1, n2, gt):
    """Unweighted X-state elements (A, B, C, D, E) of |variant>|n1, n2> at gt."""
    if variant in ("eg", "ge"):
        # |+-> = (|S> + |dark>)/sqrt2 on the (n1, n2) ladder
        a2, b2, w2, c, s = _ladder(n1, n2, gt)
        plus, minus = (1.0 + c) ** 2 / 4.0, (1.0 - c) ** 2 / 4.0
        b, cc = (plus, minus) if variant == "eg" else (minus, plus)
        return (a2 * s * s / (2 * w2), b, cc, b2 * s * s / (2 * w2), -s * s / 4.0)
    if variant == "ee":
        # top rung of the (n1+1, n2+1) ladder
        a2, b2, w2, c, s = _ladder(n1 + 1.0, n2 + 1.0, gt)
        mid = a2 * s * s / w2 / 2.0
        top = ((b2 + a2 * c) / w2) ** 2
        return (top, mid, mid, a2 * b2 * (1.0 - c) ** 2 / (w2 * w2), mid)
    # gg: bottom rung of the (n1-1, n2-1) ladder; stationary without a photon pair
    a2, b2, w2, c, s = _ladder(n1 - 1.0, n2 - 1.0, gt)
    dark = n1 * n2 == 0
    mid = np.where(dark, 0.0, b2 * s * s / w2 / 2.0)
    bottom = np.where(dark, 1.0, ((a2 + b2 * c) / w2) ** 2)
    top = np.where(dark, 0.0, a2 * b2 * (1.0 - c) ** 2 / (w2 * w2))
    return (top, mid, mid, bottom, mid)


def reference_rows(initial, lam, nbar1, nbar2, gts):
    """Thermally averaged (A, B, C, D, E, epsilon) per time, and the reference's tail."""
    p1, tail1 = _geometric(nbar1)
    p2, tail2 = _geometric(nbar2)
    n1 = np.arange(p1.size, dtype=float)[:, None]
    n2 = np.arange(p2.size, dtype=float)[None, :]
    weights = p1[:, None] * p2[None, :]
    if initial == "mixed":
        mixture = {
            "ee": lam * lam,
            "eg": lam * (1.0 - lam),
            "ge": lam * (1.0 - lam),
            "gg": (1.0 - lam) ** 2,
        }
    else:
        mixture = {initial: 1.0}
    rows = []
    for gt in gts:
        row = np.zeros(5)
        for variant, share in mixture.items():
            terms = _pure_terms(variant, n1, n2, gt)
            row += share * np.array([np.sum(weights * t) for t in terms])
        rows.append([*row, float(negativity(row[0], row[3], row[4]))])
    return np.array(rows), tail1 + tail2


def sweep_problems(text, spec, reference):
    """Everything wrong with one sweep output; an empty list means it passes.

    ``reference`` is (row indices, reference rows, reference tail) for the
    seed-chosen spot check.
    """
    try:
        tail, rows = parse_sweep(text)
    except ValueError as exc:
        return [str(exc)]
    if not np.isfinite(rows).all():
        return ["non-finite value in the output"]
    problems = []
    expected_gts = np.array([spec["tmax"] * k / spec["steps"] for k in range(spec["steps"] + 1)])
    if rows.shape[0] != expected_gts.size:
        return [f"{rows.shape[0]} rows, expected {expected_gts.size}"]
    if np.abs(rows[:, 0] - expected_gts).max() > ROUNDING:
        problems.append("time column differs from the requested grid")
    gt, a, b, c, d, e, eps = rows.T
    deficit = 1.0 - (a + b + c + d)
    if deficit.min() < -ROUNDING or deficit.max() > tail + ROUNDING:
        problems.append(
            f"1 - trace in [{deficit.min():.3e}, {deficit.max():.3e}],"
            f" outside [-{ROUNDING:g}, tail bound {tail:.3e} + {ROUNDING:g}]"
        )
    if rows[:, 1:5].min() < -ROUNDING:
        problems.append(f"negative population {rows[:, 1:5].min():.3e}")
    if (e * e - b * c).max() > ROUNDING:
        problems.append(f"E^2 exceeds B*C by {(e * e - b * c).max():.3e}")
    if eps.min() < -ROUNDING or eps.max() > 1.0 + ROUNDING:
        problems.append(f"epsilon outside [0, 1]: [{eps.min():.3e}, {eps.max():.3e}]")
    indices, ref, ref_tail = reference
    tol = tail + ref_tail + ROUNDING
    dev = np.abs(rows[indices, 1:6] - ref[:, :5]).max()
    if dev > tol:
        problems.append(f"spot-check rows {list(indices)} deviate {dev:.3e} > {tol:.3e}")
    dev_eps = np.abs(rows[indices, 6] - ref[:, 5]).max()
    if dev_eps > NEGATIVITY_LIPSCHITZ * tol:
        problems.append(f"spot-check negativity deviates {dev_eps:.3e}")
    return problems


def check_problems(text, exit_code):
    """Everything wrong with one `check` output; an empty list means it passes."""
    problems = []
    if exit_code != 0:
        problems.append(f"check exited {exit_code}")
    match = _DEVIATION.search(text)
    if match is None:
        return problems + ["no overall deviation line"]
    deviation = float(match.group(1))
    if not deviation <= CHECK_MAX_DEVIATION:
        problems.append(f"overall deviation {deviation:.3e} > {CHECK_MAX_DEVIATION:g}")
    return problems
