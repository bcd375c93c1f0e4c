"""Summation kernel: per-Fock-pair X-states and their thermally weighted sum.

A pure initial state with the field in |n1, n2> stays in one three-level
ladder, which oscillates at the single block frequency Omega.  Each of its
X-state elements is therefore a quadratic polynomial in

    x = 1 - cos(Omega gt) = 2 sin^2(Omega gt / 2),

and each coefficient of that polynomial is itself a polynomial of degree
<= 2 in one ratio r of the pair: r = p = u / Omega^2 for ee, eg and ge, and
r = q = v / Omega^2 for gg, with u and v the couplings of the ladder's two
steps (Omega^2 = 2 (u + v), so q = 1/2 - p).  COEFFICIENTS writes the
physics once, as one table of these polynomials per variant
("ee", "eg", "ge", "gg").  Omega^2 - 1 is the odd integer
(2 m1 + 1)(2 m2 + 1) of the block indices, the pair's key, so many
Fock pairs share a frequency, and r is an integer over key + 1.

xstate_term evaluates the table at one point.  thermal_sweep sums, per
distinct key, the three moments sum w, sum w r and sum w r^2 of the thermal
weights w before the time loop; the table maps them to the weighted sum of
every coefficient of that block frequency.  It returns one row per time;
at gt = 0 (x = 0) that row is the constant terms.  It takes one sin per
distinct block frequency and time, or, on a uniform grid of enough times
from 0, builds those sines by angle addition from the sin and cos at R
offsets and at every R-th time: about 2 sqrt(T) trig evaluations per
frequency instead of T.

Reductions use np.sum, np.bincount and np.einsum (no BLAS) in a fixed order,
so the output does not depend on the BLAS thread count and reruns give
identical output.
"""

import math

import numpy as np

# Fock pairs per moment chunk, and distinct frequencies x times per trig
# block: together they bound thermal_sweep's temporaries
BLOCK_ELEMENTS = 1024
TRIG_ELEMENTS = 16384


def block_frequency(m1, m2):
    """Effective block frequency sqrt(2[(m1+1)(m2+1) + m1 m2]) in units of g.

    Its square is key + 1 with key = (2 m1 + 1)(2 m2 + 1), an integer, so
    the kernel's sqrt(key + 1) gives the same float wherever the key is
    exact in a double.
    """
    return np.sqrt(2.0 * ((m1 + 1.0) * (m2 + 1.0) + m1 * m2))


def _block_index(variant, n):
    """Block index m, per mode, of the ladder that ``variant`` with n photons starts in.

    ee starts on the bottom rung (m = n + 1), eg and ge on the middle one
    (m = n) and gg on the top one (m = n - 1).  With an empty mode gg is
    stationary; clamping its block index at 0 keeps the (unused) frequency
    finite.  Keeps the dtype of ``n``.
    """
    return np.maximum(n + {"ee": 1, "gg": -1}.get(variant, 0), 0)


def _mode_factors(variant, n):
    """Per-mode factors (2m + 1, f) of the key and of r for Fock indices ``n`` of one mode.

    A pair's key (2 m1 + 1)(2 m2 + 1) is Omega^2 - 1 and its ratio is
    r = f1 f2 / Omega^2.  The state starts in the ladder of block (m1, m2),
    whose lower step |++>|m1-1, m2-1> <-> middle couples with u = m1 m2 and
    whose upper step middle <-> |-->|m1+1, m2+1> with v = (m1+1)(m2+1): f = m
    gives r = p = u / Omega^2 (ee, eg, ge), and for gg, which starts on the
    top rung |-->|n1, n2>, f = n gives r = q = v / Omega^2 with v = n1 n2,
    which is 0 where m is clamped.  Keeps the dtype of ``n``.
    """
    m = _block_index(variant, n)
    return 2 * m + 1, (n if variant == "gg" else m)


# Polynomials in r, as their coefficients of (1, r, r^2).
_ONE, _R, _R2 = np.eye(3)
_ZERO = np.zeros(3)


def _sin_sq(s):
    """x-coefficients of s x (2 - x) = s sin^2(Omega gt), for a polynomial s in r."""
    return [_ZERO, 2.0 * s, -s]


# ee in r = p: A = (1 - 2 p x)^2, B = C = E = p sin^2, D = 4 p q x^2 with q = 1/2 - p
_EE = np.array(
    [
        [_ONE, -4.0 * _R, 4.0 * _R2],
        _sin_sq(_R),
        _sin_sq(_R),
        [_ZERO, _ZERO, 2.0 * _R - 4.0 * _R2],
        _sin_sq(_R),
    ]
)
# eg in r = p: A = p sin^2, D = q sin^2, E = -sin^2 / 4, and on the middle rung
# the atom that started excited stays with cos^4(th/2) = (1 - x/2)^2 (B) and
# leaves with sin^4(th/2) = x^2 / 4 (C)
_EG = np.array(
    [
        _sin_sq(_R),
        [_ONE, -_ONE, 0.25 * _ONE],
        [_ZERO, _ZERO, 0.25 * _ONE],
        _sin_sq(0.5 * _ONE - _R),
        _sin_sq(-0.25 * _ONE),
    ]
)
# COEFFICIENTS[variant][k, j, d]: the coefficient of x^j in element k of
# (A, B, C, D, E) is sum_d COEFFICIENTS[variant][k, j, d] r^d.  gg in r = q is
# ee in r = p with the ends of the ladder (A, D) swapped; ge is eg with B and C
# swapped.  Writing gg in q keeps its clamped rows (q = 0, 2q - 4q^2 = 0) exact.
COEFFICIENTS = {
    "ee": _EE,
    "eg": _EG,
    "ge": _EG[[0, 2, 1, 3, 4]],
    "gg": _EE[[3, 1, 2, 0, 4]],
}


def _expand(variant, moments):
    """Coefficients (5, 3, *rest) of the table contracted with ``moments`` over the powers of r.

    ``moments`` has shape (3, *rest): (1, r, r^2) at points, or
    (sum w, sum w r, sum w r^2) over the points of one key.
    """
    return np.einsum("kjd,d...->kj...", COEFFICIENTS[variant], moments)


def xstate_term(variant, n1, n2, gt):
    """Single-Fock-pair X-state elements (A, B, C, D, E) at dimensionless time gt.

    These are the unweighted per-term summands of the thermal double sum for
    the pure initial state ``variant`` with the field in |n1, n2>.  ``n1`` and
    ``n2`` may be scalars or arrays that broadcast against each other; each
    element comes back with their broadcast shape.
    """
    odd1, f1 = _mode_factors(variant, np.asarray(n1, dtype=np.float64))
    odd2, f2 = _mode_factors(variant, np.asarray(n2, dtype=np.float64))
    omega_sq = odd1 * odd2 + 1.0
    r = f1 * f2 / omega_sq
    coef = _expand(variant, np.array([np.ones_like(r), r, r * r]))
    x = 2.0 * np.square(np.sin(0.5 * np.sqrt(omega_sq) * gt))
    return tuple(coef[:, 0] + x * coef[:, 1] + (x * x) * coef[:, 2])


def _offset_count(gts):
    """Number R of offsets for the angle-addition path over ``gts``, or 0 for the direct path.

    The angle-addition path needs every time to split as
    gts[k] = gts[R (k // R)] + gts[k % R], an anchor plus an offset, to within
    2 eps gts[k], as on a uniform grid that starts at 0 (TimeGrid.points(),
    np.linspace(0, ...)).  It takes 2 (ceil(T / R) + R) sin and cos evaluations
    per frequency instead of T sines, and is used only where that at least
    halves them.  R <= TRIG_ELEMENTS // BLOCK_ELEMENTS, so the R times of one
    anchor fit one trig block even for a chunk of distinct frequencies.
    """
    size = len(gts)
    split = min(TRIG_ELEMENTS // BLOCK_ELEMENTS, math.isqrt(size))
    if split == 0 or 4 * (-(-size // split) + split) > size:
        return 0
    k = np.arange(size)
    offset = k % split
    error = np.abs(gts[k - offset] + gts[offset] - gts)
    return split if (error <= 2.0 * np.finfo(float).eps * gts).all() else 0


def _sines(half, gts, split):
    """Yield (t0, sin(gts[t0 : t0 + n] x half)) for consecutive blocks of times.

    Each block holds about TRIG_ELEMENTS times x frequencies.  With split = 0
    each element is one np.sin.  With split = R (see _offset_count) the sines
    are sin(A + B) = sin A cos B + cos A sin B, from the sin and cos of
    half x the R offsets gts[:R], taken once, and of half x the anchors
    gts[::R], taken per block of anchors.
    """
    if not split:
        step = max(1, TRIG_ELEMENTS // half.size)
        for t0 in range(0, len(gts), step):
            x = np.multiply.outer(gts[t0 : t0 + step], half)
            np.sin(x, out=x)
            yield t0, x
        return
    cos_b = np.multiply.outer(gts[:split], half)
    sin_b = np.sin(cos_b)
    np.cos(cos_b, out=cos_b)
    anchors = gts[::split]
    step = max(1, TRIG_ELEMENTS // (split * half.size))
    # buffers reused by every block: the caller still holds the last block
    # while the next one is formed, so fresh arrays would double the peak
    x, product = np.empty((2, min(step, anchors.size), split, half.size))
    for a0 in range(0, anchors.size, step):
        angle = np.multiply.outer(anchors[a0 : a0 + step], half)[:, None]
        block, terms = x[: len(angle)], product[: len(angle)]
        np.multiply(np.sin(angle), cos_b, out=block)
        block += np.multiply(np.cos(angle), sin_b, out=terms)
        t0 = a0 * split
        yield t0, block.reshape(-1, half.size)[: len(gts) - t0]


def _add_chunk(variant, keys, ratio, weight, gts, split, out):
    """Add the weighted sum over one chunk of Fock pairs to every row of ``out``.

    The points come in ascending order of their keys, with their ratios r
    and thermal weights.  Per distinct key the three moments sum w,
    sum w r and sum w r^2 are taken before the time loop, and the table
    (COEFFICIENTS) maps them to the weighted sums of the constant, x- and
    x^2-coefficient of each element, so the sines (see _sines, with
    ``split`` from _offset_count) are taken per distinct key.  A function of
    its own so that one chunk's arrays are freed before the next chunk's are
    built.
    """
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    group = np.cumsum(first) - 1
    weighted = weight * ratio
    # np.bincount adds in index order: deterministic, and no BLAS
    moments = np.array(
        [
            np.bincount(group, weight),
            np.bincount(group, weighted),
            np.bincount(group, weighted * ratio),
        ]
    )
    coef = _expand(variant, moments)
    const = coef[:, 0].sum(axis=1)
    # Omega / 2 = sqrt(key + 1) / 2, the same float as block_frequency gives
    for t0, x in _sines(0.5 * np.sqrt(keys[first] + 1), gts, split):
        np.square(x, out=x)
        x *= 2.0
        rows = np.einsum("tp,kp->tk", x, coef[:, 1])
        np.square(x, out=x)
        rows += np.einsum("tp,kp->tk", x, coef[:, 2])
        rows += const
        out[t0 : t0 + len(x)] += rows


def thermal_sweep(variant, w1, w2, gts, rows=None):
    """Thermally weighted X-state elements for every time in ``gts``.

    Returns one row (A, B, C, D, E) per time, shape (len(gts), 5): the sum of
    xstate_term(variant, n1, n2, gt) weighted by w1[n1]*w2[n2] over the Fock
    set whose row n1 holds n2 = 0..rows[n1] (rows=None: every n2 < len(w2)).
    ``w1`` and ``w2`` are the weights over the set's extent, len(rows) and
    max(rows) + 1 long.  The set's points, taken row by row, are stably
    sorted by their key (2 m1 + 1)(2 m2 + 1) = Omega^2 - 1 and cut into
    chunks of BLOCK_ELEMENTS points; per chunk each point's ratio
    r = f1 f2 / (key + 1) (see _mode_factors) and weight are gathered, three
    np.bincount calls sum w, w r and w r^2 per distinct key, and the
    coefficient table expands those moments into the weighted coefficient
    sums of that key.  For each block of times (about TRIG_ELEMENTS
    frequencies x times) x = 2 sin^2(Omega gt / 2) is formed once per
    distinct block frequency and time.  The sines come from one np.sin
    each, or, where _offset_count finds that ``gts`` splits into R offsets
    and anchors (a uniform grid from 0 of about 64 times or more), from
    sin(A + B) = sin A cos B + cos A sin B, with 2 (ceil(T / R) + R) sin and
    cos evaluations per frequency instead of T; any other ``gts`` takes one
    np.sin per frequency and time.  A chunk adds two np.einsum reductions,
    over x and over x^2, plus its constant terms to the rows; the chunks
    are added in ascending frequency order.
    """
    odd1, f1 = _mode_factors(variant, np.arange(len(w1)))
    odd2, f2 = _mode_factors(variant, np.arange(len(w2)))
    counts = np.full(len(w1), len(w2)) if rows is None else np.asarray(rows) + 1
    # flat indices n1 len(w2) + n2 of the set's points, built row by row
    flat = np.repeat(np.arange(counts.size) * len(w2) - (np.cumsum(counts) - counts), counts)
    flat += np.arange(flat.size)
    n1, n2 = np.divmod(flat, len(w2))
    order = flat[np.argsort(odd1[n1] * odd2[n2], kind="stable")]
    del flat, n1, n2  # the chunks need only the order
    out = np.zeros((len(gts), 5))
    split = _offset_count(gts)
    for lo in range(0, order.size, BLOCK_ELEMENTS):
        n1, n2 = np.divmod(order[lo : lo + BLOCK_ELEMENTS], len(w2))
        keys = odd1[n1] * odd2[n2]
        ratio = f1[n1] * f2[n2] / (keys + 1)
        _add_chunk(variant, keys, ratio, w1[n1] * w2[n2], gts, split, out)
    return out
