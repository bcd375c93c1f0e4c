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

xstate_term evaluates the table at one point.  thermal_sweep groups the
Fock set by key once and sums, per distinct key, the three moments sum w,
sum w r and sum w r^2 of the thermal weights w before the time loop.  It
then contracts x and x^2 with those moments over blocks of distinct
frequencies, and the table maps the sums to one row per time; at gt = 0
(x = 0) that row is the constant terms.  It takes one sin per distinct
block frequency and time, or, on a uniform grid of enough times from 0,
builds those sines by angle addition from the sin and cos at R offsets and
at every R-th time: about 2 sqrt(T) trig evaluations per frequency instead
of T.

Reductions use np.sum, np.bincount and np.einsum (no BLAS) in a fixed order,
so the output does not depend on the BLAS thread count and reruns give
identical output.
"""

import math

import numpy as np

# distinct frequencies x times per trig block: bounds thermal_sweep's
# temporaries and sizes its blocks of frequencies (see _sines)
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
    halves them.  R <= TRIG_ELEMENTS // 2, so that a block of
    TRIG_ELEMENTS // (2 R) frequencies (see _sines) holds at least one.
    """
    size = len(gts)
    split = min(TRIG_ELEMENTS // 2, math.isqrt(size))
    if split == 0 or 4 * (-(-size // split) + split) > size:
        return 0
    k = np.arange(size)
    offset = k % split
    error = np.abs(gts[k - offset] + gts[offset] - gts)
    return split if (error <= 2.0 * np.finfo(float).eps * gts).all() else 0


def _sines(half, gts, split):
    """Yield (f0, t0, sin(gts[t0 : t0 + n] x half[f0 : f0 + m])) for blocks of frequencies and times.

    The distinct frequencies ``half`` (Omega / 2, ascending) are taken in
    blocks of m = TRIG_ELEMENTS // T, or, on the angle-addition path
    (split = R, see _offset_count), TRIG_ELEMENTS // (2 R); each block runs
    over all the times before the next one starts, in blocks of times that
    keep n x m <= TRIG_ELEMENTS (one block of times, unless T > TRIG_ELEMENTS).
    With split = 0 each element is one np.sin.  With split = R the sines are
    sin(A + B) = sin A cos B + cos A sin B, from the sin and cos of half x
    the R offsets gts[:R], taken once per block of frequencies, and of half x
    the anchors gts[::R], taken per block of times (at least two anchors).
    Every block is a view of one reused buffer: the caller may overwrite it,
    but is done with it before the next one is formed.
    """
    # outer products go through np.einsum: np.multiply buffers each broadcast
    # operand (64 KB apiece), which would raise the sweeps' peak memory
    size = len(gts)
    width = max(1, TRIG_ELEMENTS // max(1, 2 * split if split else size))
    if not split:
        step = TRIG_ELEMENTS // width
        buffer = np.empty(min(step, size) * min(width, half.size))
        for f0 in range(0, half.size, width):
            freqs = half[f0 : f0 + width]
            for t0 in range(0, size, step):
                times = gts[t0 : t0 + step]
                x = buffer[: times.size * freqs.size].reshape(times.size, freqs.size)
                np.einsum("t,p->tp", times, freqs, out=x)
                np.sin(x, out=x)
                yield f0, t0, x
        return
    anchors = gts[::split]
    x, product = np.empty((2, min(TRIG_ELEMENTS, anchors.size * split * min(width, half.size))))
    for f0 in range(0, half.size, width):
        freqs = half[f0 : f0 + width]
        step = TRIG_ELEMENTS // (split * freqs.size)
        cos_b = np.einsum("r,p->rp", gts[:split], freqs)
        sin_b = np.sin(cos_b)
        np.cos(cos_b, out=cos_b)
        for a0 in range(0, anchors.size, step):
            angle = np.einsum("a,p->ap", anchors[a0 : a0 + step], freqs)
            shape = (len(angle), split, freqs.size)
            block = x[: math.prod(shape)].reshape(shape)
            terms = product[: block.size].reshape(shape)
            np.einsum("ap,rp->arp", np.sin(angle), cos_b, out=block)
            block += np.einsum("ap,rp->arp", np.cos(angle), sin_b, out=terms)
            t0 = a0 * split
            yield f0, t0, block.reshape(-1, freqs.size)[: size - t0]


def _moments(variant, w1, w2, rows):
    """Distinct Omega^2 = key + 1 of the Fock set, ascending, and their moments.

    Returns (omega_sq, moments) with moments[:, i] = (sum w, sum w r,
    sum w r^2) over the set's points of the i-th distinct Omega^2.  One
    stable argsort of the points' Omega^2 ranks them; each point's rank is
    scattered back to the set's row-by-row point order, and each moment is
    one np.bincount over the points in that order, so the sums do not depend
    on the order the sort gives equal keys.  A function of its own so that
    the point arrays are freed before the time loop's are built.
    """
    counts = np.full(len(w1), len(w2)) if rows is None else np.asarray(rows) + 1
    # the set's points row by row: row n1 holds n2 = 0 .. counts[n1] - 1
    n1 = np.repeat(np.arange(counts.size), counts)
    n2 = np.arange(n1.size)
    n2 -= np.repeat(np.cumsum(counts) - counts, counts)
    odd1, f1 = _mode_factors(variant, np.arange(len(w1)))
    odd2, f2 = _mode_factors(variant, np.arange(len(w2)))
    # each point array is built in place and each index freed once used:
    # at most five point-sized arrays at a time
    omega_sq = odd1[n1]
    omega_sq *= odd2[n2]
    omega_sq += 1
    ratio = f1[n1]
    ratio *= f2[n2]
    weight = w2[n2]
    del n2
    weight *= w1[n1]
    del n1
    ratio = ratio / omega_sq
    order = np.argsort(omega_sq, kind="stable")
    ordered = omega_sq[order]
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    # each Omega^2's rank among the distinct ones, in sorted order, then each
    # point's group in point order: built in the buffers of the two arrays the
    # sort no longer needs
    rank = omega_sq
    rank[...] = first
    np.cumsum(rank, out=rank)
    rank -= 1
    distinct = np.empty(rank[-1] + 1, dtype=ordered.dtype)
    distinct[rank] = ordered
    group = ordered
    group[order] = rank
    del order, rank, first
    # np.bincount adds in index order: deterministic, and no BLAS
    moments = [np.bincount(group, weight)]
    for _ in range(2):
        weight *= ratio
        moments.append(np.bincount(group, weight))
    del group, weight, ratio
    return distinct, np.array(moments)


def thermal_sweep(variant, w1, w2, gts, rows=None):
    """Thermally weighted X-state elements for every time in ``gts``.

    Returns one row (A, B, C, D, E) per time, shape (len(gts), 5): the sum of
    xstate_term(variant, n1, n2, gt) weighted by w1[n1]*w2[n2] over the Fock
    set whose row n1 holds n2 = 0..rows[n1] (rows=None: every n2 < len(w2)).
    ``w1`` and ``w2`` are the weights over the set's extent, len(rows) and
    max(rows) + 1 long.  One pass over the set's points (_moments) sums
    w, w r and w r^2 per distinct key (2 m1 + 1)(2 m2 + 1) = Omega^2 - 1,
    with r = f1 f2 / Omega^2 (see _mode_factors).  Then, per block of
    distinct frequencies (_sines: about TRIG_ELEMENTS frequencies x times),
    x = 2 sin^2(Omega gt / 2) is formed once per distinct block frequency and
    time, and two np.einsum reductions contract x and x^2 with the block's
    moments.  The sines come from one np.sin each, or, where _offset_count
    finds that ``gts`` splits into R offsets and anchors (a uniform grid from
    0 of about 64 times or more), from sin(A + B) = sin A cos B + cos A sin B,
    with 2 (ceil(T / R) + R) sin and cos evaluations per frequency instead of
    T; any other ``gts`` takes one np.sin per frequency and time.  The blocks
    are added in ascending frequency order, and the coefficient table maps
    the summed moments, x- and x^2-weighted, to the rows.
    """
    omega_sq, moments = _moments(variant, w1, w2, rows)
    # Omega / 2 = sqrt(key + 1) / 2, the same float as block_frequency gives
    half = np.sqrt(omega_sq)
    half *= 0.5
    del omega_sq
    # sums[t, j, d]: the sum over frequencies of x^j times moment d
    sums = np.zeros((len(gts), 3, 3))
    sums[:, 0] = moments.sum(axis=1)
    for f0, t0, x in _sines(half, gts, _offset_count(gts)):
        block, at = moments[:, f0 : f0 + x.shape[1]], slice(t0, t0 + len(x))
        np.square(x, out=x)
        x *= 2.0
        sums[at, 1] += np.einsum("tp,dp->td", x, block)
        np.square(x, out=x)
        sums[at, 2] += np.einsum("tp,dp->td", x, block)
    return np.einsum("tjd,kjd->tk", sums, COEFFICIENTS[variant])
