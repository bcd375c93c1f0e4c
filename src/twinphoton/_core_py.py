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

xstate_term evaluates the table at one point.  thermal_sweep bins the Fock
set by key once, with no sort (one bin per odd integer up to the largest key,
O(extent) bins; a point's group is the rank of its bin among the occupied
ones, scattered into an array over the bins, with no prefix sum), and sums,
per distinct key, the three moments sum w, sum w r and sum w r^2 of the
thermal weights w before the time loop.  It then contracts x and x^2 over
blocks of distinct frequencies, each with only the moments that the
variant's table reads at that power (READS), and the table maps the sums to
one row per time; at gt = 0 (x = 0) that row is the constant terms.  It
takes one sin per distinct block frequency and time, or, on a uniform grid
from 0, fewer trig evaluations, by angle addition or by rotation;
_trig_split states the rule that picks the path and _sines takes the sines.

Reductions use np.sum, np.bincount and np.einsum (no BLAS) in a fixed order,
so the output does not depend on the BLAS thread count and reruns give
identical output.
"""

import math

import numpy as np

# distinct frequencies x times per trig block: bounds thermal_sweep's
# temporaries and sizes its blocks of frequencies (see _sines)
TRIG_ELEMENTS = 16384

# bound on the peak bytes a kernel pass holds per Fock pair of a set of 1e5 pairs
# or more: _moments holds at most four point-sized 8-byte arrays and 8 B per key
# bin at a time, and on a set of one row (or one column) the long mode's factor
# arrays are point-sized too; by tracemalloc, 42.6 B on a chosen staircase at
# nbar 30,30 (a bin per pair), 51.1 B on a 320,320 rectangle (two), 64.0 B on one
# row (one to three) and 72.0 B on one column (one)
PAIR_BYTES = 100


def _mode_factors(variant, n):
    """Per-mode factors (2m + 1, f) of the key and of r for Fock indices ``n`` of one mode.

    m is the block index of the ladder that ``variant`` with n photons starts
    in: ee starts on the bottom rung (m = n + 1), eg and ge on the middle one
    (m = n) and gg on the top one (m = n - 1).  With an empty mode gg is
    stationary; clamping its block index at 0 keeps the (unused) frequency
    finite.  A pair's key (2 m1 + 1)(2 m2 + 1) is Omega^2 - 1 and its ratio is
    r = f1 f2 / Omega^2.  The state starts in the ladder of block (m1, m2),
    whose lower step |++>|m1-1, m2-1> <-> middle couples with u = m1 m2 and
    whose upper step middle <-> |-->|m1+1, m2+1> with v = (m1+1)(m2+1): f = m
    gives r = p = u / Omega^2 (ee, eg, ge), and for gg, which starts on the
    top rung |-->|n1, n2>, f = n gives r = q = v / Omega^2 with v = n1 n2,
    which is 0 where m is clamped.  Keeps the dtype of ``n``.
    """
    m = np.maximum(n + {"ee": 1, "gg": -1}.get(variant, 0), 0)
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

# READS[variant][j - 1]: the contiguous moments d (a slice of (1, r, r^2)) whose
# coefficients of x^j, j = 1, 2, the variant's table reads: r for x and r, r^2
# for x^2 in ee and gg, 1, r for both in eg and ge
READS = {
    variant: tuple(
        slice(used[0], used[-1] + 1)
        for used in (np.flatnonzero(table[:, j].any(axis=0)) for j in (1, 2))
    )
    for variant, table in COEFFICIENTS.items()
}


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
    # the table contracted with (1, r, r^2) over the powers of r: shape (5, 3, *r.shape)
    powers = np.array([np.ones_like(r), r, r * r])
    coef = np.einsum("kjd,d...->kj...", COEFFICIENTS[variant], powers)
    x = 2.0 * np.square(np.sin(0.5 * np.sqrt(omega_sq) * gt))
    return tuple(coef[:, 0] + x * coef[:, 1] + (x * x) * coef[:, 2])


def _trig_split(gts):
    """How _sines takes the sines of ``gts``: R > 1 by angle addition, 1 by rotation, 0 one np.sin each.

    The kernel's one path rule.  Fewer than two times, or any time off
    k gts[1] by more than 2 eps gts[k], give 0: one np.sin per frequency and
    time.  Every other ``gts`` is a uniform grid from 0, as TimeGrid.points()
    and np.linspace(0, ...) are, and gives
    R = min(TRIG_ELEMENTS // 2, isqrt(T)) where 4 (ceil(T / R) + R) <= T (at
    64 times and from 68 on): angle addition from R offsets and ceil(T / R)
    anchors, 2 (ceil(T / R) + R) sin and cos evaluations per frequency
    instead of T, which at least halves them.  A shorter uniform grid gives
    1: rotation, 2 trig evaluations per frequency, whose rounding grows with
    the number of steps, which stays below 67.  R <= TRIG_ELEMENTS // 2, so
    that a block of TRIG_ELEMENTS // (2 R) frequencies (see _sines) holds at
    least one.
    """
    size = len(gts)
    if size < 2:
        return 0
    error = np.abs(np.arange(size) * gts[1] - gts)
    if not (error <= 2.0 * np.finfo(float).eps * gts).all():
        return 0
    split = min(TRIG_ELEMENTS // 2, math.isqrt(size))
    return split if 4 * (-(-size // split) + split) <= size else 1


def _sines(half, gts, split):
    """Yield (f0, t0, sin(gts[t0 : t0 + n] x half[f0 : f0 + m])) for blocks of frequencies and times.

    The distinct frequencies ``half`` (Omega / 2, ascending) are taken in
    blocks of m = TRIG_ELEMENTS // T, or, on the angle-addition path
    (split = R > 1, see _trig_split), TRIG_ELEMENTS // (2 R); each block runs
    over all the times before the next one starts, in blocks of whole groups
    of max(R, 1) times that keep n x m <= TRIG_ELEMENTS (without angle
    addition, one block of times unless T > TRIG_ELEMENTS).  Per block of
    frequencies the path sets up its trig, and per block of times it fills
    the rows.  With split = 0 each element is one np.sin.  With split = 1
    (rotation) the cos and sin of phi = half x gts[1] are taken once per
    block of frequencies, and row k is the imaginary part of w^k,
    w = cos phi + i sin phi, formed by one complex multiply per row.  With
    split = R the sines are sin(A + B) = sin A cos B + cos A sin B, from the
    sin and cos of half x the R offsets gts[:R], taken once per block of
    frequencies, and of half x the anchors gts[t0::R], taken per block of
    times.  Every block is a view of one reused buffer: the caller may
    overwrite it, but is done with it before the next one is formed.
    """
    # outer products go through np.einsum: np.multiply buffers each broadcast
    # operand (64 KB apiece), which would raise the sweeps' peak memory
    size, span = len(gts), max(split, 1)
    width = max(1, TRIG_ELEMENTS // max(1, 2 * split if split > 1 else size))
    buffer = np.empty(min(TRIG_ELEMENTS, -(-size // span) * span * min(width, half.size)))
    # angle addition's second term, and rotation's steps w and powers w^k,
    # one per frequency of a block
    product = np.empty_like(buffer) if split > 1 else None
    turns = np.empty((2, min(width, half.size) if split == 1 else 0), complex)
    for f0 in range(0, half.size, width):
        freqs = half[f0 : f0 + width]
        if split == 1:
            w, z = turns[:, : freqs.size]
            np.multiply(freqs, gts[1], out=z.real)
            np.cos(z.real, out=w.real)
            np.sin(z.real, out=w.imag)
            z.fill(1.0)
        elif split:
            cos_b = np.einsum("r,p->rp", gts[:split], freqs)
            sin_b = np.sin(cos_b)
            np.cos(cos_b, out=cos_b)
        step = TRIG_ELEMENTS // (span * freqs.size) * span
        for t0 in range(0, size, step):
            times = gts[t0 : t0 + step]
            rows = -(-times.size // span) * span
            x = buffer[: rows * freqs.size].reshape(rows, freqs.size)
            if split == 1:
                for row in x:
                    row[...] = z.imag
                    z *= w
            elif split:
                angle = np.einsum("a,p->ap", times[::split], freqs)
                block = x.reshape(-1, split, freqs.size)
                terms = product[: x.size].reshape(block.shape)
                np.einsum("ap,rp->arp", np.sin(angle), cos_b, out=block)
                block += np.einsum("ap,rp->arp", np.cos(angle), sin_b, out=terms)
            else:
                np.einsum("t,p->tp", times, freqs, out=x)
                np.sin(x, out=x)
            yield f0, t0, x[: times.size]


def _moments(variant, w1, w2, rows):
    """Distinct Omega^2 = key + 1 of the Fock set, ascending, and their moments.

    Returns (omega_sq, moments) with moments[:, i] = (sum w, sum w r,
    sum w r^2) over the set's points of the i-th distinct Omega^2.  No sort:
    Omega^2 = key + 1 is even, so Omega^2 / 2 - 1 bins the points directly.
    The F occupied bins, found once by np.flatnonzero in ascending order,
    are the distinct Omega^2, and a point's group is its bin's rank among
    them, read from an array over the bins into which 0 .. F - 1 are
    scattered at the occupied bins (no prefix sum over the bins).  Each
    moment is one np.bincount over the points in the set's row-by-row
    order.  The bins number (max key + 1) / 2 <=
    ((2 n_max1 + 3)(2 n_max2 + 3) + 1) / 2, at most about twice the extent
    rectangle.  A function of its own so that the point arrays are freed
    before the time loop's are built.
    """
    # the set's points row by row: row n1 holds n2 = 0 .. rows[n1], so a row
    # factor repeats over the row's rows[n1] + 1 points and a column factor is
    # taken at n2; each point array is built in place and freed once used
    counts = rows + 1
    n2 = np.arange(counts.sum())
    n2 -= np.repeat(np.cumsum(counts) - counts, counts)
    odd, f = _mode_factors(variant, np.arange(len(w2)))
    omega_sq = odd.take(n2)
    ratio = f.take(n2)
    weight = w2.take(n2)
    del n2
    odd, f = _mode_factors(variant, np.arange(len(w1)))
    omega_sq *= np.repeat(odd, counts)
    omega_sq += 1
    ratio *= np.repeat(f, counts)
    del odd, f
    weight *= np.repeat(w1, counts)
    ratio = ratio / omega_sq
    # bin Omega^2 / 2 - 1; a point's group is its bin's rank among the occupied
    bins = omega_sq
    bins >>= 1
    bins -= 1
    present = np.zeros(bins.max() + 1, dtype=bool)
    present[bins] = True
    occupied = np.flatnonzero(present)
    rank = np.empty(present.size, dtype=np.intp)
    del present
    rank[occupied] = np.arange(occupied.size)
    group = rank.take(bins)
    del bins, rank
    # np.bincount adds in index order: deterministic, and no BLAS
    moments = [np.bincount(group, weight)]
    for _ in range(2):
        weight *= ratio
        moments.append(np.bincount(group, weight))
    del group, weight, ratio
    occupied += 1
    occupied *= 2
    return occupied, np.array(moments)


def thermal_sweep(variant, w1, w2, gts, rows):
    """Thermally weighted X-state elements for every time in ``gts``.

    Returns one row (A, B, C, D, E) per time, shape (len(gts), 5): the sum of
    xstate_term(variant, n1, n2, gt) weighted by w1[n1]*w2[n2] over the Fock
    set whose row n1 holds n2 = 0..rows[n1], the limits never increasing.
    ``w1`` and ``w2`` are the weights over the set's extent, len(rows) and
    rows[0] + 1 long.  One pass over the set's points (_moments) bins
    them by key (2 m1 + 1)(2 m2 + 1) = Omega^2 - 1, one bin per odd integer
    up to the largest key (O(extent) bins, no sort), and sums w, w r and
    w r^2 per distinct key, with r = f1 f2 / Omega^2 (see _mode_factors).
    Then, per block of distinct frequencies (_sines: about TRIG_ELEMENTS
    frequencies x times), sin^2(Omega gt / 2) is formed once per distinct
    block frequency and time, and two np.einsum reductions contract it and
    its square with the block's moments that the variant's table reads at
    x and at x^2 (READS: 1 and 2 moments for ee and gg, 2 and 2 for eg and
    ge), scaled by 2 and 4 once per pass, since x = 2 sin^2: the products
    are those of x and x^2 with the moments, bit for bit, unless sin^4
    underflows.  The sums no entry of the table reads stay +0.0.  The
    sines' path, angle addition or rotation on a uniform grid from 0 and
    one np.sin per frequency and time otherwise, is chosen from ``gts``
    alone by the rule that _trig_split states.  The blocks are added in
    ascending frequency order, and the coefficient table maps the summed
    moments, x- and x^2-weighted, to the rows.
    """
    omega_sq, moments = _moments(variant, w1, w2, rows)
    # Omega / 2 = sqrt(key + 1) / 2, with key + 1 = 2[(m1+1)(m2+1) + m1 m2] exact in a double
    half = np.sqrt(omega_sq)
    half *= 0.5
    del omega_sq
    # sums[t, j, d]: the sum over frequencies of x^j times moment d
    sums = np.zeros((len(gts), 3, 3))
    sums[:, 0] = moments.sum(axis=1)
    # x = 2 sin^2 and x^2 = 4 sin^4: the moments each power reads, scaled by 2
    # and 4, are contracted with sin^2 and sin^4; the other sums stay +0.0
    read_x, read_x2 = READS[variant]
    by_x, by_x2 = 2.0 * moments[read_x], 4.0 * moments[read_x2]
    del moments
    for f0, t0, x in _sines(half, gts, _trig_split(gts)):
        block, at = slice(f0, f0 + x.shape[1]), slice(t0, t0 + len(x))
        np.square(x, out=x)
        sums[at, 1, read_x] += np.einsum("tp,dp->td", x, by_x[:, block])
        np.square(x, out=x)
        sums[at, 2, read_x2] += np.einsum("tp,dp->td", x, by_x2[:, block])
    return np.einsum("tjd,kjd->tk", sums, COEFFICIENTS[variant])
