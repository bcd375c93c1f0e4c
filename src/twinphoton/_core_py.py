"""Summation kernel: per-Fock-pair X-states and their thermally weighted sum.

A pure initial state with the field in |n1, n2> stays in one three-level
ladder, which oscillates at the single block frequency Omega.  Each of its
X-state elements is therefore a quadratic polynomial in

    x = 1 - cos(Omega gt) = 2 sin^2(Omega gt / 2),

with coefficients that depend on (n1, n2) only.  Omega^2 - 1 is the odd
integer (2 m1 + 1)(2 m2 + 1) of the block indices, so many grid points share a
frequency.  Each function takes a pure initial state by its variant name
("ee", "eg", "ge", "gg").  term_coefficients writes the physics once;
xstate_term evaluates it at one point, and thermal_sweep sums the thermally
weighted coefficients of all grid points that share a block frequency before
the time loop and returns one row per time; at gt = 0 (x = 0) that row is the
constant terms.  It takes one sin per distinct block frequency and time, or,
on a uniform grid of enough times from 0, builds those sines by angle
addition from the sin and cos at R offsets and at every R-th time: about
2 sqrt(T) trig evaluations per frequency instead of T.

Reductions use np.sum, np.bincount and np.einsum (no BLAS) in a fixed order,
so the output does not depend on the BLAS thread count and reruns give
identical output.
"""

import math

import numpy as np

# grid points per coefficient chunk, and distinct frequencies x times per trig
# block: together they bound thermal_sweep's temporaries
BLOCK_ELEMENTS = 1024
TRIG_ELEMENTS = 16384


def block_frequency(m1, m2):
    """Effective block frequency sqrt(2[(m1+1)(m2+1) + m1 m2]) in units of g."""
    return np.sqrt(2.0 * ((m1 + 1.0) * (m2 + 1.0) + m1 * m2))


def _block_index(variant, n):
    """Block index m, per mode, of the ladder that ``variant`` with n photons starts in.

    ee starts on the bottom rung (m = n + 1), eg and ge on the middle one
    (m = n) and gg on the top one (m = n - 1).  With an empty mode gg is
    stationary; clamping its block index at 0 keeps the (unused) frequency
    finite.  Keeps the dtype of ``n``.
    """
    return np.maximum(n + {"ee": 1, "gg": -1}.get(variant, 0), 0)


def term_coefficients(variant, n1, n2):
    """Half block frequency and x-polynomial coefficients of each X-state element.

    Returns ``(half, coef)``.  ``coef`` has shape (5, 3, *shape), where shape
    is the broadcast shape of ``n1`` and ``n2``: element k of (A, B, C, D, E)
    is coef[k, 0] + coef[k, 1] x + coef[k, 2] x^2 with
    x = 2 sin^2(half * gt).

    The state starts in the ladder of block (m1, m2), whose lower step
    |++>|m1-1, m2-1> <-> middle couples with u = m1 m2 and whose upper step
    middle <-> |-->|m1+1, m2+1> couples with v = (m1+1)(m2+1).  With
    p = u/Omega^2 and q = v/Omega^2 the elements are built from x(2-x)
    (= sin^2), (1 - 2 p x)^2 and x^2.
    """
    n1 = np.asarray(n1, dtype=np.float64)
    n2 = np.asarray(n2, dtype=np.float64)
    m1, m2 = _block_index(variant, n1), _block_index(variant, n2)
    u = m1 * m2
    # gg starts on the top rung |-->|n1, n2>, so v = n1 n2 even where m is clamped
    v = n1 * n2 if variant == "gg" else (m1 + 1.0) * (m2 + 1.0)
    w = block_frequency(m1, m2)
    p = u / (w * w)
    q = v / (w * w)
    coef = np.zeros((5, 3) + w.shape)

    def sin_sq(k, scale):  # scale * x(2 - x)
        coef[k, 1] = 2.0 * scale
        coef[k, 2] = -scale

    def ladder_end(k, r):  # (1 - 2 r x)^2
        coef[k, 0] = 1.0
        coef[k, 1] = -4.0 * r
        coef[k, 2] = 4.0 * r * r

    if variant == "ee":
        ladder_end(0, p)
        for k in (1, 2, 4):
            sin_sq(k, p)
        coef[3, 2] = 4.0 * p * q
    elif variant == "gg":
        coef[0, 2] = 4.0 * p * q
        for k in (1, 2, 4):
            sin_sq(k, q)
        ladder_end(3, q)
    else:
        # cos^4(th/2) = (1 - x/2)^2 and sin^4(th/2) = x^2/4 on the middle rung
        stay, leave = (1, 2) if variant == "eg" else (2, 1)
        sin_sq(0, p)
        coef[stay, 0], coef[stay, 1], coef[stay, 2] = 1.0, -1.0, 0.25
        coef[leave, 2] = 0.25
        sin_sq(3, q)
        sin_sq(4, -0.25)
    return 0.5 * w, coef


def xstate_term(variant, n1, n2, gt):
    """Single-Fock-pair X-state elements (A, B, C, D, E) at dimensionless time gt.

    These are the unweighted per-term summands of the thermal double sum for
    the pure initial state ``variant`` with the field in |n1, n2>.  ``n1`` and
    ``n2`` may be scalars or arrays that broadcast against each other; each
    element comes back with their broadcast shape.
    """
    half, coef = term_coefficients(variant, n1, n2)
    x = 2.0 * np.square(np.sin(half * gt))
    return tuple(coef[:, 0] + x * coef[:, 1] + (x * x) * coef[:, 2])


def _odd_factors(variant, size):
    """Odd factor 2m+1 of the block index m of each Fock index 0..size-1 of one mode.

    Omega^2 - 1 = (2 m1 + 1)(2 m2 + 1), so the product of the two modes'
    factors identifies a grid point's block frequency exactly.
    """
    return 2 * _block_index(variant, np.arange(size)) + 1


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


def _add_chunk(variant, n1, n2, keys, weight, gts, split, out):
    """Add the weighted sum over one chunk of grid points to every row of ``out``.

    The points come in ascending order of their frequency keys.  Points that
    share a key are summed into one x- and one x^2-coefficient per element
    before the time loop, so the sines (see _sines, with ``split`` from
    _offset_count) are taken per distinct key.  A function of its own so that
    one chunk's arrays are freed before the next chunk's are built.
    """
    half, coef = term_coefficients(variant, n1, n2)
    coef *= weight
    const = coef[:, 0].sum(axis=1)
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    group = np.cumsum(first) - 1
    # np.bincount adds in index order: deterministic, and no BLAS
    sums = np.array([[np.bincount(group, c) for c in element[1:]] for element in coef])
    for t0, x in _sines(half[first], gts, split):
        np.square(x, out=x)
        x *= 2.0
        rows = np.einsum("tp,kp->tk", x, sums[:, 0])
        np.square(x, out=x)
        rows += np.einsum("tp,kp->tk", x, sums[:, 1])
        rows += const
        out[t0 : t0 + len(x)] += rows


def thermal_sweep(variant, w1, w2, gts):
    """Thermally weighted X-state elements for every time in ``gts``.

    Returns one row (A, B, C, D, E) per time, shape (len(gts), 5): the double
    sum of xstate_term(variant, n1, n2, gt) over the (n1, n2) grid weighted by
    w1[n1]*w2[n2].  The grid points are stably sorted by block frequency and
    cut into chunks of BLOCK_ELEMENTS points; per chunk the weighted
    coefficients of all points that share a frequency are summed once, and
    for each block of times (about TRIG_ELEMENTS frequencies x times)
    x = 2 sin^2(Omega gt / 2) is formed once per distinct block frequency and
    time.  The sines come from one np.sin each, or, where _offset_count
    finds that ``gts`` splits into R offsets and anchors (a uniform grid
    from 0 of about 64 times or more), from sin(A + B) = sin A cos B +
    cos A sin B, with 2 (ceil(T / R) + R) sin and cos evaluations per
    frequency instead of T; any other ``gts`` takes one np.sin per
    frequency and time.  A chunk adds two np.einsum reductions, over x and
    over x^2, plus its constant terms to the rows; the chunks are added in
    ascending frequency order.
    """
    odd1, odd2 = _odd_factors(variant, len(w1)), _odd_factors(variant, len(w2))
    order = np.argsort(np.multiply.outer(odd1, odd2).ravel(), kind="stable")
    out = np.zeros((len(gts), 5))
    split = _offset_count(gts)
    for lo in range(0, order.size, BLOCK_ELEMENTS):
        n1, n2 = np.divmod(order[lo : lo + BLOCK_ELEMENTS], len(w2))
        _add_chunk(variant, n1, n2, odd1[n1] * odd2[n2], w1[n1] * w2[n2], gts, split, out)
    return out
