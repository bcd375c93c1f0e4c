"""Summation kernel: per-Fock-pair X-states and their thermally weighted sum.

One numpy formula gives the X-state elements of a pure initial state with the
field in |n1, n2>, broadcast over arrays of Fock indices.  The sweep evaluates
it on row blocks of the Fock grid and reduces each block with np.sum in a
fixed order (no BLAS), so reruns on the same inputs give identical output.
"""

import numpy as np

# initial-state codes, equal to the two-atom basis index
EE, EG, GE, GG = 0, 1, 2, 3

# grid points evaluated at once by thermal_sweep: bounds its temporaries
BLOCK_ELEMENTS = 4096


def block_frequency(m1, m2):
    """Effective block frequency sqrt(2[(m1+1)(m2+1) + m1 m2]) in units of g."""
    return np.sqrt(2.0 * ((m1 + 1.0) * (m2 + 1.0) + m1 * m2))


def xstate_term(code, n1, n2, gt):
    """Single-Fock-pair X-state elements (A, B, C, D, E) at dimensionless time gt.

    These are the unweighted per-term summands of the thermal double sum for
    the pure initial state ``code`` with the field in |n1, n2>.  ``n1`` and
    ``n2`` may be scalars or arrays that broadcast against each other; each
    element comes back with their broadcast shape.

    The state starts in the ladder of block (m1, m2), whose lower step
    |++>|m1-1, m2-1> <-> middle couples with u = m1 m2 and whose upper step
    middle <-> |-->|m1+1, m2+1> couples with v = (m1+1)(m2+1).
    """
    n1 = np.asarray(n1, dtype=np.float64)
    n2 = np.asarray(n2, dtype=np.float64)
    if code == EE:
        m1, m2 = n1 + 1.0, n2 + 1.0
        u, v = m1 * m2, (m1 + 1.0) * (m2 + 1.0)
    elif code == GG:
        # with an empty mode v = 0 and the state is stationary; clamping the
        # block index keeps its (unused) frequency finite
        m1, m2 = np.maximum(n1 - 1.0, 0.0), np.maximum(n2 - 1.0, 0.0)
        u, v = m1 * m2, n1 * n2
    else:
        m1, m2 = n1, n2
        u, v = n1 * n2, (n1 + 1.0) * (n2 + 1.0)
    w = block_frequency(m1, m2)
    th = w * gt
    s = np.sin(th)
    c = np.cos(th)
    sf = s * s / (w * w)
    cf = 2.0 * (c - 1.0) / (w * w)

    if code == EE:
        bce = u * sf
        return (np.square(1.0 + u * cf), bce, bce, u * v * (cf * cf), bce)
    if code == GG:
        bce = v * sf
        return (u * v * (cf * cf), bce, bce, np.square(1.0 + v * cf), bce)
    # cos^4(th/2) and sin^4(th/2)
    cos4 = np.square(0.5 * (1.0 + c))
    sin4 = np.square(0.5 * (1.0 - c))
    e = -0.25 * (s * s)
    if code == EG:
        return (u * sf, cos4, sin4, v * sf, e)
    return (u * sf, sin4, cos4, v * sf, e)


def thermal_sweep(code, w1, w2, gts, out):
    """Thermally weighted X-state elements for every time in ``gts``.

    Writes one row (A, B, C, D, E) per time sample into ``out``.  Each row is
    the double sum of xstate_term over the (n1, n2) grid weighted by
    w1[n1]*w2[n2]: a pairwise np.sum within each block of grid rows, and the
    block sums added in ascending row order.
    """
    n2 = np.arange(len(w2), dtype=np.float64)
    rows = max(1, BLOCK_ELEMENTS // len(w2))
    out[:] = 0.0
    for lo in range(0, len(w1), rows):
        hi = min(lo + rows, len(w1))
        n1 = np.arange(lo, hi, dtype=np.float64)[:, None]
        weight = (w1[lo:hi, None] * w2).ravel()
        for i, gt in enumerate(gts):
            terms = np.stack(xstate_term(code, n1, n2, gt))
            out[i] += (terms.reshape(5, -1) * weight).sum(axis=1)
