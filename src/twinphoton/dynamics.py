"""Closed-form reduced-atom dynamics, thermally averaged over the Fock grid.

The collective pair coupling leaves invariant three-level ladders

    |++>|m1-1, m2-1>  <->  (|+-> + |-+>)/sqrt2 |m1, m2>  <->  |-->|m1+1, m2+1>

each oscillating at the single effective frequency Omega_{m1,m2}, while the
antisymmetric combination (|+-> - |-+>)/sqrt2 is dark.  Tracing out the field
therefore leaves an X-shaped two-atom density matrix whose five entries are
weighted lattice sums over the per-block solution, evaluated by the numpy
kernel twinphoton._core_py, called once per distinct pure part of the
initial states a sweep is given.
"""

from __future__ import annotations

import numpy as np

from . import _core_py
from .model import PURE_VARIANTS, InitialAtomicState, XState, _check_times, _count
from .thermal import FockCutoff


def active_backend() -> str:
    """Name of the summation kernel: always 'python' (twinphoton._core_py).

    perfbench/tracing.py finds the kernel module to trace through this name.
    """
    return "python"


def xstate_term(variant: str, n1: int, n2: int, gt: float) -> XState:
    """Unweighted single-Fock-pair X-state for a pure initial atomic state.

    This is the (n1, n2) summand of the thermal average: the reduced atomic
    state after evolving |variant> tensor |n1, n2> for time gt.
    """
    if variant not in PURE_VARIANTS:
        raise ValueError(f"variant must be one of {PURE_VARIANTS}; got {variant!r}")
    if not (_count(n1) and _count(n2)):
        raise ValueError(f"Fock indices must be integers >= 0; got ({n1!r}, {n2!r})")
    # one time: any array gt becomes 2-D here and is rejected
    _check_times(np.array([gt], dtype=np.float64))
    return XState(*map(float, _core_py.xstate_term(variant, n1, n2, gt)))


def sweep(initials: list[InitialAtomicState], gts, cutoff: FockCutoff) -> list[np.ndarray]:
    """Thermal-average X-state elements for several initial states, one row per time.

    Sums the Fock pairs of the set ``cutoff`` describes, row n1 holding
    n2 <= cutoff.rows[n1], with their thermal weights.  Returns one array of
    shape (len(gts), 5) per entry of ``initials``, with columns (A, B, C, D,
    E) = (pop_ee, pop_eg, pop_ge, pop_gg, coherence).  The row trace equals
    the retained thermal mass 1 - cutoff.tail_bound, and every element is
    within cutoff.tail_bound of the untruncated average.

    The evolution is linear in the initial density operator, so each result
    is the weighted sum of one kernel pass per pure part of its state
    (InitialAtomicState.parts), added in the order of the parts.  Each
    distinct pure variant is passed once, in order of first appearance, and
    shared by every state that has it as a part, so each array is the one a
    call on that state alone returns.
    """
    gts = np.ascontiguousarray(gts, dtype=np.float64)
    _check_times(gts)
    w1, w2 = cutoff.weights()
    rows = np.array(cutoff.rows)
    variants = dict.fromkeys(v for initial in initials for v, _ in initial.parts)
    passes = {v: _core_py.thermal_sweep(v, w1, w2, gts, rows) for v in variants}
    out = []
    for initial in initials:
        terms = (w * passes[v] for v, w in initial.parts)
        # start from the first part, not from 0, which would turn its -0.0 entries into 0.0
        out.append(sum(terms, next(terms)))
    return out
