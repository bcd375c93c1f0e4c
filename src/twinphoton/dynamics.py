"""Closed-form reduced-atom dynamics, thermally averaged over the Fock grid.

The collective pair coupling leaves invariant three-level ladders

    |++>|m1-1, m2-1>  <->  (|+-> + |-+>)/sqrt2 |m1, m2>  <->  |-->|m1+1, m2+1>

each oscillating at the single effective frequency Omega_{m1,m2}, while the
antisymmetric combination (|+-> - |-+>)/sqrt2 is dark.  Tracing out the field
therefore leaves an X-shaped two-atom density matrix whose five entries are
weighted lattice sums over the per-block solution, evaluated by the numpy
kernel twinphoton._core_py.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _core_py
from .model import ATOM_INDEX, PURE_VARIANTS, InitialAtomicState, ModelParams, XState
from .thermal import FockCutoff, thermal_weight


def active_backend() -> str:
    """Name of the summation kernel: always 'python' (twinphoton._core_py)."""
    return "python"


def rabi(n1: int, n2: int, g: float = 1.0) -> float:
    """Effective frequency g*sqrt(2[(n1+1)(n2+1) + n1 n2]) of the (n1, n2) block."""
    if n1 < 0 or n2 < 0:
        raise ValueError(f"Fock indices must be >= 0; got ({n1}, {n2})")
    return g * float(_core_py.block_frequency(n1, n2))


class BlockFactors(NamedTuple):
    """Per-block evolution factors at one instant.

    omega is the block frequency; sin_factor = (g/omega) sin(omega t) and
    cos_factor = (2 g^2/omega^2)(cos(omega t) - 1) are the two amplitudes the
    matrix elements are built from (both depend only on the product g*t).
    """

    omega: float
    sin_factor: float
    cos_factor: float


def block_factors(n1: int, n2: int, gt: float, g: float = 1.0) -> BlockFactors:
    """Evolution factors of the (n1, n2) block at dimensionless time gt."""
    if n1 < 0 or n2 < 0:
        raise ValueError(f"Fock indices must be >= 0; got ({n1}, {n2})")
    w = float(_core_py.block_frequency(n1, n2))
    th = w * gt
    return BlockFactors(g * w, math.sin(th) / w, 2.0 * (math.cos(th) - 1.0) / (w * w))


def xstate_term(variant: str, n1: int, n2: int, gt: float) -> XState:
    """Unweighted single-Fock-pair X-state for a pure initial atomic state.

    This is the (n1, n2) summand of the thermal average: the reduced atomic
    state after evolving |variant> tensor |n1, n2> for time gt.
    """
    if variant not in PURE_VARIANTS:
        raise ValueError(f"variant must be one of {PURE_VARIANTS}; got {variant!r}")
    if n1 < 0 or n2 < 0:
        raise ValueError(f"Fock indices must be >= 0; got ({n1}, {n2})")
    return XState(*map(float, _core_py.xstate_term(ATOM_INDEX[variant], n1, n2, gt)))


def _weights(nbar: float, n_max: int) -> np.ndarray:
    return np.array([thermal_weight(nbar, n) for n in range(n_max + 1)])


def _check_times(gts: np.ndarray):
    if gts.size and not (np.isfinite(gts).all() and gts.min() >= 0):
        raise ValueError("times gt must be finite and >= 0")


def sweep_pure(
    variant: str, params: ModelParams, gts, cutoff: FockCutoff
) -> np.ndarray:
    """Thermal-average X-state elements for a pure initial state, one row per time.

    Returns an array of shape (len(gts), 5) with columns (A, B, C, D, E) =
    (pop_ee, pop_eg, pop_ge, pop_gg, coherence).  The row trace equals the
    retained thermal mass (1-t1)(1-t2) >= 1 - cutoff.tail_bound, and every
    element is within cutoff.tail_bound of the untruncated average.
    """
    if variant not in PURE_VARIANTS:
        raise ValueError(f"variant must be one of {PURE_VARIANTS}; got {variant!r}")
    gts = np.ascontiguousarray(gts, dtype=np.float64)
    _check_times(gts)
    w1 = _weights(params.nbar1, cutoff.n_max1)
    w2 = _weights(params.nbar2, cutoff.n_max2)
    out = np.empty((gts.shape[0], 5))
    _core_py.thermal_sweep(ATOM_INDEX[variant], w1, w2, gts, out)
    return out


def sweep_mixed(
    excited_weight: float, params: ModelParams, gts, cutoff: FockCutoff
) -> np.ndarray:
    """Same as sweep_pure for the per-atom thermal mixture with weight lambda.

    The evolution is linear in the initial density operator, so the mixture
    is the element-wise combination
    lambda^2 EE + lambda(1-lambda) (EG + GE) + (1-lambda)^2 GG.
    """
    lam = excited_weight
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0,1]; got {lam!r}")
    parts = {v: sweep_pure(v, params, gts, cutoff) for v in PURE_VARIANTS}
    cross = lam * (1.0 - lam)
    return (
        (lam * lam) * parts["ee"]
        + cross * parts["eg"]
        + cross * parts["ge"]
        + ((1.0 - lam) * (1.0 - lam)) * parts["gg"]
    )


def sweep(
    initial: InitialAtomicState, params: ModelParams, gts, cutoff: FockCutoff
) -> np.ndarray:
    """Thermal-average X-state elements for any initial state, one row per time."""
    if initial.variant == "mixed":
        return sweep_mixed(initial.excited_weight, params, gts, cutoff)
    return sweep_pure(initial.variant, params, gts, cutoff)
