"""Peres-Horodecki negativity for two-qubit states.

Negativity here is -2 times the sum of the negative eigenvalues of the
partial transpose: 0 for separable states, 1 for maximally entangled ones.
X-shaped states admit a closed form; arbitrary 4x4 density matrices (as
produced by the brute-force oracle) go through an eigensolve.
"""

from __future__ import annotations

import math

import numpy as np

from .model import XState

# eigenvalues this close to zero are eigensolver noise, not entanglement
ZERO_EIGENVALUE_TOL = 1e-12

HERMITICITY_TOL = 1e-8


def negativity_x(state: XState) -> float:
    """Closed-form negativity of an X-shaped state.

    The partial transpose moves the coherence into the (|++>, |-->) block, so
    at most one eigenvalue can turn negative, and it does so exactly when the
    squared coherence exceeds pop_ee * pop_gg.  A state with a NaN or
    infinite element gives NaN or inf, never a finite negativity: NaN > x is
    False, so the comparison alone would read such a state as separable.
    """
    a, d, e = state.pop_ee, state.pop_gg, state.coherence
    # a NaN a, d or e fails the comparison and an infinite one makes the value
    # infinite or NaN; pop_eg and pop_ge are not in the formula, so check them
    if e * e > a * d and math.isfinite(state.pop_eg + state.pop_ge):
        return math.sqrt((d - a) * (d - a) + 4.0 * e * e) - d - a
    # finite exactly when every element is, short of elements near the float limit
    if math.isfinite(a + state.pop_eg + state.pop_ge + d + e):
        return 0.0
    return math.nan


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the second atom's indices of a 4x4 two-qubit matrix, or of each in a stack."""
    rho = np.asarray(rho)
    return rho.reshape(*rho.shape[:-2], 2, 2, 2, 2).swapaxes(-3, -1).reshape(rho.shape)


def negativity_general(rho: np.ndarray):
    """Negativity of an arbitrary two-qubit density matrix, or of each in a stack.

    Partial-transposes the second atom, diagonalizes, and returns -2 times
    the sum of the negative eigenvalues (the first atom's partial transpose
    is its transpose, with the same spectrum).  A (4, 4) input gives a
    float, a (..., 4, 4) stack an array of its leading shape from one
    batched eigensolve.  Rejects non-finite and non-Hermitian input.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix; got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix must be finite")
    if np.abs(rho - rho.conj().swapaxes(-2, -1)).max() > HERMITICITY_TOL:
        raise ValueError("density matrix must be Hermitian")
    eigs = np.linalg.eigvalsh(partial_transpose(rho))
    # + 0.0 turns the -0.0 of a separable state into 0.0, as negativity_x returns
    negativity = -2.0 * np.where(eigs < -ZERO_EIGENVALUE_TOL, eigs, 0.0).sum(axis=-1) + 0.0
    return float(negativity) if rho.ndim == 2 else negativity
