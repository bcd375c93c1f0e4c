"""Shared invariant checks for the test modules."""

import math

import numpy as np

POP_TOL = 1e-12
COHERENCE_TOL = 1e-10


def assert_valid_xstate(state, mass=1.0, mass_tol=1e-10):
    """Check the X-state invariants: population range, trace, coherence bound.

    ``mass`` is the expected trace (1 for per-term states, the retained
    thermal mass for truncated averages).
    """
    a, b, c, d, e = state.as_tuple()
    for name, value in zip("ABCD", (a, b, c, d)):
        assert -POP_TOL <= value <= 1.0 + POP_TOL, f"population {name} out of range: {value}"
    assert abs((a + b + c + d) - mass) <= mass_tol, f"trace {a+b+c+d} != {mass}"
    assert abs(e) <= math.sqrt(b * c) + COHERENCE_TOL, f"coherence {e} exceeds sqrt(B*C)"


def check_density_matrix(
    rho,
    herm_tol=1e-10,
    trace_tol=1e-10,
    positivity_tol=1e-10,
):
    """Assert the two-qubit density-matrix invariants; returns rho unchanged.

    Hermitian within herm_tol, unit trace within trace_tol, eigenvalues above
    -positivity_tol.  Raises ValueError naming the first violated invariant.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix; got shape {rho.shape}")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > herm_tol:
        raise ValueError(f"not Hermitian: max asymmetry {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr} deviates from 1 by more than {trace_tol:.1e}")
    lo = np.linalg.eigvalsh(rho).min()
    if lo < -positivity_tol:
        raise ValueError(f"negative eigenvalue {lo:.3e}")
    return rho
