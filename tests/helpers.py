"""Shared invariant checks for the test modules."""

import math

import numpy as np

from twinphoton import _core_py
from twinphoton.dynamics import sweep
from twinphoton.model import InitialAtomicState
from twinphoton.oracle import _collective_lowering, annihilation

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


def trig_xstate_term(variant, n1, n2, gt):
    """Per-Fock-pair X-state elements (A, B, C, D, E) written in sin/cos of Omega gt.

    The ladder solution in trigonometric form, the reference for the kernel's
    polynomial in x = 1 - cos(Omega gt): one sin and one cos of the block
    angle per term, with cos^4 and sin^4 of the half angle as ((1 +- cos)/2)^2.
    """
    n1 = np.asarray(n1, dtype=np.float64)
    n2 = np.asarray(n2, dtype=np.float64)
    if variant == "ee":
        m1, m2 = n1 + 1.0, n2 + 1.0
        u, v = m1 * m2, (m1 + 1.0) * (m2 + 1.0)
    elif variant == "gg":
        m1, m2 = np.maximum(n1 - 1.0, 0.0), np.maximum(n2 - 1.0, 0.0)
        u, v = m1 * m2, n1 * n2
    else:
        m1, m2 = n1, n2
        u, v = n1 * n2, (n1 + 1.0) * (n2 + 1.0)
    w = np.sqrt(2.0 * ((m1 + 1.0) * (m2 + 1.0) + m1 * m2))
    s = np.sin(w * gt)
    c = np.cos(w * gt)
    sf = s * s / (w * w)
    cf = 2.0 * (c - 1.0) / (w * w)
    if variant == "ee":
        bce = u * sf
        return (np.square(1.0 + u * cf), bce, bce, u * v * (cf * cf), bce)
    if variant == "gg":
        bce = v * sf
        return (u * v * (cf * cf), bce, bce, np.square(1.0 + v * cf), bce)
    cos4 = np.square(0.5 * (1.0 + c))
    sin4 = np.square(0.5 * (1.0 - c))
    e = -0.25 * (s * s)
    if variant == "eg":
        return (u * sf, cos4, sin4, v * sf, e)
    return (u * sf, sin4, cos4, v * sf, e)


def frequency_blocks(monkeypatch, variant, gts, cutoff):
    """Blocks of distinct frequencies one kernel pass of the pure ``variant`` takes over ``cutoff``'s set."""
    starts = set()
    sines = _core_py._sines

    def recording(half, gts, split):
        for f0, t0, x in sines(half, gts, split):
            starts.add(f0)
            yield f0, t0, x

    with monkeypatch.context() as patch:
        patch.setattr(_core_py, "_sines", recording)
        sweep(InitialAtomicState(variant), gts, cutoff)
    return len(starts)


def dense_columns(batch):
    """The (dim, K) complex array of a block-coordinate batch, one evolved state per column.

    ``batch`` is (states, amplitudes, dim) as returned by
    Propagator.evolve_basis_batch; padded entries add amplitude 0.
    """
    states, amplitudes, dim = batch
    psi = np.zeros((dim, states.shape[0]), dtype=complex)
    np.add.at(psi, (states, np.arange(states.shape[0])[:, None]), amplitudes)
    return psi


def dense_reduce_atoms(psi, weights):
    """Weighted reduced two-atom density matrix sum_k w_k Tr_field |psi_k><psi_k|, densely.

    ``psi`` holds one joint state per column, shape (4 F, K) with F the field
    dimension (flat_index order), and ``weights`` the K column weights.
    """
    return (psi * weights).reshape(4, -1) @ psi.reshape(4, -1).conj().T


def masked_reduce_atoms(batch, weights):
    """reduce_atoms by the full product of each column's amplitudes, masked afterwards.

    Forms w_k a_i conj(a_j) for every pair of slots of every column and time,
    keeps the pairs whose states share a field index, and adds them with one
    bincount in (time, k, i, j) order: the reference for the terms and the
    order of reduce_atoms, which gathers only those pairs.
    """
    states, amplitudes, dim = batch
    atom, field = np.divmod(states, dim // 4)
    shared = field[:, :, None] == field[:, None, :]
    pair = (4 * atom[:, :, None] + atom[:, None, :])[shared]
    weighted = amplitudes * np.asarray(weights, dtype=float)[:, None]
    terms = (weighted[..., :, :, None] * amplitudes[..., None, :].conj())[..., shared]
    lead = amplitudes.shape[:-2]
    bins = 16 * int(np.prod(lead, dtype=int))
    index = (np.arange(0, bins, 16)[:, None] + pair).ravel()
    terms = terms.ravel()
    rho = np.bincount(index, terms.real, bins) + 1j * np.bincount(index, terms.imag, bins)
    return rho.reshape(lead + (4, 4))


def dense_hamiltonian(n_max1, n_max2):
    """The oracle's pair-coupling Hamiltonian as one dense matrix, from Kronecker products.

    a1+ a2+ (R1- + R2-) + h.c. on the space truncated at n_max1, n_max2 in
    flat_index order, the reference for the oracle's list of nonzero entries.
    """
    a1 = annihilation(n_max1)
    a2 = annihilation(n_max2)
    emit = np.kron(_collective_lowering(), np.kron(a1.T, a2.T))
    return emit + emit.T


def dense_matrix(sparse):
    """The dense array of a matrix given as its nonzero entries (oracle.SparseMatrix)."""
    dense = np.zeros(sparse.shape)
    np.add.at(dense, (sparse.rows, sparse.cols), sparse.values)
    return dense
