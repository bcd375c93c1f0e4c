"""Shared invariant checks and independent references for the test modules."""

import math

import numpy as np

from twinphoton import _core_py
from twinphoton.dynamics import sweep
from twinphoton.model import InitialAtomicState
from twinphoton.oracle import _collective_lowering, reduce_atoms, trace_pairs

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


def assert_bit_identical(a, b):
    """a and b hold the same floats bit for bit: equal values and equal signs, -0.0 included."""
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


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


def thermal_weight(nbar, n):
    """Probability of n photons in a thermal mode with mean nbar, nbar^n / (1 + nbar)^(n+1).

    In ratio form, (nbar/(1+nbar))^n / (1+nbar), so large n cannot overflow;
    the vacuum nbar = 0 gives delta_{n,0}.
    """
    if nbar == 0.0:
        return 1.0 if n == 0 else 0.0
    return (nbar / (1.0 + nbar)) ** n / (1.0 + nbar)


def block_frequency(m1, m2):
    """Effective block frequency sqrt(2[(m1+1)(m2+1) + m1 m2]) in units of g.

    Its square is key + 1 with key = (2 m1 + 1)(2 m2 + 1), an integer, so
    the kernel's sqrt(key + 1) gives the same float wherever the key is
    exact in a double.
    """
    return np.sqrt(2.0 * ((m1 + 1.0) * (m2 + 1.0) + m1 * m2))


def annihilation(n_max):
    """Truncated photon annihilation operator on Fock states |0..n_max>, as a dense matrix."""
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)


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


def full_contraction_sweep(variant, w1, w2, gts, rows):
    """_core_py.thermal_sweep with x and x^2 contracted with all three moments.

    The reference for the kernel's contraction: per block of _sines, x =
    2 sin^2 is formed elementwise, and x and x^2 are each contracted with
    every moment (1, r, r^2), whether or not the variant's table reads it.
    """
    omega_sq, moments = _core_py._moments(variant, w1, w2, rows)
    half = np.sqrt(omega_sq)
    half *= 0.5
    sums = np.zeros((len(gts), 3, 3))
    sums[:, 0] = moments.sum(axis=1)
    for f0, t0, x in _core_py._sines(half, gts, _core_py._trig_split(gts)):
        block, at = moments[:, f0 : f0 + x.shape[1]], slice(t0, t0 + len(x))
        np.square(x, out=x)
        x *= 2.0
        sums[at, 1] += np.einsum("tp,dp->td", x, block)
        np.square(x, out=x)
        sums[at, 2] += np.einsum("tp,dp->td", x, block)
    return np.einsum("tjd,kjd->tk", sums, _core_py.COEFFICIENTS[variant])


def sine_blocks(monkeypatch, run, *args):
    """run(*args)'s result, and the starts (f0, t0) of the blocks that _sines yields in it."""
    starts = []
    sines = _core_py._sines

    def recording(half, gts, split):
        for f0, t0, x in sines(half, gts, split):
            starts.append((f0, t0))
            yield f0, t0, x

    with monkeypatch.context() as patch:
        patch.setattr(_core_py, "_sines", recording)
        return run(*args), starts


def frequency_blocks(monkeypatch, variant, gts, cutoff):
    """Blocks of distinct frequencies one kernel pass of the pure ``variant`` takes over ``cutoff``'s set."""
    _, starts = sine_blocks(monkeypatch, sweep, [InitialAtomicState(variant)], gts, cutoff)
    return len({f0 for f0, _ in starts})


def evolve_and_trace(prop, columns, times, weights=(1.0,)):
    """(T, 4, 4) weighted reduced atomic matrices of unit columns at 1-D times, by the oracle.

    The oracle's one path in four steps: plan the columns (flat indices),
    find their trace pairs, evolve the plan into a fresh array and trace it.
    ``weights`` are the column weights; the default weighs one column by 1.
    """
    plan = prop.plan(columns)
    pairs = trace_pairs(plan.states, prop.hamiltonian.shape[0])
    times = np.asarray(times, dtype=float)
    out = np.empty(plan.states.shape + times.shape, dtype=complex)
    rows = prop.evolve_basis_batch(plan, times, out).reshape(plan.states.size, -1)
    return reduce_atoms(rows, np.asarray(weights, dtype=float), pairs)


def dense_columns(states, amplitudes, dim):
    """The (dim, K) complex array of one time of a block-coordinate batch, one state per column.

    ``states`` are a ColumnPlan's (K, S) states on a space of dimension
    ``dim`` and ``amplitudes`` their (K, S) amplitudes at one time; the
    padding, state -1, is skipped.
    """
    inside = states >= 0
    column = np.broadcast_to(np.arange(states.shape[0])[:, None], states.shape)
    psi = np.zeros((dim, states.shape[0]), dtype=complex)
    np.add.at(psi, (states[inside], column[inside]), amplitudes[inside])
    return psi


def dense_reduce_atoms(psi, weights):
    """Weighted reduced two-atom density matrix sum_k w_k Tr_field |psi_k><psi_k|, densely.

    ``psi`` holds one joint state per column, shape (4 F, K) with F the field
    dimension (flat_index order), and ``weights`` the K column weights.
    """
    return (psi * weights).reshape(4, -1) @ psi.reshape(4, -1).conj().T


def masked_reduce_atoms(states, amplitudes, dim, weights):
    """reduce_atoms by the full product of each column's amplitudes, masked afterwards.

    ``states`` are a ColumnPlan's (K, S) states on a space of dimension
    ``dim``, ``amplitudes`` their (T, K, S) amplitudes, time first.  Forms
    w_k a_i conj(a_j) for every pair of slots of every column and time,
    keeps the pairs whose states share a field index, the padding (state -1)
    skipped, and adds them with one bincount in (time, k, i, j) order: the
    reference for the terms and the order of reduce_atoms, which gathers
    only those pairs.  Returns the (T, 4, 4) stack.
    """
    atom, field = np.divmod(states, dim // 4)
    inside = states >= 0
    shared = field[:, :, None] == field[:, None, :]
    shared &= inside[:, :, None] & inside[:, None, :]
    pair = (4 * atom[:, :, None] + atom[:, None, :])[shared]
    weighted = amplitudes * np.asarray(weights, dtype=float)[:, None]
    terms = (weighted[:, :, :, None] * amplitudes[:, :, None, :].conj())[:, shared]
    bins = 16 * amplitudes.shape[0]
    index = (np.arange(0, bins, 16)[:, None] + pair).ravel()
    terms = terms.ravel()
    rho = np.bincount(index, terms.real, bins) + 1j * np.bincount(index, terms.imag, bins)
    return rho.reshape(-1, 4, 4)


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
