import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    annihilation,
    dense_columns,
    dense_hamiltonian,
    dense_matrix,
    dense_reduce_atoms,
    evolve_and_trace,
    masked_reduce_atoms,
)
from twinphoton import dynamics, oracle
from twinphoton.cli import CHECK_DEFAULT_STATES
from twinphoton.model import ATOM_INDEX, InitialAtomicState, TimeGrid, XState
from twinphoton.negativity import negativity_general
from twinphoton.oracle import (
    HEADROOM,
    Propagator,
    _components,
    build_hamiltonian,
    flat_index,
    reduce_atoms,
    thermal_sweep,
    trace_pairs,
    truncation,
)
from twinphoton.thermal import FockCutoff


def evolve(prop, columns, times):
    """The plan of the unit columns (flat indices) and their (K, S, T) amplitudes at 1-D times."""
    plan = prop.plan(columns)
    times = np.asarray(times, dtype=float)
    out = np.empty(plan.states.shape + times.shape, dtype=complex)
    return plan, prop.evolve_basis_batch(plan, times, out)


def term_column(variant, n1, n2, n_max1, n_max2):
    """The one unit column |variant>|n1, n2> on the space truncated at n_max1, n_max2."""
    return [flat_index(ATOM_INDEX[variant], n1, n2, n_max1, n_max2)]


def number_operator(n_max1, n_max2, mode):
    n1 = np.diag(np.arange(n_max1 + 1.0))
    n2 = np.diag(np.arange(n_max2 + 1.0))
    eye4 = np.eye(4)
    if mode == 1:
        return np.kron(eye4, np.kron(n1, np.eye(n_max2 + 1)))
    return np.kron(eye4, np.kron(np.eye(n_max1 + 1), n2))


def excitation_operator(n_max1, n_max2):
    n_exc = np.diag([2.0, 1.0, 1.0, 0.0])  # ee, eg, ge, gg
    return np.kron(n_exc, np.eye((n_max1 + 1) * (n_max2 + 1)))


def test_annihilation_matrix_elements():
    a = annihilation(3)
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2.0)
    expected[2, 3] = math.sqrt(3.0)
    assert np.array_equal(a, expected)


def test_flat_index_enumerates_every_state_once():
    seen = {
        flat_index(atom, n1, n2, 2, 3)
        for atom in range(4)
        for n1 in range(3)
        for n2 in range(4)
    }
    assert seen == set(range(4 * 3 * 4))


def test_hamiltonian_pair_emission_element():
    h = dense_matrix(build_hamiltonian(2, 2))
    row = flat_index(3, 1, 1, 2, 2)  # |--,1,1>
    col = flat_index(1, 0, 0, 2, 2)  # |+-,0,0>
    assert h[row, col] == pytest.approx(1.0, abs=1e-15)


def test_hamiltonian_is_exactly_symmetric_and_real():
    sparse = build_hamiltonian(4, 3)
    h = dense_matrix(sparse)
    assert np.array_equal(h, h.T)
    assert sparse.values.dtype == np.float64


def test_nonzeros_are_the_kronecker_product_hamiltonian():
    # bit for bit the dense H of the ladder operators' Kronecker products, each
    # nonzero listed once
    for n_max1, n_max2 in ((12, 12), (14, 14), (8, 11), (0, 3)):
        h = build_hamiltonian(n_max1, n_max2)
        reference = dense_hamiltonian(n_max1, n_max2)
        assert h.shape == reference.shape
        assert np.array_equal(dense_matrix(h), reference), (n_max1, n_max2)
        assert len(h.values) == np.count_nonzero(reference), (n_max1, n_max2)


def test_ground_state_with_empty_mode_is_stationary():
    h = dense_matrix(build_hamiltonian(5, 5))
    for n in range(6):
        assert not h[:, flat_index(3, n, 0, 5, 5)].any()
        assert not h[:, flat_index(3, 0, n, 5, 5)].any()


def test_antisymmetric_atomic_state_is_dark():
    n_max = 6
    h = dense_matrix(build_hamiltonian(n_max, n_max))
    for n1, n2 in ((0, 0), (1, 3), (4, 4), (2, 0)):
        psi = np.zeros(h.shape[0])
        psi[flat_index(1, n1, n2, n_max, n_max)] = 1.0 / math.sqrt(2.0)
        psi[flat_index(2, n1, n2, n_max, n_max)] = -1.0 / math.sqrt(2.0)
        assert np.abs(h @ psi).max() < 1e-15


def test_conserved_quantities_commute_with_hamiltonian():
    # each de-excitation adds one photon to each mode: N1 + N2 + 2 n_exc is fixed
    h = dense_matrix(build_hamiltonian(4, 5))
    mode_diff = number_operator(4, 5, 1) - number_operator(4, 5, 2)
    total = (
        number_operator(4, 5, 1)
        + number_operator(4, 5, 2)
        + 2.0 * excitation_operator(4, 5)
    )
    assert np.abs(h @ mode_diff - mode_diff @ h).max() < 1e-12
    assert np.abs(h @ total - total @ h).max() < 1e-12


def test_evolve_at_time_zero_is_identity():
    plan, amplitudes = evolve(Propagator(4, 4), term_column("eg", 2, 1, 4, 4), [0.0])
    out = dense_columns(plan.states, amplitudes[..., 0], 4 * 5 * 5)
    unit = np.zeros(out.shape)
    unit[flat_index(ATOM_INDEX["eg"], 2, 1, 4, 4), 0] = 1.0
    assert np.abs(out - unit).max() < 1e-12


def test_propagation_preserves_norm():
    ts = [0.3, 1.1, 4.7, 12.9]
    _, amplitudes = evolve(Propagator(5, 5), term_column("ee", 1, 2, 5, 5), ts)
    for t, norm in zip(ts, np.linalg.norm(amplitudes, axis=(0, 1))):
        assert norm == pytest.approx(1.0, abs=1e-12), t


def test_excitation_swaps_between_atoms():
    # |+-,0,0> returns as -|-+,0,0> after half a cycle of the vacuum block
    gt = math.pi / math.sqrt(2.0)
    rho = evolve_and_trace(Propagator(3, 3), term_column("eg", 0, 0, 3, 3), [gt])[0]
    assert np.abs(np.diag(rho) - np.array([0.0, 0.0, 1.0, 0.0])).max() < 1e-12


def test_basis_batch_matches_individual_columns():
    prop = Propagator(3, 4)
    idx = [flat_index(0, 1, 2, 3, 4), flat_index(3, 0, 0, 3, 4), flat_index(2, 3, 1, 3, 4)]
    energies, v = np.linalg.eigh(dense_hamiltonian(3, 4))
    # the large time is where the rounding of the phases E*t is worst
    ts = [1.7, 37.3]
    plan, amplitudes = evolve(prop, idx, ts)
    for n, t in enumerate(ts):
        batch = dense_columns(plan.states, amplitudes[..., n], prop.hamiltonian.shape[0])
        for k, flat in enumerate(idx):
            # complex reference exp(-iHt) e_flat = V exp(-iEt) V^T e_flat
            evolved = v @ (np.exp(-1j * energies * t) * v[flat, :])
            assert np.abs(batch[:, k] - evolved).max() < 1e-13


def connected_partition(coupled):
    """Components of a symmetric coupling pattern by breadth-first search."""
    unseen = set(range(coupled.shape[0]))
    parts = set()
    while unseen:
        frontier = [unseen.pop()]
        part = set(frontier)
        while frontier:
            new = set(np.flatnonzero(coupled[frontier].any(axis=0)).tolist()) - part
            part |= new
            frontier = list(new)
        unseen -= part
        parts.add(frozenset(part))
    return parts


def test_evolution_matches_the_dense_blocks_at_long_times():
    # every column of an asymmetric truncation with blocks of 1, 3 and 4 states,
    # evolved at a stack of times up to gt = 1e3, against exp(-iHt) = V exp(-iEt) V^T
    # from the eigendecomposition of each connected block of the dense H; the
    # whole dense H's eigh cannot serve at gt = 1e3: its eigenvalues differ from
    # the blocks' by ~1e-15, so its phases there differ by ~1e-12
    n_max1, n_max2 = 4, 2
    prop = Propagator(n_max1, n_max2)
    assert [members.shape[1] for members, _, _ in prop._blocks] == [1, 3, 4]
    h = dense_hamiltonian(n_max1, n_max2)
    dim = h.shape[0]
    ts = np.array([0.0, 0.37, 37.3, 1e3])
    plan, amplitudes = evolve(prop, np.arange(dim), ts)
    blocks = [sorted(part) for part in connected_partition(h != 0)]
    eigen = [np.linalg.eigh(h[np.ix_(block, block)]) for block in blocks]
    for n, t in enumerate(ts):
        reference = np.zeros((dim, dim), dtype=complex)
        for block, (energies, v) in zip(blocks, eigen):
            reference[np.ix_(block, block)] = (v * np.exp(-1j * energies * t)) @ v.T
        evolved = dense_columns(plan.states, amplitudes[..., n], dim)
        assert np.abs(evolved - reference).max() <= 1e-13, t


def test_propagator_stays_inside_the_connected_blocks_of_h():
    prop = Propagator(5, 4)
    coupled = dense_hamiltonian(5, 4) != 0
    h = prop.hamiltonian
    labels = _components(h.rows, h.cols, h.shape[0])
    rows, cols = np.nonzero(coupled)
    assert np.array_equal(labels[rows], labels[cols])
    blocks = {frozenset(np.flatnonzero(labels == label).tolist()) for label in set(labels)}
    assert blocks == connected_partition(coupled)

    # each column lists exactly the states of its own block, padded with state
    # -1 at amplitude 0
    dim = coupled.shape[0]
    plan, amplitudes = evolve(prop, np.arange(dim), [37.3])
    states, amplitudes = plan.states, amplitudes[..., 0]
    assert (states == -1).any()
    for flat in range(dim):
        block = np.flatnonzero(labels == labels[flat])
        assert np.array_equal(np.sort(states[flat, : len(block)]), block)
        assert np.array_equal(states[flat, len(block) :], [-1] * (states.shape[1] - len(block)))
        assert not amplitudes[flat, len(block) :].any()
    evolved = dense_columns(states, amplitudes, dim)
    assert np.abs(evolved.conj().T @ evolved - np.eye(dim)).max() < 1e-13


def test_reduce_atoms_product_state():
    field = np.zeros((3, 3))
    field[1, 2] = 0.6
    field[0, 0] = 0.8
    atom = np.array([0.5, 0.5, 0.5, 0.5])
    psi = np.kron(atom, field.ravel())
    # one column listing the 8 nonzero entries of the product state, at one time
    states = np.flatnonzero(psi)
    pairs = trace_pairs(states[None, :], psi.shape[0])
    rho = reduce_atoms(psi[states][:, None] + 0j, np.ones(1), pairs)[0]
    assert np.abs(rho - np.outer(atom, atom)).max() < 1e-14


def test_reduce_atoms_vector_and_density_paths_agree():
    prop = Propagator(4, 4)
    column = term_column("ee", 1, 1, 4, 4)
    plan, amplitudes = evolve(prop, column, [2.4])
    psi = dense_columns(plan.states, amplitudes[..., 0], prop.hamiltonian.shape[0])[:, 0]
    # partial trace of the joint density matrix |psi><psi| over both modes
    f = psi.shape[0] // 4
    rho_full = np.outer(psi, psi.conj()).reshape(4, f, 4, f)
    rho = evolve_and_trace(prop, column, [2.4])[0]
    assert np.abs(rho - np.einsum("afbf->ab", rho_full)).max() < 1e-13
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_reduce_atoms_is_the_weighted_sum_over_columns():
    prop = Propagator(4, 3)
    idx = [flat_index(0, 1, 0, 4, 3), flat_index(1, 2, 1, 4, 3), flat_index(3, 2, 1, 4, 3)]
    weights = [0.5, 0.3, 0.2]
    expected = sum(w * evolve_and_trace(prop, [flat], [1.3]) for flat, w in zip(idx, weights))
    assert np.abs(evolve_and_trace(prop, idx, [1.3], weights) - expected).max() < 1e-14


def test_reduce_atoms_adds_the_masked_product_terms_in_order():
    # gathering only the shared-field pairs of the block's slots adds the same
    # terms as the full product masked afterwards, in the same order, so the
    # sums are identical; neither traces the padding of the 1- and 3-state blocks
    for n_max1, n_max2 in ((12, 12), (4, 2), (2, 0)):
        prop = Propagator(n_max1, n_max2)
        dim = prop.hamiltonian.shape[0]
        cols = np.arange(dim)
        weights = np.linspace(0.1, 1.0, cols.size)
        for t in ([0.0], [1.3], [0.0, 0.3, 4.7, 37.3, 1e3]):
            plan, amplitudes = evolve(prop, cols, t)
            # the reference takes the time axis first: (K, S, T) -> (T, K, S)
            time_first = np.moveaxis(amplitudes, -1, 0)
            expected = masked_reduce_atoms(plan.states, time_first, dim, weights)
            traced = evolve_and_trace(prop, cols, t, weights)
            assert np.array_equal(traced, expected), (n_max1, n_max2, t)


def test_block_trace_matches_dense_reference():
    # every atom's columns weighted as in a thermal sweep, against the dense
    # eigendecomposition of H and the dense partial trace
    cutoff = FockCutoff.explicit(8, 7, 1.0, 0.5)
    trunc1, trunc2 = truncation(cutoff)
    prop = Propagator(trunc1, trunc2)
    weights = np.outer(*cutoff.weights()).ravel()
    energies, v = np.linalg.eigh(dense_hamiltonian(trunc1, trunc2))
    n1, n2 = np.arange(cutoff.n_max1 + 1), np.arange(cutoff.n_max2 + 1)
    gts = [0.37, 5.0, 49.3]
    for atom in range(4):
        cols = flat_index(atom, n1[:, None], n2, trunc1, trunc2).ravel()
        for gt, rho in zip(gts, evolve_and_trace(prop, cols, gts, weights)):
            psi = v @ (np.exp(-1j * energies * gt)[:, None] * v[cols].T)
            assert np.abs(rho - dense_reduce_atoms(psi, weights)).max() <= 1e-13, (atom, gt)


def test_block_batch_temporaries_are_bounded():
    # one pass over all 900 basis columns at truncation 14,14, traced per atom as
    # thermal_sweep does; a dense (900, 900) complex batch would hold 13 MB
    prop = Propagator(14, 14)
    field = 15 * 15
    weights = np.full(field, 1.0 / field)
    tracemalloc.start()
    try:
        plan, amplitudes = evolve(prop, np.arange(4 * field), [3.7])
        rows = amplitudes.reshape(4, -1, 1)
        for atom, states in enumerate(plan.states.reshape(4, field, -1)):
            reduce_atoms(rows[atom], weights, trace_pairs(states, 4 * field))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_building_the_propagator_never_forms_the_dense_hamiltonian():
    # the dense 900 x 900 H at truncation 14,14 alone would hold 6.5 MB; a
    # first build outside the trace takes numpy's one-time allocations
    Propagator(2, 2)
    tracemalloc.start()
    try:
        Propagator(14, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_block_matrices_are_the_dense_blocks_of_h():
    # the nonzeros scattered into each block give the eigendecomposition of the
    # dense H's block, bit for bit
    for n_max1, n_max2 in ((12, 12), (8, 11), (3, 4)):
        h = dense_hamiltonian(n_max1, n_max2)
        for members, energies, vectors in Propagator(n_max1, n_max2)._blocks:
            dense_energies, dense_vectors = np.linalg.eigh(
                h[members[:, :, None], members[:, None, :]]
            )
            assert np.array_equal(energies, dense_energies), (n_max1, n_max2)
            assert np.array_equal(vectors, dense_vectors), (n_max1, n_max2)


def test_single_photon_pair_generates_bell_state():
    # |--,1,1> absorbs the pair and lands on the symmetric Bell state
    gt = math.pi / (2.0 * math.sqrt(2.0))
    rho = evolve_and_trace(Propagator(3, 3), term_column("gg", 1, 1, 3, 3), [gt])[0]
    expected = np.zeros((4, 4))
    expected[1:3, 1:3] = 0.5
    assert np.abs(rho - expected).max() < 1e-10
    assert negativity_general(rho) == pytest.approx(1.0, abs=1e-10)


def test_thermal_sweep_vacuum_equals_single_fock_term():
    # retained Fock set 2,2, truncated HEADROOM above at 4,4
    cutoff = FockCutoff.explicit(2, 2, 0.0, 0.0)
    rho = thermal_sweep([InitialAtomicState("eg")], [1.9], cutoff)[0][0]
    direct = evolve_and_trace(Propagator(4, 4), term_column("eg", 0, 0, 4, 4), [1.9])[0]
    assert np.abs(rho - direct).max() < 1e-13


def test_thermal_sweep_time_zero_returns_initial_mixture():
    cutoff = FockCutoff.explicit(6, 6, 1.0, 1.0)
    lam = 0.3
    rho = thermal_sweep([InitialAtomicState("mixed", lam)], [0.0], cutoff)[0][0]
    mass = (1.0 - 0.5 ** 7) ** 2  # retained thermal weight per mode at nbar=1
    expected = mass * np.diag(
        [lam ** 2, lam * (1.0 - lam), lam * (1.0 - lam), (1.0 - lam) ** 2]
    )
    assert np.abs(rho - expected).max() < 1e-12


def test_thermal_sweep_matches_closed_form():
    initial = InitialAtomicState("eg")
    n_max = 14
    cutoff = FockCutoff.explicit(n_max - HEADROOM, n_max - HEADROOM, 1.0, 1.0)
    rho = thermal_sweep([initial], [1.0], cutoff)[0][0]
    row = dynamics.sweep([initial], [1.0], cutoff)[0][0]
    assert np.abs(XState(*row).to_matrix() - rho).max() < 1e-10
    assert np.abs(rho.imag).max() < 1e-14


def test_thermal_sweep_matches_closed_form_at_long_times():
    cutoff = FockCutoff.explicit(10, 10, 1.0, 1.0)
    initials = [
        InitialAtomicState("eg"),
        InitialAtomicState("gg"),
        InitialAtomicState("ee"),
        InitialAtomicState("mixed", 0.05),
    ]
    gts = [0.37, 5.0, 49.3]
    for initial, rhos in zip(initials, thermal_sweep(initials, gts, cutoff)):
        for row, rho in zip(dynamics.sweep([initial], gts, cutoff)[0], rhos):
            assert np.abs(XState(*row).to_matrix() - rho).max() < 1e-13, initial.variant


def test_thermal_sweep_shares_one_pass_per_block_of_times(monkeypatch):
    cutoff = FockCutoff.explicit(3, 4, 0.5, 0.8)
    initials = [
        InitialAtomicState("eg"),
        InitialAtomicState("gg"),
        InitialAtomicState("ee"),
        InitialAtomicState("mixed", 0.05),
    ]
    gts = [0.0, 0.5, 1.5, 4.2, 7.7]
    singles = [thermal_sweep([initial], gts, cutoff)[0] for initial in initials]

    calls, outs = [], []
    batch = Propagator.evolve_basis_batch

    def counting(self, plan, times, out):
        calls.append(times)
        outs.append(out)
        return batch(self, plan, times, out)

    monkeypatch.setattr(Propagator, "evolve_basis_batch", counting)
    # 4 atoms x 4 x 5 Fock pairs = 80 columns, so 2 times per call of 160 elements
    monkeypatch.setattr(oracle, "BATCH_ELEMENTS", 160)
    shared = thermal_sweep(initials, gts, cutoff)
    assert [len(t) for t in calls] == [2, 2, 1]
    assert np.array_equal(np.concatenate(calls), gts)
    # every block of times is evolved into one array
    assert all(np.shares_memory(out, outs[0]) for out in outs)
    assert len(shared) == len(initials)
    for one, single in zip(shared, singles):
        assert one.shape == (len(gts), 4, 4)
        assert np.abs(one - single).max() <= 1e-14


def test_thermal_sweep_plans_its_columns_once(monkeypatch):
    cutoff = FockCutoff.explicit(3, 4, 0.5, 0.8)
    initials = [InitialAtomicState(v) for v in ATOM_INDEX]
    plans, pairs = [], []
    plan, find = Propagator.plan, oracle.trace_pairs

    def counting_plan(self, flat_indices):
        plans.append(len(flat_indices))
        return plan(self, flat_indices)

    def counting_pairs(states, dim):
        pairs.append(len(states))
        return find(states, dim)

    monkeypatch.setattr(Propagator, "plan", counting_plan)
    monkeypatch.setattr(oracle, "trace_pairs", counting_pairs)
    # 80 columns, so 2 times per call: 3 calls for 5 times
    monkeypatch.setattr(oracle, "BATCH_ELEMENTS", 160)
    thermal_sweep(initials, [0.0, 0.5, 1.5, 4.2, 7.7], cutoff)
    assert plans == [80]
    assert pairs == [20] * 4


def test_trace_pairs_lists_the_shared_field_pairs_of_listed_slots():
    prop = Propagator(3, 3)
    cols = np.arange(prop.hamiltonian.shape[0])
    plan = prop.plan(cols)
    dim = prop.hamiltonian.shape[0]
    # the padding, state -1, has field index dim // 4 - 1 and atom -1, which
    # trace_pairs must not pair with the states of that field index
    assert (plan.states == -1).any()
    k, slot_i, slot_j, pair = trace_pairs(plan.states, dim)
    size = plan.states.shape[1]
    expected = [
        (c, c * size + i, c * size + j)
        for c in range(len(cols))
        for i in range(size)
        for j in range(size)
        if plan.states[c, i] >= 0
        and plan.states[c, j] >= 0
        and plan.states[c, i] % (dim // 4) == plan.states[c, j] % (dim // 4)
    ]
    assert list(zip(k.tolist(), slot_i.tolist(), slot_j.tolist())) == expected
    states = plan.states.ravel()
    assert np.array_equal(pair, 4 * (states[slot_i] // (dim // 4)) + states[slot_j] // (dim // 4))


def test_stacked_times_equal_the_per_time_calls():
    prop = Propagator(6, 5)
    cols = np.arange(prop.hamiltonian.shape[0])
    weights = np.linspace(0.1, 1.0, cols.size)
    ts = np.array([0.0, 0.3, 4.7, 37.3])
    _, amplitudes = evolve(prop, cols, ts)
    stacked = evolve_and_trace(prop, cols, ts, weights)
    assert stacked.shape == (len(ts), 4, 4)
    for i, t in enumerate(ts):
        # each time alone, as a stack of one, bit for bit
        one = evolve(prop, cols, [t])[1]
        assert one[..., 0].tobytes() == amplitudes[..., i].tobytes(), t
        assert evolve_and_trace(prop, cols, [t], weights).tobytes() == stacked[i].tobytes(), t


def test_a_batch_is_laid_out_time_last_and_contiguous():
    # the layout the amplitudes are computed and traced in: the caller's array
    # itself, time last and C-contiguous, so the trace's rows are a view of it
    prop = Propagator(4, 2)
    plan = prop.plan(np.arange(prop.hamiltonian.shape[0]))
    ts = np.array([0.0, 0.3, 4.7, 37.3, 1e3])
    out = np.empty(plan.states.shape + ts.shape, dtype=complex)
    amplitudes = prop.evolve_basis_batch(plan, ts, out)
    assert amplitudes is out
    assert amplitudes.shape == plan.states.shape + ts.shape
    assert amplitudes.flags.c_contiguous
    assert np.shares_memory(amplitudes.reshape(plan.states.size, -1), out)


def test_thermal_sweep_temporaries_are_bounded_in_the_number_of_times():
    # the times go through in blocks of BATCH_ELEMENTS columns x times; all 1001
    # times of the 484 columns in one batch would hold 31 MB of amplitudes alone
    cutoff = FockCutoff.explicit(10, 10, 1.0, 1.0)
    initials = [InitialAtomicState(v) for v in ATOM_INDEX]
    peaks = {}
    for steps in (11, 1001):
        gts = np.linspace(0.0, 10.0, steps)
        tracemalloc.start()
        try:
            out = thermal_sweep(initials, gts, cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the returned (steps, 4, 4) stacks are held from the start and must grow
        # with the number of times; everything else must not
        peaks[steps] = peak - sum(stack.nbytes for stack in out)
    assert peaks[1001] < 2 * peaks[11], peaks


def test_default_check_sweep_memory_peak():
    # the oracle sweep of a default `twinphoton check`: four states, 50 times,
    # truncation 12,12, 16 times per pass, 1.35 MB measured (the einsum's
    # (K, S, T) result adds 0.1 MB); a pass holds 0.5 MB of amplitudes, and,
    # measured against a 1.25 MB peak, a (K, S, S, T) product before the contraction,
    # a partial trace that forms every (T, K, S, S) product before masking it,
    # a batch kept alive while the next one is evolved (1.74 MB), a gather
    # kept alive through the partial trace's bincount (1.42 MB) or one
    # reduction over all four atoms' pairs per pass (2.24 MB) each take the
    # peak above 1.4 MB
    initials = [
        InitialAtomicState(v, 0.05 if v == "mixed" else None) for v in CHECK_DEFAULT_STATES
    ]
    gts = TimeGrid(5.0, 49).points()
    cutoff = FockCutoff.explicit(10, 10, 1.0, 1.0)
    thermal_sweep(initials, gts, cutoff)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        thermal_sweep(initials, gts, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6, peak


def test_thermal_sweep_rejects_the_times_the_closed_form_rejects():
    cutoff = FockCutoff.explicit(2, 2, 0.5, 0.5)
    for gts in ([math.nan, -1.0], [-0.5, 1.0], [1.0, math.inf]):
        with pytest.raises(ValueError, match="finite and >= 0"):
            thermal_sweep([InitialAtomicState("eg")], gts, cutoff)
        with pytest.raises(ValueError, match="finite and >= 0"):
            dynamics.sweep([InitialAtomicState("eg")], gts, cutoff)[0]


def test_build_hamiltonian_rejects_negative_cutoff():
    with pytest.raises(ValueError, match=">= 0"):
        build_hamiltonian(-1, 3)


def test_a_batch_evolves_into_a_given_array():
    prop = Propagator(4, 2)  # blocks of 1, 3 and 4 states, so some slots are padding
    plan = prop.plan(np.arange(prop.hamiltonian.shape[0]))
    ts = np.array([0.0, 0.3, 4.7])
    fresh = prop.evolve_basis_batch(plan, ts, np.zeros(plan.states.shape + ts.shape, dtype=complex))
    out = np.full(fresh.shape, complex(np.nan, 1.0))  # what it held before is overwritten
    assert prop.evolve_basis_batch(plan, ts, out) is out
    assert out.tobytes() == fresh.tobytes()
