import math

import numpy as np
import pytest

from twinphoton import dynamics
from twinphoton.model import InitialAtomicState, ModelParams, XState
from twinphoton.negativity import negativity_general
from twinphoton.oracle import (
    HEADROOM,
    JointState,
    Propagator,
    annihilation,
    basis_state,
    build_hamiltonian,
    flat_index,
    reduce_atoms,
    thermal_sweep,
)
from twinphoton.thermal import FockCutoff


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
    h = build_hamiltonian(2, 2, g=0.7)
    row = flat_index(3, 1, 1, 2, 2)  # |--,1,1>
    col = flat_index(1, 0, 0, 2, 2)  # |+-,0,0>
    assert h[row, col] == pytest.approx(0.7, abs=1e-15)


def test_hamiltonian_is_exactly_symmetric_and_real():
    h = build_hamiltonian(4, 3)
    assert np.array_equal(h, h.T)
    assert h.dtype == np.float64


def test_ground_state_with_empty_mode_is_stationary():
    h = build_hamiltonian(5, 5)
    for n in range(6):
        assert not h[:, flat_index(3, n, 0, 5, 5)].any()
        assert not h[:, flat_index(3, 0, n, 5, 5)].any()


def test_antisymmetric_atomic_state_is_dark():
    n_max = 6
    h = build_hamiltonian(n_max, n_max)
    for n1, n2 in ((0, 0), (1, 3), (4, 4), (2, 0)):
        psi = np.zeros(h.shape[0])
        psi[flat_index(1, n1, n2, n_max, n_max)] = 1.0 / math.sqrt(2.0)
        psi[flat_index(2, n1, n2, n_max, n_max)] = -1.0 / math.sqrt(2.0)
        assert np.abs(h @ psi).max() < 1e-15


def test_conserved_quantities_commute_with_hamiltonian():
    # each de-excitation adds one photon to each mode: N1 + N2 + 2 n_exc is fixed
    h = build_hamiltonian(4, 5)
    mode_diff = number_operator(4, 5, 1) - number_operator(4, 5, 2)
    total = (
        number_operator(4, 5, 1)
        + number_operator(4, 5, 2)
        + 2.0 * excitation_operator(4, 5)
    )
    assert np.abs(h @ mode_diff - mode_diff @ h).max() < 1e-12
    assert np.abs(h @ total - total @ h).max() < 1e-12


def test_evolve_at_time_zero_is_identity():
    state = basis_state("eg", 2, 1, 4, 4)
    out = Propagator(4, 4).evolve(state, 0.0)
    assert np.abs(out.data - state.data).max() < 1e-12


def test_propagation_preserves_norm():
    prop = Propagator(5, 5)
    state = basis_state("ee", 1, 2, 5, 5)
    for t in (0.3, 1.1, 4.7, 12.9):
        evolved = prop.evolve(state, t)
        assert np.linalg.norm(evolved.data) == pytest.approx(1.0, abs=1e-12)


def test_excitation_swaps_between_atoms():
    # |+-,0,0> returns as -|-+,0,0> after half a cycle of the vacuum block
    prop = Propagator(3, 3)
    evolved = prop.evolve(basis_state("eg", 0, 0, 3, 3), math.pi / math.sqrt(2.0))
    rho = reduce_atoms(evolved)
    assert np.abs(np.diag(rho) - np.array([0.0, 0.0, 1.0, 0.0])).max() < 1e-12


def test_basis_batch_matches_individual_columns():
    prop = Propagator(3, 4)
    idx = [flat_index(0, 1, 2, 3, 4), flat_index(3, 0, 0, 3, 4), flat_index(2, 3, 1, 3, 4)]
    batch = prop.evolve_basis_batch(np.array(idx), 1.7)
    for k, flat in enumerate(idx):
        single = np.zeros(prop.hamiltonian.shape[0])
        single[flat] = 1.0
        evolved = prop.evolve(JointState(3, 4, single), 1.7).data
        assert np.abs(batch[:, k] - evolved).max() < 1e-13


def test_reduce_atoms_product_state():
    field = np.zeros((3, 3))
    field[1, 2] = 0.6
    field[0, 0] = 0.8
    atom = np.array([0.5, 0.5, 0.5, 0.5])
    psi = np.kron(atom, field.ravel())
    rho = reduce_atoms(JointState(2, 2, psi))
    assert np.abs(rho - np.outer(atom, atom)).max() < 1e-14


def test_reduce_atoms_vector_and_density_paths_agree():
    prop = Propagator(4, 4)
    psi = prop.evolve(basis_state("ee", 1, 1, 4, 4), 2.4)
    # partial trace of the joint density matrix |psi><psi| over both modes
    f = psi.field_dim
    rho_full = np.outer(psi.data, psi.data.conj()).reshape(4, f, 4, f)
    assert np.abs(reduce_atoms(psi) - np.einsum("afbf->ab", rho_full)).max() < 1e-13
    assert np.trace(reduce_atoms(psi)).real == pytest.approx(1.0, abs=1e-12)


def test_single_photon_pair_generates_bell_state():
    # |--,1,1> absorbs the pair and lands on the symmetric Bell state
    prop = Propagator(3, 3)
    evolved = prop.evolve(basis_state("gg", 1, 1, 3, 3), math.pi / (2.0 * math.sqrt(2.0)))
    rho = reduce_atoms(evolved)
    expected = np.zeros((4, 4))
    expected[1:3, 1:3] = 0.5
    assert np.abs(rho - expected).max() < 1e-10
    assert negativity_general(rho) == pytest.approx(1.0, abs=1e-10)


def test_thermal_sweep_vacuum_equals_single_fock_term():
    params = ModelParams(g=1.0, nbar1=0.0, nbar2=0.0)
    initial = InitialAtomicState.pure("eg")
    rho = thermal_sweep(initial, params, [1.9], 4, 4)[0]
    prop = Propagator(4, 4)
    direct = reduce_atoms(prop.evolve(basis_state("eg", 0, 0, 4, 4), 1.9))
    assert np.abs(rho - direct).max() < 1e-13


def test_thermal_sweep_time_zero_returns_initial_mixture():
    params = ModelParams(g=1.0, nbar1=1.0, nbar2=1.0)
    lam = 0.3
    rho = thermal_sweep(InitialAtomicState.mixed(lam), params, [0.0], 8, 8)[0]
    mass = (1.0 - 0.5 ** 7) ** 2  # retained thermal weight per mode at nbar=1
    expected = mass * np.diag(
        [lam ** 2, lam * (1.0 - lam), lam * (1.0 - lam), (1.0 - lam) ** 2]
    )
    assert np.abs(rho - expected).max() < 1e-12


def test_thermal_sweep_matches_closed_form():
    params = ModelParams(g=1.0, nbar1=1.0, nbar2=1.0)
    initial = InitialAtomicState.pure("eg")
    n_max = 14
    rho = thermal_sweep(initial, params, [1.0], n_max, n_max)[0]
    cutoff = FockCutoff.explicit(n_max - HEADROOM, n_max - HEADROOM, 1.0, 1.0)
    row = dynamics.sweep(initial, params, [1.0], cutoff)[0]
    assert np.abs(XState(*row).to_matrix() - rho).max() < 1e-10
    assert np.abs(rho.imag).max() < 1e-14


def test_thermal_sweep_reuses_external_propagator():
    params = ModelParams(g=2.0, nbar1=0.5, nbar2=0.5)
    initial = InitialAtomicState.pure("gg")
    gts = [0.5, 1.5]
    prop = Propagator(5, 5, g=2.0)
    with_prop = thermal_sweep(initial, params, gts, 5, 5, propagator=prop)
    without = thermal_sweep(initial, params, gts, 5, 5)
    assert np.array_equal(with_prop, without)


def test_basis_state_rejects_out_of_range_fock_pair():
    with pytest.raises(ValueError, match="outside"):
        basis_state("ee", 5, 0, 4, 4)
    with pytest.raises(ValueError, match="outside"):
        basis_state("ee", 0, -1, 4, 4)


def test_evolve_rejects_mismatched_cutoffs():
    prop = Propagator(3, 3)
    with pytest.raises(ValueError, match="cutoff"):
        prop.evolve(basis_state("ee", 0, 0, 4, 4), 1.0)


def test_thermal_sweep_rejects_tiny_cutoffs():
    params = ModelParams(g=1.0, nbar1=0.1, nbar2=0.1)
    with pytest.raises(ValueError, match=">= 2"):
        thermal_sweep(InitialAtomicState.pure("ee"), params, [1.0], 1, 4)


def test_build_hamiltonian_rejects_negative_cutoff():
    with pytest.raises(ValueError, match=">= 0"):
        build_hamiltonian(-1, 3)
