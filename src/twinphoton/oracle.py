"""Brute-force verifier on the truncated joint atom-field Hilbert space.

Everything here is deliberately independent of the closed-form dynamics: the
pair-coupling Hamiltonian is assembled from truncated ladder operators, states
are evolved by dense Hermitian eigendecomposition, and the field is traced
out numerically.  The closed-form path is checked against these results; this
module is confined to tests and the explicit oracle CLI modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ATOM_INDEX, InitialAtomicState, ModelParams
from .thermal import thermal_weight

# +2 Fock headroom per mode: pair emission from |++> raises each mode index
# by at most 2, so initial Fock components up to n_max-2 evolve exactly
HEADROOM = 2


@dataclass(frozen=True)
class JointState:
    """State on the truncated atom x atom x mode1 x mode2 space.

    ``data`` is a state vector of length 4 (n_max1+1) (n_max2+1), flat index
    atom*(n_max1+1)(n_max2+1) + n1*(n_max2+1) + n2 (atom 0..3 in the basis
    order |++>, |+->, |-+>, |-->).
    """

    n_max1: int
    n_max2: int
    data: np.ndarray

    @property
    def field_dim(self) -> int:
        return (self.n_max1 + 1) * (self.n_max2 + 1)


def flat_index(atom: int, n1: int, n2: int, n_max1: int, n_max2: int) -> int:
    """Flat basis index of |atom>|n1> |n2> on the truncated space."""
    return (atom * (n_max1 + 1) + n1) * (n_max2 + 1) + n2


def basis_state(variant: str, n1: int, n2: int, n_max1: int, n_max2: int) -> JointState:
    """Product basis state |variant> tensor |n1, n2> as a JointState vector."""
    if not (0 <= n1 <= n_max1 and 0 <= n2 <= n_max2):
        raise ValueError(f"Fock pair ({n1}, {n2}) outside cutoff ({n_max1}, {n_max2})")
    psi = np.zeros(4 * (n_max1 + 1) * (n_max2 + 1))
    psi[flat_index(ATOM_INDEX[variant], n1, n2, n_max1, n_max2)] = 1.0
    return JointState(n_max1, n_max2, psi)


def annihilation(n_max: int) -> np.ndarray:
    """Truncated photon annihilation operator on Fock states |0..n_max>."""
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)


def _collective_lowering() -> np.ndarray:
    """Sum of the single-atom lowering operators in the two-atom basis."""
    low = np.zeros((4, 4))
    low[2, 0] = 1.0  # first atom:  |++> -> |-+>
    low[3, 1] = 1.0  #              |+-> -> |-->
    low[1, 0] = 1.0  # second atom: |++> -> |+->
    low[3, 2] = 1.0  #              |-+> -> |-->
    return low


def build_hamiltonian(n_max1: int, n_max2: int, g: float = 1.0) -> np.ndarray:
    """Pair-coupling interaction Hamiltonian (over hbar) on the truncated space.

    g * [a1+ a2+ (R1- + R2-)  +  (R1+ + R2+) a1 a2] with the ladder operators
    truncated at the cutoffs; matrix elements that would leave the truncated
    space are dropped.  Real and symmetric by construction.
    """
    if n_max1 < 0 or n_max2 < 0:
        raise ValueError(f"cutoffs must be >= 0; got ({n_max1}, {n_max2})")
    a1 = annihilation(n_max1)
    a2 = annihilation(n_max2)
    emit = np.kron(_collective_lowering(), np.kron(a1.T, a2.T))
    return g * (emit + emit.T)


class Propagator:
    """Unitary evolution; the Hamiltonian is diagonalized once and reused."""

    def __init__(self, n_max1: int, n_max2: int, g: float = 1.0):
        self.n_max1 = n_max1
        self.n_max2 = n_max2
        self.g = g
        self.hamiltonian = build_hamiltonian(n_max1, n_max2, g)
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(self.hamiltonian)

    def evolve(self, state: JointState, t: float) -> JointState:
        if (state.n_max1, state.n_max2) != (self.n_max1, self.n_max2):
            raise ValueError("state cutoffs do not match the propagator")
        v = self.eigenvectors
        phases = np.exp(-1j * self.eigenvalues * t)
        return JointState(self.n_max1, self.n_max2, v @ (phases * (v.T.conj() @ state.data)))

    def evolve_basis_batch(self, flat_indices, t: float) -> np.ndarray:
        """Evolved vectors for many unit-basis initial states, one per column."""
        v = self.eigenvectors
        phases = np.exp(-1j * self.eigenvalues * t)
        return v @ (phases[:, None] * v[flat_indices, :].T)


def reduce_atoms(state: JointState) -> np.ndarray:
    """Reduced 4x4 two-atom density matrix: partial trace over both field modes."""
    psi = state.data.reshape(4, state.field_dim)
    return psi @ psi.conj().T


def _atomic_mixture(initial: InitialAtomicState):
    if initial.variant == "mixed":
        lam = initial.excited_weight
        return [
            (0, lam * lam),
            (1, lam * (1.0 - lam)),
            (2, lam * (1.0 - lam)),
            (3, (1.0 - lam) * (1.0 - lam)),
        ]
    return [(ATOM_INDEX[initial.variant], 1.0)]


def thermal_sweep(
    initial: InitialAtomicState,
    params: ModelParams,
    gts,
    n_max1: int,
    n_max2: int,
    propagator: Propagator | None = None,
) -> np.ndarray:
    """Thermally averaged reduced atomic density matrices, one 4x4 per time.

    Initial Fock pairs run over n1 <= n_max1-2, n2 <= n_max2-2 (HEADROOM
    below the truncation, so every retained component evolves exactly) and
    are weighted by the thermal distribution without renormalization; the
    trace of each output equals the retained thermal mass.
    """
    if n_max1 < HEADROOM or n_max2 < HEADROOM:
        raise ValueError(f"cutoffs must be >= {HEADROOM}; got ({n_max1}, {n_max2})")
    prop = propagator if propagator is not None else Propagator(n_max1, n_max2, params.g)
    cols = []
    weights = []
    for atom, atom_weight in _atomic_mixture(initial):
        for n1 in range(n_max1 - HEADROOM + 1):
            p1 = atom_weight * thermal_weight(params.nbar1, n1)
            for n2 in range(n_max2 - HEADROOM + 1):
                cols.append(flat_index(atom, n1, n2, n_max1, n_max2))
                weights.append(p1 * thermal_weight(params.nbar2, n2))
    cols = np.array(cols)
    weights = np.array(weights)
    gts = np.atleast_1d(np.asarray(gts, dtype=float))
    out = np.empty((gts.shape[0], 4, 4), dtype=complex)
    f = (n_max1 + 1) * (n_max2 + 1)
    for i, gt in enumerate(gts):
        psi = prop.evolve_basis_batch(cols, gt / params.g).reshape(4, f, -1)
        out[i] = np.einsum("afk,bfk,k->ab", psi, psi.conj(), weights)
    return out
