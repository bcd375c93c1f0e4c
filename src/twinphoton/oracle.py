"""Brute-force verifier on the truncated joint atom-field Hilbert space.

Everything here is deliberately independent of the closed-form dynamics: the
pair-coupling Hamiltonian is built from the matrix elements of truncated
ladder operators as the list of its nonzero entries, a real symmetric matrix
never formed densely (time in units of 1/g, so the coupling is 1), and every
result comes from one path.  The propagator reads nothing of the model but
that list: the connected components of its nonzero pattern are exact
invariant subspaces, every one padded with zero rows and columns to the
largest and all diagonalized in one batched eigh, which keeps each block's
own eigenpairs exactly.  States are unit-basis columns |atom>|n1, n2> named
by flat_index.  The path takes four steps: Propagator.plan gathers each
column's block and its eigenvector coefficients, and trace_pairs finds the
pairs of the plan's states that share a field index, both once per set of
columns; Propagator.evolve_basis_batch then evolves the plan at a 1-D array
of times into the caller's (K, S, T) complex array, each column inside its
own block in real arithmetic, in block coordinates: the states of each
column's block (the plan's states, every row padded with state -1 to the
plan's largest block) and their amplitudes, every slot written, time the
last, contiguous axis, the layout they are computed and traced in; and
reduce_atoms traces out the field from that array's (K * S, T) rows as a
weighted sum over the columns, gathering only the pairs found, so no array
the size of the whole space is built per column and no product is formed
only to be masked.  A thermal sweep evolves the Fock set the closed form
sums, the same FockCutoff, on the space truncation(cutoff) gives, HEADROOM
above that set's extent, so the callers never convert between a summed set
and a truncation.  It plans each atomic basis column it needs once, with the
set's Fock pairs, shared by all the initial states it is given, and evolves
every block of times into one array.  The closed-form path is checked
against these results; this module is confined to tests and the explicit
oracle CLI modes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import ATOM_INDEX, InitialAtomicState, _check_times
from .thermal import FockCutoff

# +2 Fock headroom per mode: pair emission from |++> raises each mode index
# by at most 2, so initial Fock components up to the truncation minus 2 evolve exactly
HEADROOM = 2

# evolved columns x times per evolve_basis_batch call in thermal_sweep: bounds
# the temporaries of a pass (about 0.15 kB per element) whatever the number of
# times; larger calls save little more time and only raise the memory peak
BATCH_ELEMENTS = 8192


def truncation(cutoff: FockCutoff) -> tuple[int, int]:
    """Per-mode Fock truncation (N1, N2) of the space that evolves ``cutoff``'s set exactly."""
    return cutoff.n_max1 + HEADROOM, cutoff.n_max2 + HEADROOM


def flat_index(atom: int, n1: int, n2: int, n_max1: int, n_max2: int) -> int:
    """Flat basis index of |atom>|n1> |n2> on the truncated space."""
    return (atom * (n_max1 + 1) + n1) * (n_max2 + 1) + n2


def _collective_lowering() -> np.ndarray:
    """Sum of the single-atom lowering operators in the two-atom basis."""
    low = np.zeros((4, 4))
    low[2, 0] = 1.0  # first atom:  |++> -> |-+>
    low[3, 1] = 1.0  #              |+-> -> |-->
    low[1, 0] = 1.0  # second atom: |++> -> |+->
    low[3, 2] = 1.0  #              |-+> -> |-->
    return low


class SparseMatrix(NamedTuple):
    """A square matrix as its nonzero entries: values[k] at (rows[k], cols[k]), each once."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]


def build_hamiltonian(n_max1: int, n_max2: int) -> SparseMatrix:
    """Pair-coupling interaction Hamiltonian (over hbar g) on the truncated space.

    a1+ a2+ (R1- + R2-)  +  (R1+ + R2+) a1 a2 with the ladder operators
    truncated at the cutoffs; matrix elements that would leave the truncated
    space are dropped.  Time is measured as g*t, so the coupling is 1.
    Returned as its nonzero entries, each given once: every nonzero L[i, j]
    of the collective lowering and every pair of creation elements give the
    emission entry at row |i>|n1+1, n2+1>, column |j>|n1, n2>, valued
    L[i, j] * (<n1+1|a1+|n1> <n2+1|a2+|n2>) as a Kronecker product forms it,
    and its transpose is the absorption entry: real and symmetric by
    construction.
    """
    if n_max1 < 0 or n_max2 < 0:
        raise ValueError(f"cutoffs must be >= 0; got ({n_max1}, {n_max2})")
    low = _collective_lowering()
    i, j = (k[:, None, None] for k in np.nonzero(low))
    # <n+1|a+|n> = sqrt(n + 1) for n < n_max, the elements of the truncated creation operator
    up1 = np.sqrt(np.arange(1.0, n_max1 + 1))[:, None]
    up2 = np.sqrt(np.arange(1.0, n_max2 + 1))
    n1, n2 = np.arange(n_max1)[:, None], np.arange(n_max2)
    emit_rows = flat_index(i, n1 + 1, n2 + 1, n_max1, n_max2).ravel()
    emit_cols = flat_index(j, n1, n2, n_max1, n_max2).ravel()
    emit = (low[i, j] * (up1 * up2)).ravel()
    dim = len(low) * (n_max1 + 1) * (n_max2 + 1)
    return SparseMatrix(
        np.concatenate([emit_rows, emit_cols]),
        np.concatenate([emit_cols, emit_rows]),
        np.concatenate([emit, emit]),
        (dim, dim),
    )


def _components(rows: np.ndarray, cols: np.ndarray, dim: int) -> np.ndarray:
    """Connected-component label of every state of a symmetric coupling pattern.

    The pattern couples rows[k] with cols[k] on dim states.  Each state starts
    as its own label and takes the smallest label among its coupled
    neighbours until nothing changes, so every state ends with the smallest
    index of its component.
    """
    labels = np.arange(dim)
    while True:
        spread = labels.copy()
        np.minimum.at(spread, rows, labels[cols])
        if np.array_equal(spread, labels):
            return labels
        labels = spread


class ColumnPlan(NamedTuple):
    """The column-only work of Propagator.evolve_basis_batch, from Propagator.plan."""

    states: np.ndarray
    energies: np.ndarray
    block: np.ndarray
    coef: np.ndarray


class Propagator:
    """Unitary evolution inside the exact invariant blocks of the Hamiltonian.

    The blocks are the connected components of the nonzero pattern of H, so
    H is exactly block diagonal on them and exp(-iHt) never mixes two blocks.
    Every block is padded to the largest block size W: its states, in
    increasing index order, fill a row of the (blocks, W) member table padded
    with state -1, and the nonzero entries of H are scattered into a
    (blocks, W, W) stack of matrices padded with zero rows and columns, all
    diagonalized once in one batched eigh.  A zero row and column stays
    decoupled through the eigensolver, so a block's own eigenpairs are those
    of its unpadded matrix and each padding eigenvector is a unit vector on
    the padding alone.  hamiltonian is H as build_hamiltonian returns it, its
    nonzero entries.
    """

    def __init__(self, n_max1: int, n_max2: int):
        h = self.hamiltonian = build_hamiltonian(n_max1, n_max2)
        dim = h.shape[0]
        labels = _components(h.rows, h.cols, dim)
        # blocks numbered in the order of their smallest states, the labels
        self._block = (np.cumsum(labels == np.arange(dim)) - 1)[labels]
        sizes = self._sizes = np.bincount(self._block)
        # each state's place in its block, in increasing index order
        order = np.argsort(self._block, kind="stable")
        self._place = np.empty(dim, dtype=int)
        self._place[order] = np.arange(dim) - (np.cumsum(sizes) - sizes)[self._block[order]]
        width = sizes.max()
        self._members = np.full((sizes.size, width), -1)
        self._members[self._block, self._place] = np.arange(dim)
        matrices = np.zeros((sizes.size, width, width))
        matrices[self._block[h.rows], self._place[h.rows], self._place[h.cols]] = h.values
        self._energies, self._vectors = np.linalg.eigh(matrices)

    def plan(self, flat_indices) -> ColumnPlan:
        """The work of evolve_basis_batch that depends only on its columns, done once.

        For the K unit-basis columns flat_indices, returns a ColumnPlan: the
        states of each column's block padded with state -1 (states, (K, S)),
        the energies of only the B blocks that hold a column (energies, (B,
        J)), each column's row of them (block, (K,)) and the coefficients
        coef[j, i, k] = V[i, j] V[p, j] of column k at place p of its block
        (coef, (J, S, K), C-contiguous: the columns last and the eigenvectors
        first, so evolve_basis_batch's einsum adds over j in increasing order
        whatever the numbers of columns and times; with j the fastest axis a
        single column at a single time was summed in another order).  Only
        what some column reads is kept: S is the largest block of the
        columns, and J leaves out every eigenvector whose coefficients are
        zero for all the columns, such as the padding ones, which would add
        only zero products; so a plan of one-state blocks has S = J = 1.  A
        caller that evolves the same columns at several blocks of times builds
        it once and passes it to each call.
        """
        flat = np.asarray(flat_indices)
        blocks, place = self._block[flat], self._place[flat]
        width = self._sizes[blocks].max(initial=0)  # the columns' largest block
        # V[i, j] of column k's block at [j, i, k], for the slots i < width
        vectors = np.take(self._vectors.transpose(2, 1, 0)[:, :width], blocks, axis=-1)
        coef = vectors * vectors[:, place, np.arange(flat.size)][:, None]
        read = coef.any(axis=(1, 2))  # the rest, the padding ones among them, add only zeros
        held = np.zeros(self._sizes.size, dtype=bool)
        held[blocks] = True
        return ColumnPlan(
            np.take(self._members[:, :width], blocks, axis=0),
            self._energies[held][:, read],
            (np.cumsum(held) - 1)[blocks],
            np.ascontiguousarray(coef[read]),
        )

    def evolve_basis_batch(self, plan: ColumnPlan, times, out) -> np.ndarray:
        """Evolved unit-basis initial states in block coordinates, written into ``out``.

        plan is the ColumnPlan that plan() built for the K columns, times a
        1-D array of T times and out a C-contiguous complex array of shape
        plan.states.shape + (T,), (K, S, T); every element of out is written,
        and out is returned.  out[k, s, n] is the amplitude of basis state
        plan.states[k, s] after times[n], time the last axis, so each state's
        amplitudes over the times are one contiguous run: row k of the (K, S)
        array plan.states lists the basis states of the block of column k,
        padded with state -1, whose amplitude comes out exactly 0: its
        coefficients are all zero.  States outside the block are left out:
        their amplitude is exactly zero.  The block eigenvectors V are real, so
        exp(-iHt) e_p = V cos(Et) V^T e_p - i V sin(Et) V^T e_p, and V^T e_p is
        row p of V: amplitude i is sum_j coef[j, i] (cos(E_j t) - i sin(E_j
        t)) with coef[j, i] = V[i, j] V[p, j].  The coefficients come from the
        plan; a call takes the phases once per block eigenvalue and time, and
        each sum over j is one einsum, without optimize so never BLAS, that
        adds the products to +0.0 in increasing j, so a time's amplitudes are
        bit-identical whatever other times share the call, and the zero
        products of padding eigenpairs never change a sum.  The sine sums are
        negated afterwards, which is the sum of the products of -coef: only
        the sign of a zero sum depends on the start from +0.0, and the trace
        over the field adds into +0.0 as well, so it never shows.
        """
        et = plan.energies.T[:, None, :] * times[:, None]  # (J, T, blocks)
        # the phases inline, so each is freed before the next is taken
        out.real = np.einsum("jik,jtk->kit", plan.coef, np.take(np.cos(et), plan.block, axis=-1))
        out.imag = np.einsum("jik,jtk->kit", plan.coef, np.take(np.sin(et), plan.block, axis=-1))
        np.negative(out.imag, out=out.imag)
        return out


def trace_pairs(states, dim):
    """The terms of the partial trace over the field of a batch with these states.

    states is a (K, S) ColumnPlan's states, on a space of size dim in
    flat_index order, so a state is atom state // F and field state % F with
    F = dim / 4; the padding, state -1, is never traced.  Returns (k,
    slot_i, slot_j, pair): every pair of slots i, j of one column k whose
    states are both >= 0 and share a field index, in increasing (k, i, j), as
    flat slots k * S + i and k * S + j, with pair = 4 atom_i + atom_j the
    element of the reduced matrix the pair adds to.
    """
    size = states.shape[1]
    atom, field = np.divmod(states, dim // 4)
    # shared[i, j, k]: slots i and j of column k hold states that share a field index
    field = field.T.copy()
    inside = (states >= 0).T.copy()
    shared = field[:, None] == field
    shared &= inside[:, None]
    shared &= inside
    pairs = np.flatnonzero(shared.transpose(2, 0, 1))
    k, slot_i = pairs // (size * size), pairs // size
    slot_j = size * k + pairs % size
    atom = atom.ravel()
    return k, slot_i, slot_j, 4 * atom[slot_i] + atom[slot_j]


def reduce_atoms(rows, weights, pairs) -> np.ndarray:
    """Weighted reduced two-atom density matrices sum_k w_k Tr_field |psi_k><psi_k|, one per time.

    rows is the (K * S, T) view of a batch evolve_basis_batch wrote, one row
    of amplitudes over the times per slot k * S + s, weights the K column
    weights as an array and pairs what trace_pairs found for the batch's
    states.  Only pairs of states that share a field index contribute,
    w_k a_i conj(a_j) to rho[atom_i, atom_j], so no product is formed only
    to be masked.  Returns the (T, 4, 4) stack: one bincount over the index
    16 * time + pair adds each time's terms in the order of pairs, the same
    order as a call on that time alone.
    """
    k, slot_i, slot_j, pair = pairs
    # in place, so at most two (pairs, times) arrays are live
    terms = rows.take(slot_i, axis=0)
    terms *= weights.take(k)[:, None]
    other = rows.take(slot_j, axis=0)
    terms *= np.conjugate(other, out=other)
    del other
    times = terms.shape[1]
    index = (pair[:, None] + np.arange(0, 16 * times, 16)).ravel()
    terms = terms.ravel()
    bins = 16 * times
    rho = np.bincount(index, terms.real, bins) + 1j * np.bincount(index, terms.imag, bins)
    return rho.reshape(times, 4, 4)


def thermal_sweep(initials: list[InitialAtomicState], gts, cutoff: FockCutoff) -> list[np.ndarray]:
    """Thermally averaged reduced atomic density matrices for several initial states.

    Returns one (len(gts), 4, 4) stack per entry of ``initials``.  Initial
    Fock pairs run over the set's points, cutoff.points(), weighted by
    w1[n1] w2[n2] from cutoff.weights() without renormalization, so the trace
    of each output equals the summed thermal mass.  The space is truncated
    at truncation(cutoff), HEADROOM above the set's extent, so every summed
    component evolves exactly.

    Each block of times takes one pass: every atomic basis state the initial
    states need is evolved with each of the set's Fock pairs at all the block's
    times in a single batch, the field is traced out from each atomic basis
    state's run of columns, a run of the batch's rows of slots over those
    times, and each initial state is the weighted sum of those per-atom
    matrices.  The columns' plan and each atomic basis state's trace pairs
    are built once, before the first pass; each pass evolves its times into
    one array and traces each atom's rows through reduce_atoms with those
    pairs.  The batch is in block coordinates, a block holds about
    BATCH_ELEMENTS columns x times, and every block is evolved into that one
    array, so the memory of a pass does not grow with the number of times.
    """
    gts = np.atleast_1d(np.asarray(gts, dtype=float))
    _check_times(gts)
    if not initials:
        return []
    trunc1, trunc2 = truncation(cutoff)
    prop = Propagator(trunc1, trunc2)
    atoms = sorted({ATOM_INDEX[v] for initial in initials for v, _ in initial.parts})
    n1, n2 = cutoff.points()
    w1, w2 = cutoff.weights()
    weights = w1[n1] * w2[n2]
    cols = np.concatenate([flat_index(atom, n1, n2, trunc1, trunc2) for atom in atoms])
    plan = prop.plan(cols)
    dim = prop.hamiltonian.shape[0]
    # each atom's weights.size columns, in turn
    pairs = [trace_pairs(states, dim) for states in plan.states.reshape(len(atoms), weights.size, -1)]
    per_call = max(1, BATCH_ELEMENTS // len(cols))
    out = [np.empty((gts.shape[0], 4, 4), dtype=complex) for _ in initials]
    # every block of times is evolved into this one array: a new array per
    # block would be handed back to the system and paged in again each time
    buffer = np.empty(plan.states.size * min(per_call, gts.shape[0]), dtype=complex)
    for start in range(0, gts.shape[0], per_call):
        times = slice(start, start + per_call)
        block = gts[times]
        batch = buffer[: plan.states.size * block.size].reshape(plan.states.shape + block.shape)
        rows = prop.evolve_basis_batch(plan, block, batch).reshape(len(atoms), -1, block.size)
        per_atom = {
            atom: reduce_atoms(atom_rows, weights, atom_pairs)
            for atom, atom_rows, atom_pairs in zip(atoms, rows, pairs)
        }
        for stack, initial in zip(out, initials):
            stack[times] = sum(w * per_atom[ATOM_INDEX[v]] for v, w in initial.parts)
    return out
