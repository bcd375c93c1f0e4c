import math

import numpy as np
import pytest

from helpers import check_density_matrix
from twinphoton.model import XState
from twinphoton.negativity import negativity_general, negativity_x, partial_transpose

BELL_SYM = np.zeros((4, 4))
BELL_SYM[1:3, 1:3] = 0.5  # (|+-> + |-+>)/sqrt2 projector


def random_xstate(rng):
    pops = rng.random(4)
    pops /= pops.sum()
    a, b, c, d = pops
    e = (2.0 * rng.random() - 1.0) * math.sqrt(b * c)
    return XState(a, b, c, d, e)


def random_density(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_negativity_x_bell_state():
    assert negativity_x(XState(0.0, 0.5, 0.5, 0.0, 0.5)) == pytest.approx(1.0, abs=1e-15)


def test_negativity_x_zero_coherence_is_separable():
    assert negativity_x(XState(0.2, 0.3, 0.3, 0.2, 0.0)) == 0.0


def test_negativity_x_vacuum_peak_value():
    got = negativity_x(XState(0.0, 0.25, 0.25, 0.5, -0.25))
    assert got == pytest.approx(math.sqrt(2.0) / 2.0 - 0.5, abs=1e-15)


def test_negativity_x_range():
    rng = np.random.default_rng(11)
    for _ in range(300):
        eps = negativity_x(random_xstate(rng))
        assert 0.0 <= eps <= 1.0 + 1e-12


def test_negativity_x_threshold_continuity():
    # wander across E^2 = A*D: epsilon goes to zero linearly, no jump
    a = d = 0.25
    root = math.sqrt(a * d)
    assert negativity_x(XState(a, 0.25, 0.25, d, root)) == 0.0
    assert negativity_x(XState(a, 0.25, 0.25, d, root - 1e-13)) == 0.0
    eps = negativity_x(XState(a, 0.25, 0.25, d, root + 1e-12))
    assert 0.0 < eps < 5e-12


def test_negativity_general_product_state():
    rho = np.zeros((4, 4))
    rho[1, 1] = 1.0  # |+>|-><+|<-|
    assert negativity_general(rho) == 0.0


def test_negativity_general_bell_state():
    assert negativity_general(BELL_SYM) == pytest.approx(1.0, abs=1e-12)


def test_negativity_general_werner_threshold():
    for p, expected in ((1.0 / 3.0, 0.0), (0.5, 0.25), (2.0 / 3.0, 0.5), (0.3, 0.0)):
        rho = p * BELL_SYM + (1.0 - p) * np.eye(4) / 4.0
        assert negativity_general(rho) == pytest.approx(expected, abs=1e-10)


def test_closed_form_matches_general_on_random_xstates():
    rng = np.random.default_rng(23)
    for _ in range(300):
        state = random_xstate(rng)
        assert abs(negativity_x(state) - negativity_general(state.to_matrix())) < 1e-10


def test_partial_transpose_moves_coherence_to_outer_block():
    state = XState(0.1, 0.35, 0.35, 0.2, 0.3)
    pt = partial_transpose(state.to_matrix())
    assert pt[0, 3] == pt[3, 0] == 0.3
    assert pt[1, 2] == pt[2, 1] == 0.0
    assert np.array_equal(np.diag(pt), np.diag(state.to_matrix()))


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(3)
    rho = random_density(rng)
    assert np.array_equal(partial_transpose(partial_transpose(rho)), rho)


def test_x_states_have_at_most_one_negative_eigenvalue():
    rng = np.random.default_rng(17)
    for _ in range(300):
        state = random_xstate(rng)
        eigs = np.linalg.eigvalsh(partial_transpose(state.to_matrix()))
        assert (eigs < -1e-12).sum() <= 1


def test_negativity_general_rejects_non_hermitian():
    rho = np.eye(4) / 4.0
    rho[0, 1] = 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        negativity_general(rho)


def test_negativity_general_rejects_wrong_shape():
    with pytest.raises(ValueError, match="4x4"):
        negativity_general(np.eye(3) / 3.0)


def test_negativity_general_rejects_non_finite():
    for bad in (math.nan, math.inf):
        rho = np.eye(4) / 4.0
        rho[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            negativity_general(rho)
        with pytest.raises(ValueError, match="finite"):
            negativity_general(np.stack([np.eye(4) / 4.0, rho]))


def test_negativity_x_of_a_non_finite_state_is_not_finite():
    # the overflowed sweep row of `--tmax 1e307`: every element NaN
    assert math.isnan(negativity_x(XState(*[math.nan] * 5)))
    # one bad element in a separable and in an entangled (Bell) state
    for base in ([0.2, 0.3, 0.3, 0.2, 0.0], [0.0, 0.5, 0.5, 0.0, 0.5]):
        for k in range(5):
            for bad in (math.nan, math.inf, -math.inf):
                elements = list(base)
                elements[k] = bad
                assert not math.isfinite(negativity_x(XState(*elements))), (base, k, bad)


def random_density_matrix(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_negativity_general_stack_matches_each_matrix_exactly():
    rng = np.random.default_rng(7)
    matrices = [random_xstate(rng).to_matrix() + 0j for _ in range(12)]
    matrices += [random_density_matrix(rng) for _ in range(12)]
    matrices += [BELL_SYM + 0j, np.eye(4) / 4.0 + 0j]
    stack = np.array(matrices).reshape(2, 13, 4, 4)
    batched = negativity_general(stack)
    assert batched.shape == (2, 13)
    single = np.array([negativity_general(rho) for rho in matrices]).reshape(2, 13)
    assert np.array_equal(batched, single)
    assert single.max() > 0.5 and (single == 0.0).any()


def test_eigenvalue_noise_does_not_create_entanglement():
    # E^2 == A*D exactly: the borderline eigenvalue must be treated as zero
    state = XState(0.25, 0.25, 0.25, 0.25, 0.25)
    assert negativity_x(state) == 0.0
    assert negativity_general(state.to_matrix()) == 0.0


def test_check_density_matrix_accepts_valid_states():
    rng = np.random.default_rng(29)
    for _ in range(20):
        rho = random_density(rng)
        assert check_density_matrix(rho) is rho


def test_check_density_matrix_rejects_violations():
    with pytest.raises(ValueError, match="Hermitian"):
        check_density_matrix(np.eye(4) / 4.0 + 1e-3 * np.triu(np.ones((4, 4)), k=1))
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(np.eye(4) / 2.0)
    bad = np.diag([0.6, 0.5, 0.0, -0.1])
    with pytest.raises(ValueError, match="eigenvalue"):
        check_density_matrix(bad)
