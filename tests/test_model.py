import math

import numpy as np
import pytest

from twinphoton.model import ATOM_INDEX, InitialAtomicState, TimeGrid, XState


def test_lambda_out_of_range_rejected():
    # a bool is an int, but no weight
    for lam in (1.5, -0.1, math.nan, True, False):
        with pytest.raises(ValueError, match="lambda must be in"):
            InitialAtomicState("mixed", lam)


def test_mixed_requires_lambda():
    with pytest.raises(ValueError, match="lambda"):
        InitialAtomicState("mixed", None)


def test_lambda_forbidden_on_pure_states():
    with pytest.raises(ValueError, match="lambda only applies"):
        InitialAtomicState("eg", 0.3)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        InitialAtomicState("xy", None)


def test_atom_index_follows_basis_order():
    assert ATOM_INDEX == {"ee": 0, "eg": 1, "ge": 2, "gg": 3}


def test_parts_decompose_the_initial_state():
    initial = InitialAtomicState("eg")
    assert (initial.variant, initial.excited_weight) == ("eg", None)
    for variant in ATOM_INDEX:
        assert InitialAtomicState(variant).parts == [(variant, 1.0)]
    lam = 0.3
    rho1 = np.diag([lam, 1.0 - lam])  # one atom, basis |+>, |->
    parts = InitialAtomicState("mixed", lam).parts
    assert [v for v, _ in parts] == ["ee", "eg", "ge", "gg"]
    assert np.allclose([w for _, w in parts], np.diag(np.kron(rho1, rho1)), rtol=0, atol=1e-15)
    assert sum(w for _, w in parts) == pytest.approx(1.0, abs=1e-15)
    for lam in (0.0, 1.0):
        assert len(InitialAtomicState("mixed", lam).parts) == 4


def test_time_grid_points():
    # a numpy integer step count is a count like any other
    for steps in (1000, np.int64(1000)):
        pts = TimeGrid(10.0, steps).points()
        assert pts.shape == (1001,)
        assert pts[0] == 0.0
        assert pts[-1] == 10.0
        # uniform spacing including both endpoints (each point rounds independently)
        assert np.allclose(np.diff(pts), 10.0 / 1000, rtol=0, atol=4e-15)


def test_time_grid_points_are_the_per_sample_formula():
    # one array expression, the same float operations as t_max * k / steps per sample
    for t_max, steps in ((10, 1000), (5, 49), (200, 2000), (0.1, 7), (1e300, 1)):
        grid = TimeGrid(t_max, steps)
        expected = np.array([grid.t_max * k / grid.steps for k in range(grid.steps + 1)])
        assert np.array_equal(grid.points(), expected), (t_max, steps)


def test_time_grid_single_step():
    assert list(TimeGrid(2.5, 1).points()) == [0.0, 2.5]


def test_invalid_grid_rejected():
    for t_max in (0.0, -1.0, math.inf, True):
        with pytest.raises(ValueError, match="t_max"):
            TimeGrid(t_max, 10)
    for steps in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="steps"):
            TimeGrid(1.0, steps)
    # points() would form t_max * steps = inf; a huge int must not raise OverflowError
    for t_max, steps in ((1e308, 2), (1.0, 10**400)):
        with pytest.raises(ValueError, match=r"t_max \* steps"):
            TimeGrid(t_max, steps)


def test_xstate_accessors():
    state = XState(0.1, 0.2, 0.3, 0.4, -0.05)
    assert state.as_tuple() == (0.1, 0.2, 0.3, 0.4, -0.05)
    assert state.trace == pytest.approx(1.0, abs=1e-15)


def test_xstate_matrix_embedding():
    state = XState(0.1, 0.2, 0.3, 0.4, -0.05)
    rho = state.to_matrix()
    assert rho.shape == (4, 4)
    assert np.array_equal(np.diag(rho), [0.1, 0.2, 0.3, 0.4])
    assert rho[1, 2] == rho[2, 1] == -0.05
    rho[1, 2] = 0.0
    rho[2, 1] = 0.0
    assert np.count_nonzero(rho - np.diag(np.diag(rho))) == 0
