import math

import numpy as np
import pytest

from twinphoton.model import ATOM_INDEX, InitialAtomicState, ModelParams, TimeGrid, XState


def test_validate_accepts_standard_configuration():
    params = ModelParams(g=1.0, nbar1=1.0, nbar2=1.0)
    initial = InitialAtomicState.pure("eg")
    assert (params.g, params.nbar1, params.nbar2) == (1.0, 1.0, 1.0)
    assert (initial.variant, initial.excited_weight) == ("eg", None)


def test_negative_nbar_rejected_by_name():
    with pytest.raises(ValueError, match="nbar1"):
        ModelParams(g=1.0, nbar1=-0.1, nbar2=1.0)
    with pytest.raises(ValueError, match="nbar2"):
        ModelParams(g=1.0, nbar1=1.0, nbar2=-2.0)


def test_nonpositive_or_nonfinite_g_rejected():
    for g in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="g"):
            ModelParams(g=g, nbar1=0.0, nbar2=0.0)


def test_nonfinite_nbar_rejected():
    with pytest.raises(ValueError, match="nbar1"):
        ModelParams(g=1.0, nbar1=math.nan, nbar2=0.0)


def test_lambda_out_of_range_rejected():
    for lam in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="lambda must be in"):
            InitialAtomicState.mixed(lam)


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


def test_pure_and_mixed_constructors():
    assert InitialAtomicState.pure("gg") == InitialAtomicState("gg", None)
    assert InitialAtomicState.mixed(0.09) == InitialAtomicState("mixed", 0.09)


def test_time_grid_points():
    grid = TimeGrid(10.0, 1000)
    pts = grid.points()
    assert pts.shape == (1001,)
    assert pts[0] == 0.0
    assert pts[-1] == 10.0
    # uniform spacing including both endpoints (each point rounds independently)
    assert np.allclose(np.diff(pts), 10.0 / 1000, rtol=0, atol=4e-15)


def test_time_grid_single_step():
    assert list(TimeGrid(2.5, 1).points()) == [0.0, 2.5]


def test_invalid_grid_rejected():
    for t_max in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="t_max"):
            TimeGrid(t_max, 10)
    for steps in (0, -3, 2.5):
        with pytest.raises(ValueError, match="steps"):
            TimeGrid(1.0, steps)


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
