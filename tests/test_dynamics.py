import math

import numpy as np
import pytest

from helpers import assert_valid_xstate
from twinphoton import _core_py
from twinphoton.dynamics import sweep, xstate_term
from twinphoton.model import ATOM_INDEX, InitialAtomicState, ModelParams, TimeGrid, XState
from twinphoton.thermal import FockCutoff, thermal_weight

GTS = (0.1, 0.7, 1.3, 3.1, 9.9)
VARIANTS = ("ee", "eg", "ge", "gg")


def params_for(nbar1, nbar2=None, g=1.0):
    return ModelParams(g=g, nbar1=nbar1, nbar2=nbar1 if nbar2 is None else nbar2)


def test_block_frequency_examples():
    assert _core_py.block_frequency(0, 0) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert _core_py.block_frequency(1, 1) == pytest.approx(math.sqrt(10.0), abs=1e-14)
    assert _core_py.block_frequency(2, 3) == pytest.approx(6.0, abs=1e-14)


def test_term_identity_at_zero_time():
    projectors = {
        "ee": (1, 0, 0, 0),
        "eg": (0, 1, 0, 0),
        "ge": (0, 0, 1, 0),
        "gg": (0, 0, 0, 1),
    }
    for variant, pops in projectors.items():
        for n1, n2 in ((0, 0), (2, 5), (7, 1)):
            term = xstate_term(variant, n1, n2, 0.0)
            assert term.as_tuple() == (*map(float, pops), 0.0)


def test_term_vacuum_quarter_period():
    # only the (0,0) block is populated; Omega*t = pi/2 there
    gt = math.pi / (2.0 * math.sqrt(2.0))
    term = xstate_term("eg", 0, 0, gt)
    expected = (0.0, 0.25, 0.25, 0.5, -0.25)
    assert np.allclose(term.as_tuple(), expected, rtol=0, atol=1e-12)


def test_term_ge_swaps_middle_populations():
    for n1, n2 in ((0, 0), (1, 3), (4, 2)):
        for gt in GTS:
            a = xstate_term("eg", n1, n2, gt)
            b = xstate_term("ge", n1, n2, gt)
            assert (a.pop_ee, a.pop_gg, a.coherence) == (b.pop_ee, b.pop_gg, b.coherence)
            assert (a.pop_eg, a.pop_ge) == (b.pop_ge, b.pop_eg)


def test_term_gg_vacuum_is_stationary():
    for gt in GTS:
        assert xstate_term("gg", 0, 0, gt).as_tuple() == (0.0, 0.0, 0.0, 1.0, 0.0)
        assert xstate_term("gg", 0, 4, gt).as_tuple() == (0.0, 0.0, 0.0, 1.0, 0.0)
        assert xstate_term("gg", 4, 0, gt).as_tuple() == (0.0, 0.0, 0.0, 1.0, 0.0)


def test_term_unit_trace_and_invariants():
    for variant in VARIANTS:
        for n1 in range(0, 9):
            for n2 in range(0, 9):
                for gt in GTS:
                    term = xstate_term(variant, n1, n2, gt)
                    assert_valid_xstate(term, mass=1.0, mass_tol=1e-12)


def test_rabi_rejects_negative_indices():
    # the block frequency is only defined for photon numbers n1, n2 >= 0
    with pytest.raises(ValueError):
        xstate_term("eg", -1, 0, 1.0)
    with pytest.raises(ValueError):
        xstate_term("eg", 0, -3, 1.0)


def test_term_rejects_bad_arguments():
    with pytest.raises(ValueError):
        xstate_term("mixed", 0, 0, 1.0)
    with pytest.raises(ValueError):
        xstate_term("eg", -1, 0, 1.0)


def test_sweep_trace_equals_retained_mass():
    p = params_for(1.0)
    cutoff = FockCutoff.choose(1.0, 1.0, 1e-8)
    m1 = sum(thermal_weight(1.0, n) for n in range(cutoff.n_max1 + 1))
    m2 = sum(thermal_weight(1.0, n) for n in range(cutoff.n_max2 + 1))
    gts = TimeGrid(8.0, 40).points()
    for variant in VARIANTS:
        rows = sweep(InitialAtomicState.pure(variant), p, gts, cutoff)
        traces = rows[:, :4].sum(axis=1)
        assert np.allclose(traces, m1 * m2, rtol=0, atol=1e-12)
        assert np.all(traces >= 1.0 - cutoff.tail_bound - 1e-12)
        for row in rows:
            assert_valid_xstate(XState(*row), mass=m1 * m2, mass_tol=1e-12)


def test_sweep_matches_exact_sum_across_row_blocks():
    # an 83x249 grid spans 6 blocks of 16 rows, with weight ~2.5e-3 at the first boundary
    p = params_for(3.0, 10.0)
    cutoff = FockCutoff.choose(3.0, 10.0, 1e-10)
    n1 = np.arange(cutoff.n_max1 + 1)
    n2 = np.arange(cutoff.n_max2 + 1)
    assert n1.size >= 3 * (_core_py.BLOCK_ELEMENTS // n2.size)
    weight = np.outer(
        [thermal_weight(3.0, n) for n in n1], [thermal_weight(10.0, n) for n in n2]
    )
    gts = (0.7, 3.1, 9.9)
    for variant in VARIANTS:
        rows = sweep(InitialAtomicState.pure(variant), p, gts, cutoff)
        for row, gt in zip(rows, gts):
            terms = _core_py.xstate_term(ATOM_INDEX[variant], n1[:, None], n2, gt)
            exact = [math.fsum((weight * t).ravel()) for t in terms]
            assert np.allclose(row, exact, rtol=0, atol=1e-14)


def test_sweep_error_is_within_certified_tail_bound():
    # every per-term X-state is unit-trace PSD (entries <= 1), so the neglected
    # thermal mass bounds the truncation error of each element; at gt = 0 the
    # initial population misses t1 + t2 - t1*t2 of it, so the bound is nearly attained
    gts = np.array([0.0, 0.7, 3.1, 9.9])
    initials = [InitialAtomicState.pure(v) for v in VARIANTS] + [
        InitialAtomicState.mixed(0.05)
    ]
    for nbar1, nbar2 in ((0.3, 0.3), (1.3, 0.4), (3.0, 10.0)):
        p = params_for(nbar1, nbar2)
        reference = FockCutoff.choose(nbar1, nbar2, 1e-16)
        exact = [sweep(initial, p, gts, reference) for initial in initials]
        for tol in (1e-4, 1e-10):
            cutoff = FockCutoff.choose(nbar1, nbar2, tol)
            errors = [
                np.abs(sweep(initial, p, gts, cutoff) - rows).max()
                for initial, rows in zip(initials, exact)
            ]
            assert max(errors) <= cutoff.tail_bound + 1e-12
            assert max(errors) >= 0.99 * cutoff.tail_bound


def test_sweep_mode_swap_symmetry():
    cutoff = FockCutoff.choose(1.3, 0.4, 1e-10)
    swapped = FockCutoff(cutoff.n_max2, cutoff.n_max1, cutoff.tail_bound)
    gts = TimeGrid(7.0, 60).points()
    for initial in [InitialAtomicState.pure(v) for v in VARIANTS] + [
        InitialAtomicState.mixed(0.05)
    ]:
        a = sweep(initial, params_for(1.3, 0.4), gts, cutoff)
        b = sweep(initial, params_for(0.4, 1.3), gts, swapped)
        assert np.allclose(a, b, rtol=0, atol=1e-13)


def test_sweep_depends_only_on_gt():
    # same dimensionless times, different couplings: identical elements
    cutoff = FockCutoff.choose(0.7, 0.7, 1e-10)
    gts = TimeGrid(5.0, 20).points()
    eg = InitialAtomicState.pure("eg")
    a = sweep(eg, params_for(0.7, g=1.0), gts, cutoff)
    b = sweep(eg, params_for(0.7, g=3.5), gts, cutoff)
    assert np.array_equal(a, b)


def test_sweep_deterministic_repeat():
    p = params_for(1.0)
    cutoff = FockCutoff.choose(1.0, 1.0, 1e-10)
    gts = TimeGrid(10.0, 100).points()
    a = sweep(InitialAtomicState.pure("gg"), p, gts, cutoff)
    b = sweep(InitialAtomicState.pure("gg"), p, gts, cutoff)
    assert np.array_equal(a, b)


def test_mixed_is_elementwise_combination():
    p = params_for(1.0)
    cutoff = FockCutoff.choose(1.0, 1.0, 1e-10)
    gts = np.array([2.0])
    lam = 0.05
    parts = {v: sweep(InitialAtomicState.pure(v), p, gts, cutoff)[0] for v in VARIANTS}
    expected = (
        0.0025 * parts["ee"]
        + 0.0475 * (parts["eg"] + parts["ge"])
        + 0.9025 * parts["gg"]
    )
    got = sweep(InitialAtomicState.mixed(lam), p, gts, cutoff)[0]
    assert np.allclose(got, expected, rtol=1e-14, atol=1e-16)


def test_mixed_endpoints_reduce_to_pure():
    p = params_for(0.6)
    cutoff = FockCutoff.choose(0.6, 0.6, 1e-10)
    gts = TimeGrid(4.0, 16).points()
    for lam, variant in ((0.0, "gg"), (1.0, "ee")):
        mixed = sweep(InitialAtomicState.mixed(lam), p, gts, cutoff)
        assert np.array_equal(mixed, sweep(InitialAtomicState.pure(variant), p, gts, cutoff))


def test_mixed_rejects_lambda_outside_unit_interval():
    with pytest.raises(ValueError):
        InitialAtomicState.mixed(1.5)


def test_sweep_rejects_negative_times():
    p = params_for(0.3)
    cutoff = FockCutoff.choose(0.3, 0.3, 1e-10)
    for gts in ([-0.5, 1.0], [math.nan], [1.0, math.inf]):
        with pytest.raises(ValueError):
            sweep(InitialAtomicState.pure("eg"), p, gts, cutoff)


def test_initial_projector_at_zero_time():
    p = params_for(1.0)
    cutoff = FockCutoff.choose(1.0, 1.0, 1e-10)
    for variant in VARIANTS:
        state = XState(*sweep(InitialAtomicState.pure(variant), p, [0.0], cutoff)[0])
        pops = state.as_tuple()[:4]
        idx = VARIANTS.index(variant)
        for j, value in enumerate(pops):
            expected = 1.0 if j == idx else 0.0
            # retained-mass normalization only (tail below 1e-10)
            assert value == pytest.approx(expected, abs=1e-9)
        assert state.coherence == 0.0
