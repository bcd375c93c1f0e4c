import math
import tracemalloc

import numpy as np
import pytest

from helpers import assert_valid_xstate, frequency_blocks, trig_xstate_term
from twinphoton import _core_py, oracle
from twinphoton.dynamics import sweep, xstate_term
from twinphoton.model import InitialAtomicState, TimeGrid, XState
from twinphoton.thermal import FockCutoff, thermal_weight

GTS = (0.1, 0.7, 1.3, 3.1, 9.9)
VARIANTS = ("ee", "eg", "ge", "gg")


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


def test_term_coefficients_match_trig_formula():
    # the x = 1 - cos(Omega gt) polynomial against the sin/cos ladder solution,
    # on a random sample of Fock pairs up to the largest grids the CLI sums
    rng = np.random.default_rng(7)
    n1 = np.concatenate([[0, 0, 5, 1], rng.integers(0, 250, 200)]).astype(float)
    n2 = np.concatenate([[0, 5, 0, 1], rng.integers(0, 250, 200)]).astype(float)
    for variant in VARIANTS:
        for gt in (0.0, 1e-8, 0.37, 10.0):
            new = np.array(_core_py.xstate_term(variant, n1, n2, gt))
            old = np.array(trig_xstate_term(variant, n1, n2, gt))
            if gt == 0.0:
                assert np.array_equal(new, old), variant
            assert np.abs(new - old).max() <= 1e-14, (variant, gt)


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
    # the times sweep rejects, and Fock indices that are not integers (a bool is none)
    for n1, n2, gt in (
        (0, 0, math.nan),
        (0, 0, math.inf),
        (0, 0, -1.0),
        (math.nan, 0, 1.0),
        (0, math.nan, 1.0),
        (0.5, 0, 1.0),
        (0, 2.0, 1.0),
        (True, False, 1.0),
        (0, True, 1.0),
    ):
        with pytest.raises(ValueError):
            xstate_term("eg", n1, n2, gt)


def set_weights(cutoff):
    """Fock indices (n1, n2) of the set's pairs and their thermal weights w1[n1] w2[n2]."""
    n1, n2 = cutoff.points()
    w1 = [thermal_weight(cutoff.nbar1, n) for n in range(cutoff.n_max1 + 1)]
    w2 = [thermal_weight(cutoff.nbar2, n) for n in range(cutoff.n_max2 + 1)]
    return n1, n2, np.array(w1)[n1] * np.array(w2)[n2]


def test_sweep_trace_equals_retained_mass():
    for nbars in ((1.0, 1.0), (3.0, 0.5)):
        cutoff = FockCutoff.choose(*nbars, 1e-8)
        retained = math.fsum(set_weights(cutoff)[2])
        assert retained == pytest.approx(1.0 - cutoff.tail_bound, rel=0, abs=1e-15)
        gts = TimeGrid(8.0, 40).points()
        for variant in VARIANTS:
            rows = sweep(InitialAtomicState(variant), gts, cutoff)
            traces = rows[:, :4].sum(axis=1)
            assert np.allclose(traces, retained, rtol=0, atol=1e-12)
            assert np.all(traces >= 1.0 - cutoff.tail_bound - 1e-12)
            for row in rows:
                assert_valid_xstate(XState(*row), mass=retained, mass_tol=1e-12)


def test_sweep_matches_exact_sum_across_row_blocks(monkeypatch):
    # the 12,650 points of the set in a 91x275 extent share ~5,700 distinct
    # block frequencies per variant, which fill several blocks on both paths
    cutoff = FockCutoff.choose(3.0, 10.0, 1e-10)
    n1, n2, weight = set_weights(cutoff)
    # seven times on the direct path, and three rows of a grid that takes angle addition
    grid = TimeGrid(10.0, 1000).points()
    direct = (0.7, 3.1, 9.9, 0.2, 4.4, 6.05, 8.3)
    for gts, picked in ((direct, range(7)), (grid, (7, 503, 1000))):
        for variant in VARIANTS:
            assert frequency_blocks(monkeypatch, variant, gts, cutoff) >= 3, variant
            rows = sweep(InitialAtomicState(variant), gts, cutoff)
            for k in picked:
                terms = _core_py.xstate_term(variant, n1, n2, gts[k])
                exact = [math.fsum(weight * t) for t in terms]
                assert np.allclose(rows[k], exact, rtol=0, atol=1e-14), (variant, k)


def test_moment_sums_match_exact_sum_of_terms():
    # the kernel sums w, w r and w r^2 per key and expands them through the
    # coefficient table; against fsum over the weighted per-pair terms, also
    # with all weight on gg's rows of an empty mode (clamped m, q = 0)
    cutoff = FockCutoff.choose(3.0, 10.0, 1e-10)
    w1, w2 = cutoff.weights()
    n1, n2 = np.arange(w1.size)[:, None], np.arange(w2.size)
    empty_mode = ((np.eye(1, w1.size)[0], w2), (w1, np.eye(1, w2.size)[0]))
    grid = TimeGrid(10.0, 1000).points()
    for gts, picked in ((TimeGrid(10.0, 10).points(), range(11)), (grid, (0, 7, 250, 503, 1000))):
        for variant in VARIANTS:
            weights = ((w1, w2),) + (empty_mode if variant == "gg" else ())
            sweeps = [_core_py.thermal_sweep(variant, a, b, gts) for a, b in weights]
            for k in picked:
                terms = _core_py.xstate_term(variant, n1, n2, gts[k])
                for (a, b), rows in zip(weights, sweeps):
                    weight = np.outer(a, b)
                    exact = [math.fsum((weight * t).ravel()) for t in terms]
                    assert np.abs(rows[k] - exact).max() <= 1e-14, (variant, k)


class _ReversedTies:
    """Stands in for numpy in the kernel module; its argsort puts equal keys in reverse point order."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def argsort(a, kind=None):
        return np.lexsort((-np.arange(a.size), a))


def test_sweep_does_not_depend_on_the_sort_order_of_equal_keys(monkeypatch):
    # the moments are summed in the set's point order, not in the sort's
    cutoff = FockCutoff.choose(3.0, 10.0, 1e-10)
    w1, w2 = cutoff.weights()
    rows = np.array(cutoff.rows)
    for gts in (TimeGrid(10.0, 10).points(), TimeGrid(10.0, 1000).points()):
        for variant in VARIANTS:
            stable = _core_py.thermal_sweep(variant, w1, w2, gts, rows)
            monkeypatch.setattr(_core_py, "np", _ReversedTies())
            reversed_ties = _core_py.thermal_sweep(variant, w1, w2, gts, rows)
            monkeypatch.undo()
            assert np.array_equal(stable, reversed_ties), variant


def test_key_gives_the_block_frequency_bit_for_bit():
    # sqrt(key + 1) with key = (2 m1 + 1)(2 m2 + 1) is the float block_frequency
    # gives, on grids as large as the CLI sums, so the sines are the same
    n = np.arange(2500)
    for variant in VARIANTS:
        m = _core_py._block_index(variant, n)
        odd, _ = _core_py._mode_factors(variant, n)
        key = np.multiply.outer(odd, odd[::7])
        assert np.array_equal(np.sqrt(key + 1), _core_py.block_frequency(m[:, None], m[::7]))


def test_sweep_error_is_within_certified_tail_bound():
    # every per-term X-state is unit-trace PSD (entries <= 1), so the neglected
    # thermal mass bounds the truncation error of each element; at gt = 0 the
    # initial population misses t1 + t2 - t1*t2 of it, so the bound is nearly attained
    gts = np.array([0.0, 0.7, 3.1, 9.9])
    initials = [InitialAtomicState(v) for v in VARIANTS] + [
        InitialAtomicState("mixed", 0.05)
    ]
    for nbar1, nbar2 in ((0.3, 0.3), (1.3, 0.4), (3.0, 10.0)):
        reference = FockCutoff.choose(nbar1, nbar2, 1e-16)
        exact = [sweep(initial, gts, reference) for initial in initials]
        for tol in (1e-4, 1e-10):
            cutoff = FockCutoff.choose(nbar1, nbar2, tol)
            errors = [
                np.abs(sweep(initial, gts, cutoff) - rows).max()
                for initial, rows in zip(initials, exact)
            ]
            assert max(errors) <= cutoff.tail_bound + 1e-12
            assert max(errors) >= 0.99 * cutoff.tail_bound


def test_sweep_temporaries_are_bounded_in_the_number_of_times():
    # the kernel's point arrays are the size of the Fock set, and it takes its
    # sines in blocks of about TRIG_ELEMENTS distinct frequencies x times;
    # holding the whole time axis would need 1001 x 5,695 x 8 B ~ 46 MB per array here
    cutoff = FockCutoff.choose(3.0, 10.0, 1e-10)
    w1 = np.array([thermal_weight(3.0, n) for n in range(cutoff.n_max1 + 1)])
    w2 = np.array([thermal_weight(10.0, n) for n in range(cutoff.n_max2 + 1)])
    rows = np.array(cutoff.rows)
    peaks = {}
    for steps in (11, 1001):
        gts = np.linspace(0.0, 10.0, steps)
        tracemalloc.start()
        try:
            _core_py.thermal_sweep("eg", w1, w2, gts, rows)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= 1 << 20, peaks
    assert peaks[1001] < 2 * peaks[11], peaks


class _TrigCounter:
    """Stands in for numpy in the kernel module and counts the elements passed to sin and cos."""

    def __init__(self):
        self.elements = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sin(self, x, *args, **kwargs):
        self.elements += np.size(x)
        return np.sin(x, *args, **kwargs)

    def cos(self, x, *args, **kwargs):
        self.elements += np.size(x)
        return np.cos(x, *args, **kwargs)


def _weights_and_distinct(variant, nbar1, nbar2):
    """Thermal weights of the cutoff choose() picks at tail 1e-10, and the grid's distinct frequencies."""
    cutoff = FockCutoff.choose(nbar1, nbar2, 1e-10)
    w1, w2 = cutoff.weights()
    block_shift = {"ee": 1, "eg": 0, "ge": 0, "gg": -1}
    m1 = np.maximum(np.arange(w1.size) + block_shift[variant], 0)
    m2 = np.maximum(np.arange(w2.size) + block_shift[variant], 0)
    return w1, w2, np.unique(_core_py.block_frequency(m1[:, None], m2)).size


def _direct(monkeypatch, variant, w1, w2, gts):
    """The kernel's output with every time on the direct path, one sin per frequency and time."""
    monkeypatch.setattr(_core_py, "_offset_count", lambda gts: 0)
    try:
        return _core_py.thermal_sweep(variant, w1, w2, gts)
    finally:
        monkeypatch.undo()


def test_sweep_takes_one_sin_per_distinct_frequency_and_time(monkeypatch):
    # grid points with the same (2 m1 + 1)(2 m2 + 1) share a block frequency;
    # one sin per grid point and time would be ~1.8x this bound on 83x249
    gts = np.linspace(0.0, 10.0, 21)
    for variant in VARIANTS:
        w1, w2, distinct = _weights_and_distinct(variant, 3.0, 10.0)
        assert distinct < 0.6 * w1.size * w2.size
        counter = _TrigCounter()
        monkeypatch.setattr(_core_py, "np", counter)
        _core_py.thermal_sweep(variant, w1, w2, gts)
        monkeypatch.undo()
        assert counter.elements == distinct * gts.size


def test_uniform_grid_takes_angle_addition_trig(monkeypatch):
    # sin(A + B) from the sin and cos of R offsets and ceil(T/R) anchors per frequency
    gts = TimeGrid(10.0, 1000).points()
    split = _core_py._offset_count(gts)
    assert split > 0
    for variant in VARIANTS:
        w1, w2, distinct = _weights_and_distinct(variant, 3.0, 10.0)
        counter = _TrigCounter()
        monkeypatch.setattr(_core_py, "np", counter)
        _core_py.thermal_sweep(variant, w1, w2, gts)
        monkeypatch.undo()
        per_frequency = 2 * (-(-gts.size // split) + split)
        assert counter.elements <= per_frequency * distinct
        assert counter.elements < distinct * gts.size / 4


def test_offset_count_takes_only_grids_from_zero_where_it_pays():
    assert _core_py._offset_count(np.linspace(0.0, 10.0, 1001)) > 0
    assert _core_py._offset_count(TimeGrid(200.0, 2000).points()) > 0
    # too few times to halve the trig work, or times that do not split
    for gts in (
        TimeGrid(10.0, 10).points(),
        TimeGrid(5.0, 49).points(),
        np.array([0.7, 3.1, 9.9]),
        TimeGrid(10.0, 1000).points() + 0.5,
        TimeGrid(10.0, 1000).points() ** 2,
        np.array([]),
    ):
        assert _core_py._offset_count(gts) == 0, gts.size


def test_grid_path_agrees_with_direct_path_at_long_times(monkeypatch):
    gts = TimeGrid(200.0, 2000).points()
    for variant in VARIANTS:
        w1, w2, _ = _weights_and_distinct(variant, 1.0, 1.0)
        grid = _core_py.thermal_sweep(variant, w1, w2, gts)
        assert np.abs(grid - _direct(monkeypatch, variant, w1, w2, gts)).max() <= 1e-13


def test_off_grid_times_take_the_direct_path(monkeypatch):
    gts = TimeGrid(10.0, 1000).points()
    gts[400] += 1e-9
    w1, w2, _ = _weights_and_distinct("eg", 3.0, 10.0)
    rows = _core_py.thermal_sweep("eg", w1, w2, gts)
    assert np.array_equal(rows, _direct(monkeypatch, "eg", w1, w2, gts))


def test_sweep_mode_swap_symmetry():
    cutoff = FockCutoff.choose(1.3, 0.4, 1e-10)
    swapped = FockCutoff.choose(0.4, 1.3, 1e-10)
    assert swapped == cutoff.transposed() and cutoff.rows != swapped.rows
    gts = TimeGrid(7.0, 60).points()
    for initial in [InitialAtomicState(v) for v in VARIANTS] + [
        InitialAtomicState("mixed", 0.05)
    ]:
        a = sweep(initial, gts, cutoff)
        b = sweep(initial, gts, swapped)
        assert np.allclose(a, b, rtol=0, atol=1e-13)


def test_sweep_deterministic_repeat():
    cutoff = FockCutoff.choose(1.0, 1.0, 1e-10)
    gts = TimeGrid(10.0, 100).points()
    a = sweep(InitialAtomicState("gg"), gts, cutoff)
    b = sweep(InitialAtomicState("gg"), gts, cutoff)
    assert np.array_equal(a, b)


def test_mixed_is_elementwise_combination():
    cutoff = FockCutoff.choose(1.0, 1.0, 1e-10)
    gts = np.array([2.0])
    lam = 0.05
    parts = {v: sweep(InitialAtomicState(v), gts, cutoff)[0] for v in VARIANTS}
    expected = (
        0.0025 * parts["ee"]
        + 0.0475 * (parts["eg"] + parts["ge"])
        + 0.9025 * parts["gg"]
    )
    got = sweep(InitialAtomicState("mixed", lam), gts, cutoff)[0]
    assert np.allclose(got, expected, rtol=1e-14, atol=1e-16)


def test_mixed_endpoints_reduce_to_pure():
    cutoff = FockCutoff.choose(0.6, 0.6, 1e-10)
    gts = TimeGrid(4.0, 16).points()
    for lam, variant in ((0.0, "gg"), (1.0, "ee")):
        mixed = sweep(InitialAtomicState("mixed", lam), gts, cutoff)
        assert np.array_equal(mixed, sweep(InitialAtomicState(variant), gts, cutoff))


def test_mixed_rejects_lambda_outside_unit_interval():
    with pytest.raises(ValueError):
        InitialAtomicState("mixed", 1.5)


def test_sweep_rejects_negative_times():
    cutoff = FockCutoff.choose(0.3, 0.3, 1e-10)
    for gts in ([-0.5, 1.0], [math.nan], [1.0, math.inf]):
        with pytest.raises(ValueError):
            sweep(InitialAtomicState("eg"), gts, cutoff)


def test_sweep_rejects_times_that_are_not_one_dimensional():
    cutoff = FockCutoff(3, 3, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"1-D.*\(1, 2\)"):
        sweep(InitialAtomicState("eg"), [[1.0, 2.0]], cutoff)
    with pytest.raises(ValueError, match=r"1-D.*\(2, 2\)"):
        oracle.thermal_sweep([InitialAtomicState("eg")], np.ones((2, 2)), cutoff)


def test_initial_projector_at_zero_time():
    cutoff = FockCutoff.choose(1.0, 1.0, 1e-10)
    for variant in VARIANTS:
        state = XState(*sweep(InitialAtomicState(variant), [0.0], cutoff)[0])
        pops = state.as_tuple()[:4]
        idx = VARIANTS.index(variant)
        for j, value in enumerate(pops):
            expected = 1.0 if j == idx else 0.0
            # retained-mass normalization only (tail below 1e-10)
            assert value == pytest.approx(expected, abs=1e-9)
        assert state.coherence == 0.0
