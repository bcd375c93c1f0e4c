import dataclasses
import math

import numpy as np
import pytest

from helpers import thermal_weight
from twinphoton.thermal import FockCutoff, mode_weights

NBARS = (0.05, 0.3, 1.0, 2.5, 10.0)


def brute_tail(nbar, n_max, extra=2000):
    """Reference tail sum_{n>n_max} p_n by plain direct summation."""
    return sum(thermal_weight(nbar, n) for n in range(n_max + 1, n_max + 1 + extra))


def row_limit(nbar, tol):
    """Limit N of the one-row set FockCutoff.choose keeps with the first mode empty."""
    cutoff = FockCutoff.choose(0.0, nbar, tol)
    assert cutoff.n_max1 == 0 and cutoff.rows == (cutoff.n_max2,)
    return cutoff.n_max2, cutoff.tail_bound


def row_tail(nbar, n_max):
    """Neglected mass of the one-row set n2 <= n_max, the first mode empty."""
    return FockCutoff.explicit(0, n_max, 0.0, nbar).tail_bound


def test_thermal_weight_examples():
    assert mode_weights(1.0, 0)[0] == pytest.approx(0.5, abs=1e-15)
    assert mode_weights(0.0, 3).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert mode_weights(0.3, 1)[1] == pytest.approx(0.3 / 1.69, abs=1e-15)


def test_thermal_weight_partial_sums_match_geometric_closed_form():
    for nbar in NBARS:
        r = nbar / (1.0 + nbar)
        weights = mode_weights(nbar, 200)
        assert weights.shape == (201,)
        total = 0.0
        for n in range(201):
            assert weights[n] == thermal_weight(nbar, n)
            total += weights[n]
            assert total == pytest.approx(1.0 - r ** (n + 1), abs=1e-12)


def test_thermal_weight_ratio_is_constant():
    for nbar in NBARS:
        r = nbar / (1.0 + nbar)
        weights = mode_weights(nbar, 60)
        for n in range(0, 60, 7):
            assert weights[n + 1] / weights[n] == pytest.approx(r, rel=1e-13)


def test_thermal_weight_rejects_bad_input():
    for nbar in (-0.5, math.nan, math.inf, True):
        with pytest.raises(ValueError):
            mode_weights(nbar, 3)
    for n_max in (-1, 0.5, 2.5, math.nan, True):
        with pytest.raises(ValueError):
            mode_weights(1.0, n_max)
    # a numpy integer n_max, as np.arange yields them, gives the same weights,
    # down to the last bit (float ** np.int64 alone would differ at these points)
    for nbar, n in ((1.0, 2), (0.5, 10), (2.0, 10), (0.7, 13), (0.7, 14)):
        assert np.array_equal(mode_weights(nbar, np.int64(n)), mode_weights(nbar, n)), (nbar, n)
    # a numpy float32 nbar is computed in double precision, not in float32
    nbar = np.float32(0.3)
    assert mode_weights(nbar, 5)[5] == thermal_weight(float(nbar), 5)
    assert mode_weights(nbar, 3).dtype == np.float64


def test_choose_cutoff_vacuum():
    for tol in (1e-12, 1e-300):
        assert FockCutoff.choose(0.0, 0.0, tol) == FockCutoff((0,), 0.0, 0.0)
        assert FockCutoff.choose(0.0, 0.0, tol).tail_bound == 0.0


def test_choose_cutoff_geometric_example():
    n, tail = row_limit(1.0, 1e-6)
    assert n == 19
    assert tail == pytest.approx(0.5**20, rel=1e-12)


def test_choose_cutoff_weighted_is_minimal_against_brute_force():
    # the returned N certifies the bound and N-1 must not
    for nbar, tol in ((1.0, 1e-6), (0.3, 1e-8), (2.5, 1e-6)):
        n, tail = row_limit(nbar, tol)
        assert tail < tol <= row_tail(nbar, n - 1)
        assert brute_tail(nbar, n) < tol
        assert brute_tail(nbar, n - 1) >= tol
        # reported tail is a valid upper bound on the true tail
        assert tail >= brute_tail(nbar, n) * (1.0 - 1e-12)


def test_choose_cutoff_monotone_in_tolerance():
    for nbar in NBARS:
        last = -1
        for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            n, _ = row_limit(nbar, tol)
            assert n >= last
            last = n


def test_choose_cutoff_rejects_bad_input():
    for tol in (0.0, -1e-6, math.nan):
        with pytest.raises(ValueError, match="tol"):
            FockCutoff.choose(0.0, 1.0, tol)
    for nbar in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="nbar2"):
            FockCutoff.choose(0.0, nbar, 1e-6)
    # r = nbar/(1+nbar) rounds to 1: no finite cutoff exists
    with pytest.raises(ValueError, match="nbar too large"):
        FockCutoff.choose(0.0, 1e17, 1e-6)
    for n_max in (-1, 0.5, 2.5, math.nan):
        with pytest.raises(ValueError, match="cutoffs"):
            row_tail(1.0, n_max)
    # a numpy integer cutoff gives the same Python float, down to the last bit
    # (float ** np.int64 alone would differ at the last three points)
    for nbar, n_max in ((1.0, 2), (0.5, 9), (0.7, 13), (0.3, 15)):
        tail = row_tail(nbar, np.int64(n_max))
        assert type(tail) is float and tail == row_tail(nbar, n_max), (nbar, n_max)


def test_choose_cutoff_large_nbar_is_minimal():
    # the cutoff comes from a logarithm, not a scan over ~nbar*log(1/tol) candidates
    for nbar in (1e4, 1e12):
        n, tail = row_limit(nbar, 1e-10)
        assert tail == row_tail(nbar, n) < 1e-10 <= row_tail(nbar, n - 1)


def test_tail_mass_matches_brute_force():
    for nbar in (0.3, 1.0, 2.5):
        for n_max in (0, 3, 12):
            assert row_tail(nbar, n_max) == pytest.approx(brute_tail(nbar, n_max), rel=1e-10)


SET_CASES = [(nbars, tol) for nbars in ((1.0, 1.0), (1.3, 0.4), (3.0, 10.0), (0.0, 2.0))
             for tol in (1e-6, 1e-10)]


def pair_weights(cutoff, extra):
    """Thermal weights w1[n1] w2[n2] over the extent plus ``extra`` per mode, and the set's mask."""
    w1, w2 = (mode_weights(nbar, n + extra) for nbar, n in
              ((cutoff.nbar1, cutoff.n_max1), (cutoff.nbar2, cutoff.n_max2)))
    kept = np.zeros((w1.size, w2.size), dtype=bool)
    kept[cutoff.points()] = True
    return np.outer(w1, w2), kept


def test_fock_cutoff_choose_respects_tolerance():
    for (nbar1, nbar2), tol in SET_CASES:
        cutoff = FockCutoff.choose(nbar1, nbar2, tol)
        assert (cutoff.nbar1, cutoff.nbar2) == (nbar1, nbar2)
        assert cutoff.tail_bound < tol
        # the neglected mass is exact: a brute-force sum of every pair outside
        # the set, far enough out that the rest is below 1e-30 of it
        weight, kept = pair_weights(cutoff, 800)
        dropped = math.fsum(weight[~kept])
        assert cutoff.tail_bound == pytest.approx(dropped, rel=1e-15, abs=0), (nbar1, nbar2, tol)
        # and it is the smallest such set: without its lightest pairs it neglects tol or more
        lightest = weight[kept] <= weight[kept].min() * (1.0 + 1e-9)
        assert cutoff.tail_bound + math.fsum(weight[kept][lightest]) >= tol


def test_fock_cutoff_choose_keeps_the_largest_weights():
    for (nbar1, nbar2), tol in SET_CASES:
        cutoff = FockCutoff.choose(nbar1, nbar2, tol)
        rows = np.array(cutoff.rows)
        assert rows.size == cutoff.n_max1 + 1 and rows[0] == cutoff.n_max2
        assert (np.diff(rows) <= 0).all() and rows[-1] >= 0
        assert cutoff.size == rows.sum() + rows.size
        # every kept pair weighs at least as much as every dropped one, within the extent plus one
        weight, kept = pair_weights(cutoff, 1)
        assert weight[kept].min() >= weight[~kept].max(), (nbar1, nbar2, tol)
        # the set is exactly mode-symmetric
        swapped = FockCutoff.choose(nbar2, nbar1, tol)
        assert swapped == cutoff.transposed() and swapped.transposed() == cutoff
        assert swapped.tail_bound == cutoff.tail_bound
        n1, n2 = cutoff.points()
        assert sorted(zip(*swapped.points())) == sorted(zip(n2.tolist(), n1.tolist()))


def test_fock_cutoff_set_at_equal_nbar_is_a_triangle():
    # at equal nbar pairs on one anti-diagonal weigh the same and are kept together
    cutoff = FockCutoff.choose(1.0, 1.0, 1e-10)
    assert cutoff.rows == tuple(range(37, -1, -1)) and cutoff.size == 741
    assert cutoff == cutoff.transposed()


# (nbar1, nbar2, tol, (n_max1, n_max2, size), tail_bound) of sets the selection
# has chosen, recorded to pin it where the brute-force tests (nbar <= 10) do not reach
RECORDED_SETS = [
    (1, 1, 1e-10, (37, 37, 741), 7.275957614183426e-11),
    (3, 10, 1e-10, (90, 274, 12650), 9.996732478355888e-11),
    (10, 3, 1e-10, (274, 90, 12650), 9.996732478355888e-11),
    (0.05, 1000, 1e-10, (8, 25199, 117139), 9.999255116728611e-11),
    (1000, 0.05, 1e-4, (10605, 3, 24148), 9.998723272186522e-05),
    (100, 100, 1e-16, (4076, 4076, 8313003), 9.963367509418497e-17),
    (0.3, 0.3, 1e-300, (475, 475, 113526), 2.738606474509403e-301),
    (1e-6, 1e-6, 0.5, (0, 0, 1), 1.999997000004e-06),
    (1, 1, 2.0, (0, 0, 1), 0.75),
    (0, 5, 1e-10, (0, 126, 127), 8.789855831163879e-11),
]


def test_fock_cutoff_choose_matches_recorded_sets():
    for nbar1, nbar2, tol, extent, tail in RECORDED_SETS:
        cutoff = FockCutoff.choose(nbar1, nbar2, tol)
        assert (cutoff.n_max1, cutoff.n_max2, cutoff.size) == extent, (nbar1, nbar2, tol)
        assert cutoff.tail_bound == tail, (nbar1, nbar2, tol)


def test_fock_cutoff_choose_holds_at_subnormal_tolerances():
    # the bracket is solved as ln f(N) - ln tol, so f(N) / tol cannot overflow
    for nbars in ((1.0, 1.0), (3.0, 10.0), (0.05, 1000.0)):
        for tol in (1e-310, 1e-320):
            assert FockCutoff.choose(*nbars, tol).tail_bound < tol, (nbars, tol)


def test_fock_cutoff_vacuum_is_exact():
    assert FockCutoff.choose(0.0, 0.0, 1e-12) == FockCutoff((0,), 0.0, 0.0)


def test_fock_cutoff_rejects_bad_fields():
    # a negative or fractional cutoff would sum an empty or undefined grid
    # under a bound that certifies nothing
    # nor does a bool, an int that would print as n_max1=True
    for n_max1, n_max2 in ((-1, 3), (3, -1), (3.5, 3), (3, 3.0), (True, 2), (3, False)):
        with pytest.raises(ValueError, match="cutoffs"):
            FockCutoff.explicit(n_max1, n_max2, 1.0, 1.0)
    # a bad mean photon number is reported under its own name, by every constructor
    for nbar in (-0.1, math.nan, math.inf, True):
        for name, nbars in (("nbar1", (nbar, 1.0)), ("nbar2", (1.0, nbar))):
            with pytest.raises(ValueError, match=name):
                FockCutoff((3, 3, 3, 3), *nbars)
            with pytest.raises(ValueError, match=name):
                FockCutoff.explicit(3, 3, *nbars)
            with pytest.raises(ValueError, match=name):
                FockCutoff.choose(*nbars)
    assert FockCutoff((0,), 0.0, 0.0).tail_bound == 0.0
    # row limits: one or more integers down to >= 0, never increasing
    for rows in ((), np.array([], dtype=int), (3, 4, 1), (0, 1), (3, 2, -1), (-1,),
                 (3.0, 2.0, 1.0), (3, 2.0), np.array([2.0, 1.0]), (True, True, False),
                 ((3, 2, 1),)):
        with pytest.raises(ValueError, match="rows"):
            FockCutoff(rows, 1.0, 1.0)
    # the extent is read from the limits, which a numpy array may give
    cutoff = FockCutoff(np.array([3, 3, 0]), 1.0, 1.0)
    assert cutoff.rows == (3, 3, 0) and all(type(limit) is int for limit in cutoff.rows)
    assert (cutoff.n_max1, cutoff.n_max2) == (2, 3)
    assert [f.name for f in dataclasses.fields(FockCutoff)] == ["rows", "nbar1", "nbar2"]


def test_fock_cutoff_explicit_reports_computed_tail():
    cutoff = FockCutoff.explicit(10, 12, 1.0, 1.0)
    # the rectangle neglects 1 - (1 - t1)(1 - t2) = t1 + t2 - t1 t2
    t1, t2 = brute_tail(1.0, 10), brute_tail(1.0, 12)
    expected = t1 + t2 - t1 * t2
    assert cutoff.n_max1 == 10 and cutoff.n_max2 == 12
    assert cutoff.rows == (12,) * 11 and cutoff.size == 11 * 13
    assert cutoff == FockCutoff((12,) * 11, 1.0, 1.0)
    assert cutoff.tail_bound == pytest.approx(expected, rel=1e-10)
    w1, w2 = cutoff.weights()
    assert np.array_equal(w1, mode_weights(1.0, 10)) and np.array_equal(w2, mode_weights(1.0, 12))
    # numpy scalars pass the nbar rule and give the same field, to the last bit
    for nbar in (np.int64(1), np.float32(1.0), np.float64(1.0)):
        same = FockCutoff.explicit(np.int64(10), 12, nbar, 1.0)
        assert same.tail_bound == cutoff.tail_bound
        assert all(map(np.array_equal, same.weights(), cutoff.weights()))

