"""Thermal photon statistics and certified Fock-space truncation.

Each cavity mode in equilibrium is a geometric (Bose-Einstein) mixture of
Fock states, p_n = (1-r) r^n with r = nbar/(1+nbar), so the probability
neglected above a cutoff N has the closed form r^(N+1).  The two-mode field
is truncated by one rule: a set of Fock pairs, a staircase of rows, whose
neglected mass is summed exactly from those geometric tails.  The automatic
set keeps the pairs of largest weight w1[n1] w2[n2], one row when a mode is
empty; an explicit cutoff is the rectangle.  Every per-Fock-pair X-state is
a unit-trace positive semidefinite matrix, so each of its entries is at most
1 in magnitude, and the neglected mass alone bounds the truncation error of
every element of the thermal average.  Downstream results carry that bound
instead of a guess.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import _check_nbar, _count

# the neglected thermal mass FockCutoff.choose allows unless told otherwise
DEFAULT_TAIL_TOL = 1e-10


def _ratio(nbar: float) -> float:
    return nbar / (1.0 + nbar)


def mode_weights(nbar: float, n_max: int) -> np.ndarray:
    """Thermal weights p_0..p_n_max of one mode, as an array of length n_max + 1.

    Each is p_n = r^n / (1 + nbar) in ratio form, so large n cannot overflow;
    the vacuum nbar = 0 gives delta_{n,0}.
    """
    nbar = _check_nbar(nbar)
    if not _count(n_max):
        raise ValueError(f"n_max must be an integer >= 0; got {n_max!r}")
    r = _ratio(nbar)
    # sized up front, so an extent that cannot be held fails at once
    return np.fromiter((r**n / (1.0 + nbar) for n in range(n_max + 1)), float, n_max + 1)


# Slack, in steps of the second mode, with which a row limit is rounded down,
# so that pairs of equal weight, such as (n1, n2) and (n2, n1) at equal nbar,
# fall on the same side of the threshold however their ranks round.
_TIE = 1e-9


def _neglected_mass(nbar1: float, nbar2: float, rows) -> float:
    """Thermal mass outside the staircase with row limits ``rows``, exactly.

    Row n1 misses w1[n1] r2^(rows[n1] + 1) above its limit and the rows past
    the last miss r1^len(rows): positive terms, added by math.fsum without
    rounding, so there is no cancellation.
    """
    rows = np.asarray(rows)
    r1, r2 = _ratio(nbar1), _ratio(nbar2)
    missed = r1 ** np.arange(rows.size, dtype=float) / (1.0 + nbar1) * r2 ** (rows + 1.0)
    return math.fsum(memoryview(missed)) + r1**rows.size


def _pairs(low, high) -> tuple[np.ndarray, np.ndarray]:
    """Fock indices (n1, n2) with low[n1] <= n2 <= high[n1], row by row, n2 ascending in a row."""
    counts = np.asarray(high) - low + 1
    n1 = np.repeat(np.arange(counts.size), counts)
    n2 = np.arange(n1.size)
    n2 -= np.repeat(np.cumsum(counts) - counts - low, counts)
    return n1, n2


def _staircase(c: float, a: float, b: float) -> np.ndarray:
    """Row limits of the pairs with n1 a + n2 b <= c, over the rows n1 that keep any."""
    rows = np.floor((c - np.arange(int(c / a) + 2) * a) / b + _TIE).astype(int)
    return rows[rows >= 0]


def _single_row(nbar: float, tol: float) -> int:
    """Limit N of the smallest one-row set, the first mode empty, neglecting less than tol.

    The staircase's own rule on one row: from a logarithmic guess, N moves
    by one until it is the smallest limit whose exact neglected mass is
    below tol.
    """
    if nbar == 0.0:
        return 0
    n = max(0, math.ceil(math.log(min(tol, 1.0)) / math.log(_ratio(nbar))) - 1)
    while n > 0 and _neglected_mass(0.0, nbar, [n - 1]) < tol:
        n -= 1
    while _neglected_mass(0.0, nbar, [n]) >= tol:
        n += 1
    return n


def _largest_weight_rows(nbar1: float, nbar2: float, tol: float) -> list[int]:
    """Row limits of the smallest largest-weight set neglecting less than tol; nbar1 <= nbar2.

    The weight r1^n1 r2^n2 falls with the rank n1 a + n2 b (a = ln 1/r1 >= b =
    ln 1/r2), so the sets are the staircases S(c) of rank <= c, nested in c.
    Row n1 of S(c) misses (1 - r1) e^-c r2^(1 - f) with f in [0, 1), and the
    rows past the last, N of them, miss between r1 e^-c and e^-c, so the
    mass is e^-c F(c) with r2 ((1 - r1) N + r1) <= F(c) <= (1 - r1) N + 1.
    Solving e^-c F = tol for both bounds brackets c, and a bisection over
    the ranks of the pairs in the bracket finds the smallest set whose mass
    is below tol.
    """
    r1, r2 = _ratio(nbar1), _ratio(nbar2)
    if r2 == 1.0:  # a geometric tail that never falls
        raise ValueError(f"nbar too large for a finite cutoff; got {nbar2!r}")
    if nbar1 == 0.0:
        return [_single_row(nbar2, tol)]
    a, b = -math.log(r1), -math.log(r2)

    def solve(f):  # the fixed point of c = ln f(N) - ln tol, approached from below
        c = 0.0
        while (step := math.log(f(math.floor((c + _TIE * b) / a) + 1)) - math.log(tol)) > c:
            c = step
        return c

    def mass(c):
        return _neglected_mass(nbar1, nbar2, _staircase(c, a, b))

    lo = solve(lambda n: r2 * ((1.0 - r1) * n + r1))
    hi = solve(lambda n: (1.0 - r1) * n + 1.0)
    # the bounds hold up to rounding; these steps only guard them
    while mass(hi) >= tol:
        lo, hi = hi, hi + b
    while mass(lo) < tol:
        if lo == 0.0:  # the single pair (0, 0) suffices
            return _staircase(lo, a, b).tolist()
        lo, hi = max(0.0, lo - b), lo
    # the ranks of the pairs in S(hi) but not in S(lo), then hi itself
    top, bottom = _staircase(hi, a, b), _staircase(lo, a, b)
    low = np.zeros_like(top)
    low[: bottom.size] = bottom + 1
    n1, n2 = _pairs(low, top)
    ranks = np.append(np.sort(n1 * a + n2 * b), hi)
    first, last = 0, ranks.size - 1
    while first < last:
        mid = (first + last) // 2
        first, last = (first, mid) if mass(ranks[mid]) < tol else (mid + 1, last)
    return _staircase(ranks[first], a, b).tolist()


def _transpose(rows) -> list[int]:
    """Row limits of the same staircase with the modes swapped.

    Column n2 reaches the last row whose limit is n2 or more.
    """
    rows = np.asarray(rows)
    return (np.searchsorted(-rows, -np.arange(rows[0] + 1), side="right") - 1).tolist()


@dataclass(frozen=True)
class FockCutoff:
    """The summed thermal field: a staircase of Fock pairs of modes with mean nbar1, nbar2.

    Row n1 holds the pairs (n1, n2) with n2 <= rows[n1], and the limits
    never increase with n1, so the set's extent is n_max1 = len(rows) - 1
    and n_max2 = rows[0].  choose() keeps the pairs of largest thermal
    weight w1[n1] w2[n2]; explicit() is the rectangle.  Each neglected Fock
    pair adds its weight times a unit-trace PSD X-state, whose entries are
    at most 1 in magnitude, so the neglected mass tail_bound bounds the
    error of every thermally averaged element, populations and coherence
    alike.
    """

    rows: tuple[int, ...]
    nbar1: float
    nbar2: float

    def __post_init__(self):
        object.__setattr__(self, "nbar1", _check_nbar(self.nbar1, "nbar1"))
        object.__setattr__(self, "nbar2", _check_nbar(self.nbar2, "nbar2"))
        rows = tuple(self.rows)
        kinds = set(map(type, rows))  # checked per type, not per row: a set can have many rows
        if not (
            rows
            and all(issubclass(t, (int, np.integer)) and t is not bool for t in kinds)
            and rows[-1] >= 0
            and all(map(operator.ge, rows, rows[1:]))
        ):
            raise ValueError(
                f"rows must be one or more integer limits down to >= 0, never increasing;"
                f" got {self.rows!r}"
            )
        object.__setattr__(self, "rows", tuple(map(int, rows)))

    @property
    def n_max1(self) -> int:
        return len(self.rows) - 1

    @property
    def n_max2(self) -> int:
        return self.rows[0]

    @property
    def size(self) -> int:
        """Number of Fock pairs in the set."""
        return sum(self.rows) + len(self.rows)

    @functools.cached_property
    def tail_bound(self) -> float:
        """Thermal mass the set neglects, summed exactly from the geometric row tails.

        Summed over the rows of the colder mode, so that the set with its
        modes swapped reports the same float.
        """
        if (self.nbar1, self.n_max1) > (self.nbar2, self.n_max2):
            return self.transposed().tail_bound
        return _neglected_mass(self.nbar1, self.nbar2, self.rows)

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Thermal weights of Fock states 0..n_max of each mode, over the extent."""
        return mode_weights(self.nbar1, self.n_max1), mode_weights(self.nbar2, self.n_max2)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Fock indices (n1, n2) of the pairs in the set, row by row, n2 ascending in a row."""
        return _pairs(0, self.rows)

    def transposed(self) -> "FockCutoff":
        """The same set with the two modes swapped."""
        return FockCutoff(_transpose(self.rows), self.nbar2, self.nbar1)

    @classmethod
    def choose(cls, nbar1: float, nbar2: float, tol: float = DEFAULT_TAIL_TOL) -> "FockCutoff":
        """The smallest set of largest-weight Fock pairs whose neglected mass is below tol.

        The set is selected with the colder mode first and transposed, so
        choose(nbar2, nbar1) is exactly the transpose of choose(nbar1, nbar2).
        """
        if _check_nbar(nbar1, "nbar1") > _check_nbar(nbar2, "nbar2"):
            return cls.choose(nbar2, nbar1, tol).transposed()
        if not tol > 0:
            raise ValueError(f"tol must be > 0; got {tol!r}")
        return cls(_largest_weight_rows(float(nbar1), float(nbar2), tol), nbar1, nbar2)

    @classmethod
    def explicit(cls, n_max1: int, n_max2: int, nbar1: float, nbar2: float) -> "FockCutoff":
        """The rectangle n1 <= n_max1, n2 <= n_max2; its tail bound is computed, not requested."""
        if not (_count(n_max1) and _count(n_max2)):
            raise ValueError(f"cutoffs must be integers >= 0; got ({n_max1!r}, {n_max2!r})")
        return cls((n_max2,) * (n_max1 + 1), nbar1, nbar2)
