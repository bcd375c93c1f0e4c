"""Thermal photon statistics and certified Fock-space truncation.

Each cavity mode in equilibrium is a geometric (Bose-Einstein) mixture of
Fock states, p_n = (1-r) r^n with r = nbar/(1+nbar), so the probability
neglected above a cutoff N has the closed form r^(N+1).  That plain tail is
the only truncation rule: every per-Fock-pair X-state is a unit-trace positive
semidefinite matrix, so each of its entries is at most 1 in magnitude, and the
neglected mass alone bounds the truncation error of every element of the
thermal average.  Downstream results carry that bound instead of a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _check_nbar, _count


def thermal_weight(nbar: float, n: int) -> float:
    """Probability of finding n photons in a thermal mode with mean nbar.

    Evaluates nbar^n / (1 + nbar)^(n+1) in ratio form, (nbar/(1+nbar))^n / (1+nbar),
    so large n cannot overflow.  The vacuum limit nbar = 0 gives delta_{n,0}.
    """
    nbar = _check_nbar(nbar)
    if not _count(n):
        raise ValueError(f"n must be an integer >= 0; got {n!r}")
    n = int(n)  # float ** np.int64 is numpy's power, which can differ in the last bit
    if nbar == 0.0:
        return 1.0 if n == 0 else 0.0
    return (nbar / (1.0 + nbar)) ** n / (1.0 + nbar)


def mode_weights(nbar: float, n_max: int) -> np.ndarray:
    """Thermal weights p_0..p_n_max of one mode, as an array of length n_max + 1."""
    if not _count(n_max):
        raise ValueError(f"n_max must be an integer >= 0; got {n_max!r}")
    return np.array([thermal_weight(nbar, n) for n in range(n_max + 1)])


def tail_mass(nbar: float, n_max: int) -> float:
    """Probability sum_{n>n_max} p_n = r^(n_max+1) neglected by a cutoff, one mode."""
    nbar = _check_nbar(nbar)
    if not _count(n_max):
        raise ValueError(f"n_max must be an integer >= 0; got {n_max!r}")
    n_max = int(n_max)  # float ** np.int64 is numpy's power, which can differ in the last bit
    return (nbar / (1.0 + nbar)) ** (n_max + 1)


def choose_cutoff(nbar: float, tol: float) -> tuple[int, float]:
    """Smallest cutoff N whose neglected probability r^(N+1) is below tol, for one mode.

    Returns (N, tail_mass(nbar, N)).  The logarithm only gives the starting
    guess; the final N is settled by comparing tail_mass itself against tol.
    """
    nbar = _check_nbar(nbar)
    if not tol > 0:
        raise ValueError(f"tol must be > 0; got {tol!r}")
    if nbar == 0.0:
        return 0, 0.0
    r = nbar / (1.0 + nbar)
    if r == 1.0:
        raise ValueError(f"nbar too large for a finite cutoff; got {nbar!r}")
    n = max(0, math.ceil(math.log(min(tol, 1.0)) / math.log(r)) - 1)
    while n > 0 and tail_mass(nbar, n - 1) < tol:
        n -= 1
    while tail_mass(nbar, n) >= tol:
        n += 1
    return n, tail_mass(nbar, n)


@dataclass(frozen=True)
class FockCutoff:
    """The summed thermal field: Fock states n <= n_max of modes with mean nbar.

    The thermal weights factorize, so the pair grid is the product of the two
    per-mode ranges and the neglected mass 1 - (1-t1)(1-t2) is at most the sum
    t1 + t2 = tail_bound of the per-mode tails.  Each neglected Fock pair adds
    its weight times a unit-trace PSD X-state, whose entries are at most 1 in
    magnitude, so tail_bound bounds the error of every thermally averaged
    element, populations and coherence alike.
    """

    n_max1: int
    n_max2: int
    nbar1: float
    nbar2: float

    def __post_init__(self):
        if not (_count(self.n_max1) and _count(self.n_max2)):
            raise ValueError(
                f"cutoffs must be integers >= 0; got ({self.n_max1!r}, {self.n_max2!r})"
            )
        _check_nbar(self.nbar1, "nbar1")
        _check_nbar(self.nbar2, "nbar2")

    @property
    def tail_bound(self) -> float:
        """Certified bound t1 + t2 on the thermal mass the cutoffs neglect."""
        return tail_mass(self.nbar1, self.n_max1) + tail_mass(self.nbar2, self.n_max2)

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Thermal weights of the summed Fock states, one vector per mode."""
        return mode_weights(self.nbar1, self.n_max1), mode_weights(self.nbar2, self.n_max2)

    @classmethod
    def choose(cls, nbar1: float, nbar2: float, tol: float = 1e-10) -> "FockCutoff":
        """Smallest per-mode cutoffs whose combined tail stays below tol."""
        n1, _ = choose_cutoff(_check_nbar(nbar1, "nbar1"), tol / 2.0)
        n2, _ = choose_cutoff(_check_nbar(nbar2, "nbar2"), tol / 2.0)
        return cls(n1, n2, nbar1, nbar2)

    @classmethod
    def explicit(cls, n_max1: int, n_max2: int, nbar1: float, nbar2: float) -> "FockCutoff":
        """Cutoffs fixed by hand; the tail bound is computed, not requested."""
        return cls(n_max1, n_max2, nbar1, nbar2)
