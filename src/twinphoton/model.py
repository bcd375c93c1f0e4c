"""Domain types, validated on construction, shared by every other module.

Conventions fixed here and used everywhere:

* two-atom basis order ``|++>, |+->, |-+>, |-->`` (``+`` excited, ``-``
  ground), indices 0..3;
* time is quoted as the dimensionless product ``g*t`` of the atom-field
  coupling and the time, so the coupling itself never appears.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

PURE_VARIANTS = ("ee", "eg", "ge", "gg")
VARIANTS = PURE_VARIANTS + ("mixed",)

# two-atom basis index of each pure initial state, used by the oracle
ATOM_INDEX = {"ee": 0, "eg": 1, "ge": 2, "gg": 3}

# the X pattern of a reduced two-atom matrix in that basis: entry
# (X_ROWS[m], X_COLS[m]) holds element X_ELEMENTS[m] of an X state's (A, B, C, D, E)
# (the populations of ee, eg, ge, gg and the eg-ge coherence); every other entry is 0
X_ROWS = (0, 1, 2, 3, 1, 2)
X_COLS = (0, 1, 2, 3, 2, 1)
X_ELEMENTS = (0, 1, 2, 3, 4, 4)


def _finite(x) -> bool:
    """True for a finite real number (Python or numpy, not bool)."""
    real = isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
    return real and math.isfinite(x)


def _count(x) -> bool:
    """True for a non-negative integer (Python or numpy, not bool), such as a Fock index."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 0


def _check_nbar(value, name: str = "nbar") -> float:
    """The mean photon number as a Python float; rejects anything but a finite real >= 0.

    -0.0 becomes 0.0, so both write the same bytes wherever the value is printed.
    """
    if not _finite(value) or value < 0:
        raise ValueError(f"{name} must be >= 0 and finite; got {value!r}")
    return float(value) + 0.0


def _check_times(gts: np.ndarray):
    """Reject times gt that are not a 1-D array of finite values >= 0; both paths apply this one rule."""
    if gts.ndim != 1:
        raise ValueError(f"times gt must be a 1-D array; got shape {gts.shape}")
    if gts.size and not (np.isfinite(gts).all() and gts.min() >= 0):
        raise ValueError("times gt must be finite and >= 0")


@dataclass(frozen=True)
class InitialAtomicState:
    """Initial two-atom state: a pure product state or a thermal mixture.

    ``variant`` is one of ``ee``, ``eg``, ``ge``, ``gg`` or ``mixed``.  For
    the mixed variant each atom independently carries weight lambda on the
    excited state; ``excited_weight`` holds that lambda and must be None for
    the pure variants.
    """

    variant: str
    excited_weight: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"variant must be one of {', '.join(VARIANTS)}; got {self.variant!r}"
            )
        lam = self.excited_weight
        if self.variant != "mixed":
            if lam is not None:
                raise ValueError("lambda only applies to the mixed initial state")
        elif lam is None:
            raise ValueError("the mixed initial state requires lambda")
        elif not _finite(lam) or not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0,1]; got {lam!r}")

    @property
    def parts(self) -> list[tuple[str, float]]:
        """Pure variants and their weights, (variant, weight) in the order ee, eg, ge, gg.

        A pure state is one part of weight 1.  The mixed state is the product
        of two single-atom states lambda|+><+| + (1-lambda)|-><-|, whose four
        product terms are the diagonal of rho_1 (x) rho_1.
        """
        if self.variant != "mixed":
            return [(self.variant, 1.0)]
        lam = self.excited_weight
        cross = lam * (1.0 - lam)
        return [("ee", lam * lam), ("eg", cross), ("ge", cross), ("gg", (1.0 - lam) * (1.0 - lam))]


class XState(NamedTuple):
    """X-shaped reduced two-atom density matrix.

    The dynamics only ever populates the four diagonal entries and the single
    real coherence between ``|+->`` and ``|-+>``, so five real numbers carry
    the whole state.  Values are stored as computed (never clamped); the test
    suite checks the trace and positivity bounds on every producer.
    """

    pop_ee: float
    pop_eg: float
    pop_ge: float
    pop_gg: float
    coherence: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return tuple(self)

    @property
    def trace(self) -> float:
        return self.pop_ee + self.pop_eg + self.pop_ge + self.pop_gg

    def to_matrix(self) -> np.ndarray:
        """Embed into the full 4x4 density matrix (basis |++>,|+->,|-+>,|-->)."""
        rho = np.zeros((4, 4))
        rho[X_ROWS, X_COLS] = [self[m] for m in X_ELEMENTS]
        return rho


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of dimensionless times: sample k is t_max*k/steps, k=0..steps."""

    t_max: float
    steps: int

    def __post_init__(self):
        if not _finite(self.t_max) or self.t_max <= 0:
            raise ValueError(f"t_max must be > 0 and finite; got {self.t_max!r}")
        if not (_count(self.steps) and self.steps >= 1):
            raise ValueError(f"steps must be an integer >= 1; got {self.steps!r}")
        # points() forms t_max*k before dividing by steps, so that product must not
        # overflow; an int compares exactly with a float, whatever its size
        if self.steps > sys.float_info.max / self.t_max:
            raise ValueError(
                f"t_max * steps must be finite; got {self.t_max!r} * {self.steps!r}"
            )

    def points(self) -> np.ndarray:
        """The steps + 1 times t_max * k / steps, k = 0..steps, as one float array."""
        return self.t_max * np.arange(self.steps + 1, dtype=float) / self.steps
