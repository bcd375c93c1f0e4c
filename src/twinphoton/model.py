"""Domain types, validated on construction, shared by every other module.

Conventions fixed here and used everywhere:

* two-atom basis order ``|++>, |+->, |-+>, |-->`` (``+`` excited, ``-``
  ground), indices 0..3;
* time is quoted externally as the dimensionless product ``g*t``; the
  coupling ``g`` stays available as a parameter but defaults to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PURE_VARIANTS = ("ee", "eg", "ge", "gg")
VARIANTS = PURE_VARIANTS + ("mixed",)

# kernel/oracle code for each pure initial state, equal to its basis index
ATOM_INDEX = {"ee": 0, "eg": 1, "ge": 2, "gg": 3}


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration: coupling constant and thermal mode intensities.

    ``g`` is the atom-field coupling (inverse time; 1 by convention so that
    time is measured as ``g*t``), ``nbar1``/``nbar2`` are the mean photon
    numbers of the two cavity modes.
    """

    g: float = 1.0
    nbar1: float = 0.0
    nbar2: float = 0.0

    def __post_init__(self):
        if not _finite(self.g) or self.g <= 0:
            raise ValueError(f"g must be > 0 and finite; got {self.g!r}")
        if not _finite(self.nbar1) or self.nbar1 < 0:
            raise ValueError(f"nbar1 must be >= 0 and finite; got {self.nbar1!r}")
        if not _finite(self.nbar2) or self.nbar2 < 0:
            raise ValueError(f"nbar2 must be >= 0 and finite; got {self.nbar2!r}")


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
        if self.variant == "mixed":
            lam = self.excited_weight
            if lam is None or not _finite(lam) or not 0.0 <= lam <= 1.0:
                raise ValueError(f"lambda must be in [0,1]; got {lam!r}")
        elif self.excited_weight is not None:
            raise ValueError("lambda only applies to the mixed initial state")

    @classmethod
    def pure(cls, variant: str) -> "InitialAtomicState":
        return cls(variant)

    @classmethod
    def mixed(cls, excited_weight: float) -> "InitialAtomicState":
        return cls("mixed", excited_weight)


@dataclass(frozen=True)
class XState:
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
        return (self.pop_ee, self.pop_eg, self.pop_ge, self.pop_gg, self.coherence)

    @property
    def trace(self) -> float:
        return self.pop_ee + self.pop_eg + self.pop_ge + self.pop_gg

    def to_matrix(self) -> np.ndarray:
        """Embed into the full 4x4 density matrix (basis |++>,|+->,|-+>,|-->)."""
        rho = np.zeros((4, 4))
        rho[0, 0] = self.pop_ee
        rho[1, 1] = self.pop_eg
        rho[2, 2] = self.pop_ge
        rho[3, 3] = self.pop_gg
        rho[1, 2] = rho[2, 1] = self.coherence
        return rho


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of dimensionless times: sample k is t_max*k/steps, k=0..steps."""

    t_max: float
    steps: int

    def __post_init__(self):
        if not _finite(self.t_max) or self.t_max <= 0:
            raise ValueError(f"t_max must be > 0 and finite; got {self.t_max!r}")
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1; got {self.steps!r}")

    def points(self) -> np.ndarray:
        return np.array([self.t_max * k / self.steps for k in range(self.steps + 1)])
