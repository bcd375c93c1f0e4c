"""Two two-level atoms in a two-mode thermal field coupled by pair emission.

Closed-form reduced-atom dynamics with certified Fock truncation, X-state
negativity, and a brute-force truncated-space oracle for cross-validation.
"""

from .dynamics import sweep, xstate_term
from .model import InitialAtomicState, ModelParams, TimeGrid, XState
from .negativity import negativity_general, negativity_x, partial_transpose
from .thermal import FockCutoff, choose_cutoff, tail_mass, thermal_weight

__version__ = "0.1.0"

__all__ = [
    "FockCutoff",
    "InitialAtomicState",
    "ModelParams",
    "TimeGrid",
    "XState",
    "choose_cutoff",
    "negativity_general",
    "negativity_x",
    "partial_transpose",
    "sweep",
    "tail_mass",
    "thermal_weight",
    "xstate_term",
]
