"""Two two-level atoms in a two-mode thermal field coupled by pair emission.

Closed-form reduced-atom dynamics with certified Fock truncation, X-state
negativity, and a brute-force truncated-space oracle for cross-validation.
"""

from .dynamics import sweep, xstate_term
from .model import InitialAtomicState, TimeGrid, XState
from .negativity import negativity_general, negativity_x, partial_transpose
from .thermal import FockCutoff

__version__ = "0.1.0"

__all__ = [
    "FockCutoff",
    "InitialAtomicState",
    "TimeGrid",
    "XState",
    "negativity_general",
    "negativity_x",
    "partial_transpose",
    "sweep",
    "xstate_term",
]
