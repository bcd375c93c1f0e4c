"""Two two-level atoms in a two-mode thermal field coupled by pair emission.

Closed-form reduced-atom dynamics with certified Fock truncation, X-state
negativity, and a brute-force truncated-space oracle for cross-validation.
"""

from .dynamics import (
    BlockFactors,
    active_backend,
    block_factors,
    rabi,
    sweep,
    sweep_mixed,
    sweep_pure,
    xstate_term,
)
from .model import (
    InitialAtomicState,
    ModelParams,
    TimeGrid,
    XState,
    validate,
    validate_grid,
    validate_initial,
    validate_params,
)
from .negativity import negativity_general, negativity_x, partial_transpose
from .thermal import FockCutoff, choose_cutoff, tail_mass, thermal_weight

__version__ = "0.1.0"

__all__ = [
    "BlockFactors",
    "FockCutoff",
    "InitialAtomicState",
    "ModelParams",
    "TimeGrid",
    "XState",
    "active_backend",
    "block_factors",
    "choose_cutoff",
    "negativity_general",
    "negativity_x",
    "partial_transpose",
    "rabi",
    "sweep",
    "sweep_mixed",
    "sweep_pure",
    "tail_mass",
    "thermal_weight",
    "validate",
    "validate_grid",
    "validate_initial",
    "validate_params",
    "xstate_term",
]
