import twinphoton

PUBLIC_NAMES = {
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
}


def test_public_surface_is_the_thirteen_names():
    assert len(twinphoton.__all__) == len(PUBLIC_NAMES) == 13
    assert set(twinphoton.__all__) == PUBLIC_NAMES
    for name in twinphoton.__all__:
        assert callable(getattr(twinphoton, name)), name
