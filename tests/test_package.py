import ast
from pathlib import Path

import twinphoton

PACKAGE_DIR = Path(twinphoton.__file__).parent

PUBLIC_NAMES = {
    "FockCutoff",
    "InitialAtomicState",
    "TimeGrid",
    "XState",
    "negativity_general",
    "negativity_x",
    "partial_transpose",
    "sweep",
    "xstate_term",
}


def test_public_surface_is_the_nine_names():
    assert len(twinphoton.__all__) == len(PUBLIC_NAMES) == 9
    assert set(twinphoton.__all__) == PUBLIC_NAMES
    for name in twinphoton.__all__:
        assert callable(getattr(twinphoton, name)), name
    # the single-mode weight, tail and cutoff are folded into FockCutoff
    for name in ("thermal_weight", "tail_mass", "choose_cutoff"):
        assert not hasattr(twinphoton, name), name
        assert not hasattr(twinphoton.thermal, name), name


def package_imports(module):
    """Names of the twinphoton modules that ``module`` imports, read from its source."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("twinphoton." if node.level else "") + (node.module or "")
            dotted += [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("twinphoton.")}


def test_oracle_and_closed_form_share_no_code():
    # the oracle checks the closed form, so the two paths meet only in the
    # domain types and the thermal weights
    assert package_imports("oracle") <= {"model", "thermal"}
    for closed_form in ("dynamics", "_core_py"):
        assert "oracle" not in package_imports(closed_form), closed_form
