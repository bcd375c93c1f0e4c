"""Per-layer spans around the public functions of twinphoton's modules.

The wrappers live here, outside the package: they are installed on the
module and class attributes the program looks up at call time, and removed
again after each traced invocation, so an untraced invocation runs the
program exactly as shipped.  A target that no longer exists (a later
refactor may remove it) is recorded as missing, and the metrics that need
it are left out instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (name, unit, better); the order is the order of the printed report
PER_LAYER = [
    ("core.thermal_sweep_s", "s", "lower"),
    ("core.calls", "count", "lower"),
    ("core.terms", "count", "lower"),
    ("core.terms_per_s", "1/s", "higher"),
    ("thermal.choose_s", "s", "lower"),
    ("thermal.grid_points", "count", "lower"),
    ("thermal.tail_bound", "mass", "lower"),
    ("dynamics.sweep_s", "s", "lower"),
    ("dynamics.sweep_self_s", "s", "lower"),
    ("negativity.x_s", "s", "lower"),
    ("negativity.x_calls", "count", "lower"),
    ("negativity.general_s", "s", "lower"),
    ("negativity.general_calls", "count", "lower"),
    ("oracle.propagator_s", "s", "lower"),
    ("oracle.evolve_s", "s", "lower"),
    ("oracle.evolve_calls", "count", "lower"),
    ("oracle.dim", "states", "lower"),
    ("oracle.thermal_sweep_self_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# span each metric is read from; trace.overhead_s is measured by the runner
METRIC_SPAN = {
    "core.thermal_sweep_s": "core",
    "core.calls": "core",
    "core.terms": "core",
    "core.terms_per_s": "core",
    "thermal.choose_s": "thermal",
    "thermal.grid_points": "thermal",
    "thermal.tail_bound": "thermal",
    "dynamics.sweep_s": "dynamics.sweep",
    "dynamics.sweep_self_s": "dynamics.sweep",
    "negativity.x_s": "negativity.x",
    "negativity.x_calls": "negativity.x",
    "negativity.general_s": "negativity.general",
    "negativity.general_calls": "negativity.general",
    "oracle.propagator_s": "oracle.propagator",
    "oracle.evolve_s": "oracle.evolve",
    "oracle.evolve_calls": "oracle.evolve",
    "oracle.dim": "oracle.propagator",
    "oracle.thermal_sweep_self_s": "oracle.thermal_sweep",
    "cli.main_s": "cli.main",
    "cli.self_s": "cli.main",
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)


def _kernel_terms(args, kwargs, result):
    # thermal_sweep(code, w1, w2, gts, out): one term per grid point and time
    _, w1, w2, gts = args[:4]
    return {"terms": len(w1) * len(w2) * len(gts)}


def _cutoff_info(args, kwargs, cutoff):
    return {
        "grid_points": (cutoff.n_max1 + 1) * (cutoff.n_max2 + 1),
        "tail_bound": cutoff.tail_bound,
    }


def _propagator_dim(args, kwargs, result):
    return {"dim": args[0].hamiltonian.shape[0]}


def _kernel_module():
    dynamics = importlib.import_module("twinphoton.dynamics")
    name = {"compiled": "twinphoton._core", "python": "twinphoton._core_py"}
    return importlib.import_module(name[dynamics.active_backend()])


# span name, owner (module name, optional class name or resolver), attribute, info hook
TARGETS = [
    ("thermal", ("twinphoton.thermal", "FockCutoff"), "choose", _cutoff_info),
    ("thermal", ("twinphoton.thermal", "FockCutoff"), "explicit", _cutoff_info),
    ("dynamics.sweep", ("twinphoton.dynamics", None), "sweep", None),
    ("core", (_kernel_module, None), "thermal_sweep", _kernel_terms),
    ("negativity.x", ("twinphoton.negativity", None), "negativity_x", None),
    ("negativity.x", ("twinphoton.cli", None), "negativity_x", None),
    ("negativity.general", ("twinphoton.negativity", None), "negativity_general", None),
    ("negativity.general", ("twinphoton.cli", None), "negativity_general", None),
    ("oracle.propagator", ("twinphoton.oracle", "Propagator"), "__init__", _propagator_dim),
    ("oracle.evolve", ("twinphoton.oracle", "Propagator"), "evolve_basis_batch", None),
    ("oracle.thermal_sweep", ("twinphoton.oracle", None), "thermal_sweep", None),
    ("cli.main", ("twinphoton.cli", None), "main", None),
]


def _resolve(owner_spec, attr):
    module, cls = owner_spec
    owner = module() if callable(module) else importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    vars(owner)[attr]  # KeyError when the target is gone
    return owner


def find_targets():
    """Resolve TARGETS against the installed package.

    Returns (found, missing): found is a list of (span, owner, attribute, hook)
    and missing the set of span names with at least one unresolvable target.
    """
    found, missing = [], set()
    for span, owner_spec, attr, hook in TARGETS:
        try:
            owner = _resolve(owner_spec, attr)
        except (ImportError, AttributeError, KeyError):
            missing.add(span)
            continue
        found.append((span, owner, attr, hook))
    return found, missing


class Tracer:
    """Records one span per call into a wrapped function, in memory."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, 0.0)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, owner, attr, hook in self.targets:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = staticmethod(self._wrap(name, getattr(owner, attr), hook))
                else:
                    new = self._wrap(name, raw, hook)
                setattr(owner, attr, new)
                saved.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def layer_metrics(self, missing=frozenset()):
        """Per-layer totals of the recorded spans, keyed like PER_LAYER.

        A layer's self time is its span time minus the time of the spans it
        caused directly.  Metrics whose span target is missing are omitted.
        """
        span_s = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        info = defaultdict(list)
        for span in self.spans:
            duration = span.end - span.start
            span_s[span.name] += duration
            self_s[span.name] += duration
            calls[span.name] += 1
            info[span.name].append(span.info)
            if span.parent is not None:
                self_s[self.spans[span.parent].name] -= duration

        def total(span, key):
            return sum(i[key] for i in info[span])

        core_s = span_s["core"]
        terms = total("core", "terms")
        metrics = {
            "core.thermal_sweep_s": core_s,
            "core.calls": calls["core"],
            "core.terms": terms,
            "core.terms_per_s": terms / core_s if core_s > 0 else 0.0,
            "thermal.choose_s": span_s["thermal"],
            "thermal.grid_points": total("thermal", "grid_points"),
            "thermal.tail_bound": max((i["tail_bound"] for i in info["thermal"]), default=0.0),
            "dynamics.sweep_s": span_s["dynamics.sweep"],
            "dynamics.sweep_self_s": self_s["dynamics.sweep"],
            "negativity.x_s": span_s["negativity.x"],
            "negativity.x_calls": calls["negativity.x"],
            "negativity.general_s": span_s["negativity.general"],
            "negativity.general_calls": calls["negativity.general"],
            "oracle.propagator_s": span_s["oracle.propagator"],
            "oracle.evolve_s": span_s["oracle.evolve"],
            "oracle.evolve_calls": calls["oracle.evolve"],
            "oracle.dim": max((i["dim"] for i in info["oracle.propagator"]), default=0),
            "oracle.thermal_sweep_self_s": self_s["oracle.thermal_sweep"],
            "cli.main_s": span_s["cli.main"],
            "cli.self_s": self_s["cli.main"],
        }
        return {k: v for k, v in metrics.items() if METRIC_SPAN[k] not in missing}


def median_metrics(per_invocation):
    """Lower median of each metric over traced invocations, in PER_LAYER order.

    The lower median is one of the samples, so counts stay whole numbers.
    """
    return {
        name: statistics.median_low(m[name] for m in per_invocation)
        for name, _, _ in PER_LAYER
        if all(name in m for m in per_invocation)
    }
