"""Command-line front end: sweeps, figure presets, and the oracle cross-check.

Output is CSV with a fixed header ``gt,A,B,C,D,E,epsilon`` and ``#`` comment
lines carrying the full parameter provenance.  ``--cutoff N1,N2`` always names
the summed Fock set n1 <= N1, n2 <= N2, on either path; without it a sweep sums
the smallest set of largest-weight Fock pairs whose neglected thermal mass is
below ``--tail-tol``.  The oracle (``--oracle``, ``check``) truncates its space
oracle.HEADROOM above that set's extent, so every summed component evolves
exactly.  Floats are written with their shortest round-trip representation
and the summation order inside the kernels is fixed, so repeated runs with
identical flags are byte-identical.  The closed form uses no BLAS and is
identical at any BLAS thread count; oracle output (``--oracle``, ``check``) is
identical only at a fixed thread count.

Exit codes: 0 success, 1 usage error, I/O error or out of memory, 2
numerical-validation failure.  A stdout closed by its reader (``| head``) is
not an error: the run finishes and exits with its own code.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import _core_py, dynamics, oracle
from .model import (
    VARIANTS,
    X_COLS,
    X_ELEMENTS,
    X_ROWS,
    InitialAtomicState,
    TimeGrid,
    XState,
    _check_nbar,
)
from .negativity import negativity_general, negativity_x
from .thermal import DEFAULT_TAIL_TOL, FockCutoff

# a closed-form sweep summing more terms than this, or that may hold more bytes
# than WARN_BYTES (its Fock pairs x _core_py.PAIR_BYTES), warns on stderr before it runs
WARN_TERMS = 1e9
WARN_BYTES = 1 << 30

# an oracle run evolving more states x times than this warns on stderr before it
# runs: the oracle builds H from its nonzeros and works in block coordinates, so
# its time grows as states x times (about 0.3 us each in a four-state check at
# truncation 36,36 or 60,60 on a 2-core machine) and its memory as states
# (about 0.5 kB each)
WARN_ORACLE_STATE_TIMES = 1e6

DEFAULT_CHECK_TOL = 1e-8
CSV_HEADER = "gt,A,B,C,D,E,epsilon"

# figure presets: (initial variant, lambda, nbar, output file name) per curve
FIGURE_PRESETS = {
    1: [
        ("eg", None, 0.3, "fig1_eg_nbar0.3.csv"),
        ("eg", None, 1.0, "fig1_eg_nbar1.csv"),
    ],
    2: [
        ("gg", None, 0.3, "fig2_gg_nbar0.3.csv"),
        ("gg", None, 1.0, "fig2_gg_nbar1.csv"),
    ],
    3: [
        ("mixed", 0.01, 1.0, "fig3_mixed_lambda0.01.csv"),
        ("mixed", 0.05, 1.0, "fig3_mixed_lambda0.05.csv"),
    ],
}

CHECK_DEFAULT_STATES = ["eg", "gg", "ee", "mixed"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cutoff_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        n1, n2 = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated integers like 12,12; got {text!r}"
        )
    if n1 < 0 or n2 < 0:
        raise argparse.ArgumentTypeError(f"cutoffs must be >= 0; got {text!r}")
    return n1, n2


def _positive_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0; got {text!r}")
    return tol


def _add_grid_arguments(parser, tmax: float, steps: int):
    parser.add_argument("--tmax", type=float, default=tmax, help="end of the gt grid")
    parser.add_argument(
        "--steps", type=int, default=steps, help="grid steps (steps+1 samples incl. endpoints)"
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="twinphoton",
        description="Two atoms in a two-mode thermal field via pair emission: "
        "entanglement sweeps and oracle cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sweep = sub.add_parser("sweep", help="emit one CSV of X-state elements and negativity")
    sweep.add_argument(
        "--initial",
        choices=VARIANTS,
        required=True,
        help="initial atomic state (mixed requires --lambda)",
    )
    sweep.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=None,
        metavar="F",
        help="excitation weight of the mixed initial state",
    )
    sweep.add_argument("--nbar1", type=float, default=0.0, help="mean photon number, mode 1")
    sweep.add_argument("--nbar2", type=float, default=0.0, help="mean photon number, mode 2")
    _add_grid_arguments(sweep, tmax=10.0, steps=1000)
    sweep.add_argument(
        "--tail-tol",
        type=_positive_tol,
        default=DEFAULT_TAIL_TOL,
        help="bound on the neglected thermal mass; the sweep sums the fewest"
        " largest-weight Fock pairs that meet it",
    )
    sweep.add_argument(
        "--cutoff",
        type=_cutoff_pair,
        default=None,
        metavar="N1,N2",
        help="explicit per-mode Fock cutoffs of the summed set (overrides --tail-tol)",
    )
    sweep.add_argument(
        "--oracle",
        action="store_true",
        help=f"use the brute-force oracle, truncated {oracle.HEADROOM} above the extent of"
        " the summed Fock set",
    )
    sweep.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")
    sweep.set_defaults(func=_run_sweep, parser=sweep)

    figure = sub.add_parser("figure", help="emit the preset curve CSVs for one figure")
    figure.add_argument("--preset", type=int, choices=sorted(FIGURE_PRESETS), required=True)
    figure.add_argument("--outdir", default=".", help="directory for the curve files")
    figure.add_argument("--tail-tol", type=_positive_tol, default=DEFAULT_TAIL_TOL)
    figure.set_defaults(func=_run_figure, parser=figure)

    check = sub.add_parser(
        "check", help="cross-validate the closed form against the brute-force oracle"
    )
    check.add_argument(
        "--initial",
        choices=VARIANTS,
        action="append",
        default=None,
        help="state to check; repeatable (default: eg, gg, ee, mixed)",
    )
    check.add_argument("--lambda", dest="lam", type=float, default=0.05, metavar="F")
    check.add_argument("--nbar1", type=float, default=1.0)
    check.add_argument("--nbar2", type=float, default=1.0)
    _add_grid_arguments(check, tmax=5.0, steps=49)
    check.add_argument(
        "--cutoff",
        type=_cutoff_pair,
        default=(10, 10),
        metavar="N1,N2",
        help=f"per-mode Fock cutoffs both paths sum (the oracle truncates {oracle.HEADROOM} above)",
    )
    check.add_argument(
        "--tol",
        type=_positive_tol,
        default=DEFAULT_CHECK_TOL,
        help="max allowed deviation between the two paths",
    )
    check.set_defaults(func=_run_check, parser=check)

    return parser


def _format_float(x: float) -> str:
    return repr(float(x))


def _provenance_lines(initial, grid, cutoff, path_label):
    lam = "none" if initial.excited_weight is None else _format_float(initial.excited_weight)
    return [
        "# two-atom pair-emission entanglement sweep",
        f"# initial={initial.variant} lambda={lam}"
        f" nbar1={_format_float(cutoff.nbar1)} nbar2={_format_float(cutoff.nbar2)}",
        f"# grid: gt in [0, {_format_float(grid.t_max)}],"
        f" steps={grid.steps} ({grid.steps + 1} samples)",
        f"# fock cutoff: points={cutoff.size} in extent n_max1={cutoff.n_max1}"
        f" n_max2={cutoff.n_max2} neglected_mass<={_format_float(cutoff.tail_bound)}",
        f"# path: {path_label}",
    ]


def _write_stdout(text):
    """Write text to stdout and flush it; a reader that has gone is not an error.

    When the reader of a pipe has closed it (``twinphoton check | head -1``),
    stdout is pointed at os.devnull: the run goes on, writes its files and
    returns its own status, and the rest of its standard output is dropped.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path is None:
        _write_stdout(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _require_finite(gts, values):
    """Raise FloatingPointError naming the first time whose sweep values are not all finite."""
    finite = np.isfinite(values)
    if not finite.all():
        gt = float(gts[np.argmin(finite.reshape(len(gts), -1).all(axis=1))])
        raise FloatingPointError(f"the state at gt={gt!r} is not finite; nothing was written")


def _sweep_documents(initials, grid, cutoff, use_oracle=False):
    """CSV lines for each state, from one sweep of them all over cutoff.

    use_oracle switches to the brute-force path.  Every state is checked
    finite before any document is returned.
    """
    gts = grid.points()
    if not use_oracle:
        sweeps = dynamics.sweep(initials, gts, cutoff)
        label = "closed form"
    else:
        sweeps = oracle.thermal_sweep(initials, gts, cutoff)
        label = f"oracle, truncation {oracle.truncation(cutoff)}"
    documents = []
    for initial, values in zip(initials, sweeps):
        _require_finite(gts, values)
        if not use_oracle:
            rows = values.tolist()
            eps = [negativity_x(XState(*row)) for row in rows]
        else:
            # the first five X entries hold (A, B, C, D, E) in order
            rows = values[:, X_ROWS[:5], X_COLS[:5]].real.tolist()
            eps = negativity_general(values).tolist()
        lines = _provenance_lines(initial, grid, cutoff, label)
        lines.append(CSV_HEADER)
        # repr of a Python float is its shortest round-trip form
        for gt, row, e in zip(gts.tolist(), rows, eps):
            lines.append(",".join(map(repr, (gt, *row, e))))
        documents.append(lines)
    return documents


def _warn_if_large(initials, grid, cutoff):
    """One stderr line when the closed-form sweep of initials is large, before it runs.

    Large is more than WARN_TERMS terms, or a kernel pass over the set that
    may hold more than WARN_BYTES, at the bound _core_py.PAIR_BYTES per pair.
    """
    # dynamics.sweep: one pass per distinct pure variant of the states
    passes = len({v for initial in initials for v, _ in initial.parts})
    terms = cutoff.size * (grid.steps + 1) * passes
    memory = cutoff.size * _core_py.PAIR_BYTES
    if terms > WARN_TERMS or memory > WARN_BYTES:
        print(
            f"twinphoton: warning: this sweep sums {terms:.3g} terms and holds up to"
            f" {memory / (1 << 30):.3g} GiB: a Fock set of"
            f" {cutoff.size} pairs (extent {cutoff.n_max1 + 1}x{cutoff.n_max2 + 1})"
            f" x {grid.steps + 1} times x {passes} kernel pass(es),"
            f" {_core_py.PAIR_BYTES} B per pair",
            file=sys.stderr,
        )


def _warn_if_large_oracle(cutoff, grid):
    """One stderr line when the oracle will evolve more than WARN_ORACLE_STATE_TIMES state-times."""
    n1, n2 = oracle.truncation(cutoff)
    states = 4 * (n1 + 1) * (n2 + 1)  # two atoms x the truncated two-mode field
    work = states * (grid.steps + 1)
    if work > WARN_ORACLE_STATE_TIMES:
        print(
            f"twinphoton: warning: this oracle run evolves {work:.3g} state-times: {states}"
            f" states of truncation ({n1}, {n2}) x {grid.steps + 1} times",
            file=sys.stderr,
        )


def _checked_nbars(args) -> tuple[float, float]:
    """--nbar1 and --nbar2, checked before the grid and cutoffs so theirs is the error reported."""
    return _check_nbar(args.nbar1, "nbar1"), _check_nbar(args.nbar2, "nbar2")


def _run_sweep(args) -> int:
    initial = InitialAtomicState(args.initial, args.lam)
    nbars = _checked_nbars(args)
    grid = TimeGrid(args.tmax, args.steps)

    if args.cutoff is not None:
        cutoff = FockCutoff.explicit(*args.cutoff, *nbars)
    else:
        cutoff = FockCutoff.choose(*nbars, args.tail_tol)
    if args.oracle:
        _warn_if_large_oracle(cutoff, grid)
    else:
        _warn_if_large([initial], grid, cutoff)
    _emit(_sweep_documents([initial], grid, cutoff, use_oracle=args.oracle)[0], args.out)
    return 0


def _run_figure(args) -> int:
    grid = TimeGrid(10.0, 1000)
    os.makedirs(args.outdir, exist_ok=True)
    # the curves of one field share its Fock set and one sweep, which passes
    # each pure part once for all of them
    fields = {}
    for variant, lam, nbar, name in FIGURE_PRESETS[args.preset]:
        fields.setdefault(nbar, []).append((InitialAtomicState(variant, lam), name))
    for nbar, curves in fields.items():
        cutoff = FockCutoff.choose(nbar, nbar, args.tail_tol)
        initials, names = zip(*curves)
        _warn_if_large(initials, grid, cutoff)
        for name, lines in zip(names, _sweep_documents(initials, grid, cutoff)):
            path = os.path.join(args.outdir, name)
            _emit(lines, path)
            _write_stdout(path + "\n")
    return 0


def _run_check(args) -> int:
    """Run both paths on the same summed Fock set and compare everywhere."""
    InitialAtomicState("mixed", args.lam)  # --lambda is checked whichever states are compared
    cutoff = FockCutoff.explicit(*args.cutoff, *_checked_nbars(args))
    grid = TimeGrid(args.tmax, args.steps)
    _warn_if_large_oracle(cutoff, grid)
    gts = grid.points()
    variants = args.initial if args.initial else CHECK_DEFAULT_STATES
    initials = [InitialAtomicState(v, args.lam if v == "mixed" else None) for v in variants]

    _write_stdout(
        f"closed form vs oracle: truncation {oracle.truncation(cutoff)},"
        f" nbar=({_format_float(cutoff.nbar1)}, {_format_float(cutoff.nbar2)}),"
        f" {grid.steps + 1} times in [0, {_format_float(grid.t_max)}], points={cutoff.size},"
        f" neglected_mass<={_format_float(cutoff.tail_bound)}\n"
    )
    outside_x = np.ones((4, 4), dtype=bool)
    outside_x[X_ROWS, X_COLS] = False
    devs = []
    closed_sweeps = dynamics.sweep(initials, gts, cutoff)  # one row (A, B, C, D, E) per time
    oracle_sweeps = oracle.thermal_sweep(initials, gts, cutoff)
    for initial, closed, rhos in zip(initials, closed_sweeps, oracle_sweeps):
        # the X entries against the closed-form elements, every other entry against 0
        x_dev = np.abs(closed[:, X_ELEMENTS] - rhos[:, X_ROWS, X_COLS]).max()
        dev_elem = np.maximum(x_dev, np.abs(rhos[:, outside_x]).max())
        try:
            eps = negativity_general(rhos)
        except ValueError:  # a non-finite or non-Hermitian oracle output fails the check
            eps = math.nan
        closed_eps = [negativity_x(XState(*row)) for row in closed.tolist()]
        dev_eps = np.abs(np.array(closed_eps) - eps).max()
        label = initial.variant
        if label == "mixed":
            label = f"mixed(lambda={_format_float(args.lam)})"
        _write_stdout(
            f"  {label}: max |element| dev {dev_elem:.3e}, max |epsilon| dev {dev_eps:.3e}\n"
        )
        devs += [dev_elem, dev_eps]
    # np.max keeps a NaN deviation, and NaN < tol is False: a NaN fails the check
    worst = float(np.max(devs))
    ok = worst < args.tol
    _write_stdout(
        f"overall max deviation {worst:.3e} {'<' if ok else '>='}"
        f" tol {_format_float(args.tol)}: {'PASS' if ok else 'FAIL'}\n"
    )
    return 0 if ok else 2


@functools.cache
def _parser() -> _Parser:
    """build_parser() once per process, on the first main() call; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a usage error: an input the CLI or the domain types reject
        args.parser.error(str(exc))
    except OSError as exc:
        print(f"twinphoton: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the allocation; a bare MemoryError says nothing
        print(f"twinphoton: error: out of memory: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:  # a numerical-validation failure, such as a NaN row
        print(f"twinphoton: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
