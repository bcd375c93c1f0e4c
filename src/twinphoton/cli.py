"""Command-line front end: sweeps, figure presets, and the oracle cross-check.

Output is CSV with a fixed header ``gt,A,B,C,D,E,epsilon`` and ``#`` comment
lines carrying the full parameter provenance.  Floats are written with their
shortest round-trip representation and the summation order inside the kernels
is fixed, so repeated runs with identical flags are byte-identical.

Exit codes: 0 success, 1 usage error, 2 numerical-validation failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import dynamics, oracle
from .model import VARIANTS, InitialAtomicState, ModelParams, TimeGrid, XState
from .negativity import negativity_general, negativity_x
from .thermal import FockCutoff

# refuse the dense diagonalization above this per-mode truncation
ORACLE_MAX_CUTOFF = 14

# a closed-form sweep summing more terms than this warns on stderr before it runs
WARN_TERMS = 1e9

DEFAULT_TAIL_TOL = 1e-10
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


def _add_state_arguments(parser, require_initial: bool):
    parser.add_argument(
        "--initial",
        choices=VARIANTS,
        required=require_initial,
        help="initial atomic state (mixed requires --lambda)",
    )
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=None,
        metavar="F",
        help="excitation weight of the mixed initial state",
    )
    parser.add_argument("--nbar1", type=float, default=0.0, help="mean photon number, mode 1")
    parser.add_argument("--nbar2", type=float, default=0.0, help="mean photon number, mode 2")


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
    _add_state_arguments(sweep, require_initial=True)
    _add_grid_arguments(sweep, tmax=10.0, steps=1000)
    sweep.add_argument(
        "--tail-tol",
        type=float,
        default=DEFAULT_TAIL_TOL,
        help="bound on the neglected thermal mass when choosing the Fock cutoff",
    )
    sweep.add_argument(
        "--cutoff",
        type=_cutoff_pair,
        default=None,
        metavar="N1,N2",
        help="explicit per-mode Fock cutoffs (overrides --tail-tol)",
    )
    sweep.add_argument(
        "--oracle",
        action="store_true",
        help="use the brute-force truncated-space propagator (requires --cutoff, "
        f"N <= {ORACLE_MAX_CUTOFF})",
    )
    sweep.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")
    sweep.set_defaults(func=_run_sweep)

    figure = sub.add_parser("figure", help="emit the preset curve CSVs for one figure")
    figure.add_argument("--preset", type=int, choices=sorted(FIGURE_PRESETS), required=True)
    figure.add_argument("--outdir", default=".", help="directory for the curve files")
    figure.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL)
    figure.set_defaults(func=_run_figure)

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
        default=(12, 12),
        metavar="N1,N2",
        help=f"oracle truncation per mode (<= {ORACLE_MAX_CUTOFF})",
    )
    check.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_CHECK_TOL,
        help="max allowed deviation between the two paths",
    )
    check.set_defaults(func=_run_check)

    return parser


def _format_float(x: float) -> str:
    return repr(float(x))


def _provenance_lines(initial, params, grid, cutoff, path_label):
    lam = "none" if initial.excited_weight is None else _format_float(initial.excited_weight)
    return [
        "# two-atom pair-emission entanglement sweep",
        f"# initial={initial.variant} lambda={lam}"
        f" nbar1={_format_float(params.nbar1)} nbar2={_format_float(params.nbar2)}",
        f"# grid: gt in [0, {_format_float(grid.t_max)}],"
        f" steps={grid.steps} ({grid.steps + 1} samples)",
        f"# fock cutoff: n_max1={cutoff.n_max1} n_max2={cutoff.n_max2}"
        f" neglected_mass<={_format_float(cutoff.tail_bound)}",
        f"# path: {path_label}",
    ]


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _sweep_document(initial, params, grid, cutoff, oracle_cutoff=None):
    """CSV lines for one sweep; oracle_cutoff switches to the brute-force path."""
    gts = grid.points()
    if oracle_cutoff is None:
        rows = dynamics.sweep(initial, params, gts, cutoff)
        eps = [negativity_x(XState(*row)) for row in rows]
        label = "closed form"
    else:
        rhos = oracle.thermal_sweep(initial, params, gts, oracle_cutoff[0], oracle_cutoff[1])
        rows = np.stack(
            [
                [r[0, 0].real, r[1, 1].real, r[2, 2].real, r[3, 3].real, r[1, 2].real]
                for r in rhos
            ]
        )
        eps = [negativity_general(r) for r in rhos]
        label = f"oracle, truncation ({oracle_cutoff[0]}, {oracle_cutoff[1]})"
    lines = _provenance_lines(initial, params, grid, cutoff, label)
    lines.append(CSV_HEADER)
    for gt, row, e in zip(gts, rows, eps):
        lines.append(",".join(_format_float(v) for v in (gt, *row, e)))
    return lines


def _parse_initial(variant, lam, parser):
    if variant == "mixed":
        if lam is None:
            parser.error("--initial mixed requires --lambda")
        return InitialAtomicState.mixed(lam)
    if lam is not None:
        parser.error("--lambda only applies to --initial mixed")
    return InitialAtomicState.pure(variant)


def _guard_oracle_cutoff(pair, parser):
    n1, n2 = pair
    if max(n1, n2) > ORACLE_MAX_CUTOFF:
        parser.error(
            f"oracle truncation {n1},{n2} too large; the dense propagator is "
            f"capped at {ORACLE_MAX_CUTOFF} per mode"
        )
    if min(n1, n2) < oracle.HEADROOM:
        parser.error(f"oracle truncation must be >= {oracle.HEADROOM} per mode")


def _warn_if_large(initial, grid, cutoff):
    """One stderr line when the closed-form sweep will sum more than WARN_TERMS terms."""
    points = (cutoff.n_max1 + 1) * (cutoff.n_max2 + 1)
    passes = 4 if initial.variant == "mixed" else 1  # dynamics.sweep: one per pure part
    terms = points * (grid.steps + 1) * passes
    if terms > WARN_TERMS:
        print(
            f"twinphoton: warning: this sweep sums {terms:.3g} terms: {cutoff.n_max1 + 1}x"
            f"{cutoff.n_max2 + 1} Fock grid x {grid.steps + 1} times x {passes} kernel pass(es)",
            file=sys.stderr,
        )


def _run_sweep(args, parser) -> int:
    initial = _parse_initial(args.initial, args.lam, parser)
    params = ModelParams(g=1.0, nbar1=args.nbar1, nbar2=args.nbar2)
    grid = TimeGrid(args.tmax, args.steps)
    if not args.tail_tol > 0:
        parser.error(f"--tail-tol must be > 0; got {args.tail_tol!r}")

    if args.oracle:
        if args.cutoff is None:
            parser.error("--oracle requires an explicit --cutoff N1,N2")
        _guard_oracle_cutoff(args.cutoff, parser)
        n1, n2 = args.cutoff
        # report the retained initial Fock set, which is headroom below the truncation
        cutoff = FockCutoff.explicit(
            n1 - oracle.HEADROOM, n2 - oracle.HEADROOM, params.nbar1, params.nbar2
        )
        lines = _sweep_document(initial, params, grid, cutoff, oracle_cutoff=(n1, n2))
    else:
        if args.cutoff is not None:
            cutoff = FockCutoff.explicit(*args.cutoff, params.nbar1, params.nbar2)
        else:
            cutoff = FockCutoff.choose(params.nbar1, params.nbar2, args.tail_tol)
        _warn_if_large(initial, grid, cutoff)
        lines = _sweep_document(initial, params, grid, cutoff)
    _emit(lines, args.out)
    return 0


def _run_figure(args, parser) -> int:
    grid = TimeGrid(10.0, 1000)
    if not args.tail_tol > 0:
        parser.error(f"--tail-tol must be > 0; got {args.tail_tol!r}")
    os.makedirs(args.outdir, exist_ok=True)
    for variant, lam, nbar, name in FIGURE_PRESETS[args.preset]:
        initial = (
            InitialAtomicState.mixed(lam) if variant == "mixed" else InitialAtomicState.pure(variant)
        )
        params = ModelParams(g=1.0, nbar1=nbar, nbar2=nbar)
        cutoff = FockCutoff.choose(params.nbar1, params.nbar2, args.tail_tol)
        path = os.path.join(args.outdir, name)
        _emit(_sweep_document(initial, params, grid, cutoff), path)
        print(path)
    return 0


def _run_check(args, parser) -> int:
    """Run both paths on the same retained Fock set and compare everywhere."""
    _guard_oracle_cutoff(args.cutoff, parser)
    if not (math.isfinite(args.tol) and args.tol > 0):
        parser.error(f"--tol must be finite and > 0; got {args.tol!r}")
    n1, n2 = args.cutoff
    params = ModelParams(g=1.0, nbar1=args.nbar1, nbar2=args.nbar2)
    grid = TimeGrid(args.tmax, args.steps)
    gts = grid.points()
    variants = args.initial if args.initial else CHECK_DEFAULT_STATES
    initials = [_parse_initial(v, args.lam if v == "mixed" else None, parser) for v in variants]

    cutoff = FockCutoff.explicit(
        n1 - oracle.HEADROOM, n2 - oracle.HEADROOM, params.nbar1, params.nbar2
    )
    prop = oracle.Propagator(n1, n2, params.g)
    print(
        f"closed form vs oracle: truncation ({n1}, {n2}), nbar=({args.nbar1:g}, {args.nbar2:g}),"
        f" {grid.steps + 1} times in [0, {grid.t_max:g}]"
    )
    worst = 0.0
    for initial in initials:
        closed = dynamics.sweep(initial, params, gts, cutoff)
        rhos = oracle.thermal_sweep(initial, params, gts, n1, n2, propagator=prop)
        dev_elem = 0.0
        dev_eps = 0.0
        for row, rho in zip(closed, rhos):
            state = XState(*row)
            dev_elem = max(dev_elem, float(np.abs(state.to_matrix() - rho).max()))
            dev_eps = max(dev_eps, abs(negativity_x(state) - negativity_general(rho)))
        label = initial.variant if initial.variant != "mixed" else f"mixed(lambda={args.lam:g})"
        print(f"  {label}: max |element| dev {dev_elem:.3e}, max |epsilon| dev {dev_eps:.3e}")
        worst = max(worst, dev_elem, dev_eps)
    ok = worst < args.tol
    print(f"overall max deviation {worst:.3e} {'<' if ok else '>='} tol {args.tol:g}: "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        print(f"twinphoton: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
