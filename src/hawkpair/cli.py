"""Command-line front end.

Subcommands: point, sweep, fig2, fig3, compare. Exit codes: 0 success,
2 invalid arguments, 3 convergence/cutoff failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import closed_form as cf
from .kinematics import ModeSpec
from .sweep import (
    DEFAULT_CUTOFF,
    NumericCapError,
    SweepConfig,
    SweepPointError,
    check_warn_threshold,
    compare_closed_vs_numeric,
    csv_lines,
    run_point,
    run_sweep,
)

FIG_PRESET = dict(r_min=0.0, r_max=6.0, steps=121)
# the preset sweeps: name, help and the methods each runs
FIGURES = (
    ("fig2", "preset sweep: entanglement-measure columns, r in [0, 6], 121 steps", ("closed", "numeric")),
    ("fig3", "preset sweep: entropy/mutual-information columns, r in [0, 6], 121 steps", ("closed",)),
)
# exit code of each error family, first match wins
EXIT_CODES = ((cf.ConvergenceError, 3), (NumericCapError, 3), (OSError, 4), (ValueError, 2))


def _add_cutoff_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--nmax", type=int, help="explicit series/state cutoff N_max")
    g.add_argument("--tail-tol", type=float, help=f"series tail tolerance (default {DEFAULT_CUTOFF.tail_tol:g})")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_methods_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--methods",
        default="closed,numeric",
        help="comma-separated subset of closed,numeric (default both)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkpair",
        description="Entanglement degradation of a bosonic pair outside a Schwarzschild horizon",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate a single parameter point")
    p_point.set_defaults(run=_cmd_point)
    p_point.add_argument("--r", type=float, help="squeezing parameter (symmetric pair)")
    p_point.add_argument("--mass", type=float, help="black-hole mass in geometric units")
    p_point.add_argument("--omega", type=float, help="mode frequency in geometric units")
    p_point.add_argument("--omega-prime", type=float, help="Bob's mode frequency (default: omega)")
    _add_cutoff_flags(p_point)
    _add_methods_flag(p_point)
    _add_output_flags(p_point)

    p_sweep = sub.add_parser("sweep", help="sweep the squeezing parameter")
    p_sweep.set_defaults(run=_cmd_sweep)
    p_sweep.add_argument("--r-min", type=float, required=True)
    p_sweep.add_argument("--r-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--omega-ratio", type=float, default=1.0, help="omega'/omega (default 1)")
    _add_cutoff_flags(p_sweep)
    _add_methods_flag(p_sweep)
    _add_output_flags(p_sweep)

    for name, help_text, methods in FIGURES:
        p_fig = sub.add_parser(name, help=help_text)
        p_fig.set_defaults(
            run=lambda args, methods=methods: _write_rows(run_sweep(SweepConfig(methods=methods, **FIG_PRESET)), args)
        )
        _add_output_flags(p_fig)

    p_cmp = sub.add_parser("compare", help="closed-form vs numeric differences at one point")
    p_cmp.set_defaults(run=_cmd_compare)
    p_cmp.add_argument("--r", type=float, required=True)
    _add_cutoff_flags(p_cmp)
    p_cmp.add_argument("--warn-threshold", type=float, default=1e-2)
    p_cmp.add_argument("--out", help="output path (default: stdout)")
    return parser


def _cutoff_from(args) -> cf.SeriesConfig:
    if args.nmax is not None:
        return cf.SeriesConfig(n_max=args.nmax)
    return DEFAULT_CUTOFF if args.tail_tol is None else cf.SeriesConfig(tail_tol=args.tail_tol)


def _methods_from(args) -> tuple:
    # run_point and SweepConfig check the names
    return tuple(m for m in args.methods.split(",") if m)


def _write(text: str, path: str | None) -> None:
    """Write text to stdout when path is None, else to the file at path with
    LF line ends; an OSError names the path."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="\n") as stream:
            stream.write(text)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def _json(payload) -> str:
    # the JSON rows and compare's report: indented, one newline, a tuple as a list
    return json.dumps(payload, indent=2) + "\n"


def _write_rows(rows, args) -> None:
    """Write reports as CSV (csv_lines) or as a JSON list of their fields."""
    text = _json([vars(row) for row in rows]) if args.format == "json" else "\n".join(csv_lines(rows)) + "\n"
    _write(text, args.out)


def _cmd_point(args) -> None:
    cutoff = _cutoff_from(args)
    methods = _methods_from(args)
    if args.r is not None:
        if args.mass is not None or args.omega is not None:
            raise ValueError("give either --r or --mass/--omega, not both")
        report = run_point(r_a=args.r, omega_prime=args.omega_prime, cutoff=cutoff, methods=methods)
    else:
        if args.mass is None or args.omega is None:
            raise ValueError("need --r, or --mass together with --omega")
        mode = ModeSpec(mass=args.mass, omega=args.omega)
        report = run_point(mode=mode, omega_prime=args.omega_prime, cutoff=cutoff, methods=methods)
    _write_rows([report], args)


def _cmd_sweep(args) -> None:
    cfg = SweepConfig(
        r_min=args.r_min,
        r_max=args.r_max,
        steps=args.steps,
        omega_ratio=args.omega_ratio,
        cutoff=_cutoff_from(args),
        methods=_methods_from(args),
    )
    _write_rows(run_sweep(cfg), args)


def _cmd_compare(args) -> None:
    check_warn_threshold(args.warn_threshold)
    report = run_point(r_a=args.r, cutoff=_cutoff_from(args), methods=("closed", "numeric"))
    cmp_report = compare_closed_vs_numeric(report, warn_threshold=args.warn_threshold)
    _write(_json(vars(cmp_report)), args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(args)
    except (SweepPointError, *(kind for kind, _ in EXIT_CODES)) as exc:
        # a failed sweep point exits as its cause would
        cause = exc.__cause__ if isinstance(exc, SweepPointError) else exc
        code = next((code for kind, code in EXIT_CODES if isinstance(cause, kind)), None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
