"""Command-line interface: kernel tabulation, operator application, and the
verification suites with machine-readable reports.

Exit codes: 0 success, 1 failed verification check, 2 argument error,
3 quadrature non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import euclid, hyperbolic, reporting
from .quadrature import NonConvergenceError, NonFiniteIntegrandError
from .verification import SUITES, run_suite


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call and shared by the later
    ones: each parse_args makes a fresh namespace, and the append actions
    start from a None default, so no call sees another's arguments."""
    parser = argparse.ArgumentParser(
        prog="loglap",
        description="Fractional and logarithmic Laplacian toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="tabulate a radial kernel to CSV + JSON")
    k.add_argument("--space", choices=["euclid", "hyperbolic"], required=True)
    k.add_argument("--kind", choices=["frac", "log1", "log2", "heat"], required=True)
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--s", type=float, default=None)
    k.add_argument("--t", type=float, default=None)
    k.add_argument("--r-min", type=float, default=0.1)
    k.add_argument("--r-max", type=float, default=8.0)
    k.add_argument("--points", type=int, default=64)
    k.add_argument(
        "--route",
        choices=["time_quadrature", "bessel_closed_form"],
        default="time_quadrature",
        help="hyperbolic frac/log1/log2 tables: adaptive time quadrature of the"
        " heat kernel, or its exact time transform (Bessel K for frac, erfc and"
        " Bessel K for log1/log2) on n in 2..5; heat and euclid tables take the"
        " default only",
    )
    k.add_argument("--grid-points", type=int, default=64, help="torus samples per axis")
    k.add_argument("--length", type=float, default=24.0, help="torus side length")
    k.add_argument("--out", required=True)

    a = sub.add_parser("apply", help="apply an operator to a registry function")
    a.add_argument("--space", choices=["euclid", "hyperbolic"], required=True)
    a.add_argument("--op", choices=["log", "frac"], required=True)
    a.add_argument(
        "--route",
        choices=["pointwise", "bochner", "multiplier"],
        default="pointwise",
    )
    a.add_argument("--fn", required=True, help="registry function id")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--s", type=float, default=None)
    a.add_argument(
        "--x",
        action="append",
        default=None,
        help="evaluation point, comma-separated coordinates (repeatable)",
    )
    a.add_argument("--x-dist", type=float, action="append", default=None)
    a.add_argument("--grid-points", type=int, default=512)
    a.add_argument("--length", type=float, default=24.0)
    a.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=["all", *SUITES], default="all")
    v.add_argument("--json-out", default=None)
    return parser


def _fail_args(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _torus(f, args) -> euclid.PeriodicGridFunction:
    """f sampled on the torus of --length with --grid-points per axis;
    ValueError for a grid that cannot be built or holds non-finite values."""
    if not (0 < args.length < math.inf) or args.grid_points < 2:
        raise ValueError("need a finite --length > 0 and --grid-points >= 2")
    # the largest |xi|^2 of the grid, n (pi N / L)^2, must be a float
    nyquist = math.pi * args.grid_points / args.length
    if not math.isfinite(args.n * nyquist * nyquist):
        raise ValueError(
            f"--length {args.length} is too small for --grid-points {args.grid_points}:"
            " the largest squared frequency overflows"
        )
    return euclid.PeriodicGridFunction.from_function(f, args.n, args.length, args.grid_points)


def _torus_too_large(args) -> str:
    return (
        f"the torus of --grid-points {args.grid_points} per axis in {args.n} dimensions"
        " does not fit in memory; lower --grid-points"
    )


def _cmd_kernel(args) -> int:
    if args.kind == "frac":
        if args.s is None or not (0.0 < args.s < 1.0):
            return _fail_args("--kind frac requires --s in (0, 1)")
    # chained comparisons also reject nan and inf
    if args.kind == "heat" and not (args.t is not None and 0 < args.t < math.inf):
        return _fail_args("--kind heat requires a finite --t > 0")
    if not (0 < args.r_min < args.r_max < math.inf) or args.points < 2:
        return _fail_args("need finite 0 < r-min < r-max and at least 2 points")
    r_grid = np.linspace(args.r_min, args.r_max, args.points)

    if args.space == "euclid":
        if args.n not in (1, 2, 3):
            return _fail_args("euclid kernels cover n in 1..3")
        if args.route != "time_quadrature":
            return _fail_args("euclid kernels are closed forms and take no --route")
        if args.kind == "heat":
            try:
                gauss = _torus(euclid.registry()["gaussian"], args)
                euclid.heat_apply(gauss, args.t).to_csv(args.out)
            except ValueError as exc:
                return _fail_args(str(exc))
            except MemoryError:
                return _fail_args(_torus_too_large(args))
            return 0
        flat = {
            "frac": lambda r: euclid.frac_kernel_flat(args.n, args.s, r),
            "log1": lambda r: euclid.k1_flat(args.n, r),
            "log2": lambda r: euclid.k2_flat(args.n, r),
        }[args.kind]
        try:
            values = [flat(float(r)) for r in r_grid]
        except OverflowError:
            return _fail_args(f"the {args.kind} kernel overflows at r = {args.r_min}")
        reporting.write_csv(args.out, ["r", "value"], zip(r_grid, values))
        payload = {"space": "euclid", "n": args.n, "kind": args.kind}
        if args.s is not None:
            payload["s"] = args.s
        reporting.write_json(str(args.out) + ".json", payload)
        return 0

    if args.n not in (2, 3, 4, 5):
        return _fail_args("hyperbolic kernels cover n in 2..5")
    try:
        table = hyperbolic.build_kernel_table(
            args.n,
            args.kind,
            r_grid,
            s=args.s,
            t=args.t,
            route=args.route,
            cfg=hyperbolic.DEFAULT_CONFIG,
        )
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:  # a table the grid cannot hold
        return _fail_args(str(exc))
    table.to_csv(args.out)
    return 0


def _cmd_apply(args) -> int:
    if args.op == "frac" and (args.s is None or not (0.0 < args.s < 1.0)):
        return _fail_args("--op frac requires --s in (0, 1)")

    rows = []
    meta = {"op": args.op, "route": args.route, "fn": args.fn, "n": args.n}
    if args.s is not None:
        meta["s"] = args.s

    try:
        if args.space == "euclid":
            if args.n not in (1, 2, 3):
                return _fail_args("euclid operators cover n in 1..3")
            reg = euclid.registry()
            if args.fn not in reg:
                return _fail_args(f"unknown function id {args.fn!r}")
            f = reg[args.fn]
            points = args.x or ["0.0"]
            xs = []
            for spec_str in points:
                try:
                    coords = [float(c) for c in spec_str.split(",")]
                except ValueError:
                    return _fail_args(f"point {spec_str!r} is not a list of numbers")
                if len(coords) != args.n:
                    return _fail_args(f"point {spec_str!r} is not {args.n}-dimensional")
                if not all(math.isfinite(c) for c in coords):
                    return _fail_args(f"point {spec_str!r} is not finite")
                xs.append(np.array(coords))
            if args.route == "multiplier":
                try:
                    grid = _torus(f, args)
                    vals = (
                        euclid.log_multiplier(grid, at=xs)
                        if args.op == "log"
                        else euclid.frac_multiplier(grid, args.s, at=xs)
                    )
                except ValueError as exc:
                    return _fail_args(str(exc))
                except MemoryError:
                    return _fail_args(_torus_too_large(args))
                meta["length"] = args.length
                meta["grid_points"] = args.grid_points
            elif args.route == "pointwise":
                if args.op == "log":
                    vals = [euclid.log_pointwise(f, x) for x in xs]
                else:
                    vals = [euclid.frac_pointwise(f, x, args.s) for x in xs]
            elif args.op == "log":
                vals = [euclid.log_bochner_point(f, x) for x in xs]
            else:
                vals = [euclid.frac_bochner_point(f, x, args.s) for x in xs]
            rows = [list(x) + [val] for x, val in zip(xs, vals)]
            header = [f"x{i + 1}" for i in range(args.n)] + ["value"]
        else:
            if args.n not in (2, 3, 4, 5):
                return _fail_args("hyperbolic pointwise operators cover n in 2..5")
            if args.op != "log":
                return _fail_args("hyperbolic apply supports --op log")
            if args.route == "multiplier":
                return _fail_args("no multiplier route on hyperbolic space")
            reg = hyperbolic.hyper_registry()
            if args.fn not in reg:
                return _fail_args(f"unknown function id {args.fn!r}")
            f = reg[args.fn]
            dists = args.x_dist if args.x_dist is not None else [0.0]
            for xd in dists:
                if not (math.isfinite(xd) and xd >= 0):
                    return _fail_args("--x-dist must be finite and nonnegative")
                val = (
                    hyperbolic.log_pointwise_h(args.n, f, xd)
                    if args.route == "pointwise"
                    else hyperbolic.log_bochner_h(args.n, f, xd)
                )
                rows.append([xd, val])
            header = ["x_dist", "value"]
    except (NonConvergenceError, NonFiniteIntegrandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    reporting.write_csv(args.out, header, rows)
    reporting.write_json(str(args.out) + ".json", meta)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite)
    for line in report.summary_lines():
        print(line)
    print(
        f"suite {report.suite}: {sum(c.passed for c in report.checks)}"
        f"/{len(report.checks)} checks passed in {report.wall_time_ms} ms"
    )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    return 0 if report.passed else 1


def _attach_points(argv: list[str]) -> list[str]:
    """Join `--x VALUE` into `--x=VALUE` when VALUE starts with a minus sign,
    which argparse would otherwise take for an option ("--x -0.5,0.2")."""
    out = []
    for arg in argv:
        if out and out[-1] == "--x" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"--x={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_points(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "kernel":
        return _cmd_kernel(args)
    if args.command == "apply":
        return _cmd_apply(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
