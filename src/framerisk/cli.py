"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import astuple, replace
from pathlib import Path

from .catalog import parse_damage_token, parse_frame_token
from .design import design_members
from .model import FACTOR_BOUNDS, MAX_FACTOR, DesignFactors, Scenario, annual_from_lifetime, validate
from .optimize import BRACKETED, OptimizationError, minimize_total_cost, threshold_probability
from .output import emit_csv, format_value
from .risk import RiskModel
from .studies import (
    StudyDefinition,
    parse_scenario,
    reliability_grid,
    run_study,
    trace_table,
    write_study_tables,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for data errors
        raise _UsageError(message)


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", metavar="PATH", help="scenario JSON file (defaults to the reference case)")
    p.add_argument("--frame", metavar="SxB", help="catalog frame, stories x bays (e.g. 8x8)")
    p.add_argument("--damage", metavar="CxS", help="initial damage, columns x stories (e.g. 1x1)")
    p.add_argument("--p-ld", type=float, default=None, help="override the 50-year local damage probability")
    p.add_argument("--catenary", action="store_true", help="include catenary action in the bending limit states")


def _resolve_scenario(args) -> Scenario:
    scenario = parse_scenario(args.scenario) if args.scenario else Scenario()
    if args.frame:
        scenario = replace(scenario, geometry=parse_frame_token(args.frame))
    if args.damage:
        scenario = replace(scenario, damage=parse_damage_token(args.damage))
    if args.p_ld is not None:
        scenario = replace(scenario, p_ld=args.p_ld)
    if args.catenary:
        scenario = replace(scenario, include_catenary=True)
    return validate(scenario)


def _factors(args) -> DesignFactors:
    for flag, value in (("--lambda-b", args.lambda_b), ("--lambda-c", args.lambda_c)):
        if not FACTOR_BOUNDS[0] <= value <= MAX_FACTOR:  # the range validate proves evaluable
            raise ValueError(f"{flag} must be a number >= {FACTOR_BOUNDS[0]:g} and <= {MAX_FACTOR:g}, got {value}")
    return DesignFactors(args.lambda_b, args.lambda_c)


def _jobs(args) -> int:
    if args.jobs is None:
        return os.cpu_count() or 1
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    return args.jobs


def _require_finite(values) -> None:
    """Exit 3 rather than print a non-finite result with exit 0."""
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        raise ArithmeticError("the result has a non-finite term")


def _emit_table(args, header: list[str], rows: list[tuple]) -> None:
    """Write the table to ``--out`` as CSV, or print it."""
    _require_finite(value for row in rows for value in row)
    if args.out:
        emit_csv(args.out, header, rows)
        print(f"wrote {args.out}")
        return
    cells = [header] + [[format_value(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    for row in cells:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def _parse_axis(spec: str) -> tuple[str, tuple]:
    if "=" not in spec:
        raise ValueError(f"axis must look like name=v1,v2,... got {spec!r}")
    name, _, raw = spec.partition("=")
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() in ("true", "false"):
            values.append(token.lower() == "true")
            continue
        try:
            values.append(int(token))
        except ValueError:
            values.append(float(token))
    if not values:
        raise ValueError(f"axis {name!r} has no values")
    return name.strip(), tuple(values)


def build_parser() -> _Parser:
    parser = _Parser(prog="framerisk", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("design", help="size members and print strengthening factors")
    _add_scenario_args(p)

    p = sub.add_parser("beta", help="print the reliability-index grid")
    _add_scenario_args(p)
    p.add_argument("--lambda-b", type=float, default=1.0)
    p.add_argument("--lambda-c", type=float, default=1.0)
    p.add_argument("--out", metavar="PATH", help="also write the grid as CSV")

    p = sub.add_parser("evaluate", help="total expected cost at given design factors")
    _add_scenario_args(p)
    p.add_argument("--lambda-b", type=float, default=1.0)
    p.add_argument("--lambda-c", type=float, default=1.0)

    p = sub.add_parser("trace", help="progression-chain table (CSV)")
    _add_scenario_args(p)
    p.add_argument("--lambda-b", type=float, default=1.0)
    p.add_argument("--lambda-c", type=float, default=1.0)
    p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")

    p = sub.add_parser("optimize", help="minimize total expected cost over the design factors")
    _add_scenario_args(p)

    p = sub.add_parser("threshold", help="threshold local damage probability")
    _add_scenario_args(p)

    p = sub.add_parser("sweep", help="run a parameter study")
    _add_scenario_args(p)
    p.add_argument("--axis", action="append", required=True, metavar="NAME=V1,V2,...",
                   help="sweep axis over a scenario field (repeatable, dotted names allowed)")
    p.add_argument("--outdir", required=True, metavar="DIR")
    p.add_argument("--svg", action="store_true", help="also plot single-axis sweeps")
    p.add_argument("--threshold", action="store_true", help="also root-find the threshold probability per point")
    p.add_argument("--jobs", type=int, default=None, help="parallel workers (default: logical cores)")

    p = sub.add_parser("paper-tables", help="regenerate the published-study tables and curve data")
    p.add_argument("--outdir", required=True, metavar="DIR")
    p.add_argument("--jobs", type=int, default=None, help="parallel workers (default: logical cores)")
    return parser


def _cmd_design(args) -> int:
    scenario = _resolve_scenario(args)
    d = design_members(scenario)
    _require_finite(astuple(d))
    print(f"b_y_nlc = {d.b_y_nlc:.4f} kNm")
    print(f"r_c_nlc = {d.r_c_nlc:.4f} kN")
    print(f"b_y_0   = {d.b_y_0:.4f} kNm")
    print(f"r_c_0   = {d.r_c_0:.4f} kN")
    print(f"b_sf    = {d.b_sf:.4f}")
    print(f"r_sf    = {d.r_sf:.4f}")
    return 0


def _cmd_beta(args) -> int:
    _emit_table(args, *reliability_grid(_resolve_scenario(args), _factors(args)))
    return 0


def _cmd_evaluate(args) -> int:
    factors = _factors(args)
    cost = RiskModel(_resolve_scenario(args)).breakdown(factors.lambda_b, factors.lambda_c)
    _require_finite(astuple(cost))
    print(f"construction            = {cost.construction:.6f}")
    print(f"normal-loading failure  = {cost.normal_loading:.6f}")
    print(f"initial damage cost     = {cost.initial_damage:.6f}")
    print(f"damage branch (max E[C])= {cost.damage_branch:.6f}")
    print(f"total expected cost     = {cost.total:.6f}")
    return 0


def _cmd_trace(args) -> int:
    _emit_table(args, *trace_table(_resolve_scenario(args), factors=_factors(args)))
    return 0


def _cmd_optimize(args) -> int:
    scenario = _resolve_scenario(args)
    result = minimize_total_cost(scenario)
    print(f"lambda_b* = {result.factors.lambda_b:.3f}")
    print(f"lambda_c* = {result.factors.lambda_c:.3f}")
    print(f"c_te*     = {result.c_te:.6f}")
    bd, bi = result.beta_damaged, result.beta_intact
    print(f"beta (damaged, apt): bending {bd.beta_b:.3f}  local pancake {bd.beta_pl:.3f}  global pancake {bd.beta_pg:.3f}")
    print(f"beta (intact, 50yr): bending {bi.beta_b:.3f}  global pancake {bi.beta_pg:.3f}")
    print(f"starts used = {result.starts_used}, converged = {result.converged}")
    print(f"evaluations = {result.evaluations}, memo hits = {result.memo_hits}")
    return 0


def _cmd_threshold(args) -> int:
    scenario = _resolve_scenario(args)
    result = threshold_probability(scenario)
    if result.status == BRACKETED:
        print(f"p_ld_th  = {result.p_th:.6g}")
        print(f"annual   = {annual_from_lifetime(result.p_th):.6g}")
    else:
        print(f"status   = {result.status}")
        low, high = (opt.beta_damaged.beta_b for _, opt in result.probes)
        print(f"beta_b* at p=1e-6: {low:.3f}; at p=1: {high:.3f}")
    print(f"evaluations = {result.evaluations}, memo hits = {result.memo_hits}")
    return 0


def _cmd_sweep(args) -> int:
    scenario = _resolve_scenario(args)
    axes = tuple(_parse_axis(spec) for spec in args.axis)
    study = StudyDefinition(
        base=scenario,
        axes=axes,
        outdir=Path(args.outdir),
        write_svg=args.svg,
        with_threshold=args.threshold,
        jobs=_jobs(args),
    )
    _, rows = run_study(study)
    print(f"wrote {Path(args.outdir) / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def _cmd_paper_tables(args) -> int:
    for path in write_study_tables(args.outdir, jobs=_jobs(args)):
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "design": _cmd_design,
    "beta": _cmd_beta,
    "evaluate": _cmd_evaluate,
    "trace": _cmd_trace,
    "optimize": _cmd_optimize,
    "threshold": _cmd_threshold,
    "sweep": _cmd_sweep,
    "paper-tables": _cmd_paper_tables,
}


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:  # JSON and validation errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OptimizationError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
