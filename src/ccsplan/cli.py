"""Command-line front end: load -> validate -> solve -> analyze -> report.

Exit codes: 0 success, 1 validation or solve failure, 2 usage error.
The CCSPLAN_DATA environment variable supplies a default --data directory.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import dataio, engine
from .builder import COST_ONLY, MAX_REDUCTION_LEX, scenario_config
from .domain import ValidationError
from .engine import ScenarioError

OBJECTIVE_MODES = {"cost": COST_ONLY, "max-reduction": MAX_REDUCTION_LEX}
SWEEP_PARAMS = {
    "carbon-price": "carbon_price",
    "ccs-cost": "ccs_unit_cost",
    "transport-cost": "transport_cost",
}


def _add_data_arg(p):
    default = os.environ.get("CCSPLAN_DATA")
    p.add_argument(
        "--data",
        default=default,
        required=default is None,
        help="dataset directory (default: $CCSPLAN_DATA)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccsplan",
        description="Multi-region solar/wind/CCS deployment planning by linear programming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a dataset against the data contract")
    _add_data_arg(p)

    p = sub.add_parser("solve", help="solve one scenario and write a result bundle")
    _add_data_arg(p)
    p.add_argument("--scenario", type=int, choices=(1, 2, 3, 4), required=True,
                   help="scenario regime: 1/3 equal-yearly vs total-only CCS limits, 2/4 add the mix rule")
    p.add_argument("--objective", choices=sorted(OBJECTIVE_MODES), default="max-reduction",
                   help="cost: minimise net cost only; max-reduction: maximise offset, then minimise cost")
    p.add_argument("--ccs-nonneg-emissions", action="store_true",
                   help="add per-region floors keeping emissions non-negative")
    p.add_argument("--out", required=True, help="output bundle directory")

    p = sub.add_parser("run-all", help="solve scenarios 1-4 and write one bundle each")
    _add_data_arg(p)
    p.add_argument("--objective", choices=sorted(OBJECTIVE_MODES), default="max-reduction")
    p.add_argument("--ccs-nonneg-emissions", action="store_true")
    p.add_argument("--out", required=True, help="parent directory for s1/ .. s4/ bundles")

    p = sub.add_parser("sweep", help="re-solve one scenario over a price grid")
    _add_data_arg(p)
    p.add_argument("--scenario", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--param", choices=sorted(SWEEP_PARAMS), required=True)
    p.add_argument("--from", dest="lo", type=float, required=True, help="grid start [yen/t or yen/(t km)]")
    p.add_argument("--to", dest="hi", type=float, required=True, help="grid end")
    p.add_argument("--steps", type=int, required=True, help="number of grid points (>= 1)")
    p.add_argument("--objective", choices=sorted(OBJECTIVE_MODES), default="cost")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="print the summary of a written result bundle")
    p.add_argument("--results", required=True, help="result bundle directory")
    return parser


def _load(parser, args):
    try:
        return dataio.load_validated(args.data)
    except (dataio.DataError, ValidationError) as exc:
        for e in exc.errors:
            print(f"error: {e}", file=sys.stderr)
        raise SystemExit(1)


def _summary_line(summary):
    payback = summary["payback_year"]
    return (
        f"scenario {summary['scenario']}: {summary['status']}, "
        f"objective {summary['objective_yen']:.6g} yen, "
        f"reduction {summary['reduction_pct']:.2f}%, payback "
        f"{payback if payback is not None else 'not within horizon'}"
    )


def cmd_validate(parser, args) -> int:
    instance = _load(parser, args)
    y0 = instance.horizon.start_year
    y1 = instance.horizon.year_of(instance.T)
    n_series = sum(2 * len(r.tech) for r in instance.regions) + 4 + len(instance.globals.sp)
    print(
        f"{instance.n} regions ({len(instance.sellers)} storage-capable), "
        f"horizon {y0}–{y1}, {n_series} series"
    )
    return 0


def cmd_solve(parser, args) -> int:
    instance = _load(parser, args)
    config = scenario_config(
        args.scenario,
        objective_mode=OBJECTIVE_MODES[args.objective],
        nonneg_emissions=args.ccs_nonneg_emissions,
    )
    try:
        result = engine.run_scenario(instance, config)
    except ScenarioError as exc:
        print(f"scenario {args.scenario}: {exc}", file=sys.stderr)
        return 1
    summary = dataio.write_results(result, args.out, scenario_id=args.scenario)
    print(_summary_line(summary))
    return 0


def cmd_run_all(parser, args) -> int:
    instance = _load(parser, args)
    outcomes = engine.run_all(
        instance,
        objective_mode=OBJECTIVE_MODES[args.objective],
        nonneg_emissions=args.ccs_nonneg_emissions,
    )
    failed = False
    for sid, outcome in sorted(outcomes.items()):
        if isinstance(outcome, ScenarioError):
            print(f"scenario {sid}: {outcome}", file=sys.stderr)
            failed = True
            continue
        summary = dataio.write_results(outcome, os.path.join(args.out, f"s{sid}"), scenario_id=sid)
        print(_summary_line(summary))
    return 1 if failed else 0


def cmd_sweep(parser, args) -> int:
    if args.lo > args.hi:
        parser.error(f"--from {args.lo} exceeds --to {args.hi}")
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    instance = _load(parser, args)
    config = scenario_config(args.scenario, objective_mode=OBJECTIVE_MODES[args.objective])
    grid = np.linspace(args.lo, args.hi, args.steps) if args.steps > 1 else np.array([args.lo])
    try:
        result = engine.sweep(instance, config, SWEEP_PARAMS[args.param], grid.tolist())
    except ValueError as exc:
        parser.error(str(exc))
    dataio.write_sweep(result, args.out, args.scenario, config.objective_mode)
    for p in result.points:
        if p.error is not None:
            print(f"point {p.value:g}: {p.error}", file=sys.stderr)
    if not result.monotone:
        print("warning: reduction_pct is not non-decreasing along the grid", file=sys.stderr)
    if result.threshold is not None:
        print(f"jump threshold detected at {result.threshold:g}")
    return 0 if any(p.error is None for p in result.points) else 1


def cmd_report(parser, args) -> int:
    path = os.path.join(args.results, "summary.json")
    if not os.path.exists(path):
        print(f"error: no summary.json under {args.results}", file=sys.stderr)
        return 1
    with open(path) as fh:
        s = json.load(fh)
    print(_summary_line(s))
    shares = s.get("shares_pct")
    if shares:
        print(
            f"offset shares: solar {shares['solar']:.1f}%, wind {shares['wind']:.1f}%, "
            f"ccs {shares['ccs']:.1f}%"
        )
    print(f"ccs trading: {'yes' if s.get('any_trading') else 'no'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "solve": cmd_solve,
        "run-all": cmd_run_all,
        "sweep": cmd_sweep,
        "report": cmd_report,
    }
    return handlers[args.command](parser, args)


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
