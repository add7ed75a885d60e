"""Command-line front end: load -> validate -> solve -> analyze -> report.

Exit codes: 0 success, 1 failure (validation, solve, bundle I/O), 2 usage error.
The CCSPLAN_DATA environment variable supplies a default --data directory.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio, engine
from .builder import COST_ONLY, MAX_REDUCTION_LEX, scenario_config
from .domain import NUM_TECH, ValidationError
from .engine import ScenarioError

OBJECTIVE_MODES = {"cost": COST_ONLY, "max-reduction": MAX_REDUCTION_LEX}
SWEEP_PARAMS = {
    "carbon-price": "carbon_price",
    "ccs-cost": "ccs_unit_cost",
    "transport-cost": "transport_cost",
}


def _add_command(sub, name, handler, help, scenario=False, objective=None):
    """Add subcommand `name`, run by `handler`, with the arguments it shares
    with other commands: --data; --scenario when `scenario`; and, on a solving
    command (one given the default `objective`), --objective,
    --ccs-nonneg-emissions and --out."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    default = os.environ.get("CCSPLAN_DATA")
    p.add_argument("--data", default=default, required=default is None,
                   help="dataset directory (default: $CCSPLAN_DATA)")
    if scenario:
        p.add_argument("--scenario", type=int, choices=(1, 2, 3, 4), required=True,
                       help="scenario regime: 1/3 equal-yearly vs total-only CCS limits, 2/4 add the mix rule")
    if objective is not None:
        p.add_argument("--objective", choices=sorted(OBJECTIVE_MODES), default=objective,
                       help="cost: minimise net cost only; max-reduction: maximise offset, then minimise cost")
        p.add_argument("--ccs-nonneg-emissions", action="store_true",
                       help="add per-region floors keeping emissions non-negative")
        p.add_argument("--out", required=True, help="output bundle directory (run-all: parent of s1/ .. s4/)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccsplan",
        description="Multi-region solar/wind/CCS deployment planning by linear programming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "validate", cmd_validate, "check a dataset against the data contract")
    _add_command(sub, "solve", cmd_solve, "solve one scenario and write a result bundle",
                 scenario=True, objective="max-reduction")
    _add_command(sub, "run-all", cmd_run_all, "solve scenarios 1-4 and write one bundle each",
                 objective="max-reduction")

    p = _add_command(sub, "sweep", cmd_sweep, "re-solve one scenario over a price grid", scenario=True, objective="cost")
    p.add_argument("--param", choices=sorted(SWEEP_PARAMS), required=True)
    p.add_argument("--from", dest="lo", type=float, required=True, help="grid start [yen/t or yen/(t km)]")
    p.add_argument("--to", dest="hi", type=float, required=True, help="grid end")
    p.add_argument("--steps", type=int, required=True, help="number of grid points (>= 1)")

    p = sub.add_parser("report", help="print the summary of a written result bundle")
    p.set_defaults(handler=cmd_report)
    p.add_argument("--results", required=True, help="result bundle directory")
    return parser


def _load(parser, args):
    try:
        return dataio.load_validated(args.data)
    except ValidationError as exc:  # dataio.DataError too
        for e in exc.errors:
            print(f"error: {e}", file=sys.stderr)
        raise SystemExit(1)


def _check_out(args, files, *bundle_dirs):
    """Exit 1 before any solve when one of the `files` (dataio.RESULT_FILES or
    SWEEP_FILES) under one of the bundle directories cannot be written: its
    nearest existing ancestor is not a directory, or it is one."""
    for bundle_dir in bundle_dirs:
        for name in files:
            path = Path(bundle_dir, name).absolute()
            blocker = next(p for p in path.parents if p.exists())
            problem = (f"{blocker} is not a directory" if not blocker.is_dir()
                       else f"{path} is a directory" if path.is_dir() else None)
            if problem:
                print(f"error: --out {args.out}: {problem}", file=sys.stderr)
                raise SystemExit(1)


def _config(args):
    """The config of --scenario under --objective and --ccs-nonneg-emissions."""
    return scenario_config(args.scenario, objective_mode=OBJECTIVE_MODES[args.objective],
                           nonneg_emissions=args.ccs_nonneg_emissions)


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
    y1 = instance.horizon.years[-1]
    n_series = 2 * instance.n * NUM_TECH + 4 + NUM_TECH
    print(
        f"{instance.n} regions ({len(instance.sellers)} storage-capable), "
        f"horizon {y0}-{y1}, {n_series} series"
    )
    return 0


def _write_outcomes(outcomes, bundle_dirs) -> int:
    """Per scenario id in `outcomes`: a ScenarioResult's bundle into `bundle_dirs[sid]`
    plus its summary line, or a ScenarioError's message; 1 if any scenario failed."""
    failed = False
    for sid, outcome in sorted(outcomes.items()):
        if isinstance(outcome, ScenarioError):
            print(f"scenario {sid}: {outcome}", file=sys.stderr)
            failed = True
        else:
            print(_summary_line(dataio.write_results(outcome, bundle_dirs[sid], scenario_id=sid)))
    return 1 if failed else 0


def cmd_solve(parser, args) -> int:
    _check_out(args, dataio.RESULT_FILES, args.out)
    instance = _load(parser, args)
    try:
        outcome = engine.run_scenario(instance, _config(args))
    except ScenarioError as exc:
        outcome = exc
    return _write_outcomes({args.scenario: outcome}, {args.scenario: args.out})


def cmd_run_all(parser, args) -> int:
    bundle_dirs = {sid: os.path.join(args.out, f"s{sid}") for sid in (1, 2, 3, 4)}
    _check_out(args, dataio.RESULT_FILES, *bundle_dirs.values())
    instance = _load(parser, args)
    outcomes = engine.run_all(instance, OBJECTIVE_MODES[args.objective], args.ccs_nonneg_emissions)
    return _write_outcomes(outcomes, bundle_dirs)


def cmd_sweep(parser, args) -> int:
    if not np.isfinite([args.lo, args.hi]).all():
        parser.error(f"--from {args.lo} and --to {args.hi} must be finite")
    if args.lo > args.hi:
        parser.error(f"--from {args.lo} exceeds --to {args.hi}")
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    _check_out(args, dataio.SWEEP_FILES, args.out)
    instance = _load(parser, args)
    grid = np.linspace(args.lo, args.hi, args.steps).tolist()
    try:
        result = engine.sweep(instance, _config(args), SWEEP_PARAMS[args.param], grid)
    except ValueError as exc:
        parser.error(str(exc))
    dataio.write_sweep(result, args.out, args.scenario)
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
    try:
        with open(path, encoding="utf-8") as fh:
            s = json.load(fh)
        lines = [_summary_line(s)]
        shares = s.get("shares_pct")
        if shares:
            lines.append(f"offset shares: solar {shares['solar']:.1f}%, wind {shares['wind']:.1f}%, "
                         f"ccs {shares['ccs']:.1f}%")
        lines.append(f"ccs trading: {'yes' if s.get('any_trading') else 'no'}")
    except (KeyError, TypeError, ValueError) as exc:  # malformed JSON or summary, or the summary of a sweep bundle
        print(f"error: {path}: not the summary of a solved scenario ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(parser, args)
    except OSError as exc:  # a bundle that cannot be written or read
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
