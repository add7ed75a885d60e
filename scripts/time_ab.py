"""Time the load, write and sweep steps of two checkouts in one process.

Usage: python3 scripts/time_ab.py PARENT_ROOT CHANGE_ROOT

Each checkout's src/ccsplan is imported under its own package name, with one
BLAS thread unless OPENBLAS_NUM_THREADS is set. Both sides read
CHANGE_ROOT's bundled toy-nation and the 40-region nation (160 series files)
that CHANGE_ROOT's perfbench/gen_bau.py writes for seed 1 into a temporary
directory. Neither checkout is written to. Eight cases:

- load: 40 `load_validated` calls per side, on toy-nation and on gen_bau;
- write: 20 calls per side that write the four scenario bundles of one
  `run-all` (s1..s4, as the CLI does) into the temporary directory, for cost
  mode on gen_bau and max-reduction mode on toy-nation; each side solves each
  case once with its own program;
- run_all: 10 `engine.run_all` calls per side, in max-reduction mode on
  toy-nation and in cost mode on gen_bau;
- sweep: 20 `engine.sweep` calls per side over the CLI's 16-point
  carbon-price grid (10,000 to 250,000) for scenario 1 of toy-nation, in cost
  and in max-reduction mode.

Before a run_all or sweep case is timed, both sides' results are compared
with the golden file's tolerances: every scenario or point fails on both
sides with the same error, or succeeds on both with reduction_pct within
1e-6 (absolute) and objectives within 1e-9 (relative). Beyond them the
script exits 1. That checking call, never a timed one, also counts each
side's simplex iterations and `splu` calls (by wrapping the side's
`engine.solve` and `simplex.splu` for the call), and prints them: unlike
the times, they are deterministic.

Each case makes one warm-up call per side, then alternates which side goes
first in each pair of timed calls, and prints the min and median in
milliseconds.
"""
from __future__ import annotations

import importlib.util
import os
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

GRID = [10000.0 + 16000.0 * k for k in range(16)]  # np.linspace(10000, 250000, 16)


def _import_side(name: str, root: Path):
    """The ccsplan package of checkout `root`, imported as `name`."""
    pkg = root / "src" / "ccsplan"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _time(label: str, calls: int, fns: dict):
    """Print the min and median of `calls` timed calls of each side's `fns[side]()`."""
    for fn in fns.values():  # warm-up: imports, file cache
        fn()
    times = {side: [] for side in fns}
    for k in range(calls):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            t0 = time.perf_counter()
            fns[side]()
            times[side].append(time.perf_counter() - t0)
    for side, ts in times.items():
        print(f"{label:20s} {side:6s} min {1e3 * min(ts):8.2f} ms  "
              f"median {1e3 * statistics.median(ts):8.2f} ms  ({calls} calls)")


def _write_all(dataio, outcomes: dict, out: Path):
    for sid, result in outcomes.items():
        dataio.write_results(result, out / f"s{sid}", scenario_id=sid)


def _sweep_points(pkg, instance, config) -> list:
    result = pkg.engine.sweep(instance, config, "carbon_price", GRID)
    return [(p.reduction_pct, p.objective_value, p.error) for p in result.points]


def _run_all_outcomes(pkg, instance, mode) -> list:
    out = pkg.engine.run_all(instance, objective_mode=mode)
    return [(r.reduction_pct, r.objective_value, None) if isinstance(r, pkg.engine.ScenarioResult)
            else (None, None, str(r)) for _, r in sorted(out.items())]


def _agree(a: list, b: list) -> bool:
    """Whether two lists of (reduction_pct, objective, error) agree within the
    golden file's tolerances."""
    def close(p, q):
        if p[2] is not None or q[2] is not None:
            return p[2] == q[2]
        return abs(p[0] - q[0]) <= 1e-6 and abs(p[1] - q[1]) <= 1e-9 * max(abs(p[1]), abs(q[1]))
    return len(a) == len(b) and all(close(p, q) for p, q in zip(a, b))


def _counted(pkg, fn):
    """(fn(), its simplex iterations and splu calls), counted by wrapping
    `pkg`'s engine.solve and simplex.splu for the call."""
    counts = {"iterations": 0, "splu": 0}
    solve, splu = pkg.engine.solve, pkg.simplex.splu

    def counted_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        counts["iterations"] += sol.iterations
        return sol

    def counted_splu(*args, **kwargs):
        counts["splu"] += 1
        return splu(*args, **kwargs)

    pkg.engine.solve, pkg.simplex.splu = counted_solve, counted_splu
    try:
        return fn(), counts
    finally:
        pkg.engine.solve, pkg.simplex.splu = solve, splu


def _time_checked(label: str, calls: int, fns: dict, sides: dict) -> bool:
    """`_time` after checking that both sides' results agree (see `_agree`),
    printing each side's counts from the checking call (see `_counted`)."""
    checked = {side: _counted(sides[side], fn) for side, fn in fns.items()}
    if not _agree(checked["parent"][0], checked["change"][0]):
        print(f"{label}: the two checkouts give different results", file=sys.stderr)
        return False
    for side, (_, counts) in checked.items():
        print(f"{label:20s} {side:6s} {counts['iterations']:6d} iterations  {counts['splu']:5d} splu calls")
    _time(label, calls, fns)
    return True


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: time_ab.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # write nothing into either checkout
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy is first imported
    roots = {side: Path(arg).resolve() for side, arg in zip(("parent", "change"), argv)}
    sides = {side: _import_side(f"ccsplan_{side}", root) for side, root in roots.items()}
    toy = roots["change"] / "src" / "ccsplan" / "data" / "toy-nation"
    sys.path.insert(0, str(roots["change"] / "perfbench"))
    import gen_bau

    with tempfile.TemporaryDirectory() as tmp:
        bau = gen_bau.generate(toy, Path(tmp) / "bau", 1)
        for label, data in (("load toy-nation", toy), ("load gen_bau", bau)):
            _time(label, 40, {side: partial(pkg.load_validated, data) for side, pkg in sides.items()})

        writes = (("write gen_bau cost", bau, "cost_only"), ("write toy-nation lex", toy, "max_reduction_lex"))
        for label, data, mode in writes:
            fns = {}
            for side, pkg in sides.items():
                outcomes = pkg.engine.run_all(pkg.load_validated(data), objective_mode=mode)
                solved = {sid: r for sid, r in outcomes.items() if isinstance(r, pkg.engine.ScenarioResult)}
                fns[side] = partial(_write_all, pkg.dataio, solved, Path(tmp) / side)
            _time(label, 20, fns)

        for label, data, mode in (("run_all toy-nation lex", toy, "max_reduction_lex"),
                                  ("run_all gen_bau cost", bau, "cost_only")):
            fns = {side: partial(_run_all_outcomes, pkg, pkg.load_validated(data), mode)
                   for side, pkg in sides.items()}
            if not _time_checked(label, 10, fns, sides):
                return 1

        for label, mode in (("sweep cp16 cost", "cost_only"), ("sweep cp16 lex", "max_reduction_lex")):
            fns = {side: partial(_sweep_points, pkg, pkg.load_validated(toy),
                                 pkg.scenario_config(1, objective_mode=mode)) for side, pkg in sides.items()}
            if not _time_checked(label, 20, fns, sides):
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
