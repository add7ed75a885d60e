"""Time `engine.sweep` of two checkouts in one process.

Usage: python3 scripts/time_sweep.py PARENT_ROOT CHANGE_ROOT

Each checkout's src/ccsplan is imported under its own package name, as in
time_load.py, with one BLAS thread unless OPENBLAS_NUM_THREADS is set. Both
sides sweep scenario 1 over the CLI's 16-point carbon-price grid (10,000 to
250,000) on CHANGE_ROOT's bundled toy-nation, loaded by each side's own
`load_validated`: once in cost mode (the `sweep-cp16` benchmark workload) and
once in max-reduction mode. After one warm-up call per side and case, the
script makes 20 timed calls per side and case, alternating which side goes
first in each pair, checks that both sides give the same points, and prints
the min and median in milliseconds. Neither checkout is written to.
"""
from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

CALLS = 20
GRID = [10000.0 + 16000.0 * k for k in range(16)]  # np.linspace(10000, 250000, 16)


def _time_sweep(pkg, instance, config) -> tuple:
    t0 = time.perf_counter()
    result = pkg.engine.sweep(instance, config, "carbon_price", GRID)
    return time.perf_counter() - t0, [(p.reduction_pct, p.objective_value, p.error) for p in result.points]


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: time_sweep.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # write nothing into either checkout
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy is first imported
    from time_load import _import_side

    roots = {side: Path(arg).resolve() for side, arg in zip(("parent", "change"), argv)}
    sides = {side: _import_side(f"ccsplan_{side}", root) for side, root in roots.items()}
    toy = roots["change"] / "src" / "ccsplan" / "data" / "toy-nation"
    instances = {side: pkg.dataio.load_validated(toy) for side, pkg in sides.items()}
    for label, mode in (("cp16 cost", "cost_only"), ("cp16 lex", "max_reduction_lex")):
        configs = {side: pkg.scenario_config(1, objective_mode=mode) for side, pkg in sides.items()}
        points = {side: _time_sweep(pkg, instances[side], configs[side])[1] for side, pkg in sides.items()}
        if points["parent"] != points["change"]:
            print(f"{label}: the two checkouts give different sweep points", file=sys.stderr)
            return 1
        times = {side: [] for side in sides}
        for k in range(CALLS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                times[side].append(_time_sweep(sides[side], instances[side], configs[side])[0])
        for side, ts in times.items():
            print(f"{label:10s} {side:6s} min {1e3 * min(ts):7.2f} ms  "
                  f"median {1e3 * statistics.median(ts):7.2f} ms  ({CALLS} calls)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
