"""Time `dataio.load_validated` of two checkouts in one process.

Usage: python3 scripts/time_load.py PARENT_ROOT CHANGE_ROOT

Each checkout's src/ccsplan is imported under its own package name. Both
sides read the same two datasets: CHANGE_ROOT's bundled toy-nation, and the
40-region nation (160 series files) that CHANGE_ROOT's perfbench/gen_bau.py
writes for seed 1 into a temporary directory. Neither checkout is written to.
After one warm-up call per side and dataset, the script makes 40 timed calls
per side and dataset, alternating which side goes first in each pair, and
prints the min and median in milliseconds.
"""
from __future__ import annotations

import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

CALLS = 40


def _import_side(name: str, root: Path):
    """The ccsplan package of checkout `root`, imported as `name`."""
    pkg = root / "src" / "ccsplan"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _time_call(load, data) -> float:
    t0 = time.perf_counter()
    load(data)
    return time.perf_counter() - t0


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: time_load.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # write nothing into either checkout
    roots = {side: Path(arg).resolve() for side, arg in zip(("parent", "change"), argv)}
    loads = {side: _import_side(f"ccsplan_{side}", root).load_validated for side, root in roots.items()}
    toy = roots["change"] / "src" / "ccsplan" / "data" / "toy-nation"
    sys.path.insert(0, str(roots["change"] / "perfbench"))
    import gen_bau

    with tempfile.TemporaryDirectory() as tmp:
        datasets = {"toy-nation": toy, "gen_bau seed 1": gen_bau.generate(toy, Path(tmp) / "bau", 1)}
        for label, data in datasets.items():
            for load in loads.values():  # warm-up: imports, file cache
                load(data)
            times = {side: [] for side in loads}
            for k in range(CALLS):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    times[side].append(_time_call(loads[side], data))
            for side, ts in times.items():
                print(f"{label:15s} {side:6s} min {1e3 * min(ts):7.2f} ms  "
                      f"median {1e3 * statistics.median(ts):7.2f} ms  ({CALLS} calls)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
