"""Time `dataio.write_results` of two checkouts in one process.

Usage: python3 scripts/time_write.py PARENT_ROOT CHANGE_ROOT

Each checkout's src/ccsplan is imported under its own package name, as in
time_load.py. Two cases, each the bundles of one `run-all`: cost mode on the
40-region nation that CHANGE_ROOT's perfbench/gen_bau.py writes for seed 1,
and max-reduction mode on CHANGE_ROOT's bundled toy-nation. Each side solves
each case once with its own program. A timed call then writes that side's four
scenario bundles (s1..s4, as the CLI does) into a temporary directory. After
one warm-up call per side and case, the script makes 20 timed calls per side
and case, alternating which side goes first in each pair, and prints the min
and median in milliseconds. Neither checkout is written to.
"""
from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

CALLS = 20


def _write_all(dataio, outcomes, out: Path) -> float:
    t0 = time.perf_counter()
    for sid, result in outcomes.items():
        dataio.write_results(result, out / f"s{sid}", scenario_id=sid)
    return time.perf_counter() - t0


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: time_write.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # write nothing into either checkout
    from time_load import _import_side

    roots = {side: Path(arg).resolve() for side, arg in zip(("parent", "change"), argv)}
    sides = {side: _import_side(f"ccsplan_{side}", root) for side, root in roots.items()}
    toy = roots["change"] / "src" / "ccsplan" / "data" / "toy-nation"
    sys.path.insert(0, str(roots["change"] / "perfbench"))
    import gen_bau

    with tempfile.TemporaryDirectory() as tmp:
        cases = {
            "gen_bau cost": (gen_bau.generate(toy, Path(tmp) / "bau", 1), "cost_only"),
            "toy-nation lex": (toy, "max_reduction_lex"),
        }
        for label, (data, mode) in cases.items():
            solved = {}
            for side, pkg in sides.items():
                outcomes = pkg.engine.run_all(pkg.dataio.load_validated(data), objective_mode=mode)
                solved[side] = {sid: r for sid, r in outcomes.items() if isinstance(r, pkg.engine.ScenarioResult)}
                _write_all(pkg.dataio, solved[side], Path(tmp) / side)  # warm-up
            times = {side: [] for side in sides}
            for k in range(CALLS):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    times[side].append(_write_all(sides[side].dataio, solved[side], Path(tmp) / side))
            for side, ts in times.items():
                print(f"{label:15s} {side:6s} min {1e3 * min(ts):7.2f} ms  "
                      f"median {1e3 * statistics.median(ts):7.2f} ms  ({CALLS} calls)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
