"""Seeded generator for the `bau-large` workload's dataset.

Four jittered copies of the bundled toy-nation regions (40 regions) with the
same technology rows and series, and no national emission ceiling (`cap` is
null in every year), so the cost-mode LP starts feasible at x = 0 and the
simplex runs no phase 1. The same seed gives a byte-identical directory.
"""
from __future__ import annotations

import csv
import json
import random
import shutil
from pathlib import Path

COPIES = 4
LOC_JITTER_DEG = 0.3  # +- on lat and lon
BASELINE_JITTER = 0.05  # relative, +-
POTENTIAL_JITTER = 0.10  # relative, +-


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _write_rows(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def generate(toy: Path, out: Path, seed: int) -> Path:
    """Write the dataset for `seed` into `out` (replaced if it exists)."""
    rng = random.Random(seed)
    toy, out = Path(toy), Path(out)
    if out.exists():
        shutil.rmtree(out)
    (out / "series").mkdir(parents=True)

    with open(toy / "globals.json") as fh:
        gconf = json.load(fh)
    gconf["cap"] = [None] * int(gconf["horizon"]["num_years"])
    with open(out / "globals.json", "w", newline="\n") as fh:
        json.dump(gconf, fh, indent=2)
        fh.write("\n")

    def jitter(x: float, rel: float) -> float:
        return x * (1.0 + rng.uniform(-rel, rel))

    base_regions = _read_rows(toy / "regions.csv")
    regions = []
    for k in range(COPIES):
        for r in base_regions:
            regions.append([
                f"{r['id']}{k}",
                repr(jitter(float(r["C0_tonnes"]), BASELINE_JITTER)),
                repr(float(r["lat"]) + rng.uniform(-LOC_JITTER_DEG, LOC_JITTER_DEG)),
                repr(float(r["lon"]) + rng.uniform(-LOC_JITTER_DEG, LOC_JITTER_DEG)),
                r["ccs_capacity_tonnes"],
            ])
    _write_rows(out / "regions.csv", ["id", "C0_tonnes", "lat", "lon", "ccs_capacity_tonnes"], regions)

    tech = []
    for k in range(COPIES):
        for t in _read_rows(toy / "tech.csv"):
            rid = f"{t['region_id']}{k}"
            names = []
            for col in ("rp_series", "g_series"):
                name = f"{t[col].split('_')[0]}_{t['tech']}_{rid}"
                shutil.copyfile(toy / "series" / f"{t[col]}.csv", out / "series" / f"{name}.csv")
                names.append(name)
            tech.append([rid, t["tech"], repr(jitter(float(t["potential_gw"]), POTENTIAL_JITTER)),
                         t["h_gwh_per_gw"], *names])
    _write_rows(out / "tech.csv",
                ["region_id", "tech", "potential_gw", "h_gwh_per_gw", "rp_series", "g_series"], tech)
    return out

