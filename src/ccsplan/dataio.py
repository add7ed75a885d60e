"""Dataset bundle loading and result bundle writing.

A dataset directory contains globals.json, regions.csv, tech.csv, series/*.csv
(year,value pairs for the rp and g schedules), and an optional distances.csv.
Every CSV file is read by `_read_table`, under the rules of the README's
"Dataset format". Declared units are converted to canonical tonnes/GW/GWh/yen/km
on load; semantic checks, NaN and inf included, are deferred to
domain.validate_instance.

Every file is read and written as UTF-8, whatever the locale. Result bundles
are bit-stable: fixed field order, 1e-9-rounded decimal formatting (Python's
shortest round-trip text from 2**53 up, e.g. 1e+308), LF line endings.
"""
from __future__ import annotations

import csv
import functools
import json
from pathlib import Path

import numpy as np

from . import analytics
from .domain import (
    DEFAULT_ALPHA,
    NUM_TECH,
    TECH_ORDER,
    GlobalParams,
    Horizon,
    ModelInstance,
    Region,
    ValidationError,
    validate_instance,
)
from .engine import ScenarioResult, SweepResult

REQUIRED_FILES = ("globals.json", "regions.csv", "tech.csv")
MASS_FACTORS = {"t": 1.0, "kt": 1e3, "Mt": 1e6}
MAX_YEARS = 1000  # every series is an array of num_years values


class DataError(ValidationError):
    """A dataset directory that breaks the file format: its `errors` name the
    file and, for a CSV row, the line."""


def _fmt(x) -> str:
    """Deterministic decimal rendering, rounded at 1e-9; never "-0". From 2**53
    up, where every float is whole, the shortest round-trip text (`repr`)."""
    if abs(x) >= 2.0**53:
        return repr(float(x))
    s = f"{x:.9f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _fmt_column(a: np.ndarray) -> np.ndarray:
    """`_fmt` of each entry of `a`; exact zeros, most cells, skip formatting."""
    out = np.full(a.shape, "0", dtype=object)
    nz = a != 0
    out[nz] = [_fmt(x) for x in a[nz].tolist()]
    return out


def _round9(obj):
    if isinstance(obj, float):
        v = round(obj, 9)
        return 0.0 if v == 0 else v  # normalise -0.0
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _float(value, where, errors):
    """float(value), or 0.0 after recording an error that names `where`."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{where}: not a number: {value!r}")
        return 0.0


def _object(conf, key, errors):
    """The JSON object under `key` of globals.json ({} if absent, or after
    recording an error when it is not an object)."""
    value = conf.get(key, {})
    if isinstance(value, dict):
        return value
    errors.append(f"globals.json: {key}: expected a JSON object, got {type(value).__name__}")
    return {}


def _parse_series(value, T, name, errors):
    if isinstance(value, dict) and set(value) == {"constant"}:
        return np.full(T, _float(value["constant"], f"globals.json: {name}.constant", errors))
    if isinstance(value, list):
        out = np.zeros(T)
        if len(value) != T:
            errors.append(f"globals.json: {name}: series length {len(value)} ≠ horizon {T}")
            return out
        for t, v in enumerate(value):
            if v is None or v == "unbounded":
                out[t] = np.inf
            else:
                out[t] = _float(v, f"globals.json: {name}[{t}]", errors)
        return out
    errors.append(f"globals.json: {name}: expected a list or {{'constant': x}}")
    return np.zeros(T)


def _read_table(root: Path, name, key, label, numbers, text, errors):
    """The rows of the CSV file `root / name` by the tuple of their stripped
    `key` cells, in file order: {key: (line, row, floats)}, with `row` the
    dict of the row's cells by column ("" past the end of a short row) and
    `floats` its `numbers` cells (one or more) through `_float`, NaN and inf
    included. Returns None after one error if a `key`, `numbers` or `text`
    column is missing or the file is not UTF-8 CSV text. Records an error for
    each empty key cell, number cell that does not parse and repeated key,
    named by `label.format(*key)`."""
    try:
        with open(root / name, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in (*key, *numbers, *text) if c not in header]
            if missing:
                errors.append(f"{name}: missing columns {missing}")
                return None
            pad = [""] * len(header)
            rows = [(reader.line_num, r if len(r) >= len(pad) else r + pad[len(r):]) for r in reader if r]
    except (UnicodeDecodeError, csv.Error) as exc:
        errors.append(f"{name}: not readable as UTF-8 CSV: {exc}")
        return None
    # column by column: one comprehension per column costs less than one per row
    keys = zip(*[[r[j].strip() for _, r in rows] for j in map(header.index, key)])
    try:
        floats = zip(*[[float(r[j]) for _, r in rows] for j in map(header.index, numbers)])
    except ValueError:  # name each bad cell
        floats = zip(*[[_float(r[j], f"{name}:{line}: {c}", errors) for line, r in rows]
                       for c, j in zip(numbers, map(header.index, numbers))])
    table = {}
    for (line, cells), k, f in zip(rows, keys, floats):
        if not all(k):
            errors.extend(f"{name}:{line}: empty {c}" for c, v in zip(key, k) if not v)
        elif k in table:
            errors.append(f"{name}:{line}: repeated {label.format(*k)}")
        else:
            table[k] = (line, dict(zip(header, cells)), f)
    return table


def load(path) -> ModelInstance:
    """Parse a dataset directory into an (unvalidated) model instance."""
    root = Path(path)
    errors = []
    missing = [f for f in REQUIRED_FILES if not (root / f).exists()]
    if missing:
        raise DataError([f"{root}: missing required file {f}" for f in missing])

    try:
        with open(root / "globals.json", encoding="utf-8") as fh:
            gconf = json.load(fh)
    except UnicodeDecodeError as exc:
        raise DataError([f"globals.json: not UTF-8 text: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise DataError([f"globals.json: malformed JSON: {exc}"]) from exc
    if not isinstance(gconf, dict):
        raise DataError([f"globals.json: expected a JSON object, got {type(gconf).__name__}"])

    hconf = _object(gconf, "horizon", errors)
    years = {}
    for key, default in (("start_year", 2018), ("num_years", 33)):
        value = hconf.get(key, default)
        try:
            if isinstance(value, bool) or float(value) != int(value):
                raise ValueError(value)
            years[key] = int(value)
        except (TypeError, ValueError, OverflowError):
            errors.append(f"globals.json: horizon.{key}: not an integer: {value!r}")
    if not 1 <= years.get("num_years", 1) <= MAX_YEARS:
        errors.append(f"globals.json: horizon.num_years: {years['num_years']} outside [1, {MAX_YEARS}]")
    if errors:  # every series below is read against the horizon
        raise DataError(errors)
    horizon = Horizon(**years)
    T = horizon.num_years

    units = _object(gconf, "units", errors)
    mass_unit = units.get("co2_mass", "t")
    if not isinstance(mass_unit, str) or mass_unit not in MASS_FACTORS:
        errors.append(f"globals.json: units.co2_mass: unknown unit tag {mass_unit!r}")
        mass_unit = "t"
    mass = MASS_FACTORS[mass_unit]

    # mass-denominated quantities scale by the declared unit; prices are
    # quoted per declared unit, so they scale inversely
    cp = _parse_series(gconf.get("cp"), T, "cp", errors) / mass
    ccsp = _parse_series(gconf.get("ccsp"), T, "ccsp", errors) / mass
    gt = _parse_series(gconf.get("gt"), T, "gt", errors) / mass
    cap = _parse_series(gconf.get("cap", [None] * T), T, "cap", errors) * mass
    spconf = _object(gconf, "sp", errors)
    sp = np.array([_parse_series(spconf.get(k), T, f"sp.{k}", errors) for k in TECH_ORDER])
    alpha_conf = _object(gconf, "alpha", errors)
    alpha = np.array([_float(alpha_conf.get(k, 0.0), f"globals.json: alpha.{k}", errors)
                      for k in TECH_ORDER] if alpha_conf else DEFAULT_ALPHA)

    regions = {}
    region_rows = _read_table(
        root, "regions.csv", ("id",), "region id {}", ("C0_tonnes", "ccs_capacity_tonnes"), (), errors
    )
    for (rid,), (line, row, (c0, ccs_cap)) in (region_rows or {}).items():
        loc = None
        if row.get("lat", "").strip() and row.get("lon", "").strip():
            loc = tuple(_float(row[c], f"regions.csv:{line}: {c}", errors) for c in ("lat", "lon"))
        regions[rid] = Region(id=rid, baseline_emissions=c0 * mass, ccs_capacity=ccs_cap * mass, location=loc)

    # a region-tech pair with no tech.csv row stays zero: the region cannot deploy it
    idx = {rid: i for i, rid in enumerate(regions)}
    g, rp = np.zeros((len(idx), NUM_TECH, T)), np.zeros((len(idx), NUM_TECH, T))
    h, potential = np.zeros((len(idx), NUM_TECH)), np.zeros((len(idx), NUM_TECH))
    kind_of = {k: j for j, k in enumerate(TECH_ORDER)}

    @functools.cache
    def series(name):
        """The `value` of series/<name>.csv in each year of the horizon."""
        path = f"series/{name}.csv"
        if not (root / path).exists():
            errors.append(f"{path}: missing file")
        elif (table := _read_table(root, path, ("year",), "year {}", ("value",), (), errors)) is not None:
            rows = [table.get((str(year),)) for year in horizon.years]
            errors.extend(f"year {y} missing in series {name}" for y, row in zip(horizon.years, rows) if row is None)
            return np.array([row[2][0] if row else 0.0 for row in rows])
        return np.zeros(T)

    tech_rows = _read_table(
        root, "tech.csv", ("region_id", "tech"), "row for {} {}", ("potential_gw", "h_gwh_per_gw"),
        ("rp_series", "g_series"), errors,
    )
    for (rid, tech), (line, row, (pot, gwh)) in (tech_rows or {}).items():
        if rid not in regions:
            if region_rows is not None:  # else regions.csv's one error stands for the rows
                errors.append(f"tech.csv:{line}: unknown region_id {rid!r}")
            continue
        kind = kind_of.get(tech)
        if kind is None:
            errors.append(f"tech.csv:{line}: unknown tech {tech!r}")
            continue
        g_name, rp_name = (row[c].strip() for c in ("g_series", "rp_series"))
        if not (g_name and rp_name):
            errors.append(f"tech.csv:{line}: empty g_series or rp_series in {row!r}")
            continue
        i = idx[rid]
        g[i, kind] = series(g_name) * mass
        rp[i, kind] = series(rp_name)
        h[i, kind], potential[i, kind] = gwh, pot

    distances = None
    if (root / "distances.csv").exists():
        distances = np.zeros((len(idx), len(idx)))
        pairs = _read_table(root, "distances.csv", ("from_id", "to_id"), "pair {} -> {}", ("km",), (), errors)
        for (a, b), (line, row, (km,)) in (pairs or {}).items():
            if a not in idx or b not in idx:
                errors.append(f"distances.csv:{line}: unknown region in {row!r}")
                continue
            distances[idx[a], idx[b]] = km
        if pairs is not None:
            errors.extend(
                f"distances.csv: missing pair {a} -> {b}" for a in idx for b in idx if a != b and (a, b) not in pairs
            )

    if errors:
        raise DataError(errors)

    return ModelInstance(
        horizon=horizon,
        regions=list(regions.values()),
        globals=GlobalParams(cp=cp, ccsp=ccsp, gt=gt, cap=cap, sp=sp, alpha=alpha),
        g=g, rp=rp, h=h, potential=potential,
        distances=distances,
    )


def load_validated(path) -> ModelInstance:
    return validate_instance(load(path))


def _write_lines(path: Path, lines):
    """Write one bundle file, a line per entry of `lines`: UTF-8 with LF line
    endings, whatever the locale."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_table(path: Path, columns: dict, keep=None):
    """Write one CSV: a header of the column names, then one line per entry of
    the columns broadcast together, in C order, leaving out the entries where
    `keep` is False. String columns are written as they are, numeric ones
    through `_fmt_column`."""
    *arrays, mask = np.broadcast_arrays(*columns.values(), True if keep is None else keep)
    cells = [a[mask] if a.dtype.kind == "U" else _fmt_column(a[mask]) for a in arrays]
    _write_lines(path, [",".join(columns), *map(",".join, zip(*cells))])


# the paths, relative to the bundle directory, that each bundle writer writes
RESULT_FILES = ("plan.csv", "emissions.csv", "trades.csv", "cashflow.csv", "plotdata/fig13.csv",
                "plotdata/fig14.csv", "plotdata/deployment.csv", "summary.json")
SWEEP_FILES = ("sweep.csv", "summary.json")


def write_results(result: ScenarioResult, out_path, scenario_id: int | None = None):
    """Write the full result bundle for one solved scenario.

    Layout (RESULT_FILES): plan.csv, emissions.csv, trades.csv, cashflow.csv,
    summary.json, plotdata/*.csv. Running twice with identical inputs produces
    byte-identical bundles. Returns the summary, before summary.json's rounding.
    """
    inst = result.instance
    out = Path(out_path)
    (out / "plotdata").mkdir(parents=True, exist_ok=True)
    shares = analytics.contribution_shares(result)
    cash = analytics.cashflow(result)
    trades = analytics.trade_matrix(result)
    payback = analytics.payback_year(cash)
    plan = result.plan
    cum = cash.cumulative_net()
    ids = np.array([r.id for r in inst.regions])
    years = np.array(inst.horizon.years).astype(str)

    amount = np.concatenate([plan.re_installed.transpose(2, 0, 1), plan.ccs_local.T[:, :, None]], axis=2)
    _write_table(out / "plan.csv", {  # (t, i, solar/wind/CCS)
        "region": ids[:, None], "tech": [*TECH_ORDER, "CCS"],
        "year": years[:, None, None], "amount": amount, "unit": ["GW"] * len(TECH_ORDER) + ["t"],
    }, keep=amount != 0)
    _write_table(out / "emissions.csv", {"region": ids[:, None], "year": years, "tonnes": result.emissions})
    tonnes = plan.ccs_traded[np.ix_(inst.buyers, inst.sellers)].transpose(2, 0, 1)  # (t, buyer, seller)
    _write_table(out / "trades.csv", {
        "year": years[:, None, None], "from": ids[inst.buyers][:, None], "to": ids[inst.sellers], "tonnes": tonnes,
    }, keep=tonnes != 0)
    flows = {f: getattr(cash, f) for f in (
        "invest_re", "invest_ccs", "transport_cost", "storage_fee_paid", "fit_revenue", "ets_revenue")}
    _write_table(out / "cashflow.csv", {
        "region": ids[:, None], "year": years, **flows,
        "storage_fee_received": cash.storage_fee_received, "net": cash.net(),
    })
    _write_table(out / "plotdata" / "fig13.csv", {
        "year": years, "solar_t": shares.solar_t, "wind_t": shares.wind_t, "ccs_t": shares.ccs_t,
    })
    # national yearly sums: a contiguous row per year adds its regions pairwise,
    # as f[:, t].sum() does; f.sum(axis=0) adds them in turn and can move last digits
    _write_table(out / "plotdata" / "fig14.csv", {
        "year": years, **{k: np.ascontiguousarray(f.T).sum(axis=1) for k, f in flows.items()},
        "cumulative_net": cum,
    })
    _write_table(out / "plotdata" / "deployment.csv", {
        "year": years[:, None], "region": ids, "solar_gw": plan.re_installed[:, 0].T,
        "wind_gw": plan.re_installed[:, 1].T, "ccs_t": plan.ccs_of_region().T,
    })

    summary = {
        "scenario": scenario_id,
        "objective_mode": result.config.objective_mode,
        "ccs_limit_mode": result.config.ccs_limit_mode,
        "resilience": result.config.resilience_enabled,
        "nonneg_emissions": result.config.nonneg_emissions,
        "status": result.solve_stats.get("status", "optimal"),
        "objective_yen": result.objective_value,
        "reduction_pct": result.reduction_pct,
        "total_offset_t": result.total_offset,
        "payback_year": payback,
        "shares_pct": (
            None
            if shares.solar_pct is None
            else {"solar": shares.solar_pct, "wind": shares.wind_pct, "ccs": shares.ccs_pct}
        ),
        "any_trading": trades.any_trading,
        "total_traded_t": trades.total_traded_t,
        "total_re_gw": plan.total_re_gw,
        "total_ccs_t": plan.total_ccs_t,
        "cumulative_net_yen": float(cum[-1]),
    }
    _write_lines(out / "summary.json", [json.dumps(_round9(summary), indent=2, sort_keys=True)])
    return summary


def write_sweep(result: SweepResult, out_path, scenario_id: int):
    """Write the bundle of one price sweep (SWEEP_FILES): sweep.csv and summary.json.

    A failed point keeps its row in sweep.csv, with `error` in every column
    but the parameter value; summary.json carries its error message, and
    records the objective mode and emission floor of `result.config`.
    """
    out = Path(out_path)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["param_value,reduction_pct,objective,any_trading"]
    for p in result.points:
        if p.error is not None:
            lines.append(f"{_fmt(p.value)},error,error,error")
        else:
            lines.append(
                f"{_fmt(p.value)},{_fmt(p.reduction_pct)},{_fmt(p.objective_value)},{str(p.any_trading).lower()}"
            )
    _write_lines(out / "sweep.csv", lines)
    summary = {
        "parameter": result.parameter,
        "scenario": scenario_id,
        "objective_mode": result.config.objective_mode,
        "nonneg_emissions": result.config.nonneg_emissions,
        "grid": result.grid,
        "threshold": result.threshold,
        "monotone": result.monotone,
        "points": [
            {
                "value": p.value,
                "reduction_pct": p.reduction_pct,
                "objective": p.objective_value,
                "any_trading": p.any_trading,
                "total_re_gw": p.total_re_gw,
                "total_ccs_t": p.total_ccs_t,
                "error": p.error,
            }
            for p in result.points
        ],
    }
    _write_lines(out / "summary.json", [json.dumps(_round9(summary), indent=2, sort_keys=True)])
    return out


def toy_nation_path() -> Path:
    """Location of the bundled synthetic reference dataset."""
    return Path(__file__).parent / "data" / "toy-nation"
