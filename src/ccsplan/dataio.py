"""Dataset bundle loading and result bundle writing.

A dataset directory contains globals.json, regions.csv, tech.csv, series/*.csv
(year,value pairs for the rp and g schedules), and an optional distances.csv.
Declared units are converted to canonical tonnes/GW/GWh/yen/km on load;
semantic checks are deferred to domain.validate_instance.

Result bundles are bit-stable: fixed field order, 1e-9-rounded decimal
formatting, LF line endings.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import analytics
from .domain import (
    TECH_ORDER,
    GlobalParams,
    Horizon,
    ModelInstance,
    Region,
    RegionTech,
    validate_instance,
)
from .engine import ScenarioResult, SweepResult

REQUIRED_FILES = ("globals.json", "regions.csv", "tech.csv")
MASS_FACTORS = {"t": 1.0, "kt": 1e3, "Mt": 1e6}
MAX_YEARS = 1000  # every series is an array of num_years values


class DataError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _fmt(x) -> str:
    """Deterministic decimal rendering, rounded at 1e-9."""
    s = f"{_round9(float(x)):.9f}".rstrip("0").rstrip(".")
    return s if s else "0"


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


def _read_csv(path: Path, required_cols, errors):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in required_cols if c not in (reader.fieldnames or [])]
        if missing:
            errors.append(f"{path.name}: missing columns {missing}")
            return rows
        for lineno, row in enumerate(reader, start=2):
            rows.append((lineno, row))
    return rows


def _load_series_file(path: Path, horizon: Horizon, errors):
    name = path.stem
    values = {}
    if not path.exists():
        errors.append(f"series/{path.name}: missing file")
        return np.zeros(horizon.num_years)
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.DictReader(fh), start=2):
            try:
                values[int(row["year"])] = float(row["value"])
            except (KeyError, TypeError, ValueError):
                errors.append(f"series/{path.name}:{lineno}: malformed row {row!r}")
    out = np.zeros(horizon.num_years)
    for t, year in enumerate(horizon.years):
        if year not in values:
            errors.append(f"year {year} missing in series {name}")
        else:
            out[t] = values[year]
    return out


def load(path) -> ModelInstance:
    """Parse a dataset directory into an (unvalidated) model instance."""
    root = Path(path)
    errors = []
    missing = [f for f in REQUIRED_FILES if not (root / f).exists()]
    if missing:
        raise DataError([f"{root}: missing required file {f}" for f in missing])

    try:
        with open(root / "globals.json") as fh:
            gconf = json.load(fh)
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
    sp = {k: _parse_series(spconf.get(k.value), T, f"sp.{k.value}", errors) for k in TECH_ORDER}
    alpha_conf = _object(gconf, "alpha", errors)
    alpha = None
    if alpha_conf:
        alpha = {
            k: _float(alpha_conf.get(k.value, 0.0), f"globals.json: alpha.{k.value}", errors) for k in TECH_ORDER
        }

    region_rows = _read_csv(root / "regions.csv", ("id", "C0_tonnes", "ccs_capacity_tonnes"), errors)
    regions = {}
    order = []
    for lineno, row in region_rows:
        rid = (row.get("id") or "").strip()
        if not rid:
            errors.append(f"regions.csv:{lineno}: empty region id")
            continue
        c0, ccs_cap = (_float(row[c], f"regions.csv:{lineno}: {c}", errors) * mass
                       for c in ("C0_tonnes", "ccs_capacity_tonnes"))
        loc = None
        if (row.get("lat") or "").strip() and (row.get("lon") or "").strip():
            loc = tuple(_float(row[c], f"regions.csv:{lineno}: {c}", errors) for c in ("lat", "lon"))
        regions[rid] = Region(
            id=rid, baseline_emissions=c0, tech={}, ccs_capacity=ccs_cap, location=loc
        )
        order.append(rid)

    tech_rows = _read_csv(
        root / "tech.csv",
        ("region_id", "tech", "potential_gw", "h_gwh_per_gw", "rp_series", "g_series"),
        errors,
    )
    kind_of = {k.value: k for k in TECH_ORDER}
    series_cache = {}

    def series(name):
        if name not in series_cache:
            series_cache[name] = _load_series_file(root / "series" / f"{name}.csv", horizon, errors)
        return series_cache[name]

    for lineno, row in tech_rows:
        rid = (row.get("region_id") or "").strip()
        if rid not in regions:
            errors.append(f"tech.csv:{lineno}: unknown region_id {rid!r}")
            continue
        kind = kind_of.get((row.get("tech") or "").strip())
        if kind is None:
            errors.append(f"tech.csv:{lineno}: unknown tech {row.get('tech')!r}")
            continue
        potential, h = (_float(row[c], f"tech.csv:{lineno}: {c}", errors)
                        for c in ("potential_gw", "h_gwh_per_gw"))
        g_name, rp_name = ((row.get(c) or "").strip() for c in ("g_series", "rp_series"))
        if not (g_name and rp_name):
            errors.append(f"tech.csv:{lineno}: empty g_series or rp_series in {row!r}")
            continue
        regions[rid].tech[kind] = RegionTech(
            g=series(g_name) * mass,
            rp=series(rp_name),
            h=h,
            potential=potential,
        )

    distances = None
    dpath = root / "distances.csv"
    if dpath.exists():
        n = len(order)
        idx = {rid: i for i, rid in enumerate(order)}
        distances = np.full((n, n), np.nan)
        np.fill_diagonal(distances, 0.0)
        for lineno, row in _read_csv(dpath, ("from_id", "to_id", "km"), errors):
            a, b = (row.get("from_id") or "").strip(), (row.get("to_id") or "").strip()
            if a not in idx or b not in idx:
                errors.append(f"distances.csv:{lineno}: unknown region in {row!r}")
                continue
            distances[idx[a], idx[b]] = _float(row["km"], f"distances.csv:{lineno}: km", errors)
        holes = np.argwhere(np.isnan(distances))
        for a, b in holes:
            errors.append(f"distances.csv: missing pair {order[a]} -> {order[b]}")

    if errors:
        raise DataError(errors)

    gp = GlobalParams(cp=cp, ccsp=ccsp, gt=gt, cap=cap, sp=sp)
    if alpha is not None:
        gp.alpha = alpha
    return ModelInstance(
        horizon=horizon,
        regions=[regions[rid] for rid in order],
        globals=gp,
        distances=distances,
    )


def load_validated(path) -> ModelInstance:
    return validate_instance(load(path))


def _write_lines(path: Path, lines):
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_summary(path: Path, summary: dict):
    with open(path, "w", newline="\n") as fh:
        json.dump(_round9(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_results(result: ScenarioResult, out_path, scenario_id: int | None = None):
    """Write the full result bundle for one solved scenario.

    Layout: plan.csv, emissions.csv, trades.csv, cashflow.csv, summary.json,
    plotdata/*.csv. Running twice with identical inputs produces byte-identical
    bundles. Returns the summary, before summary.json's rounding.
    """
    inst = result.instance
    out = Path(out_path)
    (out / "plotdata").mkdir(parents=True, exist_ok=True)
    shares = analytics.contribution_shares(result)
    cash = analytics.cashflow(result)
    trades = analytics.trade_matrix(result)
    payback = analytics.payback_year(cash)
    years = list(inst.horizon.years)

    lines = ["region,tech,year,amount,unit"]
    for t, year in enumerate(years):
        for i, region in enumerate(inst.regions):
            for k, kind in enumerate(TECH_ORDER):
                v = result.plan.re_installed[i, k, t]
                if v != 0:
                    lines.append(f"{region.id},{kind.value},{year},{_fmt(v)},GW")
            v = result.plan.ccs_local[i, t]
            if v != 0:
                lines.append(f"{region.id},CCS,{year},{_fmt(v)},t")
    _write_lines(out / "plan.csv", lines)

    lines = ["region,year,tonnes"]
    for i, region in enumerate(inst.regions):
        for t, year in enumerate(years):
            lines.append(f"{region.id},{year},{_fmt(result.emissions[i, t])}")
    _write_lines(out / "emissions.csv", lines)

    lines = ["year,from,to,tonnes"]
    for t, year in enumerate(years):
        for j in inst.buyers:
            for i in inst.sellers:
                v = result.plan.ccs_traded[j, i, t]
                if v != 0:
                    lines.append(f"{year},{inst.regions[j].id},{inst.regions[i].id},{_fmt(v)}")
    _write_lines(out / "trades.csv", lines)

    lines = [
        "region,year,invest_re,invest_ccs,transport_cost,storage_fee_paid,"
        "fit_revenue,ets_revenue,storage_fee_received,net"
    ]
    net = cash.net()
    for i, region in enumerate(inst.regions):
        for t, year in enumerate(years):
            lines.append(
                f"{region.id},{year},{_fmt(cash.invest_re[i, t])},{_fmt(cash.invest_ccs[i, t])},"
                f"{_fmt(cash.transport_cost[i, t])},{_fmt(cash.storage_fee_paid[i, t])},"
                f"{_fmt(cash.fit_revenue[i, t])},{_fmt(cash.ets_revenue[i, t])},"
                f"{_fmt(cash.storage_fee_received[i, t])},{_fmt(net[i, t])}"
            )
    _write_lines(out / "cashflow.csv", lines)

    lines = ["year,solar_t,wind_t,ccs_t"]
    for t, year in enumerate(years):
        lines.append(f"{year},{_fmt(shares.solar_t[t])},{_fmt(shares.wind_t[t])},{_fmt(shares.ccs_t[t])}")
    _write_lines(out / "plotdata" / "fig13.csv", lines)

    cum = cash.cumulative_net()
    lines = [
        "year,invest_re,invest_ccs,transport_cost,storage_fee_paid,"
        "fit_revenue,ets_revenue,cumulative_net"
    ]
    for t, year in enumerate(years):
        lines.append(
            f"{year},{_fmt(cash.invest_re[:, t].sum())},{_fmt(cash.invest_ccs[:, t].sum())},"
            f"{_fmt(cash.transport_cost[:, t].sum())},{_fmt(cash.storage_fee_paid[:, t].sum())},"
            f"{_fmt(cash.fit_revenue[:, t].sum())},{_fmt(cash.ets_revenue[:, t].sum())},{_fmt(cum[t])}"
        )
    _write_lines(out / "plotdata" / "fig14.csv", lines)

    ccs = result.plan.ccs_of_region()
    lines = ["year,region,solar_gw,wind_gw,ccs_t"]
    for t, year in enumerate(years):
        for i, region in enumerate(inst.regions):
            lines.append(
                f"{year},{region.id},{_fmt(result.plan.re_installed[i, 0, t])},"
                f"{_fmt(result.plan.re_installed[i, 1, t])},"
                f"{_fmt(ccs[i, t])}"
            )
    _write_lines(out / "plotdata" / "deployment.csv", lines)

    summary = {
        "scenario": scenario_id,
        "objective_mode": result.config.objective_mode,
        "ccs_limit_mode": result.config.ccs_limit_mode,
        "resilience": result.config.resilience_enabled,
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
        "total_re_gw": float(result.plan.re_installed.sum()),
        "total_ccs_t": float(result.plan.ccs_local.sum() + result.plan.ccs_traded.sum()),
        "cumulative_net_yen": float(cum[-1]),
    }
    _write_summary(out / "summary.json", summary)
    return summary


def write_sweep(result: SweepResult, out_path, scenario_id: int, objective_mode: str):
    """Write the bundle of one price sweep: sweep.csv and summary.json.

    A failed point keeps its row in sweep.csv, with `error` in every column
    but the parameter value; summary.json carries its error message.
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
        "objective_mode": objective_mode,
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
    _write_summary(out / "summary.json", summary)
    return out


def toy_nation_path() -> Path:
    """Location of the bundled synthetic reference dataset."""
    return Path(__file__).parent / "data" / "toy-nation"
