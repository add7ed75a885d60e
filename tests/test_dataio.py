import json

import numpy as np
import pytest

from ccsplan.builder import COST_ONLY, scenario_config
from ccsplan.dataio import (
    DataError,
    _fmt,
    load,
    load_validated,
    toy_nation_path,
    write_results,
    write_sweep,
)
from ccsplan.domain import TechKind
from ccsplan.engine import SweepPoint, SweepResult, run_scenario

from conftest import make_unit_instance


def write_mini_dataset(root, mass_unit="t", mass=1.0, price=1.0, drop_year=None):
    """Two regions, two years, one solar tech; small enough to eyeball."""
    (root / "series").mkdir()
    (root / "globals.json").write_text(json.dumps({
        "horizon": {"start_year": 2018, "num_years": 2},
        "units": {"co2_mass": mass_unit},
        "cp": {"constant": 10.0 * price},
        "ccsp": [5.0 * price, 4.0 * price],
        "gt": {"constant": 0.0},
        "cap": [None, 50.0 * mass],
        "sp": {"solar": [2.0, 1.0], "wind": [0.0, 0.0]},
        "alpha": {"solar": 0.31, "wind": 0.69},
    }))
    (root / "regions.csv").write_text(
        "id,C0_tonnes,lat,lon,ccs_capacity_tonnes\n"
        f"north,{60.0 * mass},40.0,140.0,{30.0 * mass}\n"
        f"south,{40.0 * mass},35.0,135.0,0\n"
    )
    (root / "tech.csv").write_text(
        "region_id,tech,potential_gw,h_gwh_per_gw,rp_series,g_series\n"
        "north,solar,4,1,rp_solar_north,g_solar_north\n"
    )
    years = ["2018", "2019"]
    if drop_year is not None:
        years = [y for y in years if y != str(drop_year)]
    (root / "series" / "rp_solar_north.csv").write_text(
        "year,value\n" + "".join(f"{y},8\n" for y in years)
    )
    (root / "series" / "g_solar_north.csv").write_text(
        "year,value\n" + "".join(f"{y},{10.0 * mass}\n" for y in years)
    )
    return root


def test_toy_nation_loads_and_validates():
    inst = load_validated(toy_nation_path())
    assert inst.n == 10
    assert len(inst.sellers) == 3
    assert inst.T == 33
    assert inst.horizon.start_year == 2018
    assert inst.baseline_total == pytest.approx(1e8)
    assert np.isinf(inst.globals.cap[:8]).all()
    assert inst.globals.cap[-1] == pytest.approx(4.0e7)
    grove = inst.regions[inst.region_index["grove"]]
    assert grove.ccs_capacity == pytest.approx(1.6e7)


def test_mini_dataset_roundtrip(tmp_path):
    inst = load_validated(write_mini_dataset(tmp_path))
    assert [r.id for r in inst.regions] == ["north", "south"]
    assert inst.sellers == (0,)
    np.testing.assert_allclose(inst.globals.cp, [10.0, 10.0])
    np.testing.assert_allclose(inst.globals.cap, [np.inf, 50.0])
    north = inst.regions[0].tech[TechKind.SOLAR]
    np.testing.assert_allclose(north.g, [10.0, 10.0])
    # missing tech rows become zero placeholders during validation
    assert inst.regions[1].tech[TechKind.WIND].potential == 0.0


def test_whole_number_float_horizon_loads(tmp_path):
    write_mini_dataset(tmp_path)
    conf = json.loads((tmp_path / "globals.json").read_text())
    conf["horizon"] = {"start_year": 2018.0, "num_years": 2.0}
    (tmp_path / "globals.json").write_text(json.dumps(conf))
    assert list(load(tmp_path).horizon.years) == [2018, 2019]


def test_mass_unit_scaling_is_equivalent(tmp_path):
    (tmp_path / "as_t").mkdir()
    (tmp_path / "as_kt").mkdir()
    a = load(write_mini_dataset(tmp_path / "as_t"))
    b = load(write_mini_dataset(tmp_path / "as_kt", mass_unit="kt", mass=1e-3, price=1e3))
    np.testing.assert_allclose(a.globals.cp, b.globals.cp)
    np.testing.assert_allclose(a.globals.cap, b.globals.cap)
    assert a.regions[0].baseline_emissions == pytest.approx(b.regions[0].baseline_emissions)
    np.testing.assert_allclose(
        a.regions[0].tech[TechKind.SOLAR].g, b.regions[0].tech[TechKind.SOLAR].g
    )


def test_missing_required_file(tmp_path):
    with pytest.raises(DataError, match="missing required file"):
        load(tmp_path)


def test_missing_series_year_message(tmp_path):
    write_mini_dataset(tmp_path, drop_year=2019)
    with pytest.raises(DataError, match="year 2019 missing in series rp_solar_north"):
        load(tmp_path)


def test_unknown_mass_unit(tmp_path):
    write_mini_dataset(tmp_path)
    conf = json.loads((tmp_path / "globals.json").read_text())
    conf["units"]["co2_mass"] = "lbs"
    (tmp_path / "globals.json").write_text(json.dumps(conf))
    with pytest.raises(DataError, match="unknown unit tag"):
        load(tmp_path)


def test_fmt_is_stable():
    assert _fmt(4.0) == "4"
    assert _fmt(-0.0) == "0"
    assert _fmt(0.5) == "0.5"
    assert _fmt(1e-12) == "0"
    assert _fmt(2.0000000004) == "2"


@pytest.fixture
def unit_bundle(tmp_path, unit_instance):
    res = run_scenario(unit_instance, scenario_config(1, objective_mode=COST_ONLY))
    out = tmp_path / "bundle"
    write_results(res, out, scenario_id=1)
    return res, out


def test_plan_csv_exact_rows(unit_bundle):
    _, out = unit_bundle
    lines = (out / "plan.csv").read_text().splitlines()
    assert lines[0] == "region,tech,year,amount,unit"
    assert "R,solar,2018,4,GW" in lines
    assert "R,CCS,2018,10,t" in lines
    assert len(lines) == 3  # zero rows are omitted


def test_bundle_layout_and_headers(unit_bundle):
    _, out = unit_bundle
    for name in ("plan.csv", "emissions.csv", "trades.csv", "cashflow.csv", "summary.json"):
        assert (out / name).exists()
    fig13 = (out / "plotdata" / "fig13.csv").read_text().splitlines()
    assert fig13[0] == "year,solar_t,wind_t,ccs_t"
    assert fig13[1] == "2018,40,0,10"
    assert (out / "plotdata" / "fig14.csv").exists()
    assert (out / "plotdata" / "deployment.csv").exists()


def test_summary_contents(unit_bundle):
    res, out = unit_bundle
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == 1
    assert summary["status"] == "optimal"
    assert summary["objective_yen"] == pytest.approx(-6.0)
    assert summary["reduction_pct"] == pytest.approx(50.0)
    assert summary["payback_year"] == 2018
    assert summary["shares_pct"]["solar"] == pytest.approx(80.0)
    assert summary["any_trading"] is False
    assert summary["cumulative_net_yen"] == pytest.approx(6.0)
    # keys are serialised sorted so diffs stay readable
    raw = (out / "summary.json").read_text()
    keys = [line.split('"')[1] for line in raw.splitlines() if line.startswith('  "')]
    assert keys == sorted(keys)


def test_write_results_is_byte_stable(tmp_path, unit_instance):
    res = run_scenario(unit_instance, scenario_config(1, objective_mode=COST_ONLY))
    write_results(res, tmp_path / "one", scenario_id=1)
    write_results(res, tmp_path / "two", scenario_id=1)
    for rel in ("plan.csv", "emissions.csv", "summary.json", "plotdata/fig13.csv"):
        assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()


def test_write_sweep_rows_and_byte_stability(tmp_path):
    good = SweepPoint(
        value=1.5, reduction_pct=60.0000000001, objective_value=-6.0, any_trading=False,
        total_re_gw=4.0, total_ccs_t=10.0,
    )
    bad = SweepPoint(value=2.0, error="infeasible; violated rows: cap[2018]")
    result = SweepResult(
        parameter="carbon_price", grid=[1.5, 2.0], points=[good, bad], threshold=None, monotone=True
    )
    write_sweep(result, tmp_path / "one", 1, COST_ONLY)
    write_sweep(result, tmp_path / "two", 1, COST_ONLY)
    assert (tmp_path / "one" / "sweep.csv").read_text().splitlines() == [
        "param_value,reduction_pct,objective,any_trading",
        "1.5,60,-6,false",
        "2,error,error,error",
    ]
    summary = json.loads((tmp_path / "one" / "summary.json").read_text())
    assert summary["scenario"] == 1
    assert summary["objective_mode"] == COST_ONLY
    assert summary["points"][0]["reduction_pct"] == 60.0
    assert summary["points"][1]["reduction_pct"] is None
    assert summary["points"][1]["error"] == bad.error
    for name in ("sweep.csv", "summary.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
