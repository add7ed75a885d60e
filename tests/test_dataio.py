import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsplan.builder import COST_ONLY, DeploymentPlan, scenario_config
from ccsplan.dataio import (
    RESULT_FILES,
    SWEEP_FILES,
    DataError,
    _fmt,
    _fmt_column,
    _round9,
    load,
    load_validated,
    toy_nation_path,
    write_results,
    write_sweep,
)
from ccsplan.domain import GlobalParams, Horizon, ModelInstance, Region
from ccsplan.engine import ScenarioResult, SweepPoint, SweepResult, compute_emissions, run_scenario

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
    grove = next(r for r in inst.regions if r.id == "grove")
    assert grove.ccs_capacity == pytest.approx(1.6e7)


def test_mini_dataset_roundtrip(tmp_path):
    inst = load_validated(write_mini_dataset(tmp_path))
    assert [r.id for r in inst.regions] == ["north", "south"]
    np.testing.assert_array_equal(inst.sellers, [0])
    np.testing.assert_array_equal(inst.buyers, [1])
    np.testing.assert_allclose(inst.globals.cp, [10.0, 10.0])
    np.testing.assert_allclose(inst.globals.cap, [np.inf, 50.0])
    np.testing.assert_allclose(inst.g[0, 0], [10.0, 10.0])  # north solar
    # a region-tech pair without a tech.csv row (south wind) loads as all zero
    assert inst.potential[1, 1] == 0.0 and inst.h[1, 1] == 0.0
    np.testing.assert_array_equal(inst.g[1, 1], [0.0, 0.0])
    np.testing.assert_array_equal(inst.rp[1, 1], [0.0, 0.0])


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
    np.testing.assert_allclose(a.g, b.g)


def test_missing_required_file(tmp_path):
    with pytest.raises(DataError, match="missing required file"):
        load(tmp_path)


def test_missing_series_year_message(tmp_path):
    write_mini_dataset(tmp_path, drop_year=2019)
    with pytest.raises(DataError, match="year 2019 missing in series rp_solar_north"):
        load(tmp_path)


def test_renamed_series_column_is_one_error(tmp_path):
    write_mini_dataset(tmp_path)
    path = tmp_path / "series" / "rp_solar_north.csv"
    path.write_text(path.read_text().replace("year,", "yr,"))
    with pytest.raises(DataError) as exc:
        load(tmp_path)
    assert exc.value.errors == ["series/rp_solar_north.csv: missing columns ['year']"]


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
    assert _fmt(2.0**53 - 1) == "9007199254740991"
    assert _fmt(2.0**53) == "9007199254740992.0"
    assert _fmt(1e308 / 3) == "3.333333333333333e+307"
    assert _fmt(-1e308) == "-1e+308"


def old_cell(x):
    """A numeric cell's text as bundles have always written it below 2**53;
    from there up, where every float is whole, its `repr`."""
    if abs(x) >= 2**53:
        return repr(float(x))
    return f"{_round9(float(x)):.9f}".rstrip("0").rstrip(".") or "0"


cell_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals included
    # the rounding grid, and its ties at 5e-10
    st.builds(lambda k, step, offset: k * step + offset, st.integers(-10**12, 10**12),
              st.sampled_from([1e-9, 1e-10]), st.sampled_from([-5e-10, 0.0, 5e-10])),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308, 4e-10, -4e-10,
                     2.0**53, -2.0**53, 2.0**53 - 1, 1.7976931348623157e308]),
)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(cell_values)
def test_cell_text_matches_the_old_expression(x):
    assert _fmt(x) == old_cell(x)
    assert _fmt_column(np.array([x])).tolist() == [old_cell(x)]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), cell_values), max_size=40))
def test_column_text_matches_the_old_expression(xs):
    assert _fmt_column(np.array(xs, dtype=float)).tolist() == [old_cell(x) for x in xs]


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


def _written(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def test_bundle_writers_write_the_declared_files(unit_bundle, tmp_path):
    # the CLI checks these paths under --out before it solves
    _, out = unit_bundle
    assert _written(out) == sorted(RESULT_FILES)
    result = SweepResult(config=scenario_config(1), parameter="carbon_price", grid=[1.0],
                         points=[SweepPoint(value=1.0, error="infeasible")], threshold=None, monotone=True)
    write_sweep(result, tmp_path / "sweep", 1)
    assert _written(tmp_path / "sweep") == sorted(SWEEP_FILES)


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
        config=scenario_config(1, objective_mode=COST_ONLY), parameter="carbon_price", grid=[1.5, 2.0],
        points=[good, bad], threshold=None, monotone=True,
    )
    write_sweep(result, tmp_path / "one", 1)
    write_sweep(result, tmp_path / "two", 1)
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


def two_by_two_result():
    """A hand-made plan on two regions and two years, with both technologies,
    one trade and some zero entries; no solve, so every cell can be checked
    by hand."""
    north = Region("north", 60.0, ccs_capacity=100.0, location=(0.0, 0.0))
    south = Region("south", 40.0, ccs_capacity=0.0, location=(0.0, 1.0))
    prices = GlobalParams(
        cp=np.array([1.0, 2.0]), ccsp=np.array([0.5, 0.5]), gt=np.array([0.01, 0.01]),
        cap=np.array([np.inf, 50.0]),
        sp=np.array([[2.0, 1.0], [1.0, 1.0]]),  # solar, wind
    )
    # (region, tech, year): north solar, north wind; south solar, south wind
    inst = ModelInstance(Horizon(2030, 2), [north, south], prices,
                         g=np.array([[[10.0, 10.0], [20.0, 20.0]], [[5.0, 5.0], [8.0, 8.0]]]),
                         rp=np.array([[[8.0, 6.0], [12.0, 12.0]], [[7.0, 7.0], [10.0, 9.0]]]),
                         h=np.array([[1.0, 2.0], [1.0, 2.0]]),
                         potential=np.array([[5.0, 3.0], [4.0, 2.0]]),
                         distances=np.array([[0.0, 100.0], [100.0, 0.0]]))
    re = np.zeros((2, 2, 2))  # (region, tech, year)
    re[0, 0, 0], re[0, 1, 1], re[1, 0, 1], re[1, 1, 0] = 1.0, 0.5, 2.0, 1.5
    traded = np.zeros((2, 2, 2))  # (buyer, seller, year)
    traded[1, 0, 1] = 4.0
    plan = DeploymentPlan(re_installed=re, ccs_local=np.array([[3.0, 0.0], [0.0, 0.0]]), ccs_traded=traded)
    return ScenarioResult(config=scenario_config(1), instance=inst, plan=plan,
                          emissions=compute_emissions(inst, plan), objective_value=0.0,
                          reduction_pct=0.0, solve_stats={})


def test_every_bundle_csv_on_two_regions_and_two_years(tmp_path):
    write_results(two_by_two_result(), tmp_path, scenario_id=1)
    expected = {
        # year-major, zero amounts left out
        "plan.csv": [
            "region,tech,year,amount,unit",
            "north,solar,2030,1,GW",
            "north,CCS,2030,3,t",
            "south,wind,2030,1.5,GW",
            "north,wind,2031,0.5,GW",
            "south,solar,2031,2,GW",
        ],
        # region-major
        "emissions.csv": [
            "region,year,tonnes",
            "north,2030,47",
            "north,2031,37",
            "south,2030,28",
            "south,2031,14",
        ],
        "trades.csv": [
            "year,from,to,tonnes",
            "2031,south,north,4",
        ],
        "cashflow.csv": [
            "region,year,invest_re,invest_ccs,transport_cost,storage_fee_paid,"
            "fit_revenue,ets_revenue,storage_fee_received,net",
            "north,2030,8,1.5,0,0,2,10,0,2.5",
            "north,2031,6,0,0,0,2,20,8,16",
            "south,2030,15,0,0,0,3,12,0,0",
            "south,2031,14,2,4,8,5,20,0,-3",
        ],
        "plotdata/fig13.csv": [
            "year,solar_t,wind_t,ccs_t",
            "2030,10,12,3",
            "2031,20,22,7",
        ],
        "plotdata/fig14.csv": [
            "year,invest_re,invest_ccs,transport_cost,storage_fee_paid,fit_revenue,ets_revenue,cumulative_net",
            "2030,23,1.5,0,0,5,22,2.5",
            "2031,20,2,4,8,7,40,15.5",
        ],
        "plotdata/deployment.csv": [
            "year,region,solar_gw,wind_gw,ccs_t",
            "2030,north,1,0,3",
            "2030,south,0,1.5,0",
            "2031,north,0,0.5,0",
            "2031,south,2,0,4",
        ],
    }
    for rel, lines in expected.items():
        assert (tmp_path / rel).read_bytes() == ("\n".join(lines) + "\n").encode(), rel


def test_shipped_toy_nation_matches_its_generator(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "gen_toy_nation.py"
    spec = importlib.util.spec_from_file_location("gen_toy_nation", script)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.OUT = tmp_path
    gen.main()
    shipped = toy_nation_path()
    names = sorted(p.relative_to(shipped) for p in shipped.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    for rel in names:
        assert (tmp_path / rel).read_bytes() == (shipped / rel).read_bytes(), rel
