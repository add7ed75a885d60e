import csv
import json
import re
import shutil

import pytest

from ccsplan.cli import main
from ccsplan.dataio import DataError, load_validated, toy_nation_path
from ccsplan.domain import ValidationError

from test_dataio import write_mini_dataset

DATA = str(toy_nation_path())


def test_validate_ok(capsys):
    assert main(["validate", "--data", DATA]) == 0
    out = capsys.readouterr().out
    assert "10 regions (3 storage-capable)" in out
    assert "2018–2050" in out


def test_validate_reports_errors(tmp_path, capsys):
    write_mini_dataset(tmp_path, drop_year=2019)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--data", str(tmp_path)])
    assert exc.value.code == 1
    assert "year 2019 missing" in capsys.readouterr().err


def test_missing_data_flag_is_usage_error(monkeypatch):
    monkeypatch.delenv("CCSPLAN_DATA", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2


def test_data_env_default(monkeypatch):
    monkeypatch.setenv("CCSPLAN_DATA", DATA)
    assert main(["validate"]) == 0


def test_unknown_scenario_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--data", DATA, "--scenario", "5", "--out", "/tmp/x"])
    assert exc.value.code == 2


def test_solve_writes_bundle(tmp_path, capsys):
    code = main([
        "solve", "--data", DATA, "--scenario", "1", "--objective", "cost",
        "--out", str(tmp_path / "b"),
    ])
    assert code == 0
    assert (tmp_path / "b" / "summary.json").exists()
    out = capsys.readouterr().out
    assert "scenario 1: optimal" in out
    assert "reduction 60.00%" in out


def test_solve_infeasible_exits_one(tmp_path, capsys):
    (tmp_path / "d").mkdir()
    write_mini_dataset(tmp_path / "d")
    conf = json.loads((tmp_path / "d" / "globals.json").read_text())
    conf["cap"] = [1.0, 1.0]  # a 99 t first-year offset exceeds every lever combined
    (tmp_path / "d" / "globals.json").write_text(json.dumps(conf))
    code = main(["solve", "--data", str(tmp_path / "d"), "--scenario", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "infeasible" in capsys.readouterr().err


def _set_first_row(path, column, value):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0][column] = value
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize(
    "file, column, value, field",
    [
        ("regions.csv", "C0_tonnes", "nan", "regions[north].baseline_emissions"),
        ("regions.csv", "ccs_capacity_tonnes", "inf", "regions[north].ccs_capacity"),
        ("regions.csv", "lat", "nan", "regions[north].location.lat"),
        ("regions.csv", "lon", "200", "regions[north].location.lon"),
        ("tech.csv", "h_gwh_per_gw", "nan", "regions[north].tech[solar].h"),
        ("tech.csv", "potential_gw", "inf", "regions[north].tech[solar].potential"),
    ],
)
def test_non_finite_input_is_validation_error(tmp_path, capsys, file, column, value, field):
    write_mini_dataset(tmp_path)
    _set_first_row(tmp_path / file, column, value)
    with pytest.raises(ValidationError, match=re.escape(field)):
        load_validated(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--data", str(tmp_path)])
    assert exc.value.code == 1
    assert field in capsys.readouterr().err


def _edit_globals(path, value):
    """An edit of a dataset directory that sets the key path `path` of
    globals.json to `value` (an empty path replaces the whole document)."""

    def edit(data):
        conf = json.loads((data / "globals.json").read_text())
        node = conf
        for key in path[:-1]:
            node = node[key]
        if path:
            node[path[-1]] = value
        else:
            conf = value
        (data / "globals.json").write_text(json.dumps(conf))

    return edit


def _edit_csv(name, column, value):
    """An edit of a dataset directory that sets `column` of the first data
    row of `name` to `value`."""
    return lambda data: _set_first_row(data / name, column, value)


def _distances_with_bad_km(data):
    with open(data / "regions.csv", newline="") as fh:
        ids = [row["id"] for row in csv.DictReader(fh)]
    lines = ["from_id,to_id,km", *(f"{a},{b},100" for a in ids for b in ids if a != b)]
    (data / "distances.csv").write_text("\n".join(lines) + "\n")
    _set_first_row(data / "distances.csv", "km", "far")


def _short_tech_row(data):
    lines = (data / "tech.csv").read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]  # drop the g_series field
    (data / "tech.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "edit, field",
    [
        pytest.param(_edit_globals(["horizon", "start_year"], "abc"), "horizon.start_year", id="start-year-text"),
        pytest.param(_edit_globals(["horizon", "num_years"], None), "horizon.num_years", id="num-years-null"),
        pytest.param(_edit_globals(["horizon", "num_years"], -3), "horizon.num_years", id="num-years-negative"),
        pytest.param(_edit_globals(["horizon"], [2018, 33]), "globals.json: horizon", id="horizon-list"),
        pytest.param(_edit_globals(["units"], "t"), "globals.json: units", id="units-text"),
        pytest.param(_edit_globals(["sp"], [1.0]), "globals.json: sp", id="sp-list"),
        pytest.param(_edit_globals([], []), "globals.json: expected a JSON object", id="globals-list"),
        pytest.param(_edit_globals(["alpha", "solar"], "x"), "alpha.solar", id="alpha-text"),
        pytest.param(_edit_globals(["gt"], {"constant": "x"}), "gt.constant", id="gt-constant-text"),
        pytest.param(_edit_globals(["units", "co2_mass"], ["t"]), "units.co2_mass", id="mass-unit-list"),
        pytest.param(_edit_globals(["horizon", "num_years"], 33.9), "horizon.num_years", id="num-years-fraction"),
        pytest.param(_edit_globals(["horizon", "start_year"], True), "horizon.start_year", id="start-year-bool"),
        pytest.param(_short_tech_row, "tech.csv:2", id="short-tech-row"),
        pytest.param(_edit_csv("regions.csv", "C0_tonnes", "1e7t"), "regions.csv:2: C0_tonnes", id="c0-text"),
        pytest.param(_edit_csv("tech.csv", "potential_gw", "four"), "tech.csv:2: potential_gw", id="potential-text"),
        pytest.param(_distances_with_bad_km, "distances.csv:2: km", id="km-text"),
    ],
)
def test_malformed_dataset_is_data_error(tmp_path, capsys, edit, field):
    data = tmp_path / "d"
    shutil.copytree(DATA, data)
    edit(data)
    with pytest.raises(DataError, match=re.escape(field)):
        load_validated(data)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--data", str(data)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def _bad_alpha_dataset(root):
    root.mkdir()
    write_mini_dataset(root)
    conf = json.loads((root / "globals.json").read_text())
    conf["alpha"] = {"solar": 0.31, "wind": 0.68}
    (root / "globals.json").write_text(json.dumps(conf))
    return str(root)


def test_bad_alpha_fails_only_mix_rule_scenarios(tmp_path, capsys):
    data = _bad_alpha_dataset(tmp_path / "d")
    code = main(["solve", "--data", data, "--scenario", "2", "--out", str(tmp_path / "one")])
    assert code == 1
    assert "scenario 2: globals.alpha: alpha sums to 0.99" in capsys.readouterr().err
    code = main(["run-all", "--data", data, "--objective", "cost", "--out", str(tmp_path / "all")])
    assert code == 1
    for sid in (1, 3):
        assert (tmp_path / "all" / f"s{sid}" / "summary.json").exists()
    for sid in (2, 4):
        assert not (tmp_path / "all" / f"s{sid}").exists()
    assert capsys.readouterr().out.count("optimal") == 2


def test_bad_alpha_is_recorded_per_sweep_point(tmp_path, capsys):
    data = _bad_alpha_dataset(tmp_path / "d")
    code = main([
        "sweep", "--data", data, "--scenario", "2", "--param", "carbon-price",
        "--from", "1", "--to", "2", "--steps", "2", "--out", str(tmp_path / "o"),
    ])
    assert code == 1  # no point succeeded
    assert (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:] == ["1,error,error,error", "2,error,error,error"]
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert all(p["error"] == "globals.alpha: alpha sums to 0.99" for p in summary["points"])
    assert capsys.readouterr().err.count("alpha sums to 0.99") == 2


def test_overflowing_cost_is_solve_failure(tmp_path, capsys):
    # every input is finite, but carbon price times conversion ratio overflows
    write_mini_dataset(tmp_path)
    conf = json.loads((tmp_path / "globals.json").read_text())
    conf["cp"] = {"constant": 1e308}
    (tmp_path / "globals.json").write_text(json.dumps(conf))
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main(["solve", "--data", str(tmp_path), "--scenario", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "objective coefficient is not finite" in capsys.readouterr().err


def test_run_all_writes_four_bundles(tmp_path, capsys):
    code = main(["run-all", "--data", DATA, "--objective", "cost", "--out", str(tmp_path)])
    assert code == 0
    for sid in (1, 2, 3, 4):
        assert (tmp_path / f"s{sid}" / "summary.json").exists()
    assert capsys.readouterr().out.count("optimal") == 4


def test_sweep_usage_errors():
    base = ["sweep", "--data", DATA, "--scenario", "1", "--param", "carbon-price"]
    with pytest.raises(SystemExit) as exc:
        main(base + ["--from", "10", "--to", "5", "--steps", "2", "--out", "/tmp/x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(base + ["--from", "1", "--to", "5", "--steps", "0", "--out", "/tmp/x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # sweep points always run one after another
        main(base + ["--from", "1", "--to", "5", "--steps", "2", "--jobs", "1", "--out", "/tmp/x"])
    assert exc.value.code == 2


def test_sweep_writes_summary(tmp_path):
    code = main([
        "sweep", "--data", DATA, "--scenario", "1", "--param", "carbon-price",
        "--from", "10000", "--to", "20000", "--steps", "2",
        "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param_value,reduction_pct,objective,any_trading"
    assert len(lines) == 3
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["parameter"] == "carbon_price"
    assert summary["monotone"] is True
    assert len(summary["points"]) == 2


def test_report_roundtrip(tmp_path, capsys):
    main(["solve", "--data", DATA, "--scenario", "2", "--objective", "cost",
          "--out", str(tmp_path / "b")])
    capsys.readouterr()
    assert main(["report", "--results", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "scenario 2: optimal" in out
    assert "ccs trading: no" in out


def test_report_missing_summary(tmp_path, capsys):
    assert main(["report", "--results", str(tmp_path)]) == 1
    assert "no summary.json" in capsys.readouterr().err
