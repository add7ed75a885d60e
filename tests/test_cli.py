import argparse
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ccsplan import engine
from ccsplan.cli import build_parser, main
from ccsplan.dataio import DataError, load_validated, toy_nation_path
from ccsplan.domain import ValidationError

from test_dataio import write_mini_dataset

DATA = str(toy_nation_path())


def test_validate_ok(capsys):
    assert main(["validate", "--data", DATA]) == 0
    assert capsys.readouterr().out == "10 regions (3 storage-capable), horizon 2018-2050, 46 series\n"


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


def _toy_with_column(data, name, column, value):
    """A copy of toy-nation at `data` with `column` of every row of the CSV
    `name` set to `value`."""
    shutil.copytree(DATA, data)
    with open(data / name, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(data / name, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**row, column: value} for row in rows)
    return data


def test_run_all_without_storage_names_the_blocking_mix_row(tmp_path, capsys):
    data = _toy_with_column(tmp_path / "nostorage", "regions.csv", "ccs_capacity_tonnes", "0")
    code = main(["run-all", "--data", str(data), "--objective", "cost", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "mix[solar][2018]" in err and "<none found>" not in err


SWEEP_2 = ["sweep", "--scenario", "1", "--param", "carbon-price", "--from", "10000", "--to", "20000", "--steps", "2"]


@pytest.mark.parametrize(
    "argv, failed",
    [
        (["run-all", "--objective", "cost"], [f"scenario {sid}:" for sid in (1, 2, 3, 4)]),
        (["run-all", "--objective", "max-reduction"], [f"scenario {sid}:" for sid in (1, 2, 3, 4)]),
        (SWEEP_2, ["point 10000:", "point 20000:"]),
    ],
    ids=["run-all-cost", "run-all-lex", "sweep"],
)
def test_overflowing_optimum_fails_each_scenario(tmp_path, capsys, argv, failed):
    data = _toy_with_column(tmp_path / "overflow", "tech.csv", "potential_gw", "1e300")
    out = tmp_path / "o"
    assert main([*argv, "--data", str(data), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert [line.split(" objective is not finite:")[0] for line in lines] == failed
    for text in (captured.out, captured.err):
        assert "RuntimeWarning" not in text and "inf%" not in text and "nan" not in text
    if argv[0] == "run-all":
        assert not out.exists()


def _set_first_row(path, column, value, repeat=False):
    """Set `column` of the first data row of the CSV at `path` to `value`;
    with `repeat`, in a copy of that row inserted after it (line 3)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if repeat:
        rows.insert(1, dict(rows[0]))
    rows[1 if repeat else 0][column] = value
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


def _edit_csv(name, column, value, repeat=False):
    """An edit of a dataset directory that sets `column` of the first data
    row of `name` to `value` (see `_set_first_row`)."""
    return lambda data: _set_first_row(data / name, column, value, repeat)


def _with_distances(edit):
    """`edit` applied after writing a distances.csv of 100 km for every pair."""

    def both(data):
        with open(data / "regions.csv", newline="") as fh:
            ids = [row["id"] for row in csv.DictReader(fh)]
        lines = ["from_id,to_id,km", *(f"{a},{b},100" for a in ids for b in ids if a != b)]
        (data / "distances.csv").write_text("\n".join(lines) + "\n")
        edit(data)

    return both


def _rename_column(name, old, new):
    """An edit of a dataset directory that renames column `old` of `name`."""

    def edit(data):
        header, *rest = (data / name).read_text().split("\n", 1)
        (data / name).write_text("\n".join([",".join(new if c == old else c for c in header.split(",")), *rest]))

    return edit


def _zero_baselines(data):
    with open(data / "regions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(data / "regions.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**row, "C0_tonnes": "0"} for row in rows)


def _short_tech_row(data):
    lines = (data / "tech.csv").read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]  # drop the g_series field
    (data / "tech.csv").write_text("\n".join(lines) + "\n")


def _append_byte_ff(name):
    """An edit of a dataset directory that appends the byte 0xff, which
    starts no UTF-8 character, to `name`."""
    return lambda data: (data / name).write_bytes((data / name).read_bytes() + b"\xff")


def _comma_in_an_id(data):
    # a quoted "aster,north" loads, but would shift every bundle row it names by a field
    for name in ("regions.csv", "tech.csv"):
        path = data / name
        path.write_text(re.sub(r"(?m)^aster,", '"aster,north",', path.read_text()))


def _no_regions(data):
    for name in ("regions.csv", "tech.csv"):  # header lines only
        header = (data / name).read_text().splitlines()[0]
        (data / name).write_text(header + "\n")


@pytest.mark.parametrize(
    "edit, field, error",
    [
        pytest.param(_edit_globals(["horizon", "start_year"], "abc"), "horizon.start_year", DataError, id="start-year-text"),
        pytest.param(_edit_globals(["horizon", "num_years"], None), "horizon.num_years", DataError, id="num-years-null"),
        pytest.param(_edit_globals(["horizon", "num_years"], -3), "horizon.num_years", DataError, id="num-years-negative"),
        pytest.param(_edit_globals(["horizon"], [2018, 33]), "globals.json: horizon", DataError, id="horizon-list"),
        pytest.param(_edit_globals(["units"], "t"), "globals.json: units", DataError, id="units-text"),
        pytest.param(_edit_globals(["sp"], [1.0]), "globals.json: sp", DataError, id="sp-list"),
        pytest.param(_edit_globals([], []), "globals.json: expected a JSON object", DataError, id="globals-list"),
        pytest.param(_edit_globals(["alpha", "solar"], "x"), "alpha.solar", DataError, id="alpha-text"),
        pytest.param(_edit_globals(["gt"], {"constant": "x"}), "gt.constant", DataError, id="gt-constant-text"),
        pytest.param(_edit_globals(["units", "co2_mass"], ["t"]), "units.co2_mass", DataError, id="mass-unit-list"),
        pytest.param(_edit_globals(["horizon", "num_years"], 33.9), "horizon.num_years", DataError, id="num-years-fraction"),
        pytest.param(_edit_globals(["horizon", "start_year"], True), "horizon.start_year", DataError, id="start-year-bool"),
        pytest.param(_short_tech_row, "tech.csv:2", DataError, id="short-tech-row"),
        pytest.param(_edit_csv("regions.csv", "C0_tonnes", "1e7t"), "regions.csv:2: C0_tonnes", DataError, id="c0-text"),
        pytest.param(_edit_csv("tech.csv", "potential_gw", "four"), "tech.csv:2: potential_gw", DataError, id="potential-text"),
        pytest.param(_with_distances(_edit_csv("distances.csv", "km", "far")), "distances.csv:2: km", DataError,
                     id="km-text"),
        pytest.param(_edit_csv("tech.csv", "potential_gw", "999", repeat=True),
                     "tech.csv:3: repeated row for aster solar", DataError, id="tech-row-repeated"),
        pytest.param(_with_distances(_edit_csv("distances.csv", "km", "50", repeat=True)),
                     "distances.csv:3: repeated pair aster -> birch", DataError, id="distance-pair-repeated"),
        pytest.param(_edit_csv("series/g_solar_aster.csv", "value", "1", repeat=True),
                     "series/g_solar_aster.csv:3: repeated year 2018", DataError, id="series-year-repeated"),
        pytest.param(_with_distances(_edit_csv("distances.csv", "km", "nan")), "distances[aster][birch]: nan km",
                     ValidationError, id="km-nan"),
        pytest.param(_rename_column("series/g_solar_aster.csv", "year", "yr"),
                     "series/g_solar_aster.csv: missing columns ['year']", DataError, id="series-year-column-renamed"),
        pytest.param(_edit_csv("regions.csv", "C0_tonnes", "1", repeat=True),
                     "regions.csv:3: repeated region id aster", DataError, id="region-id-repeated"),
        pytest.param(_no_regions, "regions: no region given", ValidationError, id="no-regions"),
        pytest.param(_comma_in_an_id, "regions['aster,north']: id contains a comma", ValidationError,
                     id="comma-in-region-id"),
        pytest.param(_append_byte_ff("regions.csv"), "regions.csv: not readable as UTF-8 CSV", DataError,
                     id="regions-not-utf8"),
        pytest.param(_append_byte_ff("series/g_solar_aster.csv"), "series/g_solar_aster.csv: not readable as UTF-8 CSV",
                     DataError, id="series-not-utf8"),
        pytest.param(_edit_csv("tech.csv", "potential_gw", "1" * 200_000), "tech.csv: not readable as UTF-8 CSV",
                     DataError, id="cell-over-csv-field-limit"),
        pytest.param(_append_byte_ff("globals.json"), "globals.json: not UTF-8 text", DataError, id="globals-not-utf8"),
        pytest.param(_zero_baselines, "regions: total baseline emissions is 0", ValidationError, id="zero-baselines"),
    ],
)
def test_malformed_dataset_is_data_error(tmp_path, capsys, edit, field, error):
    data = tmp_path / "d"
    shutil.copytree(DATA, data)
    edit(data)
    with pytest.raises(error, match=re.escape(field)):
        load_validated(data)
    for argv in (["validate"], ["solve", "--scenario", "1", "--out", str(tmp_path / "out")]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--data", str(data)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err


def test_unreadable_regions_table_is_one_error(tmp_path, capsys):
    # without a region table the tech rows are not checked against it, so
    # the 20 rows of tech.csv add no "unknown region_id" errors
    data = tmp_path / "d"
    shutil.copytree(DATA, data)
    (data / "regions.csv").write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--data", str(data)])
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: regions.csv: missing columns ['id', 'C0_tonnes', 'ccs_capacity_tonnes']"
    ]


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
    # the named error only: numpy's overflow warning would fail the suite
    code = main(["solve", "--data", str(tmp_path), "--scenario", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "objective coefficient is not finite" in capsys.readouterr().err


SOLVING_COMMANDS = {
    "solve": ["solve", "--scenario", "1"],
    "run-all": ["run-all"],
    "sweep": ["sweep", "--scenario", "1", "--param", "carbon-price", "--from", "0", "--to", "1", "--steps", "2"],
}


def _forbid_solves(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite an unusable --out")

    for name in ("run_scenario", "run_all", "sweep"):
        monkeypatch.setattr(engine, name, no_solve)


@pytest.mark.parametrize("command", list(SOLVING_COMMANDS.values()))
@pytest.mark.parametrize("under", ["", "sub"])
def test_out_that_is_a_file_fails_before_any_solve(tmp_path, capsys, monkeypatch, command, under):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = str(afile / under) if under else str(afile)
    _forbid_solves(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--data", DATA, "--out", out])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: --out {out}: {afile} is not a directory\n"
    assert afile.read_text() == "kept\n"
    if command == ["run-all"]:  # a scenario's bundle directory under a usable --out
        out = tmp_path / "out"
        out.mkdir()
        (out / "s2").write_text("kept\n")
        with pytest.raises(SystemExit) as exc:
            main([*command, "--data", DATA, "--out", str(out)])
        assert exc.value.code == 1
        assert capsys.readouterr().err == f"error: --out {out}: {out / 's2'} is not a directory\n"
        assert sorted(p.name for p in out.iterdir()) == ["s2"]


def _mkdir(path):
    path.mkdir(parents=True)


def _touch(path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("kept\n")


@pytest.mark.parametrize("argv, blocked, make", [
    pytest.param(["solve", "--data", DATA, "--scenario", "1", "--objective", "cost", "--out", "{d}"],
                 "plotdata", _touch, id="solve-plotdata-file"),
    pytest.param(["solve", "--data", DATA, "--scenario", "1", "--objective", "cost", "--out", "{d}"],
                 "summary.json", _mkdir, id="solve-summary-dir"),
    pytest.param(["run-all", "--data", DATA, "--objective", "cost", "--out", "{d}"],
                 "s2/plotdata", _touch, id="run-all-s2-plotdata-file"),
    pytest.param(["sweep", "--data", DATA, "--scenario", "1", "--param", "carbon-price",
                  "--from", "10000", "--to", "10000", "--steps", "1", "--out", "{d}"],
                 "sweep.csv", _mkdir, id="sweep-csv-dir"),
    pytest.param(["report", "--results", "{d}"], "summary.json", _mkdir, id="report-summary-dir"),
])
def test_blocked_bundle_file_is_one_error_line(tmp_path, capsys, monkeypatch, argv, blocked, make):
    _forbid_solves(monkeypatch)
    make(tmp_path / "b" / blocked)
    try:
        code = main([a.replace("{d}", str(tmp_path / "b")) for a in argv])
    except SystemExit as exc:  # the solving commands stop before loading the dataset
        code = exc.code
    assert code == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path / "b" / blocked) in err
    assert out == ""
    assert not (tmp_path / "b" / "s1").exists()


def test_solving_commands_share_their_arguments():
    # each subcommand owns its arguments, so one command's defaults leave the others' alone
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    shared = ("--data", "--objective", "--ccs-nonneg-emissions", "--out")
    helps = [
        {opt: (a.help, a.choices) for a in commands[name]._actions for opt in a.option_strings if opt in shared}
        for name in SOLVING_COMMANDS
    ]
    assert sorted(helps[0]) == sorted(shared) and helps[0] == helps[1] == helps[2]
    assert commands["solve"]._option_string_actions["--scenario"].help == \
        commands["sweep"]._option_string_actions["--scenario"].help
    objectives = {name: parser.parse_args([*argv, "--data", DATA, "--out", "o"]).objective
                  for name, argv in SOLVING_COMMANDS.items()}
    assert objectives == {"solve": "max-reduction", "run-all": "max-reduction", "sweep": "cost"}


def test_run_all_writes_four_bundles(tmp_path, capsys):
    code = main(["run-all", "--data", DATA, "--objective", "cost", "--out", str(tmp_path)])
    assert code == 0
    for sid in (1, 2, 3, 4):
        assert (tmp_path / f"s{sid}" / "summary.json").exists()
    assert capsys.readouterr().out.count("optimal") == 4


def test_solve_and_run_all_bundles_record_the_emission_floor(tmp_path):
    base = ["--data", DATA, "--objective", "cost"]
    assert main(["solve", *base, "--scenario", "1", "--out", str(tmp_path / "off")]) == 0
    assert json.loads((tmp_path / "off" / "summary.json").read_text())["nonneg_emissions"] is False
    assert main(["run-all", *base, "--ccs-nonneg-emissions", "--out", str(tmp_path / "on")]) == 0
    for sid in (1, 2, 3, 4):
        assert json.loads((tmp_path / "on" / f"s{sid}" / "summary.json").read_text())["nonneg_emissions"] is True


def test_sweep_usage_errors(capsys, tmp_path):
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
    capsys.readouterr()
    for lo, hi in (("nan", "1"), ("0", "inf")):
        with pytest.raises(SystemExit) as exc:
            main(base + ["--from", lo, "--to", hi, "--steps", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err


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
    assert summary["nonneg_emissions"] is False
    assert len(summary["points"]) == 2


def test_sweep_reaches_the_trading_regime(tmp_path):
    # without the emission floor no scenario trades CCS on toy-nation
    code = main([
        "sweep", "--data", DATA, "--scenario", "2", "--param", "transport-cost",
        "--from", "0", "--to", "60", "--steps", "3", "--ccs-nonneg-emissions",
        "--out", str(tmp_path),
    ])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["nonneg_emissions"] is True
    points = summary["points"]
    assert [p["any_trading"] for p in points] == [True, True, True]
    objectives = [p["objective"] for p in points]
    assert objectives[0] < objectives[1] < objectives[2]


def test_report_roundtrip(tmp_path, capsys):
    main(["solve", "--data", DATA, "--scenario", "2", "--objective", "cost",
          "--out", str(tmp_path / "b")])
    capsys.readouterr()
    assert main(["report", "--results", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "scenario 2: optimal" in out
    assert "ccs trading: no" in out


def _run_cli(args, utf8_mode):
    """`python3 -m ccsplan.cli ARGS` in the ASCII C locale, with Python's UTF-8
    mode on or off; the completed process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="1" if utf8_mode else "0",
               PYTHONPATH=str(Path(engine.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "ccsplan.cli", *args], env=env, capture_output=True, timeout=300)


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_bundles_do_not_depend_on_the_locale(tmp_path):
    # a region id outside ASCII lands in every region column of the bundles
    data = tmp_path / "data"
    shutil.copytree(DATA, data)
    for name in ("regions.csv", "tech.csv"):  # the first column: id, region_id
        path = data / name
        path.write_text(re.sub("^aster,", "Tōkyō,", path.read_text(encoding="utf-8"), flags=re.M), encoding="utf-8")
    commands = {"solve": ["solve", "--scenario", "1"], "run-all": ["run-all"]}
    for name, command in commands.items():
        bundles = {}
        for utf8_mode in (False, True):
            out = tmp_path / f"{name}-{int(utf8_mode)}"
            proc = _run_cli([*command, "--objective", "cost", "--data", str(data), "--out", str(out)], utf8_mode)
            assert proc.returncode == 0, proc.stderr.decode()
            bundles[utf8_mode] = _files(out)
        assert "Tōkyō,solar,2018".encode() in bundles[False][Path("plan.csv" if name == "solve" else "s1/plan.csv")]
        assert bundles[False] == bundles[True]
    proc = _run_cli(["report", "--results", str(tmp_path / "solve-0")], utf8_mode=False)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.startswith(b"scenario 1: optimal")
    validated = [_run_cli(["validate", "--data", str(data)], utf8_mode) for utf8_mode in (False, True)]
    for proc in validated:
        assert proc.returncode == 0, proc.stderr.decode()
    assert validated[0].stdout == validated[1].stdout
    assert validated[0].stdout == b"10 regions (3 storage-capable), horizon 2018-2050, 46 series\n"


def test_report_missing_summary(tmp_path, capsys):
    assert main(["report", "--results", str(tmp_path)]) == 1
    assert "no summary.json" in capsys.readouterr().err


def test_report_rejects_a_sweep_bundle_and_bad_json(tmp_path, capsys):
    out = tmp_path / "sweep"
    main(["sweep", "--data", DATA, "--scenario", "1", "--param", "carbon-price",
          "--from", "10000", "--to", "10000", "--steps", "1", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--results", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'summary.json'}: not the summary of a solved scenario (KeyError: 'payback_year')\n"
    )
    solved = tmp_path / "solved"
    main(["solve", "--data", DATA, "--scenario", "1", "--objective", "cost", "--out", str(solved)])
    capsys.readouterr()
    summary = json.loads((solved / "summary.json").read_text())
    for shares, error in (({"solar": 1.0}, "KeyError: 'wind'"),
                          ({"solar": "x", "wind": 1.0, "ccs": 1.0}, "ValueError: ")):
        (solved / "summary.json").write_text(json.dumps({**summary, "shares_pct": shares}))
        assert main(["report", "--results", str(solved)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"error: {solved / 'summary.json'}: not the summary of a solved scenario ({error}")
        assert err.count("\n") == 1
    (out / "summary.json").write_text("{")
    assert main(["report", "--results", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {out / 'summary.json'}: not the summary of a solved scenario (JSONDecodeError: "
    )
