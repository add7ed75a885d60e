"""Property tests on mutated copies of toy-nation: a copy with any edit either
loads and validates or fails with a typed error, and `ccsplan validate` exits
0 or 1 on it; a copy with valid values only solves, or fails with a
`ScenarioError`, in every scenario and objective mode."""
import csv
import io
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ccsplan.builder import COST_ONLY, MAX_REDUCTION_LEX, scenario_config
from ccsplan.cli import main
from ccsplan.dataio import DataError, load_validated, toy_nation_path
from ccsplan.domain import ModelInstance, ValidationError
from ccsplan.engine import ScenarioError, ScenarioResult, run_scenario

TOY = toy_nation_path()
CSV_FILES = sorted(str(p.relative_to(TOY)) for p in TOY.rglob("*.csv"))
SERIES_FILES = [f for f in CSV_FILES if f.startswith("series/")]
BAD_CELLS = ["nan", "inf", "-inf", "-1", "-1e300", "1e400", "", "abc", "2018.5"]


def _json_paths(node, prefix=()):
    """Every key path into a JSON document, inner nodes included."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


GLOBALS = json.loads((TOY / "globals.json").read_text())
GLOBALS_PATHS = sorted(_json_paths(GLOBALS), key=repr)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**12, 10**12) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_csv(path, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(buf.getvalue())


def drop_column(file, col):
    """Drop a column of a CSV file, unless it is the last one."""

    def edit(data):
        rows = _read_csv(data / file)
        j = col % len(rows[0])
        if len(rows[0]) > 1:
            _write_csv(data / file, [r[:j] + r[j + 1 :] for r in rows])

    return edit


def set_cell(file, row, col, value):
    """Set a data cell (never the header) of a CSV file."""

    def edit(data):
        rows = _read_csv(data / file)
        r = 1 + row % (len(rows) - 1)
        rows[r][col % len(rows[r])] = value
        _write_csv(data / file, rows)

    return edit


def set_json(path, value):
    def edit(data):
        conf = json.loads((data / "globals.json").read_text())
        node = conf
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        (data / "globals.json").write_text(json.dumps(conf))

    return edit


def drop_series_row(file, row):
    def edit(data):
        rows = _read_csv(data / file)
        del rows[1 + row % (len(rows) - 1)]
        _write_csv(data / file, rows)

    return edit


idx = st.integers(0, 40)
mutations = st.one_of(
    st.builds(drop_column, st.sampled_from(CSV_FILES), idx),
    st.builds(set_cell, st.sampled_from(CSV_FILES), idx, idx, st.sampled_from(BAD_CELLS)),
    st.builds(set_json, st.sampled_from(GLOBALS_PATHS), json_values),
    st.builds(set_json, st.just(("units", "co2_mass")), st.text(max_size=4) | st.sampled_from(["kg", "lbs", "MT"])),
    # break a series year: a bad year cell, or a missing year
    st.builds(set_cell, st.sampled_from(SERIES_FILES), idx, st.just(0), st.sampled_from(BAD_CELLS + ["2017"])),
    st.builds(drop_series_row, st.sampled_from(SERIES_FILES), idx),
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.lists(mutations, min_size=1, max_size=3))
def test_mutated_dataset_fails_only_with_a_typed_error(edits):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "d"
        shutil.copytree(TOY, data)
        for edit in edits:
            edit(data)
        try:
            assert isinstance(load_validated(data), ModelInstance)
        except (DataError, ValidationError) as exc:
            assert exc.errors
        try:
            code = main(["validate", "--data", str(data)])
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1)


def _column(file, name):
    return _read_csv(TOY / file)[0].index(name)


# valid values only: the magnitudes a dataset may hold, tiny and huge included
valid_values = st.sampled_from([0.0, 1e-9, 1e-3] + [10.0**e for e in range(13)]) | st.floats(0.0, 1e8)
valid_cells = valid_values.map(repr)
valid_edits = st.one_of(
    st.builds(set_cell, st.just("regions.csv"), idx,
              st.sampled_from([_column("regions.csv", c) for c in ("C0_tonnes", "ccs_capacity_tonnes")]), valid_cells),
    st.builds(set_cell, st.just("tech.csv"), idx,
              st.sampled_from([_column("tech.csv", c) for c in ("potential_gw", "h_gwh_per_gw")]), valid_cells),
    st.builds(set_cell, st.sampled_from(SERIES_FILES), idx, st.just(_column(SERIES_FILES[0], "value")), valid_cells),
    st.builds(set_json, st.sampled_from([("cp",), ("ccsp",), ("gt",)]), valid_values.map(lambda v: {"constant": v})),
    st.builds(set_json, st.tuples(st.just("cap"), st.integers(0, len(GLOBALS["cap"]) - 1)), st.none() | valid_values),
)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(valid_edits, min_size=1, max_size=3), st.integers(1, 4),
       st.sampled_from([COST_ONLY, MAX_REDUCTION_LEX]))
def test_valid_dataset_solves_or_fails_with_a_scenario_error(edits, scenario, mode):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "d"
        shutil.copytree(TOY, data)
        for edit in edits:
            edit(data)
        instance = load_validated(data)
    try:
        assert isinstance(run_scenario(instance, scenario_config(scenario, objective_mode=mode)), ScenarioResult)
    except ScenarioError as exc:
        assert str(exc)
