import re

import numpy as np
import pytest

from ccsplan.domain import (
    DEFAULT_ALPHA,
    Region,
    ValidationError,
    great_circle_km,
    validate_instance,
)

from conftest import make_unit_instance


def test_great_circle_quarter_meridian():
    # equator to the same longitude at the pole-side 90 degrees east
    assert great_circle_km((0.0, 0.0), (0.0, 90.0)) == pytest.approx(10007.54, abs=0.01)


def test_great_circle_zero_for_same_point():
    assert great_circle_km((35.0, 139.0), (35.0, 139.0)) == 0.0


def _with_second_region(location):
    """The unit instance plus a storage region "S" at `location`."""
    inst = make_unit_instance()
    inst.regions.append(Region(id="S", baseline_emissions=0.0, ccs_capacity=1.0, location=location))
    tech = (inst.g, inst.rp, inst.h, inst.potential)
    inst.g, inst.rp, inst.h, inst.potential = (np.concatenate([a, a]) for a in tech)
    return inst


def test_distance_prefers_explicit_matrix():
    inst = _with_second_region((10.0, 10.0))
    inst.distances = np.array([[0.0, 42.0], [7.0, 0.0]])
    np.testing.assert_array_equal(inst.distance_km, [[0.0, 42.0], [7.0, 0.0]])
    # without a matrix, the great-circle distance between the two locations
    d = great_circle_km((0.0, 0.0), (10.0, 10.0))
    np.testing.assert_array_equal(_with_second_region((10.0, 10.0)).distance_km, [[0.0, d], [d, 0.0]])


def test_distance_requires_matrix_or_locations():
    inst = _with_second_region(None)
    with pytest.raises(ValueError, match=re.escape("regions ['S'] have no location")):
        inst.distance_km
    inst = _with_second_region(None)
    inst.distances = np.array([[0.0, 42.0], [42.0, 0.0]])
    assert inst.distance_km[0, 1] == 42.0


def test_validate_accepts_unit_instance():
    inst = validate_instance(make_unit_instance())
    assert inst.n == 1
    np.testing.assert_array_equal(inst.sellers, [0])
    np.testing.assert_array_equal(inst.globals.alpha, DEFAULT_ALPHA)


def test_validate_is_idempotent():
    once = validate_instance(make_unit_instance())
    twice = validate_instance(once)
    np.testing.assert_array_equal(twice.globals.alpha, once.globals.alpha)
    np.testing.assert_array_equal(twice.globals.cap, once.globals.cap)
    np.testing.assert_array_equal(twice.g, once.g)


def test_validate_reports_series_length():
    inst = make_unit_instance()
    inst.globals.cp = np.array([1.0, 1.0])
    with pytest.raises(ValidationError, match=r"globals.cp: series length 2 ≠ horizon 1"):
        validate_instance(inst)


def test_validate_reports_duplicate_region_ids():
    inst = make_unit_instance()
    inst.regions.append(inst.regions[0])
    with pytest.raises(ValidationError, match="duplicate region id"):
        validate_instance(inst)


@pytest.mark.parametrize("rid", ["a,b", 'a"b', "a\rb", "a\nb"])
def test_validate_rejects_an_id_that_breaks_a_csv_cell(rid):
    # bundles write region ids as bare CSV cells
    inst = make_unit_instance()
    inst.regions[0].id = rid
    with pytest.raises(ValidationError) as exc:
        validate_instance(inst)
    assert exc.value.errors == [f"regions[{rid!r}]: id contains a comma, double quote, CR or LF"]


def test_validate_collects_multiple_errors():
    inst = make_unit_instance()
    inst.globals.cp = np.array([-1.0])
    inst.regions[0].ccs_capacity = -5.0
    with pytest.raises(ValidationError) as exc:
        validate_instance(inst)
    assert len(exc.value.errors) == 2


def test_validate_alpha_only_checked_with_resilience():
    inst = make_unit_instance()
    inst.globals.alpha = np.array([0.31, 0.68])
    # fine: the shares are checked where the mix rule's rows are built (test_builder)
    validate_instance(inst)


@pytest.mark.parametrize(
    "owner, field, value, message",
    [
        pytest.param("instance", "g", np.zeros((1, 2, 2)), "g: shape (1, 2, 2) ≠ (1, 2, 1)", id="g"),
        pytest.param("instance", "h", np.zeros((1, 1)), "h: shape (1, 1) ≠ (1, 2)", id="h"),
        pytest.param("globals", "sp", np.zeros(1), "globals.sp: shape (1,) ≠ (2, 1)", id="sp"),
        pytest.param("globals", "sp", {"solar": [2.0], "wind": [0.0]}, "globals.sp: not an array of numbers",
                     id="sp-dict"),
        pytest.param("globals", "alpha", np.array([1.0]), "globals.alpha: shape (1,) ≠ (2,)", id="alpha"),
    ],
)
def test_validate_rejects_misshapen_tech_array(owner, field, value, message):
    inst = make_unit_instance()
    inst.globals.cp = np.array([-1.0])  # an entry error is not reported past a shape error
    setattr(inst if owner == "instance" else inst.globals, field, value)
    with pytest.raises(ValidationError) as exc:
        validate_instance(inst)
    assert exc.value.errors == [message]


@pytest.mark.parametrize(
    "owner, field, value, message",
    [
        pytest.param("globals", "cp", {"x": 1}, "globals.cp: not an array of numbers", id="cp-dict"),
        pytest.param("globals", "cap", "abc", "globals.cap: not an array of numbers", id="cap-text"),
        pytest.param("region", "baseline_emissions", "abc", "regions[R].baseline_emissions: not a number: 'abc'",
                     id="c0-text"),
        pytest.param("region", "ccs_capacity", None, "regions[R].ccs_capacity: not a number: None", id="ccs-none"),
    ],
)
def test_validate_names_a_field_that_is_not_a_number(owner, field, value, message):
    inst = make_unit_instance()
    setattr(inst.globals if owner == "globals" else inst.regions[0], field, value)
    with pytest.raises(ValidationError) as exc:
        validate_instance(inst)
    assert exc.value.errors == [message]


def test_validate_requires_location_without_matrix():
    inst = make_unit_instance()
    inst.regions[0].location = None
    with pytest.raises(ValidationError, match="location: missing"):
        validate_instance(inst)


def test_validate_rejects_bad_distance_matrix():
    inst = make_unit_instance()
    inst.distances = np.array([[1.0]])
    with pytest.raises(ValidationError, match="diagonal must be 0"):
        validate_instance(inst)
    inst.distances = np.array([[0.0, 1.0]])
    with pytest.raises(ValidationError, match="shape"):
        validate_instance(inst)


@pytest.mark.parametrize(
    "location, distances, message",
    [
        pytest.param(("north", 139.0), None, "regions[R].location: not an array of numbers", id="location-text"),
        pytest.param((35.0,), None, "regions[R].location: shape (1,) ≠ (2,)", id="location-one-element"),
        pytest.param((0.0, 0.0), [["near"]], "distances: not an array of numbers", id="distances-text"),
    ],
)
def test_validate_names_a_malformed_location_or_distance_matrix(location, distances, message):
    inst = make_unit_instance()
    inst.regions[0].location = location
    inst.distances = distances
    with pytest.raises(ValidationError) as exc:
        validate_instance(inst)
    assert exc.value.errors == [message]
