import re

import numpy as np
import pytest

from ccsplan.domain import (
    DEFAULT_ALPHA,
    TechKind,
    ValidationError,
    great_circle_km,
    validate_instance,
    zero_tech,
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
    inst.regions.append(
        type(inst.regions[0])(
            id="S", baseline_emissions=0.0, tech=dict(inst.regions[0].tech),
            ccs_capacity=1.0, location=location,
        )
    )
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
    assert inst.sellers == (0,)
    assert inst.globals.alpha == DEFAULT_ALPHA


def test_validate_is_idempotent():
    once = validate_instance(make_unit_instance())
    twice = validate_instance(once)
    assert twice.globals.alpha == once.globals.alpha
    np.testing.assert_array_equal(twice.globals.cap, once.globals.cap)
    np.testing.assert_array_equal(
        twice.regions[0].tech[TechKind.SOLAR].g, once.regions[0].tech[TechKind.SOLAR].g
    )


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


def test_validate_collects_multiple_errors():
    inst = make_unit_instance()
    inst.globals.cp = np.array([-1.0])
    inst.regions[0].ccs_capacity = -5.0
    with pytest.raises(ValidationError) as exc:
        validate_instance(inst)
    assert len(exc.value.errors) == 2


def test_validate_alpha_only_checked_with_resilience():
    inst = make_unit_instance()
    inst.globals.alpha = {TechKind.SOLAR: 0.31, TechKind.WIND: 0.68}
    # fine: the shares are checked where the mix rule's rows are built (test_builder)
    validate_instance(inst)


def test_validate_fills_missing_tech_with_zero_placeholder():
    inst = make_unit_instance()
    del inst.regions[0].tech[TechKind.WIND]
    out = validate_instance(inst)
    wind = out.regions[0].tech[TechKind.WIND]
    assert wind.potential == 0.0
    np.testing.assert_array_equal(wind.g, zero_tech(1).g)


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
