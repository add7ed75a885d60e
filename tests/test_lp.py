import re

import numpy as np
import pytest

from ccsplan.lp import InvalidProgramError, LinearProgram, Row, check_solution, to_mps, violated_rows


def small_lp():
    # min -x0 - 2 x1  s.t.  x0 + x1 <= 4,  x1 <= 3,  0 <= x <= inf
    rows = [
        Row(idx=np.array([0, 1]), val=np.array([1.0, 1.0]), sense="<=", rhs=4.0, name="sum"),
        Row(idx=np.array([1]), val=np.array([1.0]), sense="<=", rhs=3.0, name="x1cap"),
    ]
    return LinearProgram(
        num_vars=2,
        objective=np.array([-1.0, -2.0]),
        rows=rows,
        lower=np.zeros(2),
        upper=np.full(2, np.inf),
        var_names=["a", "b"],
    )


def test_row_dot():
    r = Row(idx=np.array([0, 2]), val=np.array([2.0, -1.0]), sense="<=", rhs=0.0)
    assert r.dot(np.array([3.0, 100.0, 4.0])) == 2.0


def test_validate_rejects_bad_bounds():
    lp = small_lp()
    lp.lower = np.array([0.0, 5.0])
    lp.upper = np.array([np.inf, 4.0])
    with pytest.raises(ValueError, match="lower > upper"):
        lp.validate()


def test_validate_rejects_unknown_sense():
    lp = small_lp()
    lp.rows[0].sense = "<"
    with pytest.raises(ValueError, match="unknown sense"):
        lp.validate()


def test_validate_rejects_out_of_range_index():
    lp = small_lp()
    lp.rows[0].idx = np.array([0, 7])
    with pytest.raises(ValueError, match="index out of range"):
        lp.validate()


def test_matrix_and_rhs():
    lp = small_lp()
    A = lp.matrix().toarray()
    np.testing.assert_array_equal(A, [[1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_array_equal(lp.rhs(), [4.0, 3.0])


def test_check_solution_reports_violations():
    lp = small_lp()
    rep = check_solution(lp, np.array([2.0, 3.0]))
    np.testing.assert_allclose(rep.row_violation, [1.0, 0.0])
    assert rep.objective == -8.0
    assert rep.max_violation == 1.0
    assert violated_rows(lp, np.array([2.0, 3.0]), 1e-9) == ["sum"]


def test_check_solution_bound_violations():
    lp = small_lp()
    lp.upper = np.array([1.0, np.inf])
    rep = check_solution(lp, np.array([2.0, -0.5]))
    np.testing.assert_allclose(rep.bound_violation, [1.0, 0.5])


def test_check_solution_shape_guard():
    with pytest.raises(ValueError, match="expected"):
        check_solution(small_lp(), np.zeros(3))


def test_mps_render_contains_all_sections():
    lp = small_lp()
    lp.lower = np.array([0.0, 1.0])
    lp.upper = np.array([np.inf, 1.0])
    text = to_mps(lp, name="TINY")
    for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in text
    assert " L  sum" in text
    assert " FX BND  b  1" in text
    assert text == to_mps(lp, name="TINY")  # deterministic


def test_mps_sanitises_row_names():
    lp = small_lp()
    lp.rows[0].name = "cap[2018] %"
    text = to_mps(lp)
    assert "cap[2018]__" in text


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("objective", np.nan, "variable 'a': objective coefficient is not finite"),
        ("objective", np.inf, "variable 'a': objective coefficient is not finite"),
        ("upper", np.nan, "variable 'a': upper bound is NaN"),
        ("lower", np.nan, "variable 'a': lower bound is not finite"),
        ("val", np.nan, "row 'sum': coefficient or rhs is not finite"),
        ("rhs", -np.inf, "row 'sum': coefficient or rhs is not finite"),
    ],
)
def test_validate_rejects_non_finite_data(field, value, message):
    lp = small_lp()
    if field == "val":
        lp.rows[0].val[0] = value
    elif field == "rhs":
        lp.rows[0].rhs = value
    else:
        getattr(lp, field)[0] = value
    with pytest.raises(InvalidProgramError, match=re.escape(message)):
        lp.validate()
