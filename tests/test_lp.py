import re

import numpy as np
import pytest

from ccsplan.lp import InvalidProgramError, LinearProgram, Row, check_solution


def small_lp(**first_row):
    # min -x0 - 2 x1  s.t.  x0 + x1 <= 4,  x1 <= 3,  0 <= x <= inf;
    # first_row replaces fields of the first row
    row = dict(idx=np.array([0, 1]), val=np.array([1.0, 1.0]), sense="<=", rhs=4.0, name="sum")
    row.update(first_row)
    rows = [
        Row(**row),
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


def test_validate_rejects_bad_bounds():
    lp = small_lp()
    lp.lower = np.array([0.0, 5.0])
    lp.upper = np.array([np.inf, 4.0])
    with pytest.raises(ValueError, match="lower > upper"):
        lp.validate()


def test_validate_rejects_unknown_sense():
    with pytest.raises(ValueError, match="unknown sense"):
        small_lp(sense="<").validate()


def test_validate_rejects_out_of_range_index():
    with pytest.raises(ValueError, match="index out of range"):
        small_lp(idx=np.array([0, 7])).validate()


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


def test_check_solution_bound_violations():
    lp = small_lp()
    lp.upper = np.array([1.0, np.inf])
    rep = check_solution(lp, np.array([2.0, -0.5]))
    np.testing.assert_allclose(rep.bound_violation, [1.0, 0.5])


def test_check_solution_shape_guard():
    with pytest.raises(ValueError, match="expected"):
        check_solution(small_lp(), np.zeros(3))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("objective", np.nan, "variable 'a': objective coefficient is not finite"),
        ("objective", np.inf, "variable 'a': objective coefficient is not finite"),
        ("upper", np.nan, "variable 'a': upper bound is NaN"),
        ("lower", np.nan, "variable 'a': lower bound is not finite"),
        ("val", np.nan, "row 'sum': coefficient or rhs is not finite"),
        ("rhs", -np.inf, "row 'sum': coefficient or rhs is not finite"),
        # too few names: the NaN objective at 1 would have none to report
        ("var_names", ["a"], "var_names has 1 names, expected num_vars = 2"),
    ],
)
def test_validate_rejects_non_finite_data(field, value, message):
    if field == "val":
        lp = small_lp(val=np.array([value, 1.0]))
    elif field == "rhs":
        lp = small_lp(rhs=value)
    elif field == "var_names":
        lp = small_lp()
        lp.var_names, lp.objective[1] = value, np.nan
    else:
        lp = small_lp()
        getattr(lp, field)[0] = value
    with pytest.raises(InvalidProgramError, match=re.escape(message)):
        lp.validate()


@pytest.mark.parametrize(
    "first_row, message",
    [
        (dict(sense="=<"), "row 'sum': unknown sense '=<'"),
        (dict(idx=np.array([-1, 1])), "row 'sum': variable index out of range"),
        (dict(idx=np.array([0, 2])), "row 'sum': variable index out of range"),
    ],
)
def test_constructor_rejects_bad_rows_naming_the_row(first_row, message):
    with pytest.raises(InvalidProgramError, match=re.escape(message)):
        small_lp(**first_row).validate()


def test_rows_store_and_views():
    lp = small_lp()
    assert len(lp.rows) == 2
    A = lp.matrix()
    assert A is lp.rows.A and A.has_canonical_format
    np.testing.assert_array_equal(lp.rows.sense, ["<=", "<="])
    assert lp.rows.names == ["sum", "x1cap"]
    views = list(lp.rows)
    assert [(r.sense, r.rhs, r.name) for r in views] == [("<=", 4.0, "sum"), ("<=", 3.0, "x1cap")]
    np.testing.assert_array_equal(views[0].idx, [0, 1])
    views[0].val[:] = 7.0  # a view is a copy: the program is unchanged
    np.testing.assert_array_equal(lp.matrix().toarray(), [[1.0, 1.0], [0.0, 1.0]])
    both = lp.rows + lp.rows
    assert len(both) == 4 and both.names == ["sum", "x1cap", "sum", "x1cap"]
    np.testing.assert_array_equal(both.A.toarray(), [[1.0, 1.0], [0.0, 1.0]] * 2)
