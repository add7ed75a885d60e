import numpy as np
import pytest
import scipy.sparse as sp

from ccsplan.builder import (
    COST_ONLY,
    EQUAL_YEARLY,
    TOTAL_ONLY,
    ScenarioConfig,
    VariableIndex,
    assemble,
    build_objective,
    extract_plan,
    offset_vector,
    scenario_config,
)
from ccsplan.domain import (
    GlobalParams,
    Horizon,
    ModelInstance,
    Region,
    TechKind,
    ValidationError,
    zero_tech,
)
from ccsplan.lp import LpSolution, Status, to_mps
from ccsplan.simplex import solve

from conftest import make_trade_instance, make_unit_instance


def test_scenario_table():
    assert scenario_config(1).ccs_limit_mode == EQUAL_YEARLY
    assert not scenario_config(1).resilience_enabled
    assert scenario_config(2).resilience_enabled
    assert scenario_config(3).ccs_limit_mode == TOTAL_ONLY
    assert scenario_config(4) == ScenarioConfig(ccs_limit_mode=TOTAL_ONLY, resilience_enabled=True)
    with pytest.raises(ValueError, match="1..4"):
        scenario_config(5)


def test_unit_instance_shape():
    inst = make_unit_instance()
    lp, index = assemble(inst, scenario_config(1))
    assert lp.num_vars == 3
    assert len(lp.rows) == 3
    # zero-potential wind is pinned by its bounds instead of a row
    assert lp.upper[index.re[0, 1, 0]] == 0.0
    np.testing.assert_allclose(lp.objective, [-4.0, 0.0, 1.0])
    cap = next(r for r in lp.rows if r.name == "cap[2018]")
    assert cap.rhs == -50.0
    np.testing.assert_allclose(cap.val, [-10.0, -1.0])


def test_variable_count_formula(toy_instance):
    inst = toy_instance
    index = VariableIndex(inst)
    n, T = inst.n, inst.T
    ns, nb = len(inst.sellers), len(inst.buyers)
    assert index.num_vars == n * 2 * T + ns * T + nb * ns * T == 1452
    # block layout: all RE variables first, ordered by year
    assert index.re[0, 0, 0] == 0
    assert index.ccs_s[inst.sellers[0], 0] == n * 2 * T
    names = index.names
    assert names[0].startswith("RE[aster][solar][2018]")
    assert all(names)


def test_small_bipartite_count():
    # two regions (one seller), two years: 8 RE + 2 local + 2 traded = 12
    inst = make_trade_instance()
    inst.horizon = Horizon(2018, 2)
    for r in inst.regions:
        r.tech = {k: zero_tech(2) for k in (TechKind.SOLAR, TechKind.WIND)}
    g = inst.globals
    for attr in ("cp", "ccsp", "gt", "cap"):
        setattr(g, attr, np.repeat(getattr(g, attr), 2))
    g.sp = {k: np.zeros(2) for k in g.sp}
    assert VariableIndex(inst).num_vars == 12


def test_traded_ccs_cost_coefficient():
    # storage cost + transport over 100 km + the buyer's carbon-price fee
    inst = make_trade_instance()
    inst.globals.cp = np.array([10000.0])
    inst.globals.ccsp = np.array([10000.0])
    inst.globals.gt = np.array([8.1739])
    index = VariableIndex(inst)
    c = build_objective(inst, index)
    assert c[index.ccs_b[1, 0, 0]] == pytest.approx(20817.39)


def test_fit_revenue_accumulates_over_remaining_years():
    inst = make_unit_instance()
    inst.horizon = Horizon(2018, 2)
    solar = inst.regions[0].tech[TechKind.SOLAR]
    solar.g = np.array([10.0, 10.0])
    solar.rp = np.array([8.0, 8.0])
    inst.regions[0].tech[TechKind.WIND] = zero_tech(2)
    g = inst.globals
    g.cp = np.array([1.0, 1.0])
    g.ccsp = np.array([1.0, 1.0])
    g.gt = np.zeros(2)
    g.cap = np.array([np.inf, np.inf])
    g.sp = {TechKind.SOLAR: np.array([3.0, 1.0]), TechKind.WIND: np.zeros(2)}
    index = VariableIndex(inst)
    c = build_objective(inst, index)
    # year-1 install earns FIT in both years (tail 4), year-2 only the last (1)
    assert c[index.re[0, 0, 0]] == pytest.approx(8.0 - 10.0 - 4.0)
    assert c[index.re[0, 0, 1]] == pytest.approx(8.0 - 10.0 - 1.0)


def test_offset_vector():
    inst = make_unit_instance()
    index = VariableIndex(inst)
    off = offset_vector(inst, index)
    np.testing.assert_allclose(off, [10.0, 0.0, 1.0])


def test_cap_rows_skip_unbounded_years():
    inst = make_unit_instance()
    inst.horizon = Horizon(2018, 2)
    solar = inst.regions[0].tech[TechKind.SOLAR]
    solar.g = np.array([10.0, 10.0])
    solar.rp = np.array([8.0, 8.0])
    inst.regions[0].tech[TechKind.WIND] = zero_tech(2)
    g = inst.globals
    g.cp = np.array([1.0, 1.0])
    g.ccsp = np.array([1.0, 1.0])
    g.gt = np.zeros(2)
    g.cap = np.array([np.inf, 50.0])
    g.sp = {TechKind.SOLAR: np.zeros(2), TechKind.WIND: np.zeros(2)}
    lp, _ = assemble(inst, scenario_config(1))
    cap_rows = [r for r in lp.rows if r.name.startswith("cap[")]
    assert [r.name for r in cap_rows] == ["cap[2019]"]
    # the 2019 row accumulates offsets from both years
    assert len(cap_rows[0].idx) == 4


def test_ccs_limit_modes_differ():
    inst = make_unit_instance()
    lp1, _ = assemble(inst, scenario_config(1))
    lp3, _ = assemble(inst, scenario_config(3))
    r1 = next(r for r in lp1.rows if r.name.startswith("ccs_cap"))
    r3 = next(r for r in lp3.rows if r.name.startswith("ccs_cap"))
    assert r1.name == "ccs_cap[R][2018]" and r1.rhs == 30.0  # 30 / T with T = 1
    assert r3.name == "ccs_cap[R]" and r3.rhs == 30.0


def test_resilience_rows_and_alpha_guard():
    inst = make_unit_instance()
    lp, _ = assemble(inst, scenario_config(2))
    assert sum(r.name.startswith("mix[") for r in lp.rows) == 2
    inst.globals.alpha = {TechKind.SOLAR: 0.5, TechKind.WIND: 0.4}
    with pytest.raises(ValidationError, match="alpha sums to 0.9"):
        assemble(inst, scenario_config(2))


def test_nonneg_emission_rows():
    inst = make_unit_instance()
    lp, _ = assemble(inst, scenario_config(1, nonneg_emissions=True))
    row = next(r for r in lp.rows if r.name == "nonneg[R]")
    assert row.rhs == 100.0
    np.testing.assert_allclose(row.val, [10.0, 1.0])


def test_extract_plan_clamps_and_guards():
    inst = make_unit_instance()
    lp, index = assemble(inst, scenario_config(1))
    sol = solve(lp)
    sol.x[index.re[0, 0, 0]] += 1e-12  # jitter below the clamp
    sol.x[index.ccs_s[0, 0]] = 1e-9
    plan = extract_plan(sol, index)
    assert plan.re_installed[0, 0, 0] == pytest.approx(4.0)
    assert plan.ccs_local[0, 0] == 0.0
    assert plan.clamped == 1
    bad = LpSolution(Status.INFEASIBLE, sol.x, 0.0, 0, 0.0)
    with pytest.raises(ValueError, match="infeasible"):
        extract_plan(bad, index)


@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_toy_matrix_is_canonical_csr(toy_instance, sid):
    lp, _ = assemble(toy_instance, scenario_config(sid, objective_mode=COST_ONLY))
    A = lp.matrix()
    assert isinstance(A, sp.csr_matrix) and A.has_canonical_format
    assert A.shape == (len(lp.rows), lp.num_vars) == (len(lp.rhs()), 1452)


def read_mps(text, var_names):
    """The free-format MPS sections to_mps writes, read back into arrays."""
    col = {name: j for j, name in enumerate(var_names)}
    n = len(var_names)
    row, senses = {}, []
    objective, lower, upper = np.zeros(n), np.zeros(n), np.full(n, np.inf)
    ri, ci, vals, rhs = [], [], [], {}
    section = None
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line.split()[0]
            continue
        f = line.split()
        if section == "ROWS" and f[1] != "COST":
            row[f[1]] = len(senses)
            senses.append({"L": "<=", "G": ">=", "E": "="}[f[0]])
        elif section == "COLUMNS" and f[1] == "COST":
            objective[col[f[0]]] = float(f[2])
        elif section == "COLUMNS":
            ri.append(row[f[1]])
            ci.append(col[f[0]])
            vals.append(float(f[2]))
        elif section == "RHS":
            rhs[row[f[1]]] = float(f[2])
        elif section == "BOUNDS":
            j, v = col[f[2]], float(f[3])
            if f[0] in ("FX", "LO"):
                lower[j] = v
            if f[0] in ("FX", "UP"):
                upper[j] = v
    m = len(senses)
    A = sp.csr_matrix((vals, (ri, ci)), shape=(m, n))
    b = np.zeros(m)
    b[list(rhs)] = list(rhs.values())
    return A, b, senses, objective, lower, upper


def test_mps_round_trips_toy_program(toy_instance):
    lp, _ = assemble(toy_instance, scenario_config(2, objective_mode=COST_ONLY))
    A, b, senses, objective, lower, upper = read_mps(to_mps(lp), lp.var_names)
    assert len(senses) == 210
    for got, want in ((A.indptr, lp.matrix().indptr), (A.indices, lp.matrix().indices),
                      (A.data, lp.matrix().data), (b, lp.rhs()), (objective, lp.objective),
                      (lower, lp.lower), (upper, lp.upper)):
        np.testing.assert_array_equal(got, want)
    assert senses == [r.sense for r in lp.rows]
