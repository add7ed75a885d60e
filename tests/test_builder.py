from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from ccsplan import builder
from ccsplan.builder import (
    CCS_CLAMP,
    COST_ONLY,
    EQUAL_YEARLY,
    RE_CLAMP,
    TOTAL_ONLY,
    ScenarioConfig,
    VariableIndex,
    _year_and_region,
    assemble,
    build_objective,
    extract_plan,
    offset_vector,
    scenario_config,
)
from ccsplan.domain import Horizon, ValidationError
from ccsplan.lp import LpSolution, Status
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
    # the index is the sequence of the names, built on first use
    assert len(index) == index.num_vars and "names" not in vars(index)
    names = index.names
    assert names[0].startswith("RE[aster][solar][2018]")
    assert all(names)
    assert index.names is names and list(index) == names


def test_small_bipartite_count():
    # two regions (one seller), two years: 8 RE + 2 local + 2 traded = 12
    inst = make_trade_instance()
    inst.horizon = Horizon(2018, 2)
    inst.g, inst.rp = np.zeros((2, 2, 2)), np.zeros((2, 2, 2))
    g = inst.globals
    for attr in ("cp", "ccsp", "gt", "cap"):
        setattr(g, attr, np.repeat(getattr(g, attr), 2))
    g.sp = np.zeros((2, 2))
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
    inst.g = np.array([[[10.0, 10.0], [0.0, 0.0]]])  # solar, then wind
    inst.rp = np.array([[[8.0, 8.0], [0.0, 0.0]]])
    g = inst.globals
    g.cp = np.array([1.0, 1.0])
    g.ccsp = np.array([1.0, 1.0])
    g.gt = np.zeros(2)
    g.cap = np.array([np.inf, np.inf])
    g.sp = np.array([[3.0, 1.0], [0.0, 0.0]])
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
    inst.g = np.array([[[10.0, 10.0], [0.0, 0.0]]])  # solar, then wind
    inst.rp = np.array([[[8.0, 8.0], [0.0, 0.0]]])
    g = inst.globals
    g.cp = np.array([1.0, 1.0])
    g.ccsp = np.array([1.0, 1.0])
    g.gt = np.zeros(2)
    g.cap = np.array([np.inf, 50.0])
    g.sp = np.zeros((2, 2))
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
    inst.globals.alpha = np.array([0.5, 0.4])
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


def dense_year_and_region(index):
    """Year and region of every variable read off full np.indices grids: the
    reference for _year_and_region."""
    t_of = np.empty(index.num_vars, dtype=int)
    i_of = np.empty(index.num_vars, dtype=int)
    for block in (index.re, index.ccs_s, index.ccs_b):
        used = block >= 0
        grid = np.indices(block.shape)
        t_of[block[used]] = grid[-1][used]
        i_of[block[used]] = grid[0][used]
    return t_of, i_of


def dense_extract_plan(x, index):
    """The plan arrays and clamp count through dense np.where temporaries:
    the reference for extract_plan."""
    def pick(idx, clamp):
        vals = np.where(idx >= 0, x[np.maximum(idx, 0)], 0.0)
        small = (np.abs(vals) < clamp) & (vals != 0.0)
        return np.where(np.abs(vals) < clamp, 0.0, vals), int(small.sum())

    picked = [pick(index.re, RE_CLAMP), pick(index.ccs_s, CCS_CLAMP), pick(index.ccs_b, CCS_CLAMP)]
    return [vals for vals, _ in picked], sum(count for _, count in picked)


@pytest.fixture(params=["toy", "trade"])
def any_instance(request):
    return request.getfixturevalue("toy_instance") if request.param == "toy" else make_trade_instance()


def test_year_and_region_match_the_dense_reference(any_instance):
    index = VariableIndex(any_instance)
    for got, want in zip(_year_and_region(index), dense_year_and_region(index)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(3))
def test_extract_plan_matches_the_dense_reference(any_instance, seed):
    index = VariableIndex(any_instance)
    rng = np.random.default_rng(seed)
    # exact and signed zeros, values under either clamp, and large values
    levels = np.array([0.0, -0.0, 1e-12, -1e-12, 5e-7, -5e-7, 2e-6, 3.5, -3.5])
    x = rng.choice(levels, index.num_vars) * rng.uniform(0.5, 1.5, index.num_vars)
    plan = extract_plan(LpSolution(Status.OPTIMAL, x, 0.0, 0, 0.0), index)
    arrays, clamped = dense_extract_plan(x, index)
    assert plan.clamped == clamped
    for got, want in zip((plan.re_installed, plan.ccs_local, plan.ccs_traded), arrays):
        assert got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_toy_matrix_is_canonical_csr(toy_instance, sid):
    # the 693 traded-CCS columns are numbered only with the emission floor
    for floor, num_vars in ((False, 759), (True, 1452)):
        lp, _ = assemble(toy_instance, scenario_config(sid, objective_mode=COST_ONLY, nonneg_emissions=floor))
        A = lp.matrix()
        assert isinstance(A, sp.csr_matrix) and A.has_canonical_format
        assert A.shape == (len(lp.rows), lp.num_vars) == (len(lp.rhs()), num_vars)


@pytest.mark.parametrize("nation", ["toy", "bau"])
def test_dropping_the_trade_block_keeps_the_optima(request, nation, monkeypatch):
    # without the floor a traded tonne costs no less than the seller's local
    # one in the same rows, so the program without traded columns has the
    # optima of the full one, in cost mode and in lex stage 1
    inst = request.getfixturevalue(f"{nation}_instance")
    reduced = {sid: assemble(inst, scenario_config(sid)) for sid in (1, 2, 3, 4)}
    monkeypatch.setattr(builder, "VariableIndex", lambda instance, traded: VariableIndex(instance))
    for sid, (lp, index) in reduced.items():
        full, full_index = assemble(inst, scenario_config(sid))
        assert (index.ccs_b < 0).all() and len(index.buyers) == 0
        assert lp.num_vars == full.num_vars - len(inst.buyers) * len(inst.sellers) * inst.T
        stage1 = (replace(lp, objective=-offset_vector(inst, index)),
                  replace(full, objective=-offset_vector(inst, full_index)))
        for small, big in ((lp, full), stage1):
            got, want = solve(small), solve(big)
            assert got.status == want.status == Status.OPTIMAL
            assert got.objective_value == pytest.approx(want.objective_value, rel=1e-9)
        plan = extract_plan(got, index)
        assert plan.ccs_traded.shape == (inst.n, inst.n, inst.T) and not plan.ccs_traded.any()
