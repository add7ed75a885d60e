from dataclasses import replace

import numpy as np
import pytest

from ccsplan import engine, simplex
from ccsplan.builder import COST_ONLY, MAX_REDUCTION_LEX, VariableIndex, offset_vector, scenario_config
from ccsplan.domain import TechKind
from ccsplan.engine import (
    LEX_EPS,
    InfeasibleModelError,
    ScenarioError,
    compute_emissions,
    run_all,
    run_scenario,
    sweep,
)
from ccsplan.lp import LpSolution, Status

from conftest import make_trade_instance, make_unit_instance


def test_unit_cost_only_exact(unit_instance):
    res = run_scenario(unit_instance, scenario_config(1, objective_mode=COST_ONLY))
    assert res.objective_value == pytest.approx(-6.0, abs=1e-9)
    assert res.plan.re_installed[0, 0, 0] == pytest.approx(4.0, abs=1e-9)
    assert res.plan.ccs_local[0, 0] == pytest.approx(10.0, abs=1e-9)
    assert res.reduction_pct == pytest.approx(50.0, abs=1e-9)
    np.testing.assert_allclose(res.emissions, [[50.0]])
    assert res.solve_stats["status"] == "optimal"


def test_unit_lexicographic_two_stage(unit_instance):
    res = run_scenario(unit_instance, scenario_config(1, objective_mode=MAX_REDUCTION_LEX))
    # stage 1 saturates both levers: 40 t from solar plus the full 30 t store
    assert res.solve_stats["stage1_offset_t"] == pytest.approx(70.0, rel=1e-9)
    assert res.reduction_pct == pytest.approx(70.0, rel=1e-5)
    assert res.objective_value == pytest.approx(14.0, rel=1e-4)


def test_lex_never_below_cost_only_reduction(unit_instance):
    cost = run_scenario(unit_instance, scenario_config(1, objective_mode=COST_ONLY))
    lex = run_scenario(unit_instance, scenario_config(1, objective_mode=MAX_REDUCTION_LEX))
    assert lex.reduction_pct >= cost.reduction_pct - 1e-9
    assert lex.objective_value >= cost.objective_value - 1e-9


def test_infeasible_cap_reports_binding_row():
    inst = make_unit_instance(cap=10.0)  # max offset is 70 < required 90
    with pytest.raises(InfeasibleModelError) as exc:
        run_scenario(inst, scenario_config(1))
    assert any(name.startswith("cap[") for name in exc.value.binding_rows)


def test_emissions_recomputation_is_bitwise(unit_instance):
    res = run_scenario(unit_instance, scenario_config(1))
    again = compute_emissions(unit_instance, res.plan)
    np.testing.assert_array_equal(res.emissions, again)


def test_forced_trading_under_emission_floor():
    inst = make_trade_instance()
    res = run_scenario(inst, scenario_config(3, nonneg_emissions=True))
    # the seller's 5 t floor pushes the remaining 35 t into traded storage
    assert res.plan.ccs_local[0, 0] == pytest.approx(5.0)
    assert res.plan.ccs_traded[1, 0, 0] == pytest.approx(35.0)
    np.testing.assert_allclose(res.emissions[:, 0], [0.0, 60.0], atol=1e-9)
    # cost: 5*1 + 35*(1 + 0.01*100 + 1)
    assert res.objective_value == pytest.approx(110.0)


def test_run_all_isolates_failures():
    # the mix rule bars solar-only deployment, so the ceiling must be
    # reachable by storage alone for scenarios 2 and 4 to stay feasible
    good = run_all(make_unit_instance(cap=70.0))
    assert sorted(good) == [1, 2, 3, 4]
    assert all(not isinstance(v, ScenarioError) for v in good.values())
    bad = run_all(make_unit_instance(cap=10.0))
    assert all(isinstance(v, ScenarioError) for v in bad.values())


def test_sweep_grid_validation(unit_instance):
    config = scenario_config(1)
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        sweep(unit_instance, config, "moon_phase", [1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(unit_instance, config, "carbon_price", [2.0, 1.0])
    with pytest.raises(ValueError, match=">= 0"):
        sweep(unit_instance, config, "carbon_price", [-1.0, 1.0])


def test_sweep_identity_point_reproduces_baseline(unit_instance):
    base = run_scenario(unit_instance, scenario_config(1))
    sw = sweep(unit_instance, scenario_config(1), "carbon_price", [1.0, 2.0])
    assert sw.points[0].objective_value == pytest.approx(base.objective_value, rel=1e-12)
    assert sw.points[0].reduction_pct == pytest.approx(base.reduction_pct)
    assert sw.monotone
    assert sw.threshold is None  # reduction stays pinned at the binding cap


def test_sweep_isolates_per_point_failures():
    inst = make_unit_instance(cap=10.0)
    sw = sweep(inst, scenario_config(1), "carbon_price", [1.0, 2.0])
    assert all(p.error is not None for p in sw.points)
    assert all(p.reduction_pct is None for p in sw.points)


def test_transport_cost_sweep_monotone_objective():
    inst = make_trade_instance()
    config = scenario_config(3, nonneg_emissions=True)
    sw = sweep(inst, config, "transport_cost", [0.0, 0.01, 0.02])
    objs = [p.objective_value for p in sw.points]
    assert objs == sorted(objs)  # dearer transport can only cost more
    assert all(p.any_trading for p in sw.points)


def _with_series(instance, key, value):
    """The instance with one GlobalParams series replaced by a constant."""
    return replace(instance, globals=replace(instance.globals, **{key: np.full(instance.T, value)}))


@pytest.mark.parametrize("parameter, key, grid", [
    ("carbon_price", "cp", [8000.0, 12000.0, 16000.0]),
    ("ccs_unit_cost", "ccsp", [9000.0, 12000.0]),
    ("transport_cost", "gt", [0.0, 20.0, 60.0]),
])
def test_sweep_point_is_a_run_with_the_series_replaced(toy_instance, parameter, key, grid):
    # scenario 2 with the emission floor trades CCS, so every swept price
    # reaches the objective; the points start warm, the comparison runs cold
    config = scenario_config(2, nonneg_emissions=True)
    sw = sweep(toy_instance, config, parameter, grid)
    assert len({p.objective_value for p in sw.points}) == len(grid)
    for p in sw.points:
        cold = run_scenario(_with_series(toy_instance, key, p.value), config)
        assert p.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
        assert p.reduction_pct == pytest.approx(cold.reduction_pct, rel=1e-9)


def test_iteration_limit_is_scenario_error(unit_instance, monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITERS", 0)
    with pytest.raises(ScenarioError, match="solver stopped early: iteration_limit after 0 iterations"):
        run_scenario(unit_instance, scenario_config(1, objective_mode=COST_ONLY))


def _nan_cost_instance():
    inst = make_unit_instance()
    inst.regions[0].tech[TechKind.SOLAR].rp = np.array([np.nan])
    return inst


def test_nan_in_program_is_scenario_error():
    with pytest.raises(ScenarioError, match="objective coefficient is not finite"):
        run_scenario(_nan_cost_instance(), scenario_config(1))


def test_nan_in_program_is_recorded_per_sweep_point():
    sw = sweep(_nan_cost_instance(), scenario_config(1), "carbon_price", [1.0, 2.0])
    assert all("not finite" in p.error for p in sw.points)


@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_lex_stage_two_appends_one_row(toy_instance, sid, monkeypatch):
    # only the programs handed to the solver matter here, so a stub stands in
    # for it: stage 1 "reaches" an offset of 1 t, stage 2 returns all ones
    programs = []

    def stub(lp, start=None):
        programs.append(lp)
        return LpSolution(Status.OPTIMAL, np.ones(lp.num_vars), -1.0, 0, 0.0)

    monkeypatch.setattr(engine, "solve", stub)
    run_scenario(toy_instance, scenario_config(sid, objective_mode=MAX_REDUCTION_LEX))
    lp1, lp2 = programs
    m = len(lp1.rows)
    A1, A2 = lp1.matrix(), lp2.matrix()
    assert A2.shape == (m + 1, A1.shape[1])
    np.testing.assert_array_equal(A2.indptr[: m + 1], A1.indptr)
    np.testing.assert_array_equal(A2.indices[: A1.nnz], A1.indices)
    np.testing.assert_array_equal(A2.data[: A1.nnz], A1.data)
    np.testing.assert_array_equal(lp2.rhs()[:m], lp1.rhs())
    np.testing.assert_array_equal(lp2.rows.sense[:m], lp1.rows.sense)
    assert lp2.rows.names[:m] == lp1.rows.names
    off = offset_vector(toy_instance, VariableIndex(toy_instance))
    *_, lex = lp2.rows
    assert (lex.name, lex.sense, lex.rhs) == ("lex_reduction", ">=", 1.0 * (1.0 - LEX_EPS))
    np.testing.assert_array_equal(lex.idx, np.flatnonzero(off))
    np.testing.assert_array_equal(lex.val, off[off != 0])


def test_lex_stage_two_starts_from_stage_one(toy_results_lex):
    for res in toy_results_lex.values():
        stats = res.solve_stats
        assert not stats["stage1_warm_start"]
        assert stats["warm_start"] and stats["phase1_iterations"] == 0
        assert res.basis is not None  # stage 1's, which a sweep point passes on


def test_start_seeds_the_first_solve(toy_instance, toy_results_cost):
    cold = toy_results_cost[3]
    warm = run_scenario(toy_instance, scenario_config(3), start=cold.basis)
    assert not cold.solve_stats["warm_start"]
    assert warm.solve_stats["warm_start"] and warm.solve_stats["iterations"] == 0
    assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
    np.testing.assert_array_equal(warm.basis, cold.basis)


def test_sweep_restarts_cold_after_a_failed_point(toy_instance, monkeypatch):
    # the second grid value assembles scenario 2 from an instance whose mix
    # shares sum to 0.99, so that point fails and the next one starts cold
    alpha = {TechKind.SOLAR: 0.31, TechKind.WIND: 0.68}
    bad = replace(toy_instance, globals=replace(toy_instance.globals, alpha=alpha))
    grid = [10000.0, 26000.0, 42000.0, 58000.0]
    assemble, solve = engine.assemble, engine.solve
    warm = []

    def failing_assemble(instance, config):
        return assemble(bad if instance.globals.cp[0] == grid[1] else instance, config)

    def spy(lp, start=None):
        warm.append(start is not None)
        return solve(lp, start)

    monkeypatch.setattr(engine, "assemble", failing_assemble)
    monkeypatch.setattr(engine, "solve", spy)
    sw = sweep(toy_instance, scenario_config(2), "carbon_price", grid)
    monkeypatch.undo()
    assert [p.error for p in sw.points] == [None, "globals.alpha: alpha sums to 0.99", None, None]
    assert warm == [False, False, True]
    for p in sw.points[2:]:
        cold = run_scenario(_with_series(toy_instance, "cp", p.value), scenario_config(2))
        assert p.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
        assert p.reduction_pct == pytest.approx(cold.reduction_pct, rel=1e-9)
