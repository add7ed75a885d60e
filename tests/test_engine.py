import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccsplan import engine, simplex
from ccsplan.builder import (
    CCS_CLAMP,
    COST_ONLY,
    MAX_REDUCTION_LEX,
    DeploymentPlan,
    VariableIndex,
    assemble,
    offset_vector,
    scenario_config,
)
from ccsplan.engine import (
    LEX_EPS,
    InfeasibleModelError,
    ScenarioError,
    ScenarioResult,
    compute_emissions,
    run_all,
    run_scenario,
    sweep,
)
from ccsplan.lp import GE, LinearProgram, LpSolution, Row, Status

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


@pytest.mark.parametrize("mode", [COST_ONLY, MAX_REDUCTION_LEX])
def test_no_storage_names_an_unsatisfied_mix_row(toy_instance, mode):
    # without storage the mix rule blocks the cap; which rows phase 1 leaves
    # unsatisfied follows the pivot path, so only a mix row is pinned
    inst = replace(toy_instance, regions=[replace(r, ccs_capacity=0.0) for r in toy_instance.regions])
    out = run_all(inst, objective_mode=mode)
    for sid in (2, 4):
        assert isinstance(out[sid], InfeasibleModelError)
        assert any(name.startswith("mix[") for name in out[sid].binding_rows)


@pytest.mark.parametrize("mode", [COST_ONLY, MAX_REDUCTION_LEX])
def test_overflowing_optimum_is_scenario_error(toy_instance, mode):
    # finite but absurd potentials: the optimum's objective overflows (to -inf
    # in cost mode, nan in max-reduction mode), which fails every scenario
    out = run_all(replace(toy_instance, potential=toy_instance.potential * 1e300), objective_mode=mode)
    for sid in (1, 2, 3, 4):
        assert isinstance(out[sid], ScenarioError)
        assert re.fullmatch(r"objective is not finite: c_j\*x_j = -inf for variable 'RE\[.*\]'", str(out[sid]))


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


def test_emission_floor_leaves_no_negative_roundoff(toy_instance):
    # the floor rows hold only to the solver's tolerance; what is left within
    # CCS_CLAMP of zero is snapped to exactly 0 rather than written as noise
    for sid, res in run_all(toy_instance, objective_mode=MAX_REDUCTION_LEX, nonneg_emissions=True).items():
        assert isinstance(res, ScenarioResult), sid
        assert not (res.emissions < 0).any(), sid
        assert not ((res.emissions > 0) & (res.emissions < CCS_CLAMP)).any(), sid


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
    for grid in ([np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError, match="must be finite"):
            sweep(unit_instance, config, "carbon_price", grid)


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


CP16 = np.linspace(10000.0, 250000.0, 16).tolist()  # the CLI's 16-point carbon-price grid


@pytest.mark.parametrize("mode", [COST_ONLY, MAX_REDUCTION_LEX])
@pytest.mark.parametrize("nonneg", [False, True])
def test_sweep_is_a_chain_of_scenario_runs(toy_instance, monkeypatch, mode, nonneg):
    # each point equals run_scenario on the instance with the series
    # replaced, started from the previous point's result: bit for bit
    config = scenario_config(1, objective_mode=mode, nonneg_emissions=nonneg)
    extract, plans = engine.extract_plan, []

    def recorded(sol, index):
        plans.append(extract(sol, index))
        return plans[-1]

    monkeypatch.setattr(engine, "extract_plan", recorded)
    sw = sweep(toy_instance, config, "carbon_price", CP16)
    monkeypatch.undo()
    assert len(plans) == len(CP16)
    prev = None
    for p, plan in zip(sw.points, plans):
        res = prev = run_scenario(_with_series(toy_instance, "cp", p.value), config, prev)
        assert (p.reduction_pct, p.objective_value) == (res.reduction_pct, res.objective_value)
        for field in ("re_installed", "ccs_local", "ccs_traded"):
            np.testing.assert_array_equal(getattr(plan, field), getattr(res.plan, field))


@pytest.mark.parametrize("mode, scalings", [(COST_ONLY, 1), (MAX_REDUCTION_LEX, 17)])
def test_sweep_assembles_and_scales_its_rows_once(toy_instance, monkeypatch, mode, scalings):
    # lex stage 1 solves the shared rows; stage 2 adds a row, so each point
    # scales its own stage-2 rows
    calls = {"assemble": 0, "scaling": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(engine, "assemble", counted("assemble", engine.assemble))
    monkeypatch.setattr(simplex, "_geometric_scaling", counted("scaling", simplex._geometric_scaling))
    sw = sweep(toy_instance, scenario_config(1, objective_mode=mode), "carbon_price", CP16)
    assert all(p.error is None for p in sw.points)
    assert calls == {"assemble": 1, "scaling": scalings}


@pytest.fixture
def built_names(monkeypatch):
    """The `VariableIndex` objects whose names are built while the test runs."""
    built, names = [], VariableIndex.names

    def spy(index):
        built.append(index)
        return names.func(index)

    monkeypatch.setattr(VariableIndex, "names", property(spy))
    return built


@pytest.mark.parametrize("mode", [COST_ONLY, MAX_REDUCTION_LEX])
def test_successful_runs_never_build_variable_names(toy_instance, built_names, mode):
    outcomes = run_all(toy_instance, objective_mode=mode)
    sw = sweep(toy_instance, scenario_config(1, objective_mode=mode), "carbon_price", CP16)
    assert all(isinstance(res, ScenarioResult) for res in outcomes.values())
    assert all(p.error is None for p in sw.points)
    assert built_names == []


def test_a_named_error_builds_the_variable_names(built_names):
    with pytest.raises(ScenarioError, match=re.escape("variable 'RE[R][solar][2018]': objective coefficient")):
        run_scenario(_nan_cost_instance(), scenario_config(1))
    assert len(built_names) == 1


def test_iteration_limit_is_scenario_error(unit_instance, monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITERS", 0)
    with pytest.raises(ScenarioError, match="solver stopped early: iteration_limit after 0 iterations"):
        run_scenario(unit_instance, scenario_config(1, objective_mode=COST_ONLY))


def _nan_cost_instance():
    inst = make_unit_instance()
    inst.rp[0, 0] = np.nan  # solar
    return inst


@pytest.mark.parametrize("mode", [COST_ONLY, MAX_REDUCTION_LEX])
def test_nan_in_program_is_scenario_error(mode):
    # in max-reduction mode only the stage-2 program carries the cost objective
    with pytest.raises(ScenarioError, match="objective coefficient is not finite"):
        run_scenario(_nan_cost_instance(), scenario_config(1, objective_mode=mode))


def test_nan_in_program_is_recorded_per_sweep_point():
    sw = sweep(_nan_cost_instance(), scenario_config(1), "carbon_price", [1.0, 2.0])
    assert all("not finite" in p.error for p in sw.points)


@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_lex_stage_two_appends_one_row(toy_instance, sid, monkeypatch):
    # only the programs handed to the solver matter here, so a stub stands in
    # for it: stage 1 "reaches" an offset of 1 t, stage 2 returns all ones
    programs, indices = [], []

    def stub(lp, start=None):
        programs.append(lp)
        return LpSolution(Status.OPTIMAL, np.ones(lp.num_vars), -1.0, 0, 0.0)

    def spy(instance, config):
        lp, index = assemble(instance, config)
        indices.append(index)
        return lp, index

    monkeypatch.setattr(engine, "solve", stub)
    monkeypatch.setattr(engine, "assemble", spy)
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
    (index,) = indices
    off = offset_vector(toy_instance, index)
    *_, lex = lp2.rows
    assert (lex.name, lex.sense, lex.rhs) == ("lex_reduction", ">=", 1.0 * (1.0 - LEX_EPS))
    np.testing.assert_array_equal(lex.idx, np.flatnonzero(off))
    np.testing.assert_array_equal(lex.val, off[off != 0])


def test_lex_stage_two_starts_from_stage_one(toy_results_lex):
    for res in toy_results_lex.values():
        stats = res.solve_stats
        assert stats["stage1_started_from"] != "given"
        assert stats["started_from"] == "given" and stats["phase1_iterations"] == 0
        assert res.basis is not None  # stage 1's, which a sweep point passes on


def test_start_seeds_the_first_solve(toy_instance, toy_results_cost):
    cold = toy_results_cost[3]
    warm = run_scenario(toy_instance, scenario_config(3), start=cold)
    assert cold.solve_stats["started_from"] != "given"
    assert warm.solve_stats["started_from"] == "given" and warm.solve_stats["iterations"] == 0
    assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
    np.testing.assert_array_equal(warm.basis, cold.basis)


def test_floor_on_start_falls_back_to_the_cold_start(toy_instance, toy_results_cost):
    # the floor-on basis covers the traded columns, which the floor-off program lacks
    floored = run_scenario(toy_instance, scenario_config(1, nonneg_emissions=True))
    got = run_scenario(toy_instance, scenario_config(1), start=floored)
    cold = toy_results_cost[1]
    assert got.solve_stats["started_from"] != "given" and floored.basis.size > cold.basis.size
    assert got.objective_value == cold.objective_value
    assert got.solve_stats["iterations"] == cold.solve_stats["iterations"]


@pytest.mark.parametrize(
    "mode, nonneg", [(COST_ONLY, False), (MAX_REDUCTION_LEX, False), (COST_ONLY, True)], ids=["cost", "lex", "cost-nonneg"]
)
def test_run_all_chains_s2_and_s4_to_the_cold_optimum(toy_instance, toy_results_cost, toy_results_lex, mode, nonneg):
    out = run_all(toy_instance, objective_mode=mode, nonneg_emissions=nonneg)
    first = "stage1_started_from" if mode == MAX_REDUCTION_LEX else "started_from"
    assert [out[sid].solve_stats[first] == "given" for sid in (1, 2, 3, 4)] == [False, True, False, True]
    for sid in (2, 4):
        if nonneg:
            cold = run_scenario(toy_instance, scenario_config(sid, objective_mode=mode, nonneg_emissions=True))
        else:
            cold = (toy_results_lex if mode == MAX_REDUCTION_LEX else toy_results_cost)[sid]
        assert cold.solve_stats[first] != "given"
        assert out[sid].objective_value == pytest.approx(cold.objective_value, rel=1e-9)
        assert out[sid].reduction_pct == pytest.approx(cold.reduction_pct, abs=1e-6)


def test_carried_basis_matches_slacks_by_row_name():
    # the new row sits between the two old ones, as the mix rows sit between
    # the potential rows and the emission floors
    rows = [Row(idx=np.array([0]), val=np.array([1.0]), sense=GE, rhs=0.0, name=nm) for nm in ("a", "new", "b")]
    lp = LinearProgram(num_vars=2, objective=np.zeros(2), rows=rows, lower=np.zeros(2), upper=np.full(2, np.inf))
    B, L = simplex.BASIC, simplex.AT_LOWER
    prev = SimpleNamespace(basis=np.array([B, L, B, L], dtype=np.int8), row_names=["a", "b"])
    np.testing.assert_array_equal(engine._carry_basis(prev, lp), [B, L, B, B, L])
    assert engine._carry_basis(SimpleNamespace(basis=None, row_names=None), lp) is None


def test_run_all_starts_cold_after_a_failed_predecessor(toy_instance, monkeypatch):
    assemble, solve = engine.assemble, engine.solve
    warm = []

    def failing_assemble(instance, config):
        if config == scenario_config(1):
            raise engine.ValidationError(["forced failure"])
        return assemble(instance, config)

    def spy(lp, start=None):
        warm.append(start is not None)
        return solve(lp, start)

    monkeypatch.setattr(engine, "assemble", failing_assemble)
    monkeypatch.setattr(engine, "solve", spy)
    out = run_all(toy_instance)
    assert isinstance(out[1], ScenarioError)
    assert warm == [False, False, True]  # S2 cold, S3 cold, S4 from S3
    assert out[2].solve_stats["started_from"] != "given" and out[4].solve_stats["started_from"] == "given"


def test_sweep_restarts_cold_after_a_failed_point(toy_instance, monkeypatch):
    # the objective of the second grid value has a NaN, so that point fails
    # in its solve's validation and the next one starts cold
    grid = [10000.0, 26000.0, 42000.0, 58000.0]
    build_objective, solve = engine.build_objective, engine.solve
    warm = []

    def failing_objective(instance, index):
        c = build_objective(instance, index)
        if instance.globals.cp[0] == grid[1]:
            c[0] = np.nan
        return c

    def spy(lp, start=None):
        sol = solve(lp, start)  # raises on the NaN, so only solves that ran are recorded
        warm.append(start is not None)
        return sol

    monkeypatch.setattr(engine, "build_objective", failing_objective)
    monkeypatch.setattr(engine, "solve", spy)
    sw = sweep(toy_instance, scenario_config(2), "carbon_price", grid)
    monkeypatch.undo()
    name = VariableIndex(toy_instance).names[0]
    assert [p.error for p in sw.points] == [None, f"variable {name!r}: objective coefficient is not finite", None, None]
    assert warm == [False, False, True]
    for p in sw.points[2:]:
        cold = run_scenario(_with_series(toy_instance, "cp", p.value), scenario_config(2))
        assert p.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
        assert p.reduction_pct == pytest.approx(cold.reduction_pct, rel=1e-9)


def _reference_threshold_and_monotone(points):
    """The reference `(threshold, monotone)` of a sweep's points: a loop that
    skips failed points and compares each success with the success before it."""
    threshold, monotone, prev = None, True, None
    for p in points:
        if p.error is not None:
            continue
        if prev is not None:
            if p.reduction_pct < prev - 1e-9:
                monotone = False
            if threshold is None and p.reduction_pct - prev > engine.JUMP_PP:
                threshold = p.value
        prev = p.reduction_pct
    return threshold, monotone


UNIT = make_unit_instance()
# None marks a failed point; the listed values sit at the 1e-9 and JUMP_PP edges
point_outcomes = st.none() | st.floats(0.0, 100.0) | st.sampled_from([0.0, 1e-9, 1.0, 2.0, 2.0 - 2e-9, 3.0 + 1e-12])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(point_outcomes, min_size=1, max_size=8))
@example([10.0, None, 12.0])  # a jump across a failed point
@example([10.0, None, 9.0, 20.0])  # a fall across a failed point, then a jump
@example([None, None])
def test_sweep_threshold_and_monotone_skip_failed_points(reductions):
    grid = [float(k) for k in range(len(reductions))]
    outcome = dict(zip(grid, reductions))
    zeros = np.zeros(3)

    def stub(inst, config, lp, index, start):
        pct = outcome[inst.globals.cp[0]]
        if pct is None:
            raise ScenarioError("stub failure")
        plan = DeploymentPlan(re_installed=zeros, ccs_local=zeros, ccs_traded=zeros)
        return SimpleNamespace(reduction_pct=pct, objective_value=-pct, plan=plan)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_solve_assembled", stub)
        sw = sweep(UNIT, scenario_config(1), "carbon_price", grid)
    assert [p.reduction_pct for p in sw.points] == reductions
    assert [p.error for p in sw.points] == ["stub failure" if r is None else None for r in reductions]
    assert (sw.threshold, sw.monotone) == _reference_threshold_and_monotone(sw.points)
