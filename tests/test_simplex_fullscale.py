"""Full-scale solver checks on toy-nation (1,452 variables), beyond the reach
of the vertex-enumeration oracle: agreement with HiGHS, agreement between
the eta-file path and a fresh LU factorisation on every pivot, and agreement
between warm-started solves (lex stage 2, sweep points) and cold ones."""
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from ccsplan import engine, simplex
from ccsplan.builder import COST_ONLY, MAX_REDUCTION_LEX, assemble, offset_vector, scenario_config
from ccsplan.lp import EQ, GE, LE, Status
from ccsplan.simplex import solve


def toy_lp(instance, sid, stage1=False):
    """The cost-mode LP of a scenario, or with stage1 the first lexicographic
    stage: maximise the total offset over the same constraints."""
    lp, index = assemble(instance, scenario_config(sid, objective_mode=COST_ONLY))
    if stage1:
        lp = replace(lp, objective=-offset_vector(instance, index))
    return lp


def highs_objective(lp):
    A = lp.matrix()
    b = lp.rhs()
    senses = np.array([r.sense for r in lp.rows])
    le, ge, eq = (senses == s for s in (LE, GE, EQ))
    # without presolve, as the benchmark's reference does: HiGHS's presolve
    # has returned status 4 on some of these programs
    res = linprog(
        lp.objective,
        A_ub=sp.vstack([A[le], -A[ge]], format="csr"),
        b_ub=np.concatenate([b[le], -b[ge]]),
        A_eq=A[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
        options={"presolve": False},
    )
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("stage1", [False, True], ids=["cost", "lex-stage1"])
@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_objective_matches_highs(toy_instance, sid, stage1):
    lp = toy_lp(toy_instance, sid, stage1)
    sol = solve(lp)
    assert sol.status == Status.OPTIMAL
    assert sol.objective_value == pytest.approx(highs_objective(lp), rel=1e-9)


@pytest.mark.parametrize("sid", [2, 4])
def test_eta_updates_agree_with_refactoring_every_pivot(toy_instance, sid, monkeypatch):
    lp = toy_lp(toy_instance, sid)
    default = solve(lp)
    monkeypatch.setattr(simplex, "REFACTOR_EVERY", 1)
    fresh = solve(lp)
    assert default.status == fresh.status == Status.OPTIMAL
    assert default.objective_value == pytest.approx(fresh.objective_value, rel=1e-9)
    assert fresh.factorizations > default.factorizations


def test_factorizations_are_reused_across_pivots(toy_results_cost):
    stats = toy_results_cost[2].solve_stats
    assert 0 < stats["phase1_iterations"] < stats["iterations"]
    assert 0 < stats["factorizations"] <= stats["iterations"] / 10


def test_optimality_is_priced_on_a_fresh_factorisation(toy_instance, monkeypatch):
    pending = []  # etas pending at each pricing (BTRAN) call
    btran = simplex._Loop._btran

    def spy(lu, etas, r):
        pending.append(len(etas))
        return btran(lu, etas, r)

    monkeypatch.setattr(simplex._Loop, "_btran", staticmethod(spy))
    sol = solve(toy_lp(toy_instance, 3))
    assert sol.status == Status.OPTIMAL
    assert max(pending) > 0 and pending[-1] == 0


def test_iteration_limit_in_phase_one_returns_an_infeasible_point(toy_instance, monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITERS", 50)
    sol = solve(toy_lp(toy_instance, 2))
    assert sol.status == Status.ITERATION_LIMIT
    assert sol.iterations == sol.phase1_iterations == 50
    assert sol.basis is None and sol.max_primal_infeasibility > 0


def test_iteration_limit_in_phase_two_returns_a_feasible_point(toy_instance, monkeypatch):
    lp = toy_lp(toy_instance, 3)
    full = solve(lp)
    monkeypatch.setattr(simplex, "MAX_ITERS", full.phase1_iterations + 20)
    sol = solve(lp)
    assert sol.status == Status.ITERATION_LIMIT
    assert sol.phase1_iterations == full.phase1_iterations < sol.iterations
    assert sol.basis is None and sol.max_primal_infeasibility <= 1e-6


def test_bland_rule_from_the_start_reaches_the_same_optimum(toy_instance, monkeypatch):
    lp = toy_lp(toy_instance, 3)
    default = solve(lp)
    monkeypatch.setattr(simplex, "STALL_LIMIT", 0)  # Bland's rule after the first pivot of each phase
    bland = solve(lp)
    assert default.status == bland.status == Status.OPTIMAL
    assert bland.iterations != default.iterations  # another pivot path
    assert bland.objective_value == pytest.approx(default.objective_value, rel=1e-9)


def record_solves(monkeypatch):
    """(program, start, solution) of every solve the engine makes."""
    calls = []

    def spy(lp, start=None):
        sol = solve(lp, start)
        calls.append((lp, start, sol))
        return sol

    monkeypatch.setattr(engine, "solve", spy)
    return calls


@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_lex_stage_two_warm_start_matches_cold(toy_instance, sid, monkeypatch):
    calls = record_solves(monkeypatch)
    engine.run_scenario(toy_instance, scenario_config(sid, objective_mode=MAX_REDUCTION_LEX))
    (_, start1, stage1), (lp2, _, warm) = calls
    assert start1 is None and not stage1.warm_start
    assert warm.warm_start and warm.phase1_iterations == 0
    cold = solve(lp2)
    assert cold.status == warm.status == Status.OPTIMAL
    assert not cold.warm_start and cold.phase1_iterations > 0
    assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9)


def test_sweep_points_start_from_their_neighbour(toy_instance, golden, monkeypatch):
    calls = record_solves(monkeypatch)
    grid = golden["sweep_carbon_price_s1_cost"]["grid"]  # the 16-point carbon-price sweep
    engine.sweep(toy_instance, scenario_config(1), "carbon_price", grid)
    assert [start is not None for _, start, _ in calls] == [False] + [True] * 15
    for lp, _, warm in calls[1:]:
        assert warm.warm_start and warm.phase1_iterations == 0
        assert warm.objective_value == pytest.approx(solve(lp).objective_value, rel=1e-9)
