"""Full-scale solver checks on toy-nation (1,452 variables), beyond the reach
of the vertex-enumeration oracle: agreement with HiGHS, and agreement between
the eta-file path and a fresh LU factorisation on every pivot."""
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from ccsplan import simplex
from ccsplan.builder import COST_ONLY, assemble, offset_vector, scenario_config
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
