"""Full-scale solver checks on toy-nation (759 variables, 1,452 with the
emission floor) and the 40-region `gen_bau`, beyond the reach of the
vertex-enumeration oracle: agreement with HiGHS, agreement between the
eta-file path and a fresh LU factorisation on every pivot, agreement between
warm-started solves (lex stage 2, sweep points) and cold ones, the crash
basis, the start and iterations of every solve of `run_all`, and results that
do not depend on the number of BLAS threads."""
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.linalg import splu

from ccsplan import engine, simplex
from ccsplan.builder import COST_ONLY, MAX_REDUCTION_LEX, assemble, offset_vector, scenario_config
from ccsplan.dataio import toy_nation_path
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
    pending = []  # etas pending at each FTRAN call
    ftran = simplex._Loop._ftran

    def spy(lu, etas, r):
        pending.append(len(etas))
        return ftran(lu, etas, r)

    monkeypatch.setattr(simplex._Loop, "_ftran", staticmethod(spy))
    monkeypatch.setattr(simplex, "MAX_ITERS", full.phase1_iterations + 20)
    sol = solve(lp)
    assert sol.status == Status.ITERATION_LIMIT
    assert sol.phase1_iterations == full.phase1_iterations < sol.iterations
    assert pending[-1] > 0  # the stop came between refactorisations
    assert sol.basis is None and sol.max_primal_infeasibility <= 1e-6


def test_bland_rule_from_the_start_reaches_the_same_optimum(toy_instance, monkeypatch):
    lp = toy_lp(toy_instance, 3)
    default = solve(lp)
    monkeypatch.setattr(simplex, "STALL_LIMIT", 0)  # Bland's rule on every pivot
    bland = solve(lp)
    assert default.status == bland.status == Status.OPTIMAL
    assert bland.bland_iterations == bland.iterations
    assert bland.iterations != default.iterations  # another pivot path
    assert bland.objective_value == pytest.approx(default.objective_value, rel=1e-9)


def test_cold_cost_s1_needs_few_iterations(toy_instance):
    # 1,204 iterations when Bland's rule took over after 100 iterations of a
    # phase, whether or not the objective was still falling
    sol = solve(toy_lp(toy_instance, 1))
    assert sol.status == Status.OPTIMAL and sol.started_from != "given"
    assert sol.iterations < 600


def slack_basis(lp):
    """The all-slack basis of `lp`, as a `start`."""
    return np.r_[np.full(lp.num_vars, simplex.AT_LOWER), np.full(len(lp.rows), simplex.BASIC)]


def test_cold_start_is_the_crash_basis(toy_instance):
    # toy S2 needs phase 1 from either basis; the crash basis shortens both phases
    lp = toy_lp(toy_instance, 2)
    cold = solve(lp)
    slack = solve(lp, start=slack_basis(lp))
    assert cold.started_from == "crash"
    assert slack.started_from == "given"
    assert (cold.iterations, cold.phase1_iterations) == (236, 139)
    assert (slack.iterations, slack.phase1_iterations) == (375, 203)
    assert cold.objective_value == pytest.approx(slack.objective_value, rel=1e-9)


def crash_programs(instance):
    """The cost-mode and lex stage-1 programs of S1-S4, floor off and on."""
    for sid in (1, 2, 3, 4):
        for floor in (False, True):
            lp, index = assemble(instance, scenario_config(sid, nonneg_emissions=floor))
            yield lp
            yield replace(lp, objective=-offset_vector(instance, index))


@pytest.mark.parametrize("nation", ["toy", "bau"])
def test_crash_basis_is_triangular_and_nonsingular(request, nation):
    for lp in crash_programs(request.getfixturevalue(f"{nation}_instance")):
        n = lp.num_vars
        rs, cs, sign, A = simplex._standard_form(lp)
        vstat = simplex._crash(A, lp.objective * cs, lp.upper / cs, n)
        basic, rows = np.flatnonzero(vstat[:n] == simplex.BASIC), np.flatnonzero(vstat[n:] == simplex.AT_LOWER)
        assert np.count_nonzero(vstat == simplex.BASIC) == len(rs) and len(basic) == len(rows) > 0
        # each structural's row is the first chosen row it has an entry in;
        # ordered so, the chosen rows and columns form a lower-triangular
        # block with a positive diagonal, and the other rows keep their slacks
        L = A[rows][:, basic].toarray()
        order = np.argsort(np.argmax(L != 0, axis=0))
        L = L[:, order]
        assert (np.diag(L) > 0).all() and not np.triu(L, 1).any()
        u = np.abs(splu(A[:, np.flatnonzero(vstat == simplex.BASIC)]).U.diagonal())
        assert u.min() > 1e-10 * u.max()


def test_crash_basis_loses_to_a_feasible_slack_start(bau_instance):
    # gen_bau has no cap, so x = 0 is feasible, while its S2 crash basis
    # violates mix rows and would need phase 1
    lp, _ = assemble(bau_instance, scenario_config(2))
    rs, cs, sign, A = simplex._standard_form(lp)
    crash = simplex._crash(A, lp.objective * cs, lp.upper / cs, lp.num_vars)
    lb = np.r_[lp.lower / cs, np.zeros(len(rs))]
    ub = np.r_[lp.upper / cs, np.where(lp.rows.sense == EQ, 0.0, np.inf)]
    assert simplex._Loop.start(A, lp.rhs() * rs, lb, ub, crash, True).A.shape[1] > A.shape[1]
    assert simplex._Loop.start(A, lp.rhs() * rs, lb, ub, crash, False) is None
    sol = solve(lp)
    assert sol.started_from == "slack"
    assert (sol.iterations, sol.phase1_iterations) == (68, 0)


@pytest.mark.parametrize("floor", [False, True], ids=["no-floor", "floor"])
@pytest.mark.parametrize("mode", [COST_ONLY, MAX_REDUCTION_LEX], ids=["cost", "lex"])
@pytest.mark.parametrize("nation", ["toy", "bau"])
def test_crash_and_slack_starts_reach_equal_objectives(request, nation, mode, floor, monkeypatch):
    calls = record_solves(monkeypatch)
    engine.run_all(request.getfixturevalue(f"{nation}_instance"), objective_mode=mode, nonneg_emissions=floor)
    for lp, start, sol in calls:
        assert sol.status == Status.OPTIMAL
        if sol.started_from == "crash":
            assert start is None
            slack = solve(lp, start=slack_basis(lp))
            assert slack.started_from == "given"
            assert sol.objective_value == pytest.approx(slack.objective_value, rel=1e-9)


def record_solves(monkeypatch):
    """(program, start, solution) of every solve the engine makes."""
    calls = []

    def spy(lp, start=None):
        sol = solve(lp, start)
        calls.append((lp, start, sol))
        return sol

    monkeypatch.setattr(engine, "solve", spy)
    return calls


# the start (C crash, G given, S slack), the iterations and the LU
# factorisations (C59:4 is a crash start, 59 iterations, 4 LUs) of every solve
# of run_all, in order (lex: stage 1, then stage 2, per scenario), as one BLAS
# thread gives them; test_blas_thread_count_does_not_move_results checks that
# more threads give the same pivots
RUN_ALL_SOLVES = {
    ("toy", COST_ONLY, False): "C59:4 G198:7 C30:3 G125:5",
    ("toy", COST_ONLY, True): "C57:4 G219:8 C29:3 G152:5",
    ("toy", MAX_REDUCTION_LEX, False): "C0:1 G1:2 G40:3 G87:4 C0:1 G4:2 G40:3 G99:4",
    ("toy", MAX_REDUCTION_LEX, True): "C33:3 G30:2 G138:6 G153:5 C8:3 G9:2 G99:5 G123:5",
    ("bau", COST_ONLY, False): "C0:1 S68:3 C0:1 S68:3",
    ("bau", COST_ONLY, True): "C0:1 S86:4 C0:1 S86:4",
    ("bau", MAX_REDUCTION_LEX, False): "C0:1 G1:2 S482:14 G87:4 C0:1 G13:2 S98:4 G99:4",
    ("bau", MAX_REDUCTION_LEX, True): "S829:22 G473:13 S924:25 G790:21 S134:5 G52:3 S160:5 G242:8",
}


@pytest.mark.parametrize("nation, mode, floor", list(RUN_ALL_SOLVES))
def test_run_all_starts_and_iterations(request, nation, mode, floor, monkeypatch):
    calls = record_solves(monkeypatch)
    engine.run_all(request.getfixturevalue(f"{nation}_instance"), objective_mode=mode, nonneg_emissions=floor)
    got = " ".join(f"{sol.started_from[0].upper()}{sol.iterations}:{sol.factorizations}" for _, _, sol in calls)
    assert got == RUN_ALL_SOLVES[nation, mode, floor]


def test_losing_starts_build_no_artificials(bau_instance, monkeypatch):
    # gen_bau cost S2 from S1's basis: the given start and the crash basis
    # need phase 1 while the all-slack basis is feasible, so each loses on
    # its one factorisation, before any artificial column is built
    s1 = engine.run_scenario(bau_instance, scenario_config(1))
    made = Counter()  # splu and hstack calls so far
    per_start = []  # those made inside each _Loop.start call
    start = simplex._Loop.start

    def counted(f, key):
        def wrapped(*args, **kwargs):
            made[key] += 1
            return f(*args, **kwargs)
        return wrapped

    def start_spy(cls, *args):
        before = made.copy()
        got = start(*args)
        per_start.append(dict(made - before))
        return got

    monkeypatch.setattr(simplex._Loop, "start", classmethod(start_spy))
    monkeypatch.setattr(simplex, "splu", counted(simplex.splu, "splu"))
    monkeypatch.setattr(simplex.sp, "hstack", counted(simplex.sp.hstack, "hstack"))
    s2 = engine.run_scenario(bau_instance, scenario_config(2), start=s1)
    assert (s2.solve_stats["started_from"], s2.solve_stats["iterations"]) == ("slack", 68)
    assert per_start == [{"splu": 1}] * 3  # given, crash, all-slack


@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_lex_stage_two_warm_start_matches_cold(toy_instance, sid, monkeypatch):
    calls = record_solves(monkeypatch)
    engine.run_scenario(toy_instance, scenario_config(sid, objective_mode=MAX_REDUCTION_LEX))
    (_, start1, stage1), (lp2, _, warm) = calls
    assert start1 is None and stage1.started_from != "given"
    assert warm.started_from == "given" and warm.phase1_iterations == 0
    cold = solve(lp2)
    assert cold.status == warm.status == Status.OPTIMAL
    assert cold.started_from != "given" and cold.phase1_iterations > 0
    assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9)


def test_sweep_points_start_from_their_neighbour(toy_instance, golden, monkeypatch):
    calls = record_solves(monkeypatch)
    grid = golden["sweep_carbon_price_s1_cost"]["grid"]  # the 16-point carbon-price sweep
    engine.sweep(toy_instance, scenario_config(1), "carbon_price", grid)
    assert [start is not None for _, start, _ in calls] == [False] + [True] * 15
    for lp, _, warm in calls[1:]:
        assert warm.started_from == "given" and warm.phase1_iterations == 0
        assert warm.objective_value == pytest.approx(solve(lp).objective_value, rel=1e-9)


RUN_ALL_WITH_STATS = """
import json, sys
from ccsplan import cli, engine
stats = {}
run_all = engine.run_all
def spy(*a, **kw):
    out = run_all(*a, **kw)
    stats.update({sid: [r.solve_stats["stage1_iterations"], r.solve_stats["iterations"]] for sid, r in out.items()})
    return out
engine.run_all = spy
code = cli.main(["run-all", "--data", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "stats": stats}))
"""


def test_blas_thread_count_does_not_move_results(tmp_path):
    # lex run-all on toy-nation in fresh interpreters with one and two
    # OpenBLAS threads: the same pivots and byte-identical bundles
    src = str(Path(simplex.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-c", RUN_ALL_WITH_STATS, str(toy_nation_path()), str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        runs[threads] = json.loads(proc.stdout.splitlines()[-1]), {f: (out / f).read_bytes() for f in files}
    (result1, bundles1), (result2, bundles2) = runs["1"], runs["2"]
    assert result1["code"] == 0 and len(result1["stats"]) == 4
    assert result1 == result2
    assert len(bundles1) >= 20 and bundles1 == bundles2
