"""Scenario runs, the lexicographic maximum-reduction mode, and price sweeps."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .builder import (
    CCS_CLAMP,
    COST_ONLY,
    MAX_REDUCTION_LEX,
    DeploymentPlan,
    ScenarioConfig,
    assemble,
    build_objective,
    extract_plan,
    offset_vector,
    scenario_config,
)
from .domain import NUM_TECH, ModelInstance, ValidationError
from .lp import GE, InvalidProgramError, LinearProgram, Row, Rows, Status
from .simplex import BASIC, solve

LEX_EPS = 1e-6  # relative slack on the stage-1 reduction when re-minimising cost
JUMP_PP = 1.0  # rise in reduction_pct between sweep points that marks a threshold

PARAMETER_KEYS = {  # sweep parameter -> the GlobalParams series it replaces
    "carbon_price": "cp",
    "ccs_unit_cost": "ccsp",
    "transport_cost": "gt",
}


class ScenarioError(RuntimeError):
    pass


class InfeasibleModelError(ScenarioError):
    def __init__(self, binding_rows):
        self.binding_rows = list(binding_rows)
        super().__init__(f"infeasible; violated rows: {', '.join(self.binding_rows) or '<none found>'}")


class UnboundedModelError(ScenarioError):
    def __init__(self, ray_vars):
        self.ray_vars = list(ray_vars)
        super().__init__(f"unbounded along: {', '.join(self.ray_vars) or '<unknown>'}")


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    instance: ModelInstance
    plan: DeploymentPlan
    emissions: np.ndarray  # (n, T), C_i(t) for t = 1..T
    objective_value: float
    reduction_pct: float
    solve_stats: dict
    basis: np.ndarray | None = None  # final basis of the first solve (stage 1 in lex mode)
    row_names: list | None = None  # the rows of that solve, whose slacks close `basis`

    @property
    def total_offset(self) -> float:
        return float(self.instance.baseline_total - self.emissions[:, -1].sum())


@dataclass
class SweepPoint:
    value: float
    reduction_pct: float | None = None
    objective_value: float | None = None
    any_trading: bool | None = None
    total_re_gw: float | None = None
    total_ccs_t: float | None = None
    error: str | None = None


@dataclass
class SweepResult:
    config: ScenarioConfig  # the scenario run at every point
    parameter: str
    grid: list
    points: list
    threshold: float | None  # first grid value where the reduction jumps > JUMP_PP
    monotone: bool  # reduction_pct non-decreasing along the grid


def compute_emissions(instance: ModelInstance, plan: DeploymentPlan) -> np.ndarray:
    """Per-region emission paths via the telescoped recursion (no re-solve);
    values within `CCS_CLAMP` of zero are roundoff and snap to exactly 0."""
    offs = plan.ccs_of_region()
    for k in range(NUM_TECH):  # each technology added in turn onto the CCS offsets
        offs += instance.g[:, k] * plan.re_installed[:, k]
    baselines = np.array([r.baseline_emissions for r in instance.regions])
    emissions = baselines[:, None] - np.cumsum(offs, axis=1)
    return np.where(np.abs(emissions) < CCS_CLAMP, 0.0, emissions)


def _raise_for_status(lp: LinearProgram, sol) -> None:
    if sol.status == Status.OPTIMAL:
        if np.isfinite(sol.objective_value):
            return
        with np.errstate(over="ignore", invalid="ignore"):
            term = lp.objective * sol.x
        bad = ~np.isfinite(term)  # the first such term, or the largest when only their sum overflows
        j = int(np.argmax(bad)) if bad.any() else int(np.argmax(np.abs(term)))
        raise ScenarioError(f"objective is not finite: c_j*x_j = {term[j]} for variable {lp.name_of(j)!r}")
    if sol.status == Status.INFEASIBLE:  # the rows phase 1 left unsatisfied
        raise InfeasibleModelError(lp.rows.names[r] or f"row{r}" for r in sol.unsatisfied_rows)
    if sol.status == Status.UNBOUNDED:
        names = [lp.name_of(sol.ray_var)] if sol.ray_var is not None else []
        raise UnboundedModelError(names)
    raise ScenarioError(f"solver stopped early: {sol.status.value} after {sol.iterations} iterations")


def _carry_basis(prev: ScenarioResult | None, lp: LinearProgram):
    """`prev`'s final basis as a start for `lp`: structural statuses as they
    are, slack statuses matched by row name, and a basic slack on each row
    that `prev` did not have. None when `prev` has no basis."""
    if prev is None or prev.basis is None:
        return None
    n = len(prev.basis) - len(prev.row_names)
    slack = dict(zip(prev.row_names, prev.basis[n:]))
    return np.r_[prev.basis[:n], [slack.get(name, BASIC) for name in lp.rows.names]].astype(np.int8)


def run_scenario(
    instance: ModelInstance, config: ScenarioConfig, start: ScenarioResult | None = None
) -> ScenarioResult:
    """Assemble, solve, and post-process one scenario configuration.

    In max-reduction mode, stage 1 maximises the total offset subject to the
    scenario constraints; stage 2 minimises cost among the (near-)maximisers,
    starting from the stage-1 optimal basis with the new row's slack basic.
    `start`, an earlier result on an instance with the same variables, seeds
    the first solve (the only one in cost mode, stage 1 in lex mode) with its
    final basis carried over to this program's rows (see `_carry_basis`).
    """
    try:
        lp, index = assemble(instance, config)
        return _solve_assembled(instance, config, lp, index, start)
    except (ValidationError, InvalidProgramError) as exc:  # the solve validates each program
        raise ScenarioError(str(exc)) from exc


def _solve_assembled(
    instance: ModelInstance, config: ScenarioConfig, lp: LinearProgram, index, start: ScenarioResult | None
) -> ScenarioResult:
    """Solve and post-process `lp`, the program of `instance` under `config`
    with its variable index (see `run_scenario`)."""
    start = _carry_basis(start, lp)
    stats = {}

    if config.objective_mode == MAX_REDUCTION_LEX:
        off = offset_vector(instance, index)
        lp1 = replace(lp, objective=-off)
        sol1 = first = solve(lp1, start)
        _raise_for_status(lp1, sol1)
        max_offset = -sol1.objective_value
        floor = max_offset * (1.0 - LEX_EPS)
        nz = np.nonzero(off)[0]
        lex_row = Row(idx=nz, val=off[nz], sense=GE, rhs=floor, name="lex_reduction")
        lp2 = replace(lp, rows=lp.rows + Rows.stack([lex_row], lp.num_vars))
        # the stage-1 optimum meets the lex row with slack max - floor >= 0
        sol = solve(lp2, np.append(sol1.basis, BASIC))
        _raise_for_status(lp2, sol)
        achieved = float((off * sol.x).sum())
        if achieved < floor - 1e-6 * (1.0 + abs(floor)):
            raise ScenarioError(
                f"lexicographic stage 2 lost reduction: {achieved} < floor {floor}"
            )
        stats["stage1_offset_t"] = max_offset
        stats["stage1_iterations"] = sol1.iterations
        stats["stage1_started_from"] = sol1.started_from
    elif config.objective_mode == COST_ONLY:
        sol = first = solve(lp, start)
        _raise_for_status(lp, sol)
    else:
        raise ValueError(f"unknown objective_mode {config.objective_mode!r}")

    plan = extract_plan(sol, index)
    emissions = compute_emissions(instance, plan)
    baseline = instance.baseline_total
    reduction_pct = 100.0 * (baseline - float(emissions[:, -1].sum())) / baseline
    stats.update(
        status=sol.status.value,
        iterations=sol.iterations,
        bland_iterations=sol.bland_iterations,
        max_primal_infeasibility=sol.max_primal_infeasibility,
        factorizations=sol.factorizations,
        phase1_iterations=sol.phase1_iterations,
        started_from=sol.started_from,
        clamped=plan.clamped,
    )
    return ScenarioResult(
        config=config,
        instance=instance,
        plan=plan,
        emissions=emissions,
        objective_value=sol.objective_value,
        reduction_pct=reduction_pct,
        solve_stats=stats,
        basis=first.basis,
        row_names=lp.rows.names,
    )


def run_all(
    instance: ModelInstance,
    objective_mode: str = COST_ONLY,
    nonneg_emissions: bool = False,
) -> dict:
    """Scenarios 1-4 on a shared instance. Failures are isolated per scenario:
    the mapped value is then the ScenarioError instead of a result.

    S2 is S1 with the mix rows added and S4 is S3 with them, so S2 starts
    from S1's final basis and S4 from S3's (cold after a failed predecessor);
    the first solve of S2 and S4 then reports `started_from` "given", unless
    it loses by the start rule of `simplex.solve`."""
    out = {}
    for sid in (1, 2, 3, 4):
        config = scenario_config(sid, objective_mode=objective_mode, nonneg_emissions=nonneg_emissions)
        prev = out.get(sid - 1) if sid in (2, 4) else None
        try:
            out[sid] = run_scenario(instance, config, prev if isinstance(prev, ScenarioResult) else None)
        except ScenarioError as exc:
            out[sid] = exc
    return out


def sweep(instance: ModelInstance, config: ScenarioConfig, parameter: str, grid) -> SweepResult:
    """One scenario run per grid value with the parameter's whole series
    replaced by the constant value. Per-point failures never abort the sweep.

    The swept parameters appear only in the objective. So the program is
    assembled once, at the first point that assembles, and every point solves
    it with its own objective (`build_objective`); the simplex scales the
    shared rows once. Each point starts from the previous successful
    point's basis (a point after a failure starts cold), so the points run
    serially in grid order. Every point gives what `run_scenario` gives on the
    instance with the series replaced, started from the previous point."""
    if parameter not in PARAMETER_KEYS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; expected one of {sorted(PARAMETER_KEYS)}")
    grid = [float(v) for v in grid]
    if not all(0.0 <= v < np.inf for v in grid):
        raise ValueError("grid values must be finite and >= 0")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    key = PARAMETER_KEYS[parameter]

    points, program, prev = [], None, None
    for value in grid:
        prices = replace(instance.globals, **{key: np.full(instance.T, value)})
        # the point shares the instance's distance matrix: the same floats,
        # computed once
        inst = replace(instance, globals=prices, distances=instance.distance_km)
        try:
            lp, index = program = program or assemble(inst, config)
            prev = _solve_assembled(inst, config, replace(lp, objective=build_objective(inst, index)), index, prev)
        # the solve validates a point's objective
        except (ScenarioError, ValidationError, InvalidProgramError) as exc:
            points.append(SweepPoint(value, error=str(exc)))
            prev = None
            continue
        plan = prev.plan
        points.append(SweepPoint(
            value, reduction_pct=prev.reduction_pct, objective_value=prev.objective_value,
            any_trading=plan.total_traded_t > 0, total_re_gw=plan.total_re_gw, total_ccs_t=plan.total_ccs_t,
        ))

    ok = [p for p in points if p.error is None]
    steps = list(zip(ok, ok[1:]))  # consecutive successful points
    monotone = all(b.reduction_pct >= a.reduction_pct - 1e-9 for a, b in steps)
    threshold = next((b.value for a, b in steps if b.reduction_pct - a.reduction_pct > JUMP_PP), None)
    return SweepResult(config, parameter, grid, points, threshold, monotone)
