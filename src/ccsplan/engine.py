"""Scenario runs, the lexicographic maximum-reduction mode, and price sweeps."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .builder import (
    COST_ONLY,
    MAX_REDUCTION_LEX,
    DeploymentPlan,
    ScenarioConfig,
    assemble,
    extract_plan,
    offset_vector,
    scenario_config,
)
from .domain import TECH_ORDER, ModelInstance, ValidationError
from .lp import GE, InvalidProgramError, LinearProgram, Row, Rows, Status, violated_rows
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
    parameter: str
    grid: list
    points: list
    threshold: float | None  # first grid value where the reduction jumps > JUMP_PP
    monotone: bool  # reduction_pct non-decreasing along the grid


def compute_emissions(instance: ModelInstance, plan: DeploymentPlan) -> np.ndarray:
    """Per-region emission paths via the telescoped recursion (no re-solve)."""
    n, T = instance.n, instance.T
    offs = plan.ccs_of_region().copy()
    for i, region in enumerate(instance.regions):
        for k, kind in enumerate(TECH_ORDER):
            offs[i, :] += region.tech[kind].g * plan.re_installed[i, k, :]
    baselines = np.array([r.baseline_emissions for r in instance.regions])
    return baselines[:, None] - np.cumsum(offs, axis=1)


def _raise_for_status(lp: LinearProgram, sol) -> None:
    if sol.status == Status.OPTIMAL:
        return
    if sol.status == Status.INFEASIBLE:
        tol = 1e-6 * (1.0 + np.abs(lp.rhs()).max(initial=0.0))
        raise InfeasibleModelError(violated_rows(lp, sol.x, tol))
    if sol.status == Status.UNBOUNDED:
        names = [lp.name_of(sol.ray_var)] if sol.ray_var is not None else []
        raise UnboundedModelError(names)
    raise ScenarioError(f"solver stopped early: {sol.status.value} after {sol.iterations} iterations")


def run_scenario(instance: ModelInstance, config: ScenarioConfig, start=None) -> ScenarioResult:
    """Assemble, solve, and post-process one scenario configuration.

    In max-reduction mode, stage 1 maximises the total offset subject to the
    scenario constraints; stage 2 minimises cost among the (near-)maximisers,
    starting from the stage-1 optimal basis with the new row's slack basic.
    `start` seeds the first solve (the only one in cost mode, stage 1 in lex
    mode) with a basis, such as `ScenarioResult.basis` of the same program.
    """
    try:
        lp, index = assemble(instance, config)
    except (ValidationError, InvalidProgramError) as exc:
        raise ScenarioError(str(exc)) from exc
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
        start2 = None if sol1.basis is None else np.append(sol1.basis, BASIC)
        sol = solve(lp2, start2)
        _raise_for_status(lp2, sol)
        achieved = float(off @ sol.x)
        if achieved < floor - 1e-6 * (1.0 + abs(floor)):
            raise ScenarioError(
                f"lexicographic stage 2 lost reduction: {achieved} < floor {floor}"
            )
        stats["stage1_offset_t"] = max_offset
        stats["stage1_iterations"] = sol1.iterations
        stats["stage1_warm_start"] = sol1.warm_start
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
        max_primal_infeasibility=sol.max_primal_infeasibility,
        factorizations=sol.factorizations,
        phase1_iterations=sol.phase1_iterations,
        warm_start=sol.warm_start,
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
    )


def run_all(
    instance: ModelInstance,
    objective_mode: str = COST_ONLY,
    nonneg_emissions: bool = False,
) -> dict:
    """Scenarios 1-4 on a shared instance. Failures are isolated per scenario:
    the mapped value is then the ScenarioError instead of a result."""
    out = {}
    for sid in (1, 2, 3, 4):
        config = scenario_config(sid, objective_mode=objective_mode, nonneg_emissions=nonneg_emissions)
        try:
            out[sid] = run_scenario(instance, config)
        except ScenarioError as exc:
            out[sid] = exc
    return out


def sweep(instance: ModelInstance, config: ScenarioConfig, parameter: str, grid) -> SweepResult:
    """One scenario run per grid value with the parameter's whole series
    replaced by the constant value. Per-point failures never abort the sweep.

    The swept parameters appear only in the objective, so each point starts
    from the previous successful point's basis (a point after a failure starts
    cold); the points therefore run serially in grid order."""
    if parameter not in PARAMETER_KEYS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; expected one of {sorted(PARAMETER_KEYS)}")
    grid = [float(v) for v in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if any(v < 0 for v in grid):
        raise ValueError("grid values must be >= 0")
    key = PARAMETER_KEYS[parameter]

    points = []
    basis = None
    for value in grid:
        point = SweepPoint(value=value)
        points.append(point)
        prices = replace(instance.globals, **{key: np.full(instance.T, value)})
        try:
            res = run_scenario(replace(instance, globals=prices), config, basis)
        except ScenarioError as exc:
            point.error = str(exc)
            basis = None
            continue
        basis = res.basis
        point.reduction_pct = res.reduction_pct
        point.objective_value = res.objective_value
        point.any_trading = bool(res.plan.ccs_traded.sum() > 0)
        point.total_re_gw = float(res.plan.re_installed.sum())
        point.total_ccs_t = float(res.plan.ccs_local.sum() + res.plan.ccs_traded.sum())

    threshold = None
    monotone = True
    prev = None
    for p in points:
        if p.error is not None:
            continue
        if prev is not None:
            if p.reduction_pct < prev - 1e-9:
                monotone = False
            if threshold is None and p.reduction_pct - prev > JUMP_PP:
                threshold = p.value
        prev = p.reduction_pct
    return SweepResult(parameter=parameter, grid=grid, points=points, threshold=threshold, monotone=monotone)
