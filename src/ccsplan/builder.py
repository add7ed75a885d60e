"""Translation from a validated instance plus scenario settings to an LP.

Variable blocks, in order: RE installs ordered (t, i, k); local storage
CCS_s ordered (t, i in V_s); traded storage CCS_b ordered (t, j in V_b,
i in V_s). Objective coefficients fold the whole-horizon cashflow of each
decision into a single per-variable cost; constraints are the national cap
rows (with the emission recursion telescoped and constants moved to the
right-hand side), storage-capacity rows, renewable-potential rows, and the
optional per-year mix rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .domain import (
    NUM_TECH,
    TECH_ORDER,
    ModelInstance,
    ValidationError,
    alpha_errors,
    distance,
)
from .lp import LE, LinearProgram, LpSolution, Row, Status

EQUAL_YEARLY = "equal_yearly"
TOTAL_ONLY = "total_only"
COST_ONLY = "cost_only"
MAX_REDUCTION_LEX = "max_reduction_lex"

# override keys accepted in ScenarioConfig.overrides (constant replacement series)
OVERRIDABLE = ("cp", "ccsp", "gt")

RE_CLAMP = 1e-9  # GW
CCS_CLAMP = 1e-6  # tonnes


@dataclass(frozen=True)
class ScenarioConfig:
    ccs_limit_mode: str = EQUAL_YEARLY
    resilience_enabled: bool = False
    overrides: dict = field(default_factory=dict)
    objective_mode: str = COST_ONLY
    nonneg_emissions: bool = False

    def with_overrides(self, **kw):
        merged = dict(self.overrides)
        merged.update(kw)
        return replace(self, overrides=merged)


def scenario_config(number: int, **kw) -> ScenarioConfig:
    """The four published scenario regimes (1..4)."""
    table = {
        1: (EQUAL_YEARLY, False),
        2: (EQUAL_YEARLY, True),
        3: (TOTAL_ONLY, False),
        4: (TOTAL_ONLY, True),
    }
    if number not in table:
        raise ValueError(f"scenario number must be 1..4, got {number}")
    mode, res = table[number]
    return ScenarioConfig(ccs_limit_mode=mode, resilience_enabled=res, **kw)


class VariableIndex:
    """Order-stable bijection between decision variables and dense indices."""

    def __init__(self, instance: ModelInstance):
        n, K, T = instance.n, NUM_TECH, instance.T
        sellers, buyers = instance.sellers, instance.buyers
        self.re = np.full((n, K, T), -1, dtype=int)
        self.ccs_s = np.full((n, T), -1, dtype=int)
        self.ccs_b = np.full((n, n, T), -1, dtype=int)
        pos = 0
        for t in range(T):
            for i in range(n):
                for k in range(K):
                    self.re[i, k, t] = pos
                    pos += 1
        for t in range(T):
            for i in sellers:
                self.ccs_s[i, t] = pos
                pos += 1
        for t in range(T):
            for j in buyers:
                for i in sellers:
                    self.ccs_b[j, i, t] = pos
                    pos += 1
        self.num_vars = pos
        self.names = [""] * pos
        for t in range(T):
            year = instance.horizon.year_of(t + 1)
            for i, r in enumerate(instance.regions):
                for k, kind in enumerate(TECH_ORDER):
                    self.names[self.re[i, k, t]] = f"RE[{r.id}][{kind.value}][{year}]"
            for i in sellers:
                self.names[self.ccs_s[i, t]] = f"CCSs[{instance.regions[i].id}][{year}]"
            for j in buyers:
                for i in sellers:
                    self.names[self.ccs_b[j, i, t]] = (
                        f"CCSb[{instance.regions[j].id}][{instance.regions[i].id}][{year}]"
                    )


@dataclass
class DeploymentPlan:
    """Solved decision variables mapped back to domain terms."""

    re_installed: np.ndarray  # (n, K, T) GW
    ccs_local: np.ndarray  # (n, T) tonnes, nonzero only for V_s
    ccs_traded: np.ndarray  # (n, n, T) tonnes, [j buyer, i seller, t]
    clamped: int = 0  # near-zero values snapped to exactly 0

    def ccs_of_region(self) -> np.ndarray:
        """CCS_i(t): local storage for sellers, bought storage for buyers."""
        return self.ccs_local + self.ccs_traded.sum(axis=1)


def effective_globals(instance: ModelInstance, config: ScenarioConfig):
    """Global price/cap schedules with sweep overrides applied."""
    g = instance.globals
    T = instance.T
    series = {"cp": g.cp, "ccsp": g.ccsp, "gt": g.gt}
    for key, value in config.overrides.items():
        if key not in OVERRIDABLE:
            raise ValueError(f"unknown override {key!r}; expected one of {OVERRIDABLE}")
        series[key] = np.full(T, float(value))
    return series["cp"], series["ccsp"], series["gt"], g.cap, g.sp


def build_objective(instance: ModelInstance, config: ScenarioConfig, index: VariableIndex) -> np.ndarray:
    cp, ccsp, gt, _cap, sp = effective_globals(instance, config)
    c = np.zeros(index.num_vars)
    # tail[k][t0] = sum of FIT prices from year t0 to the end: capacity
    # installed at t earns electricity revenue in every remaining year
    tail = {k: np.cumsum(sp[k][::-1])[::-1] for k in TECH_ORDER}
    for i, region in enumerate(instance.regions):
        for k, kind in enumerate(TECH_ORDER):
            rt = region.tech[kind]
            c[index.re[i, k, :]] = rt.rp - cp * rt.g - rt.h * tail[kind]
    for i in instance.sellers:
        c[index.ccs_s[i, :]] = ccsp
    for j in instance.buyers:
        for i in instance.sellers:
            d = distance(j, i, instance)
            c[index.ccs_b[j, i, :]] = ccsp + gt * d + cp
    return c


def offset_vector(instance: ModelInstance, index: VariableIndex) -> np.ndarray:
    """Tonnes of CO2 offset per unit of each decision variable."""
    v = np.zeros(index.num_vars)
    for i, region in enumerate(instance.regions):
        for k, kind in enumerate(TECH_ORDER):
            v[index.re[i, k, :]] = region.tech[kind].g
    for i in instance.sellers:
        v[index.ccs_s[i, :]] = 1.0
    for j in instance.buyers:
        for i in instance.sellers:
            v[index.ccs_b[j, i, :]] = 1.0
    return v


def _row(coeffs: dict, sense: str, rhs: float, name: str) -> Row:
    items = sorted(coeffs.items())
    return Row(
        idx=np.array([j for j, _ in items], dtype=int),
        val=np.array([v for _, v in items], dtype=float),
        sense=sense,
        rhs=float(rhs),
        name=name,
    )


def build_constraints(instance: ModelInstance, config: ScenarioConfig, index: VariableIndex) -> list:
    n, T = instance.n, instance.T
    _cp, _ccsp, _gt, cap, _sp = effective_globals(instance, config)
    rows = []

    # per-variable offset coefficients, reused by the cap rows
    off = offset_vector(instance, index)

    # national cap rows: sum_i C_i(t) <= cap(t) with the recursion telescoped;
    # baselines move to the rhs, offsets appear with negative sign
    baseline = instance.baseline_total
    cum = {}
    for t in range(T):
        for i in range(n):
            for k in range(NUM_TECH):
                j = index.re[i, k, t]
                if off[j] != 0.0:
                    cum[j] = -off[j]
            j = index.ccs_s[i, t]
            if j >= 0:
                cum[j] = -1.0
            for i2 in instance.sellers:
                j = index.ccs_b[i, i2, t]
                if j >= 0:
                    cum[j] = -1.0
        if np.isfinite(cap[t]):
            year = instance.horizon.year_of(t + 1)
            rows.append(_row(dict(cum), LE, cap[t] - baseline, f"cap[{year}]"))

    # storage capacity rows (yearly equal split, or one total row per site)
    for i in instance.sellers:
        region = instance.regions[i]
        if config.ccs_limit_mode == EQUAL_YEARLY:
            yearly = region.ccs_capacity / T
            for t in range(T):
                coeffs = {index.ccs_s[i, t]: 1.0}
                for j in instance.buyers:
                    coeffs[index.ccs_b[j, i, t]] = 1.0
                year = instance.horizon.year_of(t + 1)
                rows.append(_row(coeffs, LE, yearly, f"ccs_cap[{region.id}][{year}]"))
        elif config.ccs_limit_mode == TOTAL_ONLY:
            coeffs = {}
            for t in range(T):
                coeffs[index.ccs_s[i, t]] = 1.0
                for j in instance.buyers:
                    coeffs[index.ccs_b[j, i, t]] = 1.0
            rows.append(_row(coeffs, LE, region.ccs_capacity, f"ccs_cap[{region.id}]"))
        else:
            raise ValueError(f"unknown ccs_limit_mode {config.ccs_limit_mode!r}")

    # renewable potential rows: total installs per region-tech bounded by the
    # remaining economic potential (zero-potential pairs are fixed via bounds)
    for i, region in enumerate(instance.regions):
        for k, kind in enumerate(TECH_ORDER):
            p = region.tech[kind].potential
            if p > 0:
                coeffs = {int(index.re[i, k, t]): 1.0 for t in range(T)}
                rows.append(_row(coeffs, LE, p, f"potential[{region.id}][{kind.value}]"))

    # per-year power-mix resilience rows
    if config.resilience_enabled:
        alpha = instance.globals.alpha
        errors = alpha_errors(alpha)
        if errors:
            raise ValidationError(errors)
        for t in range(T):
            year = instance.horizon.year_of(t + 1)
            for k, kind in enumerate(TECH_ORDER):
                coeffs = {}
                for i in range(n):
                    for k2 in range(NUM_TECH):
                        j = int(index.re[i, k2, t])
                        coeffs[j] = (1.0 if k2 == k else 0.0) - alpha[kind]
                rows.append(_row(coeffs, LE, 0.0, f"mix[{kind.value}][{year}]"))

    # optional floor on regional emissions; offsets only accumulate, so the
    # final-year row dominates all earlier years
    if config.nonneg_emissions:
        for i, region in enumerate(instance.regions):
            coeffs = {}
            for t in range(T):
                for k in range(NUM_TECH):
                    j = index.re[i, k, t]
                    if off[j] != 0.0:
                        coeffs[int(j)] = off[j]
                j = index.ccs_s[i, t]
                if j >= 0:
                    coeffs[int(j)] = 1.0
                for i2 in instance.sellers:
                    j = index.ccs_b[i, i2, t]
                    if j >= 0:
                        coeffs[int(j)] = 1.0
            rows.append(_row(coeffs, LE, region.baseline_emissions, f"nonneg[{region.id}]"))

    return rows


def assemble(instance: ModelInstance, config: ScenarioConfig):
    """LinearProgram plus its variable index for a scenario configuration."""
    index = VariableIndex(instance)
    c = build_objective(instance, config, index)
    rows = build_constraints(instance, config, index)
    lower = np.zeros(index.num_vars)
    upper = np.full(index.num_vars, np.inf)
    for i, region in enumerate(instance.regions):
        for k, kind in enumerate(TECH_ORDER):
            if region.tech[kind].potential <= 0:
                upper[index.re[i, k, :]] = 0.0
    lp = LinearProgram(
        num_vars=index.num_vars,
        objective=c,
        rows=rows,
        lower=lower,
        upper=upper,
        var_names=index.names,
    ).validate()
    return lp, index


def extract_plan(solution: LpSolution, index: VariableIndex) -> DeploymentPlan:
    """Inverse of the variable indexing; near-zero values snap to exactly 0."""
    if solution.status != Status.OPTIMAL:
        raise ValueError(f"cannot extract a plan from a {solution.status.value} solution")
    x = solution.x

    def pick(idx, clamp):
        vals = np.where(idx >= 0, x[np.maximum(idx, 0)], 0.0)
        small = (np.abs(vals) < clamp) & (vals != 0.0)
        return np.where(np.abs(vals) < clamp, 0.0, vals), int(small.sum())

    re_vals, c1 = pick(index.re, RE_CLAMP)
    ccs_s, c2 = pick(index.ccs_s, CCS_CLAMP)
    ccs_b, c3 = pick(index.ccs_b, CCS_CLAMP)
    return DeploymentPlan(
        re_installed=re_vals, ccs_local=ccs_s, ccs_traded=ccs_b, clamped=c1 + c2 + c3
    )
