"""Translation from a validated instance plus scenario settings to an LP.

Variable blocks, in order: RE installs ordered (t, i, k); local storage
CCS_s ordered (t, i in V_s); traded storage CCS_b ordered (t, j in V_b,
i in V_s). Objective coefficients fold the whole-horizon cashflow of each
decision into a single per-variable cost; constraints are the national cap
rows (with the emission recursion telescoped and constants moved to the
right-hand side), storage-capacity rows, renewable-potential rows, and the
optional per-year mix and regional non-negative-emission rows.

Each row family is emitted with numpy as COO triplets straight from the
`VariableIndex` arrays, and the families are stacked once into the program's
`Rows` (one CSR matrix plus sense, rhs and names); no `Row` object is made.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .domain import (
    NUM_TECH,
    TECH_ORDER,
    ModelInstance,
    ValidationError,
    alpha_errors,
    distance,
)
from .lp import LE, LinearProgram, LpSolution, Rows, Status

EQUAL_YEARLY = "equal_yearly"
TOTAL_ONLY = "total_only"
COST_ONLY = "cost_only"
MAX_REDUCTION_LEX = "max_reduction_lex"

RE_CLAMP = 1e-9  # GW
CCS_CLAMP = 1e-6  # tonnes


@dataclass(frozen=True)
class ScenarioConfig:
    ccs_limit_mode: str = EQUAL_YEARLY
    resilience_enabled: bool = False
    objective_mode: str = COST_ONLY
    nonneg_emissions: bool = False


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
        sellers = np.array(instance.sellers, dtype=int)
        buyers = np.array(instance.buyers, dtype=int)
        ns, nb = len(sellers), len(buyers)
        # each block is numbered year-major, in the order of the module docstring
        self.re = np.arange(T * n * K).reshape(T, n, K).transpose(1, 2, 0).copy()
        self.ccs_s = np.full((n, T), -1, dtype=int)
        self.ccs_s[sellers] = T * n * K + np.arange(T * ns).reshape(T, ns).T
        self.ccs_b = np.full((n, n, T), -1, dtype=int)
        first_b = T * (n * K + ns)
        traded = np.arange(T * nb * ns).reshape(T, nb, ns).transpose(1, 2, 0)
        self.ccs_b[np.ix_(buyers, sellers)] = first_b + traded
        self.num_vars = first_b + T * nb * ns
        # names are built per block as a small prefix array plus the year
        # suffix, so that only the last concatenation spans the whole block
        year = "][" + np.array(instance.horizon.years).astype(str)[:, None, None] + "]"
        ids = np.array([r.id for r in instance.regions])
        kinds = np.array([kind.value for kind in TECH_ORDER])
        names = (
            "RE[" + ids[:, None] + "][" + kinds + year,  # (t, i, k)
            "CCSs[" + ids[sellers] + year[:, 0],  # (t, seller)
            "CCSb[" + ids[buyers][:, None] + "][" + ids[sellers] + year,  # (t, buyer, seller)
        )
        self.names = np.concatenate([a.ravel() for a in names]).tolist()


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


def build_objective(instance: ModelInstance, index: VariableIndex) -> np.ndarray:
    g = instance.globals
    cp, ccsp, gt, sp = g.cp, g.ccsp, g.gt, g.sp
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
    """Tonnes of CO2 offset per unit of each decision variable: the conversion
    ratio g of an RE install, one tonne per tonne stored for every CCS variable."""
    v = np.ones(index.num_vars)
    v[index.re] = [[region.tech[kind].g for kind in TECH_ORDER] for region in instance.regions]
    return v


def _potentials(instance: ModelInstance) -> np.ndarray:
    """(n, K) remaining economic potential per region and technology."""
    return np.array([[r.tech[kind].potential for kind in TECH_ORDER] for r in instance.regions])


def _year_and_region(index: VariableIndex):
    """Year position and region of every variable: the installer of an RE
    variable, the storer of a local CCS variable, the buyer of a traded one."""
    t_of = np.empty(index.num_vars, dtype=int)
    i_of = np.empty(index.num_vars, dtype=int)
    for block in (index.re, index.ccs_s, index.ccs_b):
        used = block >= 0
        grid = np.indices(block.shape)
        t_of[block[used]] = grid[-1][used]
        i_of[block[used]] = grid[0][used]
    return t_of, i_of


def build_constraints(instance: ModelInstance, config: ScenarioConfig, index: VariableIndex) -> Rows:
    """All constraint rows, every one of them `<=`. Each family is emitted as
    COO triplets (local row, column, value) plus its rhs and names, and the
    families are stacked once into one CSR matrix."""
    n, T = instance.n, instance.T
    cap = instance.globals.cap
    years = np.array(instance.horizon.years).astype(str)
    ids = np.array([r.id for r in instance.regions])
    kinds = np.array([kind.value for kind in TECH_ORDER])
    off = offset_vector(instance, index)
    t_of, i_of = _year_and_region(index)
    families = []  # (rows, cols, vals, rhs, names)

    # national cap rows: sum_i C_i(t) <= cap(t) with the recursion telescoped;
    # baselines move to the rhs, offsets of every year up to t appear with
    # negative sign
    cap_t = np.flatnonzero(np.isfinite(cap))
    rr, cc = np.nonzero((t_of <= cap_t[:, None]) & (off != 0.0))
    families.append((rr, cc, -off[cc], cap[cap_t] - instance.baseline_total, "cap[" + years[cap_t] + "]"))

    # storage capacity rows (yearly equal split, or one total row per site):
    # local storage of each seller plus everything bought from it
    sellers = np.array(instance.sellers, dtype=int)
    capacity = np.array([instance.regions[i].ccs_capacity for i in sellers])
    if config.ccs_limit_mode == EQUAL_YEARLY:
        row_of = np.arange(len(sellers) * T).reshape(-1, T)  # (seller, t) -> local row
        rhs = np.repeat(capacity / T, T)
        names = "ccs_cap[" + np.repeat(ids[sellers], T) + "][" + np.tile(years, len(sellers)) + "]"
    elif config.ccs_limit_mode == TOTAL_ONLY:
        row_of = np.repeat(np.arange(len(sellers))[:, None], T, axis=1)
        rhs = capacity
        names = "ccs_cap[" + ids[sellers] + "]"
    else:
        raise ValueError(f"unknown ccs_limit_mode {config.ccs_limit_mode!r}")
    traded = index.ccs_b[:, sellers, :]  # (buyer, seller, t), -1 off V_b x V_s
    bought = traded >= 0
    rr = np.concatenate([row_of.ravel(), np.broadcast_to(row_of, traded.shape)[bought]])
    cc = np.concatenate([index.ccs_s[sellers].ravel(), traded[bought]])
    families.append((rr, cc, np.ones(len(cc)), rhs, names))

    # renewable potential rows: total installs per region-tech bounded by the
    # remaining economic potential (zero-potential pairs are fixed via bounds)
    pot = _potentials(instance)
    ii, kk = np.nonzero(pot > 0)
    cc = index.re[ii, kk, :]
    families.append((np.repeat(np.arange(len(ii)), T), cc.ravel(), np.ones(cc.size), pot[ii, kk],
                     "potential[" + ids[ii] + "][" + kinds[kk] + "]"))

    # per-year power-mix resilience rows, one per (year, tech k): the year's
    # installs of k minus alpha_k times all of the year's installs
    if config.resilience_enabled:
        alpha = instance.globals.alpha
        errors = alpha_errors(alpha)
        if errors:
            raise ValidationError(errors)
        a = np.array([alpha[kind] for kind in TECH_ORDER])
        shape = (T, NUM_TECH, n, NUM_TECH)  # (t, row tech k, region, column tech k2)
        rr = np.broadcast_to(np.arange(T * NUM_TECH).reshape(T, NUM_TECH, 1, 1), shape)
        cc = np.broadcast_to(index.re.transpose(2, 0, 1)[:, None], shape)
        vv = np.broadcast_to(np.eye(NUM_TECH)[:, None, :] - a[:, None, None], shape)
        families.append((rr.ravel(), cc.ravel(), vv.ravel(), np.zeros(T * NUM_TECH),
                         "mix[" + np.tile(kinds, T) + "][" + np.repeat(years, NUM_TECH) + "]"))

    # optional floor on regional emissions; offsets only accumulate, so the
    # final-year row dominates all earlier years
    if config.nonneg_emissions:
        cc = np.flatnonzero(off)
        baselines = np.array([r.baseline_emissions for r in instance.regions])
        families.append((i_of[cc], cc, off[cc], baselines, "nonneg[" + ids + "]"))

    rows, cols, vals, rhs, names = zip(*families)
    first = np.cumsum([0] + [len(b) for b in rhs])  # global number of each family's first row
    rr = np.concatenate([r + r0 for r, r0 in zip(rows, first)])
    m = int(first[-1])
    return Rows(
        A=sp.csr_matrix((np.concatenate(vals), (rr, np.concatenate(cols))), shape=(m, index.num_vars)),
        sense=np.full(m, LE),
        rhs=np.concatenate(rhs).astype(float),
        names=np.concatenate(names).tolist(),
    )


def assemble(instance: ModelInstance, config: ScenarioConfig):
    """LinearProgram plus its variable index for a scenario configuration."""
    index = VariableIndex(instance)
    upper = np.full(index.num_vars, np.inf)
    upper[index.re[_potentials(instance) <= 0]] = 0.0
    lp = LinearProgram(
        num_vars=index.num_vars,
        objective=build_objective(instance, index),
        rows=build_constraints(instance, config, index),
        lower=np.zeros(index.num_vars),
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
