"""Deterministic planning engine for joint solar/wind/CCS deployment.

Builds a multi-region, multi-decade linear program, solves it with a
self-contained bounded-variable simplex, and reports emission reductions,
technology shares, cashflows, and payback periods under four scenario
regimes and price-sensitivity sweeps.
"""

from .analytics import (
    CashflowSeries,
    ContributionShares,
    TradeMatrix,
    cashflow,
    contribution_shares,
    payback_year,
    reduction_percentage,
    trade_matrix,
)
from .builder import (
    DeploymentPlan,
    ScenarioConfig,
    VariableIndex,
    assemble,
    build_constraints,
    build_objective,
    extract_plan,
    scenario_config,
)
from .dataio import DataError, load, load_validated, toy_nation_path, write_results, write_sweep
from .domain import (
    GlobalParams,
    Horizon,
    ModelInstance,
    Region,
    RegionTech,
    TechKind,
    ValidationError,
    distance,
    validate_instance,
)
from .engine import (
    InfeasibleModelError,
    ScenarioError,
    ScenarioResult,
    SweepResult,
    UnboundedModelError,
    run_all,
    run_scenario,
    sweep,
)
from .lp import InvalidProgramError, LinearProgram, LpSolution, Row, Status, check_solution, to_mps
from .oracle import enumerate_oracle
from .simplex import solve

__version__ = "0.1.0"
