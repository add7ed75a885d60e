"""Sparse linear-program container, feasibility checking, and MPS export.

Minimisation sense throughout. All variable lower bounds are finite
(non-negative in this artifact); upper bounds may be +inf.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

LE = "<="
GE = ">="
EQ = "="
SENSES = (LE, GE, EQ)


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


class InvalidProgramError(ValueError):
    """Malformed program data: a shape mismatch, a bad bound, sense or index,
    or a non-finite objective, coefficient or rhs."""


@dataclass
class Row:
    idx: np.ndarray  # variable indices
    val: np.ndarray  # matching coefficients
    sense: str
    rhs: float
    name: str = ""

    def dot(self, x: np.ndarray) -> float:
        return float(x[self.idx] @ self.val)


@dataclass
class LinearProgram:
    num_vars: int
    objective: np.ndarray
    rows: list
    lower: np.ndarray
    upper: np.ndarray
    var_names: list | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)

    def validate(self):
        """Raise InvalidProgramError on malformed data; the solver relies on
        this being the only finiteness check."""
        n = self.num_vars
        if self.objective.shape != (n,) or self.lower.shape != (n,) or self.upper.shape != (n,):
            raise InvalidProgramError("objective/bounds length mismatch with num_vars")
        for what, bad in (
            ("objective coefficient is not finite", ~np.isfinite(self.objective)),
            ("lower bound is not finite", ~np.isfinite(self.lower)),
            ("upper bound is NaN", np.isnan(self.upper)),
            ("lower > upper", self.lower > self.upper),
        ):
            if bad.any():
                raise InvalidProgramError(f"variable {self.name_of(int(np.argmax(bad)))!r}: {what}")
        for r in self.rows:
            if r.sense not in SENSES:
                raise InvalidProgramError(f"row {r.name!r}: unknown sense {r.sense!r}")
            if len(r.idx) and (np.max(r.idx) >= n or np.min(r.idx) < 0):
                raise InvalidProgramError(f"row {r.name!r}: variable index out of range")
            if not (np.isfinite(r.rhs) and np.all(np.isfinite(r.val))):
                raise InvalidProgramError(f"row {r.name!r}: coefficient or rhs is not finite")
        return self

    def matrix(self) -> sp.csr_matrix:
        m = len(self.rows)
        data, ri, ci = [], [], []
        for p, r in enumerate(self.rows):
            ri.extend([p] * len(r.idx))
            ci.extend(r.idx)
            data.extend(r.val)
        return sp.csr_matrix((data, (ri, ci)), shape=(m, self.num_vars))

    def rhs(self) -> np.ndarray:
        return np.array([r.rhs for r in self.rows], dtype=float)

    def name_of(self, j: int) -> str:
        if self.var_names is not None:
            return self.var_names[j]
        return f"x{j}"


@dataclass
class LpSolution:
    status: Status
    x: np.ndarray
    objective_value: float
    iterations: int
    max_primal_infeasibility: float
    ray_var: int | None = None  # entering variable of the unbounded ray, if any
    factorizations: int = 0  # fresh LU factorisations of the basis, both phases
    phase1_iterations: int = 0  # iterations spent reaching feasibility


@dataclass
class FeasibilityReport:
    row_violation: np.ndarray  # >0 means violated, per row
    bound_violation: np.ndarray  # per variable
    objective: float

    @property
    def max_violation(self) -> float:
        parts = []
        if self.row_violation.size:
            parts.append(float(self.row_violation.max()))
        if self.bound_violation.size:
            parts.append(float(self.bound_violation.max()))
        return max(parts) if parts else 0.0


def check_solution(lp: LinearProgram, x: np.ndarray, tol: float = 0.0) -> FeasibilityReport:
    """Pure evaluation: per-row and per-bound violation plus the objective at x.

    Violations <= tol count as satisfied only in the eyes of the caller;
    the raw amounts are always reported.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (lp.num_vars,):
        raise ValueError(f"x has {x.shape} entries, expected ({lp.num_vars},)")
    rv = np.zeros(len(lp.rows))
    for p, r in enumerate(lp.rows):
        ax = r.dot(x)
        if r.sense == LE:
            rv[p] = ax - r.rhs
        elif r.sense == GE:
            rv[p] = r.rhs - ax
        else:
            rv[p] = abs(ax - r.rhs)
    upper_gap = np.where(np.isinf(lp.upper), -np.inf, x - lp.upper)
    bv = np.maximum(lp.lower - x, upper_gap)
    return FeasibilityReport(row_violation=rv, bound_violation=bv, objective=float(lp.objective @ x))


def violated_rows(lp: LinearProgram, x: np.ndarray, tol: float) -> list:
    """Names of rows violated beyond tol at x (diagnostics helper)."""
    rep = check_solution(lp, x)
    out = []
    for p, r in enumerate(lp.rows):
        if rep.row_violation[p] > tol:
            out.append(r.name or f"row{p}")
    return out


def _mps_name(raw: str, fallback: str) -> str:
    name = "".join(ch if ch.isalnum() or ch in "_.[]" else "_" for ch in raw)
    return name or fallback


def to_mps(lp: LinearProgram, name: str = "CCSPLAN") -> str:
    """Render the program in free-format MPS for cross-checks with other solvers."""
    lines = [f"NAME          {name}", "ROWS", " N  COST"]
    row_names = []
    for p, r in enumerate(lp.rows):
        rn = _mps_name(r.name, f"R{p}") if r.name else f"R{p}"
        row_names.append(rn)
        tag = {LE: "L", GE: "G", EQ: "E"}[r.sense]
        lines.append(f" {tag}  {rn}")

    # column-major entries
    col_entries = [[] for _ in range(lp.num_vars)]
    for j in range(lp.num_vars):
        if lp.objective[j] != 0.0:
            col_entries[j].append(("COST", lp.objective[j]))
    for p, r in enumerate(lp.rows):
        for j, v in zip(r.idx, r.val):
            col_entries[int(j)].append((row_names[p], float(v)))

    lines.append("COLUMNS")
    var_names = [_mps_name(lp.name_of(j), f"X{j}") for j in range(lp.num_vars)]
    for j in range(lp.num_vars):
        for rn, v in col_entries[j]:
            lines.append(f"    {var_names[j]}  {rn}  {v:.17g}")

    lines.append("RHS")
    for p, r in enumerate(lp.rows):
        if r.rhs != 0.0:
            lines.append(f"    RHS  {row_names[p]}  {r.rhs:.17g}")

    lines.append("BOUNDS")
    for j in range(lp.num_vars):
        lo, up = lp.lower[j], lp.upper[j]
        if lo == up:
            lines.append(f" FX BND  {var_names[j]}  {lo:.17g}")
            continue
        if lo != 0.0:
            lines.append(f" LO BND  {var_names[j]}  {lo:.17g}")
        if np.isfinite(up):
            lines.append(f" UP BND  {var_names[j]}  {up:.17g}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
