"""Sparse linear-program container, feasibility checking, and MPS export.

Minimisation sense throughout. All variable lower bounds are finite
(non-negative in this artifact); upper bounds may be +inf.

The constraint rows are stored once, as `Rows`: a CSR matrix plus a sense
array, an rhs array and a list of row names, which every consumer reads.
`Row` is not the storage: it is an input convenience for hand-written
programs (a list of them is stacked into `Rows` on construction) and the
per-row view that iterating `LinearProgram.rows` builds on demand.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    """One constraint row: input for hand-written programs, and the view that
    iterating `Rows` yields (its arrays are copies of the stored slices)."""

    idx: np.ndarray  # variable indices
    val: np.ndarray  # matching coefficients
    sense: str
    rhs: float
    name: str = ""


@dataclass(frozen=True, eq=False)
class Rows:
    """The constraint rows of a program, in row order: `A` (CSR, one row per
    constraint), `sense`, `rhs` and `names`."""

    A: sp.csr_matrix
    sense: np.ndarray
    rhs: np.ndarray
    names: list

    @classmethod
    def stack(cls, rows: list, num_vars: int) -> Rows:
        """Stack a list of `Row` over `num_vars` columns (duplicate indices in
        a row are summed)."""
        ci = np.concatenate([np.zeros(0, dtype=int)] + [np.asarray(r.idx, dtype=int) for r in rows])
        ri = np.repeat(np.arange(len(rows)), [len(r.idx) for r in rows])
        bad = (ci < 0) | (ci >= num_vars)
        if bad.any():
            raise InvalidProgramError(f"row {rows[ri[np.argmax(bad)]].name!r}: variable index out of range")
        val = np.concatenate([np.zeros(0)] + [np.asarray(r.val, dtype=float) for r in rows])
        return cls(
            A=sp.csr_matrix((val, (ri, ci)), shape=(len(rows), num_vars)),
            sense=np.array([r.sense for r in rows], dtype=str),
            rhs=np.array([r.rhs for r in rows], dtype=float),
            names=[r.name for r in rows],
        )

    def __len__(self) -> int:
        return self.A.shape[0]

    def __add__(self, other: Rows) -> Rows:
        return Rows(
            A=sp.vstack([self.A, other.A], format="csr"),
            sense=np.concatenate([self.sense, other.sense]),
            rhs=np.concatenate([self.rhs, other.rhs]),
            names=self.names + other.names,
        )

    def __iter__(self):
        A = self.A
        for p in range(len(self)):
            lo, hi = A.indptr[p], A.indptr[p + 1]
            yield Row(A.indices[lo:hi].copy(), A.data[lo:hi].copy(), str(self.sense[p]),
                      float(self.rhs[p]), self.names[p])


@dataclass
class LinearProgram:
    num_vars: int
    objective: np.ndarray
    rows: Rows  # a list of Row is stacked into Rows on construction
    lower: np.ndarray
    upper: np.ndarray
    var_names: list | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if not isinstance(self.rows, Rows):
            self.rows = Rows.stack(self.rows, self.num_vars)

    def validate(self):
        """Raise InvalidProgramError on malformed data; the solver relies on
        this being the only finiteness check."""
        n, rows = self.num_vars, self.rows
        if any(a.shape != (n,) for a in (self.objective, self.lower, self.upper)) or rows.A.shape[1] != n:
            raise InvalidProgramError("objective/bounds/matrix length mismatch with num_vars")
        for what, bad in (
            ("objective coefficient is not finite", ~np.isfinite(self.objective)),
            ("lower bound is not finite", ~np.isfinite(self.lower)),
            ("upper bound is NaN", np.isnan(self.upper)),
            ("lower > upper", self.lower > self.upper),
        ):
            if bad.any():
                raise InvalidProgramError(f"variable {self.name_of(int(np.argmax(bad)))!r}: {what}")
        bad = ~np.isin(rows.sense, SENSES)
        if bad.any():
            p = int(np.argmax(bad))
            raise InvalidProgramError(f"row {rows.names[p]!r}: unknown sense {str(rows.sense[p])!r}")
        bad = ~np.isfinite(rows.rhs)
        entry_row = np.repeat(np.arange(len(rows)), np.diff(rows.A.indptr))
        bad[entry_row[~np.isfinite(rows.A.data)]] = True
        if bad.any():
            raise InvalidProgramError(f"row {rows.names[int(np.argmax(bad))]!r}: coefficient or rhs is not finite")
        return self

    def matrix(self) -> sp.csr_matrix:
        return self.rows.A

    def rhs(self) -> np.ndarray:
        return self.rows.rhs

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
    # BASIC/AT_LOWER/AT_UPPER status of the n structural and m slack variables
    # at the final iterate; None unless OPTIMAL with no artificial basic
    basis: np.ndarray | None = None
    warm_start: bool = False  # phase 2 ran from the given start, without phase 1


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


def check_solution(lp: LinearProgram, x: np.ndarray) -> FeasibilityReport:
    """Pure evaluation: per-row and per-bound violation plus the objective at x.

    The raw amounts are reported; the caller decides what tolerance to apply.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (lp.num_vars,):
        raise ValueError(f"x has {x.shape} entries, expected ({lp.num_vars},)")
    rows = lp.rows
    excess = rows.A @ x - rows.rhs
    rv = np.where(rows.sense == LE, excess, np.where(rows.sense == GE, -excess, np.abs(excess)))
    upper_gap = np.where(np.isinf(lp.upper), -np.inf, x - lp.upper)
    bv = np.maximum(lp.lower - x, upper_gap)
    return FeasibilityReport(row_violation=rv, bound_violation=bv, objective=float(lp.objective @ x))


def violated_rows(lp: LinearProgram, x: np.ndarray, tol: float) -> list:
    """Names of rows violated beyond tol at x (diagnostics helper)."""
    violated = np.flatnonzero(check_solution(lp, x).row_violation > tol)
    return [lp.rows.names[p] or f"row{p}" for p in violated]


def _mps_name(raw: str, fallback: str) -> str:
    name = "".join(ch if ch.isalnum() or ch in "_.[]" else "_" for ch in raw)
    return name or fallback


def to_mps(lp: LinearProgram, name: str = "CCSPLAN") -> str:
    """Render the program in free-format MPS for cross-checks with other solvers."""
    rows = lp.rows
    row_names = [_mps_name(s, f"R{p}") for p, s in enumerate(rows.names)]
    var_names = [_mps_name(lp.name_of(j), f"X{j}") for j in range(lp.num_vars)]
    lines = [f"NAME          {name}", "ROWS", " N  COST"]
    tag = {LE: "L", GE: "G", EQ: "E"}
    lines += [f" {tag[s]}  {rn}" for s, rn in zip(rows.sense, row_names)]

    lines.append("COLUMNS")
    C = rows.A.tocsc()
    for j, vn in enumerate(var_names):
        if lp.objective[j] != 0.0:
            lines.append(f"    {vn}  COST  {lp.objective[j]:.17g}")
        lo, hi = C.indptr[j], C.indptr[j + 1]
        lines += [f"    {vn}  {row_names[p]}  {v:.17g}" for p, v in zip(C.indices[lo:hi], C.data[lo:hi])]

    lines.append("RHS")
    lines += [f"    RHS  {row_names[p]}  {rows.rhs[p]:.17g}" for p in np.flatnonzero(rows.rhs)]

    lines.append("BOUNDS")
    for j, vn in enumerate(var_names):
        lo, up = lp.lower[j], lp.upper[j]
        if lo == up:
            lines.append(f" FX BND  {vn}  {lo:.17g}")
            continue
        if lo != 0.0:
            lines.append(f" LO BND  {vn}  {lo:.17g}")
        if np.isfinite(up):
            lines.append(f" UP BND  {vn}  {up:.17g}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
