"""Sparse linear-program container and feasibility checking.

Minimisation sense throughout. All variable lower bounds are finite
(non-negative in this artifact); upper bounds may be +inf.

The constraint rows are stored once, as `Rows`: a CSR matrix plus a sense
array, an rhs array and a list of row names, which every consumer reads.
`Row` is not the storage: it is an input convenience for hand-written
programs (a list of them is stacked into `Rows` on construction) and the
per-row view that iterating `LinearProgram.rows` builds on demand.
"""
from __future__ import annotations

from collections.abc import Sequence
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
    constraint), `sense`, `rhs` and `names`. Rows are never mutated after
    construction (a program with other rows gets a new `Rows`), so the
    simplex keeps the standard form it builds per `Rows` object."""

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
    # any sequence of num_vars names (a list, or the builder's VariableIndex,
    # which builds them on first use); None names variable j "x{j}"
    var_names: Sequence[str] | None = None

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
        if self.var_names is not None and len(self.var_names) != n:
            raise InvalidProgramError(f"var_names has {len(self.var_names)} names, expected num_vars = {n}")
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
    factorizations: int = 0  # the LUs the phases ran on: the start's, then one per refactorisation
    phase1_iterations: int = 0  # iterations spent reaching feasibility
    bland_iterations: int = 0  # iterations whose entering variable Bland's rule chose
    # BASIC/AT_LOWER/AT_UPPER status of the n structural and m slack variables
    # at the final iterate (an artificial left basic counts as its row's
    # slack); None unless OPTIMAL
    basis: np.ndarray | None = None
    # the start the solve ran from, "given", "crash" or "slack" (see
    # simplex.solve); None from a solver without starts
    started_from: str | None = None
    # on INFEASIBLE, the rows (ascending) whose phase-1 artificial ended above
    # simplex.FEAS_TOL; None for any other status and from the oracle
    unsatisfied_rows: list | None = None


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
    return FeasibilityReport(row_violation=rv, bound_violation=bv, objective=float((lp.objective * x).sum()))
