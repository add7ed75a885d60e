"""Independent reference solves with HiGHS (`scipy.optimize.linprog`).

The inputs are taken straight from the program's `LinearProgram`: its
`matrix()`, `rhs()`, row senses, objective and bounds.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# HiGHS's presolve returns status 4 ("Solve error") on some no-ceiling LPs
# of the generated 40-region nation; without presolve it solves all of them.
HIGHS_OPTIONS = {"presolve": False}


@dataclass
class RefSolve:
    status: int
    message: str
    objective: float
    seconds: float  # HiGHS time only, without building its inputs
    rows: int
    nnz: int


def highs(lp) -> RefSolve:
    """Solve a program `LinearProgram` (rows with senses "<=", ">=", "=")."""
    A = lp.matrix()
    b = lp.rhs()
    senses = np.array([r.sense for r in lp.rows], dtype=object)
    le, ge, eq = (senses == s for s in ("<=", ">=", "="))
    A_ub = sp.vstack([A[le], -A[ge]], format="csr")
    b_ub = np.concatenate([b[le], -b[ge]])
    kw = {"A_ub": A_ub, "b_ub": b_ub} if A_ub.shape[0] else {}
    if eq.any():
        kw.update(A_eq=A[eq], b_eq=b[eq])
    t0 = time.perf_counter()
    res = linprog(lp.objective, bounds=np.column_stack([lp.lower, lp.upper]), method="highs",
                  options=HIGHS_OPTIONS, **kw)
    seconds = time.perf_counter() - t0
    obj = float(res.fun) if res.status == 0 else float("nan")
    return RefSolve(status=int(res.status), message=str(res.message), objective=obj,
                    seconds=seconds, rows=A.shape[0], nnz=A.nnz)
