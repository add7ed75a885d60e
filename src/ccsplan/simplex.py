"""Two-phase bounded-variable primal simplex.

Dantzig pricing with a Bland's-rule fallback after a stall threshold, and
geometric-mean row/column equilibration before solving. The ratio test takes
the smallest ratio; among ratios within 1e-12 of the minimum, the lowest
variable index leaves.

The dense basis matrix is kept column by column. Its LU factorisation is
computed at the start of each phase and after every REFACTOR_EVERY basis
changes; in between, each basis change appends a product-form eta to the
factorisation. OPTIMAL is only declared from a fresh factorisation: when
pricing finds no candidate while etas are pending, the basis is refactorised
and priced again. Deterministic: identical inputs give bit-identical output.

A solve may start from a basis (`start`, the `LpSolution.basis` of an earlier
solve of a program with the same rows and bounds, or with rows appended whose
slacks are basic). If that basis is usable, phase 1 is skipped and phase 2
runs from it, on the LU factorisation made to check it; any other start falls
back to the cold start with artificials.
"""
from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgWarning, lu_factor
from scipy.linalg.lapack import dgetrs

from .lp import EQ, GE, LinearProgram, LpSolution, Status, check_solution

BASIC, AT_LOWER, AT_UPPER = 0, 1, 2
# Read at call time, so tests can monkeypatch them.
REFACTOR_EVERY = 40  # basis changes between fresh LU factorisations
FEAS_TOL = 1e-7  # primal feasibility, on scaled rows
OPT_TOL = 1e-9  # reduced-cost optimality
PIVOT_TOL = 1e-10
MAX_ITERS = 50000  # simplex iterations per solve, both phases together
STALL_LIMIT = 100  # iterations without progress before Bland's rule


def _geometric_scaling(A: sp.csr_matrix):
    """Row and column scales from two passes of geometric-mean equilibration."""
    m, n = A.shape
    rs = np.ones(m)
    cs = np.ones(n)
    coo = A.tocoo()
    v = absv = np.abs(coo.data)
    for _ in range(2):
        nz = v > 0
        for axis, scale, size in ((coo.row, rs, m), (coo.col, cs, n)):
            hi = np.zeros(size)
            lo = np.full(size, np.inf)
            np.maximum.at(hi, axis[nz], v[nz])
            np.minimum.at(lo, axis[nz], v[nz])
            used = hi > 0
            scale[used] /= np.sqrt(hi[used] * lo[used])
            v = absv * rs[coo.row] * cs[coo.col]
    return rs, cs


def _ratio_test(dxb, xb, lbb, ubb, basis, pivot_tol):
    """Ratio test over the basic variables moving by dxb per unit step.

    Returns (step, leaving position, bound the leaver goes to), or
    (inf, -1, AT_LOWER) when no basic variable limits the step. Smallest ratio
    first; among ratios within 1e-12 of the minimum, the lowest variable index.
    """
    down = dxb < -pivot_tol
    up = (dxb > pivot_tol) & np.isfinite(ubb)
    lim = np.full(dxb.shape, np.inf)
    lim[down] = np.maximum((xb[down] - lbb[down]) / -dxb[down], 0.0)
    lim[up] = np.maximum((ubb[up] - xb[up]) / dxb[up], 0.0)
    limiting = down | up
    if not limiting.any():
        return np.inf, -1, AT_LOWER
    ties = np.nonzero(limiting & (lim <= lim[limiting].min() + 1e-12))[0]
    p = int(ties[np.argmin(basis[ties])])
    return float(lim[p]), p, AT_LOWER if down[p] else AT_UPPER


def _getrs(lu, r, trans):
    """B0^-1 r (trans=0) or B0^-T r (trans=1) from `lu_factor`'s output;
    LAPACK getrs without scipy's `lu_solve` wrapper, with the same result."""
    if not r.size:  # a row-free program; getrs rejects empty arrays
        return r.copy()
    z, info = dgetrs(*lu, r, trans=trans)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
    return z


class _Loop:
    """One simplex phase over the standard-form system A x = b with bounds."""

    def __init__(self, A: sp.csc_matrix, b, lb, ub, lu=None):
        self.A = A
        self.AT = A.T.tocsr()
        self.b = b
        self.lb = lb
        self.ub = ub
        self.m = A.shape[0]
        self.iters = 0
        self.factorizations = 0
        self.ray_var = None
        self.lu = lu  # the caller's LU of the first run's basis matrix, if any

    def _column(self, j):
        A = self.A
        lo, hi = A.indptr[j], A.indptr[j + 1]
        col = np.zeros(self.m)
        col[A.indices[lo:hi]] = A.data[lo:hi]
        return col

    def _factor(self, B):
        self.factorizations += 1
        return lu_factor(B, check_finite=False)

    @staticmethod
    def _ftran(lu, etas, r):
        """B^-1 r for B = B0 E1 ... Ek: the LU of B0, then each eta in order."""
        z = _getrs(lu, r, 0)
        for p, w in etas:
            zp = z[p] / w[p]
            z -= zp * w
            z[p] = zp
        return z

    @staticmethod
    def _btran(lu, etas, r):
        """B^-T r: the transposed etas in reverse order, then the LU of B0."""
        r = r.copy()
        for p, w in reversed(etas):
            r[p] = (r[p] - (w @ r - w[p] * r[p])) / w[p]
        return _getrs(lu, r, 1)

    def run(self, c, basis, vstat, x):
        bland = False
        stall = 0
        best_obj = np.inf
        # optimality tolerance relative to the cost magnitude: with costs of
        # order 1e11 the roundoff in reduced costs dwarfs any absolute cutoff
        d_tol = OPT_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))
        movable = self.ub > self.lb
        B = self.A[:, basis].toarray()
        lu, self.lu = self.lu, None
        if lu is None:
            lu = self._factor(B)
        else:
            self.factorizations += 1
        etas = []  # (position, FTRAN'd entering column) per basis change since lu
        while True:
            if self.iters >= MAX_ITERS:
                return Status.ITERATION_LIMIT
            xx = x.copy()
            xx[basis] = 0.0
            x[basis] = self._ftran(lu, etas, self.b - self.A @ xx)
            y = self._btran(lu, etas, c[basis])
            d = c - self.AT @ y
            elig = movable & (
                ((vstat == AT_LOWER) & (d < -d_tol)) | ((vstat == AT_UPPER) & (d > d_tol))
            )
            cand = np.nonzero(elig)[0]
            if cand.size == 0:
                if not etas:
                    return Status.OPTIMAL
                # confirm optimality on a fresh factorisation
                lu, etas = self._factor(B), []
                continue
            if bland:
                q = int(cand[0])
            else:
                q = int(cand[np.argmax(np.abs(d[cand]))])
            sigma = 1.0 if vstat[q] == AT_LOWER else -1.0
            a_q = self._column(q)
            w = self._ftran(lu, etas, a_q)
            dxb = -sigma * w
            t_basic, leave_p, leave_to = _ratio_test(
                dxb, x[basis], self.lb[basis], self.ub[basis], basis, PIVOT_TOL
            )

            t_flip = self.ub[q] - self.lb[q]
            if t_flip <= t_basic:
                if np.isinf(t_flip):
                    self.ray_var = q
                    return Status.UNBOUNDED
                x[basis] += dxb * t_flip
                x[q] = self.ub[q] if vstat[q] == AT_LOWER else self.lb[q]
                vstat[q] = AT_UPPER if vstat[q] == AT_LOWER else AT_LOWER
            else:
                if np.isinf(t_basic):
                    self.ray_var = q
                    return Status.UNBOUNDED
                x[basis] += dxb * t_basic
                x[q] = x[q] + sigma * t_basic
                v_leave = basis[leave_p]
                x[v_leave] = self.lb[v_leave] if leave_to == AT_LOWER else self.ub[v_leave]
                vstat[v_leave] = leave_to
                basis[leave_p] = q
                vstat[q] = BASIC
                B[:, leave_p] = a_q
                etas.append((leave_p, w))
                if len(etas) >= REFACTOR_EVERY:
                    lu, etas = self._factor(B), []

            self.iters += 1
            obj = float(c @ x)
            if obj < best_obj - 1e-10 * (1.0 + abs(best_obj)):
                best_obj = obj
                stall = 0
            else:
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True


def _warm_start(A, b, lb, ub, start):
    """(basis, statuses, values, LU of the basis matrix) from a starting basis
    over the structural and slack columns `A`, or None when the start is
    unusable: it needs one BASIC/AT_LOWER/AT_UPPER status per column, exactly
    m of them BASIC, no AT_UPPER on an infinite bound, a nonsingular basis
    matrix, and basic values within FEAS_TOL of their bounds."""
    m, N = A.shape
    start = np.asarray(start)
    if start.shape != (N,) or not np.isin(start, (BASIC, AT_LOWER, AT_UPPER)).all():
        return None
    vstat = start.astype(np.int8)
    basis = np.flatnonzero(vstat == BASIC)
    upper = vstat == AT_UPPER
    if len(basis) != m or np.isinf(ub[upper]).any():
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)  # a singular B is rejected below
        lu = lu_factor(A[:, basis].toarray(), check_finite=False)
    u = np.abs(np.diag(lu[0]))
    if u.min(initial=np.inf) <= PIVOT_TOL * u.max(initial=0.0):
        return None
    x = np.where(upper, ub, lb)
    x[basis] = 0.0
    xb = x[basis] = _getrs(lu, b - A @ x, 0)
    if (xb < lb[basis] - FEAS_TOL).any() or (xb > ub[basis] + FEAS_TOL).any():
        return None
    return basis, vstat, x, lu


def solve(lp: LinearProgram, start=None) -> LpSolution:
    """Solve a bounded-variable LP; statuses Optimal/Infeasible/Unbounded or
    IterationLimit, after MAX_ITERS iterations of both phases together.

    On IterationLimit `x` is the point where the simplex stopped. A stop in
    phase 2 leaves a point feasible to tolerance; a stop in phase 1 leaves
    one that may violate rows, as `max_primal_infeasibility` reports.

    `start` is a basis to run phase 2 from, as in `LpSolution.basis`: one
    status per structural and slack variable. An unusable start (see
    `_warm_start`) falls back to the cold start."""
    lp.validate()
    n = lp.num_vars
    A = lp.matrix()
    m = A.shape[0]
    b = lp.rhs()
    sense = lp.rows.sense

    rs, cs = _geometric_scaling(A)
    As = (sp.diags(rs) @ A @ sp.diags(cs)).tocsc()
    bs = b * rs
    lb = lp.lower / cs
    ub = lp.upper / cs
    c_struct = lp.objective * cs

    slack_coef = np.where(sense == GE, -1.0, 1.0)
    slack_lb = np.zeros(m)
    slack_ub = np.where(sense == EQ, 0.0, np.inf)
    lb_all = np.concatenate([lb, slack_lb])
    ub_all = np.concatenate([ub, slack_ub])
    A_std = sp.hstack([As, sp.diags(slack_coef, shape=(m, m), format="csc")], format="csc")

    warm = None if start is None else _warm_start(A_std, bs, lb_all, ub_all, start)
    warm_start = warm is not None
    lu = None
    if warm_start:
        basis, vstat, x, lu = warm
        n_art = 0
    else:
        x = np.concatenate([lb, np.zeros(m)])
        vstat = np.full(n + m, AT_LOWER, dtype=np.int8)
        resid = bs - As @ lb
        s_val = np.clip(resid * slack_coef, slack_lb, slack_ub)
        x[n:] = s_val
        gap = resid - slack_coef * s_val

        art_rows = np.nonzero(np.abs(gap) > 0.0)[0]
        n_art = len(art_rows)
        if n_art:
            art = sp.csc_matrix(
                (np.sign(gap[art_rows]), (art_rows, np.arange(n_art))), shape=(m, n_art)
            )
            A_std = sp.hstack([A_std, art], format="csc")
        lb_all = np.concatenate([lb_all, np.zeros(n_art)])
        ub_all = np.concatenate([ub_all, np.full(n_art, np.inf)])
        x = np.concatenate([x, np.abs(gap[art_rows])])
        vstat = np.concatenate([vstat, np.full(n_art, AT_LOWER, dtype=np.int8)])

        basis = n + np.arange(m)
        basis[art_rows] = n + m + np.arange(n_art)
        vstat[basis] = BASIC

    loop = _Loop(A_std, bs, lb_all, ub_all, lu)
    del warm, lu  # the loop drops the start's LU at its first refactorisation

    def finish(status):
        x_orig = x[:n] * cs
        rep = check_solution(lp, x_orig)
        usable = status == Status.OPTIMAL and (basis < n + m).all()  # no artificial basic
        return LpSolution(
            status=status,
            x=x_orig,
            objective_value=float(lp.objective @ x_orig),
            iterations=loop.iters,
            max_primal_infeasibility=rep.max_violation,
            ray_var=loop.ray_var,
            factorizations=loop.factorizations,
            phase1_iterations=phase1_iterations,
            basis=vstat[: n + m].copy() if usable else None,
            warm_start=warm_start,
        )

    phase1_iterations = 0
    if n_art:
        c1 = np.zeros(n + m + n_art)
        c1[n + m :] = 1.0
        st = loop.run(c1, basis, vstat, x)
        phase1_iterations = loop.iters
        if st == Status.ITERATION_LIMIT:
            return finish(Status.ITERATION_LIMIT)
        art_sum = float(np.sum(x[n + m :]))
        if st != Status.OPTIMAL or art_sum > FEAS_TOL * (1.0 + np.abs(bs).max(initial=0.0)):
            return finish(Status.INFEASIBLE)
        # pin artificials at zero for phase 2
        ub_all[n + m :] = 0.0
        x[n + m :] = 0.0

    c2 = np.concatenate([c_struct, np.zeros(m + n_art)])
    st = loop.run(c2, basis, vstat, x)
    return finish(st)
