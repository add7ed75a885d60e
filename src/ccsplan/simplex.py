"""Two-phase bounded-variable primal simplex.

Devex pricing (Forrest & Goldfarb 1992): the entering variable maximises
d_j^2 / w_j over the eligible reduced costs d_j, with reference weights w
that start at 1 in each phase. Bland's rule (the lowest eligible index
enters) takes over after STALL_LIMIT iterations in a row that each lower the
objective by no more than a relative 1e-10. Rows and columns are
equilibrated by geometric means before solving. The ratio test takes the
smallest ratio; among ratios within 1e-12 of the minimum, the lowest
variable index leaves.

One `_Loop` holds a solve's state from its accepted start to its optimum:
the basis, the variables' statuses and values, and the SuperLU factorisation
(`scipy.sparse.linalg.splu`) of the basis matrix, to which each basis change
appends a product-form eta. The basis is factorised when the start is
checked, after every REFACTOR_EVERY basis changes and when optimality is
confirmed; phase 2 continues on phase 1's final LU. x_B and the reduced
costs d are recomputed from the LU at the start of each phase and after each
refactorisation, and updated by each step in between: d by the pivot row
alpha_r = A^T B^-T e_r, which also updates the devex weights. OPTIMAL is
only declared on a fresh LU with freshly computed d (with etas pending, the
basis is refactorised and priced again), so an optimal solve ends on a fresh
LU of its final basis. Every BLAS call on the solve path is too small for
OpenBLAS to start a second thread (objective values are elementwise sums
over the columns, not dot products), so the pivot path does not depend on
the number of BLAS threads. Deterministic: identical inputs give
bit-identical output.

Every solve runs from the first candidate basis that its start rule (see
`solve`) accepts. A basic slack outside its bounds gets an artificial on its
row, and phase 1 runs whenever there is one. At an optimum, an artificial
still basic (at zero) gives its place in the returned basis to its row's
slack, so an optimal solve always returns a basis to start a later solve
from. An infeasible solve names the rows whose artificial phase 1 left above
FEAS_TOL (`LpSolution.unsatisfied_rows`), the only feasibility verdict a
solve gives.

What depends on the rows only is built once per `Rows` object and kept as
long as that object lives (`_standard_form`): the geometric scales, the
standard form [A_s, diag(slack signs)] with the scaled matrix A_s.
Programs that share their `Rows` (`dataclasses.replace(lp, objective=c)`,
as a price sweep makes) share that work; only the bounds and the objective
are scaled per solve. A `Rows` is never mutated after construction, so the
cached form stays the one its rows would give.
"""
from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .lp import EQ, GE, LinearProgram, LpSolution, Status, check_solution

BASIC, AT_LOWER, AT_UPPER = 0, 1, 2
# Read at call time, so tests can monkeypatch them.
REFACTOR_EVERY = 40  # basis changes between fresh LU factorisations
FEAS_TOL = 1e-7  # primal feasibility, on scaled rows
OPT_TOL = 1e-9  # reduced-cost optimality
PIVOT_TOL = 1e-10
MAX_ITERS = 50000  # simplex iterations per solve, both phases together
STALL_LIMIT = 100  # iterations without a relative 1e-10 improvement before Bland's rule


def _geometric_scaling(A: sp.csr_matrix):
    """Row and column scales from two passes of geometric-mean equilibration."""
    rs, cs = np.ones(A.shape[0]), np.ones(A.shape[1])
    C = A.tocsc()
    for _ in range(2):
        for M, scale in ((A, rs), (C, cs)):  # rows in CSR order, then columns in CSC order
            count = np.diff(M.indptr)
            own = np.repeat(np.arange(len(count), dtype=M.indices.dtype), count)
            row, col = (own, M.indices) if M is A else (M.indices, own)
            v = np.abs(M.data)
            v *= rs[row]  # in place, for a small peak; the same floats as |a| * rs * cs
            v *= cs[col]
            # reduceat gives an empty row or column the entry at its start,
            # not the identity, so it runs over the nonempty ones only
            full = count > 0
            hi = np.zeros(len(scale))
            lo = np.full(len(scale), np.inf)
            hi[full] = np.maximum.reduceat(v, M.indptr[:-1][full])
            v[~(v > 0)] = np.inf  # explicit zeros take no part in the minimum
            lo[full] = np.minimum.reduceat(v, M.indptr[:-1][full])
            used = hi > 0
            scale[used] /= np.sqrt(hi[used] * lo[used])
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


class _Loop:
    """One solve's state over the standard-form system A x = b with bounds,
    from its accepted start (`start`) through one `run` per phase: the basis,
    the variables' statuses and values, and the LU of a basis matrix with the
    etas appended to it since."""

    def __init__(self, A: sp.csc_matrix, b, lb, ub, basis, vstat, x, lu):
        self.A, self.b, self.lb, self.ub = A, b, lb, ub
        self.AT = A.T  # A^T, which prices the pivot rows: a CSR view of A's arrays
        self.basis, self.vstat, self.x, self.lu = basis, vstat, x, lu
        self.etas = []  # (position, FTRAN'd entering column) per basis change since lu
        self.m = A.shape[0]
        self.iters = 0
        self.bland_iters = 0  # iterations that entered by Bland's rule
        self.factorizations = 1  # the start's LU
        self.ray_var = None

    @classmethod
    def start(cls, A, b, lb, ub, start, phase1):
        """The loop to run the simplex from the basis `start` over the columns
        of `A` (n structurals, then m slacks), or None when the start (None
        too) is unusable. Usable means one BASIC/AT_LOWER/AT_UPPER status per
        column, exactly m BASIC, no AT_UPPER on an infinite bound, a
        nonsingular basis matrix, every basic structural within FEAS_TOL of
        its bounds and, unless `phase1`, every basic slack within FEAS_TOL of
        its bounds too; the all-slack basis with `phase1` always is.

        A basic slack further than FEAS_TOL outside its bounds, [0, inf) or
        [0, 0], leaves the basis at 0, and an artificial on its row carries
        the excess e: column sign(coef e) e_row, value |e|. Artificials are
        appended to A, lb and ub in row order, and the LU is that of the new
        basis."""
        m, N = A.shape
        start = np.asarray(start)
        if start.shape != (N,) or not np.isin(start, (BASIC, AT_LOWER, AT_UPPER)).all():
            return None
        vstat = start.astype(np.int8)
        basis = np.flatnonzero(vstat == BASIC)
        upper = vstat == AT_UPPER
        if len(basis) != m or np.isinf(ub[upper]).any():
            return None
        try:
            lu = splu(A[:, basis])
        except RuntimeError:  # exactly singular
            return None
        u = np.abs(lu.U.diagonal())
        if u.min(initial=np.inf) <= PIVOT_TOL * u.max(initial=0.0):
            return None
        x = np.where(upper, ub, lb)
        x[basis] = 0.0
        xb = x[basis] = lu.solve(b - A @ x)
        pos = np.flatnonzero((xb < lb[basis] - FEAS_TOL) | (xb > ub[basis] + FEAS_TOL))
        slack = basis[pos]
        if (slack < N - m).any() or (pos.size and not phase1):
            return None  # a basic structural, or a slack without phase 1, outside its bounds
        if pos.size:  # `basis` is ascending, so the slacks' rows are in order
            k = len(pos)
            e = xb[pos] - lb[slack]
            coef = A.data[A.indptr[slack]]  # a slack column's one entry
            art = sp.csc_matrix((np.sign(coef * e), (slack - (N - m), np.arange(k))), shape=(m, k))
            x[slack] = lb[slack]
            vstat[slack] = AT_LOWER
            basis[pos] = N + np.arange(k)
            A = sp.hstack([A, art], format="csc")
            lb = np.concatenate([lb, np.zeros(k)])
            ub = np.concatenate([ub, np.full(k, np.inf)])
            vstat = np.concatenate([vstat, np.full(k, BASIC, dtype=np.int8)])
            x = np.concatenate([x, np.abs(e)])
            lu = splu(A[:, basis])
        return cls(A, b, lb, ub, basis, vstat, x, lu)

    def _column(self, j):
        A = self.A
        lo, hi = A.indptr[j], A.indptr[j + 1]
        col = np.zeros(self.m)
        col[A.indices[lo:hi]] = A.data[lo:hi]
        return col

    def _refactor(self):
        """A fresh LU of the current basis matrix, with no etas."""
        self.factorizations += 1
        self.lu, self.etas = splu(self.A[:, self.basis]), []

    @staticmethod
    def _ftran(lu, etas, r):
        """B^-1 r for B = B0 E1 ... Ek: the LU of B0, then each eta in order."""
        z = lu.solve(r)
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
        return lu.solve(r, trans="T")

    def _basic_values(self):
        """Set x_B to B^-1 (b - A_N x_N) from the factorisation."""
        xx = self.x.copy()
        xx[self.basis] = 0.0
        self.x[self.basis] = self._ftran(self.lu, self.etas, self.b - self.A @ xx)

    def run(self, c):
        """One phase: minimise c x from the current basis and LU. OPTIMAL
        leaves a fresh LU of the final basis, with no etas."""
        basis, vstat, x, lb, ub = self.basis, self.vstat, self.x, self.lb, self.ub
        # optimality tolerance relative to the cost magnitude: with costs of
        # order 1e11 the roundoff in reduced costs dwarfs any absolute cutoff
        d_tol = OPT_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))
        movable = ub > lb
        fresh = True  # the LU is new to this phase: recompute x_B and d, which steps update in between
        weights = np.ones(len(c))  # devex reference weights
        obj = float((c * x).sum())  # running objective, lowered by each step
        stall = 0  # steps in a row without a relative 1e-10 improvement
        while True:
            if self.iters >= MAX_ITERS:
                self._basic_values()
                return Status.ITERATION_LIMIT
            if fresh:
                self._basic_values()
                d = c - self.AT @ self._btran(self.lu, self.etas, c[basis])
                fresh = False
            elig = movable & (
                ((vstat == AT_LOWER) & (d < -d_tol)) | ((vstat == AT_UPPER) & (d > d_tol))
            )
            cand = np.nonzero(elig)[0]
            if cand.size == 0:
                if not self.etas:
                    return Status.OPTIMAL
                # confirm optimality on a fresh factorisation
                self._refactor()
                fresh = True
                continue
            if stall >= STALL_LIMIT:  # Bland's rule
                q = int(cand[0])
                self.bland_iters += 1
            else:
                dc = d[cand]
                q = int(cand[np.argmax(dc * dc / weights[cand])])
            sigma = 1.0 if vstat[q] == AT_LOWER else -1.0
            w = self._ftran(self.lu, self.etas, self._column(q))
            dxb = -sigma * w
            t_basic, leave_p, leave_to = _ratio_test(dxb, x[basis], lb[basis], ub[basis], basis, PIVOT_TOL)

            t_flip = ub[q] - lb[q]
            step = min(t_flip, t_basic)
            if np.isinf(step):
                self.ray_var = q
                return Status.UNBOUNDED
            gain = abs(d[q]) * step
            obj -= gain
            stall = 0 if gain > 1e-10 * (1.0 + abs(obj)) else stall + 1
            if t_flip <= t_basic:
                x[basis] += dxb * t_flip
                x[q] = ub[q] if vstat[q] == AT_LOWER else lb[q]
                vstat[q] = AT_UPPER if vstat[q] == AT_LOWER else AT_LOWER
            else:
                x[basis] += dxb * t_basic
                x[q] = x[q] + sigma * t_basic
                v_leave = basis[leave_p]
                x[v_leave] = lb[v_leave] if leave_to == AT_LOWER else ub[v_leave]
                vstat[v_leave] = leave_to
                # pivot row alpha_r = A^T B^-T e_r of the basis before the change
                e_r = np.zeros(self.m)
                e_r[leave_p] = 1.0
                alpha = self.AT @ self._btran(self.lu, self.etas, e_r)
                a_rq, w_q = alpha[q], weights[q]
                d -= (d[q] / a_rq) * alpha
                np.maximum(weights, np.square(alpha / a_rq) * w_q, out=weights)
                weights[v_leave] = max(w_q / a_rq**2, 1.0)
                basis[leave_p] = q
                vstat[q] = BASIC
                self.etas.append((leave_p, w))
                if len(self.etas) >= REFACTOR_EVERY:
                    self._refactor()
                    fresh = True

            self.iters += 1


def _crash(A, c, ub, n):
    """A triangular crash basis (Bixby 1992; Maros 2003, ch. 9) over the
    standard form `A` (n structurals, then m slacks), or None when it has no
    structural. Rows are visited in order; a row's candidates are the
    structurals j with a_rj > 0, c_j < 0, ub_j infinite and no entry in a row
    already given a structural. The candidate of least c_j / a_rj (the first
    in CSR order on a tie) becomes basic in place of the row's slack, and
    every column with an entry in the row is blocked. Each chosen column has
    no entry in the rows chosen before it, so the basis matrix is lower
    triangular with a positive diagonal, up to a permutation."""
    m = A.shape[0]
    R = A[:, :n].tocsr()
    row = np.repeat(np.arange(m), np.diff(R.indptr))
    ok = (R.data > 0) & (c < 0)[R.indices] & np.isinf(ub[R.indices])
    vstat = np.r_[np.full(n, AT_LOWER, np.int8), np.full(m, BASIC, np.int8)]
    blocked = np.zeros(n, dtype=bool)
    for r in np.unique(row[ok]):  # the rows with a candidate before any is blocked
        lo, hi = R.indptr[r], R.indptr[r + 1]
        cols = R.indices[lo:hi]
        cand = np.flatnonzero(ok[lo:hi] & ~blocked[cols])
        if cand.size:
            vstat[cols[cand[np.argmin(c[cols[cand]] / R.data[lo + cand])]]] = BASIC
            vstat[n + r] = AT_LOWER
            blocked[cols] = True
    return vstat if (vstat[:n] == BASIC).any() else None


_FORMS = weakref.WeakKeyDictionary()  # Rows -> what _standard_form returns


def _standard_form(lp: LinearProgram):
    """(rs, cs, sign, A) of `lp.rows`: the row and column scales, each
    slack's coefficient (-1 on a >= row, else 1) and the standard form
    A = [diag(rs) A diag(cs), diag(sign)] (n structural, then m slack
    columns). Built on the first solve of these rows, then taken from
    `_FORMS` while they live: `Rows` hashes by identity, and no Rows is
    mutated after construction."""
    rows = lp.rows
    form = _FORMS.get(rows)
    if form is None:
        A = lp.matrix()
        m = A.shape[0]
        rs, cs = _geometric_scaling(A)
        As = (sp.diags(rs) @ A @ sp.diags(cs)).tocsc()
        sign = np.where(rows.sense == GE, -1.0, 1.0)
        A_std = sp.hstack([As, sp.diags(sign, shape=(m, m), format="csc")], format="csc")
        form = _FORMS[rows] = (rs, cs, sign, A_std)
    return form


def solve(lp: LinearProgram, start=None) -> LpSolution:
    """Solve a bounded-variable LP; statuses Optimal/Infeasible/Unbounded or
    IterationLimit, after MAX_ITERS iterations of both phases together.

    On IterationLimit `x` is the point where the simplex stopped, its basic
    values recomputed from the factorisation. A stop in phase 2 leaves a
    point feasible to tolerance; a stop in phase 1 leaves one that may
    violate rows, as `max_primal_infeasibility` reports.

    `start` is a basis to run from, as in `LpSolution.basis`: one status per
    structural and slack variable. The start rule: the solve runs from the
    first candidate that `_Loop.start` accepts, in order the given `start`, the
    crash basis of `_crash` (built only if `start` is not taken) and the
    all-slack basis. A candidate may need phase 1 only if the all-slack basis
    does too (tested on the scaled b - A lb against the slack bounds, without
    a factorisation), and the all-slack basis always may. `started_from` in
    the result names the start: "given", "crash" or "slack".

    `basis` in the result is None unless the status is Optimal; an
    artificial left basic at zero is replaced there by its row's slack,
    whose column is the same up to sign."""
    lp.validate()
    n = lp.num_vars
    rs, cs, sign, A_std = _standard_form(lp)
    m = len(rs)
    bs = lp.rhs() * rs
    lb = lp.lower / cs
    ub = lp.upper / cs
    c_struct = lp.objective * cs

    lb_all = np.concatenate([lb, np.zeros(m)])
    ub_all = np.concatenate([ub, np.where(lp.rows.sense == EQ, 0.0, np.inf)])

    s = (bs - A_std @ lb_all) * sign  # the slacks' values at the all-slack basis
    slack_feasible = ((s >= -FEAS_TOL) & (s <= ub_all[n:] + FEAS_TOL)).all()

    def candidates():
        yield "given", start
        yield "crash", _crash(A_std, c_struct, ub, n)
        yield "slack", np.r_[np.full(n, AT_LOWER, np.int8), np.full(m, BASIC, np.int8)]

    for started_from, candidate in candidates():
        loop = _Loop.start(A_std, bs, lb_all, ub_all, candidate, started_from == "slack" or not slack_feasible)
        if loop is not None:
            break
    n_art = loop.A.shape[1] - n - m
    status, phase1_iterations, unsatisfied = None, 0, None
    with np.errstate(over="ignore", invalid="ignore"):  # callers report a non-finite optimum
        if n_art:
            c1 = np.zeros(n + m + n_art)
            c1[n + m :] = 1.0
            status = loop.run(c1)
            phase1_iterations = loop.iters
            art_sum = float(np.sum(loop.x[n + m :]))
            if status == Status.UNBOUNDED or (
                status == Status.OPTIMAL and art_sum > FEAS_TOL * (1.0 + np.abs(bs).max(initial=0.0))
            ):
                status = Status.INFEASIBLE
                # an artificial's one entry is on its row, and they are in row order
                art = n + m + np.flatnonzero(loop.x[n + m :] > FEAS_TOL)
                unsatisfied = loop.A.indices[loop.A.indptr[art]].tolist()
            elif status == Status.OPTIMAL:  # pin the artificials at zero for phase 2
                status = None
                loop.ub[n + m :] = 0.0
                loop.x[n + m :] = 0.0
        if status is None:  # phase 2, on the LU phase 1 ended with
            status = loop.run(np.concatenate([c_struct, np.zeros(m + n_art)]))
        x = loop.x[:n] * cs
        rep = check_solution(lp, x)
    final = None
    if status == Status.OPTIMAL:
        # a basic artificial (at 0) gives its place to its row's slack, whose
        # column is the same up to sign
        final = loop.vstat[: n + m].copy()
        final[n + loop.A.indices[loop.A.indptr[loop.basis[loop.basis >= n + m]]]] = BASIC
    return LpSolution(
        status=status,
        x=x,
        objective_value=rep.objective,
        iterations=loop.iters,
        max_primal_infeasibility=rep.max_violation,
        ray_var=loop.ray_var,
        factorizations=loop.factorizations,
        phase1_iterations=phase1_iterations,
        bland_iterations=loop.bland_iters,
        basis=final,
        started_from=started_from,
        unsatisfied_rows=unsatisfied,
    )
