"""Brute-force LP optimality oracle for small programs.

Enumerates every basic solution (all choices of n active hyperplanes drawn
from constraint rows and variable bounds), keeps the feasible ones, and takes
the minimum objective. Unboundedness is detected by enumerating the vertices
of the normalised recession cone. Shares no pivoting logic with the simplex
solver on purpose.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .lp import EQ, GE, LE, LinearProgram, LpSolution, Status, check_solution

GUARD_VARS = 12
GUARD_ROWS = 12
MAX_CANDIDATES = 5_000_000
_CHUNK = 20000


def _planes(n, A, rhs, lower, upper):
    """Stack constraint rows and finite bound hyperplanes: a.x = r."""
    eye = np.eye(n)
    fin = np.isfinite(upper)
    return np.vstack([A, eye, eye[fin]]), np.concatenate([rhs, lower, upper[fin]])


def _feasible_vertices(n, A, senses, rhs, lower, upper, tol):
    """All feasible basic points of {A x (sense) rhs, lower <= x <= upper}."""
    N, R = _planes(n, A, rhs, lower, upper)
    P = N.shape[0]
    if P < n:
        return np.empty((0, n))
    combs = list(combinations(range(P), n))
    if len(combs) > MAX_CANDIDATES:
        raise ValueError(f"enumeration too large: {len(combs)} candidate active sets")
    le, ge, eq = (senses == s for s in (LE, GE, EQ))
    out = []
    for lo in range(0, len(combs), _CHUNK):
        sel = np.array(combs[lo : lo + _CHUNK])
        M = N[sel]  # (c, n, n)
        r = R[sel]
        norms = np.linalg.norm(M, axis=2)
        dets = np.abs(np.linalg.det(M))
        ok = dets > 1e-10 * np.maximum(np.prod(np.maximum(norms, 1e-30), axis=1), 1e-30)
        if not ok.any():
            continue
        try:
            X = np.linalg.solve(M[ok], r[ok][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # borderline singular slipped the det filter
            X = np.array([_try_solve(Mi, ri, n) for Mi, ri in zip(M[ok], r[ok])])
        ax = X @ A.T
        row_ok = (
            np.all(ax[:, le] <= rhs[le] + tol, axis=1)
            & np.all(ax[:, ge] >= rhs[ge] - tol, axis=1)
            & np.all(np.abs(ax[:, eq] - rhs[eq]) <= tol, axis=1)
        )
        bok = np.all(X >= lower - tol, axis=1) & np.all(X <= upper + tol, axis=1)
        good = row_ok & bok & np.all(np.isfinite(X), axis=1)
        if good.any():
            out.append(X[good])
    return np.vstack(out) if out else np.empty((0, n))


def _try_solve(M, r, n):
    try:
        return np.linalg.solve(M, r)
    except np.linalg.LinAlgError:
        return np.full(n, np.nan)


def _improving_ray(lp: LinearProgram, tol: float):
    """A recession direction with negative objective slope, if one exists.

    Directions d satisfy: row recession conditions, d >= 0 (all lowers are
    finite), d_j = 0 where the upper bound is finite, sum(d) = 1.
    """
    n = lp.num_vars
    free = np.isinf(lp.upper)
    if not free.any():
        return None
    A = lp.matrix().toarray()
    senses = np.append(lp.rows.sense, EQ)
    Aray = np.vstack([A, np.ones((1, n))])
    rhs = np.concatenate([np.zeros(A.shape[0]), [1.0]])
    lower = np.zeros(n)
    upper = np.where(free, 1.0, 0.0)
    verts = _feasible_vertices(n, Aray, senses, rhs, lower, upper, tol)
    if verts.shape[0] == 0:
        return None
    slopes = verts @ lp.objective
    j = int(np.argmin(slopes))
    if slopes[j] < -1e-9 * (1.0 + np.abs(lp.objective).max(initial=0.0)):
        return verts[j]
    return None


def enumerate_oracle(lp: LinearProgram) -> LpSolution:
    """Exact optimum of a small LP by exhaustive basic-solution enumeration.

    Guard: at most 12 variables and 12 rows. Independent of `simplex.solve`.
    """
    if lp.num_vars > GUARD_VARS or len(lp.rows) > GUARD_ROWS:
        raise ValueError(
            f"oracle guard: {lp.num_vars} vars / {len(lp.rows)} rows exceeds "
            f"{GUARD_VARS} / {GUARD_ROWS}"
        )
    lp.validate()
    n = lp.num_vars
    A = lp.matrix().toarray()
    rhs = lp.rhs()
    scale = max(
        1.0,
        np.abs(rhs).max(initial=0.0),
        np.abs(lp.lower).max(initial=0.0),
        np.abs(lp.upper[np.isfinite(lp.upper)]).max(initial=0.0),
    )
    tol = 1e-7 * scale

    verts = _feasible_vertices(n, A, lp.rows.sense, rhs, lp.lower, lp.upper, tol)

    def result(status, x, count):
        rep = check_solution(lp, x)
        return LpSolution(
            status=status,
            x=x,
            objective_value=rep.objective,
            iterations=count,
            max_primal_infeasibility=rep.max_violation,
        )

    if verts.shape[0] == 0:
        # all lower bounds finite => the feasible set, if non-empty, is
        # pointed and therefore has a vertex
        return result(Status.INFEASIBLE, np.zeros(n), 0)

    ray = _improving_ray(lp, 1e-9)
    objs = verts @ lp.objective
    best = int(np.argmin(objs))
    if ray is not None:
        return result(Status.UNBOUNDED, verts[best], verts.shape[0])
    return result(Status.OPTIMAL, verts[best], verts.shape[0])
