"""Solver correctness: hand-checked programs, randomized comparison against
the exhaustive vertex-enumeration oracle, and determinism."""
import numpy as np
import pytest
import scipy.sparse as sp

from ccsplan import simplex
from ccsplan.lp import LinearProgram, Row, Status
from ccsplan.oracle import enumerate_oracle
from ccsplan.simplex import AT_LOWER, AT_UPPER, BASIC, _Loop, _ratio_test, solve


def lp_of(c, A, senses, rhs, lower=None, upper=None):
    n = len(c)
    rows = [
        Row(idx=np.arange(n), val=np.asarray(a, dtype=float), sense=s, rhs=float(r), name=f"r{i}")
        for i, (a, s, r) in enumerate(zip(A, senses, rhs))
    ]
    return LinearProgram(
        num_vars=n,
        objective=np.asarray(c, dtype=float),
        rows=rows,
        lower=np.zeros(n) if lower is None else np.asarray(lower, dtype=float),
        upper=np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float),
    )


def solve_unscaled(lp, monkeypatch):
    """Solve with unit row and column scales in place of the equilibration."""
    with monkeypatch.context() as mp:
        mp.setattr(simplex, "_geometric_scaling", lambda A: (np.ones(A.shape[0]), np.ones(A.shape[1])))
        return solve(lp)


def random_lp(rng):
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 5))
    A = rng.normal(size=(m, n)).round(2)
    c = rng.normal(size=n).round(2)
    upper = np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0.5, 3.0, n).round(2))
    senses = ["<=" if rng.random() < 0.7 else ">=" for _ in range(m)]
    rhs = [round(float(rng.normal()), 2) for _ in range(m)]
    return lp_of(c, A, senses, rhs, upper=upper)


def test_simple_bounded_optimum():
    lp = lp_of([-1.0, -2.0], [[1.0, 1.0]], ["<="], [4.0], upper=[np.inf, 3.0])
    sol = solve(lp)
    assert sol.status == Status.OPTIMAL
    assert sol.objective_value == pytest.approx(-7.0)
    np.testing.assert_allclose(sol.x, [1.0, 3.0], atol=1e-9)


def test_equality_row_needs_phase_one():
    lp = lp_of([1.0, 1.0], [[1.0, 2.0]], ["="], [4.0])
    sol = solve(lp)
    assert sol.status == Status.OPTIMAL
    assert sol.objective_value == pytest.approx(2.0)


def test_infeasible_detected():
    # x <= 1 and x >= 2: phase 1 meets the first row and leaves the second
    lp = lp_of([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0])
    sol = solve(lp)
    assert sol.status == Status.INFEASIBLE and sol.unsatisfied_rows == [1]
    assert enumerate_oracle(lp).unsatisfied_rows is None
    assert solve(lp_of([1.0], [[1.0]], [">="], [2.0])).unsatisfied_rows is None


def test_unbounded_detected_with_ray_var():
    lp = lp_of([-1.0, 0.0], [[0.0, 1.0]], ["<="], [1.0])
    sol = solve(lp)
    assert sol.status == Status.UNBOUNDED
    assert sol.ray_var is not None


def test_bound_flip_optimum():
    # both variables end at their upper bounds without any row being tight
    lp = lp_of([-1.0, -1.0], [[1.0, 1.0]], ["<="], [10.0], upper=[2.0, 3.0])
    sol = solve(lp)
    assert sol.status == Status.OPTIMAL
    np.testing.assert_allclose(sol.x, [2.0, 3.0], atol=1e-9)


def test_degenerate_vertex_terminates():
    # several redundant rows meet at the optimum
    lp = lp_of(
        [-1.0, -1.0],
        [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        ["<=", "<=", "<=", "<="],
        [1.0, 1.0, 1.0, 2.0],
    )
    sol = solve(lp)
    assert sol.status == Status.OPTIMAL
    assert sol.objective_value == pytest.approx(-2.0)


def beale_lp():
    """Beale's 1955 cycling example: min -1/20 at x = (1/25, 0, 1, 0)."""
    return lp_of(
        [-0.75, 150.0, -0.02, 6.0],
        [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
        ["<=", "<=", "<="],
        [0.0, 0.0, 1.0],
    )


def test_bland_rule_breaks_the_cycle_of_dantzig_pricing(monkeypatch):
    # unscaled, Dantzig's rule (largest |d_j|) cycles on Beale's program;
    # devex pricing does not, and Bland's rule on every pivot terminates too
    sol = solve_unscaled(beale_lp(), monkeypatch)
    assert sol.status == Status.OPTIMAL and sol.bland_iterations == 0
    assert sol.objective_value == pytest.approx(-0.05)
    monkeypatch.setattr(simplex, "STALL_LIMIT", 0)
    bland = solve_unscaled(beale_lp(), monkeypatch)
    assert bland.status == Status.OPTIMAL
    assert bland.objective_value == pytest.approx(-0.05)
    assert bland.bland_iterations == bland.iterations > 0


def test_bland_rule_after_a_few_degenerate_pivots(monkeypatch):
    default = solve(beale_lp())
    monkeypatch.setattr(simplex, "STALL_LIMIT", 1)
    bland = solve(beale_lp())
    assert default.status == bland.status == Status.OPTIMAL
    assert default.bland_iterations == 0 < bland.bland_iterations
    assert bland.objective_value == pytest.approx(default.objective_value, rel=1e-9)
    np.testing.assert_allclose(bland.x, [0.04, 0.0, 1.0, 0.0], atol=1e-12)


def test_fixed_variables_respected():
    lp = lp_of([-5.0, 1.0], [[1.0, 1.0]], ["<="], [10.0], lower=[2.0, 0.0], upper=[2.0, np.inf])
    sol = solve(lp)
    assert sol.status == Status.OPTIMAL
    assert sol.x[0] == pytest.approx(2.0)


def test_program_without_rows():
    lp = LinearProgram(num_vars=2, objective=np.array([-1.0, 1.0]), rows=[],
                       lower=np.zeros(2), upper=np.array([3.0, np.inf]))
    sol = solve(lp)
    assert sol.status == Status.OPTIMAL
    np.testing.assert_array_equal(sol.x, [3.0, 0.0])
    lp.upper[0] = np.inf
    assert solve(lp).status == Status.UNBOUNDED


def test_rows_without_nonzeros(monkeypatch):
    # 0 <= 1 and 0 = 0 hold everywhere; 0 >= 1 holds nowhere
    def with_rows(*rows):
        return LinearProgram(
            num_vars=2, objective=np.array([-1.0, 1.0]),
            rows=[Row(np.zeros(0, dtype=int), np.zeros(0), s, r, f"r{i}") for i, (s, r) in enumerate(rows)],
            lower=np.zeros(2), upper=np.array([3.0, np.inf]),
        )

    lp = with_rows(("<=", 1.0), ("=", 0.0))
    assert lp.matrix().shape == (2, 2) and lp.matrix().nnz == 0
    for sol in (solve(lp), solve_unscaled(lp, monkeypatch)):
        assert sol.status == Status.OPTIMAL
        np.testing.assert_array_equal(sol.x, [3.0, 0.0])
    assert enumerate_oracle(lp).objective_value == -3.0
    assert solve(with_rows((">=", 1.0))).status == Status.INFEASIBLE
    assert enumerate_oracle(with_rows((">=", 1.0))).status == Status.INFEASIBLE


def scaling_with_ufunc_at(A):
    """The row and column scales as computed with np.maximum.at and
    np.minimum.at over the COO entries: the reference for _geometric_scaling."""
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


@pytest.mark.parametrize("seed", range(20))
def test_scaling_matches_the_ufunc_at_reference(seed):
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(1, 30, size=2))
    dense = np.where(rng.random((m, n)) < 0.3, rng.lognormal(0.0, 4.0, (m, n)) * rng.choice([-1, 1], (m, n)), 0.0)
    stored = (dense != 0) | (rng.random((m, n)) < 0.1)  # plus explicit zeros
    stored[rng.random(m) < 0.2] = False  # empty rows
    stored[:, rng.random(n) < 0.2] = False  # empty columns
    rows, cols = np.nonzero(stored)
    A = sp.csr_matrix((dense[rows, cols], cols, np.searchsorted(rows, np.arange(m + 1))), shape=(m, n))
    assert A.nnz == stored.sum()
    for got, want in zip(simplex._geometric_scaling(A), scaling_with_ufunc_at(A)):
        assert np.array_equal(got, want)


def warm_lp():
    """Optimum x = (0, 0, 8). The >= row is violated at x = 0, so the cold
    start needs phase 1; x1 and x2 have the same column."""
    return lp_of(
        [-1.0, -1.0, -2.0], [[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]], ["<=", ">="], [8.0, 1.0],
        upper=[5.0, np.inf, np.inf],
    )


@pytest.mark.parametrize(
    "lp",
    [warm_lp(), lp_of([-1.0, -2.0], [[1.0, 1.0]], ["<="], [4.0], upper=[np.inf, 3.0])],
    ids=["phase-one", "at-upper"],
)
def test_warm_start_from_an_optimal_basis(lp, monkeypatch):
    cold = solve(lp)
    factored = []
    splu = simplex.splu
    monkeypatch.setattr(simplex, "splu", lambda *a, **kw: factored.append(1) or splu(*a, **kw))
    warm = solve(lp, start=cold.basis)
    assert len(factored) == warm.factorizations == 1  # phase 2 reuses the start's LU
    assert cold.status == warm.status == Status.OPTIMAL
    assert cold.started_from != "given" and warm.started_from == "given"
    assert warm.iterations == warm.phase1_iterations == 0
    np.testing.assert_allclose(warm.x, cold.x, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(warm.basis, cold.basis)


B, L, U = BASIC, AT_LOWER, AT_UPPER


@pytest.mark.parametrize(
    "lp, start",
    [  # statuses of x0, x1, x2 and the two slacks of warm_lp
        pytest.param(warm_lp(), [L, L, L, B], id="wrong-length"),
        pytest.param(warm_lp(), [B, B, B, L, L], id="three-basic"),
        pytest.param(warm_lp(), [L, U, L, B, B], id="upper-on-infinite-bound"),
        pytest.param(warm_lp(), [L, B, B, L, L], id="singular"),
        pytest.param(warm_lp(), [B, L, L, B, L], id="structural-out-of-bounds"),  # x0 would be -1
        pytest.param(warm_lp(), [L, L, B, B, 7], id="unknown-status"),
        # x0 at its upper bound 5 puts the slack at 4 - 5 < 0, so the start
        # needs phase 1, while the all-slack start (x = 0) is feasible
        pytest.param(
            lp_of([-1.0, -1.0], [[1.0, 1.0], [1.0, -1.0]], ["<=", "<="], [4.0, 2.0], upper=[5.0, np.inf]),
            [U, L, B, B], id="needs-phase-one-against-a-feasible-slack-start",
        ),
        # two equal columns in two equal rows: solving with B would give 0/0
        pytest.param(
            lp_of([-1.0, -2.0], [[1.0, 1.0], [1.0, 1.0]], ["<=", "<="], [4.0, 4.0]), [B, B, L, L],
            id="singular-consistent",
        ),
    ],
)
def test_unusable_start_falls_back_to_the_cold_solve(lp, start):
    cold = solve(lp)
    sol = solve(lp, start=np.array(start, dtype=np.int8))
    assert sol.started_from != "given"
    np.testing.assert_array_equal(sol.x, cold.x)
    np.testing.assert_array_equal(sol.basis, cold.basis)
    assert (sol.status, sol.objective_value, sol.iterations, sol.phase1_iterations, sol.factorizations) == (
        cold.status, cold.objective_value, cold.iterations, cold.phase1_iterations, cold.factorizations,
    )


@pytest.mark.parametrize(
    "start",
    [
        pytest.param([L, L, L, B, B], id="primal-infeasible"),  # the >= slack would be -1
        pytest.param([U, L, B, B, L], id="primal-infeasible-at-upper"),  # x2 = 6, s0 = -3
    ],
)
def test_infeasible_slack_start_runs_phase_one(start):
    # an artificial carries the slack's excess, so the start is kept
    cold = solve(warm_lp())
    sol = solve(warm_lp(), start=np.array(start, dtype=np.int8))
    assert sol.started_from == "given" and sol.phase1_iterations > 0
    assert cold.status == sol.status == Status.OPTIMAL
    assert sol.objective_value == pytest.approx(cold.objective_value, rel=1e-12)
    np.testing.assert_allclose(sol.x, cold.x, rtol=1e-12, atol=1e-12)


def test_start_lu_factorises_the_basis_with_artificials():
    # from x0 basic at 2 (the >= row), s0 would be 3 - 4 = -1: an artificial
    # with column -e_0 replaces it, and the LU is that of the new basis
    lp = lp_of([-1.0, 1.0], [[2.0, 0.0], [1.0, 1.0], [1.0, 1.0]], ["<=", "<=", ">="], [3.0, 5.0, 2.0])
    A = sp.hstack([lp.matrix(), sp.diags([1.0, 1.0, -1.0])], format="csc")
    lb, ub = np.zeros(5), np.full(5, np.inf)
    loop = _Loop.start(A, lp.rhs(), lb, ub, np.array([B, L, B, B, L]), True)
    np.testing.assert_array_equal(loop.basis, [0, 5, 3])
    np.testing.assert_array_equal(loop.A[:, 5].toarray().ravel(), [-1.0, 0.0, 0.0])
    np.testing.assert_array_equal(loop.x, [2.0, 0.0, 0.0, 3.0, 0.0, 1.0])
    np.testing.assert_array_equal(loop.vstat, [B, L, L, B, L, B])
    r = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(loop.A[:, loop.basis] @ loop.lu.solve(r), r, rtol=1e-14)


def test_left_over_artificial_gives_its_place_to_its_slack():
    # the second row is twice the first: phase 1 pivots one artificial out and
    # the other, on the second row, stays basic at zero
    lp = lp_of([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], ["=", "="], [2.0, 4.0])
    sol = solve(lp)
    assert sol.status == Status.OPTIMAL and sol.phase1_iterations > 0
    assert sol.objective_value == pytest.approx(2.0)
    np.testing.assert_array_equal(sol.basis, [B, L, L, B])  # x0 and the second row's slack
    again = solve(lp, start=sol.basis)
    assert again.started_from == "given" and again.phase1_iterations == 0
    assert again.objective_value == sol.objective_value


def test_scaling_toggle_agrees(monkeypatch):
    rng = np.random.default_rng(7)
    for _ in range(25):
        lp = random_lp(rng)
        a = solve(lp)
        b = solve_unscaled(lp, monkeypatch)
        assert a.status == b.status
        if a.status == Status.OPTIMAL:
            assert a.objective_value == pytest.approx(b.objective_value, rel=1e-7, abs=1e-9)


def test_solver_is_deterministic():
    rng = np.random.default_rng(11)
    lp = random_lp(rng)
    a, b = solve(lp), solve(lp)
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.x, b.x)


def test_relaxing_a_rhs_never_worsens_the_optimum():
    lp = lp_of([-1.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], ["<=", "<="], [4.0, 6.0])
    base = solve(lp).objective_value
    lp = lp_of([-1.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], ["<=", "<="], [5.0, 6.0])
    assert solve(lp).objective_value <= base + 1e-9


def test_oracle_guard_rejects_large_programs():
    lp = lp_of(np.zeros(13), [np.zeros(13)], ["<="], [1.0])
    with pytest.raises(ValueError, match="oracle guard"):
        enumerate_oracle(lp)


def test_oracle_matches_hand_solution():
    lp = lp_of([-1.0, -2.0], [[1.0, 1.0]], ["<="], [4.0], upper=[np.inf, 3.0])
    sol = enumerate_oracle(lp)
    assert sol.status == Status.OPTIMAL
    assert sol.objective_value == pytest.approx(-7.0)


def test_oracle_detects_infeasible_and_unbounded():
    assert enumerate_oracle(lp_of([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0])).status == Status.INFEASIBLE
    assert enumerate_oracle(lp_of([-1.0, 0.0], [[0.0, 1.0]], ["<="], [1.0])).status == Status.UNBOUNDED


def test_randomized_oracle_agreement():
    assert_oracle_agreement()


def test_bland_rule_matches_the_oracle(monkeypatch):
    monkeypatch.setattr(simplex, "STALL_LIMIT", 0)  # Bland's rule on every pivot
    assert_oracle_agreement()


def assert_oracle_agreement():
    rng = np.random.default_rng(42)
    for _ in range(60):
        lp = random_lp(rng)
        ora = enumerate_oracle(lp)
        sim = solve(lp)
        assert ora.status == sim.status, f"{ora.status} != {sim.status}"
        if ora.status == Status.OPTIMAL:
            assert sim.objective_value == pytest.approx(
                ora.objective_value, rel=1e-8, abs=1e-8
            )
            assert sim.max_primal_infeasibility <= 1e-6


def ratio_candidates(dxb, xb, lbb, ubb, pivot_tol):
    """(ratio, position, bound reached) of each basic variable that limits the step."""
    cands = []
    for p in range(len(dxb)):
        if dxb[p] < -pivot_tol:
            cands.append((max((xb[p] - lbb[p]) / -dxb[p], 0.0), p, AT_LOWER))
        elif dxb[p] > pivot_tol and np.isfinite(ubb[p]):
            cands.append((max((ubb[p] - xb[p]) / dxb[p], 0.0), p, AT_UPPER))
    return cands


def ratio_rule(dxb, xb, lbb, ubb, basis, pivot_tol):
    """The stated rule, spelled out: smallest ratio first; among ratios within
    1e-12 of the minimum, the lowest variable index."""
    cands = ratio_candidates(dxb, xb, lbb, ubb, pivot_tol)
    if not cands:
        return np.inf, -1, AT_LOWER
    t_min = min(c[0] for c in cands)
    return min((c for c in cands if c[0] <= t_min + 1e-12), key=lambda c: basis[c[1]])


def scalar_ratio_loop(dxb, x, lb, ub, basis, pivot_tol):
    """The ratio test as the solver ran it before it was vectorised, verbatim."""
    m = len(basis)
    t_basic = np.inf
    leave_p = -1
    leave_to = AT_LOWER
    for p in range(m):
        v = basis[p]
        if dxb[p] < -pivot_tol:
            lim = max((x[v] - lb[v]) / (-dxb[p]), 0.0)
            to = AT_LOWER
        elif dxb[p] > pivot_tol:
            if np.isinf(ub[v]):
                continue
            lim = max((ub[v] - x[v]) / dxb[p], 0.0)
            to = AT_UPPER
        else:
            continue
        if lim < t_basic - 1e-12 or (
            abs(lim - t_basic) <= 1e-12 and (leave_p == -1 or v < basis[leave_p])
        ):
            t_basic = lim
            leave_p = p
            leave_to = to
    return t_basic, leave_p, leave_to


def random_ratio_case(rng, degenerate=False):
    m = int(rng.integers(1, 30))
    n = m + int(rng.integers(0, 20))
    basis = rng.permutation(n)[:m]
    lb = rng.uniform(-2.0, 1.0, n)
    ub = np.where(rng.random(n) < 0.3, np.inf, lb + rng.uniform(0.1, 5.0, n))
    x = lb + rng.random(n) * np.where(np.isinf(ub), 5.0, ub - lb)
    if degenerate:  # basic variables sitting exactly on a bound: zero ratios
        on = rng.random(n) < 0.4
        x[on] = np.where(rng.random(n) < 0.5, lb, np.where(np.isinf(ub), lb, ub))[on]
    dxb = rng.normal(size=m) * (rng.random(m) < 0.8)
    dxb[rng.random(m) < 0.1] = 1e-11  # below the pivot tolerance
    return dxb, x, lb, ub, basis


def ratio_args(dxb, x, lb, ub, basis):
    return dxb, x[basis], lb[basis], ub[basis], basis, 1e-10


@pytest.mark.parametrize("degenerate", [False, True])
def test_ratio_test_follows_the_rule(degenerate):
    rng = np.random.default_rng(5)
    for _ in range(400):
        args = ratio_args(*random_ratio_case(rng, degenerate))
        assert _ratio_test(*args) == ratio_rule(*args)


def test_ratio_test_near_ties_go_to_lowest_index():
    rng = np.random.default_rng(9)
    for _ in range(200):
        m = int(rng.integers(2, 12))
        basis = rng.permutation(3 * m)[:m]
        dxb = -np.ones(m)
        lbb = np.zeros(m)
        ubb = np.full(m, np.inf)
        # ratios 1 + k * 0.3e-12 for k in 0..7: four steps of k span 0.9e-12
        xb = 1.0 + rng.integers(0, 8, m) * 0.3e-12
        ties = np.nonzero(xb <= xb.min() + 1e-12)[0]
        expected = ties[np.argmin(basis[ties])]
        assert _ratio_test(dxb, xb, lbb, ubb, basis, 1e-10) == (xb[expected], expected, AT_LOWER)


def test_ratio_test_without_limit():
    t, p, _ = _ratio_test(np.array([1e-11, 2.0]), np.zeros(2), np.zeros(2),
                          np.array([1.0, np.inf]), np.array([3, 4]), 1e-10)
    assert (t, p) == (np.inf, -1)


def test_ratio_test_matches_scalar_loop_without_ties():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(400):
        dxb, x, lb, ub, basis = random_ratio_case(rng)
        args = ratio_args(dxb, x, lb, ub, basis)
        lims = np.sort([c[0] for c in ratio_candidates(*args[:4], 1e-10)])
        if np.any(np.diff(lims) <= 1e-12):
            continue
        checked += 1
        assert _ratio_test(*args) == scalar_ratio_loop(dxb, x, lb, ub, basis, 1e-10)
    assert checked > 300
