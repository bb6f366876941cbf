"""Active-set QP/LP solver and simplex projection, checked against scipy."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from tariff_complex import QpProblem, find_feasible_point, project_simplex, solve_qp, subqp
from tariff_complex.subqp import (_check_psd, _factor_working_set, _independent_subset,
                                  _join_working_set, _leave_working_set, reduce_qp, reduce_rows)
from conftest import assert_same_solution


def test_project_simplex_basic_points():
    assert np.allclose(project_simplex(np.array([0.2, 0.3, 0.5])), [0.2, 0.3, 0.5])
    assert np.array_equal(project_simplex(np.array([5.0, -1.0])), [1.0, 0.0])
    assert np.allclose(project_simplex(np.zeros(4)), np.full(4, 0.25))


def test_project_simplex_variational_inequality():
    # y = argmin |y - p|^2 over the simplex iff (z - y) . (p - y) <= 0 for
    # all feasible z; checked on random corners and interior points.
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        p = rng.normal(scale=3.0, size=n)
        y = project_simplex(p)
        assert y.min() >= 0.0
        assert abs(y.sum() - 1.0) <= 1e-12
        Z = rng.dirichlet(np.ones(n), size=20)
        Z = np.vstack([Z, np.eye(n)])
        assert np.max((Z - y) @ (p - y)) <= 1e-10


def test_lp_against_linprog():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        G = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        h = G @ x0 + rng.uniform(0.1, 1.0, size=m)  # x0 strictly feasible
        G = np.vstack([G, np.eye(n), -np.eye(n)])  # box keeps the LP bounded
        h = np.concatenate([h, np.full(n, 10.0), np.full(n, 10.0)])
        c = rng.normal(size=n)
        sol = solve_qp(QpProblem(Q=None, c=c, G=G, h=h))
        ref = linprog(c, A_ub=G, b_ub=h, bounds=(None, None), method="highs")
        assert sol.status == "optimal"
        assert ref.status == 0
        assert sol.value == pytest.approx(ref.fun, abs=1e-7)
        assert np.all(G @ sol.z <= h + 1e-8)


def test_qp_against_slsqp():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        B = rng.normal(size=(n, n))
        Q = B @ B.T + 0.5 * np.eye(n)
        c = rng.normal(size=n)
        G = np.vstack([np.eye(n), -np.eye(n)])
        h = np.concatenate([rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)])
        prob = QpProblem(Q=Q, c=c, G=G, h=h)
        sol = solve_qp(prob)
        ref = minimize(lambda z: 0.5 * z @ Q @ z + c @ z, np.zeros(n),
                       jac=lambda z: Q @ z + c, method="SLSQP",
                       constraints=[{"type": "ineq", "fun": lambda z: h - G @ z}],
                       options={"ftol": 1e-12, "maxiter": 500})
        assert sol.status == "optimal"
        assert sol.value <= ref.fun + 1e-7
        assert sol.kkt_residual <= 1e-8


def test_singular_qp_rides_zero_curvature_to_boundary():
    # regression: rank-1 Q with a gradient component in its null space; the
    # minimizer sits on the boundary and a naive Newton step explodes
    Q = np.array([[4.4770443421058665, 4.8968336504665855],
                  [4.8968336504665855, 5.35598443259173]])
    c = np.array([-4.793551842141461, -5.290992715137223])
    G = np.array([[0.98394320292104, 1.2542641495407463],
                  [0.0, 0.0],
                  [-1.816336652573072, -1.986645152750943],
                  [1.816336652573072, 1.986645152750943],
                  [1.0, 0.0],
                  [0.0, 1.0],
                  [-1.0, -0.0],
                  [-0.0, -1.0]])
    h = np.array([3.0186170026027517, 0.5383516176458443,
                  -1.6264654239046117, 2.7031686591963, 4.0, 4.0, -0.0, -0.0])
    sol = solve_qp(QpProblem(Q=Q, c=c, G=G, h=h))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(-2.613394816953262, abs=1e-9)
    assert np.allclose(sol.z, [0.0, 0.9878655888058552], atol=1e-8)
    assert sol.kkt_residual <= 1e-8


def test_singular_qp_family_against_slsqp():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        B = rng.normal(size=(n, n - 1))  # rank-deficient by construction
        Q = B @ B.T
        c = rng.normal(size=n)
        G = np.vstack([np.eye(n), -np.eye(n)])
        h = np.concatenate([rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)])
        sol = solve_qp(QpProblem(Q=Q, c=c, G=G, h=h))
        ref = minimize(lambda z: 0.5 * z @ Q @ z + c @ z, np.zeros(n),
                       jac=lambda z: Q @ z + c, method="SLSQP",
                       constraints=[{"type": "ineq", "fun": lambda z: h - G @ z}],
                       options={"ftol": 1e-12, "maxiter": 500})
        assert sol.status == "optimal"
        assert sol.value <= ref.fun + 1e-7
        assert sol.kkt_residual <= 1e-8


def test_equality_projection_analytic():
    # min |z - p|^2 s.t. sum z = 1 has solution p - (sum p - 1)/n.
    p = np.array([0.9, -0.4, 1.7])
    prob = QpProblem(Q=2.0 * np.eye(3), c=-2.0 * p,
                     A=np.ones((1, 3)), b=np.array([1.0]))
    sol = solve_qp(prob)
    assert sol.status == "optimal"
    assert np.allclose(sol.z, p - (p.sum() - 1.0) / 3.0, atol=1e-10)


def test_infeasible_and_unbounded_detection():
    n = 2
    bad = QpProblem(Q=None, c=np.zeros(n),
                    G=np.vstack([np.eye(n), -np.eye(n)]),
                    h=np.concatenate([-np.ones(n), np.zeros(n)]))  # z <= -1, z >= 0
    assert solve_qp(bad).status == "infeasible"

    free = QpProblem(Q=None, c=np.array([-1.0, 0.0]),
                     G=-np.eye(n), h=np.zeros(n))  # min -z0, z >= 0
    sol = solve_qp(free)
    assert sol.status == "unbounded"
    assert sol.ray is not None
    assert sol.ray @ free.c < 0


def test_iteration_cap_is_reported_without_a_ridge_retry(monkeypatch):
    # a QP that stops at its iteration cap says so; no ridge-regularized
    # second solve hides the cap, even when Q is nonzero
    real_core = subqp._active_set_core

    def capped(*args, **kwargs):
        u, _, work, lam, iters, ray = real_core(*args, **kwargs)
        return u, "iteration_limit", work, lam, iters, ray

    monkeypatch.setattr(subqp, "_active_set_core", capped)
    n = 3
    prob = QpProblem(Q=np.eye(n), c=-2.0 * np.ones(n), G=np.eye(n), h=np.ones(n))
    sol = solve_qp(prob)
    assert sol.status == "iteration_limit"
    assert not sol.ridge_applied


def test_warm_start_agrees_with_cold():
    rng = np.random.default_rng(17)
    n = 5
    Q = np.eye(n)
    c = rng.normal(size=n)
    G = np.vstack([np.eye(n), -np.eye(n)])
    h = np.concatenate([np.ones(n), np.ones(n)])
    prob = QpProblem(Q=Q, c=c, G=G, h=h)
    cold = solve_qp(prob)
    warm = solve_qp(prob, warm_start=rng.uniform(-1, 1, n))
    assert cold.status == warm.status == "optimal"
    assert np.allclose(cold.z, warm.z, atol=1e-9)


def test_warm_rows_outside_the_reduction_are_rejected():
    # warm rows name rows of the reduction the solve runs on: prob's own G
    # without ``reduced``, else the reduction's rows.  A negative row must not
    # wrap to a row from the end, and a row past the end must not surface as
    # a bare IndexError; a reduction row that prob does not pick is dropped
    Q, c, box = np.eye(2), np.array([3.0, -3.0]), np.vstack([np.eye(2), -np.eye(2)])
    prob = QpProblem(Q=Q, c=c, G=box, h=np.ones(4))
    red = reduce_qp(QpProblem(Q=Q, c=c, G=np.vstack([box, [[1.0, 1.0]]]), h=np.zeros(5)))
    on_red = dict(reduced=(red, np.arange(4)))
    for rows, kw, named in (([-4, -3], {}, "[-4, -3]"), ([1, 4], {}, "[4]"),
                            ([-1, 0], on_red, "[-1]"), ([0, 5, 6], on_red, "[5, 6]")):
        with pytest.raises(ValueError, match=re.escape(f"warm_active rows {named}")):
            solve_qp(prob, warm_start=np.zeros(2), warm_active=rows, **kw)
    # at the optimal vertex (-1, 1), rows 1 and 2 are tight
    vertex = np.array([-1.0, 1.0])
    assert_same_solution(solve_qp(prob, warm_start=vertex, warm_active=[1, 2, 4], **on_red),
                         solve_qp(prob, warm_start=vertex, warm_active=[1, 2]))


def test_solver_is_deterministic():
    rng = np.random.default_rng(19)
    Q = np.eye(4)
    c = rng.normal(size=4)
    G = rng.normal(size=(6, 4))
    h = G @ rng.normal(size=4) + 1.0
    prob = QpProblem(Q=Q, c=c, G=G, h=h)
    a = solve_qp(prob)
    b = solve_qp(prob)
    assert a.z.tobytes() == b.z.tobytes()
    assert a.value == b.value


def test_find_feasible_point():
    G = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    h = np.array([1.0, 0.0, 0.0])
    ok, z = find_feasible_point(G, h)
    assert ok and np.all(G @ z <= h + 1e-9)
    ok, z = find_feasible_point(np.array([[1.0], [-1.0]]), np.array([-2.0, 1.0]))
    assert not ok and z is None


def test_rejects_indefinite_q():
    with pytest.raises(ValueError):
        solve_qp(QpProblem(Q=np.array([[-1.0, 0.0], [0.0, 1.0]]), c=np.zeros(2)))


def _independent_subset_by_matrix_rank(G, cand, cap):
    """Reference greedy pick: one ``matrix_rank`` per candidate row."""
    keep = []
    for k in cand:
        if len(keep) >= cap:
            break
        if np.linalg.matrix_rank(G[keep + [int(k)]]) == len(keep) + 1:
            keep.append(int(k))
    return keep


def _planted_sum(rows):
    """The rows' exact sum, rounded once per entry, so the planted row lies
    within half an ulp of their span."""
    return np.array([math.fsum(col) for col in np.transpose(rows)])


@st.composite
def _rows_with_planted_dependencies(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["random", "duplicate", "negated", "sum", "zero"]))
        if kind == "zero":
            rows.append(np.zeros(n))
        elif kind == "random" or not rows:
            rows.append(rng.normal(size=n) * 10.0 ** draw(st.integers(-3, 3)))
        elif kind == "sum":
            picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=4))
            rows.append(_planted_sum([rows[j] for j in picks]))
        else:
            j = draw(st.integers(0, len(rows) - 1))
            rows.append(rows[j].copy() if kind == "duplicate" else -rows[j])
    G = np.array(rows)
    cand = np.array(sorted(draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))))
    cap = draw(st.integers(0, n + 2))
    return G, cand, cap


# rows 0 and 1 of a falsifying draw, and row 3 planted as the sum of rows 0,
# 1 and 2 = -1: summed left to right it lay 14 ulps off row 0, where the
# exact smallest singular value of rows 0 and 3 (1.33e-17) exceeds
# matrix_rank's tolerance (1.15e-17) and LAPACK's computed one (1.14e-17)
# does not, so the two greedy picks split on roundoff; rounded once, the
# planted sum is row 0
_R0 = np.array([0.01257302210933933, -0.013210486329130189])
_R1 = np.array([-0.535669373161111, 0.36159505490948474])


@settings(max_examples=300, deadline=None)
@given(_rows_with_planted_dependencies())
@example((np.array([_R0, _R1, -_R1, _planted_sum([_R0, _R1, -_R1])]), np.array([0, 3]), 2))
def test_independent_subset_matches_matrix_rank_greedy(case):
    G, cand, cap = case
    assert _independent_subset(G, cand, cap) == _independent_subset_by_matrix_rank(G, cand, cap)


@st.composite
def _programs_with_dependent_tight_rows(draw):
    """LP or convex QP whose optimum x* has planted dependent tight rows.

    Duplicates, positive multiples and sums of two rows tight at x* are
    tight there too; the data scale up to 1e4 so that steps are long.
    """
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(0, 4))
    x_star = rng.normal(size=n) * scale
    T = rng.normal(size=(draw(st.integers(1, n)), n))
    tight = list(T)
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["duplicate", "multiple", "sum"]))
        i = draw(st.integers(0, len(tight) - 1))
        j = draw(st.integers(0, len(tight) - 1))
        if kind == "duplicate":
            tight.append(tight[i].copy())
        elif kind == "multiple":
            tight.append(tight[i] * draw(st.floats(0.1, 10.0)))
        else:
            tight.append(tight[i] + tight[j])
    tight = np.array(tight)
    loose = rng.normal(size=(draw(st.integers(0, 4)), n))
    box = np.vstack([np.eye(n), -np.eye(n)])  # keeps the LP bounded
    G = np.vstack([tight, loose, box])
    h = np.concatenate([tight @ x_star,
                        loose @ x_star + rng.uniform(0.1, 1.0, len(loose)) * scale,
                        np.abs(box @ x_star) + scale])
    order = rng.permutation(len(h))
    G, h = G[order], h[order]
    mu = rng.uniform(0.1, 1.0, size=len(T))
    if draw(st.booleans()):
        B = rng.normal(size=(n, n))
        Q = B @ B.T + 0.5 * np.eye(n)
        c = -(Q @ x_star) - T.T @ mu * scale
    else:
        Q = None
        c = -T.T @ mu
    return QpProblem(Q=Q, c=c, G=G, h=h), scale


@settings(max_examples=200, deadline=None)
@given(_programs_with_dependent_tight_rows())
def test_dependent_tight_rows_never_share_the_active_set(case):
    prob, scale = case
    sol = solve_qp(prob)
    assert sol.status == "optimal"
    G, h, c, Q = prob.G, prob.h, prob.c, prob.Q
    tol = 1e-7 * max(1.0, abs(sol.value))
    if not np.any(Q):
        ref = linprog(c, A_ub=G, b_ub=h, bounds=(None, None), method="highs")
        assert ref.status == 0
        assert sol.value == pytest.approx(ref.fun, abs=tol)
    else:
        # SLSQP's line search stalls on the raw data at scale 1e4, so it
        # solves the same program in y = z / scale, with f divided by scale^2
        cs, hs = c / scale, h / scale
        ref = minimize(lambda y: 0.5 * y @ Q @ y + cs @ y, np.zeros(prob.n),
                       jac=lambda y: Q @ y + cs, method="SLSQP",
                       constraints=[{"type": "ineq", "fun": lambda y: hs - G @ y}],
                       options={"ftol": 1e-12, "maxiter": 500})
        assert sol.value <= ref.fun * scale**2 + tol
    active = G[sol.active_set]
    assert np.linalg.matrix_rank(active) == len(sol.active_set)
    assert sol.kkt_residual <= 1e-8


@st.composite
def _row_insertions(draw):
    """A starting working set and the rows that join it one at a time.

    Each joining row is random or lies along the first null-space column of
    the factor it joins (the case where the reflector's sign choice avoids
    cancellation), plus a small random part; rows scale up to 1e4.
    """
    n = draw(st.integers(1, 8))
    k0 = draw(st.integers(0, n - 1))
    kinds = draw(st.lists(st.sampled_from(["random", "aligned"]), min_size=1, max_size=n - k0))
    scales = [10.0 ** draw(st.integers(0, 4)) for _ in range(k0 + len(kinds))]
    return n, k0, kinds, scales, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(_row_insertions())
def test_row_insertion_updates_the_factor(case):
    n, k0, kinds, scales, seed = case
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(k0 + len(kinds), n)) * np.array(scales)[:, None]
    # the starting set is not sorted by row index, to check that join sorts
    work = list(rng.permutation(k0))
    Qf, _ = _factor_working_set(G[work])
    for i, kind in enumerate(kinds, start=k0):
        if kind == "aligned":
            G[i] = (Qf[:, len(work)] + 1e-6 * rng.normal(size=n)) * scales[i]
        _join_working_set(Qf, work, G, i)
        assert work == sorted(work) and len(set(work)) == len(work)
        k = len(work)
        Z = Qf[:, k:]
        assert np.linalg.norm(Qf.T @ Qf - np.eye(n), np.inf) <= 1e-12
        unit = G[work] / np.linalg.norm(G[work], axis=1)[:, None]
        assert np.abs(unit @ Z).max(initial=0.0) <= 1e-12
        fresh = np.linalg.qr(G[work].T, mode="complete")[0][:, k:]
        assert np.abs(Z @ Z.T - fresh @ fresh.T).max() <= 1e-10


@st.composite
def _joins_and_leaves(draw):
    """A starting working set, then rows that join it or leave it.

    Rows come from a pool of n + 2 random rows scaled up to 1e4.  A leave
    takes position ``pos % k``: the last position right after a fresh factor
    (or a join of the largest index) puts the solution of R' u = e_j on the
    last unit vector, where the reflector's sign choice avoids cancellation.
    """
    n = draw(st.integers(1, 8))
    k0 = draw(st.integers(0, n))
    ops = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 7)), min_size=1, max_size=12))
    return n, k0, ops, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(_joins_and_leaves())
def test_row_removal_updates_the_factor(case):
    n, k0, ops, seed = case
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n + 2, n)) * 10.0 ** rng.integers(0, 5, size=(n + 2, 1))
    work = sorted(rng.choice(n + 2, size=k0, replace=False).tolist())
    Qf, R = _factor_working_set(G[work])
    for leave, pos in ops:
        k = len(work)
        if k < n and (not leave or k == 0):
            _join_working_set(Qf, work, G, int(rng.choice(np.setdiff1d(np.arange(n + 2), work))))
            R = Qf[:, : k + 1].T @ G[work].T
            continue
        R = _leave_working_set(Qf, work, R, pos % k)
        k -= 1
        Y, Z = Qf[:, :k], Qf[:, k:]
        assert work == sorted(work) and len(work) == k
        assert np.linalg.norm(Qf.T @ Qf - np.eye(n), np.inf) <= 1e-12
        norms = np.linalg.norm(G[work], axis=1)
        assert np.abs(G[work] / norms[:, None] @ Z).max(initial=0.0) <= 1e-12
        fresh = np.linalg.qr(G[work].T, mode="complete")[0][:, k:]
        assert np.abs(Z @ Z.T - fresh @ fresh.T).max() <= 1e-10
        # the returned R is the remaining rows' (C' = Y R), column by column
        assert np.abs((R - Y.T @ G[work].T) / norms).max(initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), m=st.integers(1, 6), k=st.integers(1, 4), eq=st.booleans(),
       lp=st.booleans(), scale=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_reduced_rows_solve_matches_one_shot(n, m, k, eq, lp, scale, seed):
    # a program reduced once with extra rows must solve each pick of its rows
    # bit for bit as reducing the pick alone does: cold, and warm from a
    # parent with one row fewer; extra rows up to 1e8 move the zero-row
    # threshold past a binding row of norm ~1e-9, a row in A's span is
    # zeroed, and the repaired row may be any row
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(1, n)) if eq else None
    G = np.vstack([rng.normal(size=(m, n)), rng.normal(size=(1, n)) * 1e-9,
                   rng.normal(size=(k, n)) * 10.0 ** scale, np.eye(n), -np.eye(n)])
    if eq:
        G[0] = 3.0 * A[0]
    h = np.concatenate([rng.uniform(-1.0, 1.0, m), [0.0], rng.uniform(-1.0, 1.0, k),
                        np.full(2 * n, 10.0)])
    B = rng.normal(size=(n, n))
    Q, c = (None if lp else B @ B.T), rng.normal(size=n)
    red = reduce_qp(QpProblem(Q=Q, c=c, G=G, h=np.zeros(len(G)), A=A,
                              b=None if A is None else [0.5]))
    # the rows alone, each solve filling in its own objective
    red_rows = reduce_rows(G, A, None if A is None else np.array([0.5]))
    rows = np.sort(rng.choice(len(G) - 2 * n, size=rng.integers(1, m + k + 2), replace=False))
    rows = np.concatenate([rows, np.arange(len(G) - 2 * n, len(G))])  # the box stays
    at = int(rng.integers(0, len(rows) - 2 * n))  # the row the parent lacks

    def prob(r):
        return QpProblem(Q=Q, c=c, G=G[r], h=h[r], A=A, b=None if A is None else [0.5])

    parent = solve_qp(prob(np.delete(rows, at)))
    one_shot = solve_qp(prob(rows))
    assert_same_solution(solve_qp(prob(rows), reduced=(red, rows)), one_shot)
    assert_same_solution(solve_qp(prob(rows), reduced=(red_rows, rows)), one_shot)
    if parent.status != "optimal":
        return
    # the one-shot solve names the parent's working set as rows of its own G,
    # the reduced solves as rows of the reduction
    one_shot = solve_qp(prob(rows), warm_start=parent.z,
                        warm_active=[i + (i >= at) for i in parent.active_set])
    kw = dict(warm_start=parent.z, warm_active=np.delete(rows, at)[parent.active_set])
    assert_same_solution(solve_qp(prob(rows), reduced=(red, rows), **kw), one_shot)
    assert_same_solution(solve_qp(prob(rows), reduced=(red_rows, rows), **kw), one_shot)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 9), mag=st.integers(-3, 3), seed=st.integers(0, 2**32 - 1))
def test_symmetry_check_agrees_with_allclose(n, mag, seed):
    # _check_psd writes np.allclose(Q, Q.T, atol=1e-8 * scale) out by hand:
    # an off-diagonal entry moved just inside and just outside the tolerance,
    # away from zero and towards it, must get allclose's verdict.  The
    # diagonal dominates, so the move keeps the scale and Q stays positive
    # definite.
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n)) * 10.0 ** mag
    Q = B @ B.T
    Q = (Q + Q.T) / 2.0 + 2.0 * n * np.abs(Q).max() * np.eye(n)
    i, j = rng.choice(n, size=2, replace=False)
    scale = max(1.0, float(np.abs(Q).max()))
    q = Q[j, i]
    away = 1e-8 * scale + 1e-5 * abs(q)
    # towards zero, the check at (j, i) binds: rtol times the moved entry
    toward = away / (1.0 + 1e-5)
    sign = 1.0 if q >= 0.0 else -1.0
    for step in (sign * away, -sign * toward):
        if abs(step) >= abs(q) and step * q < 0.0:
            continue  # the move would cross zero
        for factor, close in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
            P = Q.copy()
            P[i, j] = q + factor * step
            assert np.allclose(P, P.T, atol=1e-8 * scale) is close
            if close:
                _check_psd(P)
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    _check_psd(P)


@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_equality_free_reduction_skips_identity_products_bit_for_bit(m, n, seed):
    # without equalities the null-space basis is the identity, and the
    # reduction skips its products; the bytes must be those of the products,
    # signed zeros included (a -0.0 entry comes back +0.0)
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.normal(size=shape)
        x[rng.random(shape) < 0.3] = -0.0
        x[rng.random(shape) < 0.2] = 0.0
        return x

    G, Q, c, v = draw(m, n), draw(n, n), draw(n), draw(n)
    eye, z0 = np.eye(n), np.zeros(n)
    red = reduce_rows(G)
    Gn, norms = subqp._unit_rows(G @ eye)
    for got, want in ((red.Gn, Gn), (red.norms, norms), (red.Gz0, G @ z0),
                      (red.big, np.maximum(np.abs(G @ eye).max(axis=1), np.abs(G).max(axis=1))),
                      (red.times_n(v), eye @ v), (red.to_u(v), eye.T @ (v - z0))):
        assert got.tobytes() == want.tobytes()
    Qu, cu = red.objective(Q, c)
    assert Qu.tobytes() == (eye.T @ Q @ eye).tobytes()
    assert cu.tobytes() == (eye.T @ (c + Q @ z0)).tobytes()
