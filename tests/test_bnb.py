"""Indicator bounds and the exact branch-and-bound solvers."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tariff_complex import (
    Beta,
    BigM,
    GeneratorConfig,
    Instance,
    PricePolytope,
    QspcOptions,
    SolverOptions,
    bigm_det,
    bigm_piece_value,
    bigm_quad,
    det_profit,
    generate,
    quad_oracle,
    quad_profit,
    quad_response,
    qspc,
    solve_cell,
    solve_det,
    solve_quad,
)
from tariff_complex import bnb, price_complex, subqp
from conftest import line_instance, make_instance, tie_instance


def test_bigm_worked_box_example():
    inst = line_instance(e=1.0, r=1.5, c=0.0, lo=1.0, hi=2.0)
    mm = bigm_det(inst)
    assert np.allclose(mm.M0, [0.5], atol=1e-12)
    assert np.allclose(mm.M, [[1.0]], atol=1e-12)
    mq = bigm_quad(inst, 1.0)
    assert np.allclose(mq.M0, [2.5], atol=1e-12)
    assert np.allclose(mq.M, [[3.0]], atol=1e-12)


def test_bigm_never_negative_and_det_limit():
    inst = line_instance(e=1.0, r=0.0, c=0.0, lo=1.0, hi=2.0)
    mm = bigm_det(inst)
    assert np.allclose(mm.M0, [0.0], atol=1e-12)  # reservation below any bill
    assert np.allclose(mm.M, [[2.0]], atol=1e-12)
    rng = np.random.default_rng(97)
    inst = make_instance(rng, S=3, W=2, H=2)
    md = bigm_det(inst)
    mq = bigm_quad(inst, 1e12)
    assert np.all(md.M0 >= 0.0) and np.all(md.M >= 0.0)
    assert np.allclose(mq.M0, md.M0, atol=1e-9)
    assert np.allclose(mq.M, md.M, atol=1e-9)


def test_bigm_rows_hold_at_oracle_solution():
    rng = np.random.default_rng(101)
    for _ in range(6):
        inst = make_instance(rng, S=2, W=2, H=1)
        beta = float(10.0 ** rng.uniform(-0.5, 1.0))
        res = quad_oracle(inst, beta)
        resp, detail = quad_response(inst, res.x, beta)
        mm = bigm_quad(inst, beta)
        V = inst.disutilities(res.x)
        for s in range(inst.S):
            mu = detail.mu[s]
            for w in range(inst.W + 1):
                expr = V[s, w] + (2.0 / beta) * resp.ybar[s, w] - mu
                assert expr >= -1e-8
                cap = mm.M0[s] if w == 0 else mm.M[s, w - 1]
                if resp.ybar[s, w] > 1e-9:
                    assert abs(expr) <= 1e-8  # active rows bind
                else:
                    assert expr <= cap + 1e-8


def test_halved_bigm_cuts_the_pinned_formulation():
    # with valid constants the all-pinned program reproduces the optimum;
    # halving them makes the same program infeasible or strictly worse
    inst = Instance(S=2, W=1, H=1, E=np.ones((2, 1, 1)),
                    R=np.array([[0.0], [60.0]]), C=np.zeros((2, 1)),
                    rho=np.array([0.5, 0.5]),
                    polytope=PricePolytope(lower=np.array([[0.0]]),
                                           upper=np.array([[100.0]])))
    beta = 1.0
    res = quad_oracle(inst, beta)
    fz = np.array(res.pattern.A)
    full = bigm_piece_value(inst, beta, fz)
    assert full == pytest.approx(res.value, abs=1e-7)
    mm = bigm_quad(inst, beta)
    halved = BigM(M=mm.M / 2.0, M0=mm.M0 / 2.0)
    cut = bigm_piece_value(inst, beta, fz, bigm=halved)
    assert cut is None or cut < res.value - 1e-3


def test_det_solver_closed_form_single_contract():
    # below lo*e the customer never buys; above hi*e they buy at every
    # feasible price (even at a loss); in between the seller prices at the
    # reservation and keeps the sale only when its margin beats walking away
    rng = np.random.default_rng(103)
    for _ in range(25):
        e = float(rng.uniform(0.3, 2.0))
        r = float(rng.uniform(0.0, 5.0))
        c = float(rng.uniform(0.0, 2.0))
        lo, hi = sorted(rng.uniform(0.1, 3.0, size=2))
        inst = line_instance(e=e, r=r, c=c, lo=lo, hi=hi, rho=0.7)
        if r < lo * e:
            expect = 0.0
        elif r > hi * e:
            expect = 0.7 * (hi * e - c)
        else:
            expect = max(0.0, 0.7 * (r - c))
        rep = solve_det(inst)
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(expect, abs=1e-8)


def test_det_solver_matches_oracle(tiny_set, tiny_det_oracles):
    for inst, res in zip(tiny_set[:8], tiny_det_oracles[:8]):
        rep = solve_det(inst)
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(res.value, abs=1e-6)
        y = rep.response.ybar
        assert np.all((y == 0.0) | (y == 1.0))
        assert np.allclose(y.sum(axis=1), 1.0)
        assert det_profit(inst, rep.x) >= rep.objective - 1e-8


def test_quad_solver_matches_oracle(tiny_set, tiny_beta_list, tiny_quad_oracles):
    for inst, beta, res in zip(tiny_set[:5], tiny_beta_list[:5], tiny_quad_oracles[:5]):
        rep = solve_quad(inst, beta, SolverOptions(gap=1e-6))
        assert rep.status in ("optimal", "gap_reached")
        assert rep.objective == pytest.approx(res.value, abs=1e-6)
        assert rep.bound >= rep.objective - 1e-9
        assert quad_profit(inst, rep.x, beta) == pytest.approx(rep.objective, abs=1e-8)


def test_fixed_indicators_reduce_to_cell_solve():
    rng = np.random.default_rng(107)
    inst = make_instance(rng, S=2, W=2, H=1)
    beta = 1.3
    res = quad_oracle(inst, beta)
    _, cell_val = solve_cell(inst, res.pattern, beta)
    rep = solve_quad(inst, beta, SolverOptions(gap=1e-9), fixed_z=np.array(res.pattern.A))
    assert rep.objective == pytest.approx(cell_val, abs=1e-7)
    # partial fix consistent with the optimum keeps the optimum reachable
    s0, w0 = 0, int(np.argmax(res.pattern.A[0]))
    fz = np.full((2, 3), -1, dtype=np.int8)
    fz[s0, w0] = res.pattern.A[0, w0]
    rep2 = solve_quad(inst, beta, SolverOptions(gap=1e-6), fixed_z=fz)
    assert rep2.objective == pytest.approx(res.value, abs=1e-6)


def test_fixed_indicator_validation():
    rng = np.random.default_rng(109)
    inst = make_instance(rng, S=2, W=1, H=1)
    bad = np.full((2, 2), -1)
    bad[1, 0] = 2
    with pytest.raises(ValueError, match="entries"):
        solve_quad(inst, 1.0, fixed_z=bad)
    with pytest.raises(ValueError, match="shape"):
        solve_quad(inst, 1.0, fixed_z=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="shape"):
        solve_quad(inst, 1.0, fixed_z={(0, 0): 1})  # the array is the only format


def test_exhausted_tree_without_incumbent_is_infeasible():
    # every option of segment 0 is switched off, so no node has a feasible point
    inst = generate(GeneratorConfig(S=3, n_company_contracts=2, seed=0))
    fz = np.full((3, 3), -1, dtype=np.int8)
    fz[0] = 0
    rep = solve_quad(inst, 0.05, fixed_z=fz)
    assert rep.status == "infeasible"
    assert not rep.has_incumbent()
    assert rep.objective == rep.bound == -np.inf
    assert rep.gap is None


def test_pinned_program_accepts_roundoff_stationarity():
    # the node point's stationarity residual (about 2e-9) is roundoff at
    # disutilities up to 82, so the all-pinned program must report its optimum
    inst = generate(GeneratorConfig(S=6, n_company_contracts=3, seed=1))
    fz = np.array([[1, 1, 1, 0], [1, 1, 1, 1], [1, 1, 1, 0],
                   [1, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 0]])
    rep = solve_quad(inst, 0.05, fixed_z=fz)
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(276.09475450823, abs=1e-8)
    assert rep.objective == pytest.approx(bigm_piece_value(inst, 0.05, fz), abs=1e-8)


def test_budget_statuses_and_gap_semantics():
    rng = np.random.default_rng(113)
    inst = make_instance(rng, S=3, W=2, H=2)

    stopped = solve_quad(inst, 1.0, SolverOptions(time_limit_s=0.0))
    assert stopped.status == "time_limit"
    assert not stopped.has_incumbent()
    assert stopped.gap is None

    capped = solve_det(inst, SolverOptions(node_limit=1))
    assert capped.status in ("time_limit", "optimal", "gap_reached")
    assert capped.node_count <= 1

    loose = solve_quad(inst, 1.0, SolverOptions(gap=0.5))
    assert loose.status in ("optimal", "gap_reached")
    assert loose.bound - loose.objective <= 0.5 * max(1.0, abs(loose.objective)) + 1e-9


def test_tree_bounds_are_monotone():
    rng = np.random.default_rng(127)
    inst = make_instance(rng, S=3, W=2, H=1)
    rep = solve_det(inst)
    pairs = rep.extras["tree"]
    assert pairs, "expected at least the root node"
    for parent, child in pairs:
        assert child <= parent + 1e-9


def test_warm_incumbent_is_honored():
    rng = np.random.default_rng(131)
    inst = make_instance(rng, S=2, W=2, H=1)
    beta = 2.0
    cold = solve_quad(inst, beta, SolverOptions(gap=1e-6))
    warm = solve_quad(inst, beta, SolverOptions(gap=1e-6),
                      warm_incumbent=cold.x)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert warm.node_count <= cold.node_count


def test_trace_is_deterministic():
    rng = np.random.default_rng(137)
    inst = make_instance(rng, S=2, W=2, H=1)
    a = solve_quad(inst, 1.0, SolverOptions(gap=1e-6))
    b = solve_quad(inst, 1.0, SolverOptions(gap=1e-6))
    assert repr(a.trace) == repr(b.trace)
    assert a.objective == b.objective
    assert a.x.tobytes() == b.x.tobytes()
    for row in a.trace:
        assert set(row) == {"node", "bound", "incumbent", "kind"}


def test_det_solver_handles_tie_instance():
    inst = tie_instance()
    rep = solve_det(inst)
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(1.8, abs=1e-8)
    assert rep.x[0, 0] == pytest.approx(3.0, abs=1e-6)


def _record_node_qps(monkeypatch, cap_call=None):
    """Wrap the node QP solver; the ``cap_call``-th solve reports the
    iteration cap at the point it actually reached."""
    sols = []
    real = bnb.solve_qp

    def wrapped(prob, **kw):
        sol = real(prob, **kw)
        if len(sols) + 1 == cap_call:
            sol = dataclasses.replace(sol, status="iteration_limit")
        sols.append(sol)
        return sol

    monkeypatch.setattr(bnb, "solve_qp", wrapped)
    return sols


def test_iteration_capped_node_keeps_parent_bound(monkeypatch):
    # uncapped, node 2's relaxation value lies below the incumbent, so it is
    # pruned; capped, its point bounds nothing and the node must stay open
    inst = make_instance(np.random.default_rng(113), S=3, W=2, H=2)
    opts = SolverOptions(gap=1e-6)
    ref = solve_quad(inst, 1.0, opts)
    root_bound = ref.extras["tree"][0][1]
    assert ref.extras["tree"][1][1] < ref.trace[0]["incumbent"]
    assert 2 not in [row["node"] for row in ref.trace]
    assert ref.extras["iteration_limit_nodes"] == 0

    sols = _record_node_qps(monkeypatch, cap_call=2)
    rep = solve_quad(inst, 1.0, opts)
    assert sols[1].status == "iteration_limit"
    assert rep.extras["iteration_limit_nodes"] == 1
    assert rep.extras["tree"][1] == (root_bound, root_bound)
    node2 = [row for row in rep.trace if row["node"] == 2]
    assert len(node2) == 1 and node2[0]["bound"] == root_bound
    assert rep.node_count > ref.node_count
    assert rep.objective == pytest.approx(ref.objective, abs=1e-9)
    assert rep.bound >= rep.objective


def test_generated_five_segment_nodes_stop_without_cap_or_ridge(monkeypatch):
    # this instance's sixth node QP once stepped ~5e-9 back and forth on one
    # working set until the iteration cap, twice (cap, then ridge retry)
    inst = generate(GeneratorConfig(S=5, n_company_contracts=2, seed=0))
    sols = _record_node_qps(monkeypatch)
    rep = solve_quad(inst, 0.05, SolverOptions(node_limit=10))
    assert rep.node_count == len(sols) == 7
    assert all(sol.status != "iteration_limit" for sol in sols)
    assert not any(sol.ridge_applied for sol in sols)
    assert sum(sol.n_iterations for sol in sols) < 2000
    assert rep.extras["iteration_limit_nodes"] == 0


def test_iteration_capped_integral_point_is_split_not_closed(monkeypatch):
    # uncapped, the root relaxation is integral and closes the tree as a leaf
    inst = make_instance(np.random.default_rng(101), S=2, W=2, H=1)
    ref = solve_quad(inst, 2.0, SolverOptions(gap=1e-6))
    assert [row["kind"] for row in ref.trace] == ["leaf"]

    _record_node_qps(monkeypatch, cap_call=1)
    rep = solve_quad(inst, 2.0, SolverOptions(gap=1e-6))
    assert rep.trace[0]["kind"] == "branch" and rep.trace[0]["bound"] == np.inf
    assert rep.extras["iteration_limit_nodes"] == 1
    assert rep.node_count >= 3
    assert rep.objective == pytest.approx(ref.objective, abs=1e-9)
    assert rep.bound >= rep.objective


def test_iteration_capped_leaf_cells_are_counted(monkeypatch):
    # a leaf's cell solve that stops at its cap gives a feasible incumbent,
    # not a certified cell optimum, so both models count such leaves
    inst = make_instance(np.random.default_rng(52), S=2, W=1, H=2)

    def solve_both():
        return [solve_det(inst), solve_quad(inst, 1.0)]

    ref = solve_both()
    assert [rep.extras["iteration_limit_leaves"] for rep in ref] == [0, 0]
    real = price_complex.solve_qp

    def capped(prob, **kw):
        sol = real(prob, **kw)
        if sol.status == "optimal":
            return dataclasses.replace(sol, status="iteration_limit")
        return sol

    monkeypatch.setattr(price_complex, "solve_qp", capped)
    for rep, want in zip(solve_both(), ref):
        assert [row["kind"] for row in rep.trace] == ["branch", "leaf"]
        assert rep.extras["iteration_limit_leaves"] == 1
        assert rep.extras["iteration_limit_nodes"] == 0
        assert rep.status == want.status and rep.objective == want.objective


@settings(max_examples=8, deadline=None)
@given(S=st.integers(2, 3), beta=st.sampled_from([0.05, 0.5]),
       seed=st.integers(0, 2**31 - 1))
def test_quad_bound_dominates_oracle_and_heuristic(S, beta, seed):
    # a reported bound must bound the optimum, and so every feasible answer
    inst = generate(GeneratorConfig(S=S, n_company_contracts=2, seed=seed))
    rep = solve_quad(inst, beta, SolverOptions(gap=1e-6))
    tol = 1e-6 * max(1.0, abs(rep.bound))
    assert quad_oracle(inst, beta).value <= rep.bound + tol
    assert qspc(inst, beta, opts=QspcOptions(rng_seed=seed)).objective <= rep.bound + tol


@pytest.mark.parametrize("S,W", [(5, 2), (8, 3)])
def test_generated_node_active_sets_are_independent(monkeypatch, S, W):
    # rows in the working set's span once slipped through the ratio test as
    # zero-length blockers when the step was long, leaving dependent rows
    solved = []
    real = bnb.solve_qp

    def wrapped(prob, **kw):
        sol = real(prob, **kw)
        solved.append((prob, sol))
        return sol

    monkeypatch.setattr(bnb, "solve_qp", wrapped)
    inst = generate(GeneratorConfig(S=S, n_company_contracts=W, seed=0))
    solve_quad(inst, 0.05, SolverOptions(node_limit=10))
    optimal = [(prob, sol) for prob, sol in solved if sol.status == "optimal"]
    assert optimal
    for prob, sol in optimal:
        rows = np.vstack([prob.G[sol.active_set], prob.A])
        assert np.linalg.matrix_rank(rows) == rows.shape[0]


def test_generated_det_working_sets_are_independent(monkeypatch):
    # a bound row that big-M rows span with coefficients ~5e3 once joined a
    # 40-row working set: its rate along a unit ray was roundoff (2.5e-13),
    # above the step-relative threshold, and left R singular
    # working sets are refactorized after a removal and reached by an
    # in-place update when a row joins; both are checked
    real = subqp._factor_working_set
    real_join = subqp._join_working_set
    sizes = []

    def checked(C):
        assert np.linalg.matrix_rank(C) == C.shape[0]
        sizes.append(C.shape[0])
        return real(C)

    def checked_join(Qf, work, G, i):
        real_join(Qf, work, G, i)
        assert np.linalg.matrix_rank(G[work]) == len(work)
        sizes.append(len(work))

    monkeypatch.setattr(subqp, "_factor_working_set", checked)
    monkeypatch.setattr(subqp, "_join_working_set", checked_join)
    inst = generate(GeneratorConfig(S=8, n_company_contracts=3, seed=18))
    rep = solve_det(inst, SolverOptions(node_limit=30))
    assert max(sizes) >= 40
    assert rep.objective == pytest.approx(270.885860, abs=1e-6)


def _loop_bigm(inst, bs=None):
    """Reference: big-M constants as computed before the headroom merge."""
    theta_lo = inst.bills(inst.polytope.lower)
    theta_hi = inst.bills(inst.polytope.upper)
    M0 = np.maximum(0.0, (inst.R - theta_lo).max(axis=1))
    if bs is not None:
        M0 = 2.0 / bs + M0
    return BigM(M=theta_hi - inst.R + M0[:, None], M0=M0)


def _full_program(inst, mm, bs=None):
    """Reference: the per-(s, w) loop assembly of the det program (``bs``
    None) and the full regularized one, with the paper's activation columns
    ``z`` and rows ``y <= z``.  Returns G, h, A, b, c, Q, bin_idx (``z``)."""
    S, W, H = inst.S, inst.W, inst.H
    nx, n_bin = W * H, S * (W + 1)
    n = nx + S + (n_bin if bs is None else 2 * n_bin)

    def iy(s, w):
        return nx + S + s * (W + 1) + w

    def ib(s, w):
        return iy(s, w) if bs is None else iy(s, w) + n_bin

    G_box, h_box = inst.polytope.rows()
    Gb = np.zeros((G_box.shape[0], n))
    Gb[:, :nx] = G_box
    rows_G, rows_h = [Gb], [h_box]
    for s in range(S):
        for w in range(W + 1):
            gl = np.zeros(n)
            if w >= 1:
                gl[(w - 1) * H: w * H] = inst.E[s, w - 1]
            if bs is not None:
                gl[iy(s, w)] = 2.0 / bs[s]
            gl[nx + s] = -1.0
            r = float(inst.R[s, w - 1]) if w >= 1 else 0.0
            m = float(mm.M[s, w - 1]) if w >= 1 else float(mm.M0[s])
            gu = gl.copy()
            gu[ib(s, w)] = m
            rows_G += [-gl[None, :], gu[None, :]]
            rows_h += [np.array([-r]), np.array([m + r])]
            if bs is not None:
                gy = np.zeros(n)
                gy[iy(s, w)] = -1.0
                gyz = np.zeros(n)
                gyz[iy(s, w)] = 1.0
                gyz[ib(s, w)] = -1.0
                rows_G += [gy[None, :], gyz[None, :]]
                rows_h += [np.array([0.0]), np.array([0.0])]
    A = np.zeros((S, n))
    c = np.zeros(n)
    qdiag = np.zeros(n)
    c[nx: nx + S] = -inst.rho
    for s in range(S):
        A[s, iy(s, 0): iy(s, W) + 1] = 1.0
        c[iy(s, 1): iy(s, W) + 1] = -inst.rho[s] * (inst.R[s] - inst.C[s])
        if bs is not None:
            qdiag[iy(s, 0): iy(s, W) + 1] = 4.0 * inst.rho[s] / bs[s]
    bin_idx = np.array([ib(s, w) for s in range(S) for w in range(W + 1)])
    return (np.vstack(rows_G), np.concatenate(rows_h), A, np.ones(S), c,
            np.diag(qdiag), bin_idx)


def _zfree_program(inst, mm, bs):
    """Reference: the per-(s, w) loop assembly of the regularized program
    without ``z``.  Returns G, h, A, b, c, Q, bin_idx (``y``) and, per
    indicator, the rows ``y <= 0`` and ``s <= 0`` that pin it at 0 and 1."""
    S, W, H = inst.S, inst.W, inst.H
    nx = W * H
    n = nx + S + S * (W + 1)

    def iy(s, w):
        return nx + S + s * (W + 1) + w

    G_box, h_box = inst.polytope.rows()
    Gb = np.zeros((G_box.shape[0], n))
    Gb[:, :nx] = G_box
    rows_G, rows_h, pins = [Gb], [h_box], []
    for s in range(S):
        for w in range(W + 1):
            gl = np.zeros(n)  # s_sw = gl . v - r
            if w >= 1:
                gl[(w - 1) * H: w * H] = inst.E[s, w - 1]
            gl[iy(s, w)] = 2.0 / bs[s]
            gl[nx + s] = -1.0
            r = float(inst.R[s, w - 1]) if w >= 1 else 0.0
            m = float(mm.M[s, w - 1]) if w >= 1 else float(mm.M0[s])
            gu = gl.copy()
            gu[iy(s, w)] += m  # s + M y <= M
            gy = np.zeros(n)
            gy[iy(s, w)] = -1.0
            rows_G += [-gl[None, :], gu[None, :], gy[None, :]]
            rows_h += [np.array([-r]), np.array([m + r]), np.array([0.0])]
            pins.append(((-gy, 0.0), (gl, r)))
    A = np.zeros((S, n))
    c = np.zeros(n)
    qdiag = np.zeros(n)
    c[nx: nx + S] = -inst.rho
    for s in range(S):
        A[s, iy(s, 0): iy(s, W) + 1] = 1.0
        c[iy(s, 1): iy(s, W) + 1] = -inst.rho[s] * (inst.R[s] - inst.C[s])
        qdiag[iy(s, 0): iy(s, W) + 1] = 4.0 * inst.rho[s] / bs[s]
    bin_idx = np.array([iy(s, w) for s in range(S) for w in range(W + 1)])
    return (np.vstack(rows_G), np.concatenate(rows_h), A, np.ones(S), c,
            np.diag(qdiag), bin_idx, pins)


def _loop_pin_rows(pins, n, lo, hi):
    """Reference: per fixed indicator, in indicator order, its pin row."""
    G, h = [np.zeros((0, n))], [np.zeros(0)]
    for k, (row0, row1) in enumerate(pins):
        if lo[k] == hi[k]:
            row, rhs = row1 if lo[k] == 1 else row0
            G.append(row[None, :])
            h.append(np.array([rhs]))
    return np.vstack(G), np.concatenate(h)


def _loop_bound_rows(bin_idx, n, lo, hi):
    G = np.zeros((2 * bin_idx.size, n))
    h = np.zeros(2 * bin_idx.size)
    for k, j in enumerate(bin_idx):
        G[2 * k, j] = 1.0
        h[2 * k] = hi[k]
        G[2 * k + 1, j] = -1.0
        h[2 * k + 1] = -lo[k]
    return G, h


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_PROGRAM_CASES = [(3, 2, 0), (5, 2, 1), (8, 3, 18), (10, 4, 0), (6, 3, 1)]


@pytest.mark.parametrize("S,W,g", _PROGRAM_CASES)
def test_bigm_program_matches_loop_reference(S, W, g):
    # the det relaxations are degenerate LPs whose active-set path follows
    # row-index ties, so rows, columns and every float must match, sign of
    # zero included; the appended regularized pin rows are compared by value
    inst = generate(GeneratorConfig(S=S, n_company_contracts=W, seed=g))
    rng = np.random.default_rng(g)
    betas = (None, Beta(0.05), Beta(0.05, scales=rng.uniform(0.2, 5.0, size=S)))
    for beta in betas:
        bs = None if beta is None else beta.per_segment(S)
        mm = bigm_det(inst) if beta is None else bigm_quad(inst, beta)
        ref_mm = _loop_bigm(inst, bs)
        assert _same_bytes(mm.M, ref_mm.M) and _same_bytes(mm.M0, ref_mm.M0)
        prog = bnb._bigm_program(inst, mm, bs)
        if beta is None:
            G, h, A, b, c, Q, bin_idx = _full_program(inst, mm, bs)
        else:
            G, h, A, b, c, Q, bin_idx, pins = _zfree_program(inst, mm, bs)
        assert _same_bytes(prog.bin_idx, bin_idx)
        for _ in range(3):
            state = rng.integers(-1, 2, size=bin_idx.size)  # -1 free, else fixed
            lo = np.where(state == -1, 0, state).astype(np.int8)
            hi = np.where(state == -1, 1, state).astype(np.int8)
            node = bnb._node_problem(prog, lo, hi)
            if beta is None:
                G_bnd, h_bnd = _loop_bound_rows(bin_idx, c.size, lo, hi)
                assert _same_bytes(node.G, np.vstack([G, G_bnd]))
                assert _same_bytes(node.h, np.concatenate([h, h_bnd]))
            else:
                G_pin, h_pin = _loop_pin_rows(pins, c.size, lo, hi)
                assert _same_bytes(node.G[:len(h)], G) and _same_bytes(node.h[:len(h)], h)
                assert np.array_equal(node.G[len(h):], G_pin)
                assert np.array_equal(node.h[len(h):], h_pin)
            for got, want in ((node.A, A), (node.b, b), (node.c, c), (node.Q, Q)):
                assert _same_bytes(got, want)


@pytest.mark.parametrize("S,W,g", _PROGRAM_CASES)
def test_zfree_node_qp_is_the_exact_projection(S, W, g):
    # the hull of {y s = 0, 0 <= y <= 1, 0 <= s <= M} is y + s/M <= 1, so
    # dropping z changes no node value: fixing z at 0 gives y <= 0, at 1
    # gives s <= 0, and a free z leaves y <= z <= 1 - s/M
    inst = generate(GeneratorConfig(S=S, n_company_contracts=W, seed=g))
    rng = np.random.default_rng(1000 + g)
    bs = Beta(0.05).per_segment(S)
    mm = bigm_quad(inst, 0.05)
    prog = bnb._bigm_program(inst, mm, bs)
    G, h, A, b, c, Q, bin_idx = _full_program(inst, mm, bs)
    n_opt = 0
    for p_fix in (0.0, 0.1, 0.1, 0.25, 0.25):
        state = np.where(rng.uniform(size=bin_idx.size) < p_fix,
                         rng.integers(0, 2, size=bin_idx.size), -1)
        lo = np.where(state == -1, 0, state).astype(np.int8)
        hi = np.where(state == -1, 1, state).astype(np.int8)
        G_bnd, h_bnd = _loop_bound_rows(bin_idx, c.size, lo, hi)
        full = subqp.solve_qp(subqp.QpProblem(Q=Q, c=c, G=np.vstack([G, G_bnd]),
                                              h=np.concatenate([h, h_bnd]), A=A, b=b))
        zfree = subqp.solve_qp(bnb._node_problem(prog, lo, hi))
        assert zfree.status == full.status
        assert full.status in ("optimal", "infeasible")
        if full.status == "optimal":
            n_opt += 1
            assert abs(zfree.value - full.value) <= 1e-9 * max(1.0, abs(full.value))
    assert n_opt >= 3


def test_solve_quad_logs_progress(caplog):
    inst = make_instance(np.random.default_rng(137), S=2, W=2, H=1)
    with caplog.at_level(logging.INFO, logger="tariff_complex.bnb"):
        rep = solve_quad(inst, 1.0, SolverOptions(gap=1e-6))
    records = [r for r in caplog.records if r.name == "tariff_complex.bnb"]
    assert [r.levelno for r in records] == [logging.INFO]
    assert records[0].getMessage().startswith(f"done status={rep.status} ")
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="tariff_complex.bnb"):
        solve_quad(inst, 1.0, SolverOptions(gap=1e-6))
    nodes = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(nodes) == len(rep.trace)
    assert [m.split()[0] for m in nodes] == [row["kind"] for row in rep.trace]
