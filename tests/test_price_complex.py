"""Cell geometry of the regularized response and the enumeration oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tariff_complex import (
    Beta,
    CellInfeasibleError,
    GeneratorConfig,
    Pattern,
    QpProblem,
    cell_qp,
    cell_system,
    count_patterns,
    det_oracle,
    det_response_set,
    enumerate_patterns,
    generate,
    is_feasible,
    neighbors,
    pattern_of,
    pure_assignment_lp,
    quad_oracle,
    quad_profit,
    quad_response,
    solve_cell,
    solve_det,
    solve_qp,
)
from tariff_complex import price_complex
from tariff_complex.cli import _oracle_report
from conftest import interior_point, line_instance, make_instance, tie_instance


def test_line_instance_cells_are_intervals():
    # e = 1, r = 1.5, beta = 8: the contract wins alone below x = 1.25, the
    # customer splits on [1.25, 1.75], and walks away above 1.75.
    inst = line_instance(e=1.0, r=1.5, c=0.0, lo=1.0, hi=2.0)
    beta = 8.0
    only_contract = Pattern(np.array([[0, 1]]))
    split = Pattern(np.array([[1, 1]]))
    walk = Pattern(np.array([[1, 0]]))
    assert pattern_of(inst, np.array([[1.1]]), beta) == only_contract
    assert pattern_of(inst, np.array([[1.5]]), beta) == split
    assert pattern_of(inst, np.array([[1.9]]), beta) == walk

    sys_split = cell_system(inst, split, beta)
    assert sys_split.contains(np.array([[1.75]]))  # closed boundary
    assert not sys_split.strictly_classifies(np.array([[1.75]]))
    assert sys_split.strictly_classifies(np.array([[1.5]]))
    # threshold is inclusive, so the boundary point already concentrates
    assert pattern_of(inst, np.array([[1.75]]), beta) == walk

    x, val = solve_cell(inst, only_contract, beta)[:2]
    assert val == pytest.approx(1.25, abs=1e-9)
    assert x[0, 0] == pytest.approx(1.25, abs=1e-9)
    res = quad_oracle(inst, beta)
    assert res.value == pytest.approx(1.25, abs=1e-9)
    # the maximum sits on the boundary shared by both closed cells
    assert res.pattern in (only_contract, split)
    assert res.n_feasible == 3 and res.n_total == 3


def test_pattern_of_lands_in_its_cell():
    rng = np.random.default_rng(47)
    for _ in range(40):
        inst = make_instance(rng, S=int(rng.integers(1, 4)),
                             W=int(rng.integers(1, 3)), H=int(rng.integers(1, 3)))
        beta = float(10.0 ** rng.uniform(-1, 1.5))
        x = rng.uniform(0.0, 4.0, size=(inst.W, inst.H))
        pat = pattern_of(inst, x, beta)
        assert cell_system(inst, pat, beta).contains(x, tol=1e-8)


def test_cell_value_matches_profit_and_is_concave():
    rng = np.random.default_rng(53)
    for _ in range(40):
        inst = make_instance(rng, S=int(rng.integers(1, 4)),
                             W=int(rng.integers(1, 3)), H=int(rng.integers(1, 3)))
        beta = float(10.0 ** rng.uniform(-1, 1.5))
        x = rng.uniform(0.0, 4.0, size=(inst.W, inst.H))
        pat = pattern_of(inst, x, beta)
        qp = cell_qp(inst, pat, beta)
        assert qp.value(x) == pytest.approx(quad_profit(inst, x, beta), abs=1e-10)
        assert qp.min_concavity_eig() >= -1e-9


def test_solve_cell_dominates_cell_points():
    rng = np.random.default_rng(59)
    inst = make_instance(rng, S=2, W=2, H=1)
    beta = 2.0
    x0 = rng.uniform(0.5, 3.5, size=(2, 1))
    pat = pattern_of(inst, x0, beta)
    xs, val = solve_cell(inst, pat, beta)[:2]
    system = cell_system(inst, pat, beta)
    assert system.contains(xs, tol=1e-7)
    qp = cell_qp(inst, pat, beta)
    assert val == pytest.approx(qp.value(xs), abs=1e-8)
    G, h = system.G, system.h
    for _ in range(50):
        # random point of the closed cell via a ray from x0
        d = rng.normal(size=2)
        rate = G @ d
        slack = h - G @ x0.ravel()
        pos = rate > 1e-12
        t_max = float(np.min(slack[pos] / rate[pos])) if pos.any() else 1.0
        xr = x0.ravel() + rng.uniform(0.0, 0.95) * t_max * d
        assert qp.value(xr) <= val + 1e-8


def test_solve_cell_warm_start_changes_nothing():
    rng = np.random.default_rng(61)
    inst = make_instance(rng, S=2, W=1, H=2)
    pat = pattern_of(inst, inst.polytope.midpoint(), 1.0)
    x_cold, v_cold = solve_cell(inst, pat, 1.0)[:2]
    x_warm, v_warm = solve_cell(inst, pat, 1.0, warm=rng.uniform(0, 4, size=2))[:2]
    assert v_warm == pytest.approx(v_cold, abs=1e-9)
    assert np.allclose(x_cold, x_warm, atol=1e-7)


def test_empty_cell_detection():
    inst = line_instance(e=1.0, r=10.0, c=0.0, lo=1.0, hi=2.0)
    # the contract is strictly better everywhere in the box, so the
    # walk-away-only cell is empty at beta = 1
    walk = Pattern(np.array([[1, 0]]))
    ok, witness = is_feasible(inst, walk, 1.0)
    assert not ok and witness is None
    with pytest.raises(CellInfeasibleError):
        solve_cell(inst, walk, 1.0)
    only = Pattern(np.array([[0, 1]]))
    ok, witness = is_feasible(inst, only, 1.0)
    assert ok
    assert cell_system(inst, only, 1.0).contains(witness)


def test_oracle_matches_fine_grid_in_one_dimension():
    rng = np.random.default_rng(67)
    inst = make_instance(rng, S=2, W=1, H=1)
    beta = 1.5
    res = quad_oracle(inst, beta)
    grid = np.linspace(0.0, 4.0, 20001)
    vals = [quad_profit(inst, np.array([[t]]), beta) for t in grid]
    assert res.value >= max(vals) - 1e-12
    assert res.value == pytest.approx(max(vals), abs=1e-5)


def test_pattern_census():
    assert count_patterns(2, 1) == 9
    pats = list(enumerate_patterns(2, 1))
    assert len(pats) == 9
    assert len({p.key() for p in pats}) == 9
    assert all(p.row_sizes().min() >= 1 for p in pats)
    assert count_patterns(3, 2) == 343


def test_pure_assignment_lp_closed_form():
    inst = tie_instance()
    # segments with reservation 3, 4, 5 buy; the best such price is x = 3
    res = pure_assignment_lp(inst, (0, 0, 1, 1, 1))
    assert res is not None
    x, val = res[:2]
    assert val == pytest.approx(1.8, abs=1e-9)
    assert x[0, 0] == pytest.approx(3.0, abs=1e-9)
    # reservation-1 buyer cannot coexist with a reservation-2 walk-away
    assert pure_assignment_lp(inst, (1, 0, 0, 0, 0)) is None


def test_det_oracle_tie_instance():
    res = det_oracle(tie_instance())
    assert res.value == pytest.approx(1.8, abs=1e-9)
    assert res.x[0, 0] == pytest.approx(3.0, abs=1e-9)
    assert res.pattern.is_pure()


def test_det_assignment_lies_in_its_limit_cell():
    rng = np.random.default_rng(71)
    for _ in range(25):
        inst = make_instance(rng, S=2, W=2, H=1)
        x = rng.uniform(0.0, 4.0, size=(2, 1))
        _, resp = det_response_set(inst, x)
        pat = resp.support()
        assert cell_system(inst, pat, None).contains(x, tol=1e-8)


def test_pattern_of_stabilizes_for_large_beta():
    # the deterministic optimum itself sits on tie boundaries, so probe a
    # max-slack interior point of the optimal limit cell instead
    done = 0
    for trial in range(20):
        inst = make_instance(np.random.default_rng(300 + trial), S=2, W=1, H=1)
        res = det_oracle(inst)
        x = interior_point(cell_system(inst, res.pattern, None))
        if x is None:
            continue
        x = x.reshape(inst.W, inst.H)
        ties, resp = det_response_set(inst, x)
        assert np.all(ties.sum(axis=1) == 1)
        assert resp.support() == res.pattern
        beta = 1.0
        while pattern_of(inst, x, beta) != res.pattern:
            beta *= 2.0
            assert beta < 1e12
        assert pattern_of(inst, x, 2.0 * beta) == res.pattern
        done += 1
        if done == 5:
            break
    assert done == 5


def test_limit_cell_of_pure_optimum_has_strict_interior():
    # a lone active option adds no row, so the limit cell of a pure pattern
    # keeps its interior instead of carrying an open row 0 < 0
    inst = make_instance(np.random.default_rng(300), S=2, W=1, H=1)
    res = det_oracle(inst)
    assert res.pattern.is_pure()
    system = cell_system(inst, res.pattern, None)
    assert not np.any(np.all(system.G == 0.0, axis=1))
    x = interior_point(system)
    assert x is not None
    assert system.strictly_classifies(x)


def test_neighbors_drop_worst_add_best():
    rng = np.random.default_rng(79)
    inst = make_instance(rng, S=2, W=2, H=1)
    x = inst.polytope.midpoint()
    V = inst.disutilities(x)
    pat = Pattern(np.array([[1, 1, 0], [0, 1, 0]]))
    seg, opt = neighbors(inst, pat, x)
    # segment 0 drops then adds; segment 1 is a singleton row and cannot drop
    assert seg.tolist() == [0, 0, 1]

    worst = int(np.argmax(V[0, [0, 1]]))  # among active options 0, 1
    assert opt[0] == worst and pat.A[0, worst] == 1
    assert pat.flip(0, opt[0]).A[0, worst] == 0
    assert opt[1] == 2 and pat.flip(0, opt[1]).A[0, 2] == 1  # only inactive option

    best = int(np.array([0, 2])[np.argmin(V[1, [0, 2]])])
    assert opt[2] == best
    plus = pat.flip(1, opt[2])
    assert plus.A[1, best] == 1
    assert plus.A[1, 1] == 1  # old option stays


def test_neighbors_tie_break_lowest_index():
    inst = tie_instance()
    x = np.array([[3.0]])
    pat = Pattern(np.ones((5, 2), dtype=np.int8))
    seg, opt = neighbors(inst, pat, x)
    V = inst.disutilities(x)
    assert seg.tolist() == list(range(5))  # one drop per segment, no add
    for s, w in zip(seg.tolist(), opt.tolist()):
        dropped = int(np.flatnonzero(pat.flip(s, w).A[s] != pat.A[s])[0])
        assert dropped == int(np.argmax(V[s]))  # first index on exact ties


def test_neighbors_treat_near_ties_as_exact_ties():
    # contract 3 copies contract 1 and is priced like it: an exact tie in
    # every segment, then a tie off by 1e-13 of the row scale either way
    inst = make_instance(np.random.default_rng(21), S=6, W=3, H=2)
    E, R = inst.E.copy(), inst.R.copy()
    E[:, 2], R[:, 2] = E[:, 0], R[:, 0]
    x = inst.polytope.midpoint()
    x[2] = x[0]
    exact = dataclasses.replace(inst, E=E, R=R)
    V = exact.disutilities(x)
    assert np.array_equal(V[:, 1], V[:, 3])
    shift = np.zeros_like(R)
    shift[:, 2] = 1e-13 * np.maximum(1.0, np.abs(V).max(axis=1))
    n_decided = 0
    for mask in (np.arange(1, 16)[:, None] >> np.arange(4)) & 1:
        pat = Pattern(np.tile(mask, (inst.S, 1)).astype(np.int8))
        seg, opt = neighbors(exact, pat, x)
        for sign in (1.0, -1.0):
            seg_n, opt_n = neighbors(dataclasses.replace(inst, E=E, R=R + sign * shift), pat, x)
            assert seg_n.tolist() == seg.tolist() and opt_n.tolist() == opt.tolist()
        n_decided += int(np.sum(opt == 1)) if mask[1] == mask[3] else 0
    assert n_decided > 0  # the planted tie was a row extreme, and option 1 won it


def test_oracle_pattern_cap():
    rng = np.random.default_rng(83)
    inst = make_instance(rng, S=3, W=2, H=1)
    with pytest.raises(ValueError):
        quad_oracle(inst, 1.0, max_patterns=10)
    with pytest.raises(ValueError):
        det_oracle(inst, max_patterns=2)


def test_quad_oracle_beats_every_sampled_price(tiny_set, tiny_beta_list,
                                               tiny_quad_oracles):
    rng = np.random.default_rng(89)
    for inst, beta, res in zip(tiny_set[:6], tiny_beta_list[:6], tiny_quad_oracles[:6]):
        assert res.n_feasible >= 1
        assert inst.polytope.contains(res.x, tol=1e-7)
        for _ in range(30):
            x = rng.uniform(0.0, 4.0, size=(inst.W, inst.H))
            assert quad_profit(inst, x, beta) <= res.value + 1e-8
        assert quad_profit(inst, res.x, beta) == pytest.approx(res.value, abs=1e-8)


def _check_capped_oracle(monkeypatch, beta, seed):
    """With every cell solve forced to the iteration cap, the oracle at
    ``beta`` (None: the deterministic one) keeps each capped point, counts
    it in ``n_capped``, and finds the uncapped answer."""
    inst = make_instance(np.random.default_rng(seed), S=2, W=1, H=2)
    exact = quad_oracle(inst, beta)
    assert exact.n_capped == 0 and exact.n_feasible > 0
    solve_qp = price_complex.solve_qp

    def capped(prob, **kwargs):
        sol = solve_qp(prob, **kwargs)
        if sol.status == "optimal":
            return dataclasses.replace(sol, status="iteration_limit")
        return sol

    monkeypatch.setattr(price_complex, "solve_qp", capped)
    res = quad_oracle(inst, beta)
    assert res.n_capped == res.n_feasible == exact.n_feasible
    assert res.value == exact.value and res.pattern == exact.pattern
    assert _oracle_report(inst, res, beta).extras == {
        "n_feasible": res.n_feasible, "n_capped": res.n_capped}
    # the local search still takes a capped cell as solved
    _, value = solve_cell(inst, exact.pattern, beta)[:2]
    assert value == exact.value
    return inst, exact


def test_quad_oracle_counts_iteration_capped_cells(monkeypatch):
    _check_capped_oracle(monkeypatch, 2.0, seed=53)


def test_det_oracle_counts_iteration_capped_cells(monkeypatch):
    # at this seed branch and bound reaches a leaf LP, so its search meets
    # the cap too; a capped LP's point is feasible and is kept
    inst, exact = _check_capped_oracle(monkeypatch, None, seed=52)
    res = det_oracle(inst)
    assert res.n_capped == res.n_feasible == exact.n_feasible
    assert res.value == exact.value and res.pattern == exact.pattern
    rep = solve_det(inst)
    assert rep.status == "optimal" and rep.objective == pytest.approx(exact.value, abs=1e-9)


# ---------------------------------------------------------------------------
# The per-row loops the cell arrays replaced, kept as the reference.


def _loop_option(inst, s, w):
    """Reference: disutility of option w as (gradient over vec(x), constant)."""
    g = np.zeros(inst.W * inst.H)
    if w == 0:
        return g, 0.0
    g[(w - 1) * inst.H: w * inst.H] = inst.E[s, w - 1]
    return g, -float(inst.R[s, w - 1])


def _loop_cell_rows(inst, pattern, beta):
    """Reference: the row-by-row cell system.  Returns G, h, strict."""
    if beta is None or (isinstance(beta, float) and np.isinf(beta)):
        two_over = np.zeros(inst.S)
    else:
        two_over = 2.0 / Beta.coerce(beta).per_segment(inst.S)
    gs, hs, strict = [], [], []
    for s in range(inst.S):
        act = pattern.active(s)
        a = len(act)
        g_sum = np.zeros(inst.W * inst.H)
        r_sum = 0.0
        for w in act:
            g, d = _loop_option(inst, s, int(w))
            g_sum += g
            r_sum += -d
        for w in range(inst.W + 1):
            g, d = _loop_option(inst, s, w)
            if pattern.A[s, w]:
                gs.append(a * g - g_sum)
                hs.append(two_over[s] + a * -d - r_sum)
            else:
                gs.append(g_sum - a * g)
                hs.append(-two_over[s] + r_sum - a * -d)
            strict.append(bool(pattern.A[s, w]))
    G_box, h_box = inst.polytope.rows()
    gs += list(G_box)
    hs += [float(v) for v in h_box]
    strict += [False] * len(h_box)
    return np.array(gs), np.array(hs), np.array(strict)


def _loop_limit_rows(inst, pattern):
    """Reference: the limit cell as pairwise ties against the first active
    option plus one row per inactive option.  Returns G, h."""
    gs, hs = [], []
    for s in range(inst.S):
        act = [int(w) for w in pattern.active(s)]
        g_a, d_a = _loop_option(inst, s, act[0])
        for w in act[1:]:
            g_w, d_w = _loop_option(inst, s, w)
            gs += [g_a - g_w, g_w - g_a]
            hs += [d_w - d_a, d_a - d_w]
        for w in range(inst.W + 1):
            if not pattern.A[s, w]:
                g_w, d_w = _loop_option(inst, s, w)
                gs.append(g_a - g_w)
                hs.append(d_w - d_a)
    G_box, h_box = inst.polytope.rows()
    return np.array(gs + list(G_box)), np.array(hs + [float(v) for v in h_box])


def _loop_cell_qp(inst, pattern, beta):
    """Reference: the term-by-term expansion of the cell profit.  Returns Q, c, d."""
    b = Beta.coerce(beta).per_segment(inst.S)
    n = inst.W * inst.H
    Q, c, d = np.zeros((n, n)), np.zeros(n), 0.0
    for s in range(inst.S):
        act = pattern.active(s)
        a = len(act)
        contracts = [int(w) for w in act if w != 0]
        if not contracts:
            continue
        g_sum, d_sum = np.zeros(n), 0.0
        for w in act:
            g, dd = _loop_option(inst, s, int(w))
            g_sum += g
            d_sum += dd
        g_lvl = g_sum / a
        d_lvl = (2.0 / b[s] + d_sum) / a
        coef = inst.rho[s] * b[s] / 2.0
        for w in contracts:
            g_v, d_v = _loop_option(inst, s, w)
            u, au = g_v, d_v + float(inst.R[s, w - 1] - inst.C[s, w - 1])
            v, av = g_lvl - g_v, d_lvl - d_v
            Q += coef * (np.outer(u, v) + np.outer(v, u))
            c += coef * (au * v + av * u)
            d += coef * au * av
    return Q, c, d


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _random_patterns(rng, S, W, k):
    """k random patterns plus the all-pure and all-active extremes."""
    pats = [Pattern(np.eye(W + 1, dtype=np.int8)[rng.integers(0, W + 1, size=S)]),
            Pattern(np.ones((S, W + 1), dtype=np.int8))]
    for _ in range(k):
        A = rng.integers(0, 2, size=(S, W + 1))
        A[np.arange(S), rng.integers(0, W + 1, size=S)] = 1
        pats.append(Pattern(A))
    return pats


def _reference_instances():
    for S, W in ((3, 2), (5, 2), (8, 3), (10, 4)):
        for g in (0, 1, 18):
            yield generate(GeneratorConfig(S=S, n_company_contracts=W, seed=g))
    # nine or more summands: where numpy's own sum would pair terms up
    yield make_instance(np.random.default_rng(9), S=9, W=9, H=1)
    yield make_instance(np.random.default_rng(12), S=12, W=1, H=1)


def test_cell_arrays_match_loop_reference():
    # qspc's path is sensitive at roundoff level, so every float must match,
    # sign of zero included; the loop's exact-zero rows (a lone active
    # option's 0 <= 2/beta) are the only rows the arrays leave out
    rng = np.random.default_rng(7)
    for inst in _reference_instances():
        scales = Beta(0.05, scales=rng.uniform(0.2, 5.0, size=inst.S))
        for pat in _random_patterns(rng, inst.S, inst.W, 8):
            for beta in (0.05, 1.7, scales, None, math.inf):
                G, h, strict = _loop_cell_rows(inst, pat, beta)
                keep = ~np.all(G == 0.0, axis=1)
                system = cell_system(inst, pat, beta)
                assert _same_bytes(system.G, G[keep])
                assert _same_bytes(system.h, h[keep])
                assert _same_bytes(system.strict, strict[keep])
            for beta in (0.05, 1.7, scales):
                Q, c, d = _loop_cell_qp(inst, pat, beta)
                qp = cell_qp(inst, pat, beta)
                assert _same_bytes(qp.Q, Q) and _same_bytes(qp.c, c)
                assert type(qp.d) is float and _same_bytes(qp.d, d)


def _loop_pure_profit(inst, combo):
    """Reference: the linear profit (c, const) of a pure assignment."""
    c, const = np.zeros(inst.W * inst.H), 0.0
    for s, w in enumerate(combo):
        if w == 0:
            continue
        c[(w - 1) * inst.H: w * inst.H] += inst.rho[s] * inst.E[s, w - 1]
        const -= inst.rho[s] * inst.C[s, w - 1]
    return c, const


def _loop_pure_lp(inst, combo):
    """Reference: the pure-assignment LP over the loop's limit rows."""
    pat = Pattern(np.eye(inst.W + 1, dtype=np.int8)[list(combo)])
    G, h = _loop_limit_rows(inst, pat)
    c, const = _loop_pure_profit(inst, combo)
    sol = solve_qp(QpProblem(Q=None, c=-c, G=G, h=h))
    if sol.status == "infeasible":
        return None
    return -sol.value + const, sol.z.reshape(inst.W, inst.H)


def test_limit_rows_of_pure_patterns_match_loop_reference():
    # a pure pattern's limit cell has no tie rows, so the one builder must
    # give the loop's limit rows exactly, and the same LP answer
    rng = np.random.default_rng(11)
    for inst in _reference_instances():
        for _ in range(4):
            combo = tuple(int(w) for w in rng.integers(0, inst.W + 1, size=inst.S))
            pat = Pattern(np.eye(inst.W + 1, dtype=np.int8)[list(combo)])
            G, h = _loop_limit_rows(inst, pat)
            system = cell_system(inst, pat, None)
            assert _same_bytes(system.G, G) and _same_bytes(system.h, h)
            c, const = _loop_pure_profit(inst, combo)
            for limit in (None, math.inf):
                qp = cell_qp(inst, pat, limit)
                assert _same_bytes(qp.c, c) and type(qp.d) is float and _same_bytes(qp.d, const)
                assert not np.any(qp.Q) and qp.Q.shape == (c.size, c.size)
            got, want = pure_assignment_lp(inst, combo), _loop_pure_lp(inst, combo)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.value == want[0] and _same_bytes(got.x, want[1])


def test_limit_cell_qp_needs_a_pure_pattern():
    inst = make_instance(np.random.default_rng(29), S=2, W=2, H=1)
    split = Pattern(np.array([[0, 1, 1], [1, 0, 0]]))
    for limit in (None, math.inf):
        with pytest.raises(ValueError):
            cell_qp(inst, split, limit)
        with pytest.raises(ValueError):
            solve_cell(inst, split, limit)
    # the same pattern has a regularized profit at every finite beta
    assert cell_qp(inst, split, 1.0).min_concavity_eig() >= -1e-9


def _loop_neighbors(inst, pattern, x):
    """Reference: the per-segment minus/plus loop the flip arrays replaced,
    taking the first option within 1e-9 * max(1, max_w |V_sw|) of the
    extreme.  Returns the neighbor patterns in scan order."""
    V = inst.disutilities(x)
    out = []
    for s in range(inst.S):
        tol = 1e-9 * max(1.0, float(np.abs(V[s]).max()))
        act = np.flatnonzero(pattern.A[s] == 1)
        off = np.flatnonzero(pattern.A[s] == 0)
        if act.size >= 2:  # minus: drop the worst active option
            worst = V[s, act].max()
            out.append(pattern.flip(s, int(next(w for w in act if V[s, w] >= worst - tol))))
        if off.size:  # plus: add the best inactive option
            best = V[s, off].min()
            out.append(pattern.flip(s, int(next(w for w in off if V[s, w] <= best + tol))))
    return out


def _tie_cases(rng):
    """Instances and prices with exact disutility ties."""
    # contract 3 copies contract 1 and is priced like it, so the two tie
    inst = make_instance(np.random.default_rng(21), S=6, W=3, H=2)
    E, R = inst.E.copy(), inst.R.copy()
    E[:, 2], R[:, 2] = E[:, 0], R[:, 0]
    inst = dataclasses.replace(inst, E=E, R=R)
    for _ in range(3):
        x = rng.uniform(inst.polytope.lower, inst.polytope.upper)
        x[2] = x[0]
        yield inst, x
    # the contract ties the walk-away option where the bill meets the reservation
    for t in (1.0, 3.0, 5.0):
        yield tie_instance(), np.array([[t]])


def test_flip_arrays_match_loop_reference():
    # the (seg, opt) flips, applied one by one, give the reference's patterns
    # in its order, on singleton rows, full rows and exact ties alike
    rng = np.random.default_rng(13)
    cases = [(inst, x) for inst in _reference_instances()
             for x in (inst.polytope.midpoint(),
                       rng.uniform(inst.polytope.lower, inst.polytope.upper))]
    cases += list(_tie_cases(rng))
    n_tied = n_near = 0
    for inst, x in cases:
        V = inst.disutilities(x)
        tol = 1e-9 * np.maximum(1.0, np.abs(V).max(axis=1))
        for pat in _random_patterns(rng, inst.S, inst.W, 6):
            seg, opt = neighbors(inst, pat, x)
            assert seg.dtype.kind == opt.dtype.kind == "i"
            flips = list(zip(seg.tolist(), opt.tolist()))
            assert [pat.flip(s, w) for s, w in flips] == _loop_neighbors(inst, pat, x)
            for s, w in flips:
                same = pat.A[s] == pat.A[s, w]
                gap = np.abs(V[s] - V[s, w])
                n_tied += int(np.sum(same & (gap == 0.0))) > 1
                n_near += bool(np.any(same & (gap > 0.0) & (gap <= tol[s])))
    # the tie rule was exercised on exact ties and on ties up to roundoff (at
    # the box midpoint, generated contracts' disutilities differ by a few ulps)
    assert n_tied > 0 and n_near > 0


def _row_segments(pattern, n_rows):
    """Segment of each cell-system row, -1 for the price-polytope rows: a
    segment has W + 1 rows, or W when one option alone is active."""
    counts = np.where(pattern.row_sizes() == 1, pattern.n_options - 1, pattern.n_options)
    seg = np.repeat(np.arange(pattern.S), counts)
    return np.concatenate([seg, np.full(n_rows - seg.size, -1)])


def _drawn_price(inst, data):
    """A uniform draw from the price box, projected onto the price polytope."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(inst.polytope.lower, inst.polytope.upper).ravel()
    G, h = inst.polytope.rows()
    sol = solve_qp(QpProblem(Q=np.eye(x.size), c=-x, G=G, h=h))
    return sol.z.reshape(inst.W, inst.H)


def _drawn_beta(inst, beta, data):
    """``beta``, or for "per-segment" 0.05 with drawn per-segment scales."""
    if beta != "per-segment":
        return beta
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return Beta(0.05, scales=rng.uniform(0.2, 5.0, size=inst.S))


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from([(5, 2), (6, 3)]),
       beta=st.sampled_from([0.05, 0.5, "per-segment"]),
       seed=st.integers(0, 2**31 - 1), data=st.data())
def test_flip_rows_carry_every_other_row_onto_the_neighbour(size, beta, seed, data):
    # the search hands a neighbour cell the incumbent's working set as union
    # rows of the scan: the union's first rows are the incumbent's cell
    # system, every one outside the flipped segment must be a row of the
    # neighbour and every neighbour row outside that segment one of them;
    # the scan's rows, Q, c and d of each neighbour are cell_system's and
    # cell_qp's, byte for byte
    S, W = size
    inst = generate(GeneratorConfig(S=S, n_company_contracts=W, seed=seed))
    beta = _drawn_beta(inst, beta, data)
    masks = data.draw(st.lists(st.integers(1, 2 ** (W + 1) - 1), min_size=S, max_size=S))
    A = Pattern((np.array(masks)[:, None] >> np.arange(W + 1)) & 1)
    sys_a = cell_system(inst, A, beta)
    seg_a = _row_segments(A, sys_a.h.size)
    seg, opt = neighbors(inst, A, _drawn_price(inst, data))
    scan = price_complex.NeighborScan(inst, A, beta, seg, opt)
    m_a = sys_a.h.size
    assert _same_bytes(scan.G[:m_a], sys_a.G) and _same_bytes(scan.h[:m_a], sys_a.h)
    for k, (s, w) in enumerate(zip(seg.tolist(), opt.tolist())):
        B = A.flip(s, w)
        sys_b = cell_system(inst, B, beta)
        seg_b = _row_segments(B, sys_b.h.size)
        prob, d, (red, rows) = scan.cell(k)
        assert np.isin(np.arange(m_a), rows).tolist() == (seg_a != s).tolist()
        assert (rows < m_a).tolist() == (seg_b != s).tolist()
        qp = cell_qp(inst, B, beta)
        assert _same_bytes(prob.G, sys_b.G) and _same_bytes(prob.h, sys_b.h)
        assert _same_bytes(prob.Q, -qp.Q) and _same_bytes(prob.c, -qp.c)
        assert type(d) is float and _same_bytes(d, qp.d)
        assert red is scan.red and _same_bytes(scan.G[rows], sys_b.G)


@settings(max_examples=30, deadline=None)
@given(size=st.sampled_from([(5, 2), (6, 3)]), beta=st.sampled_from([0.05, 0.5]),
       seed=st.integers(0, 2**31 - 1), data=st.data())
def test_warm_neighbour_cell_solves_agree_with_cold(size, beta, seed, data):
    # a neighbour cell solved from the incumbent's optimum and mapped working
    # set must find the cell empty exactly when a cold solve does, and the
    # same optimal value
    S, W = size
    inst = generate(GeneratorConfig(S=S, n_company_contracts=W, seed=seed))
    x0 = _drawn_price(inst, data)
    A = pattern_of(inst, x0, beta)
    x_A, _, _, active = solve_cell(inst, A, beta, warm=x0)
    seg, opt = neighbors(inst, A, x_A)
    scan = price_complex.NeighborScan(inst, A, beta, seg, opt)
    for k, (s, w) in enumerate(zip(seg.tolist(), opt.tolist())):
        cand = A.flip(s, w)
        try:
            _, cold = solve_cell(inst, cand, beta)[:2]
        except CellInfeasibleError:
            cold = None
        try:
            _, warm, _, _ = solve_cell(
                inst, cand, beta, warm=x_A, warm_active=active, cell=scan.cell(k))
        except CellInfeasibleError:
            warm = None
        assert (warm is None) == (cold is None)
        if cold is not None:
            assert abs(warm - cold) <= 1e-7 * max(1.0, abs(cold))


def _local_rows(rows, union_rows):
    """The positions in ``rows`` of those ``union_rows`` it holds, in order."""
    pos = {r: i for i, r in enumerate(rows.tolist())}
    return [pos[r] for r in union_rows if r in pos]


def _solved(inst, pattern, beta, **kw):
    """``solve_cell``'s answer as bytes and values, or None for an empty cell."""
    try:
        x, value, capped, active = solve_cell(inst, pattern, beta, **kw)
    except CellInfeasibleError:
        return None
    return x.tobytes(), value, capped, active


@settings(max_examples=30, deadline=None)
@given(size=st.sampled_from([(5, 2), (6, 3)]), seed=st.integers(0, 2**31 - 1),
       data=st.data())
def test_scan_cell_solves_match_solves_from_scratch(size, seed, data):
    # a candidate solved through the scan's shared reduction gives the same
    # bytes as the same warm solve assembled and reduced on its own, and an
    # empty candidate raises in both.  Two incumbents: the pattern at a drawn
    # price, whose cell and most neighbours are non-empty, and a drawn
    # pattern whose segment 0 holds one option and segment 1 two, so that
    # some flip gains the single-option row and some flip loses it
    S, W = size
    beta = 0.05
    inst = generate(GeneratorConfig(S=S, n_company_contracts=W, seed=seed))
    x0 = _drawn_price(inst, data)
    one = 1 << data.draw(st.integers(0, W))
    two = one | 1 << data.draw(st.sampled_from([w for w in range(W + 1) if not one >> w & 1]))
    rest = data.draw(st.lists(st.integers(1, 2 ** (W + 1) - 1), min_size=S - 2, max_size=S - 2))
    drawn = Pattern((np.array([one, two] + rest)[:, None] >> np.arange(W + 1)) & 1)
    for A in (pattern_of(inst, x0, beta), drawn):
        try:
            x_A, _, _, active = solve_cell(inst, A, beta, warm=x0)
        except CellInfeasibleError:
            x_A, active = x0, None
        seg, opt = neighbors(inst, A, x_A)
        scan = price_complex.NeighborScan(inst, A, beta, seg, opt)
        for k, (s, w) in enumerate(zip(seg.tolist(), opt.tolist())):
            cand = A.flip(s, w)
            # through the scan the working set names union rows, on its own
            # rows of the candidate's cell system
            local = None if active is None else _local_rows(scan.rows[k], active)
            assert _solved(inst, cand, beta, warm=x_A, warm_active=active, cell=scan.cell(k)) == \
                _solved(inst, cand, beta, warm=x_A, warm_active=local)
    m_A = cell_system(inst, drawn, beta).h.size
    assert {-1, 1} <= {rows.size - m_A for rows in scan.rows}


def test_empty_scan_candidate_raises():
    # a one-flip neighbour with an empty cell raises through the scan too
    inst = generate(GeneratorConfig(S=5, n_company_contracts=2, seed=0))
    x0 = inst.polytope.midpoint()
    A = pattern_of(inst, x0, 0.05)
    x_A, _, _, active = solve_cell(inst, A, 0.05, warm=x0)
    seg, opt = neighbors(inst, A, x_A)
    scan = price_complex.NeighborScan(inst, A, 0.05, seg, opt)
    empty = 0
    for k, (s, w) in enumerate(zip(seg.tolist(), opt.tolist())):
        try:
            solve_cell(inst, A.flip(s, w), 0.05)
        except CellInfeasibleError:
            empty += 1
            with pytest.raises(CellInfeasibleError):
                solve_cell(inst, A.flip(s, w), 0.05, warm=x_A, warm_active=active,
                           cell=scan.cell(k))
    assert empty
