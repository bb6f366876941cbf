"""Pivoting local search with randomized block restarts."""

import dataclasses
import sys
import types

import numpy as np
import pytest

from tariff_complex import (
    GeneratorConfig,
    QspcOptions,
    QspcState,
    explore_good_neighbors,
    generate,
    miqp_restart,
    pattern_of,
    qspc,
    quad_profit,
    solve_cell,
    solve_quad,
    SolverOptions,
)
from tariff_complex import price_complex
from conftest import make_instance, tie_instance


def test_qspc_report_shape():
    rng = np.random.default_rng(139)
    inst = make_instance(rng, S=2, W=2, H=1)
    rep = qspc(inst, 1.0)
    assert rep.status == "heuristic"
    assert rep.bound is None and rep.gap is None
    assert rep.node_count == 0
    assert rep.has_incumbent()
    assert quad_profit(inst, rep.x, 1.0) == pytest.approx(rep.objective, abs=1e-8)
    assert inst.polytope.contains(rep.x, tol=1e-7)
    assert rep.extras["n_explore"] >= 1
    assert not rep.extras["timed_out"]


def test_log_is_monotone_and_typed():
    rng = np.random.default_rng(149)
    for seed in range(6):
        inst = make_instance(np.random.default_rng(400 + seed), S=3, W=2, H=1)
        rep = qspc(inst, 1.5, opts=QspcOptions(rng_seed=seed))
        phis = [row["phi"] for row in rep.trace]
        assert all(b >= a - 1e-12 for a, b in zip(phis, phis[1:]))
        assert all(row["phase"] in ("descent", "restart") for row in rep.trace)
        assert all(set(row) == {"phase", "pattern_hash", "phi"} for row in rep.trace)
        assert rep.objective == pytest.approx(phis[-1], abs=1e-12)


def test_quality_against_oracle(tiny_set, tiny_beta_list, tiny_quad_oracles):
    hits = 0
    n = 10
    for i in range(n):
        inst, beta = tiny_set[i], tiny_beta_list[i]
        res = tiny_quad_oracles[i]
        rep = qspc(inst, beta, opts=QspcOptions(rng_seed=i))
        assert rep.objective <= res.value + 1e-7  # never beats the oracle
        if res.value - rep.objective <= 0.01 * max(1.0, abs(res.value)):
            hits += 1
    assert hits >= n - 1


def test_runs_are_deterministic():
    rng = np.random.default_rng(151)
    inst = make_instance(rng, S=3, W=2, H=1)
    a = qspc(inst, 0.8, opts=QspcOptions(rng_seed=5))
    b = qspc(inst, 0.8, opts=QspcOptions(rng_seed=5))
    assert repr(a.trace) == repr(b.trace)
    assert a.objective == b.objective
    assert a.x.tobytes() == b.x.tobytes()
    c = qspc(inst, 0.8, opts=QspcOptions(rng_seed=6))
    assert c.objective >= a.objective - 0.5  # different stream, same ballpark


def test_start_at_optimum_is_a_fixed_point(tiny_set, tiny_beta_list,
                                           tiny_quad_oracles):
    inst, beta = tiny_set[1], tiny_beta_list[1]
    res = tiny_quad_oracles[1]
    rep = qspc(inst, beta, start=res.x)
    assert rep.objective >= res.value - 1e-7


def test_full_block_restart_reaches_global(tiny_set, tiny_beta_list,
                                           tiny_quad_oracles):
    # sigma = 1 frees every indicator, so one restart solves the full program
    inst, beta = tiny_set[3], tiny_beta_list[3]
    res = tiny_quad_oracles[3]
    opts = QspcOptions(sigma=1.0, restart_gap=1e-6, rng_seed=0)
    rep = qspc(inst, beta, opts=opts)
    assert rep.objective == pytest.approx(res.value, abs=1e-5)


def test_degenerate_restart_is_a_no_op():
    rng = np.random.default_rng(157)
    inst = make_instance(rng, S=2, W=2, H=1)
    beta = 1.0
    x0 = inst.polytope.midpoint()
    A = pattern_of(inst, x0, beta)
    x_A, phi_A = solve_cell(inst, A, beta, warm=x0)[:2]
    opts = QspcOptions(sigma=0.0, gamma_s=0, gamma_w=0)
    A_r, x_r, phi_r = miqp_restart(inst, beta, A, opts, warm=(x_A, phi_A))
    assert A_r == A
    assert phi_r == phi_A
    assert np.array_equal(x_r, x_A)


def test_restart_gamma_validation():
    rng = np.random.default_rng(163)
    inst = make_instance(rng, S=2, W=1, H=1)
    A = pattern_of(inst, inst.polytope.midpoint(), 1.0)
    with pytest.raises(ValueError):
        miqp_restart(inst, 1.0, A, QspcOptions(gamma_s=5))
    with pytest.raises(ValueError):
        miqp_restart(inst, 1.0, A, QspcOptions(gamma_w=3))


def test_explore_returns_input_at_local_optimum(tiny_set, tiny_beta_list,
                                                tiny_quad_oracles):
    inst, beta = tiny_set[4], tiny_beta_list[4]
    res = tiny_quad_oracles[4]
    x_A, phi_A = solve_cell(inst, res.pattern, beta, warm=res.x)[:2]
    A_n, x_n, phi_n = explore_good_neighbors(inst, beta, res.pattern, x_A, phi_A)
    assert A_n == res.pattern  # no single flip beats the global optimum
    assert phi_n == phi_A


def test_explore_strictly_improves_from_poor_cell():
    inst = tie_instance()
    beta = 50.0  # sharp response, so the walk-away cell is truly profitless
    x0 = np.array([[5.4]])
    A = pattern_of(inst, x0, beta)
    assert np.array_equal(A.A[:, 1], np.zeros(5))  # nobody buys here
    x_A, phi_A = solve_cell(inst, A, beta, warm=x0)[:2]
    assert phi_A == pytest.approx(0.0, abs=1e-10)
    A_n, x_n, phi_n = explore_good_neighbors(inst, beta, A, x_A, phi_A)
    assert phi_n > 0.9  # winning back the top segment pays about 0.99
    assert A_n != A


def test_restricted_miqp_mode_dominates_single_flips(tiny_set, tiny_beta_list):
    inst, beta = tiny_set[5], tiny_beta_list[5]
    x0 = inst.polytope.midpoint()
    A = pattern_of(inst, x0, beta)
    x_A, phi_A = solve_cell(inst, A, beta, warm=x0)[:2]
    _, _, phi_qp = explore_good_neighbors(
        inst, beta, A, x_A, phi_A,
        opts=QspcOptions(restart_gap=1e-9, neighbor_mode="per_pattern_qp"))
    _, _, phi_mi = explore_good_neighbors(
        inst, beta, A, x_A, phi_A,
        opts=QspcOptions(restart_gap=1e-9, neighbor_mode="restricted_miqp"))
    assert phi_mi >= phi_qp - 1e-7  # joint flips include every single flip


def test_time_limit_zero_keeps_start_state():
    rng = np.random.default_rng(167)
    inst = make_instance(rng, S=2, W=2, H=1)
    rep = qspc(inst, 1.0, opts=QspcOptions(time_limit_s=0.0))
    assert rep.status == "heuristic"
    assert rep.has_incumbent()
    assert rep.extras["timed_out"]
    assert quad_profit(inst, rep.x, 1.0) == pytest.approx(rep.objective, abs=1e-8)


def test_time_limit_zero_starts_from_the_midpoint():
    # with no time for the root QP there is no root incumbent and no bound,
    # and the search starts where a given midpoint start would
    inst = make_instance(np.random.default_rng(167), S=2, W=2, H=1)
    opts = QspcOptions(time_limit_s=0.0)
    rep = qspc(inst, 1.0, opts=opts)
    assert rep.extras["root_bound"] is None
    mid = qspc(inst, 1.0, start=inst.polytope.midpoint(), opts=opts)
    assert repr(rep.trace) == repr(mid.trace) and rep.x.tobytes() == mid.x.tobytes()


def test_root_bound_bounds_the_optimum(tiny_set, tiny_beta_list, tiny_quad_oracles):
    # the unpinned root relaxation bounds the regularized optimum; a given
    # start skips the root and reports no bound
    for i, (inst, beta, res) in enumerate(zip(tiny_set, tiny_beta_list, tiny_quad_oracles)):
        rep = qspc(inst, beta, opts=QspcOptions(rng_seed=i))
        assert rep.extras["root_bound"] >= res.value - 1e-9 * max(1.0, abs(res.value))
    assert qspc(inst, beta, start=res.x).extras["root_bound"] is None


@pytest.mark.parametrize("g", range(3))
def test_search_starts_from_the_root_incumbent(g):
    # the first state is the cell optimum of the root incumbent's pattern,
    # which contains the incumbent's prices
    inst = generate(GeneratorConfig(S=5, n_company_contracts=2, seed=g))
    root = solve_quad(inst, 0.05, SolverOptions(node_limit=1))
    rep = qspc(inst, 0.05, opts=QspcOptions(rng_seed=g))
    assert rep.trace[0]["phi"] >= root.objective - 1e-9


def test_restricted_solves_get_the_remaining_budget(monkeypatch):
    # a fake search clock that only the restricted solves move, one second
    # each, so the budget left at every call is known exactly
    module = sys.modules["tariff_complex.qspc"]
    now, seen = [0.0], []
    solve_quad = module.solve_quad

    def timed(inst, beta, opts, **kwargs):
        seen.append((opts.time_limit_s, limit - now[0]))
        now[0] += 1.0
        return solve_quad(inst, beta, opts, **kwargs)

    monkeypatch.setattr(module, "solve_quad", timed)
    monkeypatch.setattr(module, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    limit = 3.5
    inst = make_instance(np.random.default_rng(181), S=3, W=2, H=1)
    rep = qspc(inst, 1.0, opts=QspcOptions(time_limit_s=limit,
                                           neighbor_mode="restricted_miqp", r_max=10))
    assert len(seen) >= 2
    assert all(got <= left for got, left in seen)
    assert rep.extras["timed_out"]


def test_iteration_capped_cells_are_counted(monkeypatch):
    # a cell QP that stops at its cap gives a feasible point, not a certified
    # cell optimum; the search takes it as solved and counts each of its own
    # capped cell solves: the start, every scan candidate and every
    # restart's re-anchor.  A restart tree's capped node QPs and leaves are
    # that tree's counts, summed into the search's report under their names,
    # so that every capped cell QP is counted once
    module = sys.modules["tariff_complex.qspc"]
    inst = make_instance(np.random.default_rng(181), S=3, W=2, H=1)
    modes = [QspcOptions(r_max=2), QspcOptions(r_max=2, neighbor_mode="restricted_miqp")]
    mid = inst.polytope.midpoint()  # the counts below are a midpoint-started search's
    ref = [qspc(inst, 1.0, start=mid, opts=opts) for opts in modes]
    keys = ("n_capped_cells", "iteration_limit_nodes", "iteration_limit_leaves")
    assert [rep.extras[k] for rep in ref for k in keys] == [0] * 6
    real_qp, real_cell, hits, all_capped = price_complex.solve_qp, module.solve_cell, [0], [0]

    def capped(prob, **kw):
        sol = real_qp(prob, **kw)
        if sol.status == "optimal":
            all_capped[0] += 1
            return dataclasses.replace(sol, status="iteration_limit")
        return sol

    def counted(*args, **kw):
        cell = real_cell(*args, **kw)
        hits[0] += cell.capped
        return cell

    monkeypatch.setattr(price_complex, "solve_qp", capped)
    monkeypatch.setattr(module, "solve_cell", counted)
    counts = []
    for opts, want in zip(modes, ref):
        hits[0] = all_capped[0] = 0
        rep = qspc(inst, 1.0, start=mid, opts=opts)
        assert rep.extras["n_capped_cells"] == hits[0] > 0
        assert rep.extras["iteration_limit_nodes"] == 0  # node QPs are not cell QPs
        assert rep.extras["n_capped_cells"] + rep.extras["iteration_limit_leaves"] == all_capped[0]
        assert rep.objective == want.objective and rep.pattern == want.pattern
        counts.append((rep.extras["n_capped_cells"], rep.extras["iteration_limit_leaves"]))
    # per pattern, every capped cell QP is the search's own; in the
    # restricted mode, two are leaves of its restart trees
    assert counts[0][1] == 0 and counts[1] == (3, 2)
    # a restart that solves its incumbent's cell itself counts that solve too
    state = QspcState(pattern=want.pattern, x=want.x, phi=want.objective)
    hits[0] = 0
    miqp_restart(inst, 1.0, want.pattern, QspcOptions(), counters=state)
    assert state.n_capped_cells == hits[0] >= 1


def test_heuristic_stays_below_exact_bound():
    rng = np.random.default_rng(173)
    inst = make_instance(rng, S=2, W=2, H=1)
    beta = 1.2
    exact = solve_quad(inst, beta, SolverOptions(gap=1e-6))
    heur = qspc(inst, beta)
    assert heur.objective <= exact.bound + 1e-7


def test_options_validation():
    with pytest.raises(ValueError):
        QspcOptions(sigma=1.5)
    with pytest.raises(ValueError):
        QspcOptions(r_max=0)
    with pytest.raises(ValueError):
        QspcOptions(neighbor_mode="annealing")
