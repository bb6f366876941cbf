"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line with its headline numbers; run with
``pytest -v`` to get one verdict line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from tariff_complex import (
    QpProblem,
    QspcOptions,
    SolverOptions,
    beta_sweep,
    cell_qp,
    cell_system,
    check_metric_estimates,
    det_oracle,
    det_profit,
    det_response_set,
    gamma_bound,
    lipschitz_bound,
    pattern_of,
    project_simplex,
    qpcc_objective,
    qspc,
    quad_oracle,
    quad_profit,
    quad_response,
    quad_response_row,
    solve_det,
    solve_qp,
    solve_quad,
)
from tariff_complex.cli import main
from conftest import interior_point, make_instance, tie_instance


def _response_sweep(n):
    rng = np.random.default_rng(2026)
    draws = []
    for _ in range(n):
        W = int(rng.integers(1, 13))
        V = np.concatenate([[0.0], rng.uniform(-2.0, 10.0, size=W)])
        beta = float(10.0 ** rng.uniform(math.log10(0.01), math.log10(100.0)))
        draws.append((V, beta))
    return draws


def test_criterion_01_response_matches_projection_and_qp():
    t0 = time.perf_counter()
    worst = 0.0
    for V, beta in _response_sweep(1000):
        y = quad_response_row(V, beta).ybar
        proj = project_simplex(-0.5 * beta * V)
        n = V.size
        sol = solve_qp(QpProblem(Q=(2.0 / beta) * np.eye(n), c=V - 1.0 / beta,
                                 G=-np.eye(n), h=np.zeros(n),
                                 A=np.ones((1, n)), b=np.array([1.0])))
        assert sol.status == "optimal"
        worst = max(worst, float(np.abs(y - proj).max()),
                    float(np.abs(y - sol.z).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"criterion 01 PASS: 1000 draws, max deviation {worst:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_02_kkt_residuals():
    worst = 0.0
    for V, beta in _response_sweep(1000):
        det = quad_response_row(V, beta)
        worst = max(worst, det.kkt_residual(V))
    assert worst <= 1e-9
    print(f"criterion 02 PASS: 1000 draws, max KKT residual {worst:.2e}")


def test_criterion_03_soft_threshold_exact():
    for beta in (0.01, 0.43, 1.0, 6.0, 100.0):
        gap = 2.0 / beta
        at = quad_response_row(np.array([0.0, gap]), beta).ybar
        assert np.array_equal(at, [1.0, 0.0])
        long = quad_response_row(np.array([0.0, gap, gap + 0.5, gap + 1.0]), beta).ybar
        assert np.array_equal(long, [1.0, 0.0, 0.0, 0.0])
        below = quad_response_row(np.array([0.0, gap - 1e-6]), beta).ybar
        assert below[1] > 0.0
        assert below[0] + below[1] == pytest.approx(1.0, abs=1e-12)
    print("criterion 03 PASS: gap 2/beta concentrates exactly, "
          "2/beta - 1e-6 stays interior")


def test_criterion_04_complementarity_objective_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(500):
        inst = make_instance(rng, S=int(rng.integers(1, 5)),
                             W=int(rng.integers(1, 4)), H=int(rng.integers(1, 3)))
        x = rng.uniform(0.0, 4.0, size=(inst.W, inst.H))
        beta = float(10.0 ** rng.uniform(-1.3, 1.7))
        _, detail = quad_response(inst, x, beta)
        diff = abs(qpcc_objective(inst, x, beta, detail) -
                   quad_profit(inst, x, beta))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 30.0
    print(f"criterion 04 PASS: 500 draws, max identity gap {worst:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_05_cell_concavity_and_value_identity():
    rng = np.random.default_rng(2028)
    worst_eig = 0.0
    worst_val = 0.0
    for _ in range(200):
        inst = make_instance(rng, S=int(rng.integers(1, 4)),
                             W=int(rng.integers(1, 3)), H=int(rng.integers(1, 3)))
        beta = float(10.0 ** rng.uniform(-1, 1.5))
        x0 = rng.uniform(0.2, 3.8, size=(inst.W, inst.H))
        pat = pattern_of(inst, x0, beta)
        qp = cell_qp(inst, pat, beta)
        worst_eig = min(worst_eig, qp.min_concavity_eig())
        system = cell_system(inst, pat, beta)
        G, h = system.G, system.h
        x0f = x0.ravel()
        for _ in range(100):
            d = rng.normal(size=x0f.size)
            rate = G @ d
            slack = h - G @ x0f
            pos = rate > 1e-12
            t_max = float(np.min(slack[pos] / rate[pos])) if pos.any() else 1.0
            xr = x0f + rng.uniform(0.0, 0.95) * min(t_max, 10.0) * d
            diff = abs(qp.value(xr) -
                       quad_profit(inst, xr.reshape(inst.W, inst.H), beta))
            worst_val = max(worst_val, diff)
    assert worst_eig >= -1e-9
    assert worst_val <= 1e-8
    print(f"criterion 05 PASS: 200 cells, min concavity eig {worst_eig:.2e}, "
          f"max cell-value gap {worst_val:.2e} over 100 points each")


def test_criterion_06_exact_solver_matches_enumeration(tiny_set, tiny_beta_list,
                                                       tiny_quad_oracles):
    t0 = time.perf_counter()
    worst = 0.0
    for inst, beta, res in zip(tiny_set, tiny_beta_list, tiny_quad_oracles):
        rep = solve_quad(inst, beta, SolverOptions(gap=1e-6))
        assert rep.status in ("optimal", "gap_reached")
        worst = max(worst, abs(rep.objective - res.value))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 300.0
    print(f"criterion 06 PASS: 20 instances, max optimum gap {worst:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_07_det_solver_matches_pure_enumeration(tiny_set,
                                                          tiny_det_oracles):
    worst = 0.0
    for inst, res in zip(tiny_set, tiny_det_oracles):
        rep = solve_det(inst)
        assert rep.status in ("optimal", "gap_reached")
        worst = max(worst, abs(rep.objective - res.value))
        y = rep.response.ybar
        assert np.all((y == 0.0) | (y == 1.0))
        assert np.allclose(y.sum(axis=1), 1.0)
    assert worst <= 1e-6
    print(f"criterion 07 PASS: 20 instances, max optimum gap {worst:.2e}, "
          f"one-hot incumbents throughout")


def test_criterion_08_large_beta_patterns_stabilize():
    done = 0
    thresholds = []
    for trial in range(40):
        inst = make_instance(np.random.default_rng(500 + trial),
                             S=2, W=int(np.random.default_rng(trial).integers(1, 3)),
                             H=1)
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
        for mult in (2.0, 4.0, 8.0):
            assert pattern_of(inst, x, mult * beta) == res.pattern
        thresholds.append(beta)
        done += 1
        if done == 10:
            break
    assert done == 10
    print(f"criterion 08 PASS: 10 toys stabilized, doubling thresholds "
          f"<= {max(thresholds):.3g} < 1e12")


def test_criterion_09_local_search_quality(tiny_set, tiny_beta_list,
                                           tiny_quad_oracles):
    t0 = time.perf_counter()
    hits = 0
    monotone = 0
    n_runs = 100
    for seed in range(n_runs):
        i = seed % len(tiny_set)
        inst, beta = tiny_set[i], tiny_beta_list[i]
        res = tiny_quad_oracles[i]
        rep = qspc(inst, beta, opts=QspcOptions(rng_seed=seed))
        assert rep.objective <= res.value + 1e-7
        if res.value - rep.objective <= 0.01 * max(1.0, abs(res.value)):
            hits += 1
        phis = [row["phi"] for row in rep.trace]
        if all(b >= a - 1e-12 for a, b in zip(phis, phis[1:])):
            monotone += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 95
    assert monotone == n_runs
    assert elapsed < 600.0
    print(f"criterion 09 PASS: {hits}/100 runs within 1% of the oracle, "
          f"{monotone}/100 monotone logs, {elapsed:.1f}s")


def test_criterion_10_logit_pairing_bounds():
    rng = np.random.default_rng(2029)
    violations = 0
    for _ in range(10_000):
        W = int(rng.integers(1, 13))
        V = np.concatenate([[0.0], rng.uniform(0.0, 10.0, size=W)])
        beta = float(10.0 ** rng.uniform(-2, 2))
        rep = check_metric_estimates(V, beta)
        if not rep.all_ok:
            violations += 1
    assert violations == 0
    caps = [gamma_bound(w) for w in range(1, 10_001)]
    assert max(caps) <= 1.0 / 9.0
    print(f"criterion 10 PASS: 0/10000 bound violations, "
          f"max gamma {max(caps):.7f} <= 1/9 over w = 1..10000")


def test_criterion_11_discontinuity_contrast():
    inst = tie_instance()
    grid = np.linspace(0.5, 5.5, 101)  # step 0.05, hits the tie price 3.0
    step = grid[1] - grid[0]
    det_vals = np.array([det_profit(inst, np.array([[t]])) for t in grid])
    det_jumps = np.abs(np.diff(det_vals))
    peak = det_vals.max()
    assert det_jumps.max() >= 0.10 * peak
    beta = 1.0
    bound = lipschitz_bound(inst, beta)
    quad_vals = np.array([quad_profit(inst, np.array([[t]]), beta) for t in grid])
    quad_jumps = np.abs(np.diff(quad_vals))
    assert quad_jumps.max() <= bound * step
    print(f"criterion 11 PASS: det jump {det_jumps.max():.3f} >= 10% of peak "
          f"{peak:.3f}; quad steps <= {quad_jumps.max():.4f} <= "
          f"L*step {bound * step:.4f}")


def test_criterion_12_fixed_price_curve_below_optimum():
    from tariff_complex import GeneratorConfig, generate

    betas = [0.005, 0.02, 0.1]
    n_checked = 0
    for seed in range(5):
        inst = generate(GeneratorConfig(S=2, n_company_contracts=2, seed=seed))
        det_rep = solve_det(inst)
        assert det_rep.has_incumbent()
        table = beta_sweep(inst, betas, det_rep.x,
                           qspc_opts=QspcOptions(rng_seed=seed))
        for b in betas:
            fixed = table.values("det_prices_quad", b)[0]
            opt = table.values("quad_opt", b)[0]
            assert fixed <= opt + 1e-9
            n_checked += 1
    toy = make_instance(np.random.default_rng(211), S=2, W=1, H=1)
    tail = quad_oracle(toy, 1e6).value
    det_val = solve_det(toy).objective
    assert tail == pytest.approx(det_val, abs=1e-3)
    print(f"criterion 12 PASS: {n_checked} (instance, beta) pairs sandwiched; "
          f"beta=1e6 optimum within {abs(tail - det_val):.2e} of deterministic")


def test_criterion_13_reports_are_reproducible(tmp_path):
    inst_path = tmp_path / "inst.json"
    assert main(["generate", "--segments", "2", "--contracts", "2",
                 "--seed", "7", "--out", str(inst_path)]) == 0
    blobs = {}
    for method, seed_opts in (("qspc", ["--seed", "42"]), ("bnb", [])):
        outs = []
        for threads, name in (("1", "a"), ("8", "b"), ("1", "c")):
            path = tmp_path / f"{method}-{name}.json"
            rc = main(["solve", str(inst_path), "--model", "quad",
                       "--method", method, "--beta", "0.01",
                       "--threads", threads, "--out", str(path)] + seed_opts)
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        blobs[method] = outs[0]
    payload = json.loads(blobs["qspc"])
    assert payload["status"] == "heuristic"
    print("criterion 13 PASS: byte-identical reports across repeated runs "
          "and thread counts for qspc and bnb")
