"""The benchmark's tracer still fits the package.

``bench/tracer.py`` wraps package functions by module-global name, unpacks
the active-set core's result when phase 1 calls it, and reads ``QpSolution``
fields, so a rename or a changed return value in ``src/`` makes
``bench/run.py`` exit non-zero.  One small solve of each solver under the
tracer catches that here.
"""

import importlib
from pathlib import Path

import numpy as np

import tariff_complex as tc
from conftest import make_instance

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _calls(layers, span):
    """A span's call count; a span that never opened has none."""
    return layers.get(span, {"calls": 0})["calls"]


def test_tracer_wraps_every_hook_and_counts_phase_one(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    det_inst = tc.generate(tc.GeneratorConfig(S=3, n_company_contracts=2, seed=0))
    quad_inst = tc.generate(tc.GeneratorConfig(S=5, n_company_contracts=2, seed=0))
    with tracer.Tracer() as tr:
        tc.solve_quad(det_inst, 0.05, tc.SolverOptions(node_limit=5))
        tc.solve_det(det_inst, tc.SolverOptions(node_limit=5))
        tc.qspc(quad_inst, 0.05, opts=tc.QspcOptions(rng_seed=0))
    with tracer.Tracer() as tq:
        tc.qspc(quad_inst, 0.05, opts=tc.QspcOptions(rng_seed=0))
    layers, qspc_layers = tr.layers(), tq.layers()

    # every cell QP, a branch-and-bound leaf's included, is one cell solve
    # or one pure-assignment LP through a name the tracer wraps
    assert _calls(layers, "price_complex.solve_cell") + \
        _calls(layers, "price_complex.pure_assignment_lp") == \
        _calls(layers, "subqp.solve_qp.price_complex")
    # every qspc cell QP, a neighbourhood scan's candidates included, is one
    # cell solve through the module-global names the tracer wraps
    assert qspc_layers["price_complex.solve_cell"]["calls"] == \
        qspc_layers["subqp.solve_qp.price_complex"]["calls"] > 0
    for span in ("bnb.solve_quad", "bnb.solve_det", "qspc.qspc",
                 "subqp.solve_qp.bnb", "subqp.solve_qp.price_complex"):
        assert layers[span]["calls"] > 0, span
    assert tr.counts["subqp.solve_qp.bnb.phase1_iters"] > 0
    assert tr.counts["subqp.solve_qp.price_complex.phase1_iters"] > 0
    assert tr.counts["subqp.solve_qp.bnb.iters"] > 0
    # every node QP goes through the module-global name the tracer wraps
    assert layers["subqp.solve_qp.bnb"]["calls"] == tr.counts["bnb.nodes"]


def test_tracer_counts_branch_and_bound_leaf_cells(monkeypatch):
    # a leaf closes with one cell solve: the limit cell of a pure pattern in
    # the deterministic tree, the regularized cell in the quadratic one
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    inst = make_instance(np.random.default_rng(52), S=2, W=1, H=2)
    for solve, span in ((tc.solve_det, "price_complex.pure_assignment_lp"),
                        (lambda inst: tc.solve_quad(inst, 1.0), "price_complex.solve_cell")):
        with tracer.Tracer() as tr:
            rep = solve(inst)
        leaves = sum(row["kind"] == "leaf" for row in rep.trace)
        assert leaves == 1
        assert _calls(tr.layers(), span) == leaves
        assert _calls(tr.layers(), "subqp.solve_qp.price_complex") == leaves
