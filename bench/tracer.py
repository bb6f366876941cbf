"""Per-module spans recorded from outside the package.

The package's modules call each other through module-global names
(``bnb.solve_qp``, ``price_complex.cell_system``, ...).  A :class:`Tracer`
replaces those names with timing wrappers for the duration of a ``with``
block and puts the originals back afterwards, so the package itself carries
no tracing code and the untraced runs execute it unchanged.

Spans are kept in memory as ``(name, parent index, start, end)``.  A span's
self time is its duration minus the durations of its direct children, so a
layer is charged only for the time spent in its own code.  Counters are
recorded at the same boundaries from each call's return value or exception.

``QpSolution.n_iterations`` counts only the iterations after phase 1, so the
tracer also wraps ``subqp._active_set_core``, which both phases call, and
counts the phase-1 iterations and cap hits under the enclosing ``solve_qp``
span's caller as ``subqp.solve_qp.<caller>.phase1_iters`` and
``.phase1_iter_cap_hits``.  That wrapper records no span, so the active-set
core's time stays in ``solve_qp``'s self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from tariff_complex import CellInfeasibleError


def _count_qp(counts, name, sol, exc):
    if sol is None:
        return
    counts[name + ".iters"] += sol.n_iterations
    counts[name + ".iter_cap_hits"] += sol.status == "iteration_limit"
    counts[name + ".ridge"] += bool(sol.ridge_applied)
    counts[name + ".infeasible"] += sol.status == "infeasible"


def _count_cell(counts, name, result, exc):
    counts[name + ".infeasible"] += isinstance(exc, CellInfeasibleError)


def _count_nodes(counts, name, report, exc):
    if report is not None:
        counts["bnb.nodes"] += report.node_count


# (module, attribute, span name, counter).  Each row is one call site's view
# of a function: ``solve_qp`` is split by the module that calls it, and a
# function reached from several modules is wrapped in each of them under one
# span name.  ``tariff_complex.qspc`` in the package namespace is the
# function, so the module is looked up in ``sys.modules``.
HOOKS = (
    ("tariff_complex", "solve_quad", "bnb.solve_quad", _count_nodes),
    ("tariff_complex", "solve_det", "bnb.solve_det", _count_nodes),
    ("tariff_complex", "qspc", "qspc.qspc", None),
    ("tariff_complex.response", "quad_response", "response.quad_response", None),
    ("tariff_complex.response", "logit_response", "response.logit_response", None),
    ("tariff_complex.response", "det_response_set", "response.det_response_set", None),
    ("tariff_complex.bnb", "solve_qp", "subqp.solve_qp.bnb", _count_qp),
    ("tariff_complex.bnb", "quad_response", "response.quad_response", None),
    ("tariff_complex.bnb", "det_response_set", "response.det_response_set", None),
    ("tariff_complex.bnb", "solve_cell", "price_complex.solve_cell", _count_cell),
    ("tariff_complex.bnb", "pure_assignment_lp", "price_complex.pure_assignment_lp", None),
    ("tariff_complex.price_complex", "solve_qp", "subqp.solve_qp.price_complex", _count_qp),
    ("tariff_complex.price_complex", "cell_system", "price_complex.cell_system", None),
    ("tariff_complex.price_complex", "cell_qp", "price_complex.cell_qp", None),
    ("tariff_complex.price_complex", "quad_response", "response.quad_response", None),
    ("tariff_complex.qspc", "solve_quad", "bnb.solve_quad", _count_nodes),
    ("tariff_complex.qspc", "neighbors", "price_complex.neighbors", None),
    ("tariff_complex.qspc", "solve_cell", "price_complex.solve_cell", _count_cell),
    ("tariff_complex.qspc", "quad_response", "response.quad_response", None),
    ("tariff_complex.qspc", "explore_good_neighbors", "qspc.explore_good_neighbors", None),
    ("tariff_complex.qspc", "miqp_restart", "qspc.miqp_restart", None),
)


_QP_SPAN = "subqp.solve_qp."


class Tracer:
    """Span recorder; use as ``with Tracer() as tr: ...``."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: list[str] = []  # names of the spans on the stack
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        spans, stack, opened, counts = self.spans, self._stack, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            opened.append(name)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                spans[idx] = (name, parent, t0, clock())
                stack.pop()
                opened.pop()
                if observe is not None:
                    observe(counts, name, result, exc)

        return traced

    def phase_one_counter(self, core):
        """Wrap the active-set core: count the iterations and cap hits of
        its calls from ``_phase_one`` inside a ``solve_qp`` span."""
        opened, counts = self._open, self.counts

        @functools.wraps(core)
        def counted(*args, **kwargs):
            out = core(*args, **kwargs)
            if (opened and opened[-1].startswith(_QP_SPAN)
                    and sys._getframe(1).f_code.co_name == "_phase_one"):
                _, status, _, _, iters, _ = out
                counts[opened[-1] + ".phase1_iters"] += iters
                counts[opened[-1] + ".phase1_iter_cap_hits"] += status == "iteration_limit"
            return out

        return counted

    def _swap(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def __enter__(self):
        for modname, attr, name, observe in HOOKS:
            module = sys.modules[modname]
            self._swap(module, attr, self.span(name, getattr(module, attr), observe))
        subqp = sys.modules["tariff_complex.subqp"]
        self._swap(subqp, "_active_set_core", self.phase_one_counter(subqp._active_set_core))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s`` (duration minus children)."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, _, t0, t1), c in zip(self.spans, child):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - c
        return dict(out)
