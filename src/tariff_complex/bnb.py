"""Exact solvers: big-M reformulations plus branch and bound.

Both models lift the bilevel pricing problem to a single level with an
envy-variable ``mu_s`` (the segment's attained disutility level) and
activation indicators switched by big-M rows:

* deterministic: ``0 <= V_sw(x) - mu_s <= M_sw (1 - y_sw)`` with one-hot
  ``ybar_s``; an integral optimum always exists, so branching is on ``ybar``.
* regularized: ``0 <= V_sw(x) + (2/beta_s) y_sw - mu_s <= M_sw (1 - z_sw)``
  with ``0 <= y_sw <= z_sw`` binary; the objective is the multiplier form of
  the profit, concave in ``(x, mu, ybar)``.

Node relaxations drop integrality and are convex, solved by the in-house
active-set method.  Search order is best bound (ties FIFO), branching is on
the most fractional binary (ties lexicographic by (segment, option)).  Every
incumbent is rebuilt from an exact response evaluation, so reported
objectives never inherit relaxation slack.  A node QP that stops at the
iteration cap bounds nothing, so its node keeps the parent's bound and is
branched; ``extras["iteration_limit_nodes"]`` counts such nodes.  A tree
exhausted without an incumbent reports ``infeasible`` (bound ``-inf``).
"""

from __future__ import annotations

import heapq
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .model import Instance, Pattern, ResponseMatrix
from .model import profit as _profit
from .price_complex import CellInfeasibleError, pure_assignment_lp, solve_cell
from .response import Beta, det_response_set, quad_response
from .subqp import QpProblem, solve_qp

log = logging.getLogger("tariff_complex.bnb")

DEFAULT_GAP_DET = 1e-6
DEFAULT_GAP_QUAD = 3e-2
_INT_TOL = 1e-6


@dataclass(frozen=True)
class BigM:
    """Valid activation constants: M[s, w] per contract, M0[s] for no purchase."""

    M: np.ndarray
    M0: np.ndarray


def bigm_det(inst: Instance) -> BigM:
    """Constants dominating ``V_sw(x) - mu_s`` over the price box.

    Uses ``mu_s >= min(0, min_w V_sw(x_lo))`` (attained disutility can only
    be that negative) and monotonicity of bills in prices.
    """
    theta_lo = inst.bills(inst.polytope.lower)
    theta_hi = inst.bills(inst.polytope.upper)
    M0 = np.maximum(0.0, (inst.R - theta_lo).max(axis=1))
    M = theta_hi - inst.R + M0[:, None]
    return BigM(M=M, M0=M0)


def bigm_quad(inst: Instance, beta: Beta | float) -> BigM:
    """Deterministic constants shifted by the regularization headroom 2/beta_s."""
    b = Beta.coerce(beta).per_segment(inst.S)
    theta_lo = inst.bills(inst.polytope.lower)
    theta_hi = inst.bills(inst.polytope.upper)
    M0 = 2.0 / b + np.maximum(0.0, (inst.R - theta_lo).max(axis=1))
    M = theta_hi - inst.R + M0[:, None]
    return BigM(M=M, M0=M0)


@dataclass
class SolverOptions:
    """Branch-and-bound budgets.

    ``gap`` defaults per model (1e-6 deterministic, 3e-2 regularized).
    ``node_limit`` exhaustion reports like a time limit.  ``collect_tree``
    stores (parent bound, node bound) pairs for diagnostics.
    """

    gap: float | None = None
    time_limit_s: float = 3600.0
    node_limit: int | None = None
    trace_level: int = 0
    int_tol: float = _INT_TOL
    collect_tree: bool = False


@dataclass
class SolveReport:
    """Solver outcome.  ``objective`` is the exact profit of the incumbent;
    ``bound``/``gap`` are None for heuristic reports.  ``trace`` rows are
    deterministic (timings go to the log stream, not the report)."""

    status: str  # optimal | gap_reached | time_limit | infeasible | heuristic
    objective: float
    bound: float | None
    gap: float | None
    x: np.ndarray | None
    response: ResponseMatrix | None
    pattern: Pattern | None
    node_count: int
    wall_time_s: float
    trace: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def has_incumbent(self) -> bool:
        return self.x is not None


@dataclass
class _Node:
    fixed_lo: np.ndarray  # per-binary lower bounds (0/1)
    fixed_hi: np.ndarray  # per-binary upper bounds (0/1)
    bound: float
    warm: np.ndarray | None
    parent_bound: float


class _Incumbent:
    def __init__(self):
        self.value = -np.inf
        self.x = None
        self.response = None
        self.pattern = None

    def offer(self, value, x, response, pattern) -> bool:
        if value > self.value:
            self.value, self.x, self.response, self.pattern = value, x, response, pattern
            return True
        return False


def _prices_box_rows(inst: Instance, n_total: int) -> tuple[np.ndarray, np.ndarray]:
    G_box, h_box = inst.polytope.rows()
    G = np.zeros((G_box.shape[0], n_total))
    G[:, : inst.W * inst.H] = G_box
    return G, h_box


def solve_det(inst: Instance, opts: SolverOptions | None = None,
              bigm: BigM | None = None) -> SolveReport:
    """Deterministic-model global optimum by LP-based branch and bound."""
    opts = opts or SolverOptions()
    gap_target = DEFAULT_GAP_DET if opts.gap is None else opts.gap
    t0 = time.perf_counter()
    S, W, H = inst.S, inst.W, inst.H
    nx = W * H
    n_bin = S * (W + 1)
    n = nx + S + n_bin  # x, mu, ybar
    mm = bigm or bigm_det(inst)

    def iy(s, w):
        return nx + S + s * (W + 1) + w

    rows_G = []
    rows_h = []
    Gb, hb = _prices_box_rows(inst, n)
    rows_G.append(Gb)
    rows_h.append(hb)
    for s in range(S):
        for w in range(W + 1):
            gl = np.zeros(n)
            if w >= 1:
                gl[(w - 1) * H: w * H] = inst.E[s, w - 1]
            gl[nx + s] = -1.0
            r = float(inst.R[s, w - 1]) if w >= 1 else 0.0
            m = float(mm.M[s, w - 1]) if w >= 1 else float(mm.M0[s])
            # lower side: V_sw - mu_s >= 0
            rows_G.append(-gl[None, :])
            rows_h.append(np.array([-r]))
            # upper side: V_sw - mu_s + M y_sw <= M
            gu = gl.copy()
            gu[iy(s, w)] = m
            rows_G.append(gu[None, :])
            rows_h.append(np.array([m + r]))
    G_fix = np.vstack(rows_G)
    h_fix = np.concatenate(rows_h)
    # simplex equalities
    A = np.zeros((S, n))
    for s in range(S):
        A[s, iy(s, 0): iy(s, W) + 1] = 1.0
    b = np.ones(S)
    c = np.zeros(n)
    c[nx: nx + S] = -inst.rho
    for s in range(S):
        c[iy(s, 1): iy(s, W) + 1] = -inst.rho[s] * (inst.R[s] - inst.C[s])

    bin_idx = np.array([iy(s, w) for s in range(S) for w in range(W + 1)])

    def relax(node):
        G_bnd = np.zeros((2 * n_bin, n))
        h_bnd = np.zeros(2 * n_bin)
        for k, j in enumerate(bin_idx):
            G_bnd[2 * k, j] = 1.0
            h_bnd[2 * k] = node.fixed_hi[k]
            G_bnd[2 * k + 1, j] = -1.0
            h_bnd[2 * k + 1] = -node.fixed_lo[k]
        prob = QpProblem(Q=None, c=c, G=np.vstack([G_fix, G_bnd]),
                         h=np.concatenate([h_fix, h_bnd]), A=A, b=b)
        return solve_qp(prob, warm_start=node.warm)

    def heuristic(z, incumbent):
        x = z[:nx].reshape(W, H)
        _, resp = det_response_set(inst, x)
        val = _profit(inst, x, resp)
        return incumbent.offer(val, x, resp, resp.support())

    def leaf_value(z, node, incumbent):
        yv = z[bin_idx].reshape(S, W + 1)
        combo = tuple(int(np.argmax(yv[s])) for s in range(S))
        res = pure_assignment_lp(inst, combo, warm=z[:nx])
        if res is None:
            return
        val, x = res
        y = np.zeros((S, W + 1))
        for s, w in enumerate(combo):
            y[s, w] = 1.0
        resp = ResponseMatrix(y)
        incumbent.offer(val, x, resp, resp.support())

    return _branch_and_bound(inst, opts, gap_target, relax, bin_idx, heuristic,
                             leaf_value, t0)


@dataclass
class _QuadProgram:
    """Single-level big-M program data for the regularized model.

    Variables are stacked [x (W*H), mu (S), ybar (S*(W+1)), z (S*(W+1))];
    ``G z <= h``, ``A z = b`` hold the switched rows, simplex equalities and
    the price box; the (min-form) objective is ``1/2 z'Qz + c'z``.
    """

    n: int
    nx: int
    n_bin: int
    G: np.ndarray
    h: np.ndarray
    A: np.ndarray
    b: np.ndarray
    Q: np.ndarray
    c: np.ndarray
    bin_idx: np.ndarray


def _quad_program(inst: Instance, bs: np.ndarray, mm: BigM) -> _QuadProgram:
    S, W, H = inst.S, inst.W, inst.H
    nx = W * H
    n_bin = S * (W + 1)
    n = nx + S + 2 * n_bin

    def iy(s, w):
        return nx + S + s * (W + 1) + w

    def iz(s, w):
        return nx + S + n_bin + s * (W + 1) + w

    rows_G = []
    rows_h = []
    Gb, hb = _prices_box_rows(inst, n)
    rows_G.append(Gb)
    rows_h.append(hb)
    for s in range(S):
        for w in range(W + 1):
            gl = np.zeros(n)
            if w >= 1:
                gl[(w - 1) * H: w * H] = inst.E[s, w - 1]
            gl[iy(s, w)] = 2.0 / bs[s]
            gl[nx + s] = -1.0
            r = float(inst.R[s, w - 1]) if w >= 1 else 0.0
            m = float(mm.M[s, w - 1]) if w >= 1 else float(mm.M0[s])
            rows_G.append(-gl[None, :])
            rows_h.append(np.array([-r]))
            gu = gl.copy()
            gu[iz(s, w)] = m
            rows_G.append(gu[None, :])
            rows_h.append(np.array([m + r]))
            # 0 <= y_sw <= z_sw
            gy = np.zeros(n)
            gy[iy(s, w)] = -1.0
            rows_G.append(gy[None, :])
            rows_h.append(np.array([0.0]))
            gyz = np.zeros(n)
            gyz[iy(s, w)] = 1.0
            gyz[iz(s, w)] = -1.0
            rows_G.append(gyz[None, :])
            rows_h.append(np.array([0.0]))
    A = np.zeros((S, n))
    for s in range(S):
        A[s, iy(s, 0): iy(s, W) + 1] = 1.0
    qdiag = np.zeros(n)
    c = np.zeros(n)
    c[nx: nx + S] = -inst.rho
    for s in range(S):
        qdiag[iy(s, 0): iy(s, W) + 1] = 4.0 * inst.rho[s] / bs[s]
        c[iy(s, 1): iy(s, W) + 1] = -inst.rho[s] * (inst.R[s] - inst.C[s])
    bin_idx = np.array([iz(s, w) for s in range(S) for w in range(W + 1)])
    return _QuadProgram(n=n, nx=nx, n_bin=n_bin, G=np.vstack(rows_G),
                        h=np.concatenate(rows_h), A=A, b=np.ones(S),
                        Q=np.diag(qdiag), c=c, bin_idx=bin_idx)


def _bound_rows(qp: _QuadProgram, lo: np.ndarray, hi: np.ndarray):
    G_bnd = np.zeros((2 * qp.n_bin, qp.n))
    h_bnd = np.zeros(2 * qp.n_bin)
    for k, j in enumerate(qp.bin_idx):
        G_bnd[2 * k, j] = 1.0
        h_bnd[2 * k] = hi[k]
        G_bnd[2 * k + 1, j] = -1.0
        h_bnd[2 * k + 1] = -lo[k]
    return G_bnd, h_bnd


def bigm_piece_value(inst: Instance, beta: Beta | float, fixed_z: np.ndarray,
                     bigm: BigM | None = None) -> float | None:
    """Value of the continuous single-level program with every activation
    indicator pinned to the given 0/1 pattern, under the supplied constants.
    Returns None when the pinned program is infeasible.

    With valid constants this equals the closed-cell optimum of the pattern;
    undersized constants cut it, which is what the negative-control tests
    probe.
    """
    bet = Beta.coerce(beta)
    bs = bet.per_segment(inst.S)
    mm = bigm or bigm_quad(inst, bet)
    qp = _quad_program(inst, bs, mm)
    z = np.asarray(fixed_z, dtype=np.int8).ravel()
    if z.size != qp.n_bin or not np.all((z == 0) | (z == 1)):
        raise ValueError("fixed_z must be a binary S x (W+1) pattern")
    G_bnd, h_bnd = _bound_rows(qp, z, z)
    sol = solve_qp(QpProblem(Q=qp.Q, c=qp.c, G=np.vstack([qp.G, G_bnd]),
                             h=np.concatenate([qp.h, h_bnd]), A=qp.A, b=qp.b))
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise RuntimeError(f"pinned-pattern solve ended with status {sol.status}")
    return -sol.value


def solve_quad(inst: Instance, beta: Beta | float, opts: SolverOptions | None = None,
               fixed_z: np.ndarray | dict | None = None,
               bigm: BigM | None = None,
               warm_incumbent: tuple[np.ndarray, float] | None = None) -> SolveReport:
    """Regularized-model optimum by QP-based branch and bound on the
    activation indicators.

    ``fixed_z`` pins chosen indicators: 0 forces the option out of the
    support, 1 pins its stationarity row (the option may still carry zero
    mass on the cell boundary).  ``warm_incumbent`` seeds pruning with a
    known feasible price vector, which must respect ``fixed_z``.
    """
    opts = opts or SolverOptions()
    gap_target = DEFAULT_GAP_QUAD if opts.gap is None else opts.gap
    t0 = time.perf_counter()
    S, W, H = inst.S, inst.W, inst.H
    bet = Beta.coerce(beta)
    bs = bet.per_segment(S)
    nx = W * H
    n_bin = S * (W + 1)
    mm = bigm or bigm_quad(inst, bet)
    qp = _quad_program(inst, bs, mm)
    bin_idx = qp.bin_idx
    fix_lo, fix_hi = _parse_fixed(fixed_z, S, W)

    def relax(node):
        G_bnd, h_bnd = _bound_rows(qp, node.fixed_lo, node.fixed_hi)
        prob = QpProblem(Q=qp.Q, c=qp.c, G=np.vstack([qp.G, G_bnd]),
                         h=np.concatenate([qp.h, h_bnd]), A=qp.A, b=qp.b)
        return solve_qp(prob, warm_start=node.warm)

    def offer_at_x(x, incumbent):
        resp, details = quad_response(inst, x, bet)
        # the exact response must respect pinned indicators
        V = inst.disutilities(x)
        for k in range(n_bin):
            s, w = divmod(k, W + 1)
            if fix_lo[k] == 1:
                res = V[s, w] + (2.0 / bs[s]) * resp.ybar[s, w] - details[s].mu
                if abs(res) > 1e-9:
                    return False
            if fix_hi[k] == 0 and resp.ybar[s, w] > 1e-9:
                return False
        val = _profit(inst, x, resp)
        return incumbent.offer(val, x, resp, resp.support())

    def heuristic(z, incumbent):
        return offer_at_x(z[:nx].reshape(W, H), incumbent)

    def leaf_value(z, node, incumbent):
        zv = np.round(z[bin_idx]).astype(np.int8).reshape(S, W + 1)
        zv = np.maximum(zv, node.fixed_lo.reshape(S, W + 1))
        zv = np.minimum(zv, node.fixed_hi.reshape(S, W + 1))
        if np.any(zv.sum(axis=1) == 0):
            return
        try:
            x, val = solve_cell(inst, Pattern(zv), bet, warm=z[:nx])
        except CellInfeasibleError:
            return
        offer_at_x(x, incumbent)

    report = _branch_and_bound(inst, opts, gap_target, relax, bin_idx, heuristic,
                               leaf_value, t0, fix_lo=fix_lo, fix_hi=fix_hi,
                               warm_incumbent=warm_incumbent,
                               incumbent_from_x=offer_at_x)
    return report


def _parse_fixed(fixed_z, S, W):
    n_bin = S * (W + 1)
    lo = np.zeros(n_bin, dtype=np.int8)
    hi = np.ones(n_bin, dtype=np.int8)
    if fixed_z is None:
        return lo, hi
    if isinstance(fixed_z, dict):
        for (s, w), v in fixed_z.items():
            if not (0 <= s < S and 0 <= w <= W):
                raise ValueError(f"fixed_z key {(s, w)} outside the {S} x {W + 1} grid")
            if v not in (0, 1):
                raise ValueError(f"fixed_z[{(s, w)}] must be 0 or 1, got {v}")
            k = s * (W + 1) + w
            lo[k] = hi[k] = int(v)
        return lo, hi
    arr = np.asarray(fixed_z)
    if arr.shape != (S, W + 1):
        raise ValueError(f"fixed_z has shape {arr.shape}, expected {(S, W + 1)}")
    flat = arr.ravel()
    for k, v in enumerate(flat):
        if v in (0, 1):
            lo[k] = hi[k] = int(v)
        elif v != -1:
            raise ValueError("fixed_z entries must be -1 (free), 0 or 1")
    return lo, hi


def _branch_and_bound(inst, opts, gap_target, relax, bin_idx, heuristic, leaf_value,
                      t0, fix_lo=None, fix_hi=None, warm_incumbent=None,
                      incumbent_from_x=None):
    n_bin = bin_idx.size
    if fix_lo is None:
        fix_lo = np.zeros(n_bin, dtype=np.int8)
        fix_hi = np.ones(n_bin, dtype=np.int8)
    incumbent = _Incumbent()
    if warm_incumbent is not None and incumbent_from_x is not None:
        incumbent_from_x(np.asarray(warm_incumbent[0], dtype=float), incumbent)

    root = _Node(fixed_lo=fix_lo.copy(), fixed_hi=fix_hi.copy(), bound=np.inf,
                 warm=None, parent_bound=np.inf)
    heap = [(-np.inf, 0, root)]
    seq = 1
    node_count = 0
    trace: list[dict] = []
    tree_pairs: list[tuple[float, float]] = []
    status = "optimal"
    final_bound = None
    capped_nodes = 0

    def out_of_budget():
        if time.perf_counter() - t0 > opts.time_limit_s:
            return True
        if opts.node_limit is not None and node_count >= opts.node_limit:
            return True
        return False

    while heap:
        neg_bound, _, node = heapq.heappop(heap)
        stored = -neg_bound
        scale = max(1.0, abs(incumbent.value)) if np.isfinite(incumbent.value) else 1.0
        if np.isfinite(incumbent.value) and stored <= incumbent.value + 1e-9 * scale:
            continue  # fathomed by a newer incumbent
        if np.isfinite(incumbent.value) and np.isfinite(stored) and \
                (stored - incumbent.value) / scale <= gap_target:
            status = "gap_reached"
            final_bound = stored
            break
        if out_of_budget():
            status = "time_limit"
            final_bound = stored
            break

        node_count += 1
        sol = relax(node)
        if sol.status == "infeasible":
            continue
        if sol.status == "unbounded":
            raise RuntimeError("node relaxation unbounded; check instance bounds")
        capped = sol.status == "iteration_limit"
        if capped:
            # a capped QP stops at a feasible point, which bounds nothing
            capped_nodes += 1
            bound = node.parent_bound
        else:
            bound = min(-sol.value, node.parent_bound)  # relaxations are minimizations
        if opts.collect_tree:
            tree_pairs.append((node.parent_bound, bound))
        if np.isfinite(incumbent.value) and bound <= incumbent.value + 1e-9 * scale:
            continue

        heuristic(sol.z, incumbent)
        zb = sol.z[bin_idx]
        frac = np.minimum(zb - np.floor(zb + opts.int_tol), np.ceil(zb - opts.int_tol) - zb)
        free = node.fixed_lo != node.fixed_hi
        frac = np.where(free, np.maximum(frac, 0.0), 0.0)
        if capped and free.any() and float(frac.max()) <= opts.int_tol:
            # an integral capped point does not close the node: split the first
            # free binary (with none free, leaf_value solves the pinned pattern)
            frac = free.astype(float)
        if float(frac.max(initial=0.0)) <= opts.int_tol:
            leaf_value(sol.z, node, incumbent)
            if opts.trace_level >= 2:
                log.info("leaf node=%d bound=%.9g incumbent=%.9g t=%.3f",
                         node_count, bound, incumbent.value, time.perf_counter() - t0)
            trace.append({"node": node_count, "bound": bound,
                          "incumbent": incumbent.value, "kind": "leaf"})
            continue

        j = int(np.argmax(frac))  # first max = lexicographic (s, w) tie-break
        for v in (0, 1):
            lo = node.fixed_lo.copy()
            hi = node.fixed_hi.copy()
            lo[j] = hi[j] = v
            child = _Node(fixed_lo=lo, fixed_hi=hi, bound=bound, warm=sol.z.copy(),
                          parent_bound=bound)
            heapq.heappush(heap, (-bound, seq, child))
            seq += 1
        if opts.trace_level >= 2:
            log.info("node=%d bound=%.9g incumbent=%.9g t=%.3f",
                     node_count, bound, incumbent.value, time.perf_counter() - t0)
        trace.append({"node": node_count, "bound": bound,
                      "incumbent": incumbent.value, "kind": "branch"})

    if final_bound is None:  # tree exhausted: optimal, or no feasible point
        final_bound = incumbent.value
        if not np.isfinite(incumbent.value):
            status = "infeasible"
    final_bound = max(final_bound, incumbent.value)
    gap = None
    if np.isfinite(incumbent.value):
        gap = max(0.0, (final_bound - incumbent.value) / max(1.0, abs(incumbent.value)))
    report = SolveReport(
        status=status,
        objective=incumbent.value,
        bound=final_bound,
        gap=gap,
        x=incumbent.x,
        response=incumbent.response,
        pattern=incumbent.pattern,
        node_count=node_count,
        wall_time_s=time.perf_counter() - t0,
        trace=trace,
        extras={"iteration_limit_nodes": capped_nodes},
    )
    if opts.collect_tree:
        report.extras["tree"] = tree_pairs
    if opts.trace_level >= 1:
        log.info("done status=%s objective=%.9g bound=%.9g nodes=%d",
                 status, report.objective, report.bound, node_count)
    return report
