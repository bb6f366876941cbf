"""Exact solvers: big-M reformulations plus branch and bound.

Both models lift the bilevel pricing problem to a single level with an
envy-variable ``mu_s`` (the segment's attained disutility level) and
activation indicators switched by big-M rows:

* deterministic: ``0 <= V_sw(x) - mu_s <= M_sw (1 - y_sw)`` with one-hot
  ``ybar_s``; an integral optimum always exists, so branching is on ``ybar``.
* regularized: the slack ``s_sw = V_sw(x) + (2/beta_s) y_sw - mu_s`` obeys
  ``s_sw >= 0``, ``y_sw >= 0`` and ``y_sw s_sw = 0``; the objective is the
  multiplier form of the profit, concave in ``(x, mu, ybar)``.  The paper's
  binaries ``z_sw`` encode only that complementarity, through
  ``s <= M (1 - z)`` and ``y <= z``.  The convex hull of
  ``{y s = 0, 0 <= y <= 1, 0 <= s <= M}`` is ``y + s/M <= 1``, so the
  relaxation carries the row ``s_sw + M_sw y_sw <= M_sw`` instead and no
  ``z`` at all, with the same bound at every node.  Branching is on
  complementarity pairs (Bard & Moore, SIAM J. Sci. Stat. Comput. 11, 1990;
  Hu, Mitchell, Pang, Bennett & Kunapuli, SIAM J. Optim. 19, 2008):
  indicator 0 appends ``y_sw <= 0``, indicator 1 appends ``s_sw <= 0``.

The deterministic program is the limit of the regularized one: the same
columns and big-M rows without the ``(2/beta_s) ybar`` column and the
``-y <= 0`` rows, whose bounds its nodes append instead.  One builder
assembles both, and its big-M constants differ only by the headroom
``2/beta_s``.  One branch-and-bound loop serves both; each model supplies
how a price vector is evaluated exactly, each indicator's value at a node
point, and how an integral node point is closed.

Node relaxations drop integrality and are convex, solved by the in-house
active-set method.  Search order is best bound (ties FIFO), branching is on
the most fractional indicator (ties lexicographic by (segment, option)).  A
regularized indicator's value is the point of ``[y, 1 - s/M]`` nearest an
integer, so its fractionality is ``min(y, s/M)``.  Every incumbent is
rebuilt from an exact response evaluation, so reported objectives never
inherit relaxation slack.  A node QP that stops at the iteration cap bounds
nothing, so its node keeps the parent's bound and is branched;
``extras["iteration_limit_nodes"]`` counts such nodes,
``extras["iteration_limit_leaves"]`` counts integral leaves whose cell solve
stopped at its cap (their incumbents are feasible, not certified cell
optima), and ``extras["tree"]`` holds a (parent bound, node bound) pair per
solved node.  A tree exhausted without an incumbent reports ``infeasible``
(bound ``-inf``).
"""

from __future__ import annotations

import heapq
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .model import Instance, Pattern, ResponseMatrix
from .model import profit as _profit
# pure_assignment_lp and solve_cell are not called here; they stay importable
# from this module because the benchmark tracer (bench/tracer.py) wraps them
# by name
from .price_complex import (CellInfeasibleError, _solve_cell,  # noqa: F401
                            pure_assignment_lp, solve_cell)
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

    def per_indicator(self) -> np.ndarray:
        """The constants in indicator order: per segment, no purchase first."""
        return np.column_stack([self.M0, self.M]).ravel()


def _bigm(inst: Instance, headroom: np.ndarray | float) -> BigM:
    """Constants dominating ``V_sw(x) + headroom_s - mu_s`` over the price box.

    Uses ``mu_s >= min(0, min_w V_sw(x_lo))`` (attained disutility can only
    be that negative) and monotonicity of bills in prices.
    """
    theta_lo = inst.bills(inst.polytope.lower)
    theta_hi = inst.bills(inst.polytope.upper)
    M0 = headroom + np.maximum(0.0, (inst.R - theta_lo).max(axis=1))
    M = theta_hi - inst.R + M0[:, None]
    return BigM(M=M, M0=M0)


def bigm_det(inst: Instance) -> BigM:
    """Constants dominating ``V_sw(x) - mu_s`` over the price box."""
    return _bigm(inst, 0.0)


def bigm_quad(inst: Instance, beta: Beta | float) -> BigM:
    """Deterministic constants shifted by the regularization headroom 2/beta_s."""
    return _bigm(inst, 2.0 / Beta.coerce(beta).per_segment(inst.S))


@dataclass
class SolverOptions:
    """Branch-and-bound budgets.

    ``gap`` defaults per model (1e-6 deterministic, 3e-2 regularized).
    ``node_limit`` exhaustion reports like a time limit.  Progress goes to
    the ``tariff_complex.bnb`` logger: one line per node at DEBUG, the
    summary at INFO.
    """

    gap: float | None = None
    time_limit_s: float = 3600.0
    node_limit: int | None = None


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
    fixed_lo: np.ndarray  # per-indicator lower bounds (0/1)
    fixed_hi: np.ndarray  # per-indicator upper bounds (0/1)
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


@dataclass(frozen=True)
class _Program:
    """Single-level big-M program ``min 1/2 v'Qv + c'v``, ``G v <= h``,
    ``A v = b`` over ``v = [x (W*H), mu (S), ybar (S*(W+1))]``.  ``bin_idx``
    are the ``ybar`` columns, one per indicator.  ``pin_rows`` (regularized
    only) is an (S*(W+1), 2) array of row indices: negated, row ``[k, 0]``
    reads ``y_k <= 0`` and row ``[k, 1]`` reads ``s_k <= 0``, which pin
    indicator k at 0 or 1."""

    qp: QpProblem
    bin_idx: np.ndarray
    x_shape: tuple[int, int]
    pin_rows: np.ndarray | None = None


def _bigm_program(inst: Instance, mm: BigM, bs: np.ndarray | None = None) -> _Program:
    """Build the det program (``bs`` None) or the regularized one.

    Rows: the price box, then per (s, w) in s-major order the lower row
    ``-s_sw <= 0``, the upper row ``s_sw + M_sw y_sw <= M_sw`` and,
    regularized only, ``-y_sw <= 0``, where ``s_sw = V_sw - mu_s``, plus
    ``(2/beta_s) y_sw`` in the regularized program.  The regularized upper
    row is the projection of ``s <= M (1 - z)``, ``y <= z`` onto
    ``(s, y)``; ``y <= 1`` and ``s <= M`` are implied.  The det relaxations
    are degenerate LPs whose active-set path follows row-index ties, so this
    order is part of the solver's behaviour.
    """
    S, W, H = inst.S, inst.W, inst.H
    nx, n_bin = W * H, S * (W + 1)
    n = nx + S + n_bin
    k = np.arange(n_bin)
    s, w = np.divmod(k, W + 1)
    iy = nx + S + k
    buy = w >= 1
    Ex = np.zeros((n_bin, W, H))
    Ex[k[buy], w[buy] - 1] = inst.E[s[buy], w[buy] - 1]
    gl = np.zeros((n_bin, n))
    gl[:, :nx] = Ex.reshape(n_bin, nx)
    if bs is not None:
        gl[k, iy] = 2.0 / bs[s]
    gl[k, nx + s] = -1.0
    r = np.column_stack([np.zeros(S), inst.R]).ravel()
    m = mm.per_indicator()
    rows = 2 if bs is None else 3
    Gs = np.zeros((n_bin, rows, n))
    hs = np.zeros((n_bin, rows))
    Gs[:, 0] = -gl
    hs[:, 0] = -r
    Gs[:, 1] = gl
    Gs[k, 1, iy] += m
    hs[:, 1] = m + r
    if bs is not None:
        Gs[k, 2, iy] = -1.0
    G_box, h_box = inst.polytope.rows()
    G_box = np.hstack([G_box, np.zeros((G_box.shape[0], n - nx))])
    A = np.zeros((S, n))
    A[s, iy] = 1.0
    c = np.zeros(n)
    c[nx: nx + S] = -inst.rho
    c[iy[buy]] = (-inst.rho[:, None] * (inst.R - inst.C)).ravel()
    Q = None
    if bs is not None:
        qdiag = np.zeros(n)
        qdiag[iy] = (4.0 * inst.rho / bs)[s]
        Q = np.diag(qdiag)
    qp = QpProblem(Q=Q, c=c, G=np.vstack([G_box, Gs.reshape(-1, n)]),
                   h=np.concatenate([h_box, hs.ravel()]), A=A, b=np.ones(S))
    pin_rows = None
    if bs is not None:
        first = G_box.shape[0] + rows * k
        pin_rows = np.column_stack([first + 2, first])
    return _Program(qp=qp, bin_idx=iy, x_shape=(W, H), pin_rows=pin_rows)


def _node_problem(prog: _Program, lo: np.ndarray, hi: np.ndarray) -> QpProblem:
    """The program with the node's indicator rows appended.

    Det: rows ``y_k <= hi_k`` and ``-y_k <= -lo_k`` in pairs, one pair per
    indicator.  Regularized: one row per fixed indicator, in indicator
    order, its pin row negated (``y_k <= 0`` at 0, ``s_k <= 0`` at 1); a
    free indicator appends nothing.
    """
    qp = prog.qp
    if prog.pin_rows is None:
        m = prog.bin_idx.size
        G = np.zeros((2 * m, qp.n))
        G[2 * np.arange(m), prog.bin_idx] = 1.0
        G[2 * np.arange(m) + 1, prog.bin_idx] = -1.0
        h = np.zeros(2 * m)
        h[0::2] = hi
        h[1::2] = -lo  # integer negation: a free binary's row reads +0.0, not -0.0
    else:
        k = np.flatnonzero(lo == hi)
        rows = prog.pin_rows[k, lo[k]]
        G, h = -qp.G[rows], -qp.h[rows]
    return QpProblem(Q=qp.Q, c=qp.c, G=np.vstack([qp.G, G]),
                     h=np.concatenate([qp.h, h]), A=qp.A, b=qp.b)


def solve_det(inst: Instance, opts: SolverOptions | None = None,
              bigm: BigM | None = None) -> SolveReport:
    """Deterministic-model global optimum by LP-based branch and bound."""
    opts = opts or SolverOptions()
    gap_target = DEFAULT_GAP_DET if opts.gap is None else opts.gap
    t0 = time.perf_counter()
    S, W = inst.S, inst.W
    prog = _bigm_program(inst, bigm or bigm_det(inst))

    def indicators(v, node):
        return v[prog.bin_idx]

    def offer(x, incumbent):
        _, resp = det_response_set(inst, x)
        return incumbent.offer(_profit(inst, x, resp), x, resp, resp.support())

    def leaf_value(v, zb, incumbent):
        # the limit cell of the one-hot pattern (``pure_assignment_lp``)
        resp = ResponseMatrix(np.eye(W + 1)[zb.reshape(S, W + 1).argmax(axis=1)])
        try:
            x, val, capped = _solve_cell(inst, resp.support(), None, warm=v[:W * inst.H])
        except CellInfeasibleError:
            return False
        incumbent.offer(val, x, resp, resp.support())
        return capped

    return _branch_and_bound(prog, opts, gap_target, indicators, offer, leaf_value, t0,
                             *_parse_fixed(None, S, W))


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
    prog = _bigm_program(inst, bigm or bigm_quad(inst, bet), bet.per_segment(inst.S))
    z = np.asarray(fixed_z, dtype=np.int8).ravel()
    if z.size != prog.bin_idx.size or not np.all((z == 0) | (z == 1)):
        raise ValueError("fixed_z must be a binary S x (W+1) pattern")
    sol = solve_qp(_node_problem(prog, z, z))
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise RuntimeError(f"pinned-pattern solve ended with status {sol.status}")
    return -sol.value


def solve_quad(inst: Instance, beta: Beta | float, opts: SolverOptions | None = None,
               fixed_z: np.ndarray | None = None,
               bigm: BigM | None = None,
               warm_incumbent: np.ndarray | None = None) -> SolveReport:
    """Regularized-model optimum by QP-based branch and bound on the
    activation indicators.

    ``fixed_z`` is an (S, W+1) array that pins chosen indicators: -1 leaves
    one free, 0 forces the option out of the support, 1 pins its
    stationarity row (the option may still carry zero mass on the cell
    boundary).  ``warm_incumbent`` seeds pruning with a known feasible
    price vector, which must respect ``fixed_z``.
    """
    opts = opts or SolverOptions()
    gap_target = DEFAULT_GAP_QUAD if opts.gap is None else opts.gap
    t0 = time.perf_counter()
    S, W = inst.S, inst.W
    bet = Beta.coerce(beta)
    bs = bet.per_segment(S)
    mm = bigm or bigm_quad(inst, bet)
    prog = _bigm_program(inst, mm, bs)
    fix_lo, fix_hi = _parse_fixed(fixed_z, S, W)
    pinned_in = fix_lo.reshape(S, W + 1) == 1
    pinned_out = fix_hi.reshape(S, W + 1) == 0
    lower = prog.pin_rows[:, 1]  # -s <= 0, so s is the row's slack
    G_low, h_low, m = prog.qp.G[lower], prog.qp.h[lower], mm.per_indicator()

    def indicators(v, node):
        # z may lie anywhere in [y, 1 - s/M]: take the point nearest an integer
        y, s_m = v[prog.bin_idx], (h_low - G_low @ v) / m
        return np.clip(np.where(y <= s_m, y, 1.0 - s_m), node.fixed_lo, node.fixed_hi)

    def offer(x, incumbent):
        resp, detail = quad_response(inst, x, bet)
        # the exact response must respect pinned indicators; stationarity
        # holds to roundoff relative to the segment's disutilities
        V = inst.disutilities(x)
        res = V + (2.0 / bs)[:, None] * resp.ybar - detail.mu[:, None]
        tol = 1e-9 * np.maximum(1.0, np.abs(V).max(axis=1, keepdims=True))
        if np.any(pinned_in & (np.abs(res) > tol)) or \
                np.any(pinned_out & (resp.ybar > 1e-9)):
            return False
        val = _profit(inst, x, resp)
        return incumbent.offer(val, x, resp, resp.support())

    def leaf_value(v, zb, incumbent):
        zv = np.round(zb).astype(np.int8).reshape(S, W + 1)
        if np.any(zv.sum(axis=1) == 0):
            return False
        try:
            x, _, capped = _solve_cell(inst, Pattern(zv), bet, warm=v[:W * inst.H])
        except CellInfeasibleError:
            return False
        offer(x, incumbent)
        return capped

    return _branch_and_bound(prog, opts, gap_target, indicators, offer, leaf_value, t0,
                             fix_lo, fix_hi, warm_incumbent)


def _parse_fixed(fixed_z, S, W):
    """Per-indicator bounds (lo, hi) from an (S, W+1) array of -1 (free), 0, 1."""
    if fixed_z is None:
        return np.zeros(S * (W + 1), dtype=np.int8), np.ones(S * (W + 1), dtype=np.int8)
    z = np.asarray(fixed_z)
    if z.shape != (S, W + 1):
        raise ValueError(f"fixed_z has shape {z.shape}, expected {(S, W + 1)}")
    if not np.isin(z, (-1, 0, 1)).all():
        raise ValueError("fixed_z entries must be -1 (free), 0 or 1")
    z = z.ravel()
    return (z == 1).astype(np.int8), (z != 0).astype(np.int8)


def _branch_and_bound(prog, opts, gap_target, indicators, offer, leaf_value, t0,
                      fix_lo, fix_hi, warm_incumbent=None):
    """Best-bound search over ``prog``'s indicators.  ``indicators(v, node)``
    gives each indicator's value at the node point ``v``;
    ``offer(x, incumbent)`` evaluates prices exactly and offers them to the
    incumbent; ``leaf_value(v, zb, incumbent)`` closes an integral node
    point and says whether its cell solve stopped at the iteration cap."""
    nx = prog.x_shape[0] * prog.x_shape[1]
    incumbent = _Incumbent()
    if warm_incumbent is not None:
        offer(np.asarray(warm_incumbent, dtype=float), incumbent)

    root = _Node(fixed_lo=fix_lo.copy(), fixed_hi=fix_hi.copy(), warm=None,
                 parent_bound=np.inf)
    heap = [(-np.inf, 0, root)]
    seq = 1
    node_count = 0
    trace: list[dict] = []
    tree_pairs: list[tuple[float, float]] = []  # (parent bound, node bound)
    status = "optimal"
    final_bound = None
    capped_nodes = capped_leaves = 0

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
        sol = solve_qp(_node_problem(prog, node.fixed_lo, node.fixed_hi),
                       warm_start=node.warm)
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
        tree_pairs.append((node.parent_bound, bound))
        if np.isfinite(incumbent.value) and bound <= incumbent.value + 1e-9 * scale:
            continue

        offer(sol.z[:nx].reshape(prog.x_shape), incumbent)
        zb = indicators(sol.z, node)
        frac = np.minimum(zb - np.floor(zb + _INT_TOL), np.ceil(zb - _INT_TOL) - zb)
        free = node.fixed_lo != node.fixed_hi
        frac = np.where(free, np.maximum(frac, 0.0), 0.0)
        if capped and free.any() and float(frac.max()) <= _INT_TOL:
            # an integral capped point does not close the node: split the first
            # free indicator (with none free, leaf_value solves the pinned pattern)
            frac = free.astype(float)
        if float(frac.max(initial=0.0)) <= _INT_TOL:
            capped_leaves += leaf_value(sol.z, zb, incumbent)
            kind = "leaf"
        else:
            j = int(np.argmax(frac))  # first max = lexicographic (s, w) tie-break
            for v in (0, 1):
                lo = node.fixed_lo.copy()
                hi = node.fixed_hi.copy()
                lo[j] = hi[j] = v
                child = _Node(fixed_lo=lo, fixed_hi=hi, warm=sol.z.copy(),
                              parent_bound=bound)
                heapq.heappush(heap, (-bound, seq, child))
                seq += 1
            kind = "branch"
        log.debug("%s node=%d bound=%.9g incumbent=%.9g t=%.3f", kind, node_count,
                  bound, incumbent.value, time.perf_counter() - t0)
        trace.append({"node": node_count, "bound": bound,
                      "incumbent": incumbent.value, "kind": kind})

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
        extras={"iteration_limit_nodes": capped_nodes,
                "iteration_limit_leaves": capped_leaves, "tree": tree_pairs},
    )
    log.info("done status=%s objective=%.9g bound=%.9g nodes=%d",
             status, report.objective, report.bound, node_count)
    return report
