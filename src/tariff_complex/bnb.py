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
  Indicators pinned at the root (``fixed_z``) hold as equalities instead,
  ``y_sw = 0`` or ``s_sw = 0``, which each tree eliminates with the other
  equalities once (the fixed-variable substitution of MIP presolve:
  Achterberg, Bixby, Gu, Rothberg & Weninger, INFORMS J. Comput. 32, 2020).

The deterministic program is the limit of the regularized one: the same
columns and big-M rows without the ``(2/beta_s) ybar`` column and the
``-y <= 0`` rows, whose bounds its nodes append instead.  One builder
assembles both, and its big-M constants differ only by the headroom
``2/beta_s``.  One branch-and-bound loop serves both; each model supplies
how a price vector is evaluated exactly, each indicator's value at a node
point, and how an integral node point is closed: by its cell's optimum
(``solve_cell``; det through ``pure_assignment_lp``, its limit cell).

Node relaxations drop integrality and are convex, solved by the in-house
active-set method.  A node is a fixing vector in ``fixed_z``'s format (-1
free, else the pinned value).  Each tree reduces its program once, the
root's pins among its equalities, with every row a node may append
(``_Program.node_G``), and each node QP takes its rows from that
reduction, bit for bit as if it reduced its own problem.
A child fixes one more indicator, which adds (det: tightens) one row, so it
starts from the parent's optimum and final working set, named as rows of the
tree's program; nodes carry row indices, never a factor.  The active-set
method then repairs the one violated row instead of running a phase 1 over
all rows and picking a fresh working set.  Search order is best bound (ties
FIFO), branching is on the most fractional indicator (ties
lexicographic by (segment, option)).  A regularized indicator's value is the
point of ``[y, 1 - s/M]`` nearest an integer, so its fractionality is
``min(y, s/M)``.  Every incumbent is rebuilt from an exact response
evaluation, so reported objectives never inherit relaxation slack.  A node
QP that stops at the iteration cap bounds nothing, so its node keeps the
parent's bound and is branched; ``extras["iteration_limit_nodes"]`` counts
such nodes, ``extras["iteration_limit_leaves"]`` counts integral leaves
whose cell solve stopped at its cap (their incumbents are feasible, not
certified cell optima), and ``extras["tree"]`` holds a (parent bound, node
bound) pair per solved node.  A tree exhausted without an incumbent reports
``infeasible`` (bound ``-inf``).
"""

from __future__ import annotations

import heapq
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .model import Instance, Pattern, ResponseMatrix
from .model import profit as _profit
from .price_complex import CellInfeasibleError, pure_assignment_lp, solve_cell
from .response import Beta, det_response_set, quad_response
from .subqp import QpProblem, Reduction, reduce_qp, solve_qp

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
    fixed: np.ndarray  # per indicator: -1 free, else pinned at 0 or 1
    warm: np.ndarray | None  # the parent's optimum
    active: np.ndarray | None  # the parent's final working set, in the tree's rows
    parent_bound: float


class _Incumbent:
    def __init__(self):
        self.value = -np.inf
        self.x = None
        self.response = None
        self.pattern = None

    def offer(self, value, x, response, pattern) -> None:
        if value > self.value:
            self.value, self.x, self.response, self.pattern = value, x, response, pattern


@dataclass(frozen=True)
class _Program:
    """Single-level big-M program ``min 1/2 v'Qv + c'v``, ``G v <= h``,
    ``A v = b`` over ``v = [x (W*H), mu (S), ybar (S*(W+1))]``.  ``bin_idx``
    are the ``ybar`` columns, one per indicator.  A node is a fixing vector
    (-1 free, else the pinned value), and ``node_G v <= node_h`` are the
    rows it may append (``_node_rows``): row 2k pins indicator k at 0, row
    2k + 1 pins it at 1; det ``y_k <= 0`` and ``-y_k <= -1``, regularized
    ``y_k <= 0`` and ``s_k <= 0``.  A regularized node appends its pins but
    those in ``pinned``, which ``A v = b`` already holds as equalities
    (``_pin_equalities``); a det node appends every row, bounded by
    ``free_h`` (``y_k <= 1``, ``-y_k <= 0``) where it pins nothing."""

    qp: QpProblem
    bin_idx: np.ndarray
    x_shape: tuple[int, int]
    node_G: np.ndarray
    node_h: np.ndarray
    pinned: np.ndarray  # per indicator: its pin is an equality of ``qp``
    free_h: np.ndarray | None = None


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
    if bs is None:
        node_G = np.zeros((2 * n_bin, n))
        node_G[2 * k, iy] = 1.0
        node_G[2 * k + 1, iy] = -1.0
        return _Program(qp=qp, bin_idx=iy, x_shape=(W, H), node_G=node_G,
                        node_h=np.tile([0.0, -1.0], n_bin), pinned=np.zeros(n_bin, dtype=bool),
                        free_h=np.tile([1.0, 0.0], n_bin))
    first = G_box.shape[0] + rows * k
    pins = np.column_stack([first + 2, first]).ravel()  # -y <= 0 and -s <= 0, negated
    return _Program(qp=qp, bin_idx=iy, x_shape=(W, H), node_G=-qp.G[pins], node_h=-qp.h[pins],
                    pinned=np.zeros(n_bin, dtype=bool))


def _pin_equalities(prog: _Program, fixed: np.ndarray) -> tuple[_Program, np.ndarray]:
    """The regularized ``prog`` with the pins of the fixing vector ``fixed``
    as equalities, and ``fixed`` with the pins they imply.

    Pin 0 is ``y_k = 0`` and pin 1 ``s_k = 0``: the row ``node_G[2k + z_k]``
    at bound ``node_h[2k + z_k]``, appended to ``A``, ``b``.  The program is
    the same set, since ``-y_k <= 0`` and ``-s_k <= 0`` are rows already,
    but its reduction eliminates the pins once and keeps them out of every
    working set.  A segment whose options but one are pinned at 0 puts its
    whole mass on that one, ``y_k = 1``, so ``s_k = 0``: that option is
    pinned at 1 too.  Left free, its rows ``-s_k <= 0`` and ``s_k + M_k y_k
    <= M_k`` would reduce to an opposite pair that roundoff keeps apart,
    which the active-set method takes for independent rows.  Each pin row is
    scaled to unit norm: unscaled, an ``s_k`` row's bill coefficients set
    the null space's roundoff, and a row the pins make constant (``s_k +
    M_k y_k <= M_k`` once ``y_k = 1`` is forced) kept a spurious direction.
    """
    z = fixed.reshape(-1, prog.x_shape[0] + 1).copy()
    z[(z < 0) & ((z == 0).sum(axis=1, keepdims=True) == z.shape[1] - 1)] = 1
    fixed = z.ravel()
    k = np.flatnonzero(fixed >= 0)
    if not k.size:
        return prog, fixed
    pins, qp = 2 * k + fixed[k], prog.qp
    norms = np.linalg.norm(prog.node_G[pins], axis=1)
    return replace(prog, pinned=fixed >= 0, qp=QpProblem(
        Q=qp.Q, c=qp.c, G=qp.G, h=qp.h, A=np.vstack([qp.A, prog.node_G[pins] / norms[:, None]]),
        b=np.concatenate([qp.b, prog.node_h[pins] / norms]))), fixed


def _node_rows(prog: _Program, fixed: np.ndarray):
    """The rows of ``prog.node_G`` a node appends, in order, and their bounds:
    regularized, the pin row of each fixed indicator not in ``prog.pinned``;
    det, every row, at its ``node_h`` bound where it pins the indicator and
    at ``free_h`` elsewhere."""
    k = np.flatnonzero((fixed >= 0) & ~prog.pinned)
    pins = 2 * k + fixed[k]
    if prog.free_h is None:
        return pins, prog.node_h[pins]
    h = prog.free_h.copy()
    h[pins] = prog.node_h[pins]
    return np.arange(h.size), h


def _node_problem(prog: _Program, fixed: np.ndarray) -> tuple[QpProblem, np.ndarray]:
    """The program with the node's rows appended, and the indices of its rows
    in the tree's program (``_tree_reduction``)."""
    idx, h = _node_rows(prog, fixed)
    qp, m = prog.qp, prog.qp.G.shape[0]
    return (QpProblem(Q=qp.Q, c=qp.c, G=np.vstack([qp.G, prog.node_G[idx]]),
                      h=np.concatenate([qp.h, h]), A=qp.A, b=qp.b),
            np.concatenate([np.arange(m), m + idx]))


def _tree_reduction(prog: _Program) -> Reduction | None:
    """``reduce_qp`` of the program with ``node_G`` appended: every node of
    a tree takes its reduced rows from it (``solve_qp``'s ``reduced``)."""
    qp = prog.qp
    G = np.vstack([qp.G, prog.node_G])
    return reduce_qp(QpProblem(Q=qp.Q, c=qp.c, G=G, h=np.zeros(G.shape[0]), A=qp.A, b=qp.b))


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
        incumbent.offer(_profit(inst, x, resp), x, resp, resp.support())

    def leaf_value(v, zb, incumbent):
        combo = zb.reshape(S, W + 1).argmax(axis=1)
        cell = pure_assignment_lp(inst, combo, warm=v[:W * inst.H])
        if cell is None:
            return False
        resp = ResponseMatrix(np.eye(W + 1)[combo])
        incumbent.offer(cell.value, cell.x, resp, resp.support())
        return cell.capped

    return _branch_and_bound(prog, opts, gap_target, indicators, offer, leaf_value, t0,
                             _parse_fixed(None, S, W))


def bigm_piece_value(inst: Instance, beta: Beta | float, fixed_z: np.ndarray,
                     bigm: BigM | None = None) -> float | None:
    """Value of the continuous single-level program with every activation
    indicator pinned to the given 0/1 pattern, under the supplied constants:
    one QP with the pins as equalities (``_pin_equalities``) and no node
    rows.  Returns None when the pinned program is infeasible.

    With valid constants this equals the closed-cell optimum of the pattern;
    undersized constants cut it, which is what the negative-control tests
    probe.
    """
    bet = Beta.coerce(beta)
    prog = _bigm_program(inst, bigm or bigm_quad(inst, bet), bet.per_segment(inst.S))
    z = np.asarray(fixed_z, dtype=np.int8).ravel()
    if z.size != prog.bin_idx.size or not np.all((z == 0) | (z == 1)):
        raise ValueError("fixed_z must be a binary S x (W+1) pattern")
    sol = solve_qp(_pin_equalities(prog, z)[0].qp)
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
    boundary).  The pins are equalities of the tree's program
    (``_pin_equalities``), so its one reduction eliminates them, and a
    node appends only the pins that branching adds.  A pinned program
    whose equalities are inconsistent (a segment pinned all 0) reports
    ``infeasible``.  ``warm_incumbent`` seeds pruning with a known feasible
    price vector, which must respect ``fixed_z``.
    """
    opts = opts or SolverOptions()
    gap_target = DEFAULT_GAP_QUAD if opts.gap is None else opts.gap
    t0 = time.perf_counter()
    S, W = inst.S, inst.W
    bet = Beta.coerce(beta)
    bs = bet.per_segment(S)
    mm = bigm or bigm_quad(inst, bet)
    prog, fixed = _pin_equalities(_bigm_program(inst, mm, bs), _parse_fixed(fixed_z, S, W))
    pinned_in = fixed.reshape(S, W + 1) == 1
    pinned_out = fixed.reshape(S, W + 1) == 0
    G_s, h_s, m = prog.node_G[1::2], prog.node_h[1::2], mm.per_indicator()  # s_k <= 0

    def indicators(v, node):
        # z may lie anywhere in [y, 1 - s/M]: take the point nearest an integer
        y, s_m = v[prog.bin_idx], (G_s @ v - h_s) / m
        z = np.clip(np.where(y <= s_m, y, 1.0 - s_m), 0, 1)
        return np.where(node.fixed < 0, z, node.fixed)

    def offer(x, incumbent, check_pins=True):
        resp, detail = quad_response(inst, x, bet)
        if check_pins:
            # the exact response must respect pinned indicators; stationarity
            # holds to roundoff relative to the segment's disutilities
            V = inst.disutilities(x)
            res = V + (2.0 / bs)[:, None] * resp.ybar - detail.mu[:, None]
            tol = 1e-9 * np.maximum(1.0, np.abs(V).max(axis=1, keepdims=True))
            if np.any(pinned_in & (np.abs(res) > tol)) or \
                    np.any(pinned_out & (resp.ybar > 1e-9)):
                return
        incumbent.offer(_profit(inst, x, resp), x, resp, resp.support())

    def leaf_value(v, zb, incumbent):
        zv = np.round(zb).astype(np.int8).reshape(S, W + 1)
        if np.any(zv.sum(axis=1) == 0):
            return False
        try:
            cell = solve_cell(inst, Pattern(zv), bet, warm=v[:W * inst.H])
        except CellInfeasibleError:
            return False
        # the leaf's pattern agrees with the pins, so its cell optimum respects
        # them to the cell QP's own tolerance, which the check above can miss
        offer(cell.x, incumbent, check_pins=False)
        return cell.capped

    return _branch_and_bound(prog, opts, gap_target, indicators, offer, leaf_value, t0,
                             fixed, warm_incumbent)


def _parse_fixed(fixed_z, S, W):
    """The root's fixing vector (int8, -1 free) from an (S, W+1) array of -1, 0, 1."""
    if fixed_z is None:
        return np.full(S * (W + 1), -1, dtype=np.int8)
    z = np.asarray(fixed_z)
    if z.shape != (S, W + 1):
        raise ValueError(f"fixed_z has shape {z.shape}, expected {(S, W + 1)}")
    if not np.isin(z, (-1, 0, 1)).all():
        raise ValueError("fixed_z entries must be -1 (free), 0 or 1")
    return z.astype(np.int8).ravel()


def _branch_and_bound(prog, opts, gap_target, indicators, offer, leaf_value, t0,
                      fixed, warm_incumbent=None):
    """Best-bound search over ``prog``'s indicators from the root fixing
    vector ``fixed`` (-1 free, else the pinned value).  ``indicators(v, node)``
    gives each indicator's value at the node point ``v``;
    ``offer(x, incumbent)`` evaluates prices exactly and offers them to the
    incumbent; ``leaf_value(v, zb, incumbent)`` closes an integral node
    point and says whether its cell solve stopped at the iteration cap."""
    nx = prog.x_shape[0] * prog.x_shape[1]
    tree = _tree_reduction(prog)
    incumbent = _Incumbent()
    if warm_incumbent is not None:
        offer(np.asarray(warm_incumbent, dtype=float), incumbent)

    heap = [(-np.inf, 0, _Node(fixed=fixed, warm=None, active=None, parent_bound=np.inf))]
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
        prob, rows = _node_problem(prog, node.fixed)
        sol = solve_qp(prob, warm_start=node.warm, warm_active=node.active, reduced=(tree, rows))
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
        free = node.fixed < 0
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
            active = rows[sol.active_set]
            for v in (0, 1):
                fixed = node.fixed.copy()
                fixed[j] = v
                child = _Node(fixed=fixed, warm=sol.z, active=active, parent_bound=bound)
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
