"""Geometry of the regularized response: cells, their QPs, and neighborhoods.

For a fixed support pattern A, the set of prices under which every segment's
regularized split has exactly that support is a polyhedron (a cell).  With
``a_s`` the number of active options of segment s and ``act(s)`` its active
set, the defining rows at strength beta_s are, for every option w:

* inactive (A[s,w] = 0):  ``a_s V_sw >= 2/beta_s + sum_{w' in act(s)} V_sw'``
* active   (A[s,w] = 1):  ``a_s V_sw <= 2/beta_s + sum_{w' in act(s)} V_sw'``

Active rows are strict for exact-support classification and closed in every
solved system (their closure).  On a closed cell the profit is an explicit
concave quadratic in the prices; :func:`solve_cell`, the one cell solve of
the local search, the oracles and the branch-and-bound leaves, maximizes it.
As beta -> inf the offsets vanish and a pattern's cell becomes its limit cell
in the deterministic model, where active options tie at the segment minimum.
Every beta here may be None (or math.inf) for that limit: ``cell_system``,
``cell_qp`` and ``solve_cell`` (pure patterns, linear profit) and
``quad_oracle``, which then walks the pure patterns as the deterministic oracle.

A segment's rows and profit terms depend on its own pattern row alone, so
both are built per segment, batched over any stack of pattern rows
(``_segment_rows``, ``_segment_terms``).  ``cell_system`` and ``cell_qp``
run that over one pattern's segments.  A :class:`NeighborScan` runs it once
over a pattern's segments and each one-flip candidate's new segment, and
reduces the union of their rows once (:func:`subqp.reduce_rows`); each
candidate's solve then takes its own rows and its own objective, and its
arrays are byte-identical to the ones ``cell_system`` and ``cell_qp`` give.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import EPS_ACTIVE, EPS_FEAS, Instance, Pattern
from .response import Beta, quad_response
from .subqp import QpProblem, find_feasible_point, reduce_rows, solve_qp


class CellInfeasibleError(ValueError):
    """Raised when asked to optimize over an empty cell."""


@dataclass
class CellSystem:
    """Inequality description ``G vec(x) <= h`` of one (closed) cell.

    Pattern rows come first, segment by segment and option by option (see
    :func:`cell_system` for the one row left out), then the price-polytope
    rows.  ``strict`` marks the active rows, which are open in the
    exact-support classification but solved as their closure.
    """

    pattern: Pattern
    beta: Beta | float | None  # None encodes the limit system (1/beta = 0)
    G: np.ndarray
    h: np.ndarray
    strict: np.ndarray

    def contains(self, x: np.ndarray, tol: float = EPS_FEAS) -> bool:
        v = np.asarray(x, dtype=float).ravel()
        return bool(np.all(self.G @ v <= self.h + tol))

    def strictly_classifies(self, x: np.ndarray, tol: float = 0.0) -> bool:
        """Closed rows within tol and strict rows with positive slack."""
        val = self.G @ np.asarray(x, dtype=float).ravel()
        return bool(np.all(np.where(self.strict, val < self.h - tol, val <= self.h + tol)))


def _option_arrays(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Every option's disutility ``V_sw = <g_sw, vec(x)> - r_sw``.

    Returns the gradients, shape (S, W+1, W*H), and the reservations, shape
    (S, W+1); the walk-away option (w = 0) has both zero.
    """
    S, W, H = inst.S, inst.W, inst.H
    g = np.zeros((S, W + 1, W, H))
    g[:, np.arange(1, W + 1), np.arange(W), :] = inst.E
    r = np.concatenate([np.zeros((S, 1)), inst.R], axis=1)
    return g.reshape(S, W + 1, W * H), r


def _in_order(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, one term at a time onto zeros.

    Unlike ``np.sum``, which may pair terms up, the order is fixed, so the
    cell arrays stay bitwise stable.
    """
    zero = np.zeros((1,) + terms.shape[1:])
    return np.add.accumulate(np.concatenate([zero, terms]), axis=0)[-1]


def _active_sums(A: np.ndarray, g: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment sums of the active options' gradients (S, n) and
    reservations (S,), added in option order."""
    g_sum = _in_order(np.where(A[:, :, None], g, 0.0).swapaxes(0, 1))
    r_sum = _in_order(np.where(A, r, 0.0).T)
    return g_sum, r_sum


def _is_limit(beta) -> bool:
    """Whether ``beta`` names the deterministic limit (None or math.inf)."""
    return beta is None or (isinstance(beta, float) and np.isinf(beta))


def cell_system(inst: Instance, pattern: Pattern, beta) -> CellSystem:
    """Defining rows of the cell of ``pattern`` at strength ``beta``.

    ``beta`` may be a float, a :class:`Beta`, math.inf or None; the last two
    give the limit cell of the deterministic model (the 2/beta offsets
    vanish).  A segment with a single active option would contribute the
    row ``0 <= 2/beta_s``; it carries no information, and in the limit it
    would read ``0 < 0`` and empty the cell's interior, so it is left out.
    """
    _check_pattern(inst, pattern)
    limit = _is_limit(beta)
    two_over = np.zeros(inst.S) if limit else 2.0 / Beta.coerce(beta).per_segment(inst.S)
    A = pattern.A.astype(bool)
    G, h = _segment_rows(*_option_arrays(inst), A, np.arange(inst.S), two_over)
    keep = _kept(A)
    G_box, h_box = inst.polytope.rows()
    return CellSystem(
        pattern=pattern, beta=None if limit else beta,
        G=np.vstack([G.reshape(-1, inst.W * inst.H)[keep], G_box]),
        h=np.concatenate([h.ravel()[keep], h_box]),
        strict=np.concatenate([A.ravel()[keep], np.zeros(len(h_box), dtype=bool)]))


def _segment_rows(g: np.ndarray, r: np.ndarray, A: np.ndarray, segs: np.ndarray,
                  two_over: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell rows of pattern rows: row i of the bool ``A`` (k, W+1) is a
    pattern row of segment ``segs[i]``.  Returns G (k, W+1, n) and h
    (k, W+1), one row per option, the single active option's included.

    Every operation is elementwise per pattern row, so a row's arrays are
    byte-identical however many rows are stacked with it.
    """
    g, r, t = g[segs], r[segs], two_over[segs]
    a = A.sum(axis=1)[:, None]
    g_sum, r_sum = _active_sums(A, g, r)
    ag, ar = a[:, :, None] * g, a * r
    # active: a V_w - sum_act V <= 2/beta; inactive: sum_act V - a V_w <= -2/beta
    G = np.where(A[:, :, None], ag - g_sum[:, None, :], g_sum[:, None, :] - ag)
    h = np.where(A, (t[:, None] + ar) - r_sum[:, None], (-t[:, None] + r_sum[:, None]) - ar)
    return G, h


def _kept(A: np.ndarray) -> np.ndarray:
    """Which flat (segment, option) positions of the bool pattern ``A`` have
    a row in :func:`cell_system`: all but a single active option's."""
    return ~(A & (A.sum(axis=1) == 1)[:, None]).ravel()


def _check_pattern(inst: Instance, pattern: Pattern) -> None:
    if pattern.A.shape != (inst.S, inst.W + 1):
        raise ValueError(f"pattern shape {pattern.A.shape} does not match instance "
                         f"{(inst.S, inst.W + 1)}")


def pattern_of(inst: Instance, x: np.ndarray, beta: Beta | float,
               eps_active: float = EPS_ACTIVE) -> Pattern:
    """Support pattern of the regularized response at prices x."""
    resp, _ = quad_response(inst, x, beta)
    return resp.support(eps_active)


def is_feasible(inst: Instance, pattern: Pattern, beta) -> tuple[bool, np.ndarray | None]:
    """Whether the closed cell is non-empty; returns an LP witness if so."""
    system = cell_system(inst, pattern, beta)
    ok, z = find_feasible_point(system.G, system.h)
    if not ok:
        return False, None
    return True, z.reshape(inst.W, inst.H)


@dataclass
class CellQP:
    """Profit restricted to one closed cell: value(x) = x'Qx/2 + c'x + d.

    Q is negative semidefinite (the restricted profit is concave), which the
    branch-free cell optimization relies on.
    """

    pattern: Pattern
    Q: np.ndarray
    c: np.ndarray
    d: float

    def value(self, x: np.ndarray) -> float:
        v = np.asarray(x, dtype=float).ravel()
        return float(0.5 * v @ self.Q @ v + self.c @ v + self.d)

    def min_concavity_eig(self) -> float:
        """Smallest eigenvalue of -Q; >= 0 up to roundoff."""
        return float(np.linalg.eigvalsh(-(self.Q + self.Q.T) / 2.0)[0])


def cell_qp(inst: Instance, pattern: Pattern, beta: Beta | float | None) -> CellQP:
    """Assemble the closed-cell profit as an explicit quadratic in vec(x).

    Per segment, active contracts w get mass ``(beta_s/2)(c_s - V_sw)`` with
    the affine level ``c_s = (2/beta_s + sum_act V)/a_s``, so the segment
    profit is a product of affine forms, expanded here term by term.

    At beta None (or math.inf) it is the limit cell's linear profit (Q = 0):
    each segment of a pure pattern buys its one option; others raise ValueError.
    """
    _check_pattern(inst, pattern)
    g, r = _option_arrays(inst)
    A = pattern.A.astype(bool)
    if _is_limit(beta):
        if np.any(A.sum(axis=1) != 1):
            raise ValueError("the limit cell's profit needs a pure pattern")
        seg, opt = np.nonzero(A)
        cost = np.concatenate([np.zeros((inst.S, 1)), inst.C], axis=1)[seg, opt]
        return CellQP(pattern=pattern, Q=np.zeros((g.shape[2],) * 2),
                      c=_in_order(inst.rho[:, None] * g[seg, opt]),
                      d=float(_in_order(-(inst.rho * cost))))
    b = Beta.coerce(beta).per_segment(inst.S)
    Q, c, d = _slot_sums(*_segment_terms(inst, g, r, A, np.arange(inst.S), b))
    return CellQP(pattern=pattern, Q=Q, c=c, d=d)


def _slot_sums(Q: np.ndarray, c: np.ndarray,
               d: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Q, c and d of one pattern from its segments' :func:`_segment_terms`,
    summed in (segment, contract) order."""
    n = c.shape[-1]
    return (_in_order(Q.reshape(-1, n, n)), _in_order(c.reshape(-1, n)),
            float(_in_order(d.ravel())))


def _segment_terms(inst: Instance, g: np.ndarray, r: np.ndarray, A: np.ndarray,
                   segs: np.ndarray, b: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`cell_qp`'s profit terms of pattern rows: row i of the bool
    ``A`` (k, W+1) is a pattern row of segment ``segs[i]``, at strengths
    ``b`` (per segment).

    Returns the Q, c and d terms in slots (k, W, ...), one per contract,
    zero where it is inactive.  Summed in slot order with :func:`_in_order`,
    the zeros change no bit (a sum that starts from +0.0 is never -0.0), so
    any rows' slots sum to the terms of their active contracts alone.  Like
    :func:`_segment_rows`, elementwise per pattern row.
    """
    k, W, n = A.shape[0], inst.W, g.shape[2]
    g_sum, r_sum = _active_sums(A, g[segs], r[segs])
    a = A.sum(axis=1)
    # level line c_s(x) = (2/beta + sum_act V)/a
    g_lvl = g_sum / a[:, None]
    d_lvl = (2.0 / b[segs] - r_sum) / a
    coef = inst.rho[segs] * b[segs] / 2.0
    # one term (V_w + k_w)(c_s - V_w) per active contract, both factors affine
    i, w = np.nonzero(A[:, 1:])
    s = segs[i]
    u, d_v = g[s, w + 1], -r[s, w + 1]
    au = d_v + (inst.R[s, w] - inst.C[s, w])
    v, av = g_lvl[i] - u, d_lvl[i] - d_v
    cf = coef[i]
    uv = u[:, :, None] * v[:, None, :]
    Q, c, d = np.zeros((k, W, n, n)), np.zeros((k, W, n)), np.zeros((k, W))
    Q[i, w] = cf[:, None, None] * (uv + uv.swapaxes(1, 2))
    c[i, w] = cf[:, None] * (au[:, None] * v + av[:, None] * u)
    d[i, w] = cf * au * av
    return Q, c, d


class CellOptimum(NamedTuple):
    """:func:`solve_cell`'s answer: argmax prices, value, whether the QP stopped at
    its iteration cap (not a certified optimum) and its final working set."""

    x: np.ndarray
    value: float
    capped: bool
    active: list[int]


def solve_cell(inst: Instance, pattern: Pattern, beta: Beta | float | None,
               warm: np.ndarray | None = None, warm_active: list[int] | None = None,
               cell: tuple | None = None) -> CellOptimum:
    """Maximize profit over one closed cell; at beta None, the LP over the
    limit cell of a pure pattern.

    Raises :class:`CellInfeasibleError` on an empty cell.  Deterministic for
    a given warm start.  A warm start changes the active-set path, and with
    it the optimum within solver tolerance (one cell's value near 69 was
    seen to move by 2e-5).

    ``warm_active`` are rows of the cell's reduction (the scan's union rows
    with ``cell``, else the cell system's), such as a neighbour cell's final
    working set at ``warm``; :func:`subqp.solve_qp` drops those this cell
    lacks and starts from the rest tight there.  ``cell`` is the cell's
    ``(problem, d, reduced)`` from :meth:`NeighborScan.cell`, whose rows are
    already reduced; without it the cell is assembled and reduced here.
    """
    if cell is None:
        qp = cell_qp(inst, pattern, beta)
        system = cell_system(inst, pattern, beta)
        cell = QpProblem(Q=-qp.Q, c=-qp.c, G=system.G, h=system.h), qp.d, None
    prob, d, reduced = cell
    sol = solve_qp(prob, warm_start=warm, warm_active=warm_active, reduced=reduced)
    if sol.status == "infeasible":
        raise CellInfeasibleError(f"pattern {pattern.A.tolist()} has an empty cell")
    if sol.status not in ("optimal", "iteration_limit"):
        raise RuntimeError(f"cell solve failed with status {sol.status}")
    return CellOptimum(sol.z.reshape(inst.W, inst.H), d - sol.value,
                       sol.status == "iteration_limit", sol.active_set)


class NeighborScan:
    """The cells of one neighbourhood scan: flip k toggles option ``opt[k]``
    of segment ``seg[k]`` of ``pattern`` (:func:`neighbors`), at a finite
    ``beta``.

    A flip rewrites only its own segment's rows and profit terms.  So the
    incumbent's segments and each flip's new segment are assembled in one
    batched pass (:func:`_segment_rows`, :func:`_segment_terms`), and one
    union of rows, the incumbent's cell system followed by each flip's
    segment rows, is reduced once (:func:`subqp.reduce_rows`).  Candidate
    k's rows are union rows in :func:`cell_system` order, and its Q, c and
    d are the in-order sums of the incumbent's terms with segment
    ``seg[k]``'s replaced, so every array is byte-identical to
    :func:`cell_system` and :func:`cell_qp` of the flipped pattern.  The
    incumbent's working set names union rows.  A scan serves one neighbourhood.
    """

    def __init__(self, inst: Instance, pattern: Pattern, beta: Beta | float,
                 seg: np.ndarray, opt: np.ndarray):
        _check_pattern(inst, pattern)
        S, K, n = inst.S, seg.size, inst.W * inst.H
        A = pattern.A.astype(bool)
        flipped = A[seg]
        flipped[np.arange(K), opt] ^= True
        blocks, segs = np.vstack([A, flipped]), np.concatenate([np.arange(S), seg])
        b = Beta.coerce(beta).per_segment(S)
        g, r = _option_arrays(inst)
        G, h = _segment_rows(g, r, blocks, segs, 2.0 / b)
        keep = _kept(blocks)
        m = int(keep[:A.size].sum())  # the incumbent's pattern rows
        G_box, h_box = inst.polytope.rows()
        G, h = G.reshape(-1, n)[keep], h.ravel()[keep]
        self.G = np.vstack([G[:m], G_box, G[m:]])
        self.h = np.concatenate([h[:m], h_box, h[m:]])
        self.red = reduce_rows(self.G)
        # union row of each (block, option), -1 for the single active option's
        at = np.cumsum(keep) - 1
        at[A.size:] += h_box.size
        at = np.where(keep, at, -1).reshape(blocks.shape)
        # each candidate's segments as blocks: the incumbent's, seg[k] replaced
        self.order = np.tile(np.arange(S), (K, 1))
        self.order[np.arange(K), seg] = S + np.arange(K)
        box = np.arange(m, m + h_box.size)
        self.rows = [np.concatenate([at[o][at[o] >= 0], box]) for o in self.order]
        self.terms = _segment_terms(inst, g, r, blocks, segs, b)

    def cell(self, k: int) -> tuple[QpProblem, float, tuple]:
        """Candidate k's ``(problem, d, reduced)`` for :func:`solve_cell`."""
        rows = self.rows[k]
        Q, c, d = _slot_sums(*(t[self.order[k]] for t in self.terms))
        prob = QpProblem(Q=-Q, c=-c, G=self.G[rows], h=self.h[rows])
        return prob, d, (self.red, rows)


def neighbors(inst: Instance, pattern: Pattern,
              x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-flip neighborhood of ``pattern`` around prices x.

    Returns index arrays ``(seg, opt)``: flip k toggles option ``opt[k]`` of
    segment ``seg[k]``.  Segments come in order, each with at most two flips:
    first the active option with the largest disutility is dropped (unless
    it is the only one), then the inactive option with the smallest
    disutility is added (unless all are active).  Values within
    ``1e-9 * max(1, max_w |V_sw|)`` of the row's extreme count as tied, and
    ties resolve to the lowest option index: cell optima sit on faces where
    disutilities tie up to roundoff, and the flips must not depend on it.
    """
    _check_pattern(inst, pattern)
    V = inst.disutilities(x)
    A = pattern.A.astype(bool)
    a = A.sum(axis=1)
    tol = 1e-9 * np.maximum(1.0, np.abs(V).max(axis=1, keepdims=True))
    Vd = np.where(A, V, -np.inf)
    Va = np.where(A, np.inf, V)
    worst = (Vd >= Vd.max(axis=1, keepdims=True) - tol).argmax(axis=1)
    best = (Va <= Va.min(axis=1, keepdims=True) + tol).argmax(axis=1)
    seg, k = np.nonzero(np.column_stack([a >= 2, a <= inst.W]))  # k: 0 drop, 1 add
    return seg, np.column_stack([worst, best])[seg, k]

# ---------------------------------------------------------------------------
# Exhaustive desk-scale oracles.  These walk every support pattern (or every
# pure pattern for the deterministic model) and optimize the corresponding
# cell.  Exponential in S and W: ground truth for tests and the `oracle` CLI
# command, not production solvers.


@dataclass
class OracleResult:
    """Best cell found.  ``n_capped`` counts feasible cells whose QP or LP
    stopped at its iteration cap: their values are not certified optima."""

    value: float
    pattern: Pattern | None
    x: np.ndarray | None
    n_feasible: int
    n_total: int
    n_capped: int = 0


def count_patterns(S: int, W: int) -> int:
    return (2 ** (W + 1) - 1) ** S


def _patterns(S: int, rows: np.ndarray):
    """Every pattern with rows from ``rows``, the last segment's varying fastest."""
    return (Pattern(np.array(combo)) for combo in itertools.product(rows, repeat=S))


def enumerate_patterns(S: int, W: int):
    """All support patterns with non-empty rows, in lexicographic mask order."""
    masks = np.arange(1, 2 ** (W + 1))[:, None]
    return _patterns(S, (masks >> np.arange(W + 1)) & 1)


def quad_oracle(inst: Instance, beta, max_patterns: int | None = None) -> OracleResult:
    """Global optimum of the regularized profit by full cell enumeration.

    At beta None (or math.inf) only the pure patterns are walked, each over
    its limit cell: that is the deterministic optimum (:func:`det_oracle`).
    """
    limit = _is_limit(beta)
    total = (inst.W + 1) ** inst.S if limit else count_patterns(inst.S, inst.W)
    if max_patterns is not None and total > max_patterns:
        raise ValueError(f"{total} {'pure ' if limit else ''}patterns exceed the cap {max_patterns}")
    best = OracleResult(value=-np.inf, pattern=None, x=None, n_feasible=0, n_total=total)
    pats = _patterns(inst.S, np.eye(inst.W + 1)) if limit else enumerate_patterns(inst.S, inst.W)
    for pat in pats:
        try:
            x, val, capped, _ = solve_cell(inst, pat, beta)
        except CellInfeasibleError:
            continue
        best.n_feasible += 1
        best.n_capped += capped
        if val > best.value:
            best.value, best.pattern, best.x = val, pat, x
    return best


def pure_assignment_lp(inst: Instance, combo: tuple[int, ...],
                       warm: np.ndarray | None = None) -> CellOptimum | None:
    """Exact deterministic profit when segment s is held to option combo[s].

    Solves the limit cell of that one-hot pattern (:func:`solve_cell` at
    beta None): the linear profit over the polyhedron where every assigned
    option attains its segment's minimum disutility.  Returns its
    :class:`CellOptimum`, or None when that region is empty.
    """
    pat = Pattern(np.eye(inst.W + 1, dtype=np.int8)[np.asarray(combo)])
    try:
        return solve_cell(inst, pat, None, warm)
    except CellInfeasibleError:
        return None


def det_oracle(inst: Instance, max_patterns: int | None = None) -> OracleResult:
    """Deterministic-model optimum: best pure pattern over its limit cell
    (:func:`quad_oracle` at beta None), counting capped LPs in ``n_capped``.

    Ties on cell boundaries realize the seller-optimistic rule, since every
    tying assignment is enumerated over its own closed region.
    """
    return quad_oracle(inst, None, max_patterns)
