"""Geometry of the regularized response: cells, their QPs, and neighborhoods.

For a fixed support pattern A, the set of prices under which every segment's
regularized split has exactly that support is a polyhedron (a cell).  With
``a_s`` the number of active options of segment s and ``act(s)`` its active
set, the defining rows at strength beta_s are, for every option w:

* inactive (A[s,w] = 0):  ``a_s V_sw >= 2/beta_s + sum_{w' in act(s)} V_sw'``
* active   (A[s,w] = 1):  ``a_s V_sw <= 2/beta_s + sum_{w' in act(s)} V_sw'``

Active rows are strict for exact-support classification and closed in every
solved system (their closure).  On a closed cell the profit is an explicit
concave quadratic in the prices, which is what the local search descends on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import EPS_ACTIVE, EPS_FEAS, Instance, Pattern
from .response import Beta, quad_response
from .subqp import QpProblem, find_feasible_point, solve_qp


class CellInfeasibleError(ValueError):
    """Raised when asked to optimize over an empty cell."""


@dataclass(frozen=True)
class CellRow:
    """One inequality ``<g, vec(x)> <= h``.

    ``segment``/``option`` identify the pattern row that generated it
    (both None for price-polytope rows); ``side`` is the pattern entry
    (1 = active, 0 = inactive); strict rows are open in the exact-support
    classification but solved as closures.
    """

    g: np.ndarray
    h: float
    segment: int | None
    option: int | None
    side: int | None
    strict: bool


@dataclass
class CellSystem:
    """Inequality description of one (closed) cell, polytope rows included."""

    pattern: Pattern
    beta: float | None  # None encodes the asymptotic system (1/beta = 0)
    rows: list[CellRow]

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        G = np.array([r.g for r in self.rows])
        h = np.array([r.h for r in self.rows])
        return G, h

    def contains(self, x: np.ndarray, tol: float = EPS_FEAS) -> bool:
        v = np.asarray(x, dtype=float).ravel()
        return all(float(r.g @ v) <= r.h + tol for r in self.rows)

    def strictly_classifies(self, x: np.ndarray, tol: float = 0.0) -> bool:
        """Closed rows within tol and strict rows with positive slack."""
        v = np.asarray(x, dtype=float).ravel()
        for r in self.rows:
            val = float(r.g @ v)
            if r.strict:
                if val >= r.h - tol:
                    return False
            elif val > r.h + tol:
                return False
        return True


def _option_affine(inst: Instance, s: int, w: int) -> tuple[np.ndarray, float]:
    """Disutility of option w as (gradient over vec(x), constant)."""
    n = inst.W * inst.H
    g = np.zeros(n)
    if w == 0:
        return g, 0.0
    g[(w - 1) * inst.H: w * inst.H] = inst.E[s, w - 1]
    return g, -float(inst.R[s, w - 1])


def _beta_inverses(inst: Instance, beta) -> np.ndarray:
    """Per-segment 2/beta_s; zeros for the asymptotic system."""
    if beta is None or (isinstance(beta, float) and np.isinf(beta)):
        return np.zeros(inst.S)
    b = Beta.coerce(beta).per_segment(inst.S)
    return 2.0 / b


def cell_system(inst: Instance, pattern: Pattern, beta) -> CellSystem:
    """Defining rows of the cell of ``pattern`` at strength ``beta``.

    ``beta`` may be a float, a :class:`Beta`, math.inf or None; the last two
    give the asymptotic rows (the 2/beta offsets vanish).
    """
    _check_pattern(inst, pattern)
    two_over = _beta_inverses(inst, beta)
    rows: list[CellRow] = []
    for s in range(inst.S):
        act = pattern.active(s)
        a = len(act)
        g_sum = np.zeros(inst.W * inst.H)
        r_sum = 0.0
        for w in act:
            g, d = _option_affine(inst, s, int(w))
            g_sum += g
            r_sum += -d  # d = -reservation
        for w in range(inst.W + 1):
            g, d = _option_affine(inst, s, w)
            r_w = -d
            if pattern.A[s, w]:
                # a V_w - sum_act V <= 2/beta
                rows.append(CellRow(g=a * g - g_sum, h=two_over[s] + a * r_w - r_sum,
                                    segment=s, option=w, side=1, strict=True))
            else:
                # sum_act V - a V_w <= -2/beta
                rows.append(CellRow(g=g_sum - a * g, h=-two_over[s] + r_sum - a * r_w,
                                    segment=s, option=w, side=0, strict=False))
    rows.extend(_polytope_rows(inst))
    bval = None if beta is None or (isinstance(beta, float) and np.isinf(beta)) else beta
    return CellSystem(pattern=pattern, beta=bval, rows=rows)


def _polytope_rows(inst: Instance) -> list[CellRow]:
    G, h = inst.polytope.rows()
    return [CellRow(g=G[k], h=float(h[k]), segment=None, option=None, side=None,
                    strict=False) for k in range(G.shape[0])]


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
    G, h = system.matrices()
    ok, z = find_feasible_point(G, h)
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


def cell_qp(inst: Instance, pattern: Pattern, beta: Beta | float) -> CellQP:
    """Assemble the closed-cell profit as an explicit quadratic in vec(x).

    Per segment, active contracts w get mass ``(beta_s/2)(c_s - V_sw)`` with
    the affine level ``c_s = (2/beta_s + sum_act V)/a_s``, so the segment
    profit is a product of affine forms, expanded here term by term.
    """
    _check_pattern(inst, pattern)
    b = Beta.coerce(beta).per_segment(inst.S)
    n = inst.W * inst.H
    Q = np.zeros((n, n))
    c = np.zeros(n)
    d = 0.0
    for s in range(inst.S):
        act = pattern.active(s)
        a = len(act)
        contracts = [int(w) for w in act if w != 0]
        if not contracts:
            continue
        g_sum = np.zeros(n)
        d_sum = 0.0
        for w in act:
            g, dd = _option_affine(inst, s, int(w))
            g_sum += g
            d_sum += dd
        # level line c_s(x) = (2/beta + sum_act V)/a
        g_lvl = g_sum / a
        d_lvl = (2.0 / b[s] + d_sum) / a
        coef = inst.rho[s] * b[s] / 2.0
        for w in contracts:
            g_v, d_v = _option_affine(inst, s, w)
            k_w = float(inst.R[s, w - 1] - inst.C[s, w - 1])
            # (V_w + k_w)(c_s - V_w), both affine
            u, au = g_v, d_v + k_w
            v, av = g_lvl - g_v, d_lvl - d_v
            Q += coef * (np.outer(u, v) + np.outer(v, u))
            c += coef * (au * v + av * u)
            d += coef * au * av
    return CellQP(pattern=pattern, Q=Q, c=c, d=d)


def solve_cell(inst: Instance, pattern: Pattern, beta: Beta | float,
               warm: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Maximize profit over one closed cell.

    Returns (argmax prices, value).  Raises :class:`CellInfeasibleError` on an
    empty cell.  Deterministic, and warm starts only change the path, not the
    returned value.  A QP that stopped at its iteration cap is returned as
    solved; :func:`_solve_cell` also says whether that happened.
    """
    x, value, _ = _solve_cell(inst, pattern, beta, warm)
    return x, value


def _solve_cell(inst: Instance, pattern: Pattern, beta: Beta | float,
                warm: np.ndarray | None = None) -> tuple[np.ndarray, float, bool]:
    """:func:`solve_cell` plus whether the cell QP stopped at its iteration cap."""
    qp = cell_qp(inst, pattern, beta)
    system = cell_system(inst, pattern, beta)
    G, h = system.matrices()
    prob = QpProblem(Q=-qp.Q, c=-qp.c, G=G, h=h)
    w0 = None if warm is None else np.asarray(warm, dtype=float).ravel()
    sol = solve_qp(prob, warm_start=w0)
    if sol.status == "infeasible":
        raise CellInfeasibleError(f"pattern {pattern.A.tolist()} has an empty cell")
    if sol.status not in ("optimal", "iteration_limit"):
        raise RuntimeError(f"cell solve failed with status {sol.status}")
    x = sol.z.reshape(inst.W, inst.H)
    return x, qp.d - sol.value, sol.status == "iteration_limit"


def asymptotic_cell_system(inst: Instance, pattern: Pattern) -> CellSystem:
    """Limit cell: active options tie at the minimum, inactive lie above.

    Emitted as explicit rows (pairwise equalities against the first active
    option, plus one inequality per inactive option); the row space matches
    :func:`cell_system` with the 2/beta offsets removed.
    """
    _check_pattern(inst, pattern)
    rows: list[CellRow] = []
    for s in range(inst.S):
        act = [int(w) for w in pattern.active(s)]
        anchor = act[0]
        g_a, d_a = _option_affine(inst, s, anchor)
        for w in act[1:]:
            g_w, d_w = _option_affine(inst, s, w)
            # V_anchor = V_w as two closed rows
            rows.append(CellRow(g=g_a - g_w, h=d_w - d_a, segment=s, option=w,
                                side=1, strict=False))
            rows.append(CellRow(g=g_w - g_a, h=d_a - d_w, segment=s, option=w,
                                side=1, strict=False))
        for w in range(inst.W + 1):
            if pattern.A[s, w]:
                continue
            g_w, d_w = _option_affine(inst, s, w)
            # V_w >= V_anchor
            rows.append(CellRow(g=g_a - g_w, h=d_w - d_a, segment=s, option=w,
                                side=0, strict=False))
    rows.extend(_polytope_rows(inst))
    return CellSystem(pattern=pattern, beta=None, rows=rows)


@dataclass(frozen=True)
class NeighborMove:
    """Single-flip candidates for one segment: drop the worst active option
    and/or add the best inactive one, ranked by disutility at the current
    prices."""

    segment: int
    minus: Pattern | None
    plus: Pattern | None


def neighbors(inst: Instance, pattern: Pattern, beta: Beta | float,
              x: np.ndarray) -> list[NeighborMove]:
    """Per-segment one-flip neighborhood of ``pattern`` around prices x.

    For each segment: the active option with the largest disutility can be
    deactivated (unless it is the only one), the inactive option with the
    smallest disutility can be activated (unless all are active).  Disutility
    ties resolve to the lowest option index.
    """
    _check_pattern(inst, pattern)
    V = inst.disutilities(x)
    moves: list[NeighborMove] = []
    for s in range(inst.S):
        act = pattern.active(s)
        inact = np.flatnonzero(pattern.A[s] == 0)
        minus = None
        plus = None
        if len(act) >= 2:
            worst = int(act[int(np.argmax(V[s, act]))])
            minus = pattern.flip(s, worst)
        if len(inact) >= 1:
            best = int(inact[int(np.argmin(V[s, inact]))])
            plus = pattern.flip(s, best)
        moves.append(NeighborMove(segment=s, minus=minus, plus=plus))
    return moves

# ---------------------------------------------------------------------------
# Exhaustive desk-scale oracles.  These walk every support pattern (or every
# pure pattern for the deterministic model) and optimize the corresponding
# cell.  Exponential in S and W: ground truth for tests and the `oracle` CLI
# command, not production solvers.


@dataclass
class OracleResult:
    """Best cell found.  ``n_capped`` counts feasible cells whose QP stopped at
    its iteration cap: their values are not certified optima."""

    value: float
    pattern: Pattern | None
    x: np.ndarray | None
    n_feasible: int
    n_total: int
    n_capped: int = 0


def count_patterns(S: int, W: int) -> int:
    return (2 ** (W + 1) - 1) ** S


def enumerate_patterns(S: int, W: int):
    """All support patterns with non-empty rows, in lexicographic mask order."""
    n_opt = W + 1
    row_masks = range(1, 2 ** n_opt)
    for combo in itertools.product(row_masks, repeat=S):
        A = np.zeros((S, n_opt), dtype=np.int8)
        for s, mask in enumerate(combo):
            for w in range(n_opt):
                A[s, w] = (mask >> w) & 1
        yield Pattern(A)


def quad_oracle(inst: Instance, beta, max_patterns: int | None = None) -> OracleResult:
    """Global optimum of the regularized profit by full cell enumeration."""
    total = count_patterns(inst.S, inst.W)
    if max_patterns is not None and total > max_patterns:
        raise ValueError(f"{total} patterns exceed the cap {max_patterns}")
    best = OracleResult(value=-np.inf, pattern=None, x=None, n_feasible=0, n_total=total)
    for pat in enumerate_patterns(inst.S, inst.W):
        try:
            x, val, capped = _solve_cell(inst, pat, beta)
        except CellInfeasibleError:
            continue
        best.n_feasible += 1
        best.n_capped += capped
        if val > best.value:
            best.value, best.pattern, best.x = val, pat, x
    return best


def pure_patterns(S: int, W: int):
    """One-hot patterns: each segment locked to a single option."""
    for combo in itertools.product(range(W + 1), repeat=S):
        A = np.zeros((S, W + 1), dtype=np.int8)
        for s, w in enumerate(combo):
            A[s, w] = 1
        yield combo, Pattern(A)


def pure_assignment_lp(inst: Instance, combo: tuple[int, ...],
                       warm: np.ndarray | None = None) -> tuple[float, np.ndarray] | None:
    """Exact deterministic profit when segment s is held to option combo[s].

    Maximizes the linear profit over the polyhedron where every assigned
    option attains its segment's minimum disutility.  Returns (value, x) or
    None when that region is empty.
    """
    n = inst.W * inst.H
    A = np.zeros((inst.S, inst.W + 1), dtype=np.int8)
    for s, w in enumerate(combo):
        A[s, w] = 1
    system = asymptotic_cell_system(inst, Pattern(A))
    G, h = system.matrices()
    c = np.zeros(n)
    const = 0.0
    for s, w in enumerate(combo):
        if w == 0:
            continue
        c[(w - 1) * inst.H: w * inst.H] += inst.rho[s] * inst.E[s, w - 1]
        const -= inst.rho[s] * inst.C[s, w - 1]
    sol = solve_qp(QpProblem(Q=None, c=-c, G=G, h=h),
                   warm_start=None if warm is None else np.asarray(warm, dtype=float).ravel())
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise RuntimeError(f"pure-assignment LP ended with status {sol.status}")
    return -sol.value + const, sol.z.reshape(inst.W, inst.H)


def det_oracle(inst: Instance, max_patterns: int | None = None) -> OracleResult:
    """Deterministic-model optimum: best pure pattern over its limit cell.

    Ties on cell boundaries realize the seller-optimistic rule, since every
    tying assignment is enumerated over its own closed region.
    """
    total = (inst.W + 1) ** inst.S
    if max_patterns is not None and total > max_patterns:
        raise ValueError(f"{total} pure patterns exceed the cap {max_patterns}")
    best = OracleResult(value=-np.inf, pattern=None, x=None, n_feasible=0, n_total=total)
    for combo, pat in pure_patterns(inst.S, inst.W):
        res = pure_assignment_lp(inst, combo)
        if res is None:
            continue
        best.n_feasible += 1
        val, x = res
        if val > best.value:
            best.value, best.pattern, best.x = val, pat, x
    return best
