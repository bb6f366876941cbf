"""Local search over the response complex for the regularized model.

The search walks the polyhedral complex of support patterns.  One state is a
pattern ``A`` together with the optimum ``(x_A, phi_A)`` of the concave QP on
its closed cell.  A descent step takes the one-flip neighborhood (worst
active option out, best inactive option in, per segment) as the index
arrays ``(seg, opt)`` of :func:`neighbors`.  It either solves the cell of
each flipped pattern and moves to the best strictly improving candidate, or
(``neighbor_mode="restricted_miqp"``) frees exactly the flipped indicators
and solves one restricted mixed-binary program.  At a local optimum, a
restart frees a seeded random subset of activation indicators instead; the
outer loop stops after ``r_max`` restarts in a row fail to improve.  Both
restricted programs take one path: the other indicators are pinned to
``A``, ``solve_quad`` runs from the incumbent, and its answer is re-anchored
to its pattern's cell optimum and adopted only if it strictly improves.  A
cell QP that stops at its iteration cap is taken as solved and counted in
``extras["n_capped_cells"]``, and the restricted trees' own such counts are
summed under their names (``iteration_limit_nodes`` and ``_leaves``).
Restricted trees hold their pins as equalities and eliminate them once
(:func:`bnb.solve_quad`), so their node QPs run in the free indicators'
space.

Without a given start, the search first solves the unpinned program's root
relaxation (``solve_quad`` with ``node_limit=1``) and descends from that
root's exactly evaluated incumbent, falling back to the price polytope's
midpoint when the root gives none (its time ran out).  The root's bound is a
valid upper bound on the regularized optimum; it is reported in
``extras["root_bound"]`` when the root QP ran and did not stop at its
iteration cap (else None), and the root's cap counts join the restricted
trees'.  A given ``start`` skips the root.

A flip rewrites only its own segment's rows and profit terms of the cell
QP, so the per-pattern scan assembles all its candidate cells at once
(:class:`price_complex.NeighborScan`): the incumbent's segments and each
flip's new segment in one batched pass, and one union of their rows,
reduced once per scan, from which each candidate's solve takes its own
rows.  The state also keeps the final working set of the incumbent's cell
QP, whose rows are the union's first.  Each candidate cell is solved from
``x_A`` and that working set, less the flipped segment's rows.  A warm start
that violates one candidate row then takes a one-row repair, and one that
violates none starts from the given rows tight there, instead of a cold
phase 1 or a rank scan.

All randomness flows through one generator seeded by ``rng_seed``; repeated
runs are bit-identical.  Logged records carry no timings, so reports stay
byte-stable (wall-clock goes to the logging stream only).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .bnb import SolveReport, SolverOptions, solve_quad
from .model import Instance, Pattern
from .price_complex import CellInfeasibleError, NeighborScan, neighbors, pattern_of, solve_cell
from .response import Beta, quad_response
from .subqp import find_feasible_point

log = logging.getLogger("tariff_complex.qspc")

_EPS_ACCEPT = 1e-9  # strict-improvement margin for a descent move
_REL_IMPROVE = 1e-6  # relative margin for resetting the restart counter


@dataclass
class QspcOptions:
    """Search knobs.

    ``gamma_s`` whole pattern rows and ``gamma_w`` whole contract columns
    are freed per restart, plus each remaining coefficient independently
    with probability ``sigma``.  ``neighbor_mode`` picks how the one-flip
    neighborhood is scanned: one QP per candidate pattern, or a single
    restricted mixed-binary solve with the candidate indicators freed.
    ``time_limit_s`` bounds the whole search: each restricted ``solve_quad``
    call gets what is left of it.
    """

    r_max: int = 3
    gamma_s: int = 1
    gamma_w: int = 1
    sigma: float = 0.05
    neighbor_mode: str = "per_pattern_qp"  # or "restricted_miqp"
    rng_seed: int = 0
    restart_gap: float = 3e-2
    time_limit_s: float = 3600.0

    def __post_init__(self):
        if self.r_max < 1:
            raise ValueError(f"r_max must be at least 1, got {self.r_max}")
        if self.gamma_s < 0 or self.gamma_w < 0:
            raise ValueError("gamma_s and gamma_w must be nonnegative")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {self.sigma}")
        if self.neighbor_mode not in ("per_pattern_qp", "restricted_miqp"):
            raise ValueError(f"unknown neighbor_mode {self.neighbor_mode!r}")
        if not (self.restart_gap > 0):
            raise ValueError(f"restart_gap must be positive, got {self.restart_gap}")


@dataclass
class QspcState:
    """Best pattern found so far with its cell optimum; phi never decreases.

    ``active`` is the final working set of the cell QP at ``x``, as rows of
    ``pattern``'s cell system (None: not known).  A scan or restart given
    the state as ``counters`` reads it as the incumbent's, and leaves the
    working set of the cell optimum it returns there.
    """

    pattern: Pattern
    x: np.ndarray
    phi: float
    active: list[int] | None = None
    r: int = 0
    log: list[dict] = field(default_factory=list)
    n_explore: int = 0
    n_restarts: int = 0
    n_infeasible_neighbors: int = 0
    n_capped_cells: int = 0
    iteration_limit_nodes: int = 0
    iteration_limit_leaves: int = 0
    timed_out: bool = False

    def record(self, phase: str):
        self.log.append({"phase": phase, "pattern_hash": self.pattern.hash_hex(),
                         "phi": self.phi})


def explore_good_neighbors(inst: Instance, beta: Beta | float, A: Pattern,
                           x_A: np.ndarray, phi_A: float,
                           opts: QspcOptions | None = None,
                           counters: QspcState | None = None
                           ) -> tuple[Pattern, np.ndarray, float]:
    """One neighborhood scan from the cell optimum ``(x_A, phi_A)`` of ``A``,
    in the mode ``opts.neighbor_mode`` names.

    Returns the incumbent unchanged unless a candidate strictly improves.
    Candidate values tie-break on the lexicographically smallest pattern so
    the result does not depend on evaluation order.  The candidate cells
    share one :class:`NeighborScan`: their rows are reduced together once.
    With the search state as ``counters``, each candidate cell starts from
    the incumbent's working set, whose rows are the scan's first.
    """
    opts = opts or QspcOptions()
    counters = counters or QspcState(pattern=A, x=x_A, phi=phi_A)
    bet = Beta.coerce(beta)
    seg, opt = neighbors(inst, A, x_A)
    if opts.neighbor_mode == "restricted_miqp":
        if not seg.size:
            return A, x_A, phi_A
        free = np.zeros(A.A.shape, dtype=bool)
        free[seg, opt] = True
        return _restricted_solve(inst, bet, A, free, x_A, phi_A, opts, counters)

    active = counters.active
    best = None  # ((-phi, pattern key), pattern, cell optimum)
    # all candidates before any cell solve: flips interleaved with the
    # solves took about 1.7x as long each
    cands = [A.flip(s, w) for s, w in zip(seg.tolist(), opt.tolist())]
    scan = NeighborScan(inst, A, bet, seg, opt)
    for k, cand in enumerate(cands):
        try:
            sol = solve_cell(inst, cand, bet, warm=x_A, warm_active=active, cell=scan.cell(k))
        except CellInfeasibleError:
            counters.n_infeasible_neighbors += 1
            continue
        counters.n_capped_cells += sol.capped
        key = (-sol.value, cand.key())
        if best is None or key < best[0]:
            best = (key, cand, sol)
    if best is not None and best[2].value > phi_A + _EPS_ACCEPT:
        counters.active = best[2].active
        return best[1], best[2].x, best[2].value
    return A, x_A, phi_A


def _restricted_solve(inst, bet, A, free, x_A, phi_A, opts, counters):
    """Free the ``free`` indicators, pin the rest to ``A``, and solve that
    mixed-binary program from the incumbent ``(x_A, phi_A)``.

    The program's incumbent is re-anchored to its pattern's cell optimum,
    which is adopted only if it strictly beats ``phi_A``.
    """
    fz = A.A.astype(np.int8)
    fz[free] = -1
    rep = solve_quad(inst, bet,
                     SolverOptions(gap=opts.restart_gap,
                                   time_limit_s=opts.time_limit_s),
                     fixed_z=fz, warm_incumbent=x_A)
    if rep.status == "time_limit":
        counters.timed_out = True
    counters.iteration_limit_nodes += rep.extras["iteration_limit_nodes"]
    counters.iteration_limit_leaves += rep.extras["iteration_limit_leaves"]
    if not rep.has_incumbent() or rep.pattern == A:
        return A, x_A, phi_A
    try:
        x_n, phi_n, capped, act_n = solve_cell(inst, rep.pattern, bet, warm=rep.x.ravel())
    except CellInfeasibleError:
        return A, x_A, phi_A
    counters.n_capped_cells += capped
    if phi_n > phi_A + _EPS_ACCEPT:
        counters.active = act_n
        return rep.pattern, x_n, phi_n
    return A, x_A, phi_A


def miqp_restart(inst: Instance, beta: Beta | float, A: Pattern,
                 opts: QspcOptions, rng: np.random.Generator | None = None,
                 warm: tuple[np.ndarray, float] | None = None,
                 counters: QspcState | None = None
                 ) -> tuple[Pattern, np.ndarray, float]:
    """Free a random pattern block and re-optimize the restricted program.

    ``gamma_s`` rows and ``gamma_w`` contract columns are drawn uniformly
    without replacement; every coefficient outside them is freed with
    probability ``sigma``.  The generator is taken as given so a caller can
    thread one evolving stream through successive restarts.  ``warm`` is the
    cell optimum of ``A``; it is solved for when not given.
    """
    bet = Beta.coerce(beta)
    rng = rng if rng is not None else np.random.default_rng(opts.rng_seed)
    S, W = inst.S, inst.W
    if not 0 <= opts.gamma_s <= S:
        raise ValueError(f"gamma_s must lie in [0, {S}], got {opts.gamma_s}")
    if not 0 <= opts.gamma_w <= W:
        raise ValueError(f"gamma_w must lie in [0, {W}], got {opts.gamma_w}")
    free = np.zeros((S, W + 1), dtype=bool)
    rows = rng.choice(S, size=opts.gamma_s, replace=False)
    cols = rng.choice(W, size=opts.gamma_w, replace=False) + 1  # contract columns
    free[rows, :] = True
    free[:, cols] = True
    coin = rng.random((S, W + 1)) < opts.sigma
    free |= coin
    if warm is None:
        x_A, phi_A, capped, _ = solve_cell(inst, A, bet)
    else:
        (x_A, phi_A), capped = warm, False
    counters = counters or QspcState(pattern=A, x=x_A, phi=phi_A)
    counters.n_capped_cells += capped
    if not free.any():
        return A, x_A, phi_A
    counters.n_restarts += 1
    return _restricted_solve(inst, bet, A, free, x_A, phi_A, opts, counters)


def _start_point(inst: Instance, start):
    if start is not None:
        return np.asarray(start, dtype=float).reshape(inst.W, inst.H)
    mid = inst.polytope.midpoint()
    if inst.polytope.contains(mid):
        return mid
    G, h = inst.polytope.rows()
    ok, z = find_feasible_point(G, h)
    if not ok:
        raise ValueError("price polytope admits no feasible point")
    return z.reshape(inst.W, inst.H)


def qspc(inst: Instance, beta: Beta | float, start=None,
         opts: QspcOptions | None = None) -> SolveReport:
    """Pivoting local search with randomized restarts; returns the best
    pattern's cell optimum as a heuristic report (no bound, no gap).

    Without ``start`` the search starts from the exactly evaluated incumbent
    of the unpinned root relaxation, whose bound goes to
    ``extras["root_bound"]``."""
    opts = opts or QspcOptions()
    bet = Beta.coerce(beta)
    t0 = time.perf_counter()

    def out_of_time():
        return time.perf_counter() - t0 > opts.time_limit_s

    def left():  # opts with time_limit_s cut to what is left of it
        return replace(opts, time_limit_s=max(0.0, opts.time_limit_s - (time.perf_counter() - t0)))

    x0, root_bound, root_caps = start, None, {}
    if start is None:
        root = solve_quad(inst, bet, SolverOptions(node_limit=1,
                                                   time_limit_s=left().time_limit_s))
        root_caps = {k: root.extras[k] for k in ("iteration_limit_nodes",
                                                 "iteration_limit_leaves")}
        if root.node_count and not root_caps["iteration_limit_nodes"]:
            root_bound = root.bound
        x0 = root.x  # None without an incumbent: _start_point's fallback
    x0 = _start_point(inst, x0)
    A0 = pattern_of(inst, x0, bet)
    x_A, phi_A, capped, act = solve_cell(inst, A0, bet, warm=x0)
    state = QspcState(pattern=A0, x=x_A, phi=phi_A, active=act, n_capped_cells=int(capped),
                      **root_caps)
    state.record("descent")
    rng = np.random.default_rng(opts.rng_seed)

    while state.r < opts.r_max and not out_of_time():
        if state.r == 0:
            while not out_of_time():
                state.n_explore += 1
                A_n, x_n, phi_n = explore_good_neighbors(
                    inst, bet, state.pattern, state.x, state.phi, opts=left(),
                    counters=state)
                moved = A_n != state.pattern
                state.pattern, state.x, state.phi = A_n, x_n, phi_n
                state.record("descent")
                log.info("descent phi=%.9g pattern=%s t=%.3f", state.phi,
                         state.pattern.hash_hex(), time.perf_counter() - t0)
                if not moved:
                    break
        if out_of_time():
            break
        active = state.active
        A_r, x_r, phi_r = miqp_restart(inst, bet, state.pattern, left(), rng=rng,
                                       warm=(state.x, state.phi), counters=state)
        improved = phi_r > state.phi + _REL_IMPROVE * max(1.0, abs(state.phi))
        if improved:
            state.pattern, state.x, state.phi = A_r, x_r, phi_r
            state.r = 0
        else:
            state.active = active  # the restart's cell optimum is not adopted
            state.r += 1
        state.record("restart")
        log.info("restart phi=%.9g r=%d t=%.3f", state.phi, state.r,
                 time.perf_counter() - t0)

    if out_of_time():
        state.timed_out = True
    resp, _ = quad_response(inst, state.x, bet)
    return SolveReport(
        status="heuristic",
        objective=state.phi,
        bound=None,
        gap=None,
        x=state.x,
        response=resp,
        pattern=state.pattern,
        node_count=0,
        wall_time_s=time.perf_counter() - t0,
        trace=list(state.log),
        extras={"root_bound": root_bound, **{k: getattr(state, k) for k in (
            "n_explore", "n_restarts", "n_infeasible_neighbors", "n_capped_cells",
            "iteration_limit_nodes", "iteration_limit_leaves", "timed_out")}},
    )
