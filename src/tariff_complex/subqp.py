"""In-house convex subproblem solvers.

Two entry points:

* :func:`project_simplex` - Euclidean projection onto the probability simplex
  by the sort-then-threshold scheme, O(n log n).
* :func:`solve_qp` - primal active-set method for convex QPs (LPs when Q = 0)
  over general polytopes ``{z : G z <= h, A z = b}``.

The active-set method works in two steps.  :func:`reduce_qp` eliminates the
equalities through a null-space parametrization (an SVD, since ``A`` may be
rank-deficient), reduces and normalizes every inequality row and checks that
Q is PSD, once per program.  Its row part, :func:`reduce_rows`, also runs on
its own: a union of rows reduced once serves programs that share the
equalities but differ in their objectives (the candidate cells of one
neighbourhood scan), and each solve then checks and reduces its own Q and
c.  Without equalities the null-space basis is the identity, and its
products are skipped: adding +0.0 gives their bytes exactly.  The solve
then picks the rows it is given,
drops those the reduction zeroed, finds a starting point with a phase-1 LP,
and iterates equality-constrained steps.  The starting working set is an
independent subset of the rows tight there, picked greedily by index with an
incremental (twice Gram-Schmidt) rank test.  A warm start from the optimum
and final working set of a problem with one row fewer (a branch-and-bound
parent) skips that scan: phase 1 becomes a repair that relaxes the one
violated row alone and starts from the given rows, and the main loop starts
from the repair's final rows among them plus the new row, which joins unless
they span it.  A warm start that violates no row, given with rows such as a
neighbour cell's final working set (rows of a reduction they share), skips
phase 1 and starts the main loop from those of the rows tight there.  The
working set is factorized by a Householder QR of its
rows' transpose: the trailing columns of the orthogonal factor span the null
space for the step, and the leading block with R gives the multipliers
(Nocedal & Wright, *Numerical Optimization*, ch. 16).  A row that joins the
working set updates that factor in place by one Householder reflector on its
null-space block (Gill, Golub, Murray & Saunders, Math. Comp. 1974), and R
is formed from the leading block only when the multipliers need it.  A row
that leaves (a negative multiplier, or a row that drifted off its bound) is
removed by one reflector on the leading block, which turns the direction
orthogonal to the other working rows into the last leading column, and that
column joins the null space.  The factor is computed afresh once per solve
and again after n in-place updates, which bounds their drift.  Rows in the
working set's span never join it, so the working rows stay independent and
the unpivoted QR needs no rank decision: the ratio test considers only rows
whose rate along the step exceeds ``1e-13 * max(1, |p|_inf)`` (a spanned
row's rate is roundoff of order eps * |p|), and a blocking row that a
``matrix_rank``-style test finds in the span anyway (spanned with large
coefficients, which amplify that roundoff) is passed over.  LPs (Q = 0) skip
the reduced-Hessian eigendecomposition: the step is the projected
steepest-descent ray or zero.  After a full Newton step that no row blocks,
the iterate minimizes over the working set, so the next iteration goes
straight to the multipliers instead of recomputing a step that is zero up to
roundoff.  Anti-cycling uses lexicographic tie-breaking on constraint
indices, with a Bland-style fallback after repeated degenerate steps.
Everything is deterministic: identical inputs give identical iterates.
Rows are reduced and normalized row by row, so a solve on some rows of a
reduced program (a branch-and-bound node's rows of its tree's program) runs
bit for bit as if those rows had been reduced alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import EPS_FEAS

_RIDGE = 1e-12
_STALL_LIMIT = 25
_EPS = np.finfo(float).eps


def project_simplex(p: np.ndarray) -> np.ndarray:
    """Project p onto {y >= 0, sum y = 1}.

    Sorts descending, finds the largest support whose water level stays below
    the smallest kept entry, thresholds, then renormalizes the positive part
    so the result sums to 1 exactly.
    """
    p = np.asarray(p, dtype=float).ravel()
    n = p.size
    if n == 0:
        raise ValueError("cannot project an empty vector")
    if n == 1:
        return np.array([1.0])
    u = np.sort(p)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, n + 1)
    cond = u - css / ks > 0
    k = int(np.nonzero(cond)[0][-1]) + 1
    theta = css[k - 1] / k
    y = np.maximum(p - theta, 0.0)
    return y / y.sum()


@dataclass
class QpProblem:
    """min (1/2) z'Qz + c'z  s.t.  G z <= h,  A z = b.

    Q must be symmetric positive semidefinite; Q = 0 gives an LP.  G/h and
    A/b may be omitted.
    """

    Q: np.ndarray
    c: np.ndarray
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    A: np.ndarray | None = None
    b: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        self.Q = np.zeros((n, n)) if self.Q is None else np.asarray(self.Q, dtype=float)
        if self.Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}")
        if self.G is None:
            self.G = np.zeros((0, n))
            self.h = np.zeros(0)
        else:
            self.G = np.asarray(self.G, dtype=float).reshape(-1, n)
            self.h = np.asarray(self.h, dtype=float).ravel()
        if self.h.size != self.G.shape[0]:
            raise ValueError("G and h row counts differ")
        if self.A is None:
            self.A = np.zeros((0, n))
            self.b = np.zeros(0)
        else:
            self.A = np.asarray(self.A, dtype=float).reshape(-1, n)
            self.b = np.asarray(self.b, dtype=float).ravel()
        if self.b.size != self.A.shape[0]:
            raise ValueError("A and b row counts differ")

    @property
    def n(self) -> int:
        return self.c.size

    def objective(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(0.5 * z @ self.Q @ z + self.c @ z)


@dataclass
class QpSolution:
    z: np.ndarray
    value: float
    status: str  # optimal | infeasible | unbounded | iteration_limit
    kkt_residual: float = np.nan
    ineq_multipliers: np.ndarray | None = None
    eq_multipliers: np.ndarray | None = None
    active_set: list[int] = field(default_factory=list)
    n_iterations: int = 0
    ridge_applied: bool = False
    ray: np.ndarray | None = None


@dataclass
class Reduction:
    """A program in its equalities' null space, ``z = z0 + N u``: per row of
    G, ``G N`` normalized (``Gn``), its norm, ``G z0``, and ``big``, the
    largest |entry| of the row or of ``G N``'s row, which sets the zero-row
    threshold; then the objective ``1/2 u'Qu u + cu'u`` (None when only the
    rows were reduced).  ``N`` None stands for the identity (no equalities):
    the products with it are skipped, and adding +0.0 gives their bytes
    (a -0.0 entry becomes +0.0)."""

    z0: np.ndarray
    N: np.ndarray | None
    Gn: np.ndarray
    norms: np.ndarray
    Gz0: np.ndarray
    big: np.ndarray
    Qu: np.ndarray | None = None
    cu: np.ndarray | None = None

    @property
    def nu(self) -> int:
        """Number of free variables ``u``."""
        return self.z0.size if self.N is None else self.N.shape[1]

    def times_n(self, u: np.ndarray) -> np.ndarray:
        """``N u``."""
        return u + 0.0 if self.N is None else self.N @ u

    def to_u(self, z: np.ndarray) -> np.ndarray:
        """``N' (z - z0)``, which is u for a point on the equality manifold."""
        v = z - self.z0
        return v + 0.0 if self.N is None else self.N.T @ v

    def objective(self, Q: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(Qu, cu)`` of the objective ``1/2 z'Qz + c'z``."""
        if self.N is None:
            return Q + 0.0, c + 0.0
        return self.N.T @ Q @ self.N, self.N.T @ (c + Q @ self.z0)

    @cached_property
    def lifted(self):
        """Each row as a hard phase-1 row ``[Gn, -0]``, normalized, with its norm."""
        return _unit_rows(np.hstack([self.Gn, np.full((self.Gn.shape[0], 1), -0.0)]))


def _unit_rows(G):
    """G's rows divided by their norms (a zero row is left as it is), and the norms."""
    norms = np.linalg.norm(G, axis=1)
    return G / np.where(norms > 0.0, norms, 1.0)[:, None], norms


def reduce_rows(G: np.ndarray, A: np.ndarray | None = None,
                b: np.ndarray | None = None) -> Reduction | None:
    """The row part of :func:`reduce_qp`: eliminate the equalities ``A z = b``
    (none when A is None) and reduce and normalize every row of G, one row
    at a time (None: inconsistent equalities).  The objective is left out."""
    m, n = G.shape
    if A is not None and A.shape[0]:
        z0, *_ = np.linalg.lstsq(A, b, rcond=None)
        if float(np.abs(A @ z0 - b).max(initial=0.0)) > \
                EPS_FEAS * max(1.0, float(np.abs(b).max(initial=0.0))):
            return None
        N = _nullspace(A, n)
        Gu = G @ N
        big = np.maximum(np.abs(Gu).max(axis=1, initial=0.0), np.abs(G).max(axis=1, initial=0.0))
        Gz0 = G @ z0
    else:
        z0, N, Gu = np.zeros(n), None, G + 0.0
        big, Gz0 = np.abs(G).max(axis=1, initial=0.0), np.zeros(m)
    Gn, norms = _unit_rows(Gu)
    return Reduction(z0=z0, N=N, Gn=Gn, norms=norms, Gz0=Gz0, big=big)


def reduce_qp(prob: QpProblem, ridge: bool = False) -> Reduction | None:
    """Eliminate prob's equalities and reduce its rows and objective (None:
    inconsistent equalities).  Checks that Q is PSD, or with ``ridge`` adds a
    ridge."""
    Q = prob.Q
    if ridge:
        Q = Q + _RIDGE * max(1.0, float(np.abs(Q).max(initial=0.0))) * np.eye(prob.n)
    else:
        _check_psd(Q)
    red = reduce_rows(prob.G, prob.A, prob.b)
    if red is not None:
        red.Qu, red.cu = red.objective(Q, prob.c)
    return red


def _check_psd(Q: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(Q).max(initial=0.0)))
    # np.allclose(Q, Q.T, atol=1e-8 * scale), written out without its overhead
    if not np.all(np.abs(Q - Q.T) <= 1e-8 * scale + 1e-5 * np.abs(Q.T)):
        raise ValueError("Q must be symmetric")
    d = np.diag(Q)
    if np.count_nonzero(Q - np.diag(d)) == 0:
        if d.min(initial=0.0) < -1e-8 * scale:
            raise ValueError("Q is not positive semidefinite")
        return
    lam_min = float(np.linalg.eigvalsh((Q + Q.T) / 2.0)[0])
    if lam_min < -1e-8 * scale:
        raise ValueError(f"Q is not positive semidefinite (lambda_min={lam_min:.3e})")


def _nullspace(C: np.ndarray, n: int) -> np.ndarray:
    _, s, Vt = np.linalg.svd(C, full_matrices=True)
    tol = max(C.shape) * _EPS * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return Vt[rank:].T


def _independent_subset(G: np.ndarray, cand: np.ndarray, cap: int) -> list[int]:
    """Greedy by index: keep rows that increase rank, up to cap rows.

    A candidate is kept when its residual against an orthonormal basis of the
    rows kept so far (Gram-Schmidt, applied twice) exceeds the tolerance
    ``matrix_rank`` would use on the kept rows plus the candidate, with the
    Frobenius norm standing in for the largest singular value.
    """
    n = G.shape[1]
    cap = min(cap, n)
    keep: list[int] = []
    basis = np.empty((cap, n))
    kept_sq = 0.0  # squared Frobenius norm of the kept rows
    for k in cand:
        if len(keep) >= cap:
            break
        r = G[k]
        r_sq = float(r @ r)
        B = basis[: len(keep)]
        for _ in range(2):
            r = r - B.T @ (B @ r)
        r_norm = math.sqrt(r @ r)
        tol = max(len(keep) + 1, n) * _EPS * np.sqrt(kept_sq + r_sq)
        if r_norm > tol:
            basis[len(keep)] = r / r_norm
            keep.append(int(k))
            kept_sq += r_sq
    return keep


def _factor_working_set(C: np.ndarray):
    """Householder QR of the working rows: C' = Y R with Y = Qf[:, :k].

    Returns (Qf, R): the complete orthogonal factor, whose trailing columns
    Z = Qf[:, k:] span C's null space, and the k x k triangle R.  The rows
    are independent (the starting set is picked by a rank test and the ratio
    test admits no row in their span), so R is nonsingular without pivoting.
    """
    Qf, R = np.linalg.qr(C.T, mode="complete")
    return Qf, R[: C.shape[0]]


def _join_working_set(Qf: np.ndarray, work: list[int], G: np.ndarray, i: int) -> None:
    """Row i joins the working set: update Qf in place and insert i into work.

    One Householder reflector on the null-space block Z = Qf[:, k:] maps
    Z' a to a multiple of its first unit vector, so column k of Qf carries
    a's component outside the old span and the columns after it span the new
    null space, in O(n (n - k)).  Y is then no longer a triangular factor's,
    but C' = Y R holds with R = Y' C', which its users only solve with.
    """
    k = len(work)
    Z = Qf[:, k:]
    v = Z.T @ G[i]
    alpha = -np.copysign(math.sqrt(v @ v), v[0])
    v[0] -= alpha
    Qf[:, k:] = Z - np.outer(Z @ v, v * (2.0 / (v @ v)))
    work.append(i)
    work.sort()


def _leave_working_set(Qf: np.ndarray, work: list[int], R: np.ndarray, j: int) -> np.ndarray:
    """Row work[j] leaves the working set: update Qf in place, pop j from work.

    With C' = Y R, the solution u of R' u = e_j makes Y u orthogonal to every
    other working row (its product with row i is u' R e_i) but not to row j.
    One Householder reflector H on the range block Y = Qf[:, :k] maps u to a
    multiple of its last unit vector, so the last column of Y H lies along
    Y u and joins the null space, while the columns before it span the
    remaining rows, in O(n k).  Returns their R: H R without its last row
    (zero off column j) and column j.
    """
    k = len(work)
    Y = Qf[:, :k]
    e = np.zeros(k)
    e[j] = 1.0
    v = np.linalg.solve(R.T, e)
    alpha = -np.copysign(math.sqrt(v @ v), v[-1])
    v[-1] -= alpha
    w = v * (2.0 / (v @ v))
    Qf[:, :k] = Y - np.outer(Y @ v, w)
    work.pop(j)
    return np.delete((R - np.outer(v, w @ R))[:-1], j, axis=1)


def _in_span(row: np.ndarray, Y: np.ndarray, Z: np.ndarray, R: np.ndarray | None,
             G: np.ndarray, work: list[int]) -> bool:
    """Whether the unit row lies in the span of the working rows C' = Y R,
    C = G[work].

    The residual ``|Z' row|`` divided by the norm of ``(R^-1 Y' row, -1)``
    bounds the smallest singular value of C with row appended; the row is
    spanned when that bound is below the tolerance ``matrix_rank`` would use
    there (Frobenius norm for the largest singular value).  A spanned row's
    residual is roundoff of order eps * |R^-1 Y' row|; one above 1e-8 would
    need coefficients near 1e8, so it is taken as independent without the
    solve with R.  ``R`` None (after an insertion) is formed from Y and C.
    """
    zr = Z.T @ row
    resid = math.sqrt(zr @ zr)
    if resid > 1e-8:
        return False
    if R is None:
        R = Y.T @ G[work].T
    k, n = R.shape[0], row.size
    coef = np.linalg.solve(R, Y.T @ row)
    tol = max(k + 1, n) * _EPS * np.sqrt(np.sum(R * R) + row @ row)
    return resid <= tol * np.sqrt(1.0 + coef @ coef)


def _working_set_step(Q, g, Z, qscale):
    """Step from x with gradient g on the manifold with null-space basis Z.

    Returns (p, ray): the Newton step to the minimizer on the manifold, or,
    when the reduced gradient has a component along zero curvature, a
    descent ray scaled to unit max-norm.  With Q = 0 every reduced
    eigenvalue is zero, so the eigendecomposition is skipped.
    """
    n = g.size
    if Z.shape[1] == 0:
        return np.zeros(n), False
    gz = Z.T @ g
    gz_null, newton = gz, None
    if qscale > 0.0:
        Hz = Z.T @ Q @ Z
        Hz = (Hz + Hz.T) / 2.0
        lam_ev, U = np.linalg.eigh(Hz)
        lam_max = max(float(lam_ev[-1]), 0.0)
        # noise eigenvalues of a singular Hz scale with |Q|, not lam_max;
        # treating them as curvature blows the Newton step up to ~1/noise
        pos = lam_ev > 1e-11 * max(1.0, qscale, lam_max)
        if pos.any():
            U = U[:, pos]
            coef = U.T @ gz
            gz_null = gz - U @ coef
            newton = U @ (coef / lam_ev[pos])
    ray_tol = 1e-10 * max(1.0, float(np.abs(g).max(initial=0.0)))
    if float(np.abs(gz_null).max(initial=0.0)) > ray_tol:
        p = -(Z @ gz_null)
        return p / max(float(np.abs(p).max()), 1e-300), True
    if newton is None:
        return np.zeros(n), False
    return -(Z @ newton), False


def _active_set_core(Q, c, G, h, x0, max_iter, start=None, join=None):
    """Inequality-only active-set loop on pre-normalized rows.

    Returns (x, status, working_set, lam_on_working_set, iters, ray).
    The caller guarantees x0 is feasible to ~1e-9.  The starting working
    set is ``start``, independent rows tight at x0, or else an independent
    subset of the rows tight there; ``join``, a row tight at x0, then joins
    it unless it lies in its span.
    """
    m, n = G.shape
    x = np.array(x0, dtype=float)
    qscale = float(np.abs(Q).max(initial=0.0))
    if start is None:
        near = np.flatnonzero(h - G @ x <= 1e-9) if m else np.array([], dtype=int)
        work = _independent_subset(G, near, n)
    else:
        work = list(start)
    work.sort()
    bland = False
    stall = 0
    it = 0
    # after an unblocked full Newton step x minimizes over the working set,
    # so the next iteration goes straight to the multipliers
    full_step = False
    # complete orthogonal factor of the working rows, updated in place when a
    # row joins or leaves and refactorized after n such updates, which bounds
    # the drift; R, with C' = Y R, is None after an insertion until the
    # multipliers or a removal need it
    Qf = R = None
    updates = 0
    if join is not None:
        Qf, R = _factor_working_set(G[work])
        k = len(work)
        if not _in_span(G[join], Qf[:, :k], Qf[:, k:], R, G, work):
            _join_working_set(Qf, work, G, join)
            R = None
            updates = 1
    while it < max_iter:
        it += 1
        g = Q @ x + c if qscale > 0.0 else c
        if Qf is None or updates >= n:
            Qf, R = _factor_working_set(G[work])
            updates = 0
        k = len(work)
        Y, Z = Qf[:, :k], Qf[:, k:]
        if not full_step:
            p, ray = _working_set_step(Q, g, Z, qscale)
        if full_step or (not ray and float(np.abs(p).max(initial=0.0))
                         <= 1e-12 * max(1.0, float(np.abs(x).max()))):
            # stationary on the working set: inspect multipliers
            full_step = False
            if not work:
                return x, "optimal", work, np.zeros(0), it, None
            Gw = G[work]
            if R is None:
                R = Y.T @ Gw.T
            # rows that drifted out of tightness leave, last position first:
            # their manifold is fiction; otherwise the most negative
            # multiplier's row leaves (lowest index on ties, the lowest index
            # among negative ones under Bland's rule)
            leave = np.flatnonzero(h[work] - Gw @ x > 1e-7)[::-1]
            if not leave.size:
                lam = np.linalg.solve(R, -(Y.T @ g))
                neg = np.flatnonzero(lam < -1e-10 * max(1.0, float(np.abs(g).max(initial=0.0))))
                if not neg.size:
                    return x, "optimal", work, lam, it, None
                leave = neg[:1] if bland else [int(np.argmin(lam))]
            for j in leave:
                R = _leave_working_set(Qf, work, R, int(j))
            updates += len(leave)
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
            continue

        # ratio test against rows outside the working set
        d = G @ p if m else np.zeros(0)
        slack = h - G @ x if m else np.zeros(0)
        in_work = np.zeros(m, dtype=bool)
        in_work[work] = True
        # relative threshold: a row in the working set's span has d ~ eps*|p|,
        # and admitting it would make the working set rank-deficient
        cand = np.flatnonzero((d > 1e-13 * max(1.0, float(np.abs(p).max()))) & ~in_work)
        alpha_target = np.inf if ray else 1.0
        a_block, blocker = np.inf, None
        while cand.size:
            ratios = np.maximum(slack[cand], 0.0) / d[cand]
            a_block = float(ratios.min())
            # tie-break only among rows actually tight after the step; an
            # absolute window on ratios misgrades ties when |p| is large
            margin = slack[cand] - a_block * d[cand]
            tight = cand[margin <= 1e-9 + 1e-12 * np.abs(a_block * d[cand])]
            blocker = int(tight.min())
            if a_block > alpha_target or not _in_span(G[blocker], Y, Z, R, G, work):
                break
            # spanned with large coefficients, its rate is amplified roundoff
            cand = cand[cand != blocker]
            a_block, blocker = np.inf, None
        if ray and blocker is None:
            return x, "unbounded", work, np.zeros(len(work)), it, p
        alpha = min(alpha_target, a_block)
        x = x + alpha * p
        if blocker is not None and a_block <= alpha_target:
            _join_working_set(Qf, work, G, blocker)
            R = None
            updates += 1
        else:
            full_step = True
        if alpha <= 1e-13:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0
    lam = np.zeros(len(work))
    return x, "iteration_limit", work, lam, it, None


def _tight(G, h, x, rows) -> list[int]:
    """The rows, in order, whose slack at x is at most 1e-7."""
    rows = np.asarray(rows, dtype=int)
    return rows[h[rows] - G[rows] @ x <= 1e-7].tolist()


def _phase_one(G, h, u0, max_iter, repair=None):
    """Minimize the relaxation t of G u - t e <= h, t >= 0.

    Cold (``repair`` None): every row is elastic (e = 1), and the start
    (u0, t0) with t0 = max violation + 1 is strictly feasible, so no
    recursion is needed.  Repair (``repair = (r, rows, lifted)``): u0
    violates row r alone, and ``rows`` are independent rows, such as a
    parent node's final working set.  Only row r is elastic (e = e_r) and t0
    is its violation, so every row u0 satisfies stays hard, and the core
    starts from r and those of ``rows`` tight at u0 instead of a rank scan.
    ``lifted`` holds G's rows as hard phase-1 rows (``Reduction.lifted``);
    only row r's is built here.

    Returns (feasible_point_or_None, status, start): ``start`` is None when
    cold; after a repair it is the final working rows that are among
    ``rows``, to start the main loop from.
    """
    m, n = G.shape
    last = np.concatenate([np.zeros(n), [-1.0]])
    if repair is None:
        start = None
        t0 = max(0.0, float((G @ u0 - h).max(initial=0.0))) + 1.0
        Gp, norms = _unit_rows(np.vstack([np.hstack([G, -np.ones((m, 1))]), last]))
    else:
        r, rows, (Gp, norms) = repair
        t0 = float(G[r] @ u0 - h[r])
        start = _tight(G, h, u0, rows) + [r]
        Gp, norms = np.vstack([Gp, last]), np.append(norms, 1.0)
        row, norm = _unit_rows(np.append(G[r], -1.0)[None])
        Gp[r], norms[r] = row[0], norm[0]
    hp = np.append(h, 0.0) / norms
    cp = np.zeros(n + 1)
    cp[-1] = 1.0
    x0 = np.concatenate([u0, [t0]])
    x, status, work, *_ = _active_set_core(np.zeros((n + 1, n + 1)), cp, Gp, hp, x0,
                                           max_iter, start=start)
    if status not in ("optimal", "iteration_limit"):
        return None, status, None
    t_star = float(x[-1])
    if t_star > 1e-9 * max(1.0, float(np.abs(h).max(initial=0.0))):
        return None, "infeasible", None
    if repair is not None:
        start = _tight(G, h, x[:n], sorted(set(work).intersection(rows.tolist())))
    return x[:n], "ok", start


def solve_qp(prob: QpProblem, warm_start: np.ndarray | None = None,
             warm_active: list[int] | None = None,
             reduced: tuple[Reduction | None, np.ndarray] | None = None) -> QpSolution:
    """Solve a convex QP/LP.  Deterministic; see module docstring.

    ``warm_start`` is projected onto the equality manifold and used when
    feasible, otherwise it seeds the phase-1 search.  ``warm_active`` are
    rows of the reduction the solve runs on (``red``'s with ``reduced``,
    else ``prob.G``'s; others raise ValueError), independent after the
    equalities are eliminated, such as the final working set
    (``rows[sol.active_set]``) of a problem with one row fewer, whose
    optimum is ``warm_start``; those prob does not pick are dropped.  When
    the warm start violates exactly one row, they turn phase 1 into a repair
    that relaxes that row alone and starts from the given rows still tight,
    and the main loop starts from the repair's final rows among them, plus
    the violated row unless they span it.  When it violates no row, the main
    loop starts from the given rows tight there instead of a rank scan.  When
    it violates two or more, ``warm_active`` is ignored.
    ``reduced = (red, rows)`` skips the reduction: ``red`` is
    :func:`reduce_qp` of a program with prob's Q, c, A and b whose rows
    ``rows`` (any h) are prob's rows of G, in order, or :func:`reduce_rows`
    of such rows and prob's A and b, whose objective part prob's Q and c
    then fill in here (after the PSD check).  Without it, prob is reduced
    here.  Unbounded problems are reported with a certifying ray,
    never silently clamped.  The iteration cap is ``50 (n + m) + 50`` for n
    free variables after the equalities are eliminated and m non-constant
    rows; a solve that hits it returns its last iterate with status
    ``iteration_limit``.  An optimum whose KKT residual exceeds 1e-7 when Q
    is nonzero triggers one ridge-regularized retry (Q + 1e-12 I, flagged as
    ``ridge_applied``), kept when it solves with a smaller residual.
    """
    return _solve_qp_inner(prob, warm_start, ridge=False, warm_active=warm_active,
                           reduced=reduced)


def _solve_qp_inner(prob, warm_start, ridge, warm_active=None, reduced=None):
    n = prob.n

    def failed(status="infeasible"):
        return QpSolution(z=np.full(n, np.nan), value=np.nan, status=status, ridge_applied=ridge)

    red, rows = reduced or (reduce_qp(prob, ridge), np.arange(prob.G.shape[0]))
    if red is None:
        return failed()
    Qu, cu = red.Qu, red.cu
    if Qu is None:  # only the rows were reduced
        _check_psd(prob.Q)
        Qu, cu = red.objective(prob.Q, prob.c)
    nu = red.nu

    hu = prob.h - red.Gz0[rows]
    # constant rows (zeroed by the reduction) are feasibility checks only
    norms = red.norms[rows]
    zero = norms <= 1e-13 * max(1.0, float(red.big[rows].max(initial=0.0)))
    if np.any(hu[zero] < -EPS_FEAS * np.maximum(1.0, np.abs(hu[zero]))):
        return failed()
    keep = np.flatnonzero(~zero)
    Gn = red.Gn[rows[keep]]
    row_norms = norms[keep]
    hn = hu[keep] / row_norms
    cap = 50 * (nu + Gn.shape[0]) + 50
    if warm_active is not None:  # rows of red, as positions among the kept rows
        act, pos = np.asarray(warm_active, dtype=int), np.full(red.Gn.shape[0], -1)
        bad = act[(act < 0) | (act >= pos.size)]
        if bad.size:
            raise ValueError(f"warm_active rows {bad.tolist()} are not rows of the reduction")
        pos[rows[keep]] = np.arange(keep.size)
        act = pos[act]
        act = act[act >= 0]

    if nu == 0:
        z = red.z0
        viol = float((prob.G @ z - prob.h).max(initial=0.0)) if prob.G.shape[0] else 0.0
        if viol > EPS_FEAS * max(1.0, float(np.abs(prob.h).max(initial=0.0))):
            return failed()
        sol = QpSolution(z=z, value=prob.objective(z), status="optimal", ridge_applied=ridge)
        _attach_kkt(sol, prob, np.zeros(prob.G.shape[0]))
        return sol

    # starting point
    u_start = start = repair = None
    u_seed = np.zeros(nu)
    if warm_start is not None:
        uw = red.to_u(np.asarray(warm_start, dtype=float).ravel())
        over = np.flatnonzero(Gn @ uw - hn > 1e-9) if Gn.shape[0] else []
        if not len(over):
            u_start = uw
            if warm_active is not None:
                start = _tight(Gn, hn, uw, act)
        else:
            u_seed = uw
            if len(over) == 1 and warm_active is not None:
                repair = (int(over[0]), act[act != over[0]],
                          tuple(a[rows[keep]] for a in red.lifted))
    if u_start is None:
        if Gn.shape[0]:
            u_start, st, start = _phase_one(Gn, hn, u_seed, cap, repair)
            if u_start is None:
                return failed(st)
        else:
            u_start = u_seed

    u, status, work, lam_w, iters, ray_u = _active_set_core(
        Qu, cu, Gn, hn, u_start, cap, start, None if repair is None else repair[0])
    z = red.z0 + red.times_n(u)

    if status == "unbounded":
        return QpSolution(z=z, value=-np.inf, status="unbounded", n_iterations=iters,
                          ridge_applied=ridge, ray=red.times_n(ray_u))

    # multipliers back in original row indexing/scaling; negative ones clip
    # to +0.0 but -0.0 stays, as Python's max(lam, 0.0) would leave it
    lam_full = np.zeros(prob.G.shape[0])
    lam_full[keep[work]] = np.where(lam_w < 0.0, 0.0, lam_w) / row_norms[work]
    sol = QpSolution(z=z, value=prob.objective(z), status=status,
                     active_set=[int(keep[wi]) for wi in work],
                     n_iterations=iters, ridge_applied=ridge)
    _attach_kkt(sol, prob, lam_full)
    if (sol.status == "optimal" and not ridge and np.any(prob.Q)
            and sol.kkt_residual > 1e-7):
        retry = _solve_qp_inner(prob, z, ridge=True)
        retry.ridge_applied = True
        retry.n_iterations += iters
        if retry.status == "optimal" and retry.kkt_residual < sol.kkt_residual:
            return retry
    return sol


def _attach_kkt(sol: QpSolution, prob: QpProblem, lam: np.ndarray) -> None:
    z = sol.z
    grad = prob.Q @ z + prob.c + (prob.G.T @ lam if prob.G.shape[0] else 0.0)
    if prob.A.shape[0]:
        nu_mult, *_ = np.linalg.lstsq(prob.A.T, -grad, rcond=None)
        grad = grad + prob.A.T @ nu_mult
    else:
        nu_mult = np.zeros(0)
    r_stat = float(np.abs(grad).max(initial=0.0))
    r_feas = 0.0
    r_comp = 0.0
    if prob.G.shape[0]:
        slack = prob.h - prob.G @ z
        r_feas = max(r_feas, float((-slack).max(initial=0.0)))
        r_comp = float(np.abs(lam * slack).max(initial=0.0))
    if prob.A.shape[0]:
        r_feas = max(r_feas, float(np.abs(prob.A @ z - prob.b).max(initial=0.0)))
    scale = max(1.0, float(np.abs(prob.c).max(initial=0.0)),
                float(np.abs(prob.Q).max(initial=0.0)) * max(1.0, float(np.abs(z).max(initial=0.0))))
    sol.kkt_residual = max(r_stat / scale, r_feas, r_comp / scale)
    sol.ineq_multipliers = lam
    sol.eq_multipliers = nu_mult


def find_feasible_point(G: np.ndarray, h: np.ndarray,
                        A: np.ndarray | None = None,
                        b: np.ndarray | None = None) -> tuple[bool, np.ndarray | None]:
    """Feasibility LP for {G z <= h, A z = b}: (found, witness)."""
    G = np.asarray(G, dtype=float)
    prob = QpProblem(Q=None, c=np.zeros(G.shape[1]), G=G, h=h, A=A, b=b)
    sol = solve_qp(prob)
    if sol.status == "optimal":
        return True, sol.z
    return False, None
