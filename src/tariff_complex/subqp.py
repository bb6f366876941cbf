"""In-house convex subproblem solvers.

Two entry points:

* :func:`project_simplex` - Euclidean projection onto the probability simplex
  by the sort-then-threshold scheme, O(n log n).
* :func:`solve_qp` - primal active-set method for convex QPs (LPs when Q = 0)
  over general polytopes ``{z : G z <= h, A z = b}``.

The active-set method eliminates equalities through a null-space
parametrization (an SVD, once per solve, since ``A`` may be rank-deficient),
finds a starting point with a phase-1 LP, and then iterates
equality-constrained steps.  The starting working set is an independent
subset of the rows tight there, picked greedily by index with an incremental
(twice Gram-Schmidt) rank test, and is factorized by a Householder QR of its
rows' transpose: the trailing columns of the orthogonal factor span the null
space for the step, and the leading block with R gives the multipliers
(Nocedal & Wright, *Numerical Optimization*, ch. 16).  A row that joins the
working set updates that factor in place by one Householder reflector on its
null-space block (Gill, Golub, Murray & Saunders, Math. Comp. 1974), and R
is formed from the leading block only when the multipliers need it; a row
that leaves (or drifts off its bound) triggers a fresh QR, so at most n
updates build up.  Rows in the working set's span never join it, so the
working rows stay independent and the unpivoted QR needs no rank decision:
the ratio test considers only rows whose rate along the step exceeds
``1e-13 * max(1, |p|_inf)`` (a spanned row's rate is roundoff of order
eps * |p|), and a blocking row that a ``matrix_rank``-style test finds in the
span anyway (spanned with large coefficients, which amplify that roundoff)
is passed over.  LPs (Q = 0)
skip the reduced-Hessian eigendecomposition: the step is the projected
steepest-descent ray or zero.  After a full Newton step that no row blocks,
the iterate minimizes over the working set, so the next iteration goes
straight to the multipliers instead of recomputing a step that is zero up
to roundoff.  Anti-cycling uses lexicographic tie-breaking on constraint
indices, with a Bland-style fallback after repeated degenerate steps.
Everything is deterministic: identical inputs give identical iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import EPS_FEAS, EPS_KKT

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


def _check_psd(Q: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(Q).max(initial=0.0)))
    if not np.allclose(Q, Q.T, atol=1e-8 * scale):
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
    if C.shape[0] == 0:
        return np.eye(n)
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


def _in_span(row: np.ndarray, Y: np.ndarray, Z: np.ndarray, R: np.ndarray | None,
             C: np.ndarray) -> bool:
    """Whether the unit row lies in the span of the working rows C' = Y R.

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
        R = Y.T @ C.T
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


def _active_set_core(Q, c, G, h, x0, max_iter):
    """Inequality-only active-set loop on pre-normalized rows.

    Returns (x, status, working_set, lam_on_working_set, iters, ray).
    The caller guarantees x0 is feasible to ~1e-9.
    """
    m, n = G.shape
    x = np.array(x0, dtype=float)
    qscale = float(np.abs(Q).max(initial=0.0))
    slack0 = h - G @ x if m else np.zeros(0)
    near = np.flatnonzero(slack0 <= 1e-9) if m else np.array([], dtype=int)
    work = _independent_subset(G, near, n)
    work.sort()
    bland = False
    stall = 0
    it = 0
    # after an unblocked full Newton step x minimizes over the working set,
    # so the next iteration goes straight to the multipliers
    full_step = False
    # complete orthogonal factor of the working rows, updated in place when a
    # row joins and refactorized (Qf None) after a removal; R, with C' = Y R,
    # is None after an insertion until the multipliers need it
    Qf = R = None
    while it < max_iter:
        it += 1
        g = Q @ x + c
        if Qf is None:
            Qf, R = _factor_working_set(G[work])
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
            slack_w = h[work] - G[work] @ x
            stale = [i for i, sv in enumerate(slack_w) if sv > 1e-7]
            if stale:
                # a row drifted out of tightness; its manifold is fiction
                for i in reversed(stale):
                    work.pop(i)
                Qf = None
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
                continue
            if R is None:
                R = Y.T @ G[work].T
            lam = np.linalg.solve(R, -(Y.T @ g))
            mult_tol = 1e-10 * max(1.0, float(np.abs(g).max(initial=0.0)))
            neg = [i for i, lv in enumerate(lam) if lv < -mult_tol]
            if not neg:
                return x, "optimal", work, lam, it, None
            if bland:
                drop = min(neg, key=lambda i: work[i])
            else:
                drop = min(neg, key=lambda i: (lam[i], work[i]))
            work.pop(drop)
            Qf = None
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
            if a_block > alpha_target or not _in_span(G[blocker], Y, Z, R, G[work]):
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


def _phase_one(G, h, u0, max_iter):
    """Minimize the single relaxation t of G u - t <= h, t >= 0.

    Returns (feasible_point_or_None, status).  The start (u0, t0) with
    t0 = max violation + 1 is strictly feasible, so no recursion is needed.
    """
    m, n = G.shape
    t0 = max(0.0, float((G @ u0 - h).max(initial=0.0))) + 1.0
    Gp = np.hstack([G, -np.ones((m, 1))])
    Gp = np.vstack([Gp, np.concatenate([np.zeros(n), [-1.0]])])
    hp = np.concatenate([h, [0.0]])
    norms = np.linalg.norm(Gp, axis=1)
    Gp = Gp / norms[:, None]
    hp = hp / norms
    cp = np.zeros(n + 1)
    cp[-1] = 1.0
    x0 = np.concatenate([u0, [t0]])
    x, status, *_ = _active_set_core(np.zeros((n + 1, n + 1)), cp, Gp, hp, x0, max_iter)
    if status not in ("optimal", "iteration_limit"):
        return None, status
    t_star = float(x[-1])
    if t_star > 1e-9 * max(1.0, float(np.abs(h).max(initial=0.0))):
        return None, "infeasible"
    return x[:n], "ok"


def solve_qp(prob: QpProblem, warm_start: np.ndarray | None = None) -> QpSolution:
    """Solve a convex QP/LP.  Deterministic; see module docstring.

    ``warm_start`` is projected onto the equality manifold and used when
    feasible, otherwise it seeds the phase-1 search.  Unbounded problems are
    reported with a certifying ray, never silently clamped.  The iteration
    cap is ``50 (n + m) + 50`` for n free variables after the equalities are
    eliminated and m non-constant rows.  Hitting it triggers one
    ridge-regularized retry (Q + 1e-12 I, flagged) when Q is nonzero.
    """
    _check_psd(prob.Q)
    return _solve_qp_inner(prob, warm_start, ridge=False)


def _solve_qp_inner(prob, warm_start, ridge):
    n = prob.n
    Q = prob.Q
    if ridge:
        Q = Q + _RIDGE * max(1.0, float(np.abs(Q).max(initial=0.0))) * np.eye(n)

    # eliminate equalities: z = z0 + N u
    if prob.A.shape[0]:
        z0, residual, *_ = np.linalg.lstsq(prob.A, prob.b, rcond=None)
        if float(np.abs(prob.A @ z0 - prob.b).max(initial=0.0)) > EPS_FEAS * max(
            1.0, float(np.abs(prob.b).max(initial=0.0))
        ):
            return QpSolution(z=np.full(n, np.nan), value=np.nan, status="infeasible",
                              ridge_applied=ridge)
        N = _nullspace(prob.A, n)
    else:
        z0 = np.zeros(n)
        N = np.eye(n)
    nu = N.shape[1]

    Gu = prob.G @ N
    hu = prob.h - prob.G @ z0
    # constant rows (zeroed by the reduction) are feasibility checks only
    if Gu.shape[0]:
        norms = np.linalg.norm(Gu, axis=1)
        zero = norms <= 1e-13 * max(1.0, float(np.abs(Gu).max(initial=0.0)), float(np.abs(prob.G).max(initial=0.0)))
        if np.any(hu[zero] < -EPS_FEAS * np.maximum(1.0, np.abs(hu[zero]))):
            return QpSolution(z=np.full(n, np.nan), value=np.nan, status="infeasible",
                              ridge_applied=ridge)
        keep = np.flatnonzero(~zero)
    else:
        keep = np.array([], dtype=int)
    Gn = Gu[keep]
    row_norms = np.linalg.norm(Gn, axis=1) if keep.size else np.zeros(0)
    if keep.size:
        Gn = Gn / row_norms[:, None]
    hn = hu[keep] / row_norms if keep.size else np.zeros(0)

    Qu = N.T @ Q @ N
    cu = N.T @ (prob.c + Q @ z0)
    cap = 50 * (nu + Gn.shape[0]) + 50

    if nu == 0:
        z = z0
        viol = float((prob.G @ z - prob.h).max(initial=0.0)) if prob.G.shape[0] else 0.0
        if viol > EPS_FEAS * max(1.0, float(np.abs(prob.h).max(initial=0.0))):
            return QpSolution(z=np.full(n, np.nan), value=np.nan, status="infeasible",
                              ridge_applied=ridge)
        sol = QpSolution(z=z, value=prob.objective(z), status="optimal", ridge_applied=ridge)
        _attach_kkt(sol, prob, np.zeros(prob.G.shape[0]))
        return sol

    # starting point
    u_start = None
    u_seed = np.zeros(nu)
    if warm_start is not None:
        uw = N.T @ (np.asarray(warm_start, dtype=float).ravel() - z0)
        if not Gn.shape[0] or float((Gn @ uw - hn).max(initial=0.0)) <= 1e-9:
            u_start = uw
        else:
            u_seed = uw
    if u_start is None:
        if Gn.shape[0]:
            u_start, st = _phase_one(Gn, hn, u_seed, cap)
            if u_start is None:
                return QpSolution(z=np.full(n, np.nan), value=np.nan,
                                  status="infeasible" if st == "infeasible" else st,
                                  ridge_applied=ridge)
        else:
            u_start = u_seed

    u, status, work, lam_w, iters, ray_u = _active_set_core(Qu, cu, Gn, hn, u_start, cap)
    z = z0 + N @ u

    if status == "iteration_limit" and not ridge and np.any(prob.Q):
        sol = _solve_qp_inner(prob, z, ridge=True)
        sol.ridge_applied = True
        sol.n_iterations += iters
        return sol

    if status == "unbounded":
        return QpSolution(z=z, value=-np.inf, status="unbounded", n_iterations=iters,
                          ridge_applied=ridge, ray=N @ ray_u)

    # multipliers back in original row indexing/scaling
    lam_full = np.zeros(prob.G.shape[0])
    for i, wi in enumerate(work):
        lam_full[keep[wi]] = max(float(lam_w[i]), 0.0) / row_norms[wi]
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
