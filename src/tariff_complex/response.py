"""Customer response models and induced profits.

Three lower-level behaviours for how a segment splits demand across the
options (no purchase, contract 1, ..., contract W) given its disutility
vector V (V[0] = 0):

* quadratic regularization: the split is the Euclidean projection of
  ``-(beta/2) V`` onto the simplex, computed in closed form with its full
  multiplier set;
* logit: softmax of ``-beta V``;
* deterministic: all mass on a single minimum-disutility option, ties
  resolved in the seller's favor (largest margin, then lowest index).

The regularization strength ``beta`` may carry optional per-segment scale
factors, giving segment s an effective strength ``scales[s] * beta``.

Each rule runs once over the whole (S, W+1) disutility matrix and returns
arrays with one row per segment; the one-row functions ``quad_response_row``
and ``logit_row`` call the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EPS_TIE, Instance, ResponseMatrix, profit
from .subqp import project_simplex


@dataclass(frozen=True)
class Beta:
    """Regularization strength, optionally scaled per segment."""

    value: float
    scales: np.ndarray | None = None

    def __post_init__(self):
        if not (self.value > 0):
            raise ValueError("beta must be positive")
        if self.scales is not None:
            sc = np.asarray(self.scales, dtype=float)
            if np.any(sc <= 0):
                raise ValueError("beta scales must be positive")
            sc = np.array(sc, copy=True)
            sc.flags.writeable = False
            object.__setattr__(self, "scales", sc)

    @classmethod
    def coerce(cls, beta: "Beta | float") -> "Beta":
        return beta if isinstance(beta, Beta) else cls(float(beta))

    def per_segment(self, S: int) -> np.ndarray:
        if self.scales is None:
            return np.full(S, self.value)
        if self.scales.shape != (S,):
            raise ValueError(f"beta scales have shape {self.scales.shape}, expected {(S,)}")
        return self.scales * self.value


@dataclass
class QuadResponseDetail:
    """Regularized split with its KKT certificate: the arrays of :func:`_quad_split`.

    ``ybar``, ``lam`` are option-indexed (last axis W+1).  ``tau`` is the number
    of options receiving positive mass; ``order`` is the stable ascending
    sort of the disutilities that the threshold rule was applied in.  Every
    field has a leading segment axis from :func:`quad_response` and none from
    :func:`quad_response_row`.
    """

    ybar: np.ndarray
    lam: np.ndarray
    order: np.ndarray
    tau: np.ndarray
    mu: np.ndarray
    beta: np.ndarray

    def kkt_residual(self, V: np.ndarray) -> float:
        """Max violation of the optimality system at disutilities V, over all rows."""
        V = np.asarray(V, dtype=float)
        y, lam = self.ybar, self.lam
        mu, beta = np.expand_dims(self.mu, -1), np.expand_dims(self.beta, -1)
        r_stat = np.abs(V + (2.0 / beta) * y - lam - mu).max()
        r_feas = max(np.abs(y.sum(axis=-1) - 1.0).max(), np.maximum(-y, 0.0).max(),
                     np.maximum(-lam, 0.0).max())
        r_comp = np.abs(y * lam).max()
        return float(max(r_stat, r_feas, r_comp))


def _quad_split(V: np.ndarray, b: np.ndarray):
    """Closed-form regularized split of every row of V, row s at strength b[s].

    Sort each row ascending (stable, so ties keep original index order).  With
    prefix thresholds ``c_j = (2/b + sum of the j smallest V) / j``, the
    support size tau is the first j whose next sorted value reaches c_j; if
    none does, every option stays active (tau = n).  Kept options get mass
    ``(b/2)(c_tau - V_w)``; excluded ones get multiplier ``V_w - c_tau``.
    Returns ``(ybar, lam, order, tau, mu)`` with one row or entry per row of V.
    """
    S, n = V.shape
    rows = np.arange(S)
    order = np.argsort(V, axis=1, kind="stable")
    at = (order + n * rows[:, None]).ravel()  # flat positions of the sorted entries
    Vs = V.ravel()[at].reshape(S, n)
    c = (2.0 / b[:, None] + np.cumsum(Vs, axis=1)) / np.arange(1, n + 1)
    # hit[:, j-1]: Vs[j] >= c_j; the closing True column makes tau = n a hit
    hit = np.ones((S, n), dtype=bool)
    hit[:, :-1] = Vs[:, 1:] >= c[:, :-1]
    tau = hit.argmax(axis=1) + 1
    mu = c[rows, tau - 1]
    kept = np.arange(n) < tau[:, None]
    y_s = np.maximum(np.where(kept, (b[:, None] / 2.0) * (mu[:, None] - Vs), 0.0), 0.0)
    y_s /= y_s.sum(axis=1, keepdims=True)
    lam_s = np.where(kept, 0.0, Vs - mu[:, None])
    ybar = np.empty(S * n)
    lam = np.empty(S * n)
    ybar[at] = y_s.ravel()
    lam[at] = lam_s.ravel()
    return ybar.reshape(S, n), lam.reshape(S, n), order, tau, mu


def quad_response_row(V: np.ndarray, beta: float) -> QuadResponseDetail:
    """Closed-form regularized split for one segment (see :func:`_quad_split`)."""
    V = np.asarray(V, dtype=float).reshape(1, -1)
    b = np.array([beta], dtype=float)
    return QuadResponseDetail(*(a[0] for a in _quad_split(V, b)), beta=b[0])


def quad_response(inst: Instance, x: np.ndarray,
                  beta: Beta | float) -> tuple[ResponseMatrix, QuadResponseDetail]:
    """Regularized response of every segment at prices x, with its certificate."""
    b = Beta.coerce(beta).per_segment(inst.S)
    detail = QuadResponseDetail(*_quad_split(inst.disutilities(x), b), beta=b)
    return ResponseMatrix(detail.ybar), detail


def quad_profit(inst: Instance, x: np.ndarray, beta: Beta | float) -> float:
    resp, _ = quad_response(inst, x, beta)
    return profit(inst, x, resp)


def _softmax(V: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise softmax of ``-b[s] V[s]``."""
    a = -b[:, None] * V
    a -= a.max(axis=1, keepdims=True)  # overflow guard, invariant under the normalization
    e = np.exp(a)
    return e / e.sum(axis=1, keepdims=True)


def logit_row(V: np.ndarray, beta: float) -> np.ndarray:
    return _softmax(np.asarray(V, dtype=float).reshape(1, -1),
                    np.array([beta], dtype=float))[0]


def logit_response(inst: Instance, x: np.ndarray, beta: Beta | float) -> ResponseMatrix:
    b = Beta.coerce(beta).per_segment(inst.S)
    return ResponseMatrix(_softmax(inst.disutilities(x), b))


def logit_profit(inst: Instance, x: np.ndarray, beta: Beta | float) -> float:
    return profit(inst, x, logit_response(inst, x, beta))


def det_response_set(inst: Instance, x: np.ndarray,
                     eps_tie: float = EPS_TIE) -> tuple[np.ndarray, ResponseMatrix]:
    """Minimum-disutility option sets and the seller-optimal selection.

    Returns the (S, W+1) boolean mask of tied options (disutility within
    eps_tie of the segment's minimum) plus the one-hot response picking,
    inside each tie set, the option with the largest weighted margin (no
    purchase counts 0), lowest index on exact margin ties.
    """
    V = inst.disutilities(x)
    ties = V <= V.min(axis=1, keepdims=True) + eps_tie
    gain = np.zeros_like(V)
    gain[:, 1:] = inst.rho[:, None] * inst.margins(x)
    best = np.where(ties, gain, -np.inf).argmax(axis=1)  # argmax keeps the first = lowest index
    y = np.zeros_like(V)
    y[np.arange(inst.S), best] = 1.0
    return ties, ResponseMatrix(y)


def det_profit(inst: Instance, x: np.ndarray, eps_tie: float = EPS_TIE) -> float:
    _, resp = det_response_set(inst, x, eps_tie)
    return profit(inst, x, resp)


def qpcc_objective(inst: Instance, x: np.ndarray, beta: Beta | float,
                   detail: QuadResponseDetail) -> float:
    """Profit in multiplier form: sum_s rho_s (mu_s + <R_s - C_s, y_s> - (2/beta_s)|ybar_s|^2).

    Must coincide with :func:`quad_profit`; the identity is what lets the
    complementarity formulation drop the bilinear <theta, y> term.  Raises if
    ``detail`` (from :func:`quad_response`) does not actually certify
    (inst, x, beta), which catches a stale split from another price vector or
    another strength.
    """
    bet = Beta.coerce(beta).per_segment(inst.S)
    off = np.abs(detail.beta - bet) > 1e-12 * np.maximum(1.0, bet)
    if off.any():
        s = int(off.argmax())
        raise ValueError(f"detail row {s} was computed for beta={detail.beta[s]}, expected {bet[s]}")
    res = detail.kkt_residual(inst.disutilities(x))
    if res > 1e-6:
        raise ValueError(f"stale response detail: KKT residual {res:.3e}")
    y = detail.ybar
    per_seg = (detail.mu + ((inst.R - inst.C) * y[:, 1:]).sum(axis=1)
               - (2.0 / bet) * (y * y).sum(axis=1))
    return float(inst.rho @ per_seg)


def penalization_equivalence_check(V: np.ndarray, beta: float, tol: float = 1e-8) -> bool:
    """Check the three equivalent penalizations give one argmin.

    Minimizing ``<V, y> + (1/beta) pen(y)`` over the simplex for
    ``pen = <y - 1, y>``, ``|y - uniform|^2`` and ``|y|^2`` yields the same
    point; each route is solved by completing the square and projecting.
    """
    V = np.asarray(V, dtype=float).ravel()
    n = V.size
    # <y-1, y> = |y|^2 - sum y: the linear part is constant on the simplex
    y1 = project_simplex(-(beta / 2.0) * V + 0.5)
    y2 = project_simplex(np.full(n, 1.0 / n) - (beta / 2.0) * V)
    y3 = project_simplex(-(beta / 2.0) * V)
    return bool(np.abs(y1 - y3).max() <= tol and np.abs(y2 - y3).max() <= tol)
