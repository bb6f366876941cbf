"""Model-comparison utilities and sweep drivers.

The regularized and logit responses can be paired so they agree in the
small- and large-rationality limits: evaluate the quadratic model at
``beta' = beta * e / 4`` and the logit model at ``beta``.  Under that pairing
two per-option implications hold for every beta (sorted disutilities,
positions w >= 1):

* a zero quadratic probability forces the logit probability below
  ``gamma_w = (1 + w exp(8/(w e)))^-1`` (always <= 1/9);
* a logit probability below ``eta_w^W = (W + 1 + w (exp(8/e) - 1))^-1``
  forces the quadratic probability to zero.

Sweep helpers produce plain {param, model, beta, value} tables for plotting
profit landscapes along one price coordinate and optimal-value curves as a
function of beta.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .bnb import SolverOptions, solve_quad
from .model import Instance

from .qspc import QspcOptions, qspc
from .response import (Beta, det_profit, logit_profit, logit_row, quad_profit,
                       quad_response_row)


def gamma_bound(w: int) -> float:
    """Logit-mass cap at a sorted position the quadratic response zeroes."""
    if w < 1:
        raise ValueError(f"position must be >= 1, got {w}")
    return 1.0 / (1.0 + w * math.exp(8.0 / (w * math.e)))


def eta_bound(W: int, w: int) -> float:
    """Logit-mass level under which the quadratic response must be zero."""
    if not 1 <= w <= W:
        raise ValueError(f"need 1 <= w <= W, got w={w}, W={W}")
    return 1.0 / (W + 1 + w * (math.exp(8.0 / math.e) - 1.0))


@dataclass
class ComparisonReport:
    """Per-position implication flags for one disutility vector.

    Index 0 is vacuous (the smallest disutility always keeps quadratic
    mass) and is reported True.
    """

    beta: float
    beta_prime: float
    forward_ok: np.ndarray  # quad zero => logit <= gamma_w
    converse_ok: np.ndarray  # logit <= eta^W_w => quad zero
    l1_distance: float
    y_quad: np.ndarray
    y_log: np.ndarray

    @property
    def all_ok(self) -> bool:
        return bool(self.forward_ok.all() and self.converse_ok.all())


def check_metric_estimates(V: np.ndarray, beta: float) -> ComparisonReport:
    """Check both pairing implications on one vector of W+1 disutilities.

    The vector is sorted ascending internally; the quadratic response uses
    ``beta * e / 4`` and the logit response uses ``beta``.
    """
    v = np.sort(np.asarray(V, dtype=float))
    W = v.size - 1
    beta_prime = beta * math.e / 4.0
    y_quad = quad_response_row(v, beta_prime).ybar
    y_log = logit_row(v, beta)
    forward = np.ones(W + 1, dtype=bool)
    converse = np.ones(W + 1, dtype=bool)
    for w in range(1, W + 1):
        if y_quad[w] == 0.0:
            forward[w] = y_log[w] <= gamma_bound(w)
        if y_log[w] <= eta_bound(W, w):
            converse[w] = y_quad[w] == 0.0
    return ComparisonReport(beta=beta, beta_prime=beta_prime, forward_ok=forward,
                            converse_ok=converse,
                            l1_distance=float(np.abs(y_quad - y_log).sum()),
                            y_quad=y_quad, y_log=y_log)


def lipschitz_bound(inst: Instance, beta: Beta | float) -> float:
    """Bound on the regularized-profit change per unit move of one price
    coordinate.

    A single-coordinate step of size t moves one contract's disutility for
    segment s by at most max_w |E_sw|_2 * t; the response moves at most
    beta_s/2 times that (the simplex projection is 1-Lipschitz), weighted
    by margins no larger than their box-corner values.
    """
    bs = Beta.coerce(beta).per_segment(inst.S)
    theta_lo = inst.bills(inst.polytope.lower)
    theta_hi = inst.bills(inst.polytope.upper)
    m_bar = np.maximum(np.abs(theta_lo - inst.C), np.abs(theta_hi - inst.C))
    total = 0.0
    for s in range(inst.S):
        max_e = float(np.linalg.norm(inst.E[s], axis=1).max())
        total += inst.rho[s] * max_e * (1.0 + 0.5 * bs[s] * float(np.linalg.norm(m_bar[s])))
    return total


@dataclass
class SweepTable:
    """Rows of {param, model, beta, value}; beta is inf for deterministic rows."""

    rows: list[dict] = field(default_factory=list)

    COLUMNS = ("param", "model", "beta", "value")

    def add(self, param: float, model: str, beta: float, value: float):
        self.rows.append({"param": float(param), "model": model,
                          "beta": float(beta), "value": float(value)})

    def values(self, model: str, beta: float | None = None) -> np.ndarray:
        sel = [r["value"] for r in self.rows
               if r["model"] == model and (beta is None or r["beta"] == beta)]
        return np.array(sel)

    def nonincreasing(self, model: str, tol: float = 1e-6) -> bool:
        """Empirical flag: values sorted by param never rise by more than tol.

        Used for the optimal-value-vs-beta curve, where the direction is an
        observed regularity, not a theorem.
        """
        rows = sorted((r for r in self.rows if r["model"] == model),
                      key=lambda r: r["param"])
        vals = [r["value"] for r in rows]
        return all(b <= a + tol for a, b in zip(vals, vals[1:]))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self.COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: repr(row[k]) if isinstance(row[k], float) else row[k]
                             for k in self.COLUMNS})
        return buf.getvalue()


def profit_sweep(inst: Instance, axis: tuple[int, int], lo: float, hi: float,
                 n_points: int, betas: list[float],
                 models: tuple[str, ...] = ("det", "logit", "quad"),
                 base_x: np.ndarray | None = None) -> SweepTable:
    """Profit values along one price coordinate, other coordinates fixed.

    ``axis`` is the (contract, attribute) pair to sweep; the swept range
    must fit inside the price box.
    """
    bad = set(models) - {"det", "logit", "quad"}
    if bad:
        raise ValueError(f"unknown models {sorted(bad)}")
    w, h = axis
    if not (0 <= w < inst.W and 0 <= h < inst.H):
        raise ValueError(f"axis {axis} outside the {inst.W} x {inst.H} price grid")
    if not (inst.polytope.lower[w, h] - 1e-12 <= lo <= hi <= inst.polytope.upper[w, h] + 1e-12):
        raise ValueError("sweep range leaves the price box")
    base = inst.polytope.midpoint() if base_x is None else \
        np.asarray(base_x, dtype=float).reshape(inst.W, inst.H)
    table = SweepTable()
    for t in np.linspace(lo, hi, n_points):
        x = base.copy()
        x[w, h] = t
        if "det" in models:
            table.add(t, "det", math.inf, det_profit(inst, x))
        for beta in betas:
            if "logit" in models:
                table.add(t, "logit", beta, logit_profit(inst, x, beta))
            if "quad" in models:
                table.add(t, "quad", beta, quad_profit(inst, x, beta))
    return table


def beta_sweep(inst: Instance, betas: list[float], det_prices: np.ndarray,
               method: str = "qspc", qspc_opts: QspcOptions | None = None,
               solver_opts: SolverOptions | None = None) -> SweepTable:
    """Optimal-value curve over beta, with two companion curves.

    Per beta: the regularized optimum (local search warm-started at the
    deterministic prices, or exact branch and bound), the logit profit at
    that optimizer, and the regularized profit of the fixed deterministic
    prices.  Warm-starting at ``det_prices`` makes the fixed-price curve a
    lower bound of the optimum curve by construction.
    """
    if method not in ("qspc", "bnb"):
        raise ValueError(f"unknown method {method!r}")
    det_x = np.asarray(det_prices, dtype=float).reshape(inst.W, inst.H)
    if not inst.polytope.contains(det_x):
        raise ValueError("det_prices violate the price polytope")
    table = SweepTable()
    for beta in betas:
        fixed_val = quad_profit(inst, det_x, beta)
        if method == "qspc":
            rep = qspc(inst, beta, start=det_x, opts=qspc_opts or QspcOptions())
        else:
            rep = solve_quad(inst, beta, solver_opts or SolverOptions(),
                             warm_incumbent=det_x)
        opt_val = max(rep.objective, fixed_val)
        x_opt = rep.x if rep.objective >= fixed_val else det_x
        table.add(beta, "quad_opt", beta, opt_val)
        table.add(beta, "logit_at_quad_opt", beta, logit_profit(inst, x_opt, beta))
        table.add(beta, "det_prices_quad", beta, fixed_val)
    return table
