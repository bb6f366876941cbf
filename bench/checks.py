"""Correctness checks on job results, run after the timed region.

Each check returns a failure message, or None when the result is correct.
Objectives are recomputed from the returned prices through the public profit
functions (for the deterministic model from the returned prices and
assignment, see :func:`det_choice_error`).  The sweep's profit evaluations
are compared with the vectorized reference responses below, which share no
code with ``tariff_complex.response``.  At enumeration size (S=3, W=2) the
solvers are also held against the exhaustive oracles.
"""

from __future__ import annotations

import numpy as np

import tariff_complex as tc
from tariff_complex.model import EPS_FEAS, EPS_TIE

REL_TOL = 1e-9
SOLVED = ("optimal", "gap_reached", "time_limit")  # node-budget exhaustion reports time_limit


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def det_choice_error(inst: tc.Instance, x: np.ndarray, response) -> str | None:
    """Whether ``response`` puts each segment's mass on one option that
    attains the segment's minimum disutility at x.

    Deterministic optima sit on tie boundaries, which the solver's LPs meet
    to their feasibility tolerance ``EPS_FEAS`` relative to the bills (a few
    1e-6 in absolute terms at bills of 10^3), so ties are judged at that
    scale.
    """
    y = response.ybar
    pick = y.argmax(axis=1)
    if not np.array_equal(y, np.eye(inst.W + 1)[pick]):
        return "det response is not one-hot"
    V = inst.disutilities(x)
    excess = float((V[np.arange(inst.S), pick] - V.min(axis=1)).max())
    tol = EPS_FEAS * max(1.0, float(np.abs(inst.bills(x)).max()))
    if excess > tol:
        return f"a segment buys an option {excess:.3g} above its minimum disutility"
    return None


def _ref_profit(inst: tc.Instance, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum(inst.rho[:, None] * inst.margins(x) * y[:, 1:]))


def ref_quad(inst, x, beta) -> float:
    """Euclidean projection of -(beta/2) V onto the simplex, row by row."""
    p = -(beta / 2.0) * inst.disutilities(x)
    u = -np.sort(-p, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    k = np.arange(1, p.shape[1] + 1)
    support = np.count_nonzero(u - css / k > 0, axis=1)
    theta = css[np.arange(p.shape[0]), support - 1] / support
    y = np.maximum(p - theta[:, None], 0.0)
    return _ref_profit(inst, x, y / y.sum(axis=1, keepdims=True))


def ref_logit(inst, x, beta) -> float:
    a = -beta * inst.disutilities(x)
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return _ref_profit(inst, x, e / e.sum(axis=1, keepdims=True))


def ref_det(inst, x) -> float:
    """All mass on a minimum-disutility option, the seller's best among ties."""
    V = inst.disutilities(x)
    ties = V <= V.min(axis=1, keepdims=True) + EPS_TIE
    gain = np.zeros_like(V)
    gain[:, 1:] = inst.rho[:, None] * inst.margins(x)
    pick = np.argmax(np.where(ties, gain, -np.inf), axis=1)
    y = np.zeros_like(V)
    y[np.arange(V.shape[0]), pick] = 1.0
    return _ref_profit(inst, x, y)


class Checker:
    """Checks results."""

    def __init__(self):
        # det jobs whose objective det_profit, at its default absolute tie
        # tolerance, does not reproduce: a known defect, reported apart
        self.det_default_tie_mismatch: set[str] = set()
        # quad and qspc jobs whose objective the profit at the returned prices
        # reproduces only to the QPs' feasibility tolerance: a known defect
        self.quad_boundary_mismatch: set[str] = set()

    def check(self, job, result) -> str | None:
        if isinstance(result, Exception):
            return f"raised {type(result).__name__}: {result}"
        if job.kind == "eval":
            return self._check_eval(job, result)
        return self._check_solve(job, result)

    def _check_eval(self, job, value) -> str | None:
        p, inst, x = job.params, job.inst, job.params["x"]
        if p["model"] == "det":
            ref = ref_det(inst, x)
        elif p["model"] == "logit":
            ref = ref_logit(inst, x, p["beta"])
        else:
            ref = ref_quad(inst, x, p["beta"])
        if not (np.isfinite(value) and _close(value, ref)):
            return f"{p['model']} profit {value!r} differs from reference {ref!r}"
        return None

    def _check_solve(self, job, rep) -> str | None:
        inst = job.inst
        if job.kind == "qspc":
            if rep.status != "heuristic" or rep.extras.get("timed_out"):
                return f"status {rep.status}, extras {rep.extras}"
        elif rep.status not in SOLVED:
            return f"status {rep.status}"
        if not rep.has_incumbent():
            return "no incumbent"
        if not inst.polytope.contains(rep.x):
            return "prices outside the polytope"
        obj = rep.objective
        if job.kind == "det":
            err = det_choice_error(inst, rep.x, rep.response)
            if err:
                return err
            if not _close(tc.det_profit(inst, rep.x), obj):
                self.det_default_tie_mismatch.add(job.label)
            value = tc.profit(inst, rep.x, rep.response)
        else:
            value = tc.quad_profit(inst, rep.x, job.params["beta"])
            if not _close(value, obj) and _close(value, obj, EPS_FEAS):
                self.quad_boundary_mismatch.add(job.label)
                value = obj
        if not _close(value, obj):
            return f"objective {obj!r} but profit at the returned prices is {value!r}"
        if job.kind == "qspc":
            return None
        tol = REL_TOL * max(1.0, abs(obj))
        if obj > rep.bound + tol:
            return f"objective {obj!r} above bound {rep.bound!r}"
        if (inst.S, inst.W) != (3, 2):
            return None
        if job.kind == "det":
            oracle = tc.det_oracle(inst).value
            if rep.bound < oracle - tol:
                return f"bound {rep.bound!r} below the oracle {oracle!r}"
            if rep.status != "time_limit" and not _close(obj, oracle):
                return f"det objective {obj!r} differs from the oracle {oracle!r}"
            return None
        oracle = tc.quad_oracle(inst, job.params["beta"]).value
        if rep.bound < oracle - tol:
            return f"bound {rep.bound!r} below the oracle {oracle!r}"
        if obj < oracle * (1.0 - rep.gap) - tol:
            return f"objective {obj!r} worse than oracle {oracle!r} at gap {rep.gap!r}"
        return None

