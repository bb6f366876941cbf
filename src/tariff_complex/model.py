"""Problem data model: instances, price polytopes, purchase patterns, responses.

An instance describes a seller offering W multi-attribute contracts to S
customer segments.  A price decision is a matrix x of shape (W, H): one price
per contract attribute.  Segment s billed on contract w pays
``theta_sw(x) = <E[s, w], x[w]>`` where E >= 0 holds the per-attribute
consumption.  Option index 0 always denotes the outside option (no purchase);
contract w corresponds to option index w + 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Shared numeric tolerances.
EPS_FEAS = 1e-8     # constraint feasibility
EPS_KKT = 1e-9      # stationarity / complementarity residuals
EPS_ACTIVE = 1e-10  # response support detection
EPS_TIE = 1e-9      # deterministic-model tie detection (default, overridable)

SCHEMA_VERSION = 1


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LinearConstraint:
    """One extra polytope row ``<g, vec(x)> <= h`` over the flattened prices."""

    g: np.ndarray
    h: float

    def __post_init__(self):
        object.__setattr__(self, "g", _readonly(np.atleast_1d(self.g)))
        object.__setattr__(self, "h", float(self.h))


@dataclass(frozen=True)
class PricePolytope:
    """Feasible price set: a box, optionally cut by extra linear rows.

    Prices are (W, H) matrices; linear rows act on the flattened vector with
    coordinate order ``w * H + h``.
    """

    lower: np.ndarray
    upper: np.ndarray
    extra: tuple[LinearConstraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "lower", _readonly(np.atleast_2d(self.lower)))
        object.__setattr__(self, "upper", _readonly(np.atleast_2d(self.upper)))
        object.__setattr__(self, "extra", tuple(self.extra))

    @property
    def shape(self) -> tuple[int, int]:
        return self.lower.shape

    @property
    def dim(self) -> int:
        return int(self.lower.size)

    def midpoint(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """All rows as ``G vec(x) <= h``: box bounds first, then extra rows."""
        n = self.dim
        eye = np.eye(n)
        G = [eye, -eye]
        h = [self.upper.ravel(), -self.lower.ravel()]
        for c in self.extra:
            G.append(c.g.reshape(1, n))
            h.append(np.array([c.h]))
        return np.vstack(G), np.concatenate(h)

    def contains(self, x: np.ndarray, tol: float = EPS_FEAS) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape:
            return False
        v = x.ravel()
        if np.any(x < self.lower - tol) or np.any(x > self.upper + tol):
            return False
        return all(float(c.g @ v) <= c.h + tol for c in self.extra)


@dataclass(frozen=True)
class Instance:
    """Immutable pricing instance.

    Arrays are stored as given (shape checks live in :func:`validate` so that
    malformed data can still be loaded and reported on).  ``E[s, w, h]`` is
    consumption, ``R[s, w]`` the reservation bill, ``C[s, w]`` the cost of
    serving, ``rho[s]`` the segment weight.
    """

    S: int
    W: int
    H: int
    E: np.ndarray
    R: np.ndarray
    C: np.ndarray
    rho: np.ndarray
    polytope: PricePolytope

    def __post_init__(self):
        object.__setattr__(self, "S", int(self.S))
        object.__setattr__(self, "W", int(self.W))
        object.__setattr__(self, "H", int(self.H))
        for name in ("E", "R", "C", "rho"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))

    # -- billing -----------------------------------------------------------

    def bills(self, x: np.ndarray) -> np.ndarray:
        """Bill matrix theta of shape (S, W) at prices x."""
        x = np.asarray(x, dtype=float).reshape(self.W, self.H)
        return np.einsum("swh,wh->sw", self.E, x)

    def disutilities(self, x: np.ndarray) -> np.ndarray:
        """Option-indexed disutility matrix of shape (S, W + 1); column 0 is 0."""
        V = np.zeros((self.S, self.W + 1))
        V[:, 1:] = self.bills(x) - self.R
        return V

    def margins(self, x: np.ndarray) -> np.ndarray:
        """Per-contract profit margins theta - C, shape (S, W)."""
        return self.bills(x) - self.C

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "S": self.S,
            "W": self.W,
            "H": self.H,
            "E": self.E.tolist(),
            "R": self.R.tolist(),
            "C": self.C.tolist(),
            "rho": self.rho.tolist(),
            "price_lower": self.polytope.lower.tolist(),
            "price_upper": self.polytope.upper.tolist(),
            "extra_constraints": [
                {"g": c.g.tolist(), "h": c.h} for c in self.polytope.extra
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, d: dict) -> "Instance":
        missing = REQUIRED_FIELDS - set(d)
        if missing:
            raise InstanceError(f"missing fields: {sorted(missing)}")
        extra = tuple(
            LinearConstraint(np.asarray(c["g"], dtype=float), float(c["h"]))
            for c in d.get("extra_constraints", [])
        )
        poly = PricePolytope(
            np.asarray(d["price_lower"], dtype=float),
            np.asarray(d["price_upper"], dtype=float),
            extra,
        )
        return cls(
            S=int(d["S"]), W=int(d["W"]), H=int(d["H"]),
            E=np.asarray(d["E"], dtype=float),
            R=np.asarray(d["R"], dtype=float),
            C=np.asarray(d["C"], dtype=float),
            rho=np.asarray(d["rho"], dtype=float),
            polytope=poly,
        )

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise InstanceError(f"malformed JSON: {e}") from e
        if not isinstance(d, dict):
            raise InstanceError("instance JSON must be an object")
        return cls.from_json_dict(d)


REQUIRED_FIELDS = {"S", "W", "H", "E", "R", "C", "rho", "price_lower", "price_upper"}


class InstanceError(ValueError):
    """Raised for instances that cannot even be constructed from JSON."""


def validate(inst: Instance, check_polytope: bool = True) -> list[str]:
    """Full structural validation; returns a list of violation messages.

    An empty list means the instance is usable by every solver.  When
    ``check_polytope`` is set, non-emptiness of the price polytope is
    established with one feasibility LP.
    """
    v: list[str] = []
    S, W, H = inst.S, inst.W, inst.H
    if S <= 0 or W <= 0 or H <= 0:
        v.append(f"dimensions must be positive, got S={S} W={W} H={H}")
        return v
    if inst.E.shape != (S, W, H):
        v.append(f"E has shape {inst.E.shape}, expected {(S, W, H)}")
    if inst.R.shape != (S, W):
        v.append(f"R has shape {inst.R.shape}, expected {(S, W)}")
    if inst.C.shape != (S, W):
        v.append(f"C has shape {inst.C.shape}, expected {(S, W)}")
    if inst.rho.shape != (S,):
        v.append(f"rho has shape {inst.rho.shape}, expected {(S,)}")
    if inst.polytope.lower.shape != (W, H):
        v.append(f"price_lower has shape {inst.polytope.lower.shape}, expected {(W, H)}")
    if inst.polytope.upper.shape != (W, H):
        v.append(f"price_upper has shape {inst.polytope.upper.shape}, expected {(W, H)}")
    if v:
        return v

    if not np.all(np.isfinite(inst.E)):
        v.append("E has non-finite entries")
    else:
        bad = np.argwhere(inst.E < 0)
        for s, w, h in bad[:10]:
            v.append(f"E[{s}][{w}][{h}] < 0")
    for name in ("R", "C", "rho"):
        if not np.all(np.isfinite(getattr(inst, name))):
            v.append(f"{name} has non-finite entries")
    if np.all(np.isfinite(inst.rho)) and np.any(inst.rho <= 0):
        for (s,) in np.argwhere(inst.rho <= 0)[:10]:
            v.append(f"rho[{s}] <= 0")
    if not (np.all(np.isfinite(inst.polytope.lower)) and np.all(np.isfinite(inst.polytope.upper))):
        v.append("price bounds must be finite (bounded polytope)")
    elif np.any(inst.polytope.lower > inst.polytope.upper):
        for w, h in np.argwhere(inst.polytope.lower > inst.polytope.upper)[:10]:
            v.append(f"price_lower[{w}][{h}] > price_upper[{w}][{h}]")
    for i, c in enumerate(inst.polytope.extra):
        if c.g.shape != (W * H,):
            v.append(f"extra_constraints[{i}].g has shape {c.g.shape}, expected {(W * H,)}")
        elif not (np.all(np.isfinite(c.g)) and np.isfinite(c.h)):
            v.append(f"extra_constraints[{i}] has non-finite entries")
    if v:
        return v

    if check_polytope and inst.polytope.extra:
        from .subqp import find_feasible_point  # deferred: keep model importable alone

        G, h = inst.polytope.rows()
        ok, _ = find_feasible_point(G, h)
        if not ok:
            v.append("price polytope is empty (box plus extra constraints infeasible)")
    return v


def load_instance(path: str, strict: bool = True) -> Instance:
    """Read an instance from a JSON file; raise InstanceError on violations."""
    with open(path, "r", encoding="utf-8") as fh:
        inst = Instance.from_json(fh.read())
    if strict:
        problems = validate(inst)
        if problems:
            raise InstanceError("; ".join(problems))
    return inst


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def canonical_report(payload: dict) -> str:
    """Versioned JSON with sorted keys: equal payloads give equal bytes."""
    body = {"schema_version": SCHEMA_VERSION}
    body.update(_jsonable(payload))
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class Pattern:
    """Support pattern: binary S x (W+1) matrix, column 0 = no purchase.

    Row s lists which options segment s splits its demand over.  Every row
    must contain at least one active option.
    """

    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A)
        if A.ndim != 2:
            raise ValueError("pattern must be a 2-D matrix")
        if not np.isin(A, (0, 1)).all():
            raise ValueError("pattern entries must be 0 or 1")
        if np.any(A.sum(axis=1) == 0):
            raise ValueError("pattern has an all-zero row (every segment responds)")
        A = A.astype(np.int8, copy=True)
        A.flags.writeable = False
        object.__setattr__(self, "A", A)

    @property
    def S(self) -> int:
        return self.A.shape[0]

    @property
    def n_options(self) -> int:
        return self.A.shape[1]

    def row_sizes(self) -> np.ndarray:
        return self.A.sum(axis=1)

    def is_pure(self) -> bool:
        return bool(np.all(self.A.sum(axis=1) == 1))

    def active(self, s: int) -> np.ndarray:
        return np.flatnonzero(self.A[s])

    def flip(self, s: int, w: int) -> "Pattern":
        """The pattern with option w of segment s toggled.

        Only row s changes, so only its emptiness is checked; the entries
        and the other rows are valid already.
        """
        A = self.A.copy()
        A[s, w] = 1 - A[s, w]
        if not A[s].any():
            raise ValueError("pattern has an all-zero row (every segment responds)")
        A.flags.writeable = False
        out = object.__new__(Pattern)
        object.__setattr__(out, "A", A)
        return out

    def key(self) -> bytes:
        return self.A.tobytes()

    def hash_hex(self) -> str:
        import hashlib

        return hashlib.sha1(self.A.tobytes()).hexdigest()[:12]

    def __eq__(self, other) -> bool:
        return isinstance(other, Pattern) and self.A.shape == other.A.shape and bool(
            np.array_equal(self.A, other.A)
        )

    def __hash__(self) -> int:
        return hash((self.A.shape, self.A.tobytes()))


@dataclass(frozen=True)
class ResponseMatrix:
    """Row-stochastic S x (W+1) demand split; column 0 is the outside option."""

    ybar: np.ndarray

    def __post_init__(self):
        y = np.array(self.ybar, dtype=float, copy=True)
        if y.ndim != 2:
            raise ValueError("response must be a 2-D matrix")
        if np.any(y < -EPS_KKT):
            raise ValueError("response has negative entries")
        if np.any(np.abs(y.sum(axis=1) - 1.0) > EPS_KKT):
            raise ValueError("response rows must sum to 1")
        y.flags.writeable = False
        object.__setattr__(self, "ybar", y)

    @property
    def no_purchase(self) -> np.ndarray:
        return self.ybar[:, 0]

    @property
    def contracts(self) -> np.ndarray:
        """The (S, W) block on actual contracts."""
        return self.ybar[:, 1:]

    def support(self, eps: float = EPS_ACTIVE) -> Pattern:
        return Pattern((self.ybar > eps).astype(np.int8))


def profit(inst: Instance, x: np.ndarray, response: ResponseMatrix | np.ndarray) -> float:
    """Expected profit sum_s rho_s <theta_s - C_s, y_s> for a given demand split."""
    y = response.ybar if isinstance(response, ResponseMatrix) else np.asarray(response, dtype=float)
    return float(np.sum(inst.rho[:, None] * inst.margins(x) * y[:, 1:]))
