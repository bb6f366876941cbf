"""Shared instance factories and session-scoped oracle fixtures.

The small-instance set is sized so that full cell enumeration stays cheap;
its oracle values are computed once per session and reused by the solver,
heuristic, and acceptance tests.
"""

import numpy as np
import pytest

from tariff_complex import (
    Instance,
    PricePolytope,
    QpProblem,
    det_oracle,
    quad_oracle,
    solve_qp,
)


def interior_point(system, min_slack=1e-6):
    """Max-slack point of a cell system, or None when it has no interior."""
    G, h = system.G, system.h
    n = G.shape[1]
    Gt = np.hstack([G, np.ones((G.shape[0], 1))])
    Gt = np.vstack([Gt, np.concatenate([np.zeros(n), [1.0]])])  # slack cap
    ht = np.concatenate([h, [10.0]])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    sol = solve_qp(QpProblem(Q=None, c=c, G=Gt, h=ht))
    if sol.status != "optimal" or sol.z[-1] < min_slack:
        return None
    return sol.z[:-1]


def assert_same_solution(a, b):
    """Two QP solutions agree bit for bit in every field a caller reads."""
    assert a.status == b.status
    assert a.z.tobytes() == b.z.tobytes()
    assert np.array([a.value, a.kkt_residual]).tobytes() == \
        np.array([b.value, b.kkt_residual]).tobytes()
    assert a.active_set == b.active_set
    assert a.n_iterations == b.n_iterations
    assert a.ridge_applied == b.ridge_applied
    for x, y in ((a.ineq_multipliers, b.ineq_multipliers), (a.eq_multipliers, b.eq_multipliers)):
        assert (x is None) == (y is None)
        assert x is None or x.tobytes() == y.tobytes()


def make_instance(rng, S, W, H, box_hi=4.0):
    """Generic random instance on the box [0, box_hi]^(W x H)."""
    E = rng.uniform(0.2, 2.0, size=(S, W, H))
    R = rng.uniform(1.0, 6.0, size=(S, W))
    C = rng.uniform(0.0, 1.5, size=(S, W))
    rho = rng.dirichlet(np.ones(S))
    poly = PricePolytope(lower=np.zeros((W, H)), upper=np.full((W, H), float(box_hi)))
    return Instance(S=S, W=W, H=H, E=E, R=R, C=C, rho=rho, polytope=poly)


def line_instance(e=1.0, r=1.5, c=0.0, lo=1.0, hi=2.0, rho=1.0):
    """Single segment, single contract, single attribute."""
    poly = PricePolytope(lower=np.array([[lo]]), upper=np.array([[hi]]))
    return Instance(S=1, W=1, H=1, E=np.array([[[e]]]), R=np.array([[r]]),
                    C=np.array([[c]]), rho=np.array([rho]), polytope=poly)


def tie_instance():
    """Five unit-consumption segments with reservation bills 1..5.

    The deterministic profit x * |{s : s >= x}| / 5 peaks at x = 3 and drops
    by a third just past it, a built-in discontinuity for contrast tests.
    """
    S = 5
    poly = PricePolytope(lower=np.array([[0.5]]), upper=np.array([[5.5]]))
    return Instance(S=S, W=1, H=1, E=np.ones((S, 1, 1)),
                    R=np.arange(1.0, S + 1.0).reshape(S, 1),
                    C=np.zeros((S, 1)), rho=np.full(S, 1.0 / S), polytope=poly)


_TINY_DIMS = [
    (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (3, 1, 1),
    (3, 2, 1), (1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 2),
    (3, 1, 2), (3, 2, 2), (2, 2, 1), (3, 2, 2), (2, 1, 2),
    (3, 2, 1), (1, 2, 2), (2, 2, 2), (3, 1, 1), (3, 2, 2),
]


def tiny_instances():
    """Twenty seeded instances small enough for exhaustive enumeration."""
    out = []
    for i, (S, W, H) in enumerate(_TINY_DIMS):
        rng = np.random.default_rng(1000 + i)
        out.append(make_instance(rng, S, W, H))
    return out


def tiny_betas(n):
    return [float(np.random.default_rng(2000 + i).uniform(0.5, 4.0)) for i in range(n)]


@pytest.fixture(scope="session")
def tiny_set():
    return tiny_instances()


@pytest.fixture(scope="session")
def tiny_beta_list(tiny_set):
    return tiny_betas(len(tiny_set))


@pytest.fixture(scope="session")
def tiny_quad_oracles(tiny_set, tiny_beta_list):
    return [quad_oracle(inst, b) for inst, b in zip(tiny_set, tiny_beta_list)]


@pytest.fixture(scope="session")
def tiny_det_oracles(tiny_set):
    return [det_oracle(inst) for inst in tiny_set]
