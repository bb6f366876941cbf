"""Regularized, logit, and deterministic customer responses."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tariff_complex import (
    Beta,
    Instance,
    PricePolytope,
    QpProblem,
    det_profit,
    det_response_set,
    logit_profit,
    logit_response,
    logit_row,
    penalization_equivalence_check,
    project_simplex,
    qpcc_objective,
    quad_profit,
    quad_response,
    quad_response_row,
    solve_qp,
)
from tariff_complex import response
from tariff_complex.model import EPS_TIE
from conftest import make_instance, tie_instance


def test_closed_form_hand_example():
    # V = (0, 1, 3), beta = 1: threshold c_2 = (2 + 0 + 1)/2 = 1.5, so the
    # third option drops out and y = (beta/2)(c - V)+ = (0.75, 0.25, 0).
    det = quad_response_row(np.array([0.0, 1.0, 3.0]), beta=1.0)
    assert np.allclose(det.ybar, [0.75, 0.25, 0.0], atol=1e-15)
    assert det.tau == 2
    assert det.mu == pytest.approx(1.5, abs=1e-15)
    assert det.lam[2] == pytest.approx(1.5, abs=1e-15)
    assert det.lam[:2] == pytest.approx([0.0, 0.0], abs=1e-15)


def test_row_matches_simplex_projection_and_qp():
    rng = np.random.default_rng(23)
    for _ in range(80):
        n = int(rng.integers(1, 13))
        beta = float(10.0 ** rng.uniform(-2, 2))
        V = np.concatenate([[0.0], rng.uniform(-2.0, 8.0, size=n - 1)]) \
            if n > 1 else np.zeros(1)
        y = quad_response_row(V, beta).ybar
        assert np.max(np.abs(y - project_simplex(-0.5 * beta * V))) <= 1e-12
        # same point from the generic QP  min V.y + (1/beta) <y - 1, y>
        prob = QpProblem(Q=(2.0 / beta) * np.eye(n), c=V - 1.0 / beta,
                         G=-np.eye(n), h=np.zeros(n),
                         A=np.ones((1, n)), b=np.array([1.0]))
        sol = solve_qp(prob)
        assert sol.status == "optimal"
        assert np.max(np.abs(y - sol.z)) <= 1e-9


def test_row_kkt_residual_small():
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        V = rng.uniform(-4.0, 10.0, size=n)
        beta = float(10.0 ** rng.uniform(-2, 2))
        det = quad_response_row(V, beta)
        assert det.kkt_residual(V) <= 1e-9
        assert det.ybar.min() >= 0.0
        assert abs(det.ybar.sum() - 1.0) <= 1e-12


def test_soft_threshold_boundary_is_inclusive():
    for beta in (0.3, 1.0, 7.0):
        gap = 2.0 / beta
        full = quad_response_row(np.array([0.0, gap, gap + 1.0]), beta).ybar
        assert np.array_equal(full, [1.0, 0.0, 0.0])
        near = quad_response_row(np.array([0.0, gap - 1e-6]), beta).ybar
        assert near[1] > 0.0
        assert near[0] > near[1]


def test_ties_share_mass_equally():
    y = quad_response_row(np.array([0.0, 0.0, 5.0]), beta=1.0).ybar
    assert y[0] == pytest.approx(y[1], abs=1e-15)
    assert y[2] == 0.0


def test_full_support_for_small_beta():
    V = np.array([0.0, 0.5, 1.0])
    det = quad_response_row(V, beta=0.01)
    assert det.tau == V.size  # nothing excluded
    assert np.all(det.ybar > 0.0)


def test_quad_response_per_segment_beta():
    rng = np.random.default_rng(31)
    inst = make_instance(rng, S=2, W=2, H=1)
    x = inst.polytope.midpoint()
    beta = Beta(value=1.0, scales=np.array([0.5, 5.0]))
    resp, detail = quad_response(inst, x, beta)
    V = inst.disutilities(x)
    for s, b in enumerate((0.5, 5.0)):
        assert np.allclose(resp.ybar[s], quad_response_row(V[s], b).ybar)
        assert detail.beta[s] == b


def test_logit_row_is_boltzmann():
    V = np.array([0.0, 1.0, 2.5])
    beta = 1.3
    y = logit_row(V, beta)
    ref = np.exp(-beta * V)
    ref /= ref.sum()
    assert np.allclose(y, ref, atol=1e-15)
    assert logit_row(np.array([0.0, 1e4]), 10.0)[1] >= 0.0  # no overflow


def test_det_response_optimistic_ties():
    inst = tie_instance()
    x = np.array([[3.0]])
    ties, resp = det_response_set(inst, x)
    # segment with R = 3 is exactly indifferent and takes the contract
    assert np.array_equal(np.flatnonzero(ties[2]), [0, 1])
    assert resp.ybar[2, 1] == 1.0
    assert resp.ybar[0, 0] == 1.0 and resp.ybar[1, 0] == 1.0  # priced out
    assert resp.ybar[3, 1] == 1.0 and resp.ybar[4, 1] == 1.0
    assert det_profit(inst, x) == pytest.approx(1.8, abs=1e-12)
    assert det_profit(inst, np.array([[3.05]])) == pytest.approx(1.22, abs=1e-12)


def test_qpcc_objective_equals_quad_profit():
    rng = np.random.default_rng(37)
    for _ in range(50):
        inst = make_instance(rng, S=int(rng.integers(1, 4)),
                             W=int(rng.integers(1, 3)), H=int(rng.integers(1, 3)))
        x = rng.uniform(0.0, 4.0, size=(inst.W, inst.H))
        beta = float(10.0 ** rng.uniform(-1.3, 1.7))
        _, detail = quad_response(inst, x, beta)
        assert qpcc_objective(inst, x, beta, detail) == \
            pytest.approx(quad_profit(inst, x, beta), abs=1e-10)


def test_qpcc_objective_rejects_a_split_it_does_not_certify():
    inst = make_instance(np.random.default_rng(39), S=3, W=2, H=1)
    x = inst.polytope.midpoint()
    scaled = Beta(0.7, np.array([1.0, 2.0, 0.5]))
    _, detail = quad_response(inst, x, scaled)
    assert qpcc_objective(inst, x, scaled, detail) == \
        pytest.approx(quad_profit(inst, x, scaled), abs=1e-10)
    with pytest.raises(ValueError, match="stale"):
        qpcc_objective(inst, x + 0.5, scaled, detail)
    with pytest.raises(ValueError, match="beta"):
        qpcc_objective(inst, x, 0.7, detail)  # same value, without the scales
    with pytest.raises(ValueError, match="row 2"):
        qpcc_objective(inst, x, Beta(0.7, np.array([1.0, 2.0, 0.6])), detail)
    _, plain = quad_response(inst, x, 0.7)
    with pytest.raises(ValueError, match="beta"):
        qpcc_objective(inst, x, 1.4, plain)


def test_penalization_equivalence_randomized():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        V = rng.uniform(-3.0, 9.0, size=n)
        beta = float(10.0 ** rng.uniform(-2, 2))
        assert penalization_equivalence_check(V, beta)


def test_limits_recover_det_and_uniform():
    rng = np.random.default_rng(43)
    inst = make_instance(rng, S=3, W=2, H=2)
    x = inst.polytope.midpoint()
    _, det_resp = det_response_set(inst, x)
    big, _ = quad_response(inst, x, 1e9)
    assert np.allclose(big.ybar, det_resp.ybar, atol=1e-6)
    tiny, _ = quad_response(inst, x, 1e-9)
    assert np.allclose(tiny.ybar, 1.0 / (inst.W + 1), atol=1e-6)
    assert logit_profit(inst, x, 1e-9) == pytest.approx(
        quad_profit(inst, x, 1e-9), abs=1e-5)


def test_beta_validation():
    with pytest.raises(ValueError):
        Beta(value=0.0)
    with pytest.raises(ValueError):
        Beta(value=1.0, scales=np.array([1.0, -1.0]))
    assert Beta.coerce(3.0).per_segment(4) == pytest.approx([3.0] * 4)
    with pytest.raises(ValueError):
        Beta(value=1.0, scales=np.ones(3)).per_segment(4)


# ---------------------------------------------------------------------------
# The per-segment loops the batched kernels replaced, kept as the reference.


def _loop_quad_row(V, beta):
    """Reference: the one-row threshold loop.  Returns ybar, lam, order, tau, mu."""
    n = V.size
    order = np.argsort(V, kind="stable")
    Vs = V[order]
    prefix = np.cumsum(Vs)
    tau = n
    c_tau = (2.0 / beta + prefix[-1]) / n
    for j in range(1, n):
        c_j = (2.0 / beta + prefix[j - 1]) / j
        if Vs[j] >= c_j:
            tau = j
            c_tau = c_j
            break
    y_s = np.zeros(n)
    y_s[:tau] = (beta / 2.0) * (c_tau - Vs[:tau])
    y_s = np.maximum(y_s, 0.0)
    y_s /= y_s.sum()
    lam_s = np.zeros(n)
    lam_s[tau:] = Vs[tau:] - c_tau
    y = np.zeros(n)
    lam = np.zeros(n)
    y[order] = y_s
    lam[order] = lam_s
    return y, lam, order, tau, float(c_tau)


def _loop_logit_row(V, beta):
    a = -beta * V
    a = a - a.max()
    e = np.exp(a)
    return e / e.sum()


def _loop_det(inst, x, eps_tie=EPS_TIE):
    """Reference: tie sets and the seller-optimal one-hot, one segment at a time."""
    V = inst.disutilities(x)
    margins = inst.margins(x)
    sets = []
    y = np.zeros((inst.S, inst.W + 1))
    for s in range(inst.S):
        ties = np.flatnonzero(V[s] <= V[s].min() + eps_tie)
        sets.append(ties)
        gain = np.where(ties == 0, 0.0, inst.rho[s] * margins[s, ties - 1])
        y[s, ties[int(np.argmax(gain))]] = 1.0
    return sets, y


def _assert_same_quad(d, ybar, V, b):
    assert np.issubdtype(d.tau.dtype, np.integer) and d.mu.dtype == np.float64
    assert d.tau.shape == d.mu.shape == d.beta.shape == (V.shape[0],)
    for s in range(V.shape[0]):
        y, lam, order, tau, mu = _loop_quad_row(V[s], b[s])
        assert np.array_equal(d.ybar[s], y) and np.array_equal(ybar[s], y)
        assert np.array_equal(d.lam[s], lam)
        assert np.array_equal(d.order[s], order)
        assert d.tau[s] == tau
        assert d.mu[s] == mu
        assert d.beta[s] == b[s]


# Entries are small integers (exact ties, within and across rows) or floats,
# times one power of ten per case.
_entries = st.one_of(st.integers(-4, 4).map(float),
                     st.floats(-10.0, 10.0, allow_nan=False))


@st.composite
def _disutility_rows(draw):
    """(V, b): S rows of n >= 1 options (n = 1 included) and per-row strengths
    spanning 1e-9 to 1e9."""
    S = draw(st.integers(1, 6))
    n = draw(st.integers(1, 7))
    scale = 10.0 ** draw(st.integers(-3, 3))
    V = np.array(draw(st.lists(_entries, min_size=S * n, max_size=S * n))).reshape(S, n) * scale
    b = 10.0 ** np.array(draw(st.lists(st.floats(-9.0, 9.0), min_size=S, max_size=S)))
    return V, b


@settings(max_examples=300, deadline=None)
@given(_disutility_rows())
def test_batched_kernels_match_row_loops(case):
    V, b = case
    ybar, lam, order, tau, mu = response._quad_split(V, b)
    detail = response.QuadResponseDetail(ybar, lam, order, tau, mu, b)
    _assert_same_quad(detail, ybar, V, b)
    logit = response._softmax(V, b)
    for s in range(V.shape[0]):
        ref = _loop_logit_row(V[s], b[s])
        assert np.array_equal(logit[s], ref)
        assert np.array_equal(logit_row(V[s], b[s]), ref)
        row = quad_response_row(V[s], b[s])
        assert np.array_equal(row.ybar, ybar[s]) and np.array_equal(row.lam, lam[s])
        assert np.shape(row.mu) == () and row.mu == mu[s] and row.tau == tau[s]


def _ints(draw, lo, hi, k):
    return np.array(draw(st.lists(st.integers(lo, hi), min_size=k, max_size=k)), dtype=float)


@st.composite
def _integer_instances(draw):
    """One-attribute instance with unit consumption and integer bills, costs
    and reservations, so disutilities tie exactly and tied options often
    share a margin (a zero margin ties with no purchase); per-segment Beta
    scales."""
    S = draw(st.integers(1, 6))
    W = draw(st.integers(1, 4))
    inst = Instance(S=S, W=W, H=1, E=np.ones((S, W, 1)),
                    R=_ints(draw, 0, 4, S * W).reshape(S, W),
                    C=_ints(draw, 0, 4, S * W).reshape(S, W), rho=_ints(draw, 1, 3, S),
                    polytope=PricePolytope(lower=np.zeros((W, 1)), upper=np.full((W, 1), 4.0)))
    x = _ints(draw, 0, 4, W).reshape(W, 1)
    value = 10.0 ** draw(st.floats(-9.0, 9.0))
    scales = 10.0 ** _ints(draw, -2, 2, S) if draw(st.booleans()) else None
    return inst, x, Beta(value, scales)


@settings(max_examples=300, deadline=None)
@given(_integer_instances())
def test_batched_responses_match_segment_loops(case):
    inst, x, beta = case
    V = inst.disutilities(x)
    b = beta.per_segment(inst.S)
    resp, detail = quad_response(inst, x, beta)
    _assert_same_quad(detail, resp.ybar, V, b)
    ref = np.array([_loop_logit_row(V[s], b[s]) for s in range(inst.S)])
    assert np.array_equal(logit_response(inst, x, beta).ybar, ref)
    for eps_tie in (EPS_TIE, 1.0):
        ties, det = det_response_set(inst, x, eps_tie)
        ref_sets, ref_y = _loop_det(inst, x, eps_tie)
        assert np.array_equal(det.ybar, ref_y)
        assert ties.dtype == bool and ties.shape == (inst.S, inst.W + 1)
        for s, want in enumerate(ref_sets):
            assert np.array_equal(np.flatnonzero(ties[s]), want)


def test_profits_call_their_response_once(monkeypatch):
    # The benchmark tracer times each layer by wrapping these module globals.
    calls = Counter()
    for name in ("quad_response", "logit_response", "det_response_set"):
        def counted(*args, _fn=getattr(response, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(response, name, counted)
    inst = make_instance(np.random.default_rng(47), S=4, W=2, H=2)
    x = inst.polytope.midpoint()
    for evaluate, name in ((lambda: quad_profit(inst, x, 0.5), "quad_response"),
                           (lambda: logit_profit(inst, x, 0.5), "logit_response"),
                           (lambda: det_profit(inst, x), "det_response_set")):
        calls.clear()
        evaluate()
        assert calls == {name: 1}
