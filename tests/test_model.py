"""Instance containers, billing arithmetic, patterns, serialization."""

import json

import numpy as np
import pytest

from tariff_complex import (
    Instance,
    InstanceError,
    LinearConstraint,
    Pattern,
    PricePolytope,
    ResponseMatrix,
    load_instance,
    profit,
    validate,
)
from conftest import make_instance, line_instance


def test_bills_match_loops():
    rng = np.random.default_rng(0)
    inst = make_instance(rng, S=3, W=2, H=3)
    x = rng.uniform(0.0, 4.0, size=(2, 3))
    theta = inst.bills(x)
    for s in range(3):
        for w in range(2):
            assert theta[s, w] == pytest.approx(float(inst.E[s, w] @ x[w]), abs=1e-12)
    V = inst.disutilities(x)
    assert V.shape == (3, 3)
    assert np.all(V[:, 0] == 0.0)
    assert np.allclose(V[:, 1:], theta - inst.R)
    assert np.allclose(inst.margins(x), theta - inst.C)


def test_polytope_midpoint_and_contains():
    lower = np.zeros((2, 2))
    upper = np.full((2, 2), 4.0)
    extra = (LinearConstraint(g=np.array([1.0, -1.0, 0.0, 0.0]), h=0.0),)
    poly = PricePolytope(lower=lower, upper=upper, extra=extra)
    mid = poly.midpoint()
    assert mid.shape == (2, 2)
    assert np.all(mid == 2.0)
    assert poly.contains(mid)
    bad = mid.copy()
    bad[0, 0] = 5.0  # above the box
    assert not poly.contains(bad)
    skew = mid.copy()
    skew[0, 0] = 3.0  # violates x00 <= x01
    assert not poly.contains(skew)
    G, h = poly.rows()
    assert G.shape == (2 * 4 + 1, 4)
    assert np.all(G @ mid.ravel() <= h + 1e-12)


def test_validate_flags_shape_and_sign_errors():
    rng = np.random.default_rng(1)
    inst = make_instance(rng, S=2, W=2, H=1)
    assert validate(inst) == []

    bad_rho = Instance(S=2, W=2, H=1, E=inst.E, R=inst.R, C=inst.C,
                       rho=np.array([0.5, -0.5]), polytope=inst.polytope)
    assert any("rho" in m for m in validate(bad_rho))

    bad_shape = Instance(S=2, W=2, H=1, E=inst.E[:, :1], R=inst.R, C=inst.C,
                         rho=inst.rho, polytope=inst.polytope)
    assert any("E" in m for m in validate(bad_shape))

    poly = PricePolytope(lower=np.ones((2, 1)), upper=np.zeros((2, 1)))
    empty = Instance(S=2, W=2, H=1, E=inst.E, R=inst.R, C=inst.C,
                     rho=inst.rho, polytope=poly)
    assert validate(empty)


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    inst = make_instance(rng, S=3, W=2, H=2)
    text = inst.to_json()
    back = Instance.from_json(text)
    assert back.S == inst.S and back.W == inst.W and back.H == inst.H
    for name in ("E", "R", "C", "rho"):
        assert np.array_equal(getattr(back, name), getattr(inst, name))
    assert np.array_equal(back.polytope.lower, inst.polytope.lower)
    assert back.to_json() == text  # canonical: stable bytes
    assert text.endswith("\n")

    p = tmp_path / "inst.json"
    p.write_text(text)
    loaded = load_instance(str(p))
    assert loaded.to_json() == text


def test_json_round_trip_keeps_extra_constraints(tmp_path):
    poly = PricePolytope(lower=np.zeros((2, 1)), upper=np.full((2, 1), 3.0),
                         extra=(LinearConstraint(g=np.array([1.0, -1.0]), h=0.0),
                                LinearConstraint(g=np.array([-1.0, 1.0]), h=0.0)))
    inst = Instance(S=1, W=2, H=1, E=np.ones((1, 2, 1)), R=np.full((1, 2), 2.0),
                    C=np.zeros((1, 2)), rho=np.ones(1), polytope=poly)
    back = Instance.from_json(inst.to_json())
    assert len(back.polytope.extra) == 2
    assert np.array_equal(back.polytope.extra[0].g, poly.extra[0].g)


def test_load_instance_strict_rejects_bad_data(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"S": 1}')
    with pytest.raises(InstanceError):
        load_instance(str(p))
    q = tmp_path / "mangled.json"
    q.write_text("{not json")
    with pytest.raises(InstanceError):
        load_instance(str(q))


def test_pattern_validation_and_flip():
    A = np.array([[1, 1, 0], [1, 0, 1]])
    pat = Pattern(A)
    assert pat.S == 2 and pat.n_options == 3
    assert not pat.is_pure()
    assert list(pat.active(0)) == [0, 1]
    flipped = pat.flip(0, 1)
    assert flipped.A[0, 1] == 0
    assert flipped.flip(0, 1) == pat  # involution
    assert pat != flipped
    assert pat.hash_hex() != flipped.hash_hex()
    assert len(pat.hash_hex()) == 12
    assert pat.key() == Pattern(A.copy()).key()

    with pytest.raises(ValueError):
        Pattern(np.array([[1, 2]]))
    with pytest.raises(ValueError):
        Pattern(np.array([[0, 0], [1, 0]]))
    with pytest.raises(ValueError):
        Pattern(np.array([1, 0]))


def test_flip_that_empties_a_row_raises():
    # a flip skips the full validation, but not the emptiness of its row
    pat = Pattern(np.array([[0, 1, 0], [1, 0, 1]]))
    with pytest.raises(ValueError, match="all-zero row"):
        pat.flip(0, 1)
    flipped = pat.flip(1, 0)
    assert flipped == Pattern(np.array([[0, 1, 0], [0, 0, 1]]))
    assert flipped.A.dtype == np.int8 and not flipped.A.flags.writeable


def test_response_matrix_support_and_checks():
    y = np.array([[0.25, 0.75, 0.0], [1.0, 0.0, 0.0]])
    resp = ResponseMatrix(y)
    assert np.array_equal(resp.no_purchase, [0.25, 1.0])
    assert resp.contracts.shape == (2, 2)
    sup = resp.support()
    assert np.array_equal(sup.A, [[1, 1, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        ResponseMatrix(np.array([[0.5, 0.6]]))  # row sum over 1
    with pytest.raises(ValueError):
        ResponseMatrix(np.array([[-0.1, 1.1]]))


def test_profit_hand_value():
    inst = line_instance(e=1.0, r=1.5, c=0.25, lo=1.0, hi=2.0, rho=0.8)
    x = np.array([[1.2]])
    resp = ResponseMatrix(np.array([[0.4, 0.6]]))
    # 0.8 * 0.6 * (1.2 - 0.25)
    assert profit(inst, x, resp) == pytest.approx(0.456, abs=1e-12)
    assert profit(inst, x, np.array([[1.0, 0.0]])) == 0.0
