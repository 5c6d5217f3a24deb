from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from exactstar.algebra import (
    DomainError,
    Element,
    InfiniteFanError,
    element_from_json,
    element_to_json,
    from_pairs,
    multiply,
)
from exactstar.models import get_model
from exactstar.scalars import GaussianRational

poly = get_model("poly:monomial")

coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def elem(pairs):
    return from_pairs(pairs)


def test_element_container_behavior():
    a = elem([(0, 1), (2, Fraction(1, 2)), (5, 0)])
    assert a.coeff(0) == GaussianRational.of(1)
    assert a.coeff(5).is_zero()
    assert sorted(a.support()) == [0, 2]
    assert not a.is_zero() and Element.zero().is_zero()
    b = a - a
    assert b.is_zero()
    assert (a + Element.zero()) == a
    assert a.scale(2).coeff(2) == GaussianRational.of(1)
    assert a.scale(0).is_zero()


def test_element_eq_and_hash():
    a = elem([(1, Fraction(2, 3))])
    assert poly.involution(a) == a  # real coefficients
    i_scaled = a.scale(GaussianRational.of(0, 1))
    assert i_scaled != a
    assert hash(a) == hash(elem([(1, Fraction(2, 3))]))


@given(coeffs, coeffs, coeffs)
def test_multiply_bilinear(x, y, z):
    a = elem([(0, x), (1, y)])
    b = elem([(1, z)])
    c = elem([(2, 1)])
    lhs = multiply(poly, a + c, b)
    rhs = multiply(poly, a, b) + multiply(poly, c, b)
    assert lhs == rhs
    assert multiply(poly, a.scale(3), b) == multiply(poly, a, b).scale(3)


def test_multiply_monomials():
    a, b = elem([(2, 1)]), elem([(3, Fraction(1, 4))])
    p = multiply(poly, a, b)
    assert p == elem([(5, Fraction(1, 4))])
    assert multiply(poly, poly.unit(), b) == b


def test_json_round_trip():
    a = elem([(0, Fraction(1, 3)), (4, Fraction(-2, 7))])
    data = element_to_json(poly, a)
    assert data["model"] == "poly:monomial"
    assert element_from_json(poly, data) == a


def test_json_rejects_bad_payload():
    with pytest.raises(ValueError):
        element_from_json(poly, {"nope": 1})
    with pytest.raises(ValueError):
        element_from_json(poly, {"model": "laurent:plain", "terms": []})
    with pytest.raises(ValueError):
        element_from_json(poly, {"terms": [{"re": "1"}]})


def test_error_hierarchy():
    assert issubclass(InfiniteFanError, DomainError)
    assert issubclass(DomainError, ValueError)
    with pytest.raises(DomainError):
        get_model("poly:nope")
