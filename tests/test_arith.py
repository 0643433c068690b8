from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmfix.arith import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    embed,
    zeta,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def cyclos(order):
    deg = len(CyclotomicNumber.zero(order).coeffs)
    return st.lists(rationals, min_size=deg, max_size=deg).map(
        lambda cs: CyclotomicNumber(order, cs)
    )


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_roots_of_unity():
    z3 = zeta(3)
    assert z3 * zeta(3, 2) == 1
    assert 1 + z3 + z3 * z3 == 0
    assert zeta(4) * zeta(4) == -1
    for m in (2, 3, 4, 5, 6, 8, 12):
        s = CyclotomicNumber.zero(m)
        for j in range(m):
            s = s + zeta(m, j)
        assert s == 0


def test_embed_examples():
    assert embed(zeta(2), 4) == zeta(4, 2)
    assert embed(zeta(2), 4) == -1
    for m in (2, 3, 5, 12):
        assert embed(CyclotomicNumber.one(1), m) == 1
    e = embed(zeta(3), 6)
    assert e == zeta(6, 2)
    assert e * e * e == 1


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        zeta(3) * zeta(4)
    with pytest.raises(ValueError):
        zeta(3) * CyclotomicNumber.one(4)  # a rational operand is still checked
    with pytest.raises(ValueError):
        zeta(3) == zeta(6)
    with pytest.raises(ValueError):
        embed(zeta(4), 6)


def test_rational_values_of_different_orders_compare_by_value():
    # equal values hash alike, so rational values of different orders are equal
    # as they are to the int; a non-rational operand of another order still raises
    assert zeta(4, 2) == zeta(2, 1) == CyclotomicNumber.from_rational(6, -1) == -1
    assert hash(zeta(4, 2)) == hash(zeta(2, 1)) == hash(-1)
    assert {zeta(4, 2), zeta(2, 1)} == {-1}
    assert len({zeta(4, 2), zeta(2, 1), zeta(6, 3), -1, Fraction(-1)}) == 1
    assert CyclotomicNumber.one(3) != CyclotomicNumber.from_rational(5, 2)
    assert len({zeta(4), zeta(3), zeta(4, 2), zeta(2)}) == 3
    with pytest.raises(ValueError):
        zeta(4) == CyclotomicNumber.one(2)
    with pytest.raises(ValueError):
        CyclotomicNumber.one(2) == zeta(4)


@given(a=cyclos(12), b=cyclos(12), c=cyclos(12))
def test_field_axioms_order_12(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if not a.is_zero():
        assert a * a.inverse() == 1


@pytest.mark.parametrize("m", range(1, 25))
@settings(max_examples=10, deadline=None)  # the norm costs phi(m) - 1 products
@given(data=st.data())
def test_inverse_every_order(m, data):
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(m).inverse()
    a = data.draw(cyclos(m))
    if not a.is_zero():
        assert a * a.inverse() == 1


def test_rational_operand_multiplies_as_a_scalar():
    # against the full product: c + z and z are not rational
    x, z = zeta(12) + 3 * zeta(12, 5), zeta(12, 7)
    for r in (0, 1, -1, Fraction(-7, 3)):
        c = CyclotomicNumber.from_rational(12, r)
        assert x * c == c * x == x * (c + z) - x * z == x * r
        assert (c * c).to_rational() == r * r


@given(a=cyclos(5), b=cyclos(5))
def test_field_axioms_prime_order(a, b):
    assert a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


@given(a=cyclos(3), b=cyclos(3))
def test_embed_is_multiplicative_and_injective(a, b):
    for m in (6, 12):
        assert embed(a * b, m) == embed(a, m) * embed(b, m)
        assert embed(a + b, m) == embed(a, m) + embed(b, m)
        if a != b:
            assert embed(a, m) != embed(b, m)


@given(a=cyclos(8))
def test_conjugation_involution(a):
    assert a.conjugate().conjugate() == a
    prod = a * a.conjugate()
    # a * conj(a) is fixed by conjugation (it is real)
    assert prod.conjugate() == prod


def test_zeta_is_repeated_product():
    # exponents >= phi(m) are reduced modulo the cyclotomic polynomial
    for m in range(1, 25):
        z = zeta(m)
        for e in range(-m, 2 * m):
            p = CyclotomicNumber.one(m)
            for _ in range(e % m):
                p = p * z
            assert zeta(m, e) == p


@given(a=cyclos(12), j=st.sampled_from((1, 5, 7, 11)))
def test_galois_inverse_is_identity(a, j):
    j_inv = pow(j, -1, 12)
    assert a.galois(j).galois(j_inv) == a


@given(a=cyclos(3))
def test_embed_composes(a):
    assert embed(embed(a, 6), 12) == embed(a, 12)


def test_galois_requires_unit():
    with pytest.raises(ValueError):
        zeta(6).galois(2)


def test_canonical_form_is_reduced():
    # zeta_3^2 has coefficients (-1, -1) in the power basis mod 1 + x + x^2
    assert zeta(3, 2).coeffs == (Fraction(-1), Fraction(-1))
    assert zeta(4, 3).coeffs == (Fraction(0), Fraction(-1))


def test_repr_lists_the_nonzero_power_basis_terms():
    assert repr(CyclotomicNumber(5, [Fraction(1, 2), 1, 0, -3])) == "1/2 + z5 + -3*z5^3"
    assert repr(CyclotomicNumber(6, [0, 1])) == "z6"
    assert repr(CyclotomicNumber.zero(5)) == "0"
