import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cmfix.affine_weyl import (
    bar,
    delta,
    is_plus,
    orbit_normalize,
    pairing,
    quiver_dim,
    reflect_dim,
    reflect_theta,
    sigma,
    translate_theta,
)
from cmfix.partitions import partitions_of, residues

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def dim_st(l):
    return st.lists(st.integers(-6, 6), min_size=l, max_size=l).map(tuple)


def theta_st(l):
    return st.lists(rationals, min_size=l, max_size=l).map(tuple)


def test_reflect_dim_on_delta():
    for l in (2, 3, 4):
        d = delta(l)
        for j in range(1, l):
            assert reflect_dim(j, d) == d
        s0 = reflect_dim(0, d)
        assert s0[0] == 2 and all(s0[i] == 1 for i in range(1, l))


def test_l1_everything_is_identity():
    assert reflect_dim(0, (5,)) == (5,)
    assert reflect_theta(0, (Fraction(3),)) == (Fraction(3),)
    assert bar((7,)) == (0,)


@given(st.integers(0, 4), dim_st(5))
def test_reflect_dim_involution(j, d):
    assert reflect_dim(j, reflect_dim(j, d)) == d


@given(st.integers(0, 3), theta_st(4))
def test_reflect_theta_involution(j, th):
    assert reflect_theta(j, reflect_theta(j, th)) == th


def test_reflect_theta_fixes_zero_coordinate():
    th = (Fraction(0), Fraction(2), Fraction(-1))
    assert reflect_theta(0, th) == th


@given(st.integers(0, 4), st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_reflect_theta_keeps_int_entries(j, th):
    # an int theta and the same theta as Fractions reflect to equal vectors,
    # and the ints stay ints
    out = reflect_theta(j, th)
    assert out == reflect_theta(j, [Fraction(t) for t in th])
    assert all(type(t) is int for t in out)


@given(theta_st(3))
def test_sigma_preserved_by_reflections_l3(th):
    for j in range(3):
        assert sigma(reflect_theta(j, th)) == sigma(th)


@given(theta_st(2))
def test_sigma_preserved_by_reflections_l2(th):
    # both neighbour slots hit the single neighbouring index
    for j in range(2):
        assert sigma(reflect_theta(j, th)) == sigma(th)


def test_pairing_identity_randomized():
    rng = random.Random(20200513)
    for l in (2, 3, 4, 5):
        for _ in range(1000):
            d = tuple(rng.randint(-5, 7) for _ in range(l))
            th = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(l))
            j = rng.randrange(l)
            assert pairing(reflect_dim(j, d), reflect_theta(j, th)) == pairing(
                d, th
            ) - (th[0] if j == 0 else 0)


def test_quiver_dim_examples():
    # m = 1: the Calogero-Moser space of n points has dimension 2n
    assert quiver_dim((5,)) == 10
    # m = 2: the off-diagonal Cartan entries are -2
    assert quiver_dim((2, 1)) == 4 - 2
    assert quiver_dim((1, 1, 1)) == 2 and quiver_dim((0, 0, 0)) == 0
    assert quiver_dim((1, 0, 0)) == 2 - 2


def test_quiver_dim_is_invariant_under_reflections():
    # the reflections s_j, framing term included, fix the dimension
    rng = random.Random(20200513)
    for _ in range(4000):
        m = rng.randint(1, 7)
        d = tuple(rng.randint(-5, 9) for _ in range(m))
        for j in range(m):
            assert quiver_dim(reflect_dim(j, d)) == quiver_dim(d), (j, d)


def test_pairing_basics():
    th = (Fraction(1, 2), Fraction(-1, 3), Fraction(2))
    assert pairing(delta(3), th) == sigma(th)
    assert pairing((0, 0, 0), th) == 0


def test_pairing_is_the_fraction_sum():
    rng = random.Random(20200513)
    for l in (1, 2, 3, 5):
        for _ in range(500):
            d = tuple(rng.randint(-5, 7) for _ in range(l))
            th = tuple(rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))])
                       for _ in range(l))
            got = pairing(d, th)
            assert type(got) is Fraction
            assert got == sum((Fraction(t) * x for x, t in zip(d, th)), Fraction(0))


def test_pairing_rejects_a_modulus_mismatch():
    with pytest.raises(ValueError, match="modulus mismatch: 2 vs 3"):
        pairing((1, 2), (Fraction(1), Fraction(2), Fraction(3)))


def test_braid_relations():
    rng = random.Random(5)
    for l in (3, 4, 5):
        for _ in range(100):
            d = tuple(rng.randint(-5, 5) for _ in range(l))
            th = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(l))
            i = rng.randrange(l)
            j = (i + 1) % l
            for op, x in ((reflect_dim, d), (reflect_theta, th)):
                assert op(i, op(j, op(i, x))) == op(j, op(i, op(j, x)))
            if l >= 4:
                j2 = (i + 2) % l
                for op, x in ((reflect_dim, d), (reflect_theta, th)):
                    assert op(i, op(j2, x)) == op(j2, op(i, x))


def test_bar_examples():
    assert bar((0, 1, 0)) == (-1, 2, -1)
    assert bar((0, 0, 1, 0)) == (0, -1, 2, -1)
    assert bar((0, 1)) == (-2, 2)
    assert bar(delta(2)) == (0, 0)
    assert bar(delta(5)) == (0,) * 5


@given(theta_st(4))
def test_translate_by_zero(th):
    assert translate_theta((0, 0, 0, 0), th) == th


@given(st.lists(st.integers(-4, 4), min_size=3, max_size=3), theta_st(3))
def test_translate_preserves_sigma(alpha, th):
    assert sigma(translate_theta(tuple(alpha), th)) == sigma(th)


@given(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    theta_st(3),
)
def test_translations_compose_additively(a, b, th):
    a, b = tuple(a), tuple(b)
    ab = tuple(x + y for x, y in zip(a, b))
    assert translate_theta(a, translate_theta(b, th)) == translate_theta(ab, th)


def test_translation_matches_reflections_at_l2():
    rng = random.Random(9)
    for _ in range(200):
        th = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2))
        assert translate_theta((0, 1), th) == reflect_theta(0, reflect_theta(1, th))


def test_orbit_normalize_examples():
    assert orbit_normalize((2, 2, 2)) == (2, (0, 0, 0))
    assert orbit_normalize((3, 2, 2))[0] == 2
    n, alpha = orbit_normalize((3, 2, 2))
    assert alpha == (0, -1, -1) and alpha[0] == 0
    # residues of cores normalize to 0
    for nu in [(), (1,), (2,), (1, 1), (3, 1)]:
        for l in (2, 3):
            from cmfix.partitions import is_l_core

            if is_l_core(nu, l):
                assert orbit_normalize(residues(nu, l))[0] == 0


@given(st.lists(st.integers(-5, 6), min_size=2, max_size=4))
def test_orbit_invariant_under_reflections(d):
    d = tuple(d)
    n = orbit_normalize(d)[0]
    for j in range(len(d)):
        assert orbit_normalize(reflect_dim(j, d))[0] == n


def test_is_plus():
    for n in range(7):
        for lam in partitions_of(n):
            for l in (2, 3):
                assert is_plus(residues(lam, l))
    assert not is_plus((-1, -1))
    assert not is_plus((-1, 0, 2))  # negative entry is never a plus vector
    assert is_plus((0, 0, 0))
