import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from cmfix.affine_weyl import reflect_theta, sigma
from cmfix.fixed_points import enumerate_E
from cmfix.parameters import (
    CyclicCMSurface,
    ParamSet,
    ak_from_theta,
    cyclic_cm_polynomial,
    g4_component_cyclic_params,
    g4_surface_roots,
    smooth_cyclic,
    smooth_g4,
    smooth_gl1n,
    smooth_quiver,
    theta_concat,
    theta_from_ak,
    transport,
    transport_via_theta,
    weyl_on_ak,
)

from oracles import (
    smooth_gl1n_fractions,
    smooth_quiver_fractions,
    theta_from_ak_fractions,
    transport_fractions,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=8)


def paramsets(l):
    return st.tuples(
        rationals, st.lists(rationals, min_size=l - 1, max_size=l - 1)
    ).map(lambda t: ParamSet(l, t[0], tuple(t[1]) + (-sum(t[1], Fraction(0)),)))


def rand_paramset(rng, l, a_nonzero=False):
    ks = [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(l - 1)]
    ks.append(-sum(ks, Fraction(0)))
    a = Fraction(rng.randint(1, 8) if a_nonzero else rng.randint(-8, 8), rng.randint(1, 6))
    return ParamSet(l, a, tuple(ks))


def test_paramset_invariant():
    with pytest.raises(ValueError):
        ParamSet(2, Fraction(1), (Fraction(1), Fraction(1)))
    p = ParamSet(1, Fraction(2), (Fraction(0),))
    assert p.k == (Fraction(0),)


def test_theta_l1():
    p = ParamSet(1, Fraction(5, 3), (Fraction(0),))
    assert theta_from_ak(p) == (Fraction(-5, 3),)


def test_theta_zero():
    p = ParamSet(3, Fraction(0), (Fraction(0),) * 3)
    assert theta_from_ak(p) == (Fraction(0),) * 3


@given(st.integers(1, 6), st.data())
def test_dictionary_round_trip(l, data):
    p = data.draw(paramsets(l))
    th = theta_from_ak(p)
    assert sigma(th) == -p.a
    assert ak_from_theta(th) == p


@given(st.data())
def test_dictionary_other_direction(data):
    th = tuple(data.draw(st.lists(rationals, min_size=4, max_size=4)))
    p = ak_from_theta(th)
    assert sum(p.k) == 0
    assert theta_from_ak(p) == th


def test_ak_from_theta_l2_solves_the_system():
    # theta = (-a + k0 - k1, k1 - k0) with k = (-b, b)
    a, b = Fraction(3, 2), Fraction(5)
    p = ak_from_theta((-a - 2 * b, 2 * b))
    assert p.a == a and p.k == (-b, b)


@given(st.integers(2, 5), st.integers(0, 4), st.data())
def test_weyl_on_ak_conjugates_reflections(l, j, data):
    p = data.draw(paramsets(l))
    assert theta_from_ak(weyl_on_ak(j, p)) == reflect_theta(j, theta_from_ak(p))
    assert weyl_on_ak(j, weyl_on_ak(j, p)) == p
    assert weyl_on_ak(j, p).a == p.a


def test_smooth_quiver_edge_cases():
    assert not smooth_quiver((Fraction(0),) * 3, 2)
    # l=1: the product is empty, condition is sigma != 0
    assert smooth_quiver((Fraction(-2),), 5)
    assert not smooth_quiver((Fraction(0),), 5)
    # n = 0 would pass vacuously: the product over |k| < n is empty
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be >= 1"):
            smooth_quiver((Fraction(-2), Fraction(1)), n)


def test_smooth_gl1n_edge_cases():
    p = ParamSet(2, Fraction(0), (Fraction(1), Fraction(-1)))
    assert not smooth_gl1n(p, 2)
    p1 = ParamSet(1, Fraction(3), (Fraction(0),))
    assert smooth_gl1n(p1, 4)
    # a = 0 is singular at n = 1 too; the k-differences alone are smooth_cyclic
    p2 = ParamSet(2, Fraction(0), (Fraction(1), Fraction(-1)))
    assert smooth_cyclic(p2.k)
    assert not smooth_gl1n(p2, 1)
    # n = 0 would pass vacuously: the product over 0 <= r < n is empty
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be >= 1"):
            smooth_gl1n(p1, n)


def _spread_paramset(rng, l):
    # differences k_i - k_j that are often small multiples of a, sometimes
    # off by one large-prime part; recentring keeps every difference
    a = Fraction(rng.choice((-1, 1)) * rng.randint(0, 9), rng.choice((1, 2, 6, 1000003)))
    ks = [rng.randint(-7, 7) * a + rng.choice((0, 0, 0, Fraction(1, 1000033))) for _ in range(l)]
    mean = sum(ks, Fraction(0)) / l
    return ParamSet(l, a, tuple(x - mean for x in ks))


def _text(x):
    return f"{x.numerator}/{x.denominator}"


def test_integer_predicates_equal_the_fraction_products():
    rng = random.Random(20)
    seen = set()
    for l in range(1, 6):
        for n in range(1, 7):
            for _ in range(40):
                p = _spread_paramset(rng, l)
                den = lcm(p.a.denominator, *(x.denominator for x in p.k))
                want = smooth_gl1n_fractions(p, n)
                seen.add(want)
                # the same parameters as Fractions, as "p/q" texts and scaled to ints
                assert smooth_gl1n(p, n) == want, (p, n)
                assert smooth_gl1n(ParamSet(l, _text(p.a), tuple(map(_text, p.k))), n) == want
                assert smooth_gl1n(ParamSet(l, int(den * p.a),
                                            tuple(int(den * x) for x in p.k)), n) == want
                th = theta_from_ak(p)
                want = smooth_quiver_fractions(th, n)
                seen.add(("quiver", want))
                for form in (th, tuple(map(_text, th)), tuple(int(den * t) for t in th),
                             tuple(-t for t in th)):
                    assert smooth_quiver(form, n) == want, (form, n)
    # both verdicts come up on both sides, so the comparison is not vacuous
    assert seen == {True, False, ("quiver", True), ("quiver", False)}


@pytest.mark.parametrize("a", [Fraction(3, 7), Fraction(-3, 7), Fraction(2), Fraction(-5, 1000003)])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_smooth_gl1n_at_the_ends_of_the_range_of_r(a, n):
    # l = 2 with k_0 - k_1 = x: singular iff x = r*a for an integer |r| < n
    def at(x):
        return smooth_gl1n(ParamSet(2, a, (x / 2, -x / 2)), n)

    assert not at(Fraction(0))
    for sign in (1, -1):
        assert not at(sign * (n - 1) * a)
        assert at(sign * n * a)
        assert at(sign * (n - 1) * a + Fraction(1, 1000037))


@pytest.mark.parametrize("s", [Fraction(3, 7), Fraction(-3, 7), Fraction(2), Fraction(-5, 1000003)])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_smooth_quiver_at_the_ends_of_the_range_of_q(s, n):
    # a segment sum of q*sigma is singular iff |q| < n: at l = 2 the one
    # segment is theta_1, at l = 3 the segment theta_1 + theta_2 is checked
    # with theta_1 and theta_2 themselves off every multiple of sigma
    eps = Fraction(1, 1000039)
    for sign in (1, -1):
        for q, smooth in ((sign * (n - 1), False), (sign * n, True)):
            seg = q * s
            assert smooth_quiver((s - seg, seg), n) == smooth, (s, n, q)
            assert smooth_quiver((s - seg, seg / 2 + eps, seg / 2 - eps), n) == smooth, (s, n, q)


def test_smoothness_dictionary_equivalence():
    rng = random.Random(42)
    for (l, n) in ((2, 2), (2, 3), (3, 2)):
        for _ in range(1000):
            p = rand_paramset(rng, l)
            assert smooth_quiver(theta_from_ak(p), n) == smooth_gl1n(p, n)


def test_smooth_cyclic():
    assert not smooth_cyclic((Fraction(0), Fraction(0)))
    assert smooth_cyclic((Fraction(-2), Fraction(2)))
    assert smooth_cyclic((Fraction(1, 2), Fraction(-1, 3), Fraction(-1, 6)))
    with pytest.raises(ValueError):
        smooth_cyclic((Fraction(1), Fraction(1)))


def test_smooth_g4():
    assert not smooth_g4(0, 1, -1)
    assert not smooth_g4(1, 1, -2)
    assert smooth_g4(1, 2, -3)
    with pytest.raises(ValueError):
        smooth_g4(1, 1, 1)


def test_transport_worked_example_l2():
    rng = random.Random(7)
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = ParamSet(2, a, (-b, b))
        out = transport(p, 2, (0, 0, 0, 0))
        assert out.a == 2 * a
        assert out.k == (-b + a / 2, b - a / 2, -b - a / 2, b + a / 2)


def test_transport_worked_example_l1():
    rng = random.Random(8)
    for k in (2, 3, 4):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        p = ParamSet(1, a, (Fraction(0),))
        out = transport(p, k, (0,) * k)
        for i in range(1, k + 1):
            assert out.k[i % k] == a * (Fraction(i) - Fraction(k + 1, 2))
        assert out.a == k * a


@pytest.mark.parametrize("l,n,k", [(1, 2, 2), (1, 3, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2)])
def test_transport_routes_agree_on_index_set(l, n, k):
    rng = random.Random(100 * l + 10 * n + k)
    for d in enumerate_E(k, l, n):
        for _ in range(20):
            p = rand_paramset(rng, l)
            t1 = transport(p, k, d)
            t2 = transport_via_theta(p, k, d)
            assert t1 == t2
            assert sum(t1.k) == 0
            assert t1.a == k * p.a
            assert sorted(t1.k) == sorted(t2.k)


@pytest.mark.parametrize("route", [transport, transport_via_theta])
@pytest.mark.parametrize("k,d", [(0, ()), (-1, (1, 1))])
def test_transport_rejects_k_below_1(route, k, d):
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        route(ParamSet(2, Fraction(1), (Fraction(1), Fraction(-1))), k, d)


@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_integer_forms_equal_the_entrywise_fractions(l, k, data):
    # the dictionary and the transport over one common denominator give the
    # entrywise Fraction values, and every entry is a Fraction
    p = data.draw(paramsets(l))
    d = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=k * l, max_size=k * l)))
    theta, out = theta_from_ak(p), transport(p, k, d)
    assert theta == theta_from_ak_fractions(p) and out == transport_fractions(p, k, d)
    assert all(type(x) is Fraction for x in (*theta_from_ak(p), out.a, *out.k))


def test_transport_is_linear():
    rng = random.Random(13)
    for (l, k) in ((2, 2), (3, 2), (2, 3)):
        m = k * l
        for _ in range(50):
            d = tuple(rng.randint(-2, 3) for _ in range(m))
            p1 = rand_paramset(rng, l)
            p2 = rand_paramset(rng, l)
            psum = ParamSet(l, p1.a + p2.a, tuple(x + y for x, y in zip(p1.k, p2.k)))
            t1, t2, ts = transport(p1, k, d), transport(p2, k, d), transport(psum, k, d)
            assert ts.a == t1.a + t2.a
            assert ts.k == tuple(x + y for x, y in zip(t1.k, t2.k))
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            pc = ParamSet(l, c * p1.a, tuple(c * x for x in p1.k))
            tc = transport(pc, k, d)
            assert tc.a == c * t1.a and tc.k == tuple(c * x for x in t1.k)


def test_theta_concat():
    th = (Fraction(1), Fraction(2))
    assert theta_concat(th, 3) == (1, 2, 1, 2, 1, 2)
    assert sigma(theta_concat(th, 3)) == 3 * sigma(th)


def test_cyclic_surface():
    s = cyclic_cm_polynomial((Fraction(-2), Fraction(2)))
    assert s.l == 2 and s.root_multiset() == (Fraction(-4), Fraction(4))
    # (e+4)(e-4) = e^2 - 16
    assert s.polynomial_coeffs() == (Fraction(-16), Fraction(0), Fraction(1))
    assert sum(s.roots) == 0


def test_g4_surface_matching():
    rng = random.Random(21)
    for _ in range(100):
        k0 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        k1 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        k2 = -k0 - k1
        s4 = cyclic_cm_polynomial(g4_component_cyclic_params(4, k0, k1, k2))
        assert s4.root_multiset() == g4_surface_roots(4, k0, k1, k2)
        s6 = cyclic_cm_polynomial(g4_component_cyclic_params(6, k0, k1, k2))
        assert s6.root_multiset() == g4_surface_roots(6, k0, k1, k2)
        # polynomial-level comparison, not only root multisets
        ref4 = CyclicCMSurface(4, g4_surface_roots(4, k0, k1, k2))
        assert s4.polynomial_coeffs() == ref4.polynomial_coeffs()
