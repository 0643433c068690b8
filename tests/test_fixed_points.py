import random
from fractions import Fraction
from itertools import product

import pytest

import cmfix.fixed_points
import cmfix.partitions
from cmfix.affine_weyl import quiver_dim
from cmfix.fixed_points import (
    component_catalog,
    delta_inverse,
    delta_map,
    enumerate_E,
    nesting_check,
)
from cmfix.parameters import ParamSet, smooth_gl1n
from cmfix.partitions import (
    core_fibres,
    core_multi,
    enumerate_core_tuples,
    enumerate_multipartitions,
    flip,
    msize,
    partitions_upto,
)
from oracles import beta_flat_k_gamma_inverse, beta_flat_via_kl_quotient, enumerate_E_direct

GRID = [(1, 2, 2), (1, 3, 2), (1, 4, 2), (1, 4, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]


def generic_params(l, seed=0):
    # distinct k's spread out, small irrational-free a chosen to avoid all
    # resonances k_i - k_j = r*a at the sizes under test
    ks = [Fraction(i + 1, 1) for i in range(l - 1)]
    ks.append(-sum(ks, Fraction(0)))
    return ParamSet(l, Fraction(1, 97), tuple(ks))


@pytest.mark.parametrize("l,n,k", GRID)
def test_enumerate_E_matches_direct_search(l, n, k):
    E = enumerate_E(k, l, n)
    assert len(set(E)) == len(E)
    assert set(E) == enumerate_E_direct(k, l, n)
    m = k * l
    for d in E:
        assert all(0 <= x <= n for x in d)
        for i in range(l):
            assert sum(d[j] for j in range(i, m, l)) == n


def test_enumerate_E_k1():
    for l in (1, 2, 3):
        for n in (0, 1, 3):
            assert enumerate_E(1, l, n) == [(n,) * l]


def test_enumerate_E_examples():
    assert len(enumerate_E(2, 1, 2)) == 1
    assert len(enumerate_E(3, 2, 2)) == len(enumerate_multipartitions(2, 2))


@pytest.mark.parametrize("l,n,k", GRID)
def test_delta_bijection_round_trip(l, n, k):
    E = enumerate_E(k, l, n)
    G = enumerate_core_tuples(k, l, n)
    assert len(E) == len(G)
    seen = set()
    for d, g in zip(E, G):
        gm = delta_map(d, l)
        assert gm == g
        assert gm not in seen
        seen.add(gm)
        assert delta_inverse(gm, k, l, n) == d


def test_delta_map_on_constant_vectors():
    assert delta_map((2, 2, 2, 2), 2) == ((), ())
    assert delta_map((3, 3), 1) == ((),)


def test_delta_map_rejects_bad_input():
    with pytest.raises(ValueError):
        delta_map((1, 0, 0, 0), 2)  # class sums differ
    with pytest.raises(ValueError):
        delta_map((2, 0), 1)  # not a plus vector
    with pytest.raises(ValueError):
        delta_map((1, 1, 1), 2)  # modulus not divisible


def test_delta_inverse_rejects_bad_gamma():
    with pytest.raises(ValueError):
        delta_inverse(((2,), ()), 2, 2, 3)  # (2) is not a 2-core
    with pytest.raises(ValueError):
        delta_inverse(((1,), ()), 2, 2, 2)  # size/congruence violated


@pytest.mark.parametrize("l,n,k", GRID)
def test_counting_law(l, n, k):
    total = 0
    for g in enumerate_core_tuples(k, l, n):
        r = (n - msize(g)) // k
        total += len(enumerate_multipartitions(k * l, r))
    assert total == len(enumerate_multipartitions(l, n))


def test_big_k_components_are_points():
    for (l, n) in ((1, 3), (2, 2), (3, 2)):
        k = n + 1
        for g in enumerate_core_tuples(k, l, n):
            r = (n - msize(g)) // k
            assert r == 0
            assert len(enumerate_multipartitions(k * l, r)) == 1


def test_catalog_simplest_case():
    p = ParamSet(1, Fraction(1), (Fraction(0),))
    cat = component_catalog(1, 2, 2, p)
    assert len(cat) == 1
    c = cat[0]
    assert c.gamma == ((),) and c.r == 1 and c.m == 2
    assert c.c_prime.a == 2
    assert sorted(c.c_prime.k) == [Fraction(-1, 2), Fraction(1, 2)]


def test_catalog_rejects_non_smooth():
    p = ParamSet(1, Fraction(0), (Fraction(0),))
    with pytest.raises(ValueError):
        component_catalog(1, 2, 2, p)


def test_catalog_rejects_parameters_of_another_l():
    with pytest.raises(ValueError, match="parameter set has the wrong l"):
        component_catalog(3, 2, 2, generic_params(2))


@pytest.mark.parametrize("l,n,k", GRID)
def test_catalog_labels_partition_everything(l, n, k):
    p = generic_params(l)
    assert smooth_gl1n(p, n)
    cat = component_catalog(l, n, k, p)
    seen = []
    for c in cat:
        assert c.r == (n - msize(c.gamma)) // k
        assert quiver_dim(c.d) == 2 * c.r
        assert all(core_multi(lam, k) == c.gamma for lam in c.labels)
        # the injection is a bijection onto the label set
        assert len(c.label_injection) == len(c.labels)
        assert set(c.label_injection.values()) == set(c.labels)
        assert set(c.label_injection.keys()) == set(
            enumerate_multipartitions(c.m, c.r)
        )
        for mu, lam in c.label_injection.items():
            assert beta_flat_k_gamma_inverse(mu, k, c.gamma) == lam
        seen.extend(c.labels)
    assert sorted(seen) == sorted(enumerate_multipartitions(l, n))


@pytest.mark.parametrize("l,n,k", GRID)
def test_labels_are_read_off_one_kl_abacus(l, n, k):
    # nu_lam (empty l-core, l-quotient lam) has kl-core nu_gamma, its
    # kl-quotient is the label up to the slot order, and its kl-residues are d
    labels = 0
    for gamma, fibre in core_fibres(l, n, k).items():
        nu_gamma = cmfix.partitions.from_core_and_quotient((), gamma, l)
        d = delta_inverse(gamma, k, l, n)
        for lam, mu in fibre.items():
            assert beta_flat_via_kl_quotient(lam, k, l) == (nu_gamma, mu, d)
            labels += 1
    assert labels == len(enumerate_multipartitions(l, n))


def test_the_catalog_reads_each_partition_once(monkeypatch):
    # counts of abacus passes, not times: the fibres, keys and labels alike,
    # read every partition of size <= n once, where a pass per label
    # component made 9,681 at (3,9,2)
    passes = []
    abacus = cmfix.partitions._runner_data
    monkeypatch.setattr(cmfix.partitions, "_runner_data",
                        lambda lam, l: passes.append(lam) or abacus(lam, l))
    core_fibres(3, 9, 2)
    assert len(passes) == len(partitions_upto(9)) == 97
    passes.clear()
    component_catalog(3, 9, 2, generic_params(3))
    # the fibres, then one read of the empty 3-core per component's d
    assert len(passes) == 97 + len(enumerate_core_tuples(2, 3, 9)) == 123
    passes.clear()
    enumerate_core_tuples(2, 3, 9)
    assert 0 < len(passes) <= len(partitions_upto(9)) == 97


def test_component_dimension_is_2r():
    # the component at d is a quiver variety of Z/mZ with framing Lambda_0, so
    # its dimension is quiver_dim(d); the isomorphism with CM(G(kl,1,r))
    # forces 2r
    components = 0
    for k, l, n in product(range(1, 5), range(1, 5), range(7)):
        for d in enumerate_E(k, l, n):
            r = (n - msize(delta_map(d, l))) // k
            assert quiver_dim(d) == 2 * r, (k, l, n, d)
            components += 1
    assert components == 1898


@pytest.mark.parametrize("l,n,k", [(2, 2, 2), (1, 4, 2), (3, 2, 2)])
def test_transported_parameters_stay_smooth(l, n, k):
    rng = random.Random(97)
    found = 0
    while found < 10:
        ks = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(l - 1)]
        ks.append(-sum(ks, Fraction(0)))
        p = ParamSet(l, Fraction(rng.randint(1, 9), rng.randint(1, 7)), tuple(ks))
        if not smooth_gl1n(p, n):
            continue
        found += 1
        for c in component_catalog(l, n, k, p):
            if c.r >= 1:
                assert smooth_gl1n(c.c_prime, c.r)


def test_nesting_trivial_cases():
    # k1 = k2: nesting is equality
    rep = nesting_check(2, 2, 2, 3)
    assert rep.passed
    # k1 = 1: a single all-empty core tuple absorbs everything
    rep = nesting_check(1, 2, 2, 2)
    assert rep.passed
    assert len(enumerate_core_tuples(1, 2, 2)) == 1


def test_nesting_exhaustive():
    rep = nesting_check(2, 4, 2, 3)
    assert rep.passed
    assert rep.pairs_checked == len(enumerate_core_tuples(2, 2, 3)) * len(
        enumerate_core_tuples(4, 2, 3)
    )


def test_nesting_fails_under_reversed_cores(monkeypatch):
    # the k1-cores with their components reversed are the wrong convention
    assert nesting_check(2, 4, 2, 3).passed
    monkeypatch.setattr(cmfix.fixed_points, "core_multi", lambda lam, k: flip(core_multi(lam, k)))
    rep = nesting_check(2, 4, 2, 3)
    assert not rep.passed and rep.pairs_checked == 40 and len(rep.failures) == 20
    assert rep.failures[0] == {"gamma1": ((1,), ()), "gamma2": ((3,), ()),
                               "contained": True, "core_match": False}


def test_nesting_requires_divisibility():
    with pytest.raises(ValueError):
        nesting_check(2, 3, 1, 2)
