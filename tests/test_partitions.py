from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cmfix.partitions import (
    _tuples,
    beta_flat_k_gamma,
    check_core_tuple,
    core,
    core_and_quotient,
    core_fibres,
    core_multi,
    enumerate_core_tuples,
    enumerate_multipartitions,
    flip,
    from_core_and_quotient,
    is_l_core,
    msize,
    partition,
    partitions_of,
    partitions_upto,
    quotient,
    residue_to_core,
    residues,
    residues_infinite,
    size,
)
from oracles import (
    beta_flat_k_gamma_inverse,
    beta_unreversed,
    conjugate_multi,
    core_oracle,
    is_core_oracle,
)

parts_st = st.lists(st.integers(1, 5), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
moduli_st = st.integers(1, 4)


def all_partitions_upto(n):
    for s in range(n + 1):
        yield from partitions_of(s)


def test_partition_canonicalization():
    assert partition([3, 2, 0, 1, 0]) == (3, 2, 1)
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([-1])


def test_check_core_tuple_rejects_a_bad_k_or_component_count():
    with pytest.raises(ValueError, match="k must be >= 1"):
        check_core_tuple(((), ()), 0, 2, 2)
    with pytest.raises(ValueError, match="gamma must have 2 components"):
        check_core_tuple(((),), 2, 2, 2)
    assert check_core_tuple(((), ()), 2, 2, 2) == 1


def test_residues_paper_example():
    assert residues((4, 2, 1), 3) == (3, 2, 2)
    assert residues((), 5) == (0, 0, 0, 0, 0)
    assert residues((1,), 2) == (1, 0)


@given(parts_st, moduli_st)
def test_residues_sum_to_size(lam, l):
    assert sum(residues(lam, l)) == sum(lam)
    inf = residues_infinite(lam)
    assert sum(inf.values()) == sum(lam)
    folded = [0] * l
    for t, c in inf.items():
        folded[t % l] += c
    assert tuple(folded) == residues(lam, l)


def test_core_paper_example():
    assert core((4, 2, 1), 3) == ((1,), 2)
    assert not is_l_core((4, 2, 1), 3)
    assert is_l_core((1,), 3)
    assert is_l_core((2, 1), 2)
    assert core((2,), 2) == ((), 1)


def test_core_agrees_with_removal_search():
    for n in range(9):
        for lam in partitions_of(n):
            for l in (2, 3, 4):
                assert core(lam, l) == core_oracle(lam, l)
                assert is_l_core(lam, l) == is_core_oracle(lam, l)


def test_core_fixed_point():
    for nu in [p for p in partitions_upto(8) if is_l_core(p, 3)]:
        assert core(nu, 3) == (nu, 0)


def test_quotient_degenerate_cases():
    assert quotient((2,), 1) == ((2,),)
    assert core((2,), 1) == ((), 2)
    for nu in [p for p in partitions_upto(6) if is_l_core(p, 3)]:
        assert quotient(nu, 3) == ((), (), ())


def test_quotient_of_running_example_by_brute_force():
    # the unique 3-multipartition mu of total size 2 that rebuilds (4,2,1)
    hits = [
        mu
        for mu in enumerate_multipartitions(3, 2)
        if from_core_and_quotient((1,), mu, 3) == (4, 2, 1)
    ]
    assert hits == [quotient((4, 2, 1), 3)]


def test_size_identity_and_round_trip_exhaustive():
    for n in range(13):
        for lam in partitions_of(n):
            for l in (1, 2, 3, 4):
                nu, r = core(lam, l)
                mu = quotient(lam, l)
                assert sum(lam) == l * msize(mu) + sum(nu)
                assert r == msize(mu)
                assert from_core_and_quotient(nu, mu, l) == lam


@given(parts_st, moduli_st)
def test_core_and_quotient_reads_both_and_the_rebuild_checks_its_input(lam, l):
    nu, mu = core_and_quotient(lam, l)
    assert (nu, mu) == (core_oracle(lam, l)[0], quotient(lam, l))
    assert from_core_and_quotient(nu, mu, l) == lam
    with pytest.raises(ValueError, match=f"quotient must have {l} components"):
        from_core_and_quotient(nu, mu + ((),), l)
    if any(mu):  # lam is not an l-core: that error comes before the count error
        for wrong in (mu, mu + ((),)):
            with pytest.raises(ValueError, match=f"is not a {l}-core"):
                from_core_and_quotient(lam, wrong, l)


def test_from_core_and_quotient_rejects_non_core():
    with pytest.raises(ValueError):
        from_core_and_quotient((2,), ((), ()), 2)


def test_from_core_and_quotient_trivial_quotient():
    for nu in [p for p in partitions_upto(7) if is_l_core(p, 4)]:
        assert from_core_and_quotient(nu, ((), (), (), ()), 4) == nu


@given(parts_st, moduli_st)
def test_residues_of_core_congruent_mod_delta(lam, l):
    nu, r = core(lam, l)
    rl = residues(lam, l)
    rn = residues(nu, l)
    assert all(rl[i] - rn[i] == r for i in range(l))


def test_residue_to_core_examples():
    assert residue_to_core((0, 0, 0)) == ((), 0)
    assert residue_to_core((3, 2, 2)) == ((1,), 2)
    assert residue_to_core((1, 1)) == ((), 1)
    assert residue_to_core((-1, -1, -1, -1)) == ((), -1)


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5))
def test_residue_to_core_inverts_the_translation(d):
    d = tuple(d)
    nu, r = residue_to_core(d)
    l = len(d)
    assert is_l_core(nu, l)
    res = residues(nu, l)
    assert tuple(x + r for x in res) == d


@given(parts_st, moduli_st)
def test_residue_to_core_on_actual_residues(lam, l):
    nu, r = residue_to_core(residues(lam, l))
    assert (nu, r) == core(lam, l)


def test_flip():
    assert flip(((1,), (2,))) == ((2,), (1,))
    assert flip(((3, 1),)) == ((3, 1),)
    for mu in enumerate_multipartitions(3, 3):
        assert flip(flip(mu)) == mu


# -- interleaved quotient bijections ---------------------------------------


def test_beta_trivial_cases():
    gamma = ((1,), ())
    assert beta_flat_k_gamma(gamma, 2, gamma) == ((), (), (), ())


def test_beta_core_mismatch_rejected():
    with pytest.raises(ValueError):
        beta_flat_k_gamma(((2,), ()), 2, (((1,)), ()))
    with pytest.raises(ValueError):
        beta_flat_k_gamma(((2,),), 2, ((), ()))


def test_beta_l1_reduces_to_plain_quotient():
    lam = ((6, 3, 1),)
    gamma = (core((6, 3, 1), 2)[0],)
    assert beta_flat_k_gamma(lam, 2, gamma) == tuple(reversed(quotient((6, 3, 1), 2)))


def test_beta_flat_is_flip_conjugate():
    # flat = flip . unreversed . flip on all of P^2[3], k=2
    for lam in enumerate_multipartitions(2, 3):
        gamma = core_multi(lam, 2)
        assert beta_flat_k_gamma(lam, 2, gamma) == flip(beta_unreversed(flip(lam), 2))


BETA_GRID = [(1, 4, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2), (2, 4, 3), (1, 7, 3), (3, 3, 3)]


@pytest.mark.parametrize("l,n,k", BETA_GRID)
def test_beta_flat_slot_order(l, n, k):
    # quotient t of component i fills slot i + (k-1-t)l
    for lam in enumerate_multipartitions(l, n):
        mu = beta_flat_k_gamma(lam, k, core_multi(lam, k))
        for i, c in enumerate(lam):
            assert [mu[i + (k - 1 - t) * l] for t in range(k)] == list(quotient(c, k))


@pytest.mark.parametrize("l,n,k", BETA_GRID)
def test_unreversed_interleaving_is_the_conjugation_conjugate(l, n, k):
    # the k-quotient of lam' is the reversed, conjugated k-quotient of lam, so
    # the unreversed order is conj . beta_flat(., k, gamma') . conj
    for lam in enumerate_multipartitions(l, n):
        lam_c = conjugate_multi(lam)
        flat = beta_flat_k_gamma(lam_c, k, core_multi(lam_c, k))
        assert beta_unreversed(lam, k) == conjugate_multi(flat)


@pytest.mark.parametrize("l,n,k", [(1, 4, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2)])
def test_beta_size_identity_and_inverse(l, n, k):
    for lam in enumerate_multipartitions(l, n):
        gamma = core_multi(lam, k)
        mu = beta_flat_k_gamma(lam, k, gamma)
        assert msize(mu) == (msize(lam) - msize(gamma)) // k
        assert beta_flat_k_gamma_inverse(mu, k, gamma) == lam


@pytest.mark.parametrize("l,n,k", [(2, 3, 2), (3, 2, 2)])
def test_beta_is_bijective_onto_small_multipartitions(l, n, k):
    for gamma in enumerate_core_tuples(k, l, n):
        r = (n - msize(gamma)) // k
        fibre = [
            lam for lam in enumerate_multipartitions(l, n) if core_multi(lam, k) == gamma
        ]
        images = {beta_flat_k_gamma(lam, k, gamma) for lam in fibre}
        assert images == set(enumerate_multipartitions(k * l, r))


# -- enumeration -------------------------------------------------------------


def test_enumeration_counts_and_order():
    assert len(enumerate_multipartitions(1, 3)) == 3
    assert enumerate_multipartitions(2, 2) == [
        ((2,), ()),
        ((1, 1), ()),
        ((1,), (1,)),
        ((), (2,)),
        ((), (1, 1)),
    ]
    assert enumerate_multipartitions(4, 0) == [((), (), (), ())]


def test_enumeration_deterministic():
    assert enumerate_multipartitions(2, 3) == enumerate_multipartitions(2, 3)
    assert enumerate_core_tuples(2, 2, 3) == enumerate_core_tuples(2, 2, 3)


def test_core_tuple_enumeration():
    assert enumerate_core_tuples(2, 1, 2) == [((),)]
    # k > n: every size-<=n partition is a k-core, congruence forces size n
    assert enumerate_core_tuples(3, 2, 2) == enumerate_multipartitions(2, 2)
    assert enumerate_core_tuples(5, 1, 4) == enumerate_multipartitions(1, 4)
    assert enumerate_core_tuples(2, 3, 0) == [((), (), ())]
    for gamma in enumerate_core_tuples(2, 2, 3):
        assert msize(gamma) <= 3 and (3 - msize(gamma)) % 2 == 0
        assert all(is_l_core(c, 2) for c in gamma)


def test_m_core_with_trivial_l_core_iff_quotient_of_cores():
    for lam in all_partitions_upto(12):
        for (l, k) in ((2, 2), (2, 3), (3, 2)):
            if core(lam, l)[0] != ():
                continue
            assert is_l_core(lam, k * l) == all(
                is_l_core(c, k) for c in quotient(lam, l)
            )


@pytest.mark.parametrize("l,n,k", [(1, 4, 2), (2, 3, 2), (3, 4, 3), (4, 0, 2)])
def test_one_generator_gives_the_label_and_the_core_tuple_orders(l, n, k):
    # both orders, defined by sorting: slot by slot, size descending, then
    # the partitions_of order within a size
    def key(tup):
        return [(-size(c), partitions_of(size(c)).index(c)) for c in tup]

    every = list(product(partitions_upto(n), repeat=l))
    labels = sorted((t for t in every if msize(t) == n), key=key)
    cores = sorted((t for t in every if msize(t) <= n and (n - msize(t)) % k == 0
                    and all(is_core_oracle(c, k) for c in t)), key=key)
    parts = [partitions_of(s) for s in range(n + 1)]
    kcores = [[p for p in parts[s] if is_core_oracle(p, k)] for s in range(n + 1)]
    assert list(_tuples(parts, l, n, lambda b: (b,))) == labels == enumerate_multipartitions(l, n)
    assert list(_tuples(kcores, l, n, lambda b: range(b, -1, -k))) == cores \
        == enumerate_core_tuples(k, l, n)


@pytest.mark.parametrize("l,n,k", [(1, 4, 2), (2, 3, 2), (2, 4, 3), (3, 2, 2), (2, 0, 2), (1, 5, 6)])
def test_core_fibres_partition_the_labels_by_core(l, n, k):
    fibres = core_fibres(l, n, k)
    assert list(fibres) == enumerate_core_tuples(k, l, n)
    labels = enumerate_multipartitions(l, n)
    assert sorted(lam for f in fibres.values() for lam in f) == sorted(labels)
    for gamma, fibre in fibres.items():
        assert fibre, gamma  # every core tuple labels a component
        assert list(fibre) == [lam for lam in labels if lam in fibre]  # enumeration order
        assert all(core_multi(lam, k) == gamma for lam in fibre)


# l = 1, k = 1, n = 0 and k > n, then l = 3 and k = 3, where the slot rule
# i + (k-1-t)l is least symmetric
FIBRE_GRID = [(1, 5, 2), (2, 3, 1), (3, 0, 2), (2, 2, 5), (1, 4, 6), (3, 4, 2), (2, 6, 3)]


@pytest.mark.parametrize("l,n,k", FIBRE_GRID)
def test_fibre_map_agrees_with_the_forward_and_inverse_maps(l, n, k):
    for gamma, fibre in core_fibres(l, n, k).items():
        r = (n - msize(gamma)) // k
        for lam, mu in fibre.items():
            assert mu == beta_flat_k_gamma(lam, k, gamma), (gamma, lam)
            assert beta_flat_k_gamma_inverse(mu, k, gamma) == lam, (gamma, mu)
        targets = enumerate_multipartitions(k * l, r)
        assert len(fibre) == len(targets) and set(fibre.values()) == set(targets), gamma


@pytest.mark.parametrize("l,n,k", FIBRE_GRID + [(3, 9, 2)])
def test_core_tuples_match_the_brute_force_filter(l, n, k):
    # the first l components of the (l+1)-multipartitions of n whose last
    # component is one row or empty are the l-tuples of size <= n, each
    # once, in the order that enumerate_core_tuples keeps
    brute = [lam[:-1] for lam in enumerate_multipartitions(l + 1, n) if len(lam[-1]) <= 1]
    brute = [g for g in brute
             if (n - msize(g)) % k == 0 and all(is_core_oracle(c, k) for c in g)]
    assert enumerate_core_tuples(k, l, n) == brute
