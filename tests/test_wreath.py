import hashlib
import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cmfix.arith import CyclotomicNumber, cyclotomic_polynomial, zeta
from cmfix.linalg import Mat
from cmfix.partitions import (
    beta_flat_k_gamma,
    core_fibres,
    enumerate_core_tuples,
    enumerate_multipartitions,
    label_action,
    msize,
    partitions_upto,
)
from cmfix.wreath import (
    CentralElement,
    central_idempotent,
    centralizer_order,
    character_table,
    character_value,
    char_dimension,
    class_sum,
    codim,
    enumerate_classes,
    filtration_degree,
    from_omega,
    group_order,
    i_gamma_star,
    inverse_class,
    to_omega,
    verify_filtration,
)
from cmfix import wreath
from cmfix.wreath import _Kronecker
from oracles import (
    beta_unreversed,
    brute_table_212,
    char_rec,
    class_cycles,
    conjugate_multi,
    hyperoctahedral2_elements,
    matrix_class_type,
    monomial_class_rep,
    restrict_round_trip,
    restriction_matrix_loop,
    sign,
    sn_character_table,
    verify_filtration_per_gamma,
)

SIZES = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]


# -- classes -----------------------------------------------------------------


def test_class_counts_and_sizes():
    s3 = enumerate_classes(1, 3)
    assert sorted(s for _, s in s3) == [1, 2, 3]
    mu2 = enumerate_classes(2, 1)
    assert [s for _, s in mu2] == [1, 1]
    g22 = enumerate_classes(2, 2)
    assert len(g22) == 5 and sum(s for _, s in g22) == 8


def test_class_sizes_against_brute_force_order8():
    info, _ = brute_table_212()
    brute = {t: s for t, s in info}
    ours = {t: s for t, s in enumerate_classes(2, 2)}
    assert brute == ours


@pytest.mark.parametrize("l,n", SIZES)
def test_class_sizes_sum_to_group_order(l, n):
    assert sum(s for _, s in enumerate_classes(l, n)) == group_order(l, n)


def test_centralizer_identity_class():
    assert centralizer_order(((1, 1, 1), ()), 2) == group_order(2, 3)


def test_inverse_class():
    assert inverse_class(((1,), (2,), ())) == ((1,), (), (2,))
    for t, _ in enumerate_classes(3, 2):
        assert inverse_class(inverse_class(t)) == t


# -- codim --------------------------------------------------------------------


def test_codim_basics():
    assert codim(((1, 1, 1), ()), 3) == 0
    assert codim(((2, 1), ()), 3) == 1
    assert codim(((1, 1), (1,)), 3) == 1
    assert codim(((), (3,)), 3) == 3


@pytest.mark.parametrize("l,n", [(l, n) for l in (1, 2, 3) for n in (0, 1, 2, 3)])
def test_codim_matches_matrix_rank(l, n):
    # codim(C) = n - dim ker(M - I) for a monomial matrix M of class C
    one = CyclotomicNumber.one(l)
    for ctype, _ in enumerate_classes(l, n):
        w = monomial_class_rep(ctype, l)
        fixed = len((w - Mat.scalar(n, one)).nullspace())
        assert codim(ctype, n) == codim(ctype) == n - fixed


# -- character values ----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symmetric_group_characters_match_young_rule(n):
    oracle = sn_character_table(n)
    for lam, row in oracle.items():
        for rho, val in row.items():
            got = character_value((lam,), (rho,), 1)
            assert got == Fraction(val), (lam, rho)


def test_cyclic_group_characters():
    for l in (2, 3, 4, 6):
        for i in range(l):
            lam = tuple((1,) if j == i else () for j in range(l))
            for c in range(l):
                ct = tuple((1,) if j == c else () for j in range(l))
                assert character_value(lam, ct, l) == zeta(l, i * c)


def test_order8_table_matches_monomial_matrices():
    info, brute_rows = brute_table_212()
    t = character_table(2, 2)
    ours = []
    for li in range(len(t.labels)):
        row = {}
        for ci, ctype in enumerate(t.classes):
            v = t.values[li][ci]
            assert v.is_rational()
            row[ctype] = v.to_rational()
        ours.append(row)
    canon = lambda rows: sorted(tuple(sorted(r.items())) for r in rows)
    assert canon(ours) == canon(brute_rows)
    # targeted labels: the trivial character and the reflection character
    assert all(v == 1 for v in ours[t.labels.index(((2,), ()))].values())
    refl = ours[t.labels.index(((1,), (1,)))]
    elements = hyperoctahedral2_elements()
    for g in elements:
        assert refl[matrix_class_type(g, 2)] == g.trace()


@pytest.mark.parametrize("l,n", [(3, 3), (4, 2)])
def test_value_on_the_inverse_class_is_the_conjugate(l, n):
    # chi(C^-1) = conj chi(C): the eigenvalues of an inverse are the inverse roots
    t = character_table(l, n)
    assert any(inverse_class(c) != c for c in t.classes)
    for lam, row in zip(t.labels, t.values):
        for ci, ctype in enumerate(t.classes):
            assert t.value(lam, inverse_class(ctype)) == row[ci].conjugate()
            assert row[t.inverse[ci]] == row[ci].conjugate()


def test_dimensions():
    assert char_dimension(((2, 1),)) == 2
    assert char_dimension(((1,), (1,))) == 2
    assert char_dimension(((3, 1),)) == 3
    for (l, n) in SIZES:
        t = character_table(l, n)
        id_class = ((1,) * n,) + ((),) * (l - 1)
        ci = t.classes.index(id_class)
        for li, lam in enumerate(t.labels):
            assert t.values[li][ci] == char_dimension(lam)


@pytest.mark.parametrize("l,n", SIZES)
def test_orthogonality(l, n):
    t = character_table(l, n)
    W = t.order
    inv = [t.classes.index(inverse_class(c)) for c in t.classes]
    nl = len(t.labels)
    for a in range(nl):
        for b in range(a, nl):
            s = CyclotomicNumber.zero(l)
            for ci in range(len(t.classes)):
                s = s + t.values[a][ci] * t.values[b][inv[ci]] * t.sizes[ci]
            assert s == (W if a == b else 0)
    for ci in range(len(t.classes)):
        for di in range(ci, len(t.classes)):
            s = CyclotomicNumber.zero(l)
            for a in range(nl):
                s = s + t.values[a][ci] * t.values[a][inv[di]]
            assert s == (W // t.sizes[ci] if ci == di else 0)


@pytest.mark.parametrize("l,n", SIZES)
def test_sum_of_squared_dimensions(l, n):
    assert sum(char_dimension(lam) ** 2 for lam in enumerate_multipartitions(l, n)) \
        == group_order(l, n)


def test_character_value_input_validation():
    with pytest.raises(ValueError):
        character_value(((1,),), ((1,), ()), 1)
    with pytest.raises(ValueError):
        character_value(((2,), ()), ((1,), ()), 2)
    # not canonical multipartitions of n: each is named in the error
    for lam, ctype, l, bad in [
        (((1, 2),), ((2, 1),), 1, ((1, 2),)),
        (((2, 1),), ((1, 2),), 1, ((1, 2),)),
        (((2, 0), ()), ((2,), ()), 2, ((2, 0), ())),
        (([2], [1]), ((2,), (1,)), 2, ([2], [1])),
        (((2,), (1,)), ((2,), (1,), ()), 2, ((2,), (1,), ())),
        (((3, -1),), ((2,),), 1, ((3, -1),)),
        (((True,),), ((1,),), 1, ((True,),)),
        (((2,),), ((1,),), 1, ((1,),)),
    ]:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            character_value(lam, ctype, l)
    assert character_value(((2, 1),), ((2, 1),), 1) == 0


# -- centre of the group algebra ----------------------------------------------


def test_idempotents_are_idempotent_and_orthogonal():
    for (l, n) in ((1, 3), (2, 2)):
        labels = enumerate_multipartitions(l, n)
        es = [central_idempotent(lam) for lam in labels]
        total = es[0]
        for e in es[1:]:
            total = total + e
        identity = class_sum(l, n, ((1,) * n,) + ((),) * (l - 1))
        assert total.coeffs == identity.coeffs
        for i, e in enumerate(es):
            assert (e * e).coeffs == e.coeffs
            for j in range(i + 1, len(es)):
                assert (e * es[j]).is_zero()


def test_trivial_idempotent_coefficients():
    # the principal idempotent has coefficient 1/|W| on every class sum
    e = central_idempotent(((3,),))
    W = group_order(1, 3)
    for _, v in e.coeffs:
        assert v == Fraction(1, W)


def test_omega_round_trip():
    for (l, n) in ((2, 2), (3, 2)):
        for ctype, _ in enumerate_classes(l, n):
            z = class_sum(l, n, ctype)
            assert from_omega(l, n, to_omega(z)).coeffs == z.coeffs


def test_filtration_degree():
    assert filtration_degree(class_sum(2, 2, ((1, 1), ()))) == 0
    assert filtration_degree(class_sum(2, 2, ((2,), ()))) == 1
    assert filtration_degree(class_sum(2, 2, ((), (2,)))) == 2
    z = CentralElement.from_dict(2, 2, {})
    assert filtration_degree(z) == 0
    for lam in enumerate_multipartitions(2, 2):
        e = central_idempotent(lam)
        assert filtration_degree(e) == 2  # idempotents have full support here


@pytest.mark.parametrize("op", ["__add__", "__mul__"])
def test_central_elements_of_different_algebras_do_not_combine(op):
    a = class_sum(2, 1, ((1,), ()))
    for b in (class_sum(1, 1, ((1,),)), class_sum(2, 2, ((1, 1), ()))):
        with pytest.raises(ValueError, match="mismatched algebras"):
            getattr(a, op)(b)


# -- the restriction morphism ---------------------------------------------------


def test_i_gamma_star_identity_to_identity():
    one = class_sum(1, 2, ((1, 1),))
    img = i_gamma_star(one, ((),), 2)
    one2 = class_sum(2, 1, ((1,), ()))
    assert img.coeffs == one2.coeffs


def test_i_gamma_star_kills_off_core_idempotents():
    # gamma = (1): labels with 2-core (2,1) are killed
    z = central_idempotent(((2, 1),))
    img = i_gamma_star(z, ((1,),), 2)
    assert img.is_zero()


def test_i_gamma_star_is_ring_morphism():
    l, n, k = 1, 2, 2
    gamma = ((),)
    zs = [class_sum(l, n, c) for c, _ in enumerate_classes(l, n)]
    for z1 in zs:
        for z2 in zs:
            lhs = i_gamma_star(z1 * z2, gamma, k)
            rhs = i_gamma_star(z1, gamma, k) * i_gamma_star(z2, gamma, k)
            assert lhs.coeffs == rhs.coeffs


def test_i_gamma_star_surjective_on_idempotents():
    # every idempotent of the small algebra is hit
    l, n, k = 1, 3, 2
    gamma = ((1,),)
    hit = set()
    for lam in enumerate_multipartitions(l, n):
        img = i_gamma_star(central_idempotent(lam), gamma, k)
        if not img.is_zero():
            hit.add(img.coeffs)
    targets = {central_idempotent(mu).coeffs for mu in enumerate_multipartitions(2, 1)}
    assert hit == targets


GRID6 = [(1, 2, 2), (1, 3, 2), (1, 4, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2)]


@pytest.mark.parametrize("l,n,k", GRID6)
def test_verify_filtration_whole_grid(l, n, k):
    gammas = enumerate_core_tuples(k, l, n)
    reports = verify_filtration(l, n, k, gammas)
    assert [rep.gamma for rep in reports] == gammas
    for rep in reports:
        assert rep.passed, rep.certificates
        assert rep.checked == len(enumerate_multipartitions(l, n))


def test_verify_filtration_reports_in_the_order_given():
    # a repeated gamma gets its report again, an iterator is read once, and
    # no gamma gets no report
    l, n, k = 2, 5, 2
    gammas = enumerate_core_tuples(k, l, n)
    alone = {gamma: verify_filtration(l, n, k, [gamma]) for gamma in gammas}
    asked = [gammas[-1], gammas[0], gammas[-1], *gammas]
    want = tuple(alone[gamma][0] for gamma in asked)
    assert verify_filtration(l, n, k, asked) == verify_filtration(l, n, k, iter(asked)) == want
    assert verify_filtration(l, n, k, []) == ()


@pytest.mark.parametrize("bad", [((2,), ()), ((1,),), ((1,), (1,))])
def test_verify_filtration_validates_every_gamma_before_any_column(bad, monkeypatch):
    # (2) is not a 2-core, one component is too few, and |gamma| = 2 breaks
    # n = 5 mod 2: wherever in the list, nothing is built before the error
    built = []
    monkeypatch.setattr(wreath, "_columns", lambda l, n, classes: built.append((l, n)))
    gammas = enumerate_core_tuples(2, 2, 5)
    for at in (0, len(gammas) // 2, len(gammas)):
        with pytest.raises(ValueError):
            verify_filtration(2, 5, 2, gammas[:at] + [bad] + gammas[at:])
    assert built == []


@pytest.mark.parametrize(
    "l,n,k", [(2, 3, 2), (3, 2, 2), (2, 4, 2), (2, 4, 3), (3, 3, 2), (1, 4, 2), (1, 5, 3)]
)
def test_restriction_matrix_matches_the_round_trip(l, n, k):
    # i_gamma_star goes through the central characters, as the round trip
    # does with the label map given; the loop sums the restriction matrix
    # coefficient by coefficient and shares neither's algorithm
    classes = [c for c, _ in enumerate_classes(l, n)]
    # an element with every class in its support, non-rational for l >= 3, to
    # check how coefficients of Q(zeta_l) embed into Q(zeta_kl)
    mixed = CentralElement.from_dict(l, n, {c: zeta(l, i) + i for i, c in enumerate(classes)})
    for gamma in enumerate_core_tuples(k, l, n):
        beta = lambda lam: beta_flat_k_gamma(lam, k, gamma)
        loop = restriction_matrix_loop(l, n, k, gamma)
        certs = []
        for ctype, loop_row in zip(classes, loop, strict=True):
            z = class_sum(l, n, ctype)
            image, want = i_gamma_star(z, gamma, k), restrict_round_trip(z, gamma, k, beta)
            assert (image.l, image.n) == (want.l, want.n)
            assert image.coeffs == want.coeffs == loop_row
            i = codim(ctype, n)
            certs += [(ctype, i, d, codim(d, want.n)) for d in want.support()
                      if codim(d, want.n) > i]
        want = restrict_round_trip(mixed, gamma, k, beta)
        assert i_gamma_star(mixed, gamma, k).coeffs == want.coeffs
        (rep,) = verify_filtration(l, n, k, [gamma])
        assert rep.certificates == tuple(certs)
        assert rep.passed == (not certs)
        assert rep.checked == len(enumerate_multipartitions(l, n))


# (5, 3, 3) and (3, 4, 5) reach m = 15, the first order with two odd prime factors
PACKED_GRID = [(2, 5, 2), (3, 4, 2), (2, 6, 3), (1, 6, 3), (4, 4, 2), (5, 3, 3), (3, 4, 5)]


@pytest.mark.parametrize("l,n,k", PACKED_GRID)
def test_packed_restriction_matrix_matches_the_loop(l, n, k, monkeypatch):
    # under codim = -msize, every target of rank r < n outranks every class,
    # so each nonzero block the check decodes is a certificate: they must be
    # the support of the coefficient-by-coefficient sum, in order; one call
    # checks every gamma, and a call on one gamma alone gives its report
    monkeypatch.setattr(wreath, "codim", lambda ctype, n=None: -msize(ctype))
    classes = character_table(l, n).classes
    gammas = enumerate_core_tuples(k, l, n)
    reports = verify_filtration(l, n, k, gammas)
    for gamma, rep in zip(gammas, reports, strict=True):
        r = (n - msize(gamma)) // k
        want = restriction_matrix_loop(l, n, k, gamma)
        support = tuple((c, -n, d, -r) for c, row in zip(classes, want) for d, _ in row)
        assert rep.gamma == gamma and support and rep.certificates == support
        assert rep.checked == len(classes)
    assert verify_filtration(l, n, k, gammas[-1:]) == reports[-1:]


@pytest.mark.parametrize("l,n,k", PACKED_GRID)
def test_restriction_rows_decode_within_their_digit_bound(l, n, k, monkeypatch):
    # every digit decoded from a row is within the bound its _Kronecker was
    # built for, and that bound fits a slot; under codim = -msize every class
    # is live and every target a slot (r < n), so the m = 15 points decode too
    monkeypatch.setattr(wreath, "codim", lambda ctype, n=None: -msize(ctype))
    decoded = []
    init, unpack = _Kronecker.__init__, _Kronecker.unpack

    def recording_init(self, bound, count):
        init(self, bound, count)
        self.bound = bound

    def recording_unpack(self, value, count=None):
        digits = unpack(self, value, count)
        decoded.append((self.bound, self.width, max(map(abs, digits))))
        return digits

    monkeypatch.setattr(_Kronecker, "__init__", recording_init)
    monkeypatch.setattr(_Kronecker, "unpack", recording_unpack)
    # the slots of one call hold the largest bound over a rank's gamma, and
    # those of a call on one gamma its own bound
    gammas = enumerate_core_tuples(k, l, n)
    verify_filtration(l, n, k, gammas)
    verify_filtration(l, n, k, gammas[-1:])
    assert decoded
    for bound, width, top in decoded:
        assert top <= bound < 2 ** (8 * width - 1)


def _plus_one_on_fixed(ctype, n=None):
    # one more on every class whose colour-0 cycles are all 1-cycles
    return codim(ctype, n) + all(a == 1 for a in ctype[0])


# codims under which the live rows must give the full matrix's certificates;
# the last tops out above r on G(kl,1,r), at 3r for kl >= 3 and 3r - 1 at kl = 2
CODIMS = {
    "true": codim,
    "plus-one-on-fixed": _plus_one_on_fixed,
    "fixed-cycles": lambda ctype, n=None: len(ctype[0]),
    "minus-size": lambda ctype, n=None: -msize(ctype),
    "above-r": lambda ctype, n=None: 3 * codim(ctype, n) - len(ctype[-1]),
}


@pytest.mark.parametrize("l,n,k", PACKED_GRID + [(3, 5, 2), (2, 6, 2), (2, 4, 2)])
def test_live_rows_give_the_full_matrix_certificates(l, n, k, monkeypatch):
    # the certificates of the full restriction matrix, summed coefficient by
    # coefficient, under each codim: the live classes and the target cut
    # must drop none of them, whatever the codim's top on G(kl,1,r); one call
    # per codim checks every gamma, sharing the live columns and each rank's
    # blocks, and a call on one gamma alone gives its report
    classes = character_table(l, n).classes
    found = dict.fromkeys(CODIMS, 0)
    gammas = enumerate_core_tuples(k, l, n)
    loops = [restriction_matrix_loop(l, n, k, gamma) for gamma in gammas]
    for name, f in CODIMS.items():
        monkeypatch.setattr(wreath, "codim", f)
        reports = verify_filtration(l, n, k, gammas)
        for gamma, loop, rep in zip(gammas, loops, reports, strict=True):
            r = (n - msize(gamma)) // k
            want = tuple((c, f(c, n), d, f(d, r)) for c, row in zip(classes, loop)
                         for d, _ in row if f(d, r) > f(c, n))
            assert rep.gamma == gamma and rep.certificates == want, (name, gamma)
            assert rep.passed == (not want) and rep.checked == len(classes)
            found[name] += len(want)
        assert verify_filtration(l, n, k, gammas[-1:]) == reports[-1:], name
    for gamma in gammas:
        r = (n - msize(gamma)) // k
        assert r == 0 or max(CODIMS["above-r"](d, r) for d in enumerate_multipartitions(k * l, r)) > r
    assert not found["true"] and found["minus-size"]
    if n >= 2 * k:  # a component of rank r >= 2
        assert found["plus-one-on-fixed"] and found["above-r"]


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("seed", range(40))
def test_kronecker_decodes_sums_of_products_at_the_bound(seed):
    # digits of both signs, a bound met exactly by some digit, and
    # borrows and carries that cross slot boundaries in the packed ints
    rng = random.Random(seed)
    size = rng.choice([3, 100, 10**4, 2**31, 10**30])
    shorts = [[rng.randint(-size, size) for _ in range(rng.randint(1, 4))] for _ in range(3)]
    longs = [[rng.randint(-size, size) for _ in range(rng.randint(5, 40))] for _ in range(3)]
    count = max(len(a) + len(b) - 1 for a, b in zip(shorts, longs))
    want = [0] * count
    for a, b in zip(shorts, longs):
        for i, x in enumerate(_convolve(a, b)):
            want[i] += x
    bound = max(map(abs, want + [c for a in shorts + longs for c in a]))
    kron = _Kronecker(bound, count)
    assert 2 ** (8 * kron.width - 1) > bound
    pack = lambda digits: kron.pack(kron.slots(digits))
    got = kron.unpack(sum(pack(a) * pack(b) for a, b in zip(shorts, longs)))
    assert got == want


@pytest.mark.parametrize(
    "bound", [1, 126, 127, 128, 2**15 - 1, 2**15, 2**23, 2**31, 2**39, 2**63 - 1, 2**63, 10**40])
def test_kronecker_round_trips_the_widest_digits(bound):
    kron = _Kronecker(bound, 6)
    top = 2 ** (8 * kron.width - 1) - 1
    # the fewest whole bytes that hold +-bound
    assert top >= bound > top >> 8
    pack = lambda digits: kron.pack(kron.slots(digits))
    digits = [top, -top, top, top, -top, -top]
    assert kron.unpack(pack(digits)) == digits
    assert kron.unpack(pack(digits), 2) == digits[:2]
    # a sum of two packs whose every slot lands on +-top
    parts = [top - 1, -top + 1, 1, top, -top, 0]
    ones = [1, -1, top - 1, 0, 0, -top]
    assert kron.unpack(pack(parts) + pack(ones)) == digits
    # the low slots alone, with borrows from the slots above them masked off
    assert kron.unpack(pack(parts) + pack(ones), 3) == digits[:3]
    assert kron.unpack(pack([3, -1])) == [3, -1, 0, 0, 0, 0]


@pytest.mark.parametrize("l", range(1, 16))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kronecker_rotation_is_the_cyclic_shift_of_the_digits(l, data):
    # the weight zeta^k of the column recursion: for every shift k, the top
    # k slots move to the bottom, exactly, with digits up to half a slot
    # less one (the widest a pack holds) of either sign
    kron = _Kronecker(data.draw(st.sampled_from([1, 127, 128, 2**15, 2**31, 10**12])), l)
    top = kron.half - 1
    digits = data.draw(st.lists(st.sampled_from([top, -top]) | st.integers(-top, top),
                                min_size=l, max_size=l))
    value = kron.pack(kron.slots(digits))
    for k in range(l):
        assert kron.unpack(kron.rotate(value, k)) == digits[-k:] + digits[:-k]


@pytest.mark.parametrize("l,n", [(1, 0), (3, 0), (1, 7), (2, 6), (3, 5), (4, 4), (5, 3), (15, 2)])
def test_largest_dimension_is_the_largest_over_the_labels(l, n):
    want = max(map(char_dimension, enumerate_multipartitions(l, n)))
    assert wreath._largest_dimension(l, n) == want


@pytest.mark.parametrize("l,n", SIZES)
def test_table_coefficients_are_at_most_the_largest_dimension(l, n):
    # a coefficient counts rim-hook paths with signs, so it is at most
    # chi_lam(1): the column recursion's slots rest on it, and chi(1) itself
    # (the identity class) meets the bound
    top = wreath._largest_dimension(l, n)
    assert max(abs(c) for row in character_table(l, n).raw for v in row for c in v) == top


@pytest.mark.parametrize("l,n,k", [p for p in PACKED_GRID if p[0] * p[2] == 15])
def test_target_coefficients_are_at_most_the_largest_dimension(l, n, k, monkeypatch):
    # the columns verify_filtration builds at m = 15, the targets among them;
    # under codim = -msize every class is live and every target a slot
    monkeypatch.setattr(wreath, "codim", lambda ctype, n=None: -msize(ctype))
    built = []
    columns = wreath._columns

    def recording(l, n, classes, *once):
        out = columns(l, n, classes, *once)
        built.append((l, n, out))
        return out

    monkeypatch.setattr(wreath, "_columns", recording)
    verify_filtration(l, n, k, enumerate_core_tuples(k, l, n))
    assert 15 in {m for m, _, _ in built}
    for m, r, cols in built:
        top = wreath._largest_dimension(m, r)
        assert max((abs(c) for col in cols for v in col for c in v), default=0) <= top


def test_verify_filtration_top_degree_trivial():
    # degree-n elements can map anywhere: check the top class never violates
    (rep,) = verify_filtration(2, 2, 2, [((), ())])
    assert rep.passed


def test_verify_filtration_fails_under_a_wrong_codim(monkeypatch):
    # counting the fixed cycles in place of the rest is the wrong filtration
    assert verify_filtration(2, 2, 2, [((), ())])[0].passed
    monkeypatch.setattr(wreath, "codim", lambda ctype, n=None: len(ctype[0]))
    (rep,) = verify_filtration(2, 2, 2, [((), ())])
    assert not rep.passed and rep.checked == 5
    assert rep.certificates[0] == (((), (1, 1)), 0, ((1,), (), (), ()), 1)


def _module_caches():
    # every lru cache and module-level dict, list or set of the loaded cmfix modules
    found = {id(x): x for name, mod in list(sys.modules.items()) if name.startswith("cmfix")
             for attr, x in vars(mod).items()
             if hasattr(x, "cache_info") or type(x) in (dict, list, set) and not attr.startswith("__")}
    return list(found.values())


def _cache_sizes(caches):
    return [x.cache_info().currsize if hasattr(x, "cache_info") else len(x) for x in caches]


def test_character_table_leaves_no_module_level_memo():
    # start every package cache empty, then read what the build may read
    # from its callees' caches; the uncached body then builds the table,
    # and nothing it made may outlive it
    caches = _module_caches()
    for x in caches:
        if hasattr(x, "cache_clear"):
            x.cache_clear()
    for m in range(4):
        enumerate_multipartitions(2, m)
    before = _cache_sizes(caches)
    t = wreath.character_table.__wrapped__(2, 3)
    assert _cache_sizes(caches) == before
    assert t.raw == character_table(2, 3).raw


def test_verify_filtration_builds_each_piece_once(monkeypatch):
    # one call over every gamma at (2,5,2), the CLI's: one abacus read per
    # partition of size <= 5, one label list per (l, n), one tableau count
    # per partition and one rim-hook list per (partition, size), for the
    # gamma checks, the fibres, the columns and the dimensions together
    calls = {}

    def counted(name, f):
        return lambda *args, **kw: calls[name].append((args, sorted(kw.items()))) or f(*args, **kw)

    for name in ("_runner_data", "enumerate_multipartitions", "_syt_count", "_rim_hooks"):
        calls[name] = []
        monkeypatch.setattr(wreath, name, counted(name, getattr(wreath, name)))
    verify_filtration(2, 5, 2)
    assert len(calls["_runner_data"]) == len(partitions_upto(5)) == 19
    # (2, m) for m <= 5 and (4, r) for r <= 2: the classes, the tops and
    # the labels of every size the columns read
    assert len(calls["enumerate_multipartitions"]) == 9
    for name, made in calls.items():
        assert made and len(made) == len({repr(key) for key in made}), name


def test_verify_filtration_leaves_no_module_level_memo():
    # warm what the check reads from the layers beneath it: the powers of
    # zeta_kl; checking every gamma must then leave every package cache as
    # it was, fibres included, so nothing of a call outlives it
    l, n, k = 2, 3, 2
    gammas = enumerate_core_tuples(k, l, n)
    zeta(k * l)
    caches = _module_caches()
    before = _cache_sizes(caches)
    assert all(rep.passed for rep in verify_filtration(l, n, k, gammas))
    assert _cache_sizes(caches) == before


@pytest.mark.parametrize("l,n", SIZES)
def test_table_index_inverse_and_dims(l, n):
    t = character_table(l, n)
    for i, x in enumerate(t.labels):
        assert t.index[x] == t.labels.index(x) == t.classes.index(x) == i
    assert all(t.inverse[t.inverse[ci]] == ci for ci in range(len(t.classes)))
    assert [t.classes[ci] for ci in t.inverse] == [inverse_class(c) for c in t.classes]
    assert list(t.dims) == [char_dimension(lam) for lam in t.labels]


def test_values_share_one_object_per_distinct_raw_entry():
    t = character_table(3, 4)
    by_raw = {}
    for lam, raw_row, row in zip(t.labels, t.raw, t.values, strict=True):
        for ctype, r, v in zip(t.classes, raw_row, row, strict=True):
            assert by_raw.setdefault(r, v) is v
            assert v == character_value(lam, ctype)
    assert len({id(v) for row in t.values for v in row}) == len(by_raw) < len(t.labels) ** 2


def test_central_idempotent_rejects_foreign_labels():
    # not canonical multipartitions, so absent from the table of their own size
    for lam in (((1, 2),), ((2, 0), ()), ([2], [1])):
        with pytest.raises(ValueError):
            central_idempotent(lam)


@pytest.mark.parametrize("l,n", [(1, 5), (2, 4), (3, 3), (4, 3)])
def test_conjugate_label_is_the_sign_twist(l, n):
    # chi_lam' = eps . chi_lam, lam' conjugating every component
    t = character_table(l, n)
    for lam, row in zip(t.labels, t.values):
        twisted = t.values[t.index[conjugate_multi(lam)]]
        for ctype, value, value2 in zip(t.classes, row, twisted):
            assert value2 == value * sign(ctype)


@pytest.mark.parametrize(
    "l,n,k",
    [(2, 3, 2), (3, 2, 2), (1, 4, 2), (2, 4, 3), (1, 5, 3), (2, 5, 3), (1, 7, 3), (3, 3, 3)],
)
def test_unreversed_restriction_is_the_sign_twist_conjugate(l, n, k):
    # with T: z_C -> eps(C) z_C (that is e_lam -> e_lam'), the restriction
    # through the unreversed interleaving at gamma is
    # T . i_gamma_star(., gamma', k) . T, so it has the same filtration verdicts
    # up to the permutation gamma -> gamma' of the components
    gammas = enumerate_core_tuples(k, l, n)
    # every 2-core is self-conjugate; each k = 3 point has gamma' != gamma
    assert any(conjugate_multi(g) != g for g in gammas) == (k == 3)
    for gamma in gammas:
        for ctype, _ in enumerate_classes(l, n):
            z = class_sum(l, n, ctype)
            unreversed = restrict_round_trip(
                z, gamma, k, lambda lam: beta_unreversed(lam, k)).as_dict()
            image = i_gamma_star(z, conjugate_multi(gamma), k).as_dict()
            assert unreversed.keys() == image.keys()
            for d, coeff in image.items():
                assert unreversed[d] == coeff * (sign(ctype) * sign(d))


@pytest.mark.parametrize("l,n", SIZES + [(2, 6), (3, 5), (4, 4), (5, 3), (6, 2)])
def test_table_matches_the_entrywise_rim_hook_recursion(l, n):
    # the column recursion against the Murnaghan-Nakayama rule entry by entry
    t = character_table(l, n)
    cycles = [class_cycles(c) for c in t.classes]
    assert t.raw == tuple(tuple(char_rec(lam, cyc, l) for cyc in cycles) for lam in t.labels)
    char_rec.cache_clear()


@pytest.mark.parametrize("l,n", [(1, 6), (2, 4), (3, 3), (4, 3), (6, 2)])
def test_columns_store_one_tuple_per_distinct_value(l, n):
    # equal entries are one object, so a reader may key them by id
    entries = [v for col in wreath._columns(l, n, enumerate_multipartitions(l, n)) for v in col]
    assert len({id(v) for v in entries}) == len(set(entries)) < len(entries)


@pytest.mark.parametrize("l,n", [(1, 5), (2, 4), (3, 3), (4, 3), (5, 2), (6, 2)])
def test_character_values_are_algebraic_integers(l, n):
    # the column recursion runs on packed ints in Z[x]/(x^l - 1), decoded to
    # int tuples, and each value is reduced mod Phi_l once; for l > 1 some
    # value has a term zeta^t with t >= phi(l) that the reduction folds
    # (zeta^2, zeta^3 at l = 4)
    t = character_table(l, n)
    deg = len(cyclotomic_polynomial(l)) - 1
    folded = False
    for raw_row, row in zip(t.raw, t.values, strict=True):
        for raw, value in zip(raw_row, row, strict=True):
            assert all(c.denominator == 1 for c in value.coeffs)
            assert len(raw) == l and all(type(c) is int for c in raw)
            assert value == CyclotomicNumber.from_powers(l, raw)
            folded |= any(raw[deg:])
    assert folded == (l > 1)


# -- gamma in one orbit of the label symmetries share their report -----------


def _twist(v, c):
    # zeta^c v in Z[x]/(x^l - 1): the coefficient of zeta^t moves to t + c
    return tuple(v[(t - c) % len(v)] for t in range(len(v)))


def _galois(v, a):
    # sigma_a: the coefficient of zeta^t moves to a*t
    out = [0] * len(v)
    for t, x in enumerate(v):
        out[a * t % len(v)] += x
    return tuple(out)


@pytest.mark.parametrize("l,n", [(1, 5), (2, 4), (3, 3), (4, 3), (5, 3), (6, 2), (3, 4), (2, 6)])
def test_label_actions_twist_the_characters(l, n):
    # exactly in Z[x]/(x^l - 1), on every entry of the table:
    # chi_(rot lam)(C) = zeta^(c(C)) chi_lam(C) with c(C) = sum_j j len(C_j),
    # chi_lam'(C) = eps(C) chi_lam(C), and chi_(a lam) = sigma_a chi_lam
    t = character_table(l, n)
    rot, conj = label_action(l, 1, 1), label_action(l, conj=True)
    units = [a for a in range(2, l) if gcd(a, l) == 1]
    for lam, row in zip(t.labels, t.raw):
        assert conj(lam) == conjugate_multi(lam)
        rotated, conjugated = t.raw[t.index[rot(lam)]], t.raw[t.index[conj(lam)]]
        for ctype, v, v_rot, v_conj in zip(t.classes, row, rotated, conjugated, strict=True):
            assert v_rot == _twist(v, sum(j * len(comp) for j, comp in enumerate(ctype)))
            assert v_conj == tuple(sign(ctype) * x for x in v)
        for a in units:
            assert t.raw[t.index[label_action(l, a)(lam)]] == tuple(_galois(v, a) for v in row)


# the five wrong codims under which the orbit reports were first compared;
# each makes some certificates nonempty
SUBSTITUTED = {
    "fixed-cycles": lambda ctype, n=None: len(ctype[0]),
    "all-cycles": lambda ctype, n=None: msize(ctype) - sum(map(len, ctype)),
    "plus-one": lambda ctype, n=None: codim(ctype, n) + 1,
    "md5-mod-5": lambda ctype, n=None: int(hashlib.md5(repr(ctype).encode()).hexdigest(), 16) % 5,
    "last-colour": lambda ctype, n=None: msize(ctype) - len(ctype[-1]),
}


def _recording_orbits(monkeypatch):
    # the groupings verify_filtration makes, one per rank it searches
    found, orbits = [], wreath._fibre_orbits
    monkeypatch.setattr(wreath, "_fibre_orbits", lambda *args: found.append(orbits(*args)) or found[-1])
    return found


@pytest.mark.parametrize("l,n,k", [(3, 3, 2), (2, 5, 2), (2, 4, 2), (3, 4, 2), (3, 5, 2),
                                   (4, 4, 2), (2, 6, 3), (3, 6, 2), (1, 7, 3)])
def test_an_orbit_shares_the_report_each_member_gets_alone(l, n, k, monkeypatch):
    # under each wrong codim the call on every gamma gives each gamma the
    # report a call on that gamma alone gives, and some gamma that took its
    # orbit's report has certificates; at l = 1 only conjugation merges
    gammas = enumerate_core_tuples(k, l, n)
    found = _recording_orbits(monkeypatch)
    shared = 0
    for name, f in SUBSTITUTED.items():
        monkeypatch.setattr(wreath, "codim", f)
        found.clear()
        reports = dict(zip(gammas, verify_filtration(l, n, k, gammas)))
        assert tuple(reports.values()) == verify_filtration_per_gamma(l, n, k, gammas), name
        shared += sum(bool(reports[g].certificates) for orbit in found
                      for g, rho in orbit.items() if g != rho)
    assert shared


def _fibres_with(l, n, k, gamma, fibre):
    fibres = core_fibres(l, n, k)
    fibres[gamma] = fibre
    return fibres


def test_a_fibre_with_two_labels_swapped_is_not_shared(monkeypatch):
    # at (2,5,2) the two gamma of rank 2 are one orbit; with the mu of the
    # last two labels of the second one's fibre swapped, it is its own orbit,
    # since its rows no longer have the first one's support
    l, n, k = 2, 5, 2
    first, second = [g for g in enumerate_core_tuples(k, l, n) if (n - msize(g)) // k == 2]
    found = _recording_orbits(monkeypatch)
    verify_filtration(l, n, k, [first, second])
    assert found == [{first: first, second: first}]
    fibre = dict(core_fibres(l, n, k)[second])
    *_, x, y = fibre
    fibre[x], fibre[y] = fibre[y], fibre[x]
    monkeypatch.setattr(wreath, "core_fibres", lambda *args: _fibres_with(l, n, k, second, fibre))
    differs = set()
    for name, f in SUBSTITUTED.items():
        monkeypatch.setattr(wreath, "codim", f)
        found.clear()
        reports = verify_filtration(l, n, k, [first, second])
        assert found == [{first: first, second: second}], name
        assert reports == verify_filtration_per_gamma(l, n, k, [first, second]), name
        if reports[0].certificates != reports[1].certificates:
            differs.add(name)
    assert differs


def test_a_fibre_carried_only_by_a_mismatched_galois_map_is_not_shared(monkeypatch):
    # a fibre that tau = rotation by 1 and tau' = (x -> 5x) carry onto
    # another has rows of another support: 5 = 2 mod 3, so the two maps act
    # through different Galois automorphisms, and no pair of label maps with
    # a' = a mod l carries it.  The search must not share its report.
    l, n, k = 3, 3, 2
    first, second = ((1,), (), ()), ((), (1,), ())
    tau, tau2 = label_action(3, 1, 1), label_action(6, 5, 0)
    fibre = {tau(lam): tau2(mu) for lam, mu in core_fibres(l, n, k)[first].items()}
    monkeypatch.setattr(wreath, "core_fibres", lambda *args: _fibres_with(l, n, k, second, fibre))
    found = _recording_orbits(monkeypatch)
    differs = set()
    for name, f in SUBSTITUTED.items():
        monkeypatch.setattr(wreath, "codim", f)
        found.clear()
        reports = verify_filtration(l, n, k, [first, second])
        # no search where the rank has no live class, as under all-cycles
        assert [orbit[second] for orbit in found] in ([], [second]), name
        assert reports == verify_filtration_per_gamma(l, n, k, [first, second]), name
        if reports[0].certificates != reports[1].certificates:
            differs.add(name)
    assert differs


@pytest.mark.parametrize("l,n,k,gammas,orbits", [
    # gamma of positive rank, and their orbits
    (3, 3, 2, 3, 2), (2, 5, 2, 4, 2), (2, 4, 2, 2, 2), (3, 6, 2, 10, 6), (4, 5, 2, 12, 6),
    (3, 7, 3, 27, 15), (3, 8, 2, 16, 10), (2, 12, 2, 9, 6),
])
def test_orbit_counts(l, n, k, gammas, orbits):
    fibres = core_fibres(l, n, k)
    ranks = {}
    for gamma in fibres:
        ranks.setdefault((n - msize(gamma)) // k, []).append(gamma)
    grouped = [wreath._fibre_orbits(l, k, fibres, asked) for r, asked in ranks.items() if r]
    assert sum(map(len, grouped)) == gammas
    assert sum(len(set(orbit.values())) for orbit in grouped) == orbits
    for orbit in grouped:
        assert all(orbit[rho] == rho for rho in orbit.values())
