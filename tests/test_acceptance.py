"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each criterion folds its predicates over its instances with
``invariants.first_failure`` and, where ``selftest`` checks the same
expression, calls the registry's predicate.  Criterion 6 instead checks
each grid point in one ``verify_filtration`` call, every gamma at once, and
names the first failing (l, n, k, gamma) itself.  Each test prints a single
pass/fail line (visible under ``pytest -s`` or in the failure report), with
the first failing instance on failure, and enforces the stated runtime
budget.
"""

import random
import time
from fractions import Fraction

from cmfix.affine_weyl import reflect_dim, reflect_theta
from cmfix.fixed_points import enumerate_E
from cmfix.invariants import (
    counting_law,
    delta_round_trip,
    first_failure,
    g4_surfaces_match,
    pairing_identity,
    smoothness_dictionary,
    transport_routes_agree,
)
from cmfix.linalg import Mat
from cmfix.arith import zeta
from cmfix.parameters import ParamSet, smooth_g4, transport
from cmfix.partitions import (
    core,
    enumerate_core_tuples,
    enumerate_multipartitions,
    msize,
    residues,
)
from cmfix.quiver import (
    block_immersion,
    gl_action,
    moment_map,
    random_rep,
    scale_action,
)
from cmfix.wreath import (
    CyclotomicNumber,
    character_table,
    char_dimension,
    group_order,
    inverse_class,
    verify_filtration,
)
from oracles import brute_table_212

DELTA_GRID = [(1, 2, 2), (1, 3, 2), (1, 4, 2), (1, 4, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]
# the last five have components of rank r >= 2, where a wrong label map can fail
# (2,6,3), (3,8,3) and (3,8,2), with components of rank up to 2, 2 and 4,
# take under a second now that only live rows are formed
FILTRATION_GRID = [(1, 2, 2), (1, 3, 2), (1, 4, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2),
                   (2, 4, 2), (2, 5, 2), (3, 4, 2), (1, 6, 3), (2, 6, 2),
                   (2, 6, 3), (3, 8, 3), (3, 8, 2)]
TABLE_SIZES = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]


def _report(num, desc, t0, limit, witness):
    elapsed = time.time() - t0
    line = f"{'PASS' if witness is None else 'FAIL'} criterion {num}: {desc} [{elapsed:.2f}s / {limit}s]"
    print(line if witness is None else f"{line}\n  first failing instance: {witness}")
    assert witness is None, f"criterion {num} failed at {witness}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def _rand_params(rng, l, a_nonzero=False):
    ks = [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(l - 1)]
    ks.append(-sum(ks, Fraction(0)))
    lo = 1 if a_nonzero else -8
    return ParamSet(l, Fraction(rng.randint(lo, 8), rng.randint(1, 6)), tuple(ks))


def test_criterion_1_paper_worked_examples():
    t0 = time.time()
    rng = random.Random(1)

    def draws():
        for _ in range(20):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            yield a, b, rng.choice((2, 3, 4))

    def transport_examples(a, b, k):
        out = transport(ParamSet(2, a, (-b, b)), 2, (0, 0, 0, 0))
        out1 = transport(ParamSet(1, a, (Fraction(0),)), k, (0,) * k)
        return (out.a == 2 * a
                and out.k == (-b + a / 2, b - a / 2, -b - a / 2, b + a / 2)
                and out1.a == k * a
                and all(out1.k[i % k] == a * (Fraction(i) - Fraction(k + 1, 2))
                        for i in range(1, k + 1)))

    witness = (first_failure([((4, 2, 1), 3)],
                             lambda lam, l: residues(lam, l) == (3, 2, 2)
                             and core(lam, l) == ((1,), 2))
               or first_failure(draws(), transport_examples))
    _report(1, "paper worked examples reproduce exactly", t0, 1, witness)


def test_criterion_2_delta_bijection():
    t0 = time.time()

    def equinumerous(l, n, k):
        E, G = enumerate_E(k, l, n), enumerate_core_tuples(k, l, n)
        return len(E) == len(G) == len(set(E)) == len(set(G))

    pairs = ((d, g, k, l, n) for (l, n, k) in DELTA_GRID
             for d, g in zip(enumerate_E(k, l, n), enumerate_core_tuples(k, l, n)))
    witness = first_failure(DELTA_GRID, equinumerous) or first_failure(pairs, delta_round_trip)
    _report(2, "delta bijection round-trips on the full grid", t0, 10, witness)


def test_criterion_3_counting_law():
    t0 = time.time()

    def big_k_singletons(l, n, k):
        if k <= n:
            return True
        rs = [(n - msize(g)) // k for g in enumerate_core_tuples(k, l, n)]
        return all(r == 0 and len(enumerate_multipartitions(k * l, r)) == 1 for r in rs)

    witness = first_failure(DELTA_GRID, lambda l, n, k: counting_law(l, n, k)
                            and big_k_singletons(l, n, k))
    _report(3, "fixed-point counting law and big-k singletons", t0, 10, witness)


def test_criterion_4_pairing_coxeter_dictionary():
    t0 = time.time()
    rng = random.Random(4)

    def pairing_draws():
        for l in (2, 3, 4, 5):
            for _ in range(1000):
                d = tuple(rng.randint(-5, 7) for _ in range(l))
                th = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(l))
                yield rng.randrange(l), d, th

    def coxeter_draws():
        for l in (2, 3, 4, 5):
            for _ in range(100):
                d = tuple(rng.randint(-5, 5) for _ in range(l))
                th = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(l))
                yield rng.randrange(l), d, th

    def coxeter_relations(i, d, th):
        l = len(d)
        for op, x in ((reflect_dim, d), (reflect_theta, th)):
            if op(i, op(i, x)) != x:
                return False
            if l >= 3:
                j = (i + 1) % l
                if op(i, op(j, op(i, x))) != op(j, op(i, op(j, x))):
                    return False
            if l >= 4:
                j = (i + 2) % l
                if op(i, op(j, x)) != op(j, op(i, x)):
                    return False
        return True

    params = ((_rand_params(rng, l), n) for (l, n) in ((2, 2), (2, 3), (3, 2))
              for _ in range(1000))
    witness = (first_failure(pairing_draws(), pairing_identity)
               or first_failure(coxeter_draws(), coxeter_relations)
               or first_failure(params, smoothness_dictionary))
    _report(4, "pairing identity, Coxeter relations, smoothness dictionary", t0, 30, witness)


def test_criterion_5_transport_coherence():
    t0 = time.time()
    rng = random.Random(5)
    routes = ((_rand_params(rng, l), k, d) for (l, n, k) in DELTA_GRID
              for d in enumerate_E(k, l, n) for _ in range(5))

    def linearity_draws():
        for (l, k) in ((2, 2), (3, 2), (1, 3)):
            for _ in range(40):
                d = tuple(rng.randint(-2, 3) for _ in range(k * l))
                p1, p2 = _rand_params(rng, l), _rand_params(rng, l)
                yield p1, p2, Fraction(rng.randint(-4, 4), rng.randint(1, 3)), k, d

    def linear(p1, p2, c, k, d):
        l = p1.l
        ps = ParamSet(l, p1.a + p2.a, tuple(x + y for x, y in zip(p1.k, p2.k)))
        t1, t2, ts = transport(p1, k, d), transport(p2, k, d), transport(ps, k, d)
        pc = ParamSet(l, c * p1.a, tuple(c * x for x in p1.k))
        tc = transport(pc, k, d)
        return (ts.a == t1.a + t2.a
                and ts.k == tuple(x + y for x, y in zip(t1.k, t2.k))
                and tc.a == c * t1.a and tc.k == tuple(c * x for x in t1.k))

    witness = first_failure(routes, transport_routes_agree) \
        or first_failure(linearity_draws(), linear)
    _report(5, "transport routes agree and transport is linear", t0, 10, witness)


def test_criterion_6_filtration():
    t0 = time.time()
    # one call checks every gamma of a grid point; the witness is the first
    # failing (l, n, k, gamma)
    reports = (rep for (l, n, k) in FILTRATION_GRID
               for rep in verify_filtration(l, n, k, enumerate_core_tuples(k, l, n)))
    witness = next((repr((rep.l, rep.n, rep.k, rep.gamma)) for rep in reports if not rep.passed), None)
    _report(6, "restriction respects the codimension filtration (default labels)",
            t0, 300, witness)


def test_criterion_7_character_table_integrity():
    t0 = time.time()
    inv = {}
    for (l, n) in TABLE_SIZES:
        t = character_table(l, n)
        inv[l, n] = [t.classes.index(inverse_class(c)) for c in t.classes]

    def rows_orthogonal(l, n, a, b):
        t = character_table(l, n)
        s = CyclotomicNumber.zero(l)
        for ci, cinv in enumerate(inv[l, n]):
            s = s + t.values[a][ci] * t.values[b][cinv] * t.sizes[ci]
        return s == (t.order if a == b else 0)

    def columns_orthogonal(l, n, ci, di):
        t = character_table(l, n)
        s = CyclotomicNumber.zero(l)
        for row in t.values:
            s = s + row[ci] * row[inv[l, n][di]]
        return s == (t.order // t.sizes[ci] if ci == di else 0)

    def sum_rule(l, n):
        return sum(char_dimension(lam) ** 2 for lam in character_table(l, n).labels) \
            == group_order(l, n)

    def matches_brute_force(l, n):
        # the full (2,2) table against the monomial-matrix oracle
        info, brute_rows = brute_table_212()
        t = character_table(l, n)
        if dict(info) != dict(zip(t.classes, t.sizes)):
            return False
        if not all(v.is_rational() for row in t.values for v in row):
            return False
        ours = [{ct: v.to_rational() for ct, v in zip(t.classes, row)} for row in t.values]
        canon = lambda rows: sorted(tuple(sorted(r.items())) for r in rows)
        return canon(ours) == canon(brute_rows)

    def pairs():
        # labels and classes are the same multipartitions, so one range serves both
        for (l, n) in TABLE_SIZES:
            size = len(character_table(l, n).labels)
            yield from ((l, n, a, b) for a in range(size) for b in range(a, size))

    witness = (first_failure(pairs(), rows_orthogonal)
               or first_failure(pairs(), columns_orthogonal)
               or first_failure(TABLE_SIZES, sum_rule)
               or first_failure([(2, 2)], matches_brute_force))
    _report(7, "character tables exact: orthogonality, sum rule, brute-force match",
            t0, 60, witness)


def test_criterion_8_quiver_identities():
    t0 = time.time()
    rng = random.Random(8)

    def rep_draws():
        for _ in range(1000):
            m = rng.choice((2, 3, 4, 5, 6))
            l = rng.choice([x for x in range(1, m + 1) if m % x == 0])
            d = tuple(rng.randint(0, 3) for _ in range(m))
            yield random_rep(d, rng), l

    def block_identity(rep, l):
        d, k = rep.d, rep.l // l
        mm = moment_map(rep)
        if sum((x.trace() for x in mm), Fraction(0)) != 0:
            return False
        mb = moment_map(block_immersion(rep, l))
        for i in range(l):
            js = [i + t * l for t in range(k)]
            offs, off = [], 0
            for j in js:
                offs.append(off)
                off += d[j]
            B = mb[i]
            for r in range(B.rows):
                rb = max(x for x, o in enumerate(offs) if o <= r)
                for c in range(B.cols):
                    cb = max(x for x, o in enumerate(offs) if o <= c)
                    want = mm[js[rb]].data[r - offs[rb]][c - offs[cb]] if rb == cb else 0
                    if B.data[r][c] != want:
                        return False
        return True

    def scaling_is_central(l, rep):
        z = zeta(l)
        g = [Mat.scalar(rep.d[i], z ** i) for i in range(l)]
        return gl_action(g, rep) == scale_action(z, rep)

    scalings = ((l, random_rep(tuple(rng.randint(1, 2) for _ in range(l)), rng))
                for l in (2, 3, 4))
    witness = first_failure(rep_draws(), block_identity) \
        or first_failure(scalings, scaling_is_central)
    _report(8, "block identity on 1000 reps, trace telescoping, scaling identity",
            t0, 30, witness)


def test_criterion_9_g4_surfaces():
    t0 = time.time()
    rng = random.Random(9)

    def draws():
        for _ in range(100):
            k0 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            k1 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            yield k0, k1, -k0 - k1

    def surfaces_and_smoothness(k0, k1, k2):
        want = k0 != 0 and k1 != 0 and k2 != 0 and len({k0, k1, k2}) == 3
        return g4_surfaces_match(k0, k1, k2) and smooth_g4(k0, k1, k2) == want

    _report(9, "exceptional-group surfaces match cyclic data exactly", t0, 1,
            first_failure(draws(), surfaces_and_smoothness))
