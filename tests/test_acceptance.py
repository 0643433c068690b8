"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (visible under ``pytest -s`` or in
the failure report) and enforces the stated runtime budget.
"""

import random
import time
from fractions import Fraction

from cmfix.affine_weyl import pairing, reflect_dim, reflect_theta
from cmfix.fixed_points import delta_inverse, delta_map, enumerate_E
from cmfix.linalg import Mat
from cmfix.arith import zeta
from cmfix.parameters import (
    ParamSet,
    cyclic_cm_polynomial,
    g4_component_cyclic_params,
    g4_surface_roots,
    smooth_g4,
    smooth_gl1n,
    smooth_quiver,
    theta_from_ak,
    transport,
    transport_via_theta,
)
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
FILTRATION_GRID = [(1, 2, 2), (1, 3, 2), (1, 4, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2),
                   (2, 4, 2), (2, 5, 2), (3, 4, 2), (1, 6, 3), (2, 6, 2)]
TABLE_SIZES = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]


def _report(num, desc, t0, limit, ok):
    elapsed = time.time() - t0
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc} [{elapsed:.2f}s / {limit}s]")
    assert ok, f"criterion {num} failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def _rand_params(rng, l, a_nonzero=False):
    ks = [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(l - 1)]
    ks.append(-sum(ks, Fraction(0)))
    lo = 1 if a_nonzero else -8
    return ParamSet(l, Fraction(rng.randint(lo, 8), rng.randint(1, 6)), tuple(ks))


def test_criterion_1_paper_worked_examples():
    t0 = time.time()
    rng = random.Random(1)
    ok = residues((4, 2, 1), 3) == (3, 2, 2)
    ok &= core((4, 2, 1), 3) == ((1,), 2)
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        out = transport(ParamSet(2, a, (-b, b)), 2, (0, 0, 0, 0))
        ok &= out.a == 2 * a
        ok &= out.k == (-b + a / 2, b - a / 2, -b - a / 2, b + a / 2)
        k = rng.choice((2, 3, 4))
        out1 = transport(ParamSet(1, a, (Fraction(0),)), k, (0,) * k)
        ok &= out1.a == k * a
        ok &= all(out1.k[i % k] == a * (Fraction(i) - Fraction(k + 1, 2))
                  for i in range(1, k + 1))
    _report(1, "paper worked examples reproduce exactly", t0, 1, ok)


def test_criterion_2_delta_bijection():
    t0 = time.time()
    ok = True
    for (l, n, k) in DELTA_GRID:
        E = enumerate_E(k, l, n)
        G = enumerate_core_tuples(k, l, n)
        ok &= len(E) == len(G) == len(set(E)) == len(set(G))
        for d, g in zip(E, G):
            ok &= delta_map(d, l) == g
            ok &= delta_inverse(g, k, l, n) == d
    _report(2, "delta bijection round-trips on the full grid", t0, 10, ok)


def test_criterion_3_counting_law():
    t0 = time.time()
    ok = True
    for (l, n, k) in DELTA_GRID:
        total = 0
        for g in enumerate_core_tuples(k, l, n):
            r = (n - msize(g)) // k
            total += len(enumerate_multipartitions(k * l, r))
            if k > n:
                ok &= r == 0 and len(enumerate_multipartitions(k * l, r)) == 1
        ok &= total == len(enumerate_multipartitions(l, n))
    _report(3, "fixed-point counting law and big-k singletons", t0, 10, ok)


def test_criterion_4_pairing_coxeter_dictionary():
    t0 = time.time()
    rng = random.Random(4)
    ok = True
    for l in (2, 3, 4, 5):
        for _ in range(1000):
            d = tuple(rng.randint(-5, 7) for _ in range(l))
            th = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(l))
            j = rng.randrange(l)
            ok &= pairing(reflect_dim(j, d), reflect_theta(j, th)) == \
                pairing(d, th) - (th[0] if j == 0 else 0)
    for l in (2, 3, 4, 5):
        for _ in range(100):
            d = tuple(rng.randint(-5, 5) for _ in range(l))
            th = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(l))
            i = rng.randrange(l)
            for op, x in ((reflect_dim, d), (reflect_theta, th)):
                ok &= op(i, op(i, x)) == x
                if l >= 3:
                    j = (i + 1) % l
                    ok &= op(i, op(j, op(i, x))) == op(j, op(i, op(j, x)))
                if l >= 4:
                    j = (i + 2) % l
                    ok &= op(i, op(j, x)) == op(j, op(i, x))
    for (l, n) in ((2, 2), (2, 3), (3, 2)):
        for _ in range(1000):
            p = _rand_params(rng, l)
            ok &= smooth_quiver(theta_from_ak(p), n) == smooth_gl1n(p, n)
    _report(4, "pairing identity, Coxeter relations, smoothness dictionary", t0, 30, ok)


def test_criterion_5_transport_coherence():
    t0 = time.time()
    rng = random.Random(5)
    ok = True
    for (l, n, k) in DELTA_GRID:
        for d in enumerate_E(k, l, n):
            for _ in range(5):
                p = _rand_params(rng, l)
                t1 = transport(p, k, d)
                t2 = transport_via_theta(p, k, d)
                ok &= t1 == t2  # as sequences under the fixed witness
                ok &= sorted(t1.k) == sorted(t2.k)  # and as multisets
                ok &= sum(t1.k) == 0 and t1.a == k * p.a
    # linearity at fixed d
    for (l, k) in ((2, 2), (3, 2), (1, 3)):
        m = k * l
        for _ in range(40):
            d = tuple(rng.randint(-2, 3) for _ in range(m))
            p1, p2 = _rand_params(rng, l), _rand_params(rng, l)
            ps = ParamSet(l, p1.a + p2.a, tuple(x + y for x, y in zip(p1.k, p2.k)))
            t1, t2, ts = transport(p1, k, d), transport(p2, k, d), transport(ps, k, d)
            ok &= ts.a == t1.a + t2.a
            ok &= ts.k == tuple(x + y for x, y in zip(t1.k, t2.k))
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            pc = ParamSet(l, c * p1.a, tuple(c * x for x in p1.k))
            tc = transport(pc, k, d)
            ok &= tc.a == c * t1.a and tc.k == tuple(c * x for x in t1.k)
    _report(5, "transport routes agree and transport is linear", t0, 10, ok)


def test_criterion_6_filtration():
    t0 = time.time()
    ok = True
    for (l, n, k) in FILTRATION_GRID:
        for gamma in enumerate_core_tuples(k, l, n):
            rep = verify_filtration(l, n, k, gamma)
            ok &= rep.passed
    _report(6, "restriction respects the codimension filtration (default labels)",
            t0, 300, ok)


def test_criterion_7_character_table_integrity():
    t0 = time.time()
    ok = True
    for (l, n) in TABLE_SIZES:
        t = character_table(l, n)
        W = t.order
        inv = [t.classes.index(inverse_class(c)) for c in t.classes]
        nl = len(t.labels)
        for a in range(nl):
            for b in range(a, nl):
                s = CyclotomicNumber.zero(l)
                for ci in range(len(t.classes)):
                    s = s + t.values[a][ci] * t.values[b][inv[ci]] * t.sizes[ci]
                ok &= s == (W if a == b else 0)
        for ci in range(len(t.classes)):
            for di in range(ci, len(t.classes)):
                s = CyclotomicNumber.zero(l)
                for a in range(nl):
                    s = s + t.values[a][ci] * t.values[a][inv[di]]
                ok &= s == (W // t.sizes[ci] if ci == di else 0)
        ok &= sum(char_dimension(lam) ** 2 for lam in t.labels) == group_order(l, n)
    # full (2,2) table against the monomial-matrix oracle
    info, brute_rows = brute_table_212()
    t = character_table(2, 2)
    ok &= {ct: s for ct, s in info} == dict(zip(t.classes, t.sizes))
    ours = []
    for li in range(len(t.labels)):
        row = {}
        for ci, ctype in enumerate(t.classes):
            v = t.values[li][ci]
            ok &= v.is_rational()
            row[ctype] = v.to_rational()
        ours.append(row)
    canon = lambda rows: sorted(tuple(sorted(r.items())) for r in rows)
    ok &= canon(ours) == canon(brute_rows)
    _report(7, "character tables exact: orthogonality, sum rule, brute-force match",
            t0, 60, ok)


def test_criterion_8_quiver_identities():
    t0 = time.time()
    rng = random.Random(8)
    ok = True
    count = 0
    while count < 1000:
        m = rng.choice((2, 3, 4, 5, 6))
        l = rng.choice([x for x in range(1, m + 1) if m % x == 0])
        k = m // l
        d = tuple(rng.randint(0, 3) for _ in range(m))
        rep = random_rep(d, rng)
        mm = moment_map(rep)
        ok &= sum((x.trace() for x in mm), Fraction(0)) == 0
        big = block_immersion(rep, l)
        mb = moment_map(big)
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
                    ok &= B.data[r][c] == want
        count += 1
    # scaling vs central conjugation
    for l in (2, 3, 4):
        z = zeta(l)
        rep = random_rep(tuple(rng.randint(1, 2) for _ in range(l)), rng)
        g = [Mat.scalar(rep.d[i], z ** i) for i in range(l)]
        ok &= gl_action(g, rep) == scale_action(z, rep)
    _report(8, "block identity on 1000 reps, trace telescoping, scaling identity",
            t0, 30, ok)


def test_criterion_9_g4_surfaces():
    t0 = time.time()
    rng = random.Random(9)
    ok = True
    for _ in range(100):
        k0 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        k1 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        k2 = -k0 - k1
        s4 = cyclic_cm_polynomial(g4_component_cyclic_params(4, k0, k1, k2))
        ok &= s4.root_multiset() == g4_surface_roots(4, k0, k1, k2)
        s6 = cyclic_cm_polynomial(g4_component_cyclic_params(6, k0, k1, k2))
        ok &= s6.root_multiset() == g4_surface_roots(6, k0, k1, k2)
        want = (k0 != 0 and k1 != 0 and k2 != 0
                and len({k0, k1, k2}) == 3)
        ok &= smooth_g4(k0, k1, k2) == want
    _report(9, "exceptional-group surfaces match cyclic data exactly", t0, 1, ok)
