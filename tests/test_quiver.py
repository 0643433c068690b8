import random
from collections import Counter
from fractions import Fraction
from math import isqrt, lcm

import pytest

from cmfix.arith import zeta
from cmfix.linalg import Mat
from cmfix.parameters import theta_concat
from cmfix.quiver import (
    QuiverRep,
    SimplicityResult,
    block_immersion,
    gl_action,
    in_deformed_fiber,
    moment_map,
    norton_simplicity,
    random_rep,
    scale_action,
)
from cmfix import linalg, quiver
from cmfix.cli import _read_rep
from cmfix.linalg import normal_form
from cmfix.quiver import (
    P,
    _charpoly,
    _cleared,
    _embed_blocks,
    _mod_p,
    _spin,
    _spins_whole_mod_p,
    _trial_matrix,
)
from cmfix.roots import _LONG, _ROOT_CAP, _TRIAL, _divisors, _primes, rational_roots
from oracles import (
    charpoly_fractions,
    divisors_loop,
    norton_undeferred,
    rational_roots_fractions,
    rref_rows,
    spin_closure,
    total_matrix,
)
from test_golden import norton_family
from workloads import NORTON_SEED, quiver_reps


def in_fiber(rep, theta):
    """in_deformed_fiber at rep's own moment map and dimension vector."""
    return in_deformed_fiber(moment_map(rep), rep.d, theta)


def test_mat_shapes_and_rank():
    a = Mat(2, 3, [[1, 2, 3], [2, 4, 6]])
    assert a.rank() == 1
    assert a.transpose().rank() == 1
    assert Mat.zeros(0, 3).rank() == 0
    assert Mat.zeros(3, 0).rank() == 0
    assert Mat.scalar(4, 1).rank() == 4
    b = Mat(2, 2, [[Fraction(1, 2), 0], [0, Fraction(3)]])
    assert b.inverse() * b == Mat.scalar(2, 1)
    assert len(a.nullspace()) == 2


def test_mat_rank_cyclotomic():
    z = zeta(4)
    # rows proportional: (z, 1) and (1, z^-1) = z^-1 * (z, 1)
    m = Mat(2, 2, [[z, 1], [1, z.inverse()]])
    assert m.rank() == 1


def test_rep_shape_validation():
    with pytest.raises(ValueError):
        QuiverRep((1, 2), (Mat(1, 1, [[1]]), Mat(2, 1, [[1], [0]])), (Mat(2, 1, [[0], [0]]), Mat(1, 2, [[0, 0]])))
    one = Mat(1, 1, [[1]])
    with pytest.raises(ValueError, match="need one X and one Y per vertex"):
        QuiverRep((1, 1), (one, one), (one,))
    with pytest.raises(ValueError, match="need one X and one Y per vertex"):
        QuiverRep((1, 1), (one,), (one, one))


def test_moment_map_zero_and_scalar():
    rep = QuiverRep((1,), (Mat(1, 1, [[3]]),), (Mat(1, 1, [[5]]),))
    assert moment_map(rep)[0] == Mat(1, 1, [[0]])
    z = random_rep((2, 1, 2), random.Random(0))
    zero = QuiverRep(z.d, tuple(Mat.zeros(m.rows, m.cols) for m in z.X),
                     tuple(Mat.zeros(m.rows, m.cols) for m in z.Y))
    assert all(m.is_zero() for m in moment_map(zero))


def test_trace_telescoping():
    rng = random.Random(17)
    for _ in range(300):
        m = rng.choice((1, 2, 3, 4, 6))
        d = tuple(rng.randint(0, 3) for _ in range(m))
        rep = random_rep(d, rng)
        assert sum((x.trace() for x in moment_map(rep)), Fraction(0)) == 0


def _block_structure_matches(rep, big, l):
    m = rep.l
    k = m // l
    mm, mb = moment_map(rep), moment_map(big)
    for i in range(l):
        js = [i + t * l for t in range(k)]
        offs, off = [], 0
        for j in js:
            offs.append(off)
            off += rep.d[j]
        B = mb[i]
        assert B.rows == off
        for r in range(B.rows):
            rb = max(t for t, o in enumerate(offs) if o <= r)
            for c in range(B.cols):
                cb = max(t for t, o in enumerate(offs) if o <= c)
                want = (
                    mm[js[rb]].data[r - offs[rb]][c - offs[cb]] if rb == cb else 0
                )
                if B.data[r][c] != want:
                    return False
    return True


def test_block_identity_random():
    rng = random.Random(23)
    count = 0
    while count < 300:
        m = rng.choice((2, 3, 4, 5, 6))
        divs = [x for x in range(1, m + 1) if m % x == 0]
        l = rng.choice(divs)
        d = tuple(rng.randint(0, 3) for _ in range(m))
        rep = random_rep(d, rng)
        assert _block_structure_matches(rep, block_immersion(rep, l), l)
        count += 1


def test_block_immersion_k1_is_identity():
    rep = random_rep((2, 0, 3), random.Random(1))
    out = block_immersion(rep, 3)
    assert out.X == rep.X and out.Y == rep.Y and out.d == rep.d


def test_block_immersion_is_injective():
    rng = random.Random(2)
    reps = [random_rep((1, 1, 1, 1), rng) for _ in range(20)]
    images = [block_immersion(r, 2) for r in reps]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if reps[i] != reps[j]:
                assert images[i] != images[j]


def test_fiber_membership_l1():
    # scalars commute: any 1-dimensional rep lies in the fiber at theta = (-a)
    rng = random.Random(3)
    for _ in range(25):
        rep = QuiverRep(
            (1,),
            (Mat(1, 1, [[rng.randint(-5, 5)]]),),
            (Mat(1, 1, [[rng.randint(-5, 5)]]),),
        )
        assert in_fiber(rep, (Fraction(-rng.randint(1, 5)),))


def test_fiber_membership_zero_rep():
    rep = QuiverRep((1, 1), (Mat(1, 1, [[0]]),) * 2, (Mat(1, 1, [[0]]),) * 2)
    assert in_fiber(rep, (Fraction(0), Fraction(0)))
    assert not in_fiber(rep, (Fraction(0), Fraction(1)))


def test_fiber_perturbation_detected():
    a = Fraction(3)
    th = theta_concat((-a,), 2)
    rep = QuiverRep(
        (1, 1),
        (Mat(1, 1, [[2]]), Mat(1, 1, [[2 - a]])),
        (Mat(1, 1, [[1]]), Mat(1, 1, [[1]])),
    )
    assert in_fiber(rep, th)
    bad = QuiverRep(rep.d, rep.X, (rep.Y[0], Mat(1, 1, [[2]])))
    assert not in_fiber(bad, th)


def test_membership_transport_through_block_immersion():
    # hand-built fiber members over Z/4Z collapsing to Z/2Z (l=2, k=2)
    a, b = Fraction(2), Fraction(1, 3)
    from cmfix.parameters import ParamSet, theta_from_ak

    p = ParamSet(2, a, (-b, b))
    th = theta_from_ak(p)
    thk = theta_concat(th, 2)
    # d = (1,1,1,1): scalar entries x_i, y_i with x_i y_i - y_{i-1} x_{i-1} = thk_i
    # for i != 0; choose products p_i = x_i y_i cumulatively
    prod = [Fraction(0)] * 4
    prod[0] = Fraction(5)
    for i in (1, 2, 3):
        prod[i] = thk[i] + prod[i - 1]
    rep = QuiverRep(
        (1, 1, 1, 1),
        tuple(Mat(1, 1, [[prod[i]]]) for i in range(4)),
        tuple(Mat(1, 1, [[1]]) for _ in range(4)),
    )
    assert in_fiber(rep, thk)
    assert in_fiber(block_immersion(rep, 2), th)


def test_scale_action_group_law_and_moment_invariance():
    rng = random.Random(29)
    rep = random_rep((2, 1, 2), rng)
    a, b = Fraction(3, 2), Fraction(-7, 5)
    assert scale_action(a, scale_action(b, rep)) == scale_action(a * b, rep)
    assert scale_action(Fraction(1), rep) == rep
    assert moment_map(scale_action(a, rep)) == moment_map(rep)
    with pytest.raises(ValueError):
        scale_action(0, rep)


def test_scale_action_cyclotomic():
    rep = random_rep((1, 1, 1), random.Random(5))
    z = zeta(3)
    assert scale_action(z ** 2, scale_action(z, rep)) == rep  # z^3 = 1


def test_g0_conjugation_identity():
    rng = random.Random(31)
    for l in (2, 3, 4):
        z = zeta(l)
        rep = random_rep(tuple(rng.randint(1, 2) for _ in range(l)), rng)
        g = [Mat.scalar(rep.d[i], z ** i) for i in range(l)]
        assert gl_action(g, rep) == scale_action(z, rep)


def test_fiber_invariance_under_gl():
    rng = random.Random(37)
    a = Fraction(2)
    th = theta_concat((-a,), 2)
    rep = QuiverRep(
        (2, 1),
        (Mat(2, 1, [[1], [0]]), Mat(1, 2, [[0, 1]])),
        (Mat(1, 2, [[1, 1]]), Mat(2, 1, [[1], [1]])),
    )
    # engineer membership: too fiddly by hand; only check invariance of the
    # membership VERDICT under conjugation
    def rand_inv(nn):
        while True:
            m = Mat(nn, nn, [[Fraction(rng.randint(-3, 3)) for _ in range(nn)]
                             for _ in range(nn)])
            try:
                m.inverse()
                return m
            except ValueError:
                continue

    for _ in range(10):
        g = [rand_inv(2), rand_inv(1)]
        assert in_fiber(gl_action(g, rep), th) == in_fiber(rep, th)


def test_simplicity_zero_reps():
    rep = QuiverRep((2,), (Mat.zeros(2, 2),), (Mat.zeros(2, 2),))
    res = norton_simplicity(rep)
    assert res.status == "NotSimple"
    assert res.witness is not None
    one = QuiverRep((1,), (Mat(1, 1, [[0]]),), (Mat(1, 1, [[0]]),))
    assert norton_simplicity(one).status == "Simple"
    empty = QuiverRep((0, 0), (Mat.zeros(0, 0),) * 2, (Mat.zeros(0, 0),) * 2)
    assert norton_simplicity(empty).status == "NotSimple"


def test_simplicity_direct_sum_detected():
    rep = QuiverRep(
        (2,),
        (Mat(2, 2, [[1, 0], [0, 2]]),),
        (Mat(2, 2, [[1, 0], [0, 1]]),),
    )
    res = norton_simplicity(rep, seed=1)
    assert res.status == "NotSimple"
    # witness spans a proper nonzero graded subspace
    dims = sum(len(b) for b in res.witness)
    assert 0 < dims < 2


def test_simplicity_certified():
    rep = QuiverRep(
        (2,),
        (Mat(2, 2, [[0, 1], [0, 0]]),),
        (Mat(2, 2, [[0, 0], [1, 0]]),),
    )
    res = norton_simplicity(rep, seed=11, budget=64)
    assert res.status == "Simple"
    # a 2-vertex simple representation
    rep2 = QuiverRep(
        (1, 1),
        (Mat(1, 1, [[1]]), Mat(1, 1, [[1]])),
        (Mat(1, 1, [[1]]), Mat(1, 1, [[2]])),
    )
    res2 = norton_simplicity(rep2, seed=11, budget=64)
    assert res2.status == "Simple"


def test_simplicity_hidden_eigenline():
    # X = 0, Y = swap: both coordinate vectors generate everything, yet the
    # eigenlines of Y are proper subrepresentations; only the random-kernel
    # phase can see them
    rep = QuiverRep(
        (2,),
        (Mat.zeros(2, 2),),
        (Mat(2, 2, [[0, 1], [1, 0]]),),
    )
    res = norton_simplicity(rep, seed=2, budget=64)
    assert res.status == "NotSimple"
    dims = sum(len(b) for b in res.witness)
    assert dims == 1


def test_simplicity_terminates_on_a_calogero_moser_point():
    # Jordan quiver, X = diag(x), Y_ij = 1/(x_i - x_j) off the diagonal: a
    # point of the Calogero-Moser fiber at theta = -1 whose random algebra
    # elements have huge characteristic-polynomial constants; the bounded
    # rational-root search keeps the test fast and the verdict sound
    rng = random.Random(0)
    n = 7
    xs = rng.sample(range(-20, 21), n)
    X = Mat(n, n, [[Fraction(xs[i]) if i == j else 0 for j in range(n)] for i in range(n)])
    Y = Mat(n, n, [[Fraction(rng.randint(-5, 5)) if i == j else Fraction(1, xs[i] - xs[j])
                    for j in range(n)] for i in range(n)])
    rep = QuiverRep((n,), (X,), (Y,))
    assert in_fiber(rep, (Fraction(-1),))
    assert norton_simplicity(rep, seed=0).status in {"Simple", "Unknown"}


def spin_family():
    """150 random (rep, seeds) with zero dimensions, zero arrows and zero seeds."""
    rng = random.Random(23)
    for _ in range(150):
        l = rng.randint(1, 4)
        d = tuple(rng.randint(0, 3) for _ in range(l))
        rep = random_rep(d, rng, -2, 2)
        rep = QuiverRep(
            d,
            tuple(Mat.zeros(m.rows, m.cols) if rng.random() < 0.3 else m for m in rep.X),
            tuple(Mat.zeros(m.rows, m.cols) if rng.random() < 0.3 else m for m in rep.Y),
        )
        verts = [i for i in range(l) if d[i]]
        seeds = [(i, tuple(rng.randint(-1, 1) for _ in range(d[i])))
                 for i in (rng.choices(verts, k=rng.randint(1, 2)) if verts else ())]
        yield rep, seeds


def test_spin_matches_brute_force_closure():
    # _spin stops early and skips full vertices, which must not change the
    # row spaces it returns
    kinds = set()
    for rep, seeds in spin_family():
        d = rep.d
        bases = _spin(rep, seeds)
        assert [rref_rows(b, d[i]) for i, b in enumerate(bases)] == spin_closure(rep, seeds)
        total = sum(len(b) for b in bases)
        kinds.add("zero" if total == 0 else "whole" if total == sum(d) else "proper")
    assert kinds == {"zero", "proper", "whole"}


def _whole_mod_p(rep, seeds):
    # the certificate as norton_simplicity asks it: cleared arrows, seeds in normal_form
    X, Y = ([_mod_p(_cleared(m)[1]) for m in ms] for ms in (rep.X, rep.Y))
    return _spins_whole_mod_p(rep.d, X, Y, [(i, normal_form(v)) for i, v in seeds])


def test_a_whole_spin_mod_p_is_a_whole_spin():
    # the spin family, and the seeds of the Norton family one at a time and
    # all together, on the representation and on its dual
    cases = list(spin_family())
    for _, rep, seeds in norton_family():
        dual = QuiverRep(rep.d, tuple(m.transpose() for m in rep.Y),
                         tuple(m.transpose() for m in rep.X))
        for side in (rep, dual):
            cases += [(side, [s]) for s in seeds] + [(side, seeds)]
    seen = set()
    for rep, seeds in cases:
        mod_p = _whole_mod_p(rep, seeds)
        exact = sum(map(len, _spin(rep, seeds))) == sum(rep.d)
        assert exact or not mod_p, (rep, seeds)
        seen.add((mod_p, exact))
    assert {(True, True), (False, False)} <= seen


def unlucky_family():
    """Every third rep of the Norton family with every arrow times P, and its index."""
    for i, rep, _ in norton_family():
        if i % 3 == 0:
            yield i, QuiverRep(rep.d, tuple(m.scale(P) for m in rep.X),
                               tuple(m.scale(P) for m in rep.Y))


def test_an_unlucky_prime_changes_no_result(monkeypatch):
    # every arrow times P: every image vanishes mod P, so only seed lists that
    # span the whole space by themselves are certified, and the results must be
    # those of the exact spins alone
    reps = list(unlucky_family())
    for _, rep in reps:
        assert not any(x for m in rep.X + rep.Y for row in _mod_p(_cleared(m)[1]) for x in row)
    got = [norton_simplicity(rep, seed=i, budget=16) for i, rep in reps]
    monkeypatch.setattr(quiver, "_spins_whole_mod_p", lambda *a: False)
    assert got == [norton_simplicity(rep, seed=i, budget=16) for i, rep in reps]
    assert "Simple" in {r.status for r in got}
    assert any(r.status == "NotSimple" and r.witness is not None for r in got)


def test_simplicity_rejects_cyclotomic_entries():
    rep = scale_action(zeta(3), random_rep((2, 1, 2), random.Random(3)))
    with pytest.raises(ValueError, match="rational matrix entries"):
        norton_simplicity(rep)


def test_divisors_match_the_bounded_loop():
    for x in range(1, 10_000):
        assert _divisors(x, 400) == divisors_loop(x, 400)
    # a perfect square lists its root twice, and small caps cut the list short
    for cap in (1, 2, 3, 5, 8):
        for x in [r * r for r in range(1, 60)] + list(range(1, 3000)):
            assert _divisors(x, cap) == divisors_loop(x, cap)
    # above cap**4 the search stops at d = cap**2; the last three have a
    # prime cofactor above cap**2, the product of two, and 12 (2^61 - 1)
    for cap, x in ((4, 257), (4, 6 * 7 * 11 * 13), (7, 7 ** 4 * 11 * 13 + 1),
                   (20, 2 ** 40 - 1), (400, 400 ** 4 + 1), (400, 1_000_003 * 1_000_033),
                   (400, 2 ** 5 * 3 ** 2 * 7 * (2 ** 31 - 1)),
                   (400, 360 * 1_000_003 * 1_000_033), (400, 12 * (2 ** 61 - 1))):
        assert x > cap ** 4
        assert _divisors(x, cap) == divisors_loop(x, cap)


def test_only_a_long_divisor_search_builds_the_prime_table():
    # the cofactor of 2^3 5^2 7 11^2 17 19 47 is a prime above 10^18, but its
    # 200th divisor, 10340, ends the search before _LONG; 6 (2^61 - 1) has
    # four divisors, so its search runs to cap**2 through the prime table
    _primes.cache_clear()
    x = 2902262499892660712835273400
    assert _divisors(x, 400) == divisors_loop(x, 400)
    assert divisors_loop(x, 400)[-2] == 10340 and _TRIAL < 10340 < _LONG
    assert _primes.cache_info().currsize == 0
    x = 6 * (2 ** 61 - 1)
    assert _divisors(x, 400) == divisors_loop(x, 400)
    assert _primes.cache_info().currsize == 1
    assert _primes(3000) == [p for p in range(_TRIAL + 1, 3001)
                             if all(p % q for q in range(2, isqrt(p) + 1))]


def primitive(coeffs):
    # a rational polynomial times the lcm of its denominators, as the root search takes it
    den = lcm(*(c.denominator for c in coeffs))
    return [int(c * den) for c in coeffs]


def int_charpoly(a: Mat, k: int = 1):
    # _charpoly of the int matrix L*a at scale L, L k times the lcm of a's denominators
    L = k * lcm(*(Fraction(x).denominator for row in a.data for x in row))
    return _charpoly([[int(L * x) for x in row] for row in a.data], L)


def test_charpoly_matches_the_fraction_recursion():
    # mixed int and Fraction entries, all-int matrices, zero matrices, and
    # sparse matrices whose zero rows and columns _charpoly splits off; the
    # integer polynomial is the same for every positive multiple of the matrix
    rng = random.Random(13)
    for i in range(160):
        n = rng.randint(0, 12)
        if i % 4 == 0:
            a = Mat.zeros(n, n)
        elif i % 4 == 1:
            a = Mat(n, n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        else:
            density = 0.15 if i % 4 == 3 else 1
            a = Mat(n, n, [[0 if rng.random() > density
                            else Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.7
                            else rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        want = primitive(charpoly_fractions(a))
        assert int_charpoly(a) == want, a
        assert int_charpoly(a, rng.randint(2, 9)) == want, a


def test_root_search_matches_the_fraction_evaluation():
    # triangular matrices with repeated zero and small rational eigenvalues,
    # random matrices with zero columns, and highly composite diagonals whose
    # divisor pairs exceed _ROOT_CAP, so that only small roots are looked for
    rng = random.Random(19)
    seen = set()
    for i in range(240):
        n = rng.randint(1, 8)
        if i % 3 == 0:
            diag = [rng.choice((0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-3, 4))) for _ in range(n)]
        elif i % 3 == 2:
            diag = [rng.choice((2, -3, 360, 720, -840, 2520, 5040, -27720)) for _ in range(n)]
        if i % 3 == 1:
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)]
            for c in rng.sample(range(n), rng.randint(0, n)):
                for row in rows:
                    row[c] = 0
        else:
            rows = [[diag[r] if r == c else rng.randint(-3, 3) if c > r else 0
                     for c in range(n)] for r in range(n)]
        z = Mat(n, n, rows)
        roots = rational_roots(int_charpoly(z), P)
        assert roots == rational_roots_fractions(z, _ROOT_CAP), rows
        poly = charpoly_fractions(z)
        zeros = next(k for k in range(n + 1) if poly[n - k] != 0)
        ints = primitive(poly[:n + 1 - zeros])
        capped = len(_divisors(abs(ints[-1]), _ROOT_CAP)) \
            * len(_divisors(ints[0], _ROOT_CAP)) > _ROOT_CAP
        seen.add(("zeros>1" if zeros > 1 else "zeros<=1", capped, any(roots)))
    assert {("zeros>1", False, True), ("zeros<=1", True, True), ("zeros<=1", False, True),
            ("zeros<=1", False, False)} <= seen


def test_the_root_filter_survives_an_unlucky_prime():
    # x - (P + 1) vanishes mod P at the candidate 1, which is no root; the
    # candidates of P x^2 - (3P + 1) x + 3 include 1/P and 3/P, whose q = P
    # has no inverse mod P
    assert (1 - (P + 1)) % P == 0
    assert rational_roots([1, -(P + 1)], P) == [P + 1]
    for rows in ([[P + 1]], [[Fraction(1, P), 0], [5, 3]], [[Fraction(1, P)]]):
        z = Mat(len(rows), len(rows), rows)
        roots = rational_roots(int_charpoly(z), P)
        assert roots == rational_roots_fractions(z, _ROOT_CAP), rows
    assert roots == [Fraction(1, P)]
    assert rational_roots([P, -(3 * P + 1), 3], P) == [Fraction(1, P), 3]


def test_trial_matrix_is_the_cleared_sum_of_embedded_products():
    # L z on cleared arrows, against L times the sum of each coefficient times
    # the word's product of n x n embeddings; arrows with different
    # denominators, zero-dimensional vertices and words that do not compose
    rng = random.Random(31)
    seen = set()
    for _ in range(300):
        l = rng.randint(1, 4)
        d = tuple(rng.choice((0, 1, 2, 3)) for _ in range(l))
        rep = random_rep(d, rng)
        if rng.random() < 0.7:
            def frac(m):
                den = rng.choice((1, 2, 3, 4, 6, 35))
                return Mat(m.rows, m.cols, [[Fraction(x, rng.choice((1, den))) for x in row]
                                            for row in m.data])
            rep = QuiverRep(d, tuple(map(frac, rep.X)), tuple(map(frac, rep.Y)))
        terms = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                word = [(rng.choice("xy"), rng.randrange(l)) for _ in range(rng.randint(1, 5))]
            else:
                # a walk: each letter leaves the vertex the previous one entered
                v = rng.randrange(l)
                word = []
                for _ in range(rng.randint(1, 5)):
                    kind = rng.choice("xy")
                    word.append((kind, v if kind == "y" else (v - 1) % l))
                    v = (v + (1 if kind == "y" else -1)) % l
            terms.append((word, rng.choice((-5, -2, 1, 3))))
        n = sum(d)
        offs = [sum(d[:i]) for i in range(l)]
        cleared = [_cleared(m) for m in rep.X + rep.Y]
        arrow = {(kind, i): (s, t, *cleared[h + i]) for i in range(l)
                 for kind, s, t, h in (("x", (i + 1) % l, i, 0), ("y", i, (i + 1) % l, l))}
        words = [([arrow[a] for a in word], coeff) for word, coeff in terms]
        L, z = _trial_matrix(d, words)
        total = Mat.zeros(n, n)
        for word, coeff in terms:
            total = total + total_matrix(rep, word, n, offs).scale(coeff)
        assert L >= 1 and all(type(x) is int for row in z for x in row)
        assert Mat(n, n, z) == total.scale(L), (d, terms)
        stray = any(b[0] != a[1] for w, _ in words for a, b in zip(w, w[1:]))
        seen.add((len({den for den, _ in cleared}) > 2, 0 in d, stray, total.is_zero(), l))
    # every kind of case was met, each with some z != 0, and every l
    assert {(True, True, True, False), (True, False, True, False),
            (True, False, False, False)} <= {s[:4] for s in seen}
    assert {s[4] for s in seen} == {1, 2, 3, 4}


@pytest.mark.parametrize("budget", [0, -3])
def test_simplicity_without_budget_is_unknown(budget):
    rep = random_rep((2, 1, 1), random.Random(1))
    assert norton_simplicity(rep).status == "Simple"
    assert norton_simplicity(rep, budget=budget) == SimplicityResult("Unknown", trials=0)


def random_family():
    """600 random representations, l <= 3, d_i <= 2, entries in {-1, 0, 1} and
    about half the arrows zero, each with a Norton seed."""
    rng = random.Random(5)
    for _ in range(600):
        l = rng.randint(1, 3)
        d = tuple(rng.randint(0, 2) for _ in range(l))
        rep = random_rep(d, rng, -1, 1)
        X, Y = ([Mat.zeros(m.rows, m.cols) if rng.random() < 0.5 else m for m in ms]
                for ms in (rep.X, rep.Y))
        yield QuiverRep(d, tuple(X), tuple(Y)), rng.randrange(1000)


def hidden_sums():
    """150 direct sums of two random representations, d_i in {1, 2} and
    entries in [-2, 2], under a random change of basis at every vertex, each
    with a Norton seed.

    Every fifth sums two copies of one representation, d_i = 2 and entries
    in [-1, 1], so that every root has a kernel of dimension at least 2 and
    none decides.  The
    coordinate vectors rarely lie in a summand, so many of these are found
    reducible only by a trial's kernel vectors.
    """
    rng = random.Random(9)
    for i in range(150):
        l = rng.randint(1, 3)
        if i % 5:
            a, b = (random_rep(tuple(rng.randint(1, 2) for _ in range(l)), rng, -2, 2)
                    for _ in range(2))
        else:
            a = b = random_rep((2,) * l, rng, -1, 1)
        d = tuple(x + y for x, y in zip(a.d, b.d))
        X, Y = ([_embed_blocks(m.rows + k.rows, m.cols + k.cols, [(0, 0, m), (m.rows, m.cols, k)])
                 for m, k in zip(ms, ks)] for ms, ks in ((a.X, b.X), (a.Y, b.Y)))
        g = []
        for di in d:
            m = Mat.zeros(di, di)
            while m.rank() < di:
                m = Mat(di, di, [[rng.randint(-2, 2) for _ in range(di)] for _ in range(di)])
            g.append(m)
        yield gl_action(g, QuiverRep(d, tuple(X), tuple(Y))), rng.randrange(1000)


@pytest.fixture
def reads(monkeypatch):
    """(built, read), emptied by ``norton_simplicity`` when a test runs it:
    each echelon it builds with the trial it was built in, and each echelon
    whose kernel it reads."""
    built, read = [], []
    trial_matrix, run = quiver._trial_matrix, quiver.norton_simplicity

    def trial(d, terms):
        trial.count += 1
        return trial_matrix(d, terms)

    def echelon(data):
        built.append((trial.count, linalg._echelon(data)))
        return built[-1][1]

    def kernel(echelon, cols):
        read.append(echelon)
        return linalg.kernel(echelon, cols)

    def norton(*args, **kwargs):
        trial.count = 0
        built.clear()
        read.clear()
        return run(*args, **kwargs)

    monkeypatch.setattr(quiver, "_trial_matrix", trial)
    monkeypatch.setattr(quiver, "_echelon", echelon)
    monkeypatch.setattr(quiver, "kernel", kernel)
    return norton, built, read


def test_deferring_the_undecisive_roots_changes_no_result(reads):
    # norton_undeferred reads both kernels of every root and spins every
    # kernel vector; the deferring loop must find the same status, trial count
    # and witness, also when a wide root's witness must win over a later
    # decisive root's, and when it turns up only once the budget is spent
    norton, built, _ = reads
    cases = [(rep, i, 16) for i, rep, _ in norton_family()]
    cases += [(rep, s, 32) for rep, s in random_family()]
    cases += [(rep, s, 32) for rep, s in hidden_sums()]
    cases += [(rep, i, 16) for i, rep in unlucky_family()]
    paths = Counter()
    for rep, seed, budget in cases:
        got = norton(rep, seed=seed, budget=budget)
        want = norton_undeferred(rep, seed, budget)
        assert (got.status, got.trials, got.witness) == (want.status, want.trials, want.witness)
        if got.status == "NotSimple" and got.trials:
            # the trial of the decisive root: the first echelon of rank n - 1
            n = sum(rep.d)
            last = next((t for t, e in built if len(e[1]) == n - 1), None)
            paths["budget spent" if last is None else
                  "wide root first" if got.trials < last else "decisive root"] += 1
    assert set(paths) == {"budget spent", "wide root first", "decisive root"}


def test_kernels_are_read_only_where_the_verdict_needs_them(reads):
    norton, built, read = reads
    reps = {stem: _read_rep(obj) for stem, obj in quiver_reps(1, False).items()}
    seen = {}
    for stem in ("zero-arrow-222222", "generic-3333", "generic-444"):
        rep = reps[stem]
        res = norton(rep, seed=NORTON_SEED)
        echelons = [e for _, e in built]
        n = sum(rep.d)
        if res.status == "Simple":
            # one decisive root, the last one seen: its kernel, then its
            # transpose's; every earlier root was too wide to decide
            *wide, last, dual = echelons
            assert wide and all(len(e[1]) < n - 1 for e in wide)
            assert len(last[1]) == len(dual[1]) == n - 1
            assert list(map(id, read)) == [id(last), id(dual)]
            seen[stem] = (res.status, res.trials, len(wide) + 1)
        else:
            # Unknown: every root settled after the last trial, in trial order,
            # each primal kernel followed by its transpose's
            roots = len(echelons) // 2
            assert all(len(e[1]) < n - 1 for e in echelons[:roots])
            assert list(map(id, read)) == [id(e) for pair in zip(echelons[:roots], echelons[roots:])
                                           for e in pair]
            seen[stem] = (res.status, res.trials, roots)
    # (status, trials, roots seen): one root a trial; norton_undeferred reads
    # two kernels at every root, 150 in all, against 2 + 2 + 64 here
    assert seen == {"zero-arrow-222222": ("Simple", 16, 16), "generic-3333": ("Simple", 27, 27),
                    "generic-444": ("Unknown", 32, 32)}
