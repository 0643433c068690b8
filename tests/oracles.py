"""Independent brute-force oracles used by the tests.

Nothing here shares an algorithm with the library paths it checks: cores are
recomputed by exhaustive removal search, symmetric-group characters by the
permutation-module construction (fixed tabloids + orthogonalization against
dominance), the order-8 wreath group by literal monomial matrices, and the
component index set by direct search over bounded integer vectors.

The one exception is ``restrict_round_trip``: it is the restriction through
the central characters of ``wreath`` (``to_omega`` -> embed -> ``from_omega``)
with the fibre labelled by a given map.  ``wreath.i_gamma_star`` runs the
same algorithm with the fibre of ``partitions.core_fibres``, so with
``partitions.beta_flat_k_gamma`` the round trip checks only that fibre and
its labels, and with the unreversed interleaving ``beta_unreversed`` the
only thing the sign-twist identity test compares is the label map.

Six more are earlier versions of a library routine, kept as the reference
for a rewrite that must return the same values: ``nullspace_rref`` (the
kernel read off the rref, which ``linalg.kernel`` reads off the unsorted
echelon rows), ``norton_undeferred`` (Norton's test with both kernels and
their spins at every root, which ``quiver.norton_simplicity`` reads only at
the roots whose verdict needs them), ``divisors_loop`` (the bounded trial
division by every integer, which ``roots._divisors`` builds from the prime
factors it divides out), ``charpoly_fractions`` (Faddeev-LeVerrier over
Fraction, which ``quiver._charpoly`` runs on the int matrix L z and returns
as a primitive int polynomial), ``rational_roots_fractions`` (the root
search with each candidate summed in Fraction powers, which
``roots.rational_roots`` filters mod P and evaluates by int Horner) and
``total_matrix`` (a word in the arrows as a product of n x n embeddings,
which ``quiver._trial_matrix`` multiplies as int blocks of the cleared
arrows and sums into L z).

``beta_flat_k_gamma_inverse`` is the inverse interleaving, rebuilt component
by component with ``from_core_and_quotient``.  The package labels components
through the forward ``partitions.beta_flat_k_gamma`` alone; this is the
reference that the forward map is checked against.

``beta_flat_via_kl_quotient`` is a second route to the same labels: one
kl-abacus of the partition whose l-quotient is the label, read slot by slot.

``char_rec`` is the Murnaghan-Nakayama rule for G(l,1,n) one entry at a
time: chi_lam on a class's (length, colour) cycles, longest first, by
removing a rim hook of the first cycle's length from each component in turn,
memoised per (label, remaining cycles).  ``wreath.character_table`` computes
the same values a column at a time; this is the reference for its ``raw``.

``smooth_gl1n_fractions`` and ``smooth_quiver_fractions`` are the
smoothness predicates as products of Fraction factors, one test per pair
(or segment) and per multiple of a (or sigma): the reference for
``parameters.smooth_gl1n`` and ``smooth_quiver``, which decide the same
product with one exact integer division per pair over a common denominator.

``theta_from_ak_fractions`` and ``transport_fractions`` are the quiver
dictionary and the closed-form parameter transport entry by entry in
Fraction arithmetic: the reference for ``parameters.theta_from_ak`` and
``transport``, which compute on the numerators of (a, k) over one common
denominator and build one Fraction per entry.

``component_json`` is a catalog descriptor as the structure
``json.dumps(..., indent=2)`` prints for ``components --format json``: the
reference for the CLI, which writes each label as one text.  ``rep_json``
is a representation with rational entries as a ``--rep`` file holds it; no
command writes one, so the tests write theirs with it.

``restriction_matrix_loop`` is the restriction matrix of ``wreath`` summed
coefficient by coefficient in Z[x]/(x^(kl) - 1), with each entry reduced
into a CyclotomicNumber and scaled.  It takes the fibre from
``partitions.core_fibres`` and each target label from ``beta_flat_k_gamma``,
and shares no other step with the two sides it checks: its rows are the
images of the class sums under ``wreath.i_gamma_star``, and its support is
what ``verify_filtration`` decodes from its Kronecker-packed integer rows.

``verify_filtration_per_gamma`` is the filtration check one call per gamma:
a call on a single gamma sums that gamma's own rows, so it is the reference
for the call on many, which sums one gamma per orbit of the label
symmetries and hands its report to the rest of the orbit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmfix.arith import CyclotomicNumber, embed, zeta
from cmfix.linalg import Mat, normal_form
from cmfix.quiver import (
    P,
    QuiverRep,
    SimplicityResult,
    _charpoly,
    _cleared,
    _embed_blocks,
    _mod_p,
    _spin,
    _spins_whole_mod_p,
    _trial_matrix,
)
from cmfix.roots import rational_roots
from cmfix.partitions import (
    _partition_from_beads,
    beta_flat_k_gamma,
    core,
    core_and_quotient,
    core_fibres,
    from_core_and_quotient,
    msize,
    partitions_of,
    quotient,
    residues,
)
from cmfix.affine_weyl import is_plus, sigma
from cmfix.parameters import ParamSet
from cmfix import wreath
from cmfix.wreath import character_table, from_omega, to_omega


# ---------------------------------------------------------------------------
# removal-sequence core oracle
# ---------------------------------------------------------------------------


def corner_removals(lam):
    """All partitions obtained by deleting one removable (corner) box."""
    out = []
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i] > lam[i + 1]:
            new = list(lam)
            new[i] -= 1
            out.append(tuple(p for p in new if p))
    return out


def _l_removals(lam, l):
    """Partitions reachable by removing l boxes covering all l residues."""
    level = {lam}
    for _ in range(l):
        level = {m for p in level for m in corner_removals(p)}
    want = tuple(x - 1 for x in residues(lam, l))
    return {m for m in level if residues(m, l) == want}


def is_core_oracle(lam, l) -> bool:
    return not _l_removals(lam, l)


def core_oracle(lam, l):
    """Exhaustive removal search; returns (core, number of removals)."""
    count = 0
    while True:
        nxt = _l_removals(lam, l)
        if not nxt:
            return lam, count
        lam = min(nxt)  # any choice reaches the same core
        count += 1


# ---------------------------------------------------------------------------
# conjugation, the sign character and the unreversed interleaving
# ---------------------------------------------------------------------------


def conjugate(lam):
    """The transposed partition: part j counts the parts of lam above j."""
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def conjugate_multi(lam):
    return tuple(conjugate(c) for c in lam)


def sign(ctype):
    """eps(C): the product of (-1)^(length - 1) over the cycles of the class."""
    return (-1) ** sum(a - 1 for comp in ctype for a in comp)


def beta_unreversed(lam, k):
    """Quotient t of component i fills slot i + t*l of the k*l-tuple."""
    l = len(lam)
    mu = [()] * (k * l)
    for i, c in enumerate(lam):
        for t, q in enumerate(quotient(c, k)):
            mu[i + t * l] = q
    return tuple(mu)


def beta_flat_k_gamma_inverse(mu, k, gamma):
    l = len(gamma)
    if len(mu) != k * l:
        raise ValueError("length mismatch")
    return tuple(
        from_core_and_quotient(gamma[i], tuple(mu[i + (k - 1 - t) * l] for t in range(k)), k)
        for i in range(l)
    )


def beta_flat_via_kl_quotient(lam, k, l):
    """The label of lam read off one kl-abacus, with that abacus's core and residues.

    nu_lam is the partition of size l*|lam| with empty l-core and l-quotient
    lam.  Returns its kl-core, its kl-quotient with runner i + t*l read as
    slot i + (k-1-t)*l, and its kl-residues.  For lam in the fibre of gamma
    these are nu_gamma (empty l-core, l-quotient gamma), beta_flat_k_gamma
    (lam, k, gamma) and the component's d: Littlewood's decomposition for
    l = 1.  Shares the abacus with ``core_fibres`` and nothing else.
    """
    m = k * l
    nu = from_core_and_quotient((), lam, l)
    nu_core, runners = core_and_quotient(nu, m)
    label = [()] * m
    for i in range(l):
        for t in range(k):
            label[i + (k - 1 - t) * l] = runners[i + t * l]
    return nu_core, tuple(label), residues(nu, m)


def restrict_round_trip(z, gamma, k, beta):
    """to_omega -> embed -> from_omega, sending the central character of each
    lam with componentwise k-core gamma to the slot of beta(lam)."""
    l, n, m = z.l, z.n, k * z.l
    r = (n - sum(sum(c) for c in gamma)) // k
    labels, target = character_table(l, n).labels, character_table(m, r)
    out = [CyclotomicNumber.zero(m)] * len(target.labels)
    for lam, w in zip(labels, to_omega(z)):
        if tuple(core(c, k)[0] for c in lam) == gamma:
            out[target.index[beta(lam)]] = embed(w, m)
    return from_omega(m, r, tuple(out))


# ---------------------------------------------------------------------------
# direct search for the component index set
# ---------------------------------------------------------------------------


def enumerate_E_direct(k, l, n):
    """All admissible dimension vectors by brute force over compositions."""
    m = k * l

    def comps(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in comps(total - first, slots - 1):
                yield (first,) + rest

    out = set()
    for choice in product(*[list(comps(n, k)) for _ in range(l)]):
        d = [0] * m
        for i in range(l):
            for t in range(k):
                d[i + t * l] = choice[i][t]
        d = tuple(d)
        if is_plus(d):
            out.add(d)
    return out


# ---------------------------------------------------------------------------
# symmetric-group characters from permutation modules
# ---------------------------------------------------------------------------


def _class_size_sn(rho, n):
    z = 1
    mult = {}
    for a in rho:
        mult[a] = mult.get(a, 0) + 1
    for a, m in mult.items():
        z *= a**m * factorial(m)
    return factorial(n) // z


def _fixed_tabloids(rho, lam):
    """Ordered set partitions with block sizes lam stable under a permutation
    of cycle type rho: every block is a union of cycles."""
    cycles = list(rho)

    def count(idx, loads):
        if idx == len(cycles):
            return 1 if all(x == 0 for x in loads) else 0
        total = 0
        a = cycles[idx]
        seen = set()
        for b in range(len(loads)):
            if loads[b] >= a and loads[b] not in seen:
                # symmetric blocks with equal remaining load give equal counts,
                # but blocks are ordered, so no deduplication by load value
                pass
            if loads[b] >= a:
                nl = list(loads)
                nl[b] -= a
                total += count(idx + 1, tuple(nl))
        return total

    return count(0, tuple(lam))


def sn_character_table(n):
    """Irreducible S_n characters labelled by partitions, via Young's rule.

    Returns {lam: {rho: integer value}}.  The permutation character on
    tabloids of shape lam decomposes as S^lam plus higher (dominance) terms;
    subtracting the already-built characters in lex-descending order leaves
    the irreducible one.
    """
    parts = list(partitions_of(n))  # lex descending refines dominance
    classes = list(partitions_of(n))
    sizes = {rho: _class_size_sn(rho, n) for rho in classes}

    def inner(phi, psi):
        s = sum(sizes[r] * phi[r] * psi[r] for r in classes)
        assert s % factorial(n) == 0
        return s // factorial(n)

    irred = {}
    for lam in parts:
        m = {rho: _fixed_tabloids(rho, lam) for rho in classes}
        for mu, smu in irred.items():
            c = inner(m, smu)
            if c:
                m = {rho: m[rho] - c * smu[rho] for rho in classes}
        assert inner(m, m) == 1
        irred[lam] = m
    return irred


# ---------------------------------------------------------------------------
# the order-8 wreath group by explicit monomial matrices
# ---------------------------------------------------------------------------


def _mono(perm, signs) -> Mat:
    # column j maps to signs[j] * e_perm[j]
    n = len(perm)
    data = [[0] * n for _ in range(n)]
    for j in range(n):
        data[perm[j]][j] = signs[j]
    return Mat(n, n, data)


def hyperoctahedral2_elements():
    """The 8 signed 2x2 permutation matrices."""
    out = []
    for perm in ((0, 1), (1, 0)):
        for signs in product((1, -1), repeat=2):
            out.append(_mono(perm, signs))
    return out


def matrix_class_type(m: Mat, l: int):
    """Class type (cycle lengths per cycle-product colour) of a monomial matrix."""
    n = m.rows
    perm = {}
    val = {}
    for j in range(n):
        for i in range(n):
            if m.data[i][j] != 0:
                perm[j] = i
                val[j] = m.data[i][j]
    seen = set()
    comps = [[] for _ in range(l)]
    z = zeta(l)
    for j in range(n):
        if j in seen:
            continue
        cyc = [j]
        seen.add(j)
        cur = perm[j]
        prod = val[j]
        while cur != j:
            cyc.append(cur)
            seen.add(cur)
            prod = prod * val[cur]
            cur = perm[cur]
        colour = next(c for c in range(l) if z**c == prod)
        comps[colour].append(len(cyc))
    return tuple(tuple(sorted(c, reverse=True)) for c in comps)


def brute_table_212():
    """Character table of the order-8 group from its matrix realization.

    Rows: 4 linear characters sgn^a * det-entry^b plus the trace of the
    2-dimensional defining representation.  Returns (classes_by_type,
    rows) where rows are {class_type: rational value}.
    """
    elements = hyperoctahedral2_elements()
    # conjugacy classes by brute force
    classes = []
    assigned = set()
    for i, g in enumerate(elements):
        if i in assigned:
            continue
        cls = set()
        for h in elements:
            c = h * g * h.inverse()
            cls.add(elements.index(c))
        classes.append(sorted(cls))
        assigned |= set(cls)

    def sgn(m):
        perm = tuple(next(i for i in range(2) if m.data[i][j] != 0) for j in range(2))
        return 1 if perm == (0, 1) else -1

    def _entries_product(m):
        p = 1
        for j in range(2):
            for i in range(2):
                if m.data[i][j] != 0:
                    p *= m.data[i][j]
        return p

    rows = []
    for a in (0, 1):
        for b in (0, 1):
            rows.append({
                matrix_class_type(elements[cls[0]], 2):
                    Fraction(sgn(elements[cls[0]]) ** a * _entries_product(elements[cls[0]]) ** b)
                for cls in classes
            })
    rows.append({
        matrix_class_type(elements[cls[0]], 2): Fraction(elements[cls[0]].trace())
        for cls in classes
    })
    class_info = [
        (matrix_class_type(elements[cls[0]], 2), len(cls)) for cls in classes
    ]
    return class_info, rows


def monomial_class_rep(ctype, l: int) -> Mat:
    """A monomial matrix with the given class type, entries in Q(zeta_l)."""
    n = sum(sum(c) for c in ctype)
    one = CyclotomicNumber.one(l)
    data = [[CyclotomicNumber.zero(l) for _ in range(n)] for _ in range(n)]
    pos = 0
    for colour, comp in enumerate(ctype):
        for a in comp:
            idx = list(range(pos, pos + a))
            for t in range(a - 1):
                data[idx[t + 1]][idx[t]] = one
            data[idx[0]][idx[a - 1]] = zeta(l, colour)
            pos += a
    return Mat(n, n, data)


# ---------------------------------------------------------------------------
# subrepresentation closure by applying every arrow until nothing grows
# ---------------------------------------------------------------------------


def rref_rows(vectors, dim: int) -> list[tuple]:
    """The reduced row echelon basis of the span, rows sorted by pivot."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    out = []
    for col in range(dim):
        piv = next((r for r in rows if r[col] != 0), None)
        if piv is None:
            continue
        rows.remove(piv)
        piv = [x / piv[col] for x in piv]
        rows = [[a - r[col] * b for a, b in zip(r, piv)] for r in rows]
        out = [[a - r[col] * b for a, b in zip(r, piv)] for r in out]
        out.append(piv)
    return [tuple(r) for r in out]


def nullspace_rref(a: Mat) -> list[tuple]:
    """The right kernel read off the rref: one vector per free column c, in
    increasing order, 1 at c and minus the column-c entry of each rref row at
    that row's pivot."""
    red, piv = a.rref()
    basis = []
    for fc in range(a.cols):
        if fc in piv:
            continue
        v = [0] * a.cols
        v[fc] = 1
        for r, pc in enumerate(piv):
            v[pc] = -red.data[r][fc]
        basis.append(tuple(v))
    return basis


def spin_closure(rep, seeds) -> list[list[tuple]]:
    """Per-vertex rref bases of the subrepresentation generated by the seeds.

    Every arrow is applied to every basis vector, round after round, until
    no vertex's dimension grows.
    """
    l, d = rep.l, rep.d

    def apply(m: Mat, v):
        return tuple(sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in m.data)

    grown = [[] for _ in range(l)]
    for i, v in seeds:
        grown[i].append(v)
    span = [rref_rows(s, d[i]) for i, s in enumerate(grown)]
    while True:
        grown = [list(s) for s in span]
        for i in range(l):
            for v in span[i]:
                grown[(i + 1) % l].append(apply(rep.Y[i], v))
                grown[(i - 1) % l].append(apply(rep.X[(i - 1) % l], v))
        new = [rref_rows(s, d[i]) for i, s in enumerate(grown)]
        if [len(s) for s in new] == [len(s) for s in span]:
            return span
        span = new


# ---------------------------------------------------------------------------
# earlier versions of the Norton test's eigenvalue search
# ---------------------------------------------------------------------------


def divisors_loop(x: int, cap: int) -> list[int]:
    """Divisor pairs (d, x // d) for d up to sqrt(x), stopped at cap**2 or cap entries."""
    out = []
    d = 1
    while d * d <= x and d <= cap * cap and len(out) < cap:
        if x % d == 0:
            out.append(d)
            out.append(x // d)
        d += 1
    return out


def charpoly_fractions(a: Mat) -> list[Fraction]:
    """Monic characteristic polynomial by Faddeev-LeVerrier over Fraction."""
    n = a.rows
    coeffs = [Fraction(1)]
    m = Mat.zeros(n, n)
    for k in range(1, n + 1):
        m = a * (m + Mat.scalar(n, coeffs[-1]))
        coeffs.append(Fraction(-m.trace(), k))
    return coeffs


def rational_roots_fractions(z: Mat, cap: int) -> list[Fraction]:
    """The rational root search of ``roots.rational_roots`` over Fraction.

    The same candidates (divisors of the cleared charpoly's constant over
    divisors of its lead, or the first 20 constant divisors when there are
    more than cap pairs), each tested by summing Fraction powers.
    """
    coeffs = charpoly_fractions(z)
    denom = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    roots = set()
    while ints[-1] == 0 and len(ints) > 1:
        roots.add(Fraction(0))
        ints.pop()
    const, lead = abs(ints[-1]), abs(ints[0])
    if const:
        ps, qs = divisors_loop(const, cap), divisors_loop(lead, cap)
        if len(ps) * len(qs) <= cap:
            cands = {Fraction(s * p, q) for p in ps for q in qs for s in (1, -1)}
        else:
            cands = {Fraction(s * p) for p in ps[:20] for s in (1, -1)}
        for t in cands:
            if sum(c * t ** (len(ints) - 1 - i) for i, c in enumerate(ints)) == 0:
                roots.add(t)
    return sorted(roots)


def total_matrix(rep, word, n: int, offs) -> Mat:
    """A word's product of generators, each embedded in End of the total space."""
    out = Mat.scalar(n, 1)
    for kind, i in word:
        j = (i + 1) % rep.l
        blk = (offs[i], offs[j], rep.X[i]) if kind == "x" else (offs[j], offs[i], rep.Y[i])
        out = _embed_blocks(n, n, [blk]) * out
    return out


def norton_undeferred(rep: QuiverRep, seed: int = 0, budget: int = 32) -> SimplicityResult:
    """``quiver.norton_simplicity`` before its undecisive roots were deferred.

    Each rational root t of each trial gets both exact kernels of z - t and
    a spin of every kernel vector, in trial order, and the first root that
    decides returns.  The deferring test must return the same status, trial
    count and witness.
    """
    arrows = rep.X + rep.Y
    if not all(isinstance(x, (int, Fraction)) for m in arrows for row in m.data for x in row):
        raise ValueError("norton_simplicity needs rational matrix entries")
    rng = random.Random(seed)
    l, d = rep.l, rep.d
    n = sum(d)
    if n == 0:
        return SimplicityResult("NotSimple", witness=None, trials=0)
    if n == 1:
        return SimplicityResult("Simple", trials=0)
    offs = [sum(d[:i]) for i in range(l)]
    cleared = [_cleared(m) for m in arrows]
    mats = [m for _, m in cleared]
    primal = QuiverRep(d, tuple(mats[:l]), tuple(mats[l:]))
    # the dual representation: transposed maps with X and Y exchanged
    dual = QuiverRep(d, tuple(m.transpose() for m in primal.Y),
                     tuple(m.transpose() for m in primal.X))
    # each side with its arrows reduced mod P and the seed lists known to
    # spin the whole space
    sides = [(side, tuple(map(_mod_p, side.X)), tuple(map(_mod_p, side.Y)), set())
             for side in (primal, dual)]

    def reducible(side, seed_lists):
        # the witness of the first seed list whose spin is proper: its bases,
        # or on the dual side their per-vertex orthogonal complements; a seed
        # list seen whole before, or whole over F_P, is not spun over Q
        module, X_p, Y_p, whole = side
        for seeds in seed_lists:
            seeds = tuple((i, normal_form(v)) for i, v in seeds)
            if seeds in whole:
                continue
            if _spins_whole_mod_p(d, X_p, Y_p, seeds):
                whole.add(seeds)
                continue
            bases = _spin(module, seeds)
            spun = sum(map(len, bases))
            if spun == n:
                whole.add(seeds)
            elif spun:
                if module is primal:
                    return tuple(map(tuple, bases))
                return tuple(tuple(Mat(len(b), di, b).nullspace()) for b, di in zip(bases, d))
        return None

    def graded(vec):
        comps = ((i, vec[o: o + di]) for i, (o, di) in enumerate(zip(offs, d)))
        return [(i, c) for i, c in comps if any(c)]

    # deterministic probes: coordinate vectors at every vertex, both sides
    probes = [[(i, tuple(int(t == c) for t in range(di)))]
              for i, di in enumerate(d) for c in range(di)]
    for side in sides:
        if (w := reducible(side, probes)) is not None:
            return SimplicityResult("NotSimple", witness=w)

    # x_0, y_0, x_1, ... as (source, target, D, D * arrow)
    letters = [a for i in range(l)
               for a in (((i + 1) % l, i, *cleared[i]), (i, (i + 1) % l, *cleared[l + i]))]
    trials = 0
    while trials < budget:
        trials += 1
        terms = [([rng.choice(letters) for _ in range(rng.randint(1, 3))],
                  rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
                 for _ in range(rng.randint(2, 4))]
        L, z = _trial_matrix(d, terms)
        for t in rational_roots(_charpoly(z, L), P):
            # the kernels of z - t = p/q, read off the int matrix q (L z) - p L
            rows = [[t.denominator * x for x in row] for row in z]
            for i, row in enumerate(rows):
                row[i] -= t.numerator * L
            kernels = []
            for side, m in zip(sides, (rows, zip(*rows))):
                kernels.append(Mat(n, n, m).nullspace())
                if (w := reducible(side, map(graded, kernels[-1]))) is not None:
                    return SimplicityResult("NotSimple", witness=w, trials=trials)
            if all(len(k) == 1 for k in kernels):
                # both kernel vectors were spun above; a nonzero vector spins to
                # a nonzero subrepresentation, so not proper means everything
                return SimplicityResult("Simple", trials=trials)
    return SimplicityResult("Unknown", trials=trials)


# ---------------------------------------------------------------------------
# the restriction matrix, one coefficient at a time
# ---------------------------------------------------------------------------


def restriction_matrix_loop(l, n, k, gamma):
    """Row C: the nonzero (D, coefficient of z_D in i*_gamma(z_C)), D sorted,
    for every class C of G(l,1,n) in table order."""
    m, r = k * l, (n - msize(gamma)) // k
    t, t2 = character_table(l, n), character_table(m, r)
    pairs = [(t.index[lam], t2.index[beta_flat_k_gamma(lam, k, gamma)])
             for lam in core_fibres(l, n, k)[gamma]]
    L = lcm(*(t.dims[i] for i, _ in pairs))
    # (L / chi_lam(1)) chi_mu(1) chi_mu(D^-1) for every class D, in Z[x]/(x^m - 1)
    weighted = [
        [[L // t.dims[i] * t2.dims[j] * c for c in t2.raw[j][inv]] for inv in t2.inverse]
        for i, j in pairs
    ]
    rows = []
    for ci, size in enumerate(t.sizes):
        acc = [[0] * m for _ in t2.classes]
        for (i, _), target in zip(pairs, weighted):
            for s, a in enumerate(t.raw[i][ci]):
                if not a:
                    continue
                # a zeta_l^s = a zeta_m^(ks): shift each target entry by ks
                for vec, b in zip(acc, target):
                    for u, c in enumerate(b, start=k * s):
                        if c:
                            vec[u % m] += a * c
        scale = Fraction(size, L * t2.order)
        row = ((d, CyclotomicNumber.from_powers(m, vec))
               for d, vec in zip(t2.classes, acc) if any(vec))
        rows.append(tuple(sorted((d, x * scale) for d, x in row if x)))
    return tuple(rows)


def verify_filtration_per_gamma(l, n, k, gammas):
    """One ``wreath.verify_filtration`` call per gamma, read through the
    module so that a patched ``codim`` or ``core_fibres`` applies."""
    return tuple(wreath.verify_filtration(l, n, k, [gamma])[0] for gamma in gammas)


# ---------------------------------------------------------------------------
# character values by rim-hook removal, one entry at a time
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def rim_hooks(lam, a):
    """All removals of a rim hook of size a: (smaller partition, sign).

    A hook is a bead of B(lam) moved a steps down to an empty position
    (floor -len(lam)); its sign is the parity of the beads it passes.
    """
    beads = [p - i for i, p in enumerate(lam, start=1)]
    floor = -len(lam)
    out = []
    for b in beads:
        nb = b - a
        if nb < floor or nb in beads:
            continue
        height = sum(1 for c in beads if nb < c < b)
        new_lam = _partition_from_beads([nb if c == b else c for c in beads], floor)
        out.append((new_lam, -1 if height % 2 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def char_rec(lam, cycles, l):
    """chi_lam on the (length, colour) cycles, in Z[x]/(x^l - 1): entry t is
    the coefficient of zeta_l^t."""
    if not cycles:
        assert msize(lam) == 0
        return (1,) + (0,) * (l - 1)
    a, colour = cycles[0]
    rest = cycles[1:]
    total = [0] * l
    for i, comp in enumerate(lam):
        if sum(comp) < a:
            continue
        s = colour * i % l  # the weight zeta^s shifts entry t to t + s
        for new_comp, sign in rim_hooks(comp, a):
            sub = char_rec(lam[:i] + (new_comp,) + lam[i + 1:], rest, l)
            for t, c in enumerate(sub, start=s):
                if c:
                    total[t % l] += sign * c
    return tuple(total)


def class_cycles(ctype):
    """The (length, colour) cycles of a class type, longest first."""
    return tuple(sorted(((a, c) for c, comp in enumerate(ctype) for a in comp), reverse=True))


# ---------------------------------------------------------------------------
# the smoothness predicates as products of Fraction factors
# ---------------------------------------------------------------------------


def smooth_quiver_fractions(theta, n: int) -> bool:
    """sigma(theta) * prod over segments [i..j] of 1..l-1 and |r| < n of
    (theta_i + ... + theta_j + r*sigma) != 0."""
    theta = tuple(Fraction(t) for t in theta)
    l = len(theta)
    s = sigma(theta)
    if s == 0:
        return False
    for i in range(1, l):
        seg = Fraction(0)
        for j in range(i, l):
            seg += theta[j]
            for r in range(-(n - 1), n):
                if seg + r * s == 0:
                    return False
    return True


def smooth_gl1n_fractions(p, n: int) -> bool:
    """a * prod over i != j and 0 <= r < n of (k_i - k_j - r*a) != 0."""
    if p.a == 0:
        return False
    for i in range(p.l):
        for j in range(p.l):
            if i == j:
                continue
            for r in range(n):
                if p.k[i] - p.k[j] - r * p.a == 0:
                    return False
    return True


# ---------------------------------------------------------------------------
# the quiver dictionary and the parameter transport entry by entry
# ---------------------------------------------------------------------------


def theta_from_ak_fractions(p) -> tuple[Fraction, ...]:
    """theta_i = k_{-i} - k_{1-i}, less a at i = 0, in Fraction arithmetic."""
    l = p.l
    out = []
    for i in range(l):
        t = p.k[(-i) % l] - p.k[(1 - i) % l]
        if i == 0:
            t -= p.a
        out.append(t)
    return tuple(out)


def transport_fractions(p, k: int, d) -> ParamSet:
    """a' = k*a and k'_j = k_(j mod l) + a*(floor((j-1)/l) - (k-1)/2
    + k*(d_{1-j} - d_{-j})) for 1 <= j <= kl, k'_0 = k'_kl, in Fraction arithmetic."""
    l = p.l
    m = k * l
    kp = [Fraction(0)] * m
    for j in range(1, m + 1):
        kp[j % m] = p.k[j % l] + p.a * (
            Fraction((j - 1) // l) - Fraction(k - 1, 2) + k * (d[(1 - j) % m] - d[(-j) % m]))
    return ParamSet(m, k * p.a, tuple(kp))


# ---------------------------------------------------------------------------
# the JSON objects of a catalog descriptor and of a --rep file
# ---------------------------------------------------------------------------


def component_json(c) -> dict:
    """The dict that ``components --format json`` prints for descriptor c."""
    return {
        "gamma": [list(x) for x in c.gamma],
        "r": c.r,
        "m": c.m,
        "d": {"modulus": c.m, "entries": list(c.d)},
        "c_prime": {"l": c.c_prime.l, "a": str(c.c_prime.a),
                    "k": [str(x) for x in c.c_prime.k]},
        "labels": [[list(x) for x in lab] for lab in c.labels],
        "label_injection": [
            {
                "mu": [list(x) for x in mu],
                "lambda": [list(x) for x in lam],
            }
            for mu, lam in sorted(c.label_injection.items())
        ],
        "convention": "gordon",
    }


def rep_json(rep) -> dict:
    """The ``--rep`` file object of a representation with int or Fraction entries."""
    def enc(m: Mat):
        return [[str(x) for x in row] for row in m.data]

    return {"l": rep.l, "d": list(rep.d), "X": [enc(m) for m in rep.X],
            "Y": [enc(m) for m in rep.Y]}
