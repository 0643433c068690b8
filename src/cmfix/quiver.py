"""Matrix-level checks on cyclic-quiver representations.

A representation assigns C^(d_i) to each vertex i of Z/lZ, a map
X_i : C^(d_{i+1}) -> C^(d_i) and a map Y_i : C^(d_i) -> C^(d_{i+1}) to each
pair of opposite arrows.  Everything is exact (Fraction or cyclotomic
entries); nothing here constructs quotient varieties, it only verifies
membership and identities.  Representations are values: this module loads
only ``linalg``, and ``cli`` reads the JSON form of a ``--rep`` file.

``norton_simplicity`` is Norton's irreducibility test (the MeatAxe: Parker
1984, Holt-Rees 1994) on integer arrows.  Most of its spins generate the
whole space, so each seed list is first spun over F_P, P = 2^31 - 1
(``_spins_whole_mod_p``): the rank of integer vectors mod P is at most
their rank over Q, so a whole F_P spin is a whole Q spin and the seed list
is done.  Only a proper F_P spin runs the exact ``_spin``, which decides
the verdict and builds every witness.  A seed list found whole once is
not spun again: the kernels of later trials repeat the probes' unit
vectors.  Each trial runs on ints end to end: the random element z is built
as L z from the cleared arrows (``_trial_matrix``), its characteristic
polynomial as a primitive int polynomial (Faddeev-LeVerrier, ``_charpoly``),
the rational root search drops each candidate whose value is nonzero mod P
before any exact evaluation (``roots.rational_roots``, imported when the
test runs), and the kernels of z - p/q are read off the int matrix
q (L z) - p L.

Most roots cannot decide, so their kernels wait.  One echelon of
A = q (L z) - p L gives rank A = rank A^T, and so the dimension of both
kernels.  Only a root of rank n - 1 can certify Simple; it has its kernels
read (``linalg.kernel``) and spun at once, and every other root is kept
pending.  A Simple certificate is a proof, so no pending root could have
found a witness then; when a spin is proper, or the budget runs out, the
pending roots are settled first, in trial order, and the verdict is the
one that settling every root in turn reaches.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .linalg import Mat, _echelon, insert_row, kernel, monic, normal_form
from .records import Record

__all__ = [
    "QuiverRep",
    "moment_map",
    "in_deformed_fiber",
    "block_immersion",
    "scale_action",
    "gl_action",
    "SimplicityResult",
    "norton_simplicity",
    "random_rep",
]


class QuiverRep(Record):
    d: tuple[int, ...]
    X: tuple[Mat, ...]
    Y: tuple[Mat, ...]

    def __init__(self, d, X, Y):
        d = tuple(int(x) for x in d)
        l = len(d)
        if len(X) != l or len(Y) != l:
            raise ValueError("need one X and one Y per vertex")
        for i in range(l):
            nx = (d[i], d[(i + 1) % l])
            ny = (d[(i + 1) % l], d[i])
            if (X[i].rows, X[i].cols) != nx:
                raise ValueError(f"X[{i}] must be {nx[0]}x{nx[1]}")
            if (Y[i].rows, Y[i].cols) != ny:
                raise ValueError(f"Y[{i}] must be {ny[0]}x{ny[1]}")
        Record.__init__(self, d, X, Y)

    @property
    def l(self) -> int:
        return len(self.d)


def moment_map(rep: QuiverRep) -> tuple[Mat, ...]:
    """Vertexwise X_i Y_i - Y_{i-1} X_{i-1}; total trace telescopes to 0."""
    l = rep.l
    return tuple(
        rep.X[i] * rep.Y[i] - rep.Y[(i - 1) % l] * rep.X[(i - 1) % l]
        for i in range(l)
    )


def in_deformed_fiber(mm, d, theta) -> bool:
    """Membership in the deformed fiber at theta of a representation with
    dimension vector d and moment map mm (``moment_map(rep), rep.d``).

    The moment map must equal theta_i * Id away from vertex 0, and at vertex
    0 differ from theta_0 * Id by a matrix of rank <= 1 with trace
    -sum(theta_i * d_i).
    """
    theta = tuple(theta)
    if len(theta) != len(d):
        raise ValueError("theta has the wrong modulus")
    for i in range(1, len(d)):
        if mm[i] != Mat.scalar(d[i], theta[i]):
            return False
    p0 = mm[0] - Mat.scalar(d[0], theta[0])
    want_trace = -sum((t * di for t, di in zip(theta, d)), Fraction(0))
    return p0.rank() <= 1 and p0.trace() == want_trace


def _embed_blocks(rows: int, cols: int, blocks) -> Mat:
    # a rows x cols zero matrix with each (row offset, column offset, block) copied in
    out = [[0] * cols for _ in range(rows)]
    for (ro, co, mat) in blocks:
        for r in range(mat.rows):
            for c in range(mat.cols):
                out[ro + r][co + c] = mat.data[r][c]
    return Mat(rows, cols, out)


def block_immersion(rep: QuiverRep, l: int) -> QuiverRep:
    """Collapse a Z/mZ-representation to Z/lZ (m = kl) by residue-class sums.

    Target vertex i carries the direct sum of the spaces at j = i, i+l, ...,
    i+(k-1)l; each original map becomes one block of the collapsed map.
    Injective on representations; k = 1 is the identity.
    """
    m = rep.l
    if m % l != 0:
        raise ValueError(f"l={l} must divide {m}")
    k = m // l
    d = rep.d
    D = tuple(sum(d[i + t * l] for t in range(k)) for i in range(l))
    offs = []  # offset of summand j inside its class block
    for j in range(m):
        i, t = j % l, j // l
        offs.append(sum(d[i + u * l] for u in range(t)))

    X, Y = [], []
    for i in range(l):
        xb, yb = [], []
        for t in range(k):
            j = i + t * l
            j1 = (j + 1) % m
            # X_j : summand j1 of class i+1 -> summand j of class i
            xb.append((offs[j], offs[j1], rep.X[j]))
            # Y_j : summand j of class i -> summand j1 of class i+1
            yb.append((offs[j1], offs[j], rep.Y[j]))
        X.append(_embed_blocks(D[i], D[(i + 1) % l], xb))
        Y.append(_embed_blocks(D[(i + 1) % l], D[i], yb))
    return QuiverRep(D, tuple(X), tuple(Y))


def scale_action(xi, rep: QuiverRep) -> QuiverRep:
    """The scaling xi . (X, Y) = (xi^(-1) X, xi Y); leaves the moment map fixed."""
    if xi == 0:
        raise ValueError("xi must be invertible")
    inv = Fraction(1) / xi
    return QuiverRep(
        rep.d,
        tuple(m.scale(inv) for m in rep.X),
        tuple(m.scale(xi) for m in rep.Y),
    )


def gl_action(g, rep: QuiverRep) -> QuiverRep:
    """Basis change by g = (g_i): X_i -> g_i X_i g_{i+1}^(-1), Y_i -> g_{i+1} Y_i g_i^(-1)."""
    l = rep.l
    g = list(g)
    if len(g) != l:
        raise ValueError("need one invertible matrix per vertex")
    ginv = [m.inverse() for m in g]
    X = tuple(g[i] * rep.X[i] * ginv[(i + 1) % l] for i in range(l))
    Y = tuple(g[(i + 1) % l] * rep.Y[i] * ginv[i] for i in range(l))
    return QuiverRep(rep.d, X, Y)


# ---------------------------------------------------------------------------
# randomized simplicity test
# ---------------------------------------------------------------------------


class SimplicityResult(Record):
    status: str  # "Simple" | "NotSimple" | "Unknown"
    witness: tuple | None  # per-vertex bases of a proper subrepresentation
    trials: int

    def __init__(self, status: str, witness: tuple | None = None, trials: int = 0):
        Record.__init__(self, status, witness, trials)


P = 2 ** 31 - 1  # the prime of ``norton_simplicity``'s spin certificate and root filter


def _grow(d, X, Y, work, insert, apply) -> tuple[list[list], int]:
    """The work-list loop of a spin: per-vertex bases and the room left.

    work holds (vertex, arrow to apply or None, vector); X and Y are the
    arrows as ``apply`` takes them.  A vertex whose basis is full rejects
    every vector, so nothing is pushed there, an arrow is applied only when
    its image is about to be inserted, and the loop ends once the bases span
    the whole space (room 0).
    """
    l = len(d)
    bases: list[list] = [[] for _ in range(l)]
    pivots: list[list[int]] = [[] for _ in range(l)]
    room = sum(d)
    while work and room:
        i, arrow, v = work.pop()
        if len(bases[i]) == d[i]:
            continue
        if arrow is not None:
            v = apply(arrow, v)
        if not insert(bases[i], pivots[i], v):
            continue
        room -= 1
        # push through the arrows out of vertex i
        j, h = (i + 1) % l, (i - 1) % l
        if len(bases[j]) < d[j]:
            work.append((j, Y[i], v))
        if len(bases[h]) < d[h]:
            work.append((h, X[h], v))
    return bases, room


def _spin(rep: QuiverRep, seeds) -> list[list[tuple]]:
    """Smallest subrepresentation containing the seed vectors, over Q.

    seeds: iterable of (vertex, vector).  Returns per-vertex bases: the rows
    of the reduced echelon form with pivot entry 1, in insertion order.

    The work list holds vectors in ``normal_form``: with integer arrows (as
    ``norton_simplicity`` passes them) every vector is a primitive int
    vector, and the bases are divided by their pivots only when the spin is
    not the whole space, since a full vertex's rows are unit vectors already.
    ``norton_simplicity`` runs it only on seed lists whose spin over F_P,
    the same loop in ``_spins_whole_mod_p``, is proper.
    """
    work = [(i, None, normal_form(v)) for i, v in seeds]
    bases, room = _grow(rep.d, rep.X, rep.Y, work, insert_row,
                        lambda arrow, v: normal_form(arrow.apply(v)))
    if room:
        bases = [[monic(row) for row in b] for b in bases]
    return bases


def _mod_p(m: Mat) -> tuple[tuple[int, ...], ...]:
    """The rows of an integer matrix reduced mod P."""
    return tuple(tuple(x % P for x in row) for row in m.data)


def _insert_mod_p(rows: list[list[int]], pivots: list[int], vec) -> bool:
    """Add vec to the semi-echelon basis (rows, pivots) over F_P if independent.

    Each row is 1 at its pivot and 0 at the pivots of the rows before it, so
    one pass in insertion order reduces vec, and earlier rows are not
    cleared.  vec may hold any ints; the remainders mod P are taken once,
    after the pass.
    """
    v = vec
    for row, p in zip(rows, pivots):
        f = v[p] % P
        if f:
            v = [x - f * y for x, y in zip(v, row)]
    v = [x % P for x in v]
    piv = next((c for c, x in enumerate(v) if x), None)
    if piv is None:
        return False
    inv = pow(v[piv], -1, P)
    rows.append([x * inv % P for x in v])
    pivots.append(piv)
    return True


def _spins_whole_mod_p(d, X, Y, seeds) -> bool:
    """Whether the seeds spin the whole space over F_P, by the loop of ``_spin``.

    X and Y are integer arrows reduced mod P (``_mod_p``) and every seed an
    integer vector.  The F_P spin is spanned by the reductions of the integer
    vectors that span the spin over Q, and reduction mod P does not raise
    the rank of an integer matrix, so a whole F_P spin means a whole Q spin.
    A proper F_P spin decides nothing: P may divide a minor.
    """
    work = [(i, None, v) for i, v in seeds]
    return not _grow(d, X, Y, work, _insert_mod_p,
                     lambda rows, v: [sum(map(mul, row, v)) % P for row in rows])[1]


def _cleared(m: Mat) -> tuple[int, Mat]:
    """(D, D*m) for a rational matrix m, D the lcm of its entries' denominators."""
    den = lcm(*(x.denominator for row in m.data for x in row))
    return den, Mat(m.rows, m.cols,
                    [[x.numerator * (den // x.denominator) for x in row] for row in m.data])


def _trial_matrix(d, terms) -> tuple[int, list[list[int]]]:
    """(L, L*z) on ints for z the sum of coeff * word over the (word, coeff) terms.

    A word lists arrows a as (source, target, D, D*a) with D*a an int
    ``Mat``, the first applied first.  It is the int product of the D*a over
    D_w, the product of their D, or 0 if two consecutive arrows do not meet;
    through a vertex of dimension 0 its block is empty and adds nothing.  L
    is the lcm of the D_w.
    """
    n = sum(d)
    offs = [sum(d[:i]) for i in range(len(d))]
    paths = []
    for word, coeff in terms:
        src, tgt, den, m = word[0]
        block = m.data
        for s, t, dm, m in word[1:]:
            if s != tgt:
                break
            cols = list(zip(*block))
            tgt, den, block = t, den * dm, [[sum(map(mul, row, col)) for col in cols]
                                            for row in m.data]
        else:
            paths.append((offs[tgt], offs[src], den, block, coeff))
    L = lcm(*(p[2] for p in paths))
    z = [[0] * n for _ in range(n)]
    for r, c, den, block, coeff in paths:
        f = coeff * (L // den)
        for zr, row in zip(z[r:], block):
            zr[c: c + len(row)] = [a + f * x for a, x in zip(zr[c:], row)]
    return L, z


def _charpoly(b, scale: int) -> list[int]:
    """The charpoly of b / scale, b a square int matrix (a list of rows), as
    its primitive int multiple with positive lead, by descending power.

    Faddeev-LeVerrier on b: every M_k is an int matrix, c_k = -tr(M_k)/k an
    int, and M_k commutes with b.  c_k(b / scale) = c_k(b) / scale**k, so
    scale**n times the charpoly has the int coefficients c_k(b) scale**(n-k),
    and over their gcd it is one polynomial for every positive multiple of
    b.  An index whose row or column of b is zero splits off a factor x.
    """
    n = len(b)
    live = range(n)
    while True:
        keep = [i for i in live if any(b[i][j] for j in live) and any(b[j][i] for j in live)]
        if len(keep) == len(live):
            break
        live = keep
    rows = [[b[i][j] for j in live] for i in live]
    cols = list(zip(*rows))
    coeffs = [1]
    m = [[0] * len(live) for _ in live]
    for k in range(1, len(live) + 1):
        c = coeffs[-1]
        for i, row in enumerate(m):
            row[i] += c
        m = [[sum(map(mul, row, col)) for col in cols] for row in m]
        c, r = divmod(-sum(row[i] for i, row in enumerate(m)), k)
        assert r == 0, "Faddeev-LeVerrier divides exactly on an integer matrix"
        coeffs.append(c)
    poly = [c * scale ** (n - k) for k, c in enumerate(coeffs)] + [0] * (n - len(live))
    g = gcd(*poly)
    return [c // g for c in poly]


def norton_simplicity(rep: QuiverRep, seed: int = 0, budget: int = 32) -> SimplicityResult:
    """One-sided randomized irreducibility test with an honest Unknown.

    NotSimple comes with a witness (per-vertex bases of a proper nonzero
    subrepresentation).  Simple is certified by Norton's criterion: for a
    random algebra element z and a rational eigenvalue t with
    one-dimensional kernel of z - t, the kernel vector must generate
    everything, and so must the kernel vector of the transpose acting on the
    dual representation.

    The entries must be rational (int or Fraction); a CyclotomicNumber entry
    raises ValueError.  The spins see each arrow times the lcm of its
    denominators, which leaves every subrepresentation as it is, so they run
    on ints.  Each seed list is spun over F_P first; a whole F_P spin
    certifies a whole Q spin (reduction mod P does not raise a rank), and
    only a proper one is spun exactly, so an unlucky P costs time, never a
    verdict.  A seed list known to spin the whole space is skipped when it
    comes again.

    Each trial sums random words in the arrows, and runs on ints with the
    verdict, trial count and witness of the same trial over Q.  The rng
    draws are those of the rational sum.  z is built as L z, each word a
    block product of the cleared arrows (``_trial_matrix``); the exact
    charpoly coefficients c_k(L z) / L**k are those of z, so the root
    candidates are too.  A candidate whose value is nonzero mod P is
    dropped, and a nonzero residue proves a nonzero value.  The kernels of
    z - p/q are read off the int matrix a = q (L z) - p L, whose echelon
    rows are those of z - p/q, since ``normal_form`` ignores a positive
    factor.

    Each root's echelon is built once.  Its pivot count is rank a, which is
    also rank a^T, so both kernels have dimension n - rank a.  A root of
    rank below n - 1 cannot certify Simple: it is kept pending, with no
    kernel read and no spin.  A root of rank n - 1 is settled at once: the
    kernel off the echelon and its spin, then the kernel of a^T and its
    spin.  If both spin the whole space, the verdict is Simple at this
    trial: that certificate proves the representation simple, so no pending
    root has a witness, and no earlier root decided, since every rank is
    exact.  If a spin is proper, the first pending root
    to find a witness, in trial order, gives the verdict, and else this
    root's witness does.  When the budget runs out the pending roots are
    settled the same way, and the verdict is Unknown if none finds one.
    Either way the status, trial count and witness are those of settling
    every root in turn, and the rng draws are unchanged.
    """
    from .roots import rational_roots  # compiled only when Norton's test runs

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

    def settle(trial, a, echelon):
        # the primal kernel's spins, then the dual's, whose kernel is that of
        # the transpose: NotSimple with the first witness, or None
        w = reducible(sides[0], map(graded, kernel(echelon, n)))
        if w is None:
            w = reducible(sides[1], map(graded, kernel(_echelon(zip(*a)), n)))
        return None if w is None else SimplicityResult("NotSimple", witness=w, trials=trial)

    def first_witness(default):
        # the verdict of the first pending root that finds one, in trial order
        return next(filter(None, (settle(*root) for root in pending)), default)

    # deterministic probes: coordinate vectors at every vertex, both sides
    probes = [[(i, tuple(int(t == c) for t in range(di)))]
              for i, di in enumerate(d) for c in range(di)]
    for side in sides:
        if (w := reducible(side, probes)) is not None:
            return SimplicityResult("NotSimple", witness=w)

    # x_0, y_0, x_1, ... as (source, target, D, D * arrow)
    letters = [a for i in range(l)
               for a in (((i + 1) % l, i, *cleared[i]), (i, (i + 1) % l, *cleared[l + i]))]
    pending = []  # (trial, a, echelon of a) of each root that cannot certify Simple
    trials = 0
    while trials < budget:
        trials += 1
        terms = [([rng.choice(letters) for _ in range(rng.randint(1, 3))],
                  rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
                 for _ in range(rng.randint(2, 4))]
        L, z = _trial_matrix(d, terms)
        for t in rational_roots(_charpoly(z, L), P):
            # z - t = p/q as the int matrix a = q (L z) - p L, and its echelon
            a = [[t.denominator * x for x in row] for row in z]
            for i, row in enumerate(a):
                row[i] -= t.numerator * L
            echelon = _echelon(a)
            if len(echelon[1]) != n - 1:
                pending.append((trials, a, echelon))
            elif (res := settle(trials, a, echelon)) is None:
                # both kernel vectors spun whole; a nonzero vector spins to a
                # nonzero subrepresentation, so not proper means everything
                return SimplicityResult("Simple", trials=trials)
            else:
                return first_witness(res)
    return first_witness(SimplicityResult("Unknown", trials=trials))


def random_rep(d, rng: random.Random, lo: int = -3, hi: int = 3) -> QuiverRep:
    """Random integer representation of the given dimension vector."""
    d = tuple(d)
    l = len(d)
    X = tuple(
        Mat(d[i], d[(i + 1) % l],
            [[rng.randint(lo, hi) for _ in range(d[(i + 1) % l])] for _ in range(d[i])])
        for i in range(l)
    )
    Y = tuple(
        Mat(d[(i + 1) % l], d[i],
            [[rng.randint(lo, hi) for _ in range(d[i])] for _ in range(d[(i + 1) % l])])
        for i in range(l)
    )
    return QuiverRep(d, X, Y)
