"""Matrix-level checks on cyclic-quiver representations.

A representation assigns C^(d_i) to each vertex i of Z/lZ, a map
X_i : C^(d_{i+1}) -> C^(d_i) and a map Y_i : C^(d_i) -> C^(d_{i+1}) to each
pair of opposite arrows.  Everything is exact (Fraction or cyclotomic
entries); nothing here constructs quotient varieties, it only verifies
membership and identities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .linalg import Mat, insert_row, monic, normal_form

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


@dataclass(frozen=True)
class QuiverRep:
    d: tuple[int, ...]
    X: tuple[Mat, ...]
    Y: tuple[Mat, ...]

    def __post_init__(self):
        d = tuple(int(x) for x in self.d)
        object.__setattr__(self, "d", d)
        l = len(d)
        if len(self.X) != l or len(self.Y) != l:
            raise ValueError("need one X and one Y per vertex")
        for i in range(l):
            nx = (d[i], d[(i + 1) % l])
            ny = (d[(i + 1) % l], d[i])
            if (self.X[i].rows, self.X[i].cols) != nx:
                raise ValueError(f"X[{i}] must be {nx[0]}x{nx[1]}")
            if (self.Y[i].rows, self.Y[i].cols) != ny:
                raise ValueError(f"Y[{i}] must be {ny[0]}x{ny[1]}")

    @property
    def l(self) -> int:
        return len(self.d)

    def to_json(self) -> dict:
        from .arith import CyclotomicNumber, format_rational

        def enc(m: Mat):
            out = []
            for row in m.data:
                r = []
                for x in row:
                    if isinstance(x, CyclotomicNumber):
                        r.append(x.to_json())
                    else:
                        r.append(format_rational(x))
                out.append(r)
            return out

        return {"l": self.l, "d": list(self.d),
                "X": [enc(m) for m in self.X], "Y": [enc(m) for m in self.Y]}

    @classmethod
    def from_json(cls, obj: dict) -> "QuiverRep":
        from .arith import CyclotomicNumber, parse_rational

        if not isinstance(obj, dict) or not {"d", "X", "Y"} <= obj.keys():
            raise ValueError('a representation needs the keys "d", "X" and "Y"')
        if not isinstance(obj["d"], list):
            raise ValueError('"d" must be a list of dimensions')
        d = tuple(obj["d"])
        l = len(d)
        if obj.get("l", l) != l:
            raise ValueError(f'"l" is {obj["l"]} but "d" has {l} entries')
        for key in ("X", "Y"):
            if not isinstance(obj[key], list) or len(obj[key]) != l:
                raise ValueError(f'"{key}" must hold one matrix per vertex ({l})')

        def dec(rows, shape):
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
                raise ValueError("a matrix must be a list of rows")
            data = []
            for row in rows:
                r = []
                for x in row:
                    if isinstance(x, dict):
                        r.append(CyclotomicNumber.from_json(x))
                    else:
                        r.append(parse_rational(str(x)))
                data.append(r)
            return Mat(shape[0], shape[1], data)

        X = tuple(dec(obj["X"][i], (d[i], d[(i + 1) % l])) for i in range(l))
        Y = tuple(dec(obj["Y"][i], (d[(i + 1) % l], d[i])) for i in range(l))
        return cls(d, X, Y)


def moment_map(rep: QuiverRep) -> tuple[Mat, ...]:
    """Vertexwise X_i Y_i - Y_{i-1} X_{i-1}; total trace telescopes to 0."""
    l = rep.l
    return tuple(
        rep.X[i] * rep.Y[i] - rep.Y[(i - 1) % l] * rep.X[(i - 1) % l]
        for i in range(l)
    )


def in_deformed_fiber(rep: QuiverRep, theta) -> bool:
    """Membership in the deformed fiber at theta.

    The moment map must equal theta_i * Id away from vertex 0, and at vertex
    0 differ from theta_0 * Id by a matrix of rank <= 1 with trace
    -sum(theta_i * d_i).
    """
    theta = tuple(theta)
    if len(theta) != rep.l:
        raise ValueError("theta has the wrong modulus")
    mm = moment_map(rep)
    for i in range(1, rep.l):
        if mm[i] != Mat.scalar(rep.d[i], theta[i]):
            return False
    p0 = mm[0] - Mat.scalar(rep.d[0], theta[0])
    want_trace = -sum((t * di for t, di in zip(theta, rep.d)), Fraction(0))
    if rep.d[0] == 0:
        return want_trace == 0
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
    from .arith import CyclotomicNumber

    if isinstance(xi, CyclotomicNumber):
        inv = xi.inverse()
    else:
        inv = Fraction(1) / Fraction(xi)
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


@dataclass(frozen=True)
class SimplicityResult:
    status: str  # "Simple" | "NotSimple" | "Unknown"
    witness: tuple | None = None  # per-vertex bases of a proper subrepresentation
    trials: int = 0


def _spin(rep: QuiverRep, seeds) -> list[list[tuple]]:
    """Smallest subrepresentation containing the seed vectors.

    seeds: iterable of (vertex, vector).  Returns per-vertex bases: the rows
    of the reduced echelon form with pivot entry 1, in insertion order.
    A vertex whose basis is full rejects every vector, so nothing is pushed
    there, an arrow is applied only when its image is about to be inserted,
    and the spin ends once the bases span the whole space.

    The work list holds vectors in ``normal_form``: with integer arrows (as
    ``norton_simplicity`` passes them) every vector is a primitive int
    vector, and the bases are divided by their pivots only when the spin is
    not the whole space, since a full vertex's rows are unit vectors already.
    """
    l, d = rep.l, rep.d
    bases: list[list[tuple]] = [[] for _ in range(l)]
    pivots: list[list[int]] = [[] for _ in range(l)]
    room = sum(d)
    # (vertex, arrow to apply or None, vector)
    work = [(i, None, normal_form(v)) for i, v in seeds]
    while work and room:
        i, arrow, v = work.pop()
        if len(bases[i]) == d[i]:
            continue
        if arrow is not None:
            v = normal_form(arrow.apply(v))
        if not insert_row(bases[i], pivots[i], v):
            continue
        room -= 1
        # push through the arrows out of vertex i
        j, h = (i + 1) % l, (i - 1) % l
        if len(bases[j]) < d[j]:
            work.append((j, rep.Y[i], v))
        if len(bases[h]) < d[h]:
            work.append((h, rep.X[h], v))
    if room:
        bases = [[monic(row) for row in b] for b in bases]
    return bases


def _map_arrows(rep: QuiverRep, f) -> QuiverRep:
    return QuiverRep(rep.d, tuple(map(f, rep.X)), tuple(map(f, rep.Y)))


def _dual(rep: QuiverRep) -> QuiverRep:
    """The dual representation: transposed maps with X and Y exchanged."""
    l = rep.l
    X = tuple(rep.Y[i].T for i in range(l))
    Y = tuple(rep.X[i].T for i in range(l))
    return QuiverRep(rep.d, X, Y)


def _total_matrix(rep: QuiverRep, word: list[tuple[str, int]], n: int, offs) -> Mat:
    # product of generators embedded in End of the total space
    out = Mat.identity(n)
    for kind, i in word:
        j = (i + 1) % rep.l
        blk = (offs[i], offs[j], rep.X[i]) if kind == "x" else (offs[j], offs[i], rep.Y[i])
        out = _embed_blocks(n, n, [blk]) * out
    return out


def _cleared(m: Mat) -> tuple[int, Mat]:
    """(D, D*m) for a rational matrix m, D the lcm of its entries' denominators."""
    den = lcm(*(x.denominator for row in m.data for x in row))
    return den, Mat(m.rows, m.cols,
                    [[x.numerator * (den // x.denominator) for x in row] for row in m.data])


def _charpoly(a: Mat) -> list[Fraction]:
    """Monic characteristic polynomial of a rational matrix, by descending power.

    Faddeev-LeVerrier on the integer matrix D*a: there every M_k is an
    integer matrix and c_k = -tr(M_k)/k an integer, so the recursion runs on
    ints and divides exactly; then c_k(a) = c_k(D*a) / D**k.
    """
    n = a.rows
    den, b = _cleared(a)
    coeffs = [1]
    m = Mat.zeros(n, n)
    for k in range(1, n + 1):
        m = b * (m + Mat.scalar(n, coeffs[-1]))
        c, r = divmod(-m.trace(), k)
        assert r == 0, "Faddeev-LeVerrier divides exactly on an integer matrix"
        coeffs.append(c)
    return [Fraction(c, den ** k) for k, c in enumerate(coeffs)]


def _divisors(x: int, cap: int) -> list[int]:
    """The pairs (d, x // d) of divisors d <= sqrt(x), smallest d first.

    A perfect square lists its root twice.  The search stops at d = cap**2
    or once cap entries are listed: a missed candidate can only leave a
    verdict Unknown.
    """
    out = []
    for d in range(1, min(isqrt(x), cap * cap) + 1):
        if x % d == 0:
            out.append(d)
            out.append(x // d)
            if len(out) >= cap:
                break
    return out


def _rational_eigenvalues(z: Mat, cap: int = 400) -> list[Fraction]:
    """All rational eigenvalues of z, by rational root search on the charpoly."""
    coeffs = _charpoly(z)
    # clear denominators: integer polynomial, leading lead > 0
    denom = 1
    for c in coeffs:
        denom = lcm(denom, Fraction(c).denominator)
    ints = [int(c * denom) for c in coeffs]
    # strip trailing zero coefficients: each is a root 0
    roots = set()
    while ints[-1] == 0 and len(ints) > 1:
        roots.add(Fraction(0))
        ints.pop()
    const, lead = abs(ints[-1]), abs(ints[0])
    if const:
        ps, qs = _divisors(const, cap), _divisors(lead, cap)
        if len(ps) * len(qs) <= cap:
            cands = {Fraction(s * p, q) for p in ps for q in qs for s in (1, -1)}
        else:
            cands = {Fraction(s * p) for p in ps[:20] for s in (1, -1)}
        for t in cands:
            if sum(c * t ** (len(ints) - 1 - i) for i, c in enumerate(ints)) == 0:
                roots.add(t)
    return sorted(roots)


def norton_simplicity(rep: QuiverRep, seed: int = 0, budget: int = 32) -> SimplicityResult:
    """One-sided randomized irreducibility test with an honest Unknown.

    NotSimple comes with a witness (per-vertex bases of a proper nonzero
    subrepresentation).  Simple is certified by Norton's criterion: for a
    random algebra element z and a rational eigenvalue t with
    one-dimensional kernel of z - t, the kernel vector must generate
    everything, and so must the kernel vector of the transpose acting on the
    dual representation.

    The entries must be rational (int or Fraction); a CyclotomicNumber entry
    raises ValueError.  All exact arithmetic runs on ints where the entries
    allow: the spins see each arrow times the lcm of its denominators, which
    leaves every subrepresentation as it is, and z is built from the arrows
    with integral entries read as ints.
    """
    arrows = rep.X + rep.Y
    if not all(isinstance(x, (int, Fraction)) for m in arrows for row in m.data for x in row):
        raise ValueError("norton_simplicity needs rational matrix entries")
    rng = random.Random(seed)
    l = rep.l
    n = sum(rep.d)
    if n == 0:
        return SimplicityResult("NotSimple", witness=None, trials=0)
    if n == 1:
        return SimplicityResult("Simple", trials=0)
    offs = [sum(rep.d[:i]) for i in range(l)]
    primal = _map_arrows(rep, lambda m: _cleared(m)[1])
    dual = _dual(primal)
    # z sees each arrow's own values, since a word's value would change with
    # the arrows' scales; integral entries are read as ints
    zrep = _map_arrows(rep, lambda m: Mat(m.rows, m.cols, [
        [x.numerator if x.denominator == 1 else x for x in row] for row in m.data]))

    def proper(bases) -> bool:
        tot = sum(len(b) for b in bases)
        return 0 < tot < n

    def annihilator(dual_bases):
        # per-vertex orthogonal complement of a dual subrepresentation
        out = []
        for i in range(l):
            if dual_bases[i]:
                out.append(tuple(Mat.from_rows(dual_bases[i]).nullspace()))
            else:
                out.append(tuple(Mat.identity(rep.d[i]).data) if rep.d[i] else ())
        return tuple(out)

    def graded(vec):
        comps = [(i, vec[offs[i]: offs[i] + rep.d[i]]) for i in range(l) if rep.d[i]]
        return [(i, c) for i, c in comps if any(x != 0 for x in c)]

    # deterministic probes: coordinate vectors at every vertex, both sides
    for side, module in (("primal", primal), ("dual", dual)):
        for i in range(l):
            for c in range(rep.d[i]):
                vec = tuple(1 if t == c else 0 for t in range(rep.d[i]))
                bases = _spin(module, [(i, vec)])
                if proper(bases):
                    w = tuple(map(tuple, bases)) if side == "primal" else annihilator(bases)
                    return SimplicityResult("NotSimple", witness=w)

    trials = 0
    gens: list[list[tuple[str, int]]] = []
    for i in range(l):
        gens.append([("x", i)])
        gens.append([("y", i)])
    while trials < budget:
        trials += 1
        z = Mat.zeros(n, n)
        for _ in range(rng.randint(2, 4)):
            word: list[tuple[str, int]] = []
            for _ in range(rng.randint(1, 3)):
                word.extend(rng.choice(gens))
            coeff = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
            z = z + _total_matrix(zrep, word, n, offs).scale(coeff)
        for t in _rational_eigenvalues(z):
            zz = z - Mat.scalar(n, t)
            ker = zz.nullspace()
            for v in ker:
                bases = _spin(primal, graded(v))
                if proper(bases):
                    return SimplicityResult(
                        "NotSimple", witness=tuple(map(tuple, bases)), trials=trials
                    )
            kerT = zz.T.nullspace()
            for w in kerT:
                basesT = _spin(dual, graded(w))
                if proper(basesT):
                    return SimplicityResult(
                        "NotSimple", witness=annihilator(basesT), trials=trials
                    )
            if len(ker) == 1 and len(kerT) == 1:
                # both kernel vectors were spun above; a nonzero vector spins to
                # a nonzero subrepresentation, so not proper means everything
                return SimplicityResult("Simple", trials=trials)
    return SimplicityResult("Unknown", trials=trials)


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
