"""Exact character theory of the wreath products G(l,1,n).

Conjugacy classes and irreducible characters are both indexed by
l-multipartitions of n: component j of a class type collects the lengths of
cycles whose cycle product is zeta^j, and component i of a character label
carries the i-th linear character t -> zeta^i of the cyclic group.  Character
values are computed by iterated rim-hook removal (the Murnaghan-Nakayama rule
for wreath products: the rule for S_n weighted by root-of-unity factors per
cycle colour) and live in Q(zeta_l).  The recursion runs in the group ring
Z[x]/(x^l - 1) on int tuples, entry t the coefficient of zeta_l^t: a cycle
weight +-zeta^e is a signed cyclic shift and nothing divides.  Reduction mod
the l-th cyclotomic polynomial is a ring map out of Z[x]/(x^l - 1), so each
value is reduced into Q(zeta_l) once, at the end.  The recursion's memo
(``_char_rec``) lives only while one table is built: ``character_table``
clears it once ``raw`` is read, because the table is cached whole and
nothing reads the intermediate (label, cycles) values again.

The centre of the group algebra is handled in two bases: class sums (the
filtration-friendly basis) and primitive central idempotents (the
multiplication-friendly basis); conversion goes through the central
characters w_chi(z_C) = |C| chi(C) / chi(1).  Each table carries, computed
once: ``raw`` (the int tuples of the recursion, before reduction), ``index``
(a multipartition's row as a label, which is also its column as a class),
``inverse`` (each column's inverse class) and ``dims`` (chi(1)).  The
reduced ``values`` are built from ``raw`` on first read, since the
restriction matrix never reads them, with one shared CyclotomicNumber per
distinct entry; they are a function of (l, n), so they take no part in
table equality.

``codim`` of a class is the codimension of the fixed space of any of its
elements: a cycle contributes a fixed line exactly when its cycle product
is 1, so codim = n - (number of parts of component 0).

The restriction i*_gamma: Z(C G(l,1,n)) ->> Z(C G(kl,1,r)) sends e_lam to
e_mu, mu = beta_flat_k_gamma(lam), for lam in the fibre of gamma (the
labels with componentwise k-core gamma) and every other e_lam to 0.  On
class sums it is one matrix per (l, n, k, gamma), built once: the
coefficient of z_D in i*_gamma(z_C) is

    (|C| / |W'|) sum_lam chi_lam(C) chi_mu(1) chi_mu(D^-1) / chi_lam(1),

lam over the fibre and W' = G(kl,1,r).  With L the lcm of the fibre's
chi_lam(1), each term is weighted by the int (L / chi_lam(1)) chi_mu(1),
and the sum runs on the raw int tuples of the tables by Kronecker
substitution (``_Kronecker``) in the phi(m) power-basis coordinates of
Z[zeta_m], m = kl.  Since zeta_l = zeta_m^k, chi_lam(C) = sum_{s<l}
chi_lam(C)[s] zeta_m^(ks), so for each lam and each power s < l one int,
pack_s(lam), holds (L / chi_lam(1)) chi_mu(1) zeta_m^(ks) chi_mu(D^-1)
already reduced mod the m-th cyclotomic polynomial (monic, so the
reduction stays in Z), phi(m) digit slots per class D in sorted order.  Row
C is the sum over lam and s of the small int chi_lam(C)[s] times
pack_s(lam), and the digits of one ``to_bytes`` decode are its entries,
with nothing left to fold or reduce.  A digit is at most the sum over lam
of the largest digit of lam's l packs times the largest l1 norm of
chi_lam(C); the bound is read off the reduced packs, because reduction can
grow a digit (at m = 15, sum_{even t} zeta^t has coordinates -2 and 2).
Each row keeps one scale |C| / (L |W'|).  ``verify_filtration`` reads only
the support of these integer rows and ``codim``; ``i_gamma_star`` is the
only place that turns entries into cyclotomic numbers.

The fibre is labelled through ``partitions.beta_flat_k_gamma``: each
(lam, mu) pair is read off ``partitions.core_fibres``, whose fibres carry
that image of every label.  The unreversed slot order gives no other
verdict.  Let T be the sign twist e_lam -> e_lam' (conjugate every
component), i.e. z_C -> eps(C) z_C with eps(C) = prod over cycles of
(-1)^(length - 1), since chi_lam' = eps chi_lam.  The unreversed
restriction at gamma is T . i_gamma_star(., gamma', k) . T; T is diagonal
on class sums, so it keeps every codim, and gamma -> gamma' permutes the
components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm

from .arith import CyclotomicNumber, _reduce, embed
from .partitions import (
    Multipartition,
    Partition,
    _partition_from_beads,
    check_core_tuple,
    core_fibres,
    enumerate_multipartitions,
    msize,
)

__all__ = [
    "group_order",
    "centralizer_order",
    "enumerate_classes",
    "codim",
    "inverse_class",
    "character_value",
    "char_dimension",
    "WreathTable",
    "character_table",
    "CentralElement",
    "class_sum",
    "central_idempotent",
    "filtration_degree",
    "i_gamma_star",
    "FiltrationReport",
    "verify_filtration",
]


def group_order(l: int, n: int) -> int:
    return l**n * factorial(n)


def centralizer_order(ctype: Multipartition, l: int) -> int:
    out = 1
    for comp in ctype:
        mult: dict[int, int] = {}
        for a in comp:
            mult[a] = mult.get(a, 0) + 1
        for a, m in mult.items():
            out *= (a * l) ** m * factorial(m)
    return out


def enumerate_classes(l: int, n: int) -> list[tuple[Multipartition, int]]:
    """All class types with their sizes; sizes sum to l^n * n!."""
    order = group_order(l, n)
    out = [(t, order // centralizer_order(t, l)) for t in enumerate_multipartitions(l, n)]
    assert sum(s for _, s in out) == order
    return out


def codim(ctype: Multipartition, n: int | None = None) -> int:
    if n is None:
        n = msize(ctype)
    return n - len(ctype[0])


def inverse_class(ctype: Multipartition) -> Multipartition:
    """Class type of inverses: cycle products invert, colours negate."""
    l = len(ctype)
    return tuple(ctype[(-j) % l] for j in range(l))


# ---------------------------------------------------------------------------
# character values by rim-hook removal
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rim_hooks(lam: Partition, a: int) -> tuple[tuple[Partition, int], ...]:
    """All removals of a rim hook of size a: (smaller partition, sign).

    A hook is a bead of B(lam) moved a steps down to an empty position
    (abacus of ``partitions``, floor -len(lam)); its sign is the parity of
    the beads it passes.
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
def _char_rec(lam: Multipartition, cycles: tuple[tuple[int, int], ...], l: int) -> tuple[int, ...]:
    # chi_lam on the (length, colour) cycles, in Z[x]/(x^l - 1)
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
        for new_comp, sign in _rim_hooks(comp, a):
            sub = _char_rec(lam[:i] + (new_comp,) + lam[i + 1:], rest, l)
            for t, c in enumerate(sub, start=s):
                if c:
                    total[t % l] += sign * c
    return tuple(total)


def _cycles(ctype: Multipartition) -> tuple[tuple[int, int], ...]:
    # the (length, colour) cycles of the class, longest first
    return tuple(sorted(((a, c) for c, comp in enumerate(ctype) for a in comp), reverse=True))


def character_value(lam: Multipartition, ctype: Multipartition, l: int | None = None) -> CyclotomicNumber:
    """chi_lam evaluated on the class of type ctype, exact in Q(zeta_l)."""
    if l is None:
        l = len(lam)
    if len(lam) != l or len(ctype) != l:
        raise ValueError("component count mismatch")
    if msize(lam) != msize(ctype):
        raise ValueError("size mismatch between label and class")
    return CyclotomicNumber.from_powers(l, _char_rec(lam, _cycles(ctype), l))


def char_dimension(lam: Multipartition) -> int:
    """chi_lam(1) = multinomial(n; sizes) * product of standard-tableau counts."""
    n = msize(lam)
    out = factorial(n)
    for comp in lam:
        out //= factorial(sum(comp))
        out *= _syt_count(comp)
    return out


def _syt_count(lam: Partition) -> int:
    # hook length formula
    if not lam:
        return 1
    conj = [0] * lam[0]
    for p in lam:
        for c in range(p):
            conj[c] += 1
    num = factorial(sum(lam))
    for i, p in enumerate(lam, start=1):
        for j in range(1, p + 1):
            hook = (p - j) + (conj[j - 1] - i) + 1
            assert num % hook == 0
            num //= hook
    return num


# ---------------------------------------------------------------------------
# character table and the centre of the group algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WreathTable:
    l: int
    n: int
    labels: tuple[Multipartition, ...]
    classes: tuple[Multipartition, ...]
    sizes: tuple[int, ...]
    raw: tuple[tuple[tuple[int, ...], ...], ...] = field(compare=False, repr=False)
    index: dict = field(compare=False, repr=False)
    inverse: tuple[int, ...] = field(compare=False, repr=False)
    dims: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def order(self) -> int:
        return group_order(self.l, self.n)

    @cached_property
    def values(self) -> tuple[tuple[CyclotomicNumber, ...], ...]:
        """values[label][class]: each entry of ``raw`` reduced into Q(zeta_l).

        Each distinct ``raw`` tuple is reduced once, and its one immutable
        CyclotomicNumber is shared by every entry that equals it.
        """
        distinct = {v for row in self.raw for v in row}
        reduced = {v: CyclotomicNumber.from_powers(self.l, v) for v in distinct}
        return tuple(tuple(reduced[v] for v in row) for row in self.raw)

    def value(self, lam: Multipartition, ctype: Multipartition) -> CyclotomicNumber:
        return self.values[self.index[lam]][self.index[ctype]]


@lru_cache(maxsize=None)
def character_table(l: int, n: int) -> WreathTable:
    labels = tuple(enumerate_multipartitions(l, n))
    classes_sizes = enumerate_classes(l, n)
    classes = tuple(t for t, _ in classes_sizes)
    assert classes == labels  # one enumeration indexes rows and columns
    sizes = tuple(s for _, s in classes_sizes)
    cycles = [_cycles(c) for c in classes]
    raw = tuple(tuple(_char_rec(lam, cyc, l) for cyc in cycles) for lam in labels)
    _char_rec.cache_clear()
    index = {lam: i for i, lam in enumerate(labels)}
    inverse = tuple(index[inverse_class(c)] for c in classes)
    dims = tuple(char_dimension(lam) for lam in labels)
    return WreathTable(l, n, labels, classes, sizes, raw, index, inverse, dims)


@dataclass(frozen=True)
class CentralElement:
    """Element of Z(C G(l,1,n)) in the class-sum basis (sparse)."""

    l: int
    n: int
    coeffs: tuple[tuple[Multipartition, CyclotomicNumber], ...]

    @classmethod
    def from_dict(cls, l: int, n: int, d: dict) -> "CentralElement":
        items = tuple(sorted((k, v) for k, v in d.items() if not v.is_zero()))
        return cls(l, n, items)

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def support(self) -> tuple[Multipartition, ...]:
        return tuple(k for k, _ in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "CentralElement") -> "CentralElement":
        if (self.l, self.n) != (other.l, other.n):
            raise ValueError("mismatched algebras")
        d = self.as_dict()
        for k, v in other.coeffs:
            d[k] = d.get(k, CyclotomicNumber.zero(self.l)) + v
        return CentralElement.from_dict(self.l, self.n, d)

    def __mul__(self, other: "CentralElement") -> "CentralElement":
        if (self.l, self.n) != (other.l, other.n):
            raise ValueError("mismatched algebras")
        wa, wb = to_omega(self), to_omega(other)
        return from_omega(self.l, self.n, tuple(x * y for x, y in zip(wa, wb)))


def class_sum(l: int, n: int, ctype: Multipartition) -> CentralElement:
    return CentralElement.from_dict(l, n, {ctype: CyclotomicNumber.one(l)})


def to_omega(z: CentralElement) -> tuple[CyclotomicNumber, ...]:
    """Central characters: w_lam(z_C) = |C| chi_lam(C) / chi_lam(1)."""
    t = character_table(z.l, z.n)
    terms = [(t.index[ctype], coeff) for ctype, coeff in z.coeffs]
    out = []
    for row, dim in zip(t.values, t.dims):
        acc = CyclotomicNumber.zero(z.l)
        for ci, coeff in terms:
            acc = acc + coeff * row[ci] * Fraction(t.sizes[ci], dim)
        out.append(acc)
    return tuple(out)


def from_omega(l: int, n: int, omega) -> CentralElement:
    """Inverse of to_omega: coefficients on class sums via column expansion."""
    t = character_table(l, n)
    weights = [(row, w * dim) for w, row, dim in zip(omega, t.values, t.dims, strict=True) if w]
    d = {}
    for ctype, inv in zip(t.classes, t.inverse):
        acc = CyclotomicNumber.zero(l)
        for row, w in weights:
            acc = acc + w * row[inv]
        d[ctype] = acc / t.order
    return CentralElement.from_dict(l, n, d)


def central_idempotent(lam: Multipartition) -> CentralElement:
    """e_lam = (chi(1)/|W|) sum_C chi_lam(C^{-1}) z_C: from_omega of lam's indicator."""
    l, n = len(lam), msize(lam)
    t = character_table(l, n)
    if lam not in t.labels:
        raise ValueError(f"{lam} is not a label of G({l},1,{n})")
    return from_omega(l, n, [int(x == lam) for x in t.labels])


def filtration_degree(z: CentralElement) -> int:
    """Largest codim over the support; 0 for the zero element and scalars."""
    if z.is_zero():
        return 0
    return max(codim(c, z.n) for c in z.support())


# ---------------------------------------------------------------------------
# the component restriction morphism and the filtration check
# ---------------------------------------------------------------------------


def i_gamma_star(z: CentralElement, gamma: Multipartition, k: int) -> CentralElement:
    """Restriction Z(C G(l,1,n)) ->> Z(C G(kl,1,r)) attached to gamma.

    In the idempotent basis: e_lam maps to the idempotent labelled by the
    interleaved quotient beta_flat_k_gamma(lam) when the componentwise k-core
    of lam is gamma, and to 0 otherwise.  On class sums this is the sum of
    coeff_C times the row of C in the restriction matrix.
    """
    l, n = z.l, z.n
    r = check_core_tuple(gamma, k, l, n)
    m = k * l
    index = character_table(l, n).index
    rows = _restriction_matrix(l, n, k, gamma)
    out = {}
    for ctype, coeff in z.coeffs:
        scale, row = rows[index[ctype]]
        c = embed(coeff, m) * scale
        for d, x in row:
            out[d] = out.get(d, CyclotomicNumber.zero(m)) + c * CyclotomicNumber(m, x)
    return CentralElement.from_dict(m, r, out)


class _Kronecker:
    """Signed digits packed into one int, sum_i d_i 2^(8wi), and back.

    Kronecker substitution: a product of digit polynomials is one product
    of ints.  A slot is the fewest whole bytes w with 2^(8w - 1) > ``bound``,
    so ``unpack`` reads back any sum of products of packs whose every digit
    is at most ``bound`` in absolute value: it adds 2^(8w - 1) to each of the
    ``count`` slots, which leaves every slot in [0, 2^(8w)) with nothing to
    carry, and reads them all from one ``to_bytes``.
    """

    def __init__(self, bound: int, count: int):
        self.width = w = (bound.bit_length() + 8) // 8
        self.count = count
        self.half = 1 << (8 * w - 1)
        self.bias = int.from_bytes(self.half.to_bytes(w, "little") * count, "little")

    def pack(self, digits) -> int:
        w, half = self.width, self.half
        biased = b"".join([(d + half).to_bytes(w, "little") for d in digits])
        return int.from_bytes(biased, "little") - (self.bias & ((1 << 8 * len(biased)) - 1))

    def unpack(self, value: int) -> list[int]:
        w, half = self.width, self.half
        raw = (value + self.bias).to_bytes(self.count * w, "little")
        return [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, len(raw), w)]


@lru_cache(maxsize=None)
def _restriction_matrix(
    l: int, n: int, k: int, gamma: Multipartition
) -> tuple[tuple[Fraction, tuple[tuple[Multipartition, tuple[int, ...]], ...]], ...]:
    # row C: (|C| / (L |W'|), the nonzero (D, coefficient of z_D in
    # L |W'| / |C| i*_gamma(z_C) in the power basis of Q(zeta_m)), D sorted),
    # for every class C of G(l,1,n) in table order; gamma is already validated
    m, r = k * l, (n - msize(gamma)) // k
    t, t2 = character_table(l, n), character_table(m, r)
    pairs = [(t.index[lam], t2.index[mu]) for lam, mu in core_fibres(l, n, k)[gamma].items()]
    L = lcm(*(t.dims[i] for i, _ in pairs))
    weights = [L // t.dims[i] * t2.dims[j] for i, j in pairs]
    targets = sorted(range(len(t2.classes)), key=t2.classes.__getitem__)
    columns = [t2.inverse[d] for d in targets]
    # zeta_m^(ks) v reduced mod Phi_m for s < l, for each distinct value v of
    # G(m,r)'s table, every row of which is a target in the fibre
    shifted = {v: [tuple(_reduce(m, v[-k * s:] + v[:-k * s])) for s in range(l)]
               for v in {v for row in t2.raw for v in row}}
    # pack_s(lam) holds (L / chi_lam(1)) chi_mu(1) zeta_m^(ks) chi_mu(D^-1),
    # reduced, for every class D in sorted order; row C is the sum over lam
    # and s < l of chi_lam(C)[s] pack_s(lam), so its digits are at most the
    # sum over lam of its packs' largest digit (taken after the reduction,
    # which can grow one) times chi_lam(C)'s largest l1 norm
    top = {v: max(abs(c) for x in xs for c in x) for v, xs in shifted.items()}
    bound = sum(w * max(map(top.__getitem__, t2.raw[j]))
                * max(sum(map(abs, v)) for v in set(t.raw[i])) for w, (i, j) in zip(weights, pairs))
    phi = len(_reduce(m, [1]))
    kron = _Kronecker(bound, phi * len(targets))
    packs = [(i, [kron.pack([w * c for d in columns for c in shifted[t2.raw[j][d]][s]])
                  for s in range(l)]) for w, (i, j) in zip(weights, pairs)]
    del shifted, top
    classes = [t2.classes[d] for d in targets]
    rows = []
    for ci, size in enumerate(t.sizes):
        acc = 0
        for i, pack in packs:
            for a, p in zip(t.raw[i][ci], pack):
                if a:
                    acc += a * p
        blocks = zip(*[iter(kron.unpack(acc))] * phi) if acc else ()  # phi digits per D
        row = tuple((d, x) for d, x in zip(classes, blocks) if any(x))
        rows.append((Fraction(size, L * t2.order), row))
    return tuple(rows)


@dataclass(frozen=True)
class FiltrationReport:
    l: int
    n: int
    k: int
    gamma: Multipartition
    passed: bool
    checked: int
    certificates: tuple  # violating (class, codim, offending class, its codim)

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "n": self.n,
            "k": self.k,
            "gamma": [list(c) for c in self.gamma],
            "passed": self.passed,
            "classes_checked": self.checked,
            "certificates": [
                {
                    "class": [list(c) for c in cert[0]],
                    "codim": cert[1],
                    "offending_class": [list(c) for c in cert[2]],
                    "offending_codim": cert[3],
                }
                for cert in self.certificates
            ],
        }


def verify_filtration(l: int, n: int, k: int, gamma: Multipartition) -> FiltrationReport:
    """Check that restriction respects the codimension filtration degreewise.

    For every class sum z_C of G(l,1,n): the image under i_gamma_star must be
    supported on classes of G(kl,1,r) of codim at most codim(C).  Failures
    are reported with certificates, never raised.
    """
    r = check_core_tuple(gamma, k, l, n)
    classes = character_table(l, n).classes
    certs = []
    for ctype, (_, row) in zip(classes, _restriction_matrix(l, n, k, gamma)):
        i = codim(ctype, n)
        for d_ctype, _ in row:
            dcod = codim(d_ctype, r)
            if dcod > i:
                certs.append((ctype, i, d_ctype, dcod))
    return FiltrationReport(l, n, k, gamma, not certs, len(classes), tuple(certs))
