"""Exact character theory of the wreath products G(l,1,n).

Conjugacy classes and irreducible characters are both indexed by
l-multipartitions of n: component j of a class type collects the lengths of
cycles whose cycle product is zeta^j, and component i of a character label
carries the i-th linear character t -> zeta^i of the cyclic group.  Values
follow the Murnaghan-Nakayama rule for wreath products (Macdonald, Ch. I,
App. B): chi_lam on cycles (a, c), rest sums, over the a-rim-hooks h of each
component i of lam, sign(h) zeta^(ci) chi_(lam - h) on rest.  It runs in
Z[x]/(x^l - 1), and each value is reduced mod the l-th cyclotomic
polynomial (a ring map) once, at the end.  ``character_table`` runs the
rule a column at a time.  A class's cycles, longest first, are a chain of
suffixes; the column of a suffix, over the labels of its size, reads the
column of the next suffix at the indices of one hook table per (size, a).
Columns are shared by suffix and, like the hook tables, live only while
one table is built.

The recursion runs on Kronecker-packed ints (``_Kronecker``): a value is
one int with l signed slots, slot t the coefficient of zeta_l^t, so a hook
term is one int add (or, for sign -1, an add of the negated pack), and the
weight zeta^(ci) rotates the slots.  A coefficient of chi_lam(C) is a
signed count of the rim-hook paths that strip lam, at most the number of
standard multitableaux of lam, which is chi_lam(1); so is every partial
sum, and the largest chi_lam(1) of G(l,1,m) does not fall as m grows.  So
slots that hold the largest chi_lam(1) of G(l,1,n) (``_largest_dimension``)
hold every value and sum the recursion meets.  At the end each distinct
value is decoded once, to one int tuple, entry t the coefficient of
zeta_l^t.

The centre of the group algebra has two bases: class sums and primitive
central idempotents, converted through the central characters
w_chi(z_C) = |C| chi(C) / chi(1).  A table's fields are its labels,
classes, class sizes and ``raw``, the int tuples: ``_columns`` decodes one
tuple per distinct value, so equal entries of ``raw`` (and of the columns
``verify_filtration`` builds) are one object.  ``index`` (a
multipartition's row as a label and column as a class), ``inverse`` (each
column's inverse class), ``dims`` (chi(1)) and the reduced ``values`` (one
shared CyclotomicNumber per distinct entry of ``raw``) are built from the
fields on first read and take no part in equality.  ``values`` serves the
centre algebra and the tests; no CLI command reads it.

``codim`` of a class is the codimension of the fixed space of any of its
elements: a cycle contributes a fixed line exactly when its cycle product
is 1, so codim = n - (number of parts of component 0).

The restriction i*_gamma: Z(C G(l,1,n)) ->> Z(C G(kl,1,r)) sends e_lam to
e_mu, mu = beta_flat_k_gamma(lam), for lam in the fibre of gamma (the
labels with componentwise k-core gamma) and every other e_lam to 0.
``i_gamma_star`` is this definition in the central characters: w'_mu =
embed(w_lam) over the fibre, between ``to_omega`` and ``from_omega``.  On
class sums it is one matrix per (l, n, k, gamma): the coefficient of z_D
in i*_gamma(z_C) is

    (|C| / |W'|) sum_lam chi_lam(C) chi_mu(1) chi_mu(D^-1) / chi_lam(1),

lam over the fibre and W' = G(kl,1,r).  ``verify_filtration`` needs only
the support of these rows, and only where it can fail.  Row C fails at D
exactly when the coefficient is nonzero and codim(D) > codim(C).  So with
top(r) the largest codim(D) over the classes of W', a class C with codim(C)
>= top(r) passes whatever its row holds, and only the live classes,
codim(C) < top(r), are summed.  Of W', only the targets D with codim(D)
above lo, the smallest codim of G(l,1,n), can be a certificate of any live
row.  Both cuts read nothing but the values of ``codim`` itself (top(r) is
not assumed to be r), so for any ``codim`` the certificates are exactly
those of the full matrix.

One call checks a sequence of gamma of one (l, n, k) and keeps nothing
after it.  Live sets are nested by top(r) for any ``codim``, so the live
columns chi_lam(C) are built once, for the largest top(r) asked for, and
each rank keeps its rows, codim(C) < top(r).  The target columns
chi_mu(D^-1) are built once per rank and freed before any row is summed,
chi(1) comes from ``char_dimension``, and no character table is built.
Each piece a call needs more than once is built once in it and handed to
every reader.  ``_Once`` holds each list of labels and its index, each
standard-tableau count (``char_dimension`` and ``_largest_dimension``) and
each partition's rim hooks of each size (every hook table of every
``_columns`` call); one memo holds each partition's k-abacus read (the
enumeration and checks of the gamma, and ``core_fibres``); and each
target's chi_mu(1) is built once per rank.

Gamma in one orbit of the label symmetries share a report.  Three kinds of
map act on the labels of G(l,1,n), and likewise of W' = G(m,1,r).
Rotating the components by b is the twist by the b-th power of the linear
character delta (the product of all cycle products): z_C -> zeta^(b c(C))
z_C with c(C) = sum_j j len(C_j), so chi_(rot lam)(C) = zeta^(c(C))
chi_lam(C).  Conjugating every component is the sign twist T below.  The
Galois automorphism sigma_a of Q(zeta_m), a a unit mod m, fixes every class
sum and sends e_lam to the idempotent whose component a*i is lam_i (a mod l
on G(l,1,n)).  The twists are diagonal in class sums.  Now let tau =
(a, b, conj) and tau' = (a', b', conj), a' = a mod l, act on the labels of
G(l,1,n) and of W' (``partitions.label_action``), with beta(tau lam) =
tau' beta(lam) for every lam in the fibre of gamma.  Let Phi and Phi' be
the composites of twists and sigma_a' that move the idempotents as tau and
tau' do.  Then i*_(tau gamma) Phi = Phi' i*_gamma on every e_lam, and both
sides act on scalars through sigma_a', so on class sums the coefficient of
z_D in i*_(tau gamma)(z_C) is a root of unity times sigma_a' of the one in
i*_gamma(z_C).  The two rows have the same support, so for any ``codim``
the two gamma have the same certificates.  ``verify_filtration`` groups
the asked gamma of each rank with live classes by
``partitions._fibre_orbits``, which merges two only where it has checked
that equation on the whole fibre, sums the rows of each orbit's first
gamma only, and gives every member of the orbit that report under its own
gamma.

With L the lcm of the fibre's chi_lam(1), each term is weighted by the int
(L / chi_lam(1)) chi_mu(1), and the sum runs by Kronecker substitution
(``_Kronecker``) in the phi(m) coordinates of Z[zeta_m], m = kl.  As
zeta_l = zeta_m^k, for each lam and s < l one int, pack_s(lam), holds
(L / chi_lam(1)) chi_mu(1) zeta_m^(ks) chi_mu(D^-1) reduced mod the m-th
cyclotomic polynomial, phi(m) digit slots per target D, largest codim
first.  As each fibre maps one-to-one onto the labels of W', a rank
writes the digits of each mu and s once, as one block, and a gamma scales
its fibre's blocks by its weights; the rank's last gamma releases each
block as it scales it, so the rank's digits are not held twice while that
gamma's rows are summed.  Row C is the sum over lam and s of
chi_lam(C)[s] pack_s(lam), and its decoded digits are its entries times
L |W'| / |C|, a positive scale that keeps the support.  The slots row C
must check, codim(D) > codim(C), are a low-order prefix of the pack, and
only that prefix is decoded.  A digit is at most the sum over lam of the
largest digit of lam's packs times the largest l1 norm of chi_lam(C) over
the live C, read off the reduced packs, since reduction can grow a digit
(at m = 15, sum_{even t} zeta^t has coordinates -2 and 2); a rank's slots
hold its gamma's largest.

Each call reads the fibres' (lam, mu) pairs off ``partitions.core_fibres``
once and keeps them no longer than it runs.  The unreversed slot order
gives no other verdict: with T the sign twist e_lam -> e_lam', i.e.
z_C -> eps(C) z_C, eps(C) = prod over cycles of (-1)^(length - 1), the
unreversed restriction at gamma is T . i_gamma_star(., gamma', k) . T, and
T keeps every codim.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import comb, factorial, lcm
from operator import itemgetter, neg

from .arith import CyclotomicNumber, _reduce, embed
from .partitions import (
    Multipartition,
    Partition,
    _Memo,
    _core_tuples,
    _fibre_orbits,
    _partition_from_beads,
    _runner_data,
    check_core_tuple,
    core_fibres,
    enumerate_multipartitions,
    msize,
    partitions_of,
)
from .records import Record

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
    if sum(s for _, s in out) != order:
        raise AssertionError
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


def _rim_hooks(lam: Partition, a: int) -> list[tuple[Partition, int]]:
    """All removals of a rim hook of size a: (smaller partition, 1 if its sign is -1).

    A hook is a bead of B(lam) moved a steps down to an empty position
    (floor -len(lam)); its sign is -1 when it passes an odd number of beads.
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
        out.append((new_lam, height % 2))
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
            if num % hook:
                raise AssertionError
            num //= hook
    return num


def _largest_dimension(l: int, n: int, syt=_syt_count) -> int:
    """The largest chi_lam(1) over the labels lam of G(l,1,n).

    chi_lam(1) is the product over components i of C(t_i, |lam_i|) f(lam_i),
    with t_i = |lam_0| + ... + |lam_i| and f the standard-tableau count, so
    the largest is a max over compositions of n of the largest f per size.
    ``syt`` is f: a caller that counts tableaux elsewhere too passes its own.
    """
    top = [max(map(syt, partitions_of(s))) for s in range(n + 1)]
    best = top  # one component
    for _ in range(l - 1):
        best = [max(best[t - s] * comb(t, s) * top[s] for s in range(t + 1)) for t in range(n + 1)]
    return best[n]


class _Once:
    """What one call builds at most once and drops when it returns: the
    label lists and their indices by (l, n), the standard-tableau count of
    each partition, and its rim hooks of each size a."""

    def __init__(self):
        self.labels = _Memo(lambda key: enumerate_multipartitions(*key))
        self.index = _Memo(lambda key: {lam: j for j, lam in enumerate(self.labels[key])})
        self.syt = _Memo(_syt_count)
        self.hooks = _Memo(lambda a: _Memo(partial(_rim_hooks, a=a)))


def _columns(l: int, n: int, classes, once=None) -> list[list[tuple[int, ...]]]:
    # chi_lam(C) in Z[x]/(x^l - 1): a column per C of ``classes``, an entry
    # per lam of enumerate_multipartitions(l, n); the recursion adds packs
    # of an l-slot _Kronecker, and each distinct value is decoded once
    once = once or _Once()
    labels = [once.labels[l, m] for m in range(n + 1)]
    kron = _Kronecker(_largest_dimension(l, n, once.syt.__getitem__), l)
    rotations = {k: _Memo(partial(kron.rotate, k=k)) for k in range(1, l)}
    decoded = _Memo(lambda v: tuple(kron.unpack(v)))
    # by suffix of a class's cycles: packs below size n, one per distinct
    # value, and decoded tuples at size n (the empty suffix's too at n = 0)
    seen = {}
    columns = {(): [1] if n else [decoded[1]]}
    # (m, a): per label of size m, per a-rim-hook, the index in ``flat`` of
    # its term: the label it leaves in block i (component i), or in block
    # l + i if the hook's sign is -1
    tables = {}
    out = []
    for ctype in classes:
        cycles = tuple(sorted(((a, c) for c, comp in enumerate(ctype) for a in comp), reverse=True))
        m = 0
        for s in range(len(cycles) - 1, -1, -1):
            (a, c), suffix = cycles[s], cycles[s:]
            m += a
            if suffix in columns:
                continue
            if (m, a) not in tables:
                size = len(labels[m - a])
                index, hooks = once.index[l, m - a], once.hooks[a]
                tables[m, a] = [[(i + l * odd) * size + index[lam[:i] + (new,) + lam[i + 1:]]
                                 for i, comp in enumerate(lam) for new, odd in hooks[comp]]
                                for lam in labels[m]]
            rest = columns[suffix[1:]]
            # block i is rest times zeta^(ci), a rotation of its slots by ci,
            # and block l + i its negation
            shifted = {k: list(map(rotations[k].__getitem__, rest)) if k else rest
                       for k in {c * i % l for i in range(l)}}
            flat = []
            for i in range(l):
                flat += shifted[c * i % l]
            flat += list(map(neg, flat))
            col = []
            for terms in tables[m, a]:
                acc = 0
                for j in terms:
                    acc += flat[j]
                col.append(acc)
            if m < n:
                columns[suffix] = list(map(seen.setdefault, col, col))
            else:
                columns[suffix] = list(map(decoded.__getitem__, col))
        out.append(columns[cycles])
    return out


def character_value(lam: Multipartition, ctype: Multipartition, l: int | None = None) -> CyclotomicNumber:
    """chi_lam evaluated on the class of type ctype: an entry of ``character_table``."""
    if l is None:
        l = len(lam)
    for x, what in ((lam, "label"), (ctype, "class")):
        if not (type(x) is tuple and len(x) == l and all(
                type(c) is tuple and all(type(p) is int and p > 0 for p in c)
                and list(c) == sorted(c, reverse=True) for c in x)):
            raise ValueError(f"{what} {x!r} is not a canonical {l}-multipartition")
    n = msize(lam)
    if msize(ctype) != n:
        raise ValueError(f"class {ctype} is not of size {n}")
    return character_table(l, n).value(lam, ctype)


def char_dimension(lam: Multipartition, syt=_syt_count) -> int:
    """chi_lam(1) = multinomial(n; sizes) * product of standard-tableau counts,
    each ``syt(component)``."""
    n = msize(lam)
    out = factorial(n)
    for comp in lam:
        out //= factorial(sum(comp))
        out *= syt(comp)
    return out


# ---------------------------------------------------------------------------
# character table and the centre of the group algebra
# ---------------------------------------------------------------------------


class WreathTable(Record):
    l: int
    n: int
    labels: tuple[Multipartition, ...]
    classes: tuple[Multipartition, ...]
    sizes: tuple[int, ...]
    raw: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def order(self) -> int:
        return group_order(self.l, self.n)

    @cached_property
    def index(self) -> dict[Multipartition, int]:
        return {lam: i for i, lam in enumerate(self.labels)}

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        return tuple(self.index[inverse_class(c)] for c in self.classes)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(char_dimension(lam) for lam in self.labels)

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
    if classes != labels:  # one enumeration indexes rows and columns
        raise AssertionError
    sizes = tuple(s for _, s in classes_sizes)
    raw = tuple(zip(*_columns(l, n, classes)))
    return WreathTable(l, n, labels, classes, sizes, raw)


class CentralElement(Record):
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
    of lam is gamma, and to 0 otherwise.  So the central characters of the
    image are w'_mu = embed(w_lam) over the fibre of gamma and 0 elsewhere.
    """
    l, n = z.l, z.n
    r = check_core_tuple(gamma, k, l, n)
    m = k * l
    t, t2 = character_table(l, n), character_table(m, r)
    omega = to_omega(z)
    out = [0] * len(t2.labels)
    for lam, mu in core_fibres(l, n, k)[gamma].items():
        out[t2.index[mu]] = embed(omega[t.index[lam]], m)
    return from_omega(m, r, out)


class _Kronecker:
    """Signed digits packed into one int, sum_i d_i 2^(8wi), and back.

    Kronecker substitution: a sum of digit polynomials is one sum of ints,
    and a product one product.  ``_columns`` runs the rim-hook recursion on
    packs of ``count`` = l slots, where ``rotate`` is a weight zeta_l^k, and
    ``verify_filtration`` sums its restriction rows as products of packs.
    A slot is the fewest whole bytes w with 2^(8w - 1) > ``bound``,
    so ``unpack`` reads back any sum of products of packs whose every digit
    is at most ``bound`` in absolute value: it adds 2^(8w - 1) to each of the
    ``count`` slots, which leaves every slot in [0, 2^(8w)) with nothing to
    carry, masks off all but the low slots it was asked for, and reads them
    from one ``to_bytes``.  ``slots`` writes digits biased the same way, and
    ``pack`` reads any concatenation of such pieces, so a block of digits
    shared by many packs is written once.
    """

    def __init__(self, bound: int, count: int):
        self.width = w = (bound.bit_length() + 8) // 8
        self.count = count
        self.half = 1 << (8 * w - 1)
        self.bias = int.from_bytes(self.half.to_bytes(w, "little") * count, "little")

    def slots(self, digits) -> bytes:
        w, half = self.width, self.half
        return b"".join([(d + half).to_bytes(w, "little") for d in digits])

    def pack(self, slots: bytes) -> int:
        return int.from_bytes(slots, "little") - (self.bias & ((1 << 8 * len(slots)) - 1))

    def rotate(self, value: int, k: int) -> int:
        """value times x^k mod x^count - 1: the top k slots move to the bottom.

        The rounding split hi = (value + 2^(P - 1)) >> P at the P bits of the
        low count - k slots leaves value - (hi << P) as exactly their packed
        value, since every digit is under half a slot.
        """
        split = 8 * self.width * (self.count - k)
        hi = (value + (1 << (split - 1))) >> split
        return ((value - (hi << split)) << 8 * self.width * k) + hi

    def unpack(self, value: int, count: int | None = None) -> list[int]:
        """The digits of the low ``count`` slots (all ``self.count`` by default)."""
        w, half = self.width, self.half
        size = w * (self.count if count is None else count)
        raw = ((value + self.bias) & ((1 << 8 * size) - 1)).to_bytes(size, "little")
        return [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, size, w)]


class FiltrationReport(Record):
    l: int
    n: int
    k: int
    gamma: Multipartition
    passed: bool
    checked: int
    certificates: tuple  # violating (class, codim, offending class, its codim)


def verify_filtration(l: int, n: int, k: int,
                      gammas: list[Multipartition] | None = None) -> tuple[FiltrationReport, ...]:
    """Check that restriction respects the codimension filtration degreewise.

    For each gamma of ``gammas`` (every gamma, in the enumerate_core_tuples
    order, if None) and every class sum z_C of G(l,1,n): its image under
    i*_gamma must be supported on classes of G(kl,1,r) of codim at most
    codim(C).  Every gamma is validated before any column is built, and one
    report comes back per gamma, in the order given.  One pass
    serves them all (module docstring): the live columns once, the target
    columns and digit blocks once per rank, and the rows once per orbit of
    the asked gamma of a rank.  A class that is not live passes
    by the codim bound and still counts in ``checked``.  Each live row is
    decoded only over the prefix of target slots it must check; each nonzero
    block there is a certificate.  Certificates run over the classes in
    table order, and within a row over D in sorted order, as those of the
    full matrix would.  Failures are reported, never raised.
    """
    once, reads = _Once(), _Memo(partial(_runner_data, l=k))
    if gammas is None:
        gammas = _core_tuples(k, l, n, lambda p: not any(reads[p][1]))
    gammas = list(gammas)  # read twice: to validate, then to order the reports
    ranks = {gamma: check_core_tuple(gamma, k, l, n, reads.__getitem__) for gamma in gammas}
    m = k * l
    classes = once.labels[l, n]
    lo = min(codim(c, n) for c in classes)
    # top(r): the largest codim of a class of G(m,1,r); with no gamma, no class is live
    tops = {r: max(codim(d, r) for d in once.labels[m, r]) for r in set(ranks.values())}
    rows = [(c, i) for c in classes if (i := codim(c, n)) < max(tops.values(), default=lo)]
    cols = _columns(l, n, [c for c, _ in rows], once) if rows else []
    index = once.index[l, n]
    phi = len(_reduce(m, [1]))
    # a gamma whose rank has no live class passes as it stands
    reports = {gamma: FiltrationReport(l, n, k, gamma, True, len(classes), ()) for gamma in ranks}
    fibres = core_fibres(l, n, k, classes, reads.__getitem__)
    syt = once.syt.__getitem__
    for r, top in tops.items():
        live = [(c, i, col) for (c, i), col in zip(rows, cols) if i < top]
        if not live:
            continue
        # each orbit's first gamma is checked, and its report serves the orbit
        orbit = _fibre_orbits(l, k, fibres, [g for g, s in ranks.items() if s == r])
        labels2 = once.labels[m, r]
        # (codim(D), D) for the targets, largest codim first
        slots = sorted(((j, d) for d in labels2 if (j := codim(d, r)) > lo),
                       key=itemgetter(0), reverse=True)
        # chi_mu(D^-1) for each target D, a column over the labels of G(m,1,r)
        targets = _columns(m, r, [inverse_class(d) for _, d in slots], once)
        # zeta_m^(ks) v reduced mod Phi_m for s < l, for each value v of a target column
        shifted = {v: [tuple(_reduce(m, v[-k * s:] + v[:-k * s])) for s in range(l)]
                   for v in {v for col in targets for v in col}}
        big = {v: max(abs(c) for x in xs for c in x) for v, xs in shifted.items()}
        top_digit = {mu: max(big[col[j]] for col in targets) for j, mu in enumerate(labels2)}
        dims2 = {mu: char_dimension(mu, syt) for mu in labels2}
        # (row of lam, mu, weight (L / chi_lam(1)) chi_mu(1)) over each gamma's fibre
        plans = []
        for gamma in [g for g, rho in orbit.items() if g == rho]:
            fibre = fibres[gamma]
            dims = [char_dimension(lam, syt) for lam in fibre]
            L = lcm(*dims)
            plans.append((gamma, [(index[lam], mu, L // a * dims2[mu])
                                  for (lam, mu), a in zip(fibre.items(), dims)]))
        bound = max(sum(w * top_digit[mu] * max(sum(map(abs, col[i])) for _, _, col in live)
                        for i, mu, w in plan) for _, plan in plans)
        kron = _Kronecker(bound, phi * len(slots))
        # per label mu and s < l, the digits of its target values, joined once
        pieces = {v: [kron.slots(x) for x in xs] for v, xs in shifted.items()}
        blocks = {mu: [b"".join([pieces[col[j]][s] for col in targets]) for s in range(l)]
                  for j, mu in enumerate(labels2)}
        del targets, shifted, pieces
        neg = [-j for j, _ in slots]
        last = plans[-1][0]
        for gamma, plan in plans:
            # pack_s(lam) is linear in its digits: w times the pack of mu's
            # block; the rank's last gamma releases each block as it packs it
            take = blocks.pop if gamma == last else blocks.__getitem__
            packs = [(i, [w * kron.pack(b) for b in take(mu)]) for i, mu, w in plan]
            certs = []
            for ctype, i, col in live:
                acc = 0
                for row, pack in packs:
                    for a, p in zip(col[row], pack):
                        if a:
                            acc += a * p
                if not acc:
                    continue
                count = bisect_left(neg, -i)  # the slots of codim above i
                digits = kron.unpack(acc, phi * count)
                found = sorted((d, j) for s, (j, d) in enumerate(slots[:count])
                               if any(digits[phi * s:phi * s + phi]))
                certs += [(ctype, i, d, j) for d, j in found]
            del packs  # before the next gamma builds its own
            reports[gamma] = FiltrationReport(l, n, k, gamma, not certs, len(classes), tuple(certs))
        for gamma, rho in orbit.items():
            rep = reports[rho]
            reports[gamma] = FiltrationReport(l, n, k, gamma, rep.passed, rep.checked, rep.certificates)
    return tuple(reports[gamma] for gamma in gammas)
