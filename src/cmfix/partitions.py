"""Partitions, multipartitions, residues, cores and quotients.

A partition is a tuple of weakly decreasing positive integers (the empty
tuple is the empty partition); a multipartition is a tuple of partitions.
Everything here is a pure function on those tuples.

Abacus convention (fixed once, documented here, used consistently):
the bead set of a partition ``lam`` is the charge-0 set

    B(lam) = { lam_i - i : i = 1, 2, 3, ... }   (lam_i = 0 for large i),

i.e. shifted first-column hook lengths.  For the l-quotient, bead ``b`` sits
on runner ``b mod l`` at position ``(b - b mod l) / l``; runner ``j`` carries
a charge ``s_j`` (sum over j is 0) and a partition read off its beads, which
is component ``j`` of the quotient.  The l-core is obtained by pushing every
runner down to its charge's ground state.  Cores biject with charge vectors,
and the residue vector of a core determines the charges through
``Res_i - Res_{i+1} = s_i`` (cyclically).

This is the only abacus in the package, and ``_runner_data`` is its one
pass: ``core_and_quotient`` (which ``core`` reads), ``quotient``,
``is_l_core`` and ``from_core_and_quotient`` each read the runners once.
``_from_runners`` is its one inverse, from runner charges and runner
partitions back to a partition: ``core_from_charges`` and
``from_core_and_quotient`` both rebuild their bead sets through it.
``wreath``'s rim-hook removal moves beads of the same B(lam), floored at
``-len(lam)``, and rebuilds partitions with ``_partition_from_beads``.

``_tuples`` is the only recursion over tuples of partitions, sizes
descending slot by slot: ``enumerate_multipartitions`` runs it over all
partitions, and ``enumerate_core_tuples`` and the keys of ``core_fibres``
over the k-cores.

``beta_flat_k_gamma`` is the only interleaving map in the package: quotient
t of component i goes to slot i + (k-1-t)l.  The slot rule is the private
``_interleave``, which ``core_fibres`` shares, so each fibre carries every
label's ``beta_flat_k_gamma`` image.  The inverse is a test oracle
(``tests/oracles.py``); the catalog labels components through the forward
map alone.  The unreversed slot order i + tl is
conj . beta_flat_k_gamma(., k, gamma') . conj, with conj conjugating every
component and gamma' = conj(gamma), because the k-quotient of lam' is the
reversed, conjugated k-quotient of lam; ``wreath`` says why no restriction
verdict can tell the two orders apart.

``core_fibres`` is the one label-fibre map: the labels of the fixed-locus
component gamma are ``core_fibres(l, n, k)[gamma]`` wherever they are needed,
a dict from each label to its interleaved k-quotient.  It reads every
partition of size <= n in one abacus pass, which both picks out the
k-cores of its keys and reads the labels, and it caches nothing: each call
builds a new value, and its callers read it once per call.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]
ResidueVector = tuple[int, ...]

__all__ = [
    "partition",
    "size",
    "msize",
    "residues",
    "residues_infinite",
    "core",
    "core_and_quotient",
    "core_from_charges",
    "is_l_core",
    "quotient",
    "from_core_and_quotient",
    "residue_to_core",
    "flip",
    "core_multi",
    "check_core_tuple",
    "beta_flat_k_gamma",
    "partitions_of",
    "partitions_upto",
    "enumerate_multipartitions",
    "enumerate_core_tuples",
    "core_fibres",
]


def partition(parts) -> Partition:
    """Canonicalize an iterable into a partition tuple (drops zeros)."""
    t = tuple(int(p) for p in parts if int(p) != 0)
    if any(p < 0 for p in t):
        raise ValueError(f"negative part in {t}")
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"not weakly decreasing: {t}")
    return t


def size(lam: Partition) -> int:
    return sum(lam)


def msize(lam: Multipartition) -> int:
    return sum(sum(c) for c in lam)


def flip(lam: Multipartition) -> Multipartition:
    """Reverse the component order; an involution."""
    return tuple(reversed(lam))


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------


def residues(lam: Partition, l: int) -> ResidueVector:
    """Count boxes of each residue class (column - row) mod l."""
    if l < 1:
        raise ValueError("modulus must be >= 1")
    out = [0] * l
    for i, part in enumerate(lam, start=1):
        lo, hi = 1 - i, part - i  # contents in row i
        for a in range(l):
            out[a] += (hi - a) // l - (lo - 1 - a) // l
    return tuple(out)


def residues_infinite(lam: Partition) -> dict[int, int]:
    """Box counts per integer content (sparse; the modulus-0 variant)."""
    out: dict[int, int] = {}
    for i, part in enumerate(lam, start=1):
        for t in range(1 - i, part - i + 1):
            out[t] = out.get(t, 0) + 1
    return out


# ---------------------------------------------------------------------------
# abacus machinery
# ---------------------------------------------------------------------------


def _runner_data(lam: Partition, l: int) -> tuple[tuple[int, ...], Multipartition]:
    # charges and runner partitions of the bead set B(lam)
    if l < 1:
        raise ValueError("l must be >= 1")
    L = len(lam)
    explicit = [lam[i] - (i + 1) for i in range(L)]  # strictly decreasing
    charges_ = []
    quots = []
    for j in range(l):
        xs = [(b - j) // l for b in explicit if b % l == j]
        g = (-L - 1 - j) // l  # ground beads at positions <= g
        s = len(xs) + g + 1
        charges_.append(s)
        q = [x + t - s for t, x in enumerate(xs, start=1)]
        quots.append(tuple(p for p in q if p != 0))
    return tuple(charges_), tuple(quots)


def _partition_from_beads(explicit: list[int], floor: int) -> Partition:
    # bead set = explicit (all >= floor) plus every integer < floor;
    # total charge must be 0, i.e. len(explicit) == -floor
    assert len(explicit) == -floor
    parts = []
    for i, b in enumerate(sorted(explicit, reverse=True), start=1):
        p = b + i
        assert p >= 0
        if p:
            parts.append(p)
    return tuple(parts)


def _from_runners(s, mu: Multipartition) -> Partition:
    # the inverse of _runner_data: runner j has charge s[j] and partition
    # mu[j]; its ground beads are made explicit down to a common floor
    l = len(s)
    lo = min(min(sj - len(q) for sj, q in zip(s, mu)), 0) - 1
    explicit = []
    for j, (sj, q) in enumerate(zip(s, mu)):
        explicit += [l * (p - t + sj) + j for t, p in enumerate(q, start=1)]
        explicit += [l * x + j for x in range(lo, sj - len(q))]
    return _partition_from_beads(explicit, l * lo)


def core_from_charges(s) -> Partition:
    """The l-core whose runner charges are s (entries must sum to 0)."""
    s = tuple(int(x) for x in s)
    if sum(s) != 0:
        raise ValueError(f"charges must sum to 0, got {s}")
    return _from_runners(s, ((),) * len(s))


def core_and_quotient(lam: Partition, l: int) -> tuple[Partition, Multipartition]:
    """The l-core and the l-quotient of lam, read off one abacus pass."""
    ch, quots = _runner_data(lam, l)
    nu = core_from_charges(ch)
    assert size(lam) == size(nu) + msize(quots) * l
    return nu, quots


def core(lam: Partition, l: int) -> tuple[Partition, int]:
    """The l-core of lam and the number of l-box removals to reach it."""
    nu, quots = core_and_quotient(lam, l)
    return nu, msize(quots)


def is_l_core(lam: Partition, l: int) -> bool:
    return not any(quotient(lam, l))


def quotient(lam: Partition, l: int) -> Multipartition:
    """The l-quotient under the module's abacus convention."""
    return _runner_data(lam, l)[1]


def from_core_and_quotient(nu: Partition, mu: Multipartition, l: int) -> Partition:
    """The unique partition with l-core nu and l-quotient mu."""
    s, nu_quotient = _runner_data(nu, l)
    if any(nu_quotient):
        raise ValueError(f"{nu} is not a {l}-core")
    if len(mu) != l:
        raise ValueError(f"quotient must have {l} components")
    lam = _from_runners(s, mu)
    assert size(lam) == size(nu) + l * msize(mu)
    return lam


def residue_to_core(d) -> tuple[Partition, int]:
    """Decompose an integer vector as Res_l(nu) + r*delta_l.

    Every d decomposes uniquely this way (r may be negative); the charges of
    nu are read off the cyclic differences of d.
    """
    d = tuple(int(x) for x in d)
    l = len(d)
    ch = tuple(d[j] - d[(j + 1) % l] for j in range(l))
    nu = core_from_charges(ch)
    rl = sum(d) - size(nu)
    assert rl % l == 0
    r = rl // l
    res = residues(nu, l)
    assert all(d[i] == res[i] + r for i in range(l))
    return nu, r


def core_multi(lam: Multipartition, k: int) -> Multipartition:
    """Componentwise k-core of a multipartition."""
    return tuple(core(c, k)[0] for c in lam)


def check_core_tuple(gamma: Multipartition, k: int, l: int, n: int) -> int:
    """Validate gamma as a component index: an l-tuple of k-cores with
    |gamma| <= n and |gamma| = n mod k.  Returns the rank r = (n-|gamma|)/k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(gamma) != l:
        raise ValueError(f"gamma must have {l} components")
    for g in gamma:
        if not is_l_core(g, k):
            raise ValueError(f"component {g} is not a {k}-core")
    sz = msize(gamma)
    if sz > n or (n - sz) % k != 0:
        raise ValueError(f"|gamma|={sz} violates the size/congruence constraint")
    return (n - sz) // k


# ---------------------------------------------------------------------------
# interleaved quotient bijections for tuples of partitions
# ---------------------------------------------------------------------------


def _interleave(quotients, k: int) -> Multipartition:
    # the slot rule: quotient t of component i fills slot i + (k-1-t)l, so
    # slot s*l + i holds quotient k-1-s of component i
    return tuple(quot[k - 1 - s] for s in range(k) for quot in quotients)


def beta_flat_k_gamma(lam: Multipartition, k: int, gamma: Multipartition) -> Multipartition:
    """Interleave the k-quotients of the components of lam into an m-tuple.

    Quotient t of component i fills slot i + (k-1-t)l of the result
    (m = k*l); every component must have k-core gamma[i].
    """
    if len(lam) != len(gamma):
        raise ValueError("component count mismatch")
    quotients = []
    for i, (c, g) in enumerate(zip(lam, gamma)):
        nu, quot = core_and_quotient(c, k)
        if nu != g:
            raise ValueError(f"core mismatch in component {i}: Core_{k}{c} = {nu} != {g}")
        quotients.append(quot)
    return _interleave(quotients, k)


# ---------------------------------------------------------------------------
# enumeration (deterministic order: size descending, then lex descending)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, lex descending: (n) first, (1,...,1) last."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(n: int, cap: int) -> Iterator[Partition]:
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in gen(n - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def partitions_upto(n: int) -> tuple[Partition, ...]:
    """Partitions of size <= n, size descending then lex descending."""
    out = []
    for s in range(n, -1, -1):
        out.extend(partitions_of(s))
    return tuple(out)


def _tuples(pools, comps: int, budget: int, last) -> Iterator[Multipartition]:
    # the one recursion over tuples of partitions: entry i is drawn from
    # pools[s_i], sizes descending slot by slot, and last(b) lists the sizes
    # the final entry may take when b is left of the budget
    if comps == 1:
        for s in last(budget):
            for p in pools[s]:
                yield (p,)
        return
    for s in range(budget, -1, -1):
        for p in pools[s]:
            for rest in _tuples(pools, comps - 1, budget - s, last):
                yield (p,) + rest


def enumerate_multipartitions(l: int, n: int) -> list[Multipartition]:
    """All l-multipartitions of n; deterministic component-lex order."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return list(_tuples([partitions_of(s) for s in range(n + 1)], l, n, lambda b: (b,)))


def _core_tuples(k: int, l: int, n: int, is_core) -> Iterator[Multipartition]:
    # the enumerate_core_tuples order; is_core(p) tells whether p is a
    # k-core, from an abacus pass its caller has already made or a new one
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    cores = [[p for p in partitions_of(s) if is_core(p)] for s in range(n + 1)]
    return _tuples(cores, l, n, lambda b: range(b, -1, -k))


def enumerate_core_tuples(k: int, l: int, n: int) -> list[Multipartition]:
    """All l-tuples of k-cores with |gamma| <= n and |gamma| = n mod k."""
    return list(_core_tuples(k, l, n, lambda p: is_l_core(p, k)))


def core_fibres(
    l: int, n: int, k: int
) -> dict[Multipartition, dict[Multipartition, Multipartition]]:
    """The l-multipartitions of n grouped by componentwise k-core, each with
    its interleaved k-quotient.

    Keys are enumerate_core_tuples(k, l, n) in that order.  The fibre of
    gamma maps each label lam to beta_flat_k_gamma(lam, k, gamma), and
    iterates its labels in the enumerate_multipartitions(l, n) order.  Each
    partition of size <= n takes one abacus pass, which both tells the
    k-cores the keys are made of and reads every label component, whatever
    the number of labels or keys it is a component of.  The result is a new
    value on every call; a caller that reads it twice keeps it.
    """
    reads = {p: core_and_quotient(p, k) for p in partitions_upto(n)}
    fibres = {g: {} for g in _core_tuples(k, l, n, lambda p: not any(reads[p][1]))}
    for lam in enumerate_multipartitions(l, n):
        cqs = [reads[c] for c in lam]
        fibres[tuple(nu for nu, _ in cqs)][lam] = _interleave([q for _, q in cqs], k)
    return fibres
