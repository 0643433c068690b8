"""Rational roots of integer polynomials, for the trials of Norton's test.

``rational_roots`` applies the rational root theorem: a root p/q in lowest
terms has p dividing the constant and q dividing the lead.  The divisors
come from ``_divisors``, which divides out the prime factors it finds, and
each candidate is first evaluated modulo a prime, so that only a candidate
whose residue is 0 is evaluated exactly.

``quiver.norton_simplicity`` imports this module when it runs, so no other
command compiles it.  It loads no other cmfix module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import compress
from math import gcd, isqrt

__all__ = ["rational_roots"]

_TRIAL, _LONG = 1000, 1 << 15  # see _candidates
_ROOT_CAP = 400  # the cap of _divisors in the root search


@cache
def _primes(limit: int) -> list[int]:
    """The primes in (_TRIAL, limit], by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(sieve[i * i::i]))
    return list(compress(range(_TRIAL + 1, limit + 1), sieve[_TRIAL + 1:]))


def _candidates(limit: int, long):
    """2, 3, ..., _TRIAL, then every integer up to limit, or only the primes
    when long() says the search must pass _LONG: only a search that runs
    long pays for the prime table."""
    yield from range(2, _TRIAL + 1)
    yield from _primes(limit) if long() else range(_TRIAL + 1, limit + 1)


def _divisors(x: int, cap: int) -> list[int]:
    """The pairs (d, x // d) of divisors d <= sqrt(x) of x >= 1, smallest d first.

    A perfect square lists its root twice.  The search stops at d = cap**2
    or once cap entries are listed: a missed candidate can only leave a
    verdict Unknown.  The trial divisor p divides out each prime factor it
    finds, and every divisor below p is a product of those, so the search
    ends once p passes the bound, the square root of the cofactor (which is
    then 1 or a prime) or the last divisor the list needs.  Only the
    divisors the list needs are kept, since one past them divides none.
    """
    bound = min(isqrt(x), cap * cap)
    need = (cap + 1) // 2  # the number of pairs listed
    divs, rest, stop = [1], x, bound
    for p in _candidates(cap * cap, lambda: stop > _LONG):
        if p > stop:
            break
        if rest % p == 0:
            powers = [1]
            while rest % p == 0:
                rest //= p
                powers.append(powers[-1] * p)
            divs = sorted({e * q for q in powers if q <= bound
                           for e in divs if e * q <= bound})[:need]
            stop = min(stop, isqrt(rest), *divs[need - 1:])
    if 1 < rest <= bound:  # a prime, or a cofactor past the divisors listed
        divs = sorted({*divs, *(e * rest for e in divs if e * rest <= bound)})[:need]
    return [y for e in divs for y in (e, x // e)]


def rational_roots(poly: list[int], prime: int) -> list[Fraction]:
    """The rational roots of an int polynomial, sorted.

    poly lists the coefficients by descending power, the lead positive.
    Trailing zero coefficients are roots 0.  The candidates p/q pair the
    divisors of the constant with those of the lead; past _ROOT_CAP pairs
    they are the first 20 divisors of the constant, over 1.  q**deg f(p/q)
    is an int, and a nonzero residue of it mod prime, read off f(p q^(-1)),
    proves it nonzero; only a candidate whose residue is 0, or whose q the
    prime divides, is evaluated exactly, by Horner on ints.
    """
    roots = set()
    while len(poly) > 1 and poly[-1] == 0:
        roots, poly = {Fraction(0)}, poly[:-1]
    ps, qs = _divisors(abs(poly[-1]), _ROOT_CAP), _divisors(poly[0], _ROOT_CAP)
    if len(ps) * len(qs) <= _ROOT_CAP:
        cands = {(s * p // g, q // g) for p in ps for q in qs for g in [gcd(p, q)]
                 for s in (1, -1)}
    else:
        cands = {(s * p, 1) for p in ps[:20] for s in (1, -1)}
    residues = [c % prime for c in poly]
    for p, q in cands:
        if q % prime:
            x, v = p * pow(q, -1, prime) % prime, 0
            for c in residues:
                v = (v * x + c) % prime
            if v:
                continue
        v, qi = 0, 1  # v = q**deg * f(p/q)
        for c in poly:
            v, qi = v * p + c * qi, qi * q
        if v == 0:
            roots.add(Fraction(p, q))
    return sorted(roots)
