"""Component catalog of the mu_m-fixed locus, m = k*l.

Components are indexed either by dimension vectors d on Z/mZ whose l-residue
class sums are all n and which lie in the nonnegative affine orbit (the set
E(k,l,n)), or equivalently by l-tuples gamma of k-cores with |gamma| <= n and
|gamma| = n mod k.  The dictionary between the two is the core/quotient
bijection; each component carries the reflection group G(kl,1,r) with
r = (n-|gamma|)/k, transported parameters, and fixed-point labels.

Fixed points are labelled by l-multipartitions of n in the gordon
convention: the label set attached to a component is the set of
multipartitions whose componentwise k-core is gamma.  (The quiver convention
reverses the component order of every label; ``partitions.flip`` converts.)
"""

from __future__ import annotations

from .parameters import ParamSet, smooth_gl1n, transport
from .partitions import (
    Multipartition,
    check_core_tuple,
    core_and_quotient,
    core_fibres,
    core_multi,
    enumerate_core_tuples,
    enumerate_multipartitions,
    from_core_and_quotient,
    msize,
    residue_to_core,
    residues,
)
from .records import Record

__all__ = [
    "enumerate_E",
    "delta_map",
    "delta_inverse",
    "ComponentDescriptor",
    "component_catalog",
    "NestingReport",
    "nesting_check",
]


def _class_sums(d, l: int) -> tuple[int, ...]:
    m = len(d)
    return tuple(sum(d[j] for j in range(i, m, l)) for i in range(l))


def enumerate_E(k: int, l: int, n: int) -> list[tuple[int, ...]]:
    """All d on Z/klZ with every l-residue class sum equal to n, in the
    nonnegative affine orbit.  Enumerated through the core-tuple bijection,
    so the order matches enumerate_core_tuples(k, l, n)."""
    return [_delta_inverse(g, k, l, (n - msize(g)) // k) for g in enumerate_core_tuples(k, l, n)]


def delta_map(d, l: int) -> Multipartition:
    """gamma = the l-quotient of the m-core attached to d in E(k,l,n)."""
    d = tuple(int(x) for x in d)
    m = len(d)
    if m % l != 0:
        raise ValueError(f"l={l} must divide the modulus {m}")
    sums = _class_sums(d, l)
    if len(set(sums)) != 1:
        raise ValueError(f"residue class sums differ: {sums}")
    nu, r = residue_to_core(d)  # d = Res_m(nu) + r*delta_m
    if r < 0:
        raise ValueError(f"{d} is not in the nonnegative affine orbit")
    nu_core, gamma = core_and_quotient(nu, l)
    # equal class sums make Res_l(nu) a multiple of delta_l, so every charge
    # of nu's l-core is 0: the l-core is empty for any d that gets here
    assert nu_core == (), (d, nu)
    return gamma


def delta_inverse(gamma: Multipartition, k: int, l: int, n: int) -> tuple[int, ...]:
    """d = Res_m(nu) + r*delta_m with nu rebuilt from gamma, r = (n-|gamma|)/k."""
    return _delta_inverse(gamma, k, l, check_core_tuple(gamma, k, l, n))


def _delta_inverse(gamma: Multipartition, k: int, l: int, r: int) -> tuple[int, ...]:
    # gamma must already be a valid core tuple of rank r, as every gamma of
    # enumerate_core_tuples is
    nu = from_core_and_quotient((), gamma, l)
    return tuple(x + r for x in residues(nu, k * l))


class ComponentDescriptor(Record):
    """One irreducible component of the mu_(kl)-fixed locus.

    gamma, labels and label_injection are all in the gordon convention;
    label_injection is {beta_flat_k_gamma(lam): lam for lam in labels}, a
    bijection from the kl-multipartitions of r onto the label set.  Both
    are read off the fibre ``partitions.core_fibres(l, n, k)[gamma]``, which
    already maps each label to that image.
    """

    l: int
    n: int
    k: int
    gamma: Multipartition
    r: int
    m: int
    d: tuple[int, ...]
    c_prime: ParamSet
    labels: tuple[Multipartition, ...]
    label_injection: dict


def component_catalog(l: int, n: int, k: int, p: ParamSet) -> list[ComponentDescriptor]:
    """One descriptor per gamma; requires smooth parameters."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if p.l != l:
        raise ValueError("parameter set has the wrong l")
    if not smooth_gl1n(p, n):
        raise ValueError("parameters are not smooth; the catalog needs smoothness")
    out = []
    for gamma, fibre in core_fibres(l, n, k).items():
        r = (n - msize(gamma)) // k
        m = k * l
        d = _delta_inverse(gamma, k, l, r)
        cp = transport(p, k, d)
        inj = {mu: lam for lam, mu in fibre.items()}
        assert len(inj) == len(fibre) and set(inj) == set(enumerate_multipartitions(m, r))
        out.append(
            ComponentDescriptor(
                l=l, n=n, k=k, gamma=gamma, r=r, m=m, d=d, c_prime=cp,
                labels=tuple(fibre), label_injection=inj,
            )
        )
    return out


class NestingReport(Record):
    k1: int
    k2: int
    l: int
    n: int
    pairs_checked: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def nesting_check(k1: int, k2: int, l: int, n: int) -> NestingReport:
    """Label-set containment between the k2- and k1-component catalogs.

    For gamma2 in the k2-catalog and gamma1 in the k1-catalog, the label set
    of gamma2 is contained in that of gamma1 exactly when the componentwise
    k1-core of gamma2 is gamma1.  Requires k1 | k2.
    """
    if k2 % k1 != 0:
        raise ValueError(f"{k1} does not divide {k2}")
    fib1 = {g: frozenset(f) for g, f in core_fibres(l, n, k1).items()}
    failures = []
    pairs = 0
    for g2, lab2 in core_fibres(l, n, k2).items():
        core1 = core_multi(g2, k1)
        for g1, lab1 in fib1.items():
            pairs += 1
            contained = lab1.issuperset(lab2)
            predicted = core1 == g1
            if contained != predicted:
                failures.append({"gamma1": g1, "gamma2": g2,
                                 "contained": contained, "core_match": predicted})
    return NestingReport(k1, k2, l, n, pairs, tuple(failures))
