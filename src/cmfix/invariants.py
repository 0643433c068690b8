"""One registry of invariant checks, read by ``cmfix selftest`` and the tests.

A check is a triple: a name, a function drawing the check's instances
(argument tuples) from a seeded ``random.Random``, and a predicate on one
instance.  ``first_failure`` folds a predicate over instances and returns
the witness of the first one that fails, so a failed verdict names its
instance.

The public predicates are shared with the acceptance suite, which draws its
own, larger sets of instances for them.  Instances are drawn lazily, in the
order of the loops they replaced; ``cli.run_selftest`` draws the rest of a
failed check's instances, so every check sees the same instances for a given
seed whether or not an earlier check failed.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from fractions import Fraction

from .affine_weyl import pairing, reflect_dim, reflect_theta
from .fixed_points import delta_inverse, delta_map, enumerate_E
from .parameters import (
    ParamSet,
    cyclic_cm_polynomial,
    g4_component_cyclic_params,
    g4_surface_roots,
    smooth_gl1n,
    smooth_quiver,
    theta_from_ak,
    transport,
    transport_via_theta,
)
from .partitions import (
    core,
    enumerate_core_tuples,
    enumerate_multipartitions,
    from_core_and_quotient,
    msize,
    partitions_of,
    quotient,
    residues,
)
from .quiver import block_immersion, moment_map, random_rep
from .wreath import centralizer_order, group_order, verify_filtration

__all__ = [
    "CHECKS",
    "first_failure",
    "delta_round_trip",
    "counting_law",
    "pairing_identity",
    "smoothness_dictionary",
    "transport_routes_agree",
    "filtration_respected",
    "g4_surfaces_match",
]

_DRAWING = object()  # stands for the instance while the next one is drawn


def first_failure(instances: Iterable[tuple], predicate: Callable[..., bool]) -> str | None:
    """Witness of the first instance on which predicate is false or raises.

    The witness is the repr of the argument tuple, followed by
    " raised <type>: <message>" when the predicate raised on it; when
    drawing the next instance raised, it is "drawing an instance raised
    <type>: <message>".  None when every instance holds.
    """
    inst = _DRAWING
    try:
        for inst in instances:
            if not predicate(*inst):
                return repr(inst)
            inst = _DRAWING
    except Exception as exc:
        where = "drawing an instance" if inst is _DRAWING else repr(inst)
        return f"{where} raised {type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# predicates shared with the acceptance suite
# ---------------------------------------------------------------------------


def delta_round_trip(d, gamma, k: int, l: int, n: int) -> bool:
    return delta_map(d, l) == gamma and delta_inverse(gamma, k, l, n) == d


def counting_law(l: int, n: int, k: int) -> bool:
    """Fixed points of G(l,1,n) split over the components G(kl,1,r)."""
    total = sum(len(enumerate_multipartitions(k * l, (n - msize(g)) // k))
                for g in enumerate_core_tuples(k, l, n))
    return total == len(enumerate_multipartitions(l, n))


def pairing_identity(j: int, d, theta) -> bool:
    """s_j(d) . s_j(theta) = d . theta - [j = 0] theta_0."""
    return pairing(reflect_dim(j, d), reflect_theta(j, theta)) \
        == pairing(d, theta) - (theta[0] if j == 0 else 0)


def smoothness_dictionary(p: ParamSet, n: int) -> bool:
    return smooth_quiver(theta_from_ak(p), n) == smooth_gl1n(p, n)


def transport_routes_agree(p: ParamSet, k: int, d) -> bool:
    t1 = transport(p, k, d)
    return t1 == transport_via_theta(p, k, d) and sum(t1.k) == 0 and t1.a == k * p.a


def filtration_respected(l: int, n: int, k: int, gamma) -> bool:
    return verify_filtration(l, n, k, [gamma])[0].passed


def g4_surfaces_match(k0, k1, k2) -> bool:
    """The mu_4 and mu_6 fixed surfaces of G4 are cyclic CM surfaces."""
    return all(cyclic_cm_polynomial(g4_component_cyclic_params(m, k0, k1, k2)).root_multiset()
               == g4_surface_roots(m, k0, k1, k2) for m in (4, 6))


# ---------------------------------------------------------------------------
# the selftest checks
# ---------------------------------------------------------------------------


def _bijection_and_counting(l: int, n: int, k: int) -> bool:
    E, G = enumerate_E(k, l, n), enumerate_core_tuples(k, l, n)
    return (len(E) == len(G)
            and all(delta_round_trip(d, g, k, l, n) for d, g in zip(E, G))
            and counting_law(l, n, k))


def _class_sizes_sum(l: int, n: int) -> bool:
    # not through enumerate_classes, which asserts this identity itself and
    # so would end the sweep in an AssertionError instead of a FAIL line
    order = group_order(l, n)
    return sum(order // centralizer_order(t, l) for t in enumerate_multipartitions(l, n)) == order


def _traces_and_block_collapse(rep, l: int) -> bool:
    mm = moment_map(rep)
    mb = moment_map(block_immersion(rep, l))
    return sum((x.trace() for x in mm), Fraction(0)) == 0 and all(
        mb[i].trace() == sum((mm[j].trace() for j in range(i, rep.l, l)), Fraction(0))
        for i in range(l))


def _rand_params(rng: random.Random, l: int, a_lo: int) -> ParamSet:
    ks = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(l - 1)]
    ks.append(-sum(ks, Fraction(0)))
    return ParamSet(l, Fraction(rng.randint(a_lo, 6), rng.randint(1, 5)), tuple(ks))


def _pairing_draws(rng):
    for l in (2, 3, 4, 5):
        for _ in range(200):
            d = tuple(rng.randint(-4, 4) for _ in range(l))
            th = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(l))
            yield rng.randrange(l), d, th


def _param_draws(rng):
    for (l, n) in ((2, 2), (2, 3), (3, 2)):
        for _ in range(200):
            yield _rand_params(rng, l, -6), n


def _transport_draws(rng):
    for (l, k) in ((1, 2), (2, 2), (3, 2), (2, 3)):
        p = _rand_params(rng, l, 1)
        for d in enumerate_E(k, l, 2):
            yield p, k, d


def _rep_draws(rng):
    for _ in range(100):
        m = rng.choice((2, 3, 4, 6))
        l = rng.choice([x for x in (1, 2, 3) if m % x == 0])
        d = tuple(rng.randint(0, 2) for _ in range(m))
        yield random_rep(d, rng), l


def _g4_draws(rng):
    for _ in range(20):
        k0 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        k1 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        yield k0, k1, -k0 - k1


# (name, instances drawn from the rng, predicate), in selftest order
CHECKS = (
    ("3-residues of (4,2,1) are (3,2,2)",
     lambda rng: [((4, 2, 1), 3, (3, 2, 2))],
     lambda lam, l, want: residues(lam, l) == want),
    ("3-core of (4,2,1) is (1) after 2 removals",
     lambda rng: [((4, 2, 1), 3, ((1,), 2))],
     lambda lam, l, want: core(lam, l) == want),
    ("core/quotient round trip |lam|<=10",
     lambda rng: ((lam, l) for n in range(11) for lam in partitions_of(n) for l in (2, 3)),
     lambda lam, l: from_core_and_quotient(core(lam, l)[0], quotient(lam, l), l) == lam),
    ("component bijection and counting law",
     lambda rng: [(1, 3, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2)],
     _bijection_and_counting),
    ("reflection pairing identity", _pairing_draws, pairing_identity),
    ("smoothness criteria agree through the dictionary", _param_draws, smoothness_dictionary),
    ("transport routes agree", _transport_draws, transport_routes_agree),
    ("class sizes sum to the group order",
     lambda rng: [(2, 2), (2, 3), (3, 2)],
     _class_sizes_sum),
    ("filtration respected on the small grid",
     lambda rng: ((l, n, k, g) for (l, n, k) in ((1, 2, 2), (2, 2, 2))
                  for g in enumerate_core_tuples(k, l, n)),
     filtration_respected),
    ("moment map traces and block collapse", _rep_draws, _traces_and_block_collapse),
    ("exceptional-group surfaces match cyclic surfaces", _g4_draws, g4_surfaces_match),
)
