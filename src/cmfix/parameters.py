"""Calogero-Moser parameters for G(l,1,n) and their quiver-side dictionary.

A parameter set is (a, k_0, ..., k_{l-1}) with sum(k) = 0; it corresponds to
a rational vector theta on Z/lZ through

    theta_i = k_{-i} - k_{1-i}  (i != 0),      theta_0 = -a + k_0 - k_1,

so sigma(theta) = -a.  This module provides the dictionary both ways, the
smoothness predicates on both sides, the parameter transport c -> c' attached
to a fixed-locus component (closed form and the translation route through
theta, which agree exactly), and the cyclic Calogero-Moser surface data used
for the rank-2 exceptional-group cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

from .affine_weyl import common_denominator, sigma, translate_theta
from .records import Record

__all__ = [
    "ParamSet",
    "theta_from_ak",
    "ak_from_theta",
    "weyl_on_ak",
    "smooth_quiver",
    "smooth_gl1n",
    "smooth_cyclic",
    "smooth_g4",
    "transport",
    "transport_via_theta",
    "theta_concat",
    "CyclicCMSurface",
    "cyclic_cm_polynomial",
    "g4_surface_roots",
    "g4_component_cyclic_params",
]


class ParamSet(Record):
    """Reflection parameters (a, k_0..k_{l-1}) of G(l,1,n); sum(k) = 0."""

    l: int
    a: Fraction
    k: tuple[Fraction, ...]

    def __init__(self, l: int, a, k):
        # a Fraction is kept as it is (Fraction(x) would only copy it): the
        # transport and the selftest build hundreds of parameter sets
        a = a if type(a) is Fraction else Fraction(a)
        k = tuple(x if type(x) is Fraction else Fraction(x) for x in k)
        if l < 1:
            raise ValueError("l must be >= 1")
        if len(k) != l:
            raise ValueError(f"need exactly l={l} values of k")
        if sum(common_denominator(k)[1]) != 0:
            raise ValueError(f"k must sum to 0, got {k}")
        Record.__init__(self, l, a, k)


def theta_from_ak(p: ParamSet) -> tuple[Fraction, ...]:
    """The quiver parameter vector of p; satisfies sigma(theta) = -a.

    Computed on the numerators of (a, k) over their common denominator D:
    theta_i = (K_{-i} - K_{1-i} - [i = 0] A) / D.
    """
    l = p.l
    den, (a, *k) = common_denominator((p.a, *p.k))
    return tuple(Fraction(k[(-i) % l] - k[(1 - i) % l] - (a if i == 0 else 0), den)
                 for i in range(l))


def ak_from_theta(theta) -> ParamSet:
    """Inverse of theta_from_ak under the sum(k) = 0 normalization."""
    theta = tuple(Fraction(t) for t in theta)
    l = len(theta)
    a = -sigma(theta)
    # consecutive differences k_j - k_{j+1}, then normalize the mean to 0
    diffs = []
    for j in range(l):
        i = (-j) % l
        g = theta[i] + (a if i == 0 else 0)
        diffs.append(g)
    partial = [Fraction(0)]
    for j in range(l - 1):
        partial.append(partial[-1] + diffs[j])  # k_0 - k_j accumulated
    k0 = sum(partial, Fraction(0)) / l
    k = tuple(k0 - pj for pj in partial)
    return ParamSet(l, a, k)


def weyl_on_ak(j: int, p: ParamSet) -> ParamSet:
    """Generator s_j acting on (a, k): a transposition of k's, affine at j = 0."""
    if p.l < 2:
        return p
    l = p.l
    j %= l
    k = list(p.k)
    if j == 0:
        k[0], k[1] = k[1] + p.a, k[0] - p.a
    else:
        u, v = (-j) % l, (1 - j) % l
        k[u], k[v] = k[v], k[u]
    return ParamSet(l, p.a, tuple(k))


# ---------------------------------------------------------------------------
# smoothness predicates
# ---------------------------------------------------------------------------


def smooth_quiver(theta, n: int) -> bool:
    """Quiver-side smoothness at dimension vector n*delta_l.

    sigma(theta) times the product over non-wrapping index segments
    [i..j] in 1..l-1 and |q| < n of (theta_i + ... + theta_j + q*sigma)
    must be nonzero.  In divisibility form, over a common denominator of
    theta: False iff sigma = 0, or some segment sum is q*sigma for an
    integer q with |q| < n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _, theta = common_denominator([t if type(t) is Fraction else Fraction(t) for t in theta])
    s = sum(theta)
    if s == 0:
        return False
    for i in range(1, len(theta)):
        seg = 0
        for t in theta[i:]:
            seg += t
            q, rem = divmod(seg, s)
            if not rem and -n < q < n:
                return False
    return True


def smooth_gl1n(p: ParamSet, n: int) -> bool:
    """Smoothness of the Calogero-Moser space of G(l,1,n).

    True iff a * prod_(i != j, 0 <= r < n) (k_i - k_j - r a) != 0.  In
    divisibility form, over a common denominator of (a, k): False iff
    a = 0, or some ordered pair i != j has k_i - k_j = r*a for an integer
    0 <= r < n; since (j, i) gives -r, one division per unordered pair
    asks whether |r| < n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _, (a, *k) = common_denominator((p.a, *p.k))
    if a == 0:
        return False
    for i, ki in enumerate(k):
        for kj in k[i + 1:]:
            q, rem = divmod(ki - kj, a)
            if not rem and -n < q < n:
                return False
    return True


def smooth_cyclic(k) -> bool:
    """Smoothness of the cyclic Calogero-Moser surface: all k_i distinct."""
    k = tuple(Fraction(x) for x in k)
    if sum(k) != 0:
        raise ValueError("k must sum to 0")
    return len(set(k)) == len(k)


def smooth_g4(k0, k1, k2) -> bool:
    """Smoothness criterion for the rank-2 exceptional group with k0+k1+k2 = 0."""
    k0, k1, k2 = Fraction(k0), Fraction(k1), Fraction(k2)
    if k0 + k1 + k2 != 0:
        raise ValueError("k0 + k1 + k2 must be 0")
    return k0 * k1 * k2 * (k0 - k1) * (k0 - k2) * (k1 - k2) != 0


# ---------------------------------------------------------------------------
# parameter transport c -> c'
# ---------------------------------------------------------------------------


def _transport_dims(p: ParamSet, k: int, d) -> tuple[int, ...]:
    # the dimension vector d on Z/(kl)Z, validated with k
    if k < 1:
        raise ValueError("k must be >= 1")
    d = tuple(int(x) for x in d)
    if len(d) != k * p.l:
        raise ValueError(f"d must have length {k * p.l}")
    return d


def transport(p: ParamSet, k_factor: int, d) -> ParamSet:
    """Parameters of the component group G(kl,1,r) attached to d (closed form).

    a' = k*a and, for 1 <= j <= m (with k'_0 = k'_m),

        k'_j = k_(j mod l) + a*(floor((j-1)/l) - (k-1)/2 + k*(d_{1-j} - d_{-j})).

    With (A, K) the numerators of (a, k) over their common denominator D,
    k'_j is 2 K_(j mod l) + A*(2 floor((j-1)/l) - (k-1) + 2k(d_{1-j} - d_{-j}))
    over 2D: ints throughout, one Fraction per entry.
    """
    l, k = p.l, k_factor
    m = k * l
    d = _transport_dims(p, k, d)
    den, (a, *ks) = common_denominator((p.a, *p.k))
    kp = [0] * m
    for j in range(1, m + 1):
        shift = 2 * ((j - 1) // l) - (k - 1) + 2 * k * (d[(1 - j) % m] - d[(-j) % m])
        kp[j % m] = Fraction(2 * ks[j % l] + a * shift, 2 * den)
    return ParamSet(m, k * p.a, tuple(kp))  # sum(k') = 0 is re-checked here


def theta_concat(theta, k: int) -> tuple[Fraction, ...]:
    """k copies of theta interleaved on Z/(kl)Z: entry j reads theta_(j mod l)."""
    theta = tuple(Fraction(t) for t in theta)
    l = len(theta)
    return tuple(theta[j % l] for j in range(k * l))


def transport_via_theta(p: ParamSet, k_factor: int, d) -> ParamSet:
    """Transport through the theta dictionary and the translation witness.

    Builds theta[k], translates it by d with translate_theta (bar kills
    delta, so this is the translation by the witness alpha = d - d_0*delta,
    theta[k] + k*sigma(theta)*bar(d)) and converts back.  Agrees with
    the closed form exactly, entry by entry.
    """
    d = _transport_dims(p, k_factor, d)
    return ak_from_theta(translate_theta(d, theta_concat(theta_from_ak(p), k_factor)))


# ---------------------------------------------------------------------------
# cyclic Calogero-Moser surfaces
# ---------------------------------------------------------------------------


class CyclicCMSurface(Record):
    """The surface prod_i (e - roots_i) = xy; x has scaling weight l."""

    l: int
    roots: tuple[Fraction, ...]

    def __init__(self, l: int, roots):
        Record.__init__(self, l, tuple(Fraction(r) for r in roots))

    def root_multiset(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.roots))

    def polynomial_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients of prod (e - root), low degree first, monic."""
        coeffs = [Fraction(1)]
        for r in self.roots:
            coeffs = [Fraction(0)] + coeffs
            coeffs = [c - r * h for c, h in zip(coeffs, coeffs[1:] + [Fraction(0)])]
        return tuple(coeffs)


def cyclic_cm_polynomial(k) -> CyclicCMSurface:
    """Surface of the rank-1 cyclic group mu_l at parameters k: roots are l*k_i."""
    k = tuple(Fraction(x) for x in k)
    if sum(k) != 0:
        raise ValueError("k must sum to 0")
    l = len(k)
    return CyclicCMSurface(l, tuple(l * x for x in k))


def g4_surface_roots(order: int, k0, k1, k2) -> tuple[Fraction, ...]:
    """Root multiset of the 2-dimensional fixed component for mu_4 or mu_6.

    order=4: e(e-12k0)(e-12k1)(e-12k2) = xy;
    order=6: (e+6k0)(e+6k1)(e+6k2)(e-12k0)(e-12k1)(e-12k2) = xy.
    """
    k0, k1, k2 = Fraction(k0), Fraction(k1), Fraction(k2)
    if order == 4:
        roots = (Fraction(0), 12 * k0, 12 * k1, 12 * k2)
    elif order == 6:
        roots = (-6 * k0, -6 * k1, -6 * k2, 12 * k0, 12 * k1, 12 * k2)
    else:
        raise ValueError("order must be 4 or 6")
    return tuple(sorted(roots))


def g4_component_cyclic_params(order: int, k0, k1, k2) -> tuple[Fraction, ...]:
    """Cyclic-group parameters matching the mu_4 / mu_6 fixed component."""
    k0, k1, k2 = Fraction(k0), Fraction(k1), Fraction(k2)
    if order == 4:
        return (Fraction(0), 3 * k0, 3 * k1, 3 * k2)
    if order == 6:
        return (2 * k0, 2 * k1, 2 * k2, -k0, -k1, -k2)
    raise ValueError("order must be 4 or 6")
