"""Two actions of the affine Weyl group of type A~_(l-1) on Z/lZ-indexed data.

Generators s_j act nonlinearly on integer dimension vectors and linearly on
rational parameter vectors theta.  For l = 1 the group is trivial and every
operation is the identity.

At l = 2 the two neighbours j-1 and j+1 of j coincide as indices; both
neighbour *slots* still contribute, so the reflected theta gains 2*theta_j at
the single neighbouring index.  This is what the pairing identity
``s_j(d) . s_j(theta) = d . theta - [j = 0] theta_0``, the linear map
``bar(alpha_1) = (-2, 2)``, and the translation/composition cross-checks
force; the per-index reading breaks all three.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .partitions import residue_to_core

ThetaVector = tuple[Fraction, ...]
RootLatticeElement = tuple[int, ...]

__all__ = [
    "reflect_dim",
    "quiver_dim",
    "reflect_theta",
    "pairing",
    "common_denominator",
    "sigma",
    "bar",
    "translate_theta",
    "orbit_normalize",
    "is_plus",
    "delta",
]


def delta(l: int) -> tuple[int, ...]:
    """The constant vector (1, ..., 1) of length l."""
    return (1,) * l


def sigma(theta) -> Fraction:
    """Sum of the entries."""
    return sum((Fraction(t) for t in theta), Fraction(0))


def reflect_dim(j: int, d) -> tuple[int, ...]:
    """s_j on dimension vectors: replaces d_j by [j=0] + d_{j+1} + d_{j-1} - d_j."""
    d = tuple(d)
    l = len(d)
    if l == 1:
        return d
    j %= l
    new = list(d)
    new[j] = (1 if j == 0 else 0) + d[(j + 1) % l] + d[(j - 1) % l] - d[j]
    return tuple(new)


def quiver_dim(d) -> int:
    """Dimension 2 d_0 - (d, C d) of the quiver variety of Z/mZ at d, framed at 0.

    C is the Cartan matrix of type A~_(m-1), so (d, C d) is the sum over i
    of (d_i - d_(i+1))^2, indices mod m.  At m = 2 the two arrows between
    the vertices make the off-diagonal entries -2, and at m = 1 the loop
    makes C = (0), so the dimension is 2 d_0; the sum gives both cases.
    """
    d = tuple(d)
    m = len(d)
    return 2 * d[0] - sum((d[i] - d[(i + 1) % m]) ** 2 for i in range(m))


def reflect_theta(j: int, theta) -> ThetaVector:
    """s_j on parameter vectors: theta_j flips sign, each neighbour slot adds theta_j.

    The entries stay as given, ints or Fractions.
    """
    theta = tuple(theta)
    l = len(theta)
    if l == 1:
        return theta
    j %= l
    new = list(theta)
    new[j] = -theta[j]
    for step in (1, -1):  # l >= 2, so both neighbours differ from j
        i = (j + step) % l
        new[i] = new[i] + theta[j]
    return tuple(new)


def pairing(d, theta) -> Fraction:
    """The bilinear pairing sum(d_i * theta_i); theta holds ints or Fractions."""
    d = tuple(d)
    theta = tuple(theta)
    if len(d) != len(theta):
        raise ValueError(f"modulus mismatch: {len(d)} vs {len(theta)}")
    # one integer sum over the common denominator, one reduction at the end
    den, nums = common_denominator(theta)
    return Fraction(sum(map(mul, d, nums)), den)


def common_denominator(xs) -> tuple[int, list[int]]:
    """(D, [D*x for x in xs]) as ints, D the lcm of the denominators of xs (ints or Fractions)."""
    den = lcm(*[x.denominator for x in xs])
    return den, [x.numerator * (den // x.denominator) for x in xs]


def bar(alpha) -> tuple[int, ...]:
    """The linear map alpha -> alpha-bar with (bar e_r)_i = 2[i=r] - [i=r+1] - [i=r-1].

    Kernel contains the constant vector delta_l; at l = 1 the image is 0.
    """
    alpha = tuple(int(x) for x in alpha)
    l = len(alpha)
    out = [0] * l
    for r, c in enumerate(alpha):
        if c == 0:
            continue
        out[r] += 2 * c
        out[(r + 1) % l] -= c
        out[(r - 1) % l] -= c
    return tuple(out)


def translate_theta(alpha, theta) -> ThetaVector:
    """The translation t_alpha on theta: theta + sigma(theta) * bar(alpha)."""
    theta = tuple(Fraction(t) for t in theta)
    if len(alpha) != len(theta):
        raise ValueError("modulus mismatch")
    s = sigma(theta)
    b = bar(alpha)
    return tuple(t + s * c for t, c in zip(theta, b))


def orbit_normalize(d) -> tuple[int, RootLatticeElement]:
    """The unique n with d in the orbit of n*delta, plus the translation witness.

    The witness alpha = d - d_0*delta has zero entry at index 0 and
    translates d onto n*delta; n is computed through the core decomposition
    d = Res_l(nu) + n*delta_l.
    """
    d = tuple(int(x) for x in d)
    _, n = residue_to_core(d)
    alpha = tuple(x - d[0] for x in d)
    return n, alpha


def is_plus(d) -> bool:
    """True iff d lies in the affine orbit of n*delta with n >= 0."""
    return orbit_normalize(d)[0] >= 0
