"""Exact arithmetic in the cyclotomic field Q(zeta_m).

A ``CyclotomicNumber`` stores its coordinates, plain ``fractions.Fraction``
values, in the power basis ``1, zeta, ..., zeta^(phi(m)-1)`` reduced modulo
the m-th cyclotomic polynomial, so equality is coefficient-wise and always
decidable.

Powers of zeta are reduced in one place: ``_power_reductions(m)`` tabulates
zeta^t in the power basis for every exponent below max(m, 2*phi(m) - 1), and
``_reduce`` folds a coefficient vector indexed by exponent through that
table.  ``CyclotomicNumber.from_powers`` (sum_t c_t zeta^t, reduced) is the
one constructor on top of it: products, ``galois`` and ``embed`` (the
substitution zeta^t -> zeta_m^f(t)) and the character values of ``wreath``
all build their results with it; ``zeta`` is one table row.  A product with
a rational operand is a coefficient-wise scaling, and an inverse is the
product of the other Galois conjugates over the norm.

No CLI command builds a cyclotomic number: ``chartable`` prints the
coordinates ``_reduce`` gives for each int tuple of a character table, and
no input is read as one.  The field operations serve the definitional side
of ``wreath``'s centre algebra (``to_omega``, ``embed``, ``from_omega``),
and ``linalg`` and ``quiver.scale_action`` take them as scalars, for the
paper's mu_m action on representations.

No floats, ever.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .records import Record

__all__ = [
    "cyclotomic_polynomial",
    "CyclotomicNumber",
    "zeta",
    "embed",
]


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, den monic up to leading +-1
    num = list(num)
    dden = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dden)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i]
        if c == 0:
            continue
        assert c % lead == 0
        q = c // lead
        quot[i - dden] = q
        for j, dc in enumerate(den):
            num[i - dden + j] -= q * dc
    assert all(c == 0 for c in num)
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, low degree first."""
    if m < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divmod_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_reductions(m: int) -> tuple[tuple[int, ...], ...]:
    # zeta^t for t = 0 .. max(m, 2*phi - 1) - 1, written in the power basis
    phi_coeffs = cyclotomic_polynomial(m)
    deg = len(phi_coeffs) - 1
    # x^deg = -(phi[0] + phi[1] x + ... + phi[deg-1] x^(deg-1))
    top = [-c for c in phi_coeffs[:deg]]
    cur = [1] + [0] * (deg - 1)
    rows = [tuple(cur)]
    for _ in range(1, max(m, 2 * deg - 1)):
        carry = cur[-1]
        cur = [0] + cur[:-1]
        if carry:
            cur = [a + carry * b for a, b in zip(cur, top)]
        rows.append(tuple(cur))
    return tuple(rows)


def _reduce(m: int, coeffs) -> list:
    """Power-basis coordinates of sum_t coeffs[t] * zeta_m^t."""
    red = _power_reductions(m)
    deg = len(red[0])
    out = list(coeffs[:deg]) + [0] * (deg - len(coeffs))
    for t in range(deg, len(coeffs)):
        c = coeffs[t]
        if c:
            for idx, r in enumerate(red[t]):
                if r:
                    out[idx] += c * r
    return out


class CyclotomicNumber(Record):
    """An exact element of Q(zeta_m) in canonical (reduced) form.

    Immutable; arithmetic between two cyclotomic numbers requires equal
    orders (use :func:`embed` to move into a larger field first), and is
    also defined against ``int`` / ``Fraction`` scalars.  Two rational
    values of different orders compare by value, as they do with an
    ``int`` and as they hash; any other order mismatch raises.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, order: int, coeffs):
        deg = len(cyclotomic_polynomial(order)) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            raise ValueError(f"too many coefficients for order {order}")
        cs += [Fraction(0)] * (deg - len(cs))
        Record.__init__(self, order, tuple(cs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, order: int, value) -> "CyclotomicNumber":
        return cls(order, [Fraction(value)])

    @classmethod
    def zero(cls, order: int) -> "CyclotomicNumber":
        return cls.from_rational(order, 0)

    @classmethod
    def one(cls, order: int) -> "CyclotomicNumber":
        return cls.from_rational(order, 1)

    @classmethod
    def from_powers(cls, order: int, coeffs) -> "CyclotomicNumber":
        """sum_t coeffs[t] * zeta_m^t, for exponents t below max(m, 2*phi(m) - 1)."""
        return cls(order, _reduce(order, coeffs))

    # -- basic structure ---------------------------------------------------

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError(
                    f"order mismatch: {self.order} vs {other.order}; embed first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(self.order, other)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicNumber(
            self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        if isinstance(other, CyclotomicNumber):
            o = self._coerce(other)
            if o.is_rational():
                return self._scale(o.coeffs[0])
            if self.is_rational():
                return o._scale(self.coeffs[0])
        elif isinstance(other, (int, Fraction)):
            return self._scale(Fraction(other))
        else:
            return NotImplemented
        deg = len(self.coeffs)
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    prod[i + j] += a * b
        return CyclotomicNumber.from_powers(self.order, prod)

    __rmul__ = __mul__

    def _scale(self, f: Fraction) -> "CyclotomicNumber":
        return CyclotomicNumber(self.order, [a * f for a in self.coeffs])

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse: the product of the conjugates sigma_a(x) over
        the units a != 1 mod m, divided by the norm N(x), a nonzero rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        m = self.order
        adjugate = CyclotomicNumber.one(m)
        for a in range(2, m):
            if gcd(a, m) == 1:
                adjugate = adjugate * self.galois(a)
        return adjugate / (self * adjugate).to_rational()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CyclotomicNumber(self.order, [a / f for a in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __bool__(self):
        return not self.is_zero()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = CyclotomicNumber.one(self.order)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return self.galois(-1)

    def galois(self, j: int) -> "CyclotomicNumber":
        """The field automorphism zeta -> zeta^j (requires gcd(j, m) = 1)."""
        m = self.order
        if gcd(j % m, m) != 1:
            raise ValueError(f"{j} is not invertible modulo {m}")
        return _substitute(self, m, j)

    # -- comparisons / hashing / display -----------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order and self.is_rational() and other.is_rational():
                return self.coeffs[0] == other.coeffs[0]  # as == int does, and as hashed
            return self.coeffs == self._coerce(other).coeffs
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        terms = []
        for t, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if t == 0:
                terms.append(str(c))
            else:
                mono = f"z{self.order}" if t == 1 else f"z{self.order}^{t}"
                terms.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(terms) if terms else "0"


def zeta(m: int, e: int = 1) -> CyclotomicNumber:
    """The root of unity zeta_m^e in canonical form (e taken modulo m)."""
    return CyclotomicNumber(m, _power_reductions(m)[e % m])


def embed(x: CyclotomicNumber, m: int) -> CyclotomicNumber:
    """Image of x under the ring embedding Q(zeta_l) -> Q(zeta_m), l | m.

    Sends zeta_l to zeta_m^(m/l); the identity on rational constants.
    """
    l = x.order
    if m % l != 0:
        raise ValueError(f"{l} does not divide {m}")
    return _substitute(x, m, m // l)


def _substitute(x: CyclotomicNumber, m: int, j: int) -> CyclotomicNumber:
    # the ring map zeta_l^t -> zeta_m^(t*j), l = x.order
    coeffs = [0] * m
    for t, c in enumerate(x.coeffs):
        coeffs[t * j % m] += c
    return CyclotomicNumber.from_powers(m, coeffs)
