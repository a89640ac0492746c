"""Exact arithmetic in the ring generated by square roots of integers.

Ladder normalizations produce scalars of the form sum_s c_s * sqrt(s) with
rational c_s and squarefree s.  Sums and products of these stay in the same
ring, so every operator identity downstream can be checked with zero
floating-point tolerance.  Most values never leave the rationals, so
:func:`exact` keeps a real rational as an ``int`` or a ``Fraction`` and
returns a :class:`CRad` only for a complex or irrational value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def square_free_split(n: int) -> tuple[int, int]:
    """Write n = g*g*s with s squarefree and return (g, s)."""
    if n < 1:
        raise ValueError("square_free_split needs a positive integer, got %r" % (n,))
    g, s = 1, 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            g *= p ** (e // 2)
            if e % 2:
                s *= p
        p += 1 if p == 2 else 2
    s *= m
    return g, s


class Rad:
    """A finite sum of c * sqrt(s) terms, keyed by squarefree s, each c a
    nonzero int or Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int | Fraction] | None = None):
        self.terms: dict[int, int | Fraction] = \
            {s: c for s, c in terms.items() if c} if terms else {}

    @classmethod
    def rational(cls, q) -> "Rad":
        return cls({1: Fraction(q)})

    @classmethod
    def sqrt(cls, q) -> "Rad":
        """Exact square root of a nonnegative rational; an integer's has an
        int coefficient."""
        if type(q) is not int:
            q = Fraction(q)
        if q < 0:
            raise ValueError("cannot take a real square root of %s" % q)
        if q == 0:
            return cls()
        g, s = square_free_split(q.numerator * q.denominator)
        return cls({s: g if q.denominator == 1 else Fraction(g, q.denominator)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and 1 in terms)

    def as_fraction(self) -> int | Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("%r is not rational" % self)
        return self.terms[1]

    def value(self) -> float:
        return sum(float(c) * s ** 0.5 for s, c in self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> "Rad":
        return Rad({s: -c for s, c in self.terms.items()})

    def _coerce(self, other):
        if isinstance(other, Rad):
            return other
        if isinstance(other, (int, Fraction)):
            return Rad.rational(other)
        return None

    def __add__(self, other):
        if type(other) is not Rad:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, Fraction(0)) + c
        return Rad(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Rad({s: c * other for s, c in self.terms.items()})
        if not isinstance(other, Rad):
            return NotImplemented
        if len(self.terms) == 1 and len(other.terms) == 1:
            (s, c), = self.terms.items()
            (t, d), = other.terms.items()
            g = gcd(s, t)
            return Rad({(s // g) * (t // g): c * d * g})
        out: dict[int, Fraction] = {}
        for s, c in self.terms.items():
            for t, d in other.terms.items():
                g = gcd(s, t)
                key = (s // g) * (t // g)
                out[key] = out.get(key, Fraction(0)) + c * d * g
        return Rad(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is not Rad:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "Rad(0)"
        parts = []
        for s in sorted(self.terms):
            c = self.terms[s]
            parts.append(str(c) if s == 1 else "%s*sqrt(%d)" % (c, s))
        return "Rad(%s)" % " + ".join(parts)


class CRad:
    """Complex scalar with exact Rad real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=None, im=None):
        self.re = re if isinstance(re, Rad) else Rad.rational(re) if re else Rad()
        self.im = im if isinstance(im, Rad) else Rad.rational(im) if im else Rad()

    @classmethod
    def of(cls, x) -> "CRad":
        """Coerce an exact scalar: int, Fraction, Rad or CRad.  Floats and
        complex numbers are rejected, integer-valued or not."""
        if isinstance(x, CRad):
            return x
        if isinstance(x, (Rad, int, Fraction)):
            return cls(x)
        raise TypeError("cannot coerce %r to an exact scalar" % (x,))

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def value(self) -> complex:
        return complex(self.re.value(), self.im.value())

    def __complex__(self) -> complex:
        return self.value()

    def conjugate(self) -> "CRad":
        return CRad(self.re, -self.im)

    def __neg__(self) -> "CRad":
        return CRad(-self.re, -self.im)

    def __add__(self, other):
        if type(other) is not CRad:
            if isinstance(other, (int, Fraction)):
                return CRad(self.re + other, self.im)
            try:
                other = CRad.of(other)
            except TypeError:
                return NotImplemented
        if not (self.im.terms or other.im.terms):
            return CRad(self.re + other.re)
        return CRad(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not CRad:
            if isinstance(other, (int, Fraction)):
                return CRad(self.re * other, self.im * other)
            try:
                other = CRad.of(other)
            except TypeError:
                return NotImplemented
        if not (self.im.terms or other.im.terms):
            return CRad(self.re * other.re)
        return CRad(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is not CRad:
            try:
                other = CRad.of(other)
            except TypeError:
                return NotImplemented
        return self.re.terms == other.re.terms and self.im.terms == other.im.terms

    def __repr__(self) -> str:
        return "CRad(%r, %r)" % (self.re, self.im)


def exact(x):
    """The cheapest exact form of a scalar: an int or a Fraction when it is a
    real rational, a CRad when it is complex or irrational.  Floats and
    complex numbers are rejected as in :meth:`CRad.of`."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    c = x if type(x) is CRad else CRad.of(x)
    if c.im.terms or not c.re.is_rational():
        return c
    q = c.re.as_fraction()
    return q.numerator if q.denominator == 1 else q
