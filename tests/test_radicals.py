import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau_lab.radicals import CRad, Rad, square_free_split


def test_square_free_split_small():
    assert square_free_split(1) == (1, 1)
    assert square_free_split(2) == (1, 2)
    assert square_free_split(4) == (2, 1)
    assert square_free_split(12) == (2, 3)
    assert square_free_split(720) == (12, 5)


def test_square_free_split_random():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 20000)
        g, s = square_free_split(n)
        assert g * g * s == n
        for p in range(2, math.isqrt(s) + 1):
            assert s % (p * p) != 0


def test_rad_basic_arithmetic():
    one = Rad.rational(1)
    r2 = Rad.sqrt(2)
    r3 = Rad.sqrt(3)
    assert (one + r2) * (one - r2) == Rad.rational(-1)
    assert r2 * r2 == Rad.rational(2)
    # (sqrt2 + sqrt3)^2 = 5 + 2 sqrt6, and sqrt24 normalizes to 2 sqrt6
    assert (r2 + r3) * (r2 + r3) == Rad.rational(5) + Rad.sqrt(24)
    assert (r2 * r3) == Rad.sqrt(6)
    assert abs(r2.value() - math.sqrt(2)) < 1e-15


def test_rad_sqrt_normalizes_fractions():
    half = Rad.sqrt(Fraction(1, 2))
    assert half * half == Rad.rational(Fraction(1, 2))
    assert abs(half.value() - math.sqrt(0.5)) < 1e-15
    assert Rad.sqrt(0) == Rad()
    with pytest.raises(ValueError):
        Rad.sqrt(-2)


def test_rad_rational_round_trip():
    q = Rad.rational(Fraction(7, 3))
    assert q.is_rational()
    assert q.as_fraction() == Fraction(7, 3)
    assert not Rad.sqrt(5).is_rational()


def test_crad_conjugate_and_modulus():
    x = CRad(Rad.sqrt(2), Rad.rational(1))
    prod = x * x.conjugate()
    assert prod.im.is_zero()
    assert prod.re == Rad.rational(3)
    assert abs(x.value() - complex(math.sqrt(2), 1)) < 1e-15


def test_crad_of_rejects_inexact():
    assert CRad.of(3) == CRad(3)
    assert CRad.of(Fraction(1, 3)).re.as_fraction() == Fraction(1, 3)
    with pytest.raises(TypeError):
        CRad.of(0.3)
    with pytest.raises(TypeError):
        CRad.of(1.5 + 2j)
    # integer-valued floats and complex numbers are inexact types too
    with pytest.raises(TypeError):
        CRad.of(2.0)
    with pytest.raises(TypeError):
        CRad.of(2 + 1j)


# Property checks on the arithmetic.  Single-term, multi-term and zero
# values, real and complex, and plain rationals are drawn together, so every
# shortcut in the operators meets the general path on the same inputs.
_rationals = st.one_of(st.integers(-4, 4),
                       st.fractions(min_value=-4, max_value=4, max_denominator=6))
_rads = st.one_of(
    st.dictionaries(st.sampled_from([1, 2, 3, 5, 6, 10]), _rationals, max_size=3).map(Rad),
    st.builds(Rad.sqrt, st.integers(0, 40)),
    st.builds(Rad.sqrt, st.fractions(min_value=0, max_value=8, max_denominator=6)),
)
_crads = st.one_of(st.builds(CRad, _rads), st.builds(CRad, _rads, _rads))
_scalars = st.one_of(_rationals, _rads, _crads)


def _stored(x):
    """The coefficients a value stores, by part."""
    if isinstance(x, CRad):
        return [x.re.terms, x.im.terms]
    return [x.terms] if isinstance(x, Rad) else []


def _value(x):
    return complex(x.value()) if isinstance(x, (Rad, CRad)) else complex(x)


def _check(x, want):
    """x stores no zero coefficient, and only ints and Fractions, and its
    value agrees with the floating-point one."""
    for terms in _stored(x):
        assert all(c and type(c) in (int, Fraction) for c in terms.values()), terms
    assert abs(_value(x) - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=150, deadline=None)
@given(_scalars, _scalars, _scalars)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0 and 0 == x + (-x)
    vx, vy, vz = _value(x), _value(y), _value(z)
    _check(x + y, vx + vy)
    _check(x + (-y), vx - vy)
    _check(x * y, vx * vy)
    _check(x * (y + z), vx * (vy + vz))


@settings(max_examples=100, deadline=None)
@given(_rationals, _rads)
def test_equality_with_rationals_in_both_orders(q, r):
    for x in (Rad.rational(q), CRad(q), CRad.of(Rad.rational(q)), CRad(Rad.rational(q), 0)):
        assert x == q and q == x
        assert not (x != q) and not (q != x)
    for x in (Rad.rational(q) + Rad.sqrt(2), CRad(q, 1)):
        assert x != q and q != x
    want = r.is_rational() and r.as_fraction() == q
    assert (r == q) == (q == r) == (CRad(r) == q) == (q == CRad(r)) == want


def test_square_roots_of_integers_keep_int_coefficients():
    assert Rad.sqrt(12).terms == {3: 2} and type(Rad.sqrt(12).terms[3]) is int
    assert Rad.sqrt(9) == 3 and type(Rad.sqrt(9).terms[1]) is int
    assert Rad.sqrt(Fraction(1, 2)).terms == {2: Fraction(1, 2)}
    assert Rad.sqrt(Fraction(4, 1)).terms == {1: 2}
