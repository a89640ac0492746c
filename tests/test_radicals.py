import math
import random
from fractions import Fraction

import pytest

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
