import math
import random

import pytest

from landau_lab.dimensions import (
    dim_surface,
    dim_torus,
    torus_composition_check,
)


def test_surface_count_torus_case():
    # chi = 0: the count is k*d at every level
    for k in (1, 3, 8):
        for m in (0, 1, 4):
            rep = dim_surface(k, 5, 1, m)
            assert rep.value == 5 * k
            assert rep.threshold_ok


def test_surface_count_sphere_and_higher_genus():
    assert dim_surface(1, 4, 0, 0).value == 5
    assert dim_surface(1, 4, 0, 1).value == 7
    rep = dim_surface(1, 10, 2, 1)
    assert rep.value == 7
    assert rep.threshold_ok  # 10 + 2*(-2) = 6 > 0


def test_surface_threshold_flag():
    # k*d + (m+1)*chi = 4 - 6 < 0: formula value reported, flagged invalid
    rep = dim_surface(1, 4, 2, 2)
    assert not rep.threshold_ok
    with pytest.raises(ValueError):
        dim_surface(0, 4, 0, 0)


def test_torus_count_formula():
    assert dim_torus(1, 7, [3], 2).value == 21
    # n = 2: binom(m+1, 1) * k^2 * d1 * d2
    assert dim_torus(2, 3, [1, 2], 0).value == 18
    assert dim_torus(2, 3, [1, 2], 2).value == 54
    with pytest.raises(ValueError):
        dim_torus(2, 3, [1], 0)
    with pytest.raises(ValueError):
        dim_torus(1, 3, [0], 0)


def test_counts_reject_levels_and_genera_that_do_not_exist():
    with pytest.raises(ValueError, match="m=-1"):
        dim_torus(2, 2, [1, 2], -1)
    with pytest.raises(ValueError, match="m=-1"):
        dim_surface(1, 2, 1, -1)
    with pytest.raises(ValueError, match="g=-1"):
        dim_surface(1, 2, -1, 0)


def test_composition_sum_matches():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(1, 4)
        k = rng.randrange(1, 9)
        d_list = [rng.randrange(1, 5) for _ in range(n)]
        m = rng.randrange(0, 5)
        rep = torus_composition_check(n, k, d_list, m)
        assert rep["match"], rep


def test_demailly_leading_matches_torus_count():
    # on the flat torus the leading smooth-volume term
    # (k/2pi)^n * binom(m+n-1, n-1) * vol is exact: vol = (2 pi)^n * prod(d)
    for n, d_list, m, k in [(1, [2], 0, 6), (2, [1, 3], 1, 4)]:
        vol = (2 * math.pi) ** n * math.prod(d_list)
        lead = (k / (2 * math.pi)) ** n * math.comb(m + n - 1, n - 1) * vol
        exact = dim_torus(n, k, d_list, m).value
        assert abs(lead - exact) < 1e-9 * exact
