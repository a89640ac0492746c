"""Closed-form dimension counts for level subspaces and their consistency
checks.

All counts are exact integers.  The surface count for level m at tensor power
k is k*d + (1/2 + m)*(2 - 2g); the torus count in n complex dimensions is
binom(m+n-1, n-1) * k^n * prod(d_i).  Levels start at m = 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb, prod

from .fock import multi_indices_of_degree


@dataclass
class DimReport:
    kind: str
    value: int
    threshold_ok: bool
    inputs: dict

    def to_dict(self) -> dict:
        return asdict(self)


def dim_surface(k: int, d: int, g: int, m: int) -> DimReport:
    """Level-m count on a genus-g surface with degree-d bundle at power k.

    threshold_ok records the strict positivity k*d + (m+1)*(2-2g) > 0 under
    which the count is the actual dimension.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if g < 0 or m < 0:
        raise ValueError("genus and level must be nonnegative, got g=%d, m=%d"
                         % (g, m))
    chi = 2 - 2 * g
    val = Fraction(k * d) + (Fraction(1, 2) + m) * chi
    if val.denominator != 1:
        raise AssertionError("count should be an integer, got %s" % val)
    ok = k * d + (m + 1) * chi > 0
    return DimReport("surface", int(val), ok,
                     {"k": k, "d": d, "g": g, "m": m})


def dim_torus(n: int, k: int, d_list, m: int) -> DimReport:
    """Level-m count on a product of n complex tori with degrees d_list."""
    d_list = list(d_list)
    if len(d_list) != n:
        raise ValueError("need %d degrees" % n)
    if k < 1 or any(d < 1 for d in d_list):
        raise ValueError("k and all degrees must be positive")
    if m < 0:
        raise ValueError("level must be nonnegative, got m=%d" % m)
    val = comb(m + n - 1, n - 1) * k ** n * prod(d_list)
    return DimReport("torus", val, True,
                     {"n": n, "k": k, "d_list": d_list, "m": m})


def torus_composition_check(n: int, k: int, d_list, m: int) -> dict:
    """The n-dimensional level count must equal the sum over |alpha| = m of
    products of one-dimensional level counts."""
    direct = dim_torus(n, k, d_list, m).value
    total = 0
    for alpha in multi_indices_of_degree(n, m):
        term = 1
        for i, ai in enumerate(alpha):
            term *= dim_torus(1, k, [d_list[i]], ai).value
        total += term
    return {"direct": direct, "composition_sum": total,
            "match": direct == total}
