import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau_lab.fock import (
    FULL,
    FockOperator,
    PolyZZbar,
    GradedBasis,
    ladder_matrices,
    mi_degree,
    multi_indices,
    multi_indices_of_degree,
    pi_m,
    rho_ab,
    rho_tangent,
)
from landau_lab.radicals import CRad, Rad


def _random_poly(n, degree, rng):
    p = PolyZZbar(n)
    for _ in range(5):
        b = tuple(rng.randrange(0, degree + 1) for _ in range(n))
        a = tuple(rng.randrange(0, degree + 1) for _ in range(n))
        if mi_degree(a) + mi_degree(b) > degree:
            continue
        p = p + PolyZZbar.monomial(n, a, b, rng.randrange(-3, 4))
    return p


def test_multi_index_enumeration_counts():
    # number of monomials of degree <= D in n variables is C(D+n, n)
    for n in (1, 2, 3):
        for D in (0, 1, 4):
            got = len(multi_indices(n, D))
            assert got == math.comb(D + n, n)
    # each degree block, in the order of multi_indices
    for n in (1, 2, 3, 4):
        for D in range(9):
            block = multi_indices_of_degree(n, D)
            assert block == [a for a in multi_indices(n, D) if mi_degree(a) == D]
            assert len(block) == math.comb(D + n - 1, n - 1)
    assert len(multi_indices_of_degree(2, 3)) == 4


def test_multi_index_order_degree_then_lex():
    idx = multi_indices(2, 3)
    degs = [mi_degree(a) for a in idx]
    assert degs == sorted(degs)
    # within a degree block the order is deterministic and lexicographic
    block = [a for a in idx if mi_degree(a) == 2]
    assert block == sorted(block)


def test_basis_labels_and_lookup():
    anti = GradedBasis(2, 3)
    assert anti.size == math.comb(5, 2)
    for i, lab in enumerate(anti.labels):
        assert anti.index(lab) == i
    full = GradedBasis(1, 4, FULL)
    assert full.size == sum(1 for a in range(5) for b in range(5) if a + b <= 4)


def test_poly_evaluate_against_numpy():
    rng = random.Random(5)
    p = _random_poly(2, 4, rng)
    z = np.array([0.3 + 0.2j, -1.1 + 0.7j])
    val = p.evaluate(z)
    direct = 0
    for (a, b), c in p.terms():
        direct += complex(c) * np.prod(z ** a) * np.prod(np.conj(z) ** b)
    assert abs(val - direct) < 1e-12


def test_ladder_commutation_on_safe_columns():
    basis = GradedBasis(2, 5)
    lowers, raisers = ladder_matrices(basis)
    D = 5
    for i in range(2):
        for j in range(2):
            comm = lowers[i] @ raisers[j] - raisers[j] @ lowers[i]
            expect = FockOperator.identity(basis) if i == j else FockOperator.zero(basis)
            assert comm.agrees_with(expect, D - 1)
    assert (lowers[0] @ lowers[1] - lowers[1] @ lowers[0]).agrees_with(
        FockOperator.zero(basis), D)


def test_rho_shift_rule_spot():
    basis = GradedBasis(1, 6)
    r01 = rho_ab(basis, (0,), (1,))
    r12 = rho_ab(basis, (1,), (2,))
    prod = r01 @ r12
    assert prod.agrees_with(rho_ab(basis, (0,), (2,)), 6)
    # mismatched middle index annihilates
    r23 = rho_ab(basis, (2,), (3,))
    assert (r01 @ r23).agrees_with(FockOperator.zero(basis), 6)


def test_rho_adjoint_swaps_indices():
    basis = GradedBasis(2, 4)
    a, b = (1, 0), (0, 2)
    lhs = rho_ab(basis, a, b).adjoint()
    rhs = rho_ab(basis, b, a)
    assert lhs.agrees_with(rhs, 4 - abs(mi_degree(a) - mi_degree(b)))


def test_pi_m_idempotent_and_orthogonal():
    basis = GradedBasis(2, 4)
    projs = [pi_m(basis, m) for m in range(3)]
    for m, p in enumerate(projs):
        assert (p @ p).agrees_with(p, 4)
        for l in range(m):
            assert (p @ projs[l]).agrees_with(FockOperator.zero(basis), 4)


def test_rho_tangent_antisymmetry():
    from fractions import Fraction

    basis = GradedBasis(2, 4)
    u = [Fraction(1), Fraction(2)]
    zero = [Fraction(0), Fraction(0)]
    lhs = rho_tangent(basis, u, zero).adjoint()
    rhs = rho_tangent(basis, zero, u).scale(-1)
    assert lhs.agrees_with(rhs, 3)


def test_one_ladder_set_per_basis():
    # the ledger, rho_tangent and the bargmann shifts all read this one set
    for basis in (GradedBasis(2, 3), GradedBasis(2, 3, FULL)):
        assert ladder_matrices(basis) is ladder_matrices(basis)
    assert ladder_matrices(GradedBasis(2, 3)) is not ladder_matrices(GradedBasis(2, 3))
    with pytest.raises(ValueError, match="antiholomorphic"):
        rho_tangent(GradedBasis(1, 3, FULL), [1], [0])


def test_one_rank_one_shift_per_basis_and_pair():
    # the ledger's shift checks read each rho_ab many times; a new basis
    # builds its own
    basis = GradedBasis(2, 3)
    r = rho_ab(basis, (1, 0), (0, 2))
    assert rho_ab(basis, [1, 0], [0, 2]) is r
    assert rho_ab(basis, (0, 2), (1, 0)) is not r
    other = GradedBasis(2, 3)
    fresh = rho_ab(other, (1, 0), (0, 2))
    assert fresh is not r and fresh.basis is other and fresh.entries == r.entries


def test_negation_multiplies_no_entry(monkeypatch):
    """scale(-1) and rho_tangent's unit coefficients negate the radical
    ladder entries without a product."""
    basis = GradedBasis(2, 4)
    lowers, raises_ = ladder_matrices(basis)
    negated = {k: -v for k, v in raises_[0].entries.items()}
    skew = {**negated, **lowers[1].entries}

    def refuse(self, other):
        raise AssertionError("an entry was multiplied")

    monkeypatch.setattr(CRad, "__mul__", refuse)
    monkeypatch.setattr(CRad, "__rmul__", refuse)
    assert raises_[0].scale(-1).entries == negated
    assert rho_tangent(basis, [1, 0], [0, 1]).entries == skew
    assert rho_tangent(basis, [0, 0], [0, 1]).entries is lowers[1].entries


def test_parity_split_reassembles():
    rng = random.Random(9)
    basis = GradedBasis(1, 4)
    entries = {}
    for _ in range(8):
        i, j = rng.randrange(basis.size), rng.randrange(basis.size)
        entries[(i, j)] = CRad(rng.randrange(-2, 3), rng.randrange(-2, 3))
    A = FockOperator(basis, entries)
    even, odd = A.parity_split()
    assert (even + odd).agrees_with(A, 4)
    assert even.parity == 0 and odd.parity == 1


def _coords(basis, p):
    """A polynomial's coordinates on a full-kind basis: its coefficients
    against the plain monomials z^a zbar^b."""
    return {basis.index(label): c for label, c in p.terms()}


def test_poly_coordinate_round_trip():
    basis = GradedBasis(2, 4, FULL)
    rng = random.Random(10)
    p = _random_poly(2, 4, rng)
    assert FockOperator.identity(basis).apply_poly(p) == p
    # coordinates are taken on the full kind only, of a polynomial in the
    # basis's variables and within its cutoff
    with pytest.raises(ValueError, match="full kind"):
        FockOperator.identity(GradedBasis(2, 4)).apply_poly(p)
    with pytest.raises(ValueError, match="variable count"):
        FockOperator.identity(GradedBasis(1, 4, FULL)).apply_poly(p)
    with pytest.raises(ValueError, match="degree 5 exceeds cutoff 4"):
        FockOperator.identity(basis).apply_poly(PolyZZbar.monomial(2, (2, 0), (1, 2)))


def test_apply_poly_matches_matrix():
    basis = GradedBasis(1, 5, FULL)
    lowers, raisers = ladder_matrices(basis)
    A = raisers[0] @ lowers[0]
    rng = random.Random(12)
    p = _random_poly(1, 4, rng)
    image = A.apply_poly(p)
    vec = np.zeros(basis.size, dtype=complex)
    for i, c in _coords(basis, p).items():
        vec[i] = complex(c)
    expect = A.as_array() @ vec
    got = np.zeros_like(expect)
    for i, c in _coords(basis, image).items():
        got[i] = complex(c)
    assert np.max(np.abs(got - expect)) < 1e-12


# ---------------------------------------------------------------------------
# Operators whose entries mix the exact scalar forms

_MIXED_BASIS = GradedBasis(2, 2)
_small = st.integers(-3, 3)
_scalars = st.one_of(
    _small,
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.builds(CRad, _small, _small),
    st.builds(lambda s, c: CRad(Rad.sqrt(s) * c, 0), st.sampled_from([2, 3, 6]), _small),
)
_entries = st.dictionaries(
    st.tuples(st.integers(0, _MIXED_BASIS.size - 1),
              st.integers(0, _MIXED_BASIS.size - 1)),
    _scalars, max_size=12)
# The values an operator scales by: every entry form, multi-term radicals
# such as sqrt(2) + 1, and complex irrationals.
_roots = st.sampled_from([2, 3, 6])
_factors = st.one_of(
    _scalars,
    st.builds(lambda s, c, d: CRad(Rad.sqrt(s) * c + d), _roots, _small, _small),
    st.builds(lambda s, c, d: CRad(d, Rad.sqrt(s) * c), _roots, _small, _small),
)
_FULL_TWIN = GradedBasis(1, 2, FULL)
_vectors = st.dictionaries(st.integers(0, _MIXED_BASIS.size - 1), _scalars, max_size=4)


def _dense(entries):
    out = np.zeros((_MIXED_BASIS.size, _MIXED_BASIS.size), dtype=complex)
    for (i, j), c in entries.items():
        out[i, j] = CRad.of(c).value()
    return out


def _close(x, y):
    return np.max(np.abs(x - y), initial=0.0) <= 1e-12


def _value(c):
    return CRad.of(c).value()


@settings(deadline=None)
@given(_entries, _entries, _factors)
def test_mixed_entry_algebra_matches_numpy(ea, eb, c):
    """The algebra matches the dense matrices."""
    A = FockOperator(_MIXED_BASIS, ea)
    B = FockOperator(_MIXED_BASIS, eb)
    a, b = _dense(ea), _dense(eb)
    AB, S, M = A @ B, A + B, A - B
    assert _close(A.as_array(), a)
    assert _close(AB.as_array(), a @ b)
    assert _close(S.as_array(), a + b)
    assert _close(M.as_array(), a - b)
    assert _close(A.adjoint().as_array(), a.conj().T)
    assert _close(A.scale(c).as_array(), _value(c) * a)


@settings(deadline=None)
@given(_entries, _entries, _factors, _factors, _factors, _vectors)
def test_scaled_operator_algebra_matches_numpy(ea, eb, s, t, c, vec):
    """Scaled operators compose, add and act on polynomials like
    their dense matrices, and a common factor comes out of a sum or a
    product exactly."""
    A0, B0 = FockOperator(_MIXED_BASIS, ea), FockOperator(_MIXED_BASIS, eb)
    A, B, Bs = A0.scale(s), B0.scale(t), B0.scale(s)
    a, b, bs = _dense(ea) * _value(s), _dense(eb) * _value(t), _dense(eb) * _value(s)
    assert _close(A.as_array(), a)
    assert _close((A @ B).as_array(), a @ b)
    assert _close((A + Bs).as_array(), a + bs)
    assert _close((A - Bs).as_array(), a - bs)
    assert _close((A + B).as_array(), a + b)
    assert _close((A - B).as_array(), a - b)
    assert _close(A.scale(c).as_array(), _value(c) * a)
    assert _close(A.adjoint().as_array(), a.conj().T)
    v = np.zeros(_MIXED_BASIS.size, dtype=complex)
    for i, x in vec.items():
        v[i] = _value(x)
    # the same matrix on the full-kind basis of one variable, also of size
    # 6, applied to the polynomial with coordinates vec
    F = FockOperator(_FULL_TWIN, ea).scale(s)
    got = np.zeros_like(v)
    for i, x in _coords(_FULL_TWIN, F.apply_poly(
            PolyZZbar(1, {_FULL_TWIN.labels[i]: x for i, x in vec.items()}))).items():
        got[i] = _value(x)
    assert _close(got, a @ v)
    assert (A + Bs).entries == (A0 + B0).scale(s).entries
    assert (A @ B).entries == (A0 @ B0).scale(CRad.of(s) * CRad.of(t)).entries


def test_scale_takes_multi_term_values():
    """Scaling multiplies every entry, so a multi-term value scales like any
    other and exactly: (sqrt(2) + 1)(sqrt(2) - 1) = 1.  Scaling by 0 is the
    zero operator, and by 1 the operator itself."""
    entries = {(0, 0): 1, (1, 2): Rad.sqrt(2), (3, 1): CRad(Fraction(1, 2), -1)}
    A = FockOperator(_MIXED_BASIS, entries)
    for c in (CRad(1, 1), CRad(Rad.sqrt(2) + 1), CRad(Rad.sqrt(2), 1)):
        assert _close(A.scale(c).as_array(), _value(c) * _dense(entries))
    back = A.scale(CRad(Rad.sqrt(2) + 1)).scale(CRad(Rad.sqrt(2) - 1))
    assert back.entries == A.entries
    assert A.scale(0).is_zero() and A.scale(Fraction(0)).is_zero()
    assert A.scale(1) is A


@settings(deadline=None)
@given(_entries, _factors)
def test_entry_forms_compare_equal(entries, c):
    """An operator does not depend on the form its entries are given in, and
    it stores every real rational entry as an int or a Fraction, scaled or
    not."""
    A = FockOperator(_MIXED_BASIS, entries)
    as_crad = FockOperator(_MIXED_BASIS, {k: CRad.of(v) for k, v in entries.items()})
    D = _MIXED_BASIS.D
    assert A.agrees_with(as_crad, D) and as_crad.agrees_with(A, D)
    scaled = A.scale(c)
    assert scaled.entries == FockOperator(
        _MIXED_BASIS, {k: CRad.of(v) * CRad.of(c) for k, v in entries.items()}).entries
    for X in (A, scaled):
        for v in X.entries.values():
            if isinstance(v, CRad):
                assert not v.im.is_zero() or not v.re.is_rational()


@settings(deadline=None)
@given(_entries, _entries)
def test_parity_is_read_off_the_entries(ea, eb):
    """parity_split gives an even and an odd part (the zero operator counts
    as even), an operator with both is mixed, and a nonzero composition of
    single-parity factors has the sum of their parities."""
    A, B = FockOperator(_MIXED_BASIS, ea), FockOperator(_MIXED_BASIS, eb)
    for X in (A, B):
        even, odd = X.parity_split()
        assert even.parity == 0
        assert odd.parity == (0 if odd.is_zero() else 1)
        if not (even.is_zero() or odd.is_zero()):
            assert X.parity is None
    for X in A.parity_split():
        for Y in B.parity_split():
            C = X @ Y
            if not C.is_zero():
                assert C.parity == (X.parity + Y.parity) % 2


def test_radical_and_rational_entries_agree():
    basis = GradedBasis(1, 2)
    one = FockOperator(basis, {(0, 0): 1, (1, 1): Fraction(1, 2), (2, 2): 2})
    same = FockOperator(basis, {(0, 0): CRad(1), (1, 1): CRad(Fraction(1, 2)),
                                (2, 2): CRad(Rad.sqrt(4))})
    assert one.agrees_with(same, 2)
    assert [type(c) for _, c in sorted(same.entries.items())] == [int, Fraction, int]
    root2 = FockOperator(basis, {(0, 0): Rad.sqrt(2)})
    assert (root2 @ root2).agrees_with(FockOperator(basis, {(0, 0): 2}), 2)
    with pytest.raises(TypeError):
        FockOperator(basis, {(0, 0): 0.5})
