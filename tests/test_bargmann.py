import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import genlaguerre

from landau_lab import bargmann
from landau_lab.bargmann import (
    bargmann_project_operator,
    compare_star_orders,
    gram_inner,
    laguerre_q,
    laguerre_sum_identity,
    op_compose_law,
    op_of,
    op_trace_antiholo,
    pairing,
    star_product,
)
from landau_lab.fock import (FULL, FockOperator, GradedBasis, PolyZZbar, ladder_matrices,
                             mi_factorial, mi_sub, mi_unit, multi_indices)
from landau_lab.radicals import CRad, Rad


def _random_full_poly(n, degree, rng, nterms=4):
    p = PolyZZbar(n)
    for _ in range(nterms):
        a = tuple(rng.randrange(0, degree + 1) for _ in range(n))
        b = tuple(rng.randrange(0, degree + 1) for _ in range(n))
        if sum(a) + sum(b) > degree:
            continue
        p = p + PolyZZbar.monomial(n, a, b, rng.randrange(-3, 4))
    return p


def _normalization(alpha, beta):
    return Rad.sqrt(Fraction(1, mi_factorial(alpha) * mi_factorial(beta)))


def _normalized_shift(basis, alpha, beta):
    """The paper's normalized shift (alpha! beta!)^(-1/2) (a*)^alpha P_vac
    a^beta: the integer shift matrix, scaled."""
    return bargmann._shift(basis, alpha, beta).scale(_normalization(alpha, beta))


def _normalized_symbol(n, alpha, beta):
    """The symbol of the normalized shift: (alpha! beta!)^(-1/2) times the
    integer shift symbol."""
    return bargmann._shift_symbol(n, alpha, beta) * _normalization(alpha, beta)


def _project(f):
    """The vacuum projection of f through its operator on a full basis of
    cutoff 4, the largest degree these tests use."""
    return bargmann_project_operator(GradedBasis(f.n, 4, FULL)).apply_poly(f)


# ---------------------------------------------------------------------------
# Laguerre layer


def _laguerre_by_recursion(m, p):
    """[c_0, ..., c_m] from the definition x^{-p}/m! (d/dx - 1)^m x^{m+p}:
    apply d/dx - 1 m times to the integer coefficients of x^{m+p}."""
    coeffs = [0] * (m + p) + [1]
    for _ in range(m):
        coeffs = [(j + 1) * up - c
                  for j, (c, up) in enumerate(zip(coeffs, coeffs[1:] + [0]))]
    assert not any(coeffs[:p])
    return [Fraction(c, math.factorial(m)) for c in coeffs[p:]]


def test_laguerre_closed_form_matches_its_definition():
    # laguerre_q's binomial form c_j = (-1)^j C(m+p, m-j) / j! against the
    # (d/dx - 1)^m recursion, exactly, over every m, p <= 12
    for m in range(13):
        for p in range(13):
            assert laguerre_q(m, p) == _laguerre_by_recursion(m, p), (m, p)


def test_laguerre_against_scipy():
    """The closed-form coefficients must reproduce scipy's generalized
    Laguerre coefficients to float precision."""
    for m in range(9):
        for p in range(4):
            ours = [float(c) for c in laguerre_q(m, p)]
            ref = list(reversed(genlaguerre(m, p).coefficients))
            assert len(ours) == len(ref)
            for a, b in zip(ours, ref):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_laguerre_endpoint_values():
    for m in range(8):
        for p in range(3):
            assert laguerre_q(m, p)[0] == math.comb(m + p, m)
            assert laguerre_q(m, p)[-1] == Fraction((-1) ** m, math.factorial(m))


def test_laguerre_sum_identity_range():
    # every case up to the guard m + n <= 12: the ledger's cases at every
    # input (m <= min(degree, 12 - n), degree <= 8, n <= 3) and beyond them
    for n in range(1, 5):
        for m in range(0, 13 - n):
            assert laguerre_sum_identity(m, n)
    with pytest.raises(ValueError):
        laguerre_sum_identity(12, 4)


@pytest.mark.parametrize("delta", [Fraction(1, 7), Fraction(1)])
def test_laguerre_sum_identity_rejects_a_perturbed_family(monkeypatch, delta):
    """A wrong coefficient fails the integer check, both when its j!-scaled
    value is no longer an integer (c_2 * 2! = 4 + 2/7 here, which truncation
    would map back to the true 4) and when it is a wrong integer."""
    true_q = bargmann.laguerre_q

    def perturbed(m, p):
        coeffs = true_q(m, p)
        if (m, p) == (3, 1):
            coeffs[2] += delta
        return coeffs

    assert laguerre_sum_identity(3, 2)
    monkeypatch.setattr(bargmann, "laguerre_q", perturbed)
    assert not laguerre_sum_identity(3, 2)


# ---------------------------------------------------------------------------
# Gaussian pairing and the projection


def test_gram_inner_moment_values():
    p = PolyZZbar.monomial
    one = PolyZZbar.constant(1)
    # mixed monomials are not orthogonal: <z zbar, 1> = 1
    assert gram_inner(p(1, (1,), (1,)), one) == CRad.of(1)
    assert gram_inner(one, one) == CRad.of(1)
    for a in range(5):
        mono = p(1, (0,), (a,))
        assert gram_inner(mono, mono) == CRad.of(math.factorial(a))
    # degree parity mismatch vanishes
    assert gram_inner(p(1, (0,), (2,)), p(1, (0,), (1,))).is_zero()


def test_gram_inner_antilinear_second_slot():
    f = PolyZZbar.monomial(1, (0,), (1,), CRad(0, 1))
    g = PolyZZbar.monomial(1, (0,), (1,))
    assert gram_inner(f, g) == CRad(0, 1)
    assert gram_inner(g, f) == CRad(0, -1)


def test_norm_sq_positive():
    # the squared norm <f, f> is real, and positive unless f is zero
    rng = random.Random(2)
    for _ in range(20):
        f = _random_full_poly(2, 4, rng)
        v = gram_inner(f, f)
        assert v.im.is_zero()
        v = v.re.as_fraction()
        assert v >= 0
        assert (v == 0) == f.is_zero()


def bargmann_project_quadrature(f, points, nodes=40):
    """Oracle for the vacuum projection: evaluate
    (2 pi)^{-n} integral e^{u.vbar - |v|^2} f(v) dmu(v)
    at the given complex points by the tensor-product Gauss-Hermite rule with
    the stated number of nodes per real dimension.

    The kernel e^{u.vbar} and every monomial factor over the variables, so
    the rule on a monomial is a product of one-variable sums over the
    nodes^2 points of the complex plane."""
    n = f.n
    t, w = np.polynomial.hermite.hermgauss(nodes)
    v = (t[:, None] + 1j * t[None, :]).ravel()
    weights = np.outer(w, w).ravel() / np.pi
    points = np.atleast_2d(np.asarray(points, dtype=complex).reshape(-1, n))
    # kernel[p, i, g]: e^{u_i vbar_g} at point p, scaled by the weight of g
    kernel = np.exp(points[:, :, None] * np.conj(v)) * weights
    out = np.zeros(points.shape[0], dtype=complex)
    for (a, b), c in f.terms():
        term = np.full(points.shape[0], complex(c))
        for i in range(n):
            term *= kernel[:, i, :] @ (v ** a[i] * np.conj(v) ** b[i])
        out += term
    return out


def test_projection_matches_quadrature():
    """Closed-form vacuum projection against the Gauss-Hermite quadrature
    oracle, compared pointwise for one and two variables."""
    rng = random.Random(4)
    rng_np = np.random.default_rng(4)
    for n in (1, 2):
        pts = 0.4 * (rng_np.standard_normal((5, n))
                     + 1j * rng_np.standard_normal((5, n)))
        for _ in range(4):
            f = _random_full_poly(n, 4, rng)
            exact_vals = _project(f).evaluate(pts)
            approx = bargmann_project_quadrature(f, pts, nodes=44)
            assert np.max(np.abs(exact_vals - approx)) < 1e-8


def test_quadrature_oracle_is_the_tensor_product_rule():
    """The oracle's per-variable sums equal the Gauss-Hermite rule summed
    over the full product grid of the 2n real coordinates."""
    rng = random.Random(5)
    pts = np.array([[0.3 - 0.2j, -0.5 + 0.1j], [0.0, 0.7j]])
    t, w = np.polynomial.hermite.hermgauss(12)
    grids = np.meshgrid(t, t, t, t, indexing="ij")
    v = np.stack([(grids[0] + 1j * grids[1]).ravel(),
                  (grids[2] + 1j * grids[3]).ravel()], axis=1)
    weights = np.prod(np.meshgrid(w, w, w, w, indexing="ij"), axis=0).ravel()
    for _ in range(3):
        f = _random_full_poly(2, 4, rng)
        fv = f.evaluate(v)
        full = [np.sum(weights * np.exp(np.conj(v) @ u) * fv) / np.pi ** 2
                for u in pts]
        got = bargmann_project_quadrature(f, pts, nodes=12)
        assert np.max(np.abs(got - np.array(full))) < 1e-12 * max(1.0, np.max(np.abs(full)))


def test_projection_drops_low_z_powers():
    # z^a zbar^b maps to a!/(a-b)! z^(a-b) when a >= b, else to 0
    f = PolyZZbar.monomial(1, (3,), (1,))
    got = _project(f)
    assert got == PolyZZbar.monomial(1, (2,), (0,), 3)
    assert _project(PolyZZbar.monomial(1, (1,), (2,))).is_zero()


def test_projection_operator_is_vacuum_shift():
    basis = GradedBasis(1, 5, FULL)
    assert bargmann_project_operator(basis).agrees_with(
        _normalized_shift(basis, (0,), (0,)), 5)


# ---------------------------------------------------------------------------
# Symbols and the attached operators


def test_p11_is_first_laguerre():
    # the diagonal symbol at level one is 1 - z zbar
    got = _normalized_symbol(1, (1,), (1,))
    want = PolyZZbar.constant(1) - PolyZZbar.monomial(1, (1,), (1,))
    assert got == want


def test_shift_symbols_are_the_raising_ladders_on_minus_z_beta():
    """Each shift symbol's closed form against its definition: the full-kind
    raising matrices a_i* = zbar_i - d/dz_i applied |alpha| times to
    (-z)^beta, on every |alpha|, |beta| <= 3 for n <= 3."""
    cases = 0
    for n in (1, 2, 3):
        raises = ladder_matrices(GradedBasis(n, 6, FULL))[1]
        for alpha in multi_indices(n, 3):
            for beta in multi_indices(n, 3):
                poly = PolyZZbar.monomial(n, beta, (0,) * n, (-1) ** sum(beta))
                for i, ai in enumerate(alpha):
                    for _ in range(ai):
                        poly = raises[i].apply_poly(poly)
                assert bargmann._shift_symbol(n, alpha, beta) == poly, (alpha, beta)
                cases += 1
    assert cases == 516


def test_shift_coefficients_invert_the_shift_symbols():
    for n in (1, 2):
        for alpha in multi_indices(n, 3):
            for beta in multi_indices(n, 3):
                sym = bargmann._shift_symbol(n, alpha, beta)
                assert bargmann._shift_coefficients(n, sym) == {(alpha, beta): 1}


def test_symbol_operator_is_normalized_shift():
    basis = GradedBasis(1, 6, FULL)
    for alpha, beta in [((0,), (0,)), ((2,), (1,)), ((1,), (3,))]:
        sym = _normalized_symbol(1, alpha, beta)
        assert op_of(basis, sym).agrees_with(_normalized_shift(basis, alpha, beta), basis.D)


@pytest.mark.parametrize("n,D", [(1, 6), (2, 4)])
def test_normalized_frames_are_orthonormal_and_the_normalized_shifts_map_them(n, D):
    """The paper's normalized statements, which the ledger checks only in
    their integer forms: the frames (-1)^|h| S(alpha, h) / sqrt(alpha! h!)
    are orthonormal, and the normalized (alpha, beta) shift takes the
    (beta, h) frame to the (alpha, h) frame and kills the (beta', 0) frames
    of the other beta'.  Every pair of frames and every shift with
    |alpha|, |beta| <= D / 2 is checked."""
    basis = GradedBasis(n, D, FULL)
    frames = {(a, h): _normalized_symbol(n, a, h) * (-1) ** sum(h)
              for a, h in basis.labels}
    for x, fx in frames.items():
        for y, fy in frames.items():
            assert gram_inner(fx, fy) == (1 if x == y else 0), (x, y)
    half = multi_indices(n, D // 2)
    images = 0
    for alpha in half:
        for beta in half:
            op = _normalized_shift(basis, alpha, beta)
            for h in multi_indices(n, D - max(sum(alpha), sum(beta))):
                assert op.apply_poly(frames[beta, h]) == frames[alpha, h], (alpha, beta, h)
                images += 1
            for other in half:
                if other != beta:
                    assert op.apply_poly(frames[other, (0,) * n]).is_zero()
    assert images == {(1, 6): 78, (2, 4): 257}[n, D]


def test_rational_operators_hold_no_radicals():
    """Full-kind ladders, the vacuum projection and Op of a rational symbol
    keep every entry an int or a Fraction."""
    for n, D in ((1, 6), (2, 4)):
        basis = GradedBasis(n, D, FULL)
        lows, highs = ladder_matrices(basis)
        rng = random.Random(n)
        q = _random_full_poly(n, 3, rng, nterms=6) + PolyZZbar.monomial(
            n, (1,) + (0,) * (n - 1), (0,) * n, Fraction(3, 4))
        ops = [*lows, *highs, bargmann_project_operator(basis), op_of(basis, q)]
        for op in ops:
            assert op.entries
            assert all(type(c) in (int, Fraction) for c in op.entries.values())


def test_op_of_constant_is_vacuum_projection():
    # the map q -> Op(q) is not unital: the constant symbol attaches to the
    # projection onto the vacuum blocks, not to the identity
    basis = GradedBasis(2, 4, FULL)
    op = op_of(basis, PolyZZbar.constant(2))
    assert op.agrees_with(bargmann_project_operator(basis), 4)


def test_op_compose_law_exact():
    basis = GradedBasis(1, 6, FULL)
    rng = random.Random(8)
    for _ in range(4):
        q1 = _random_full_poly(1, 2, rng, nterms=3)
        q2 = _random_full_poly(1, 2, rng, nterms=3)
        assert op_compose_law(basis, q1, q2)


def _ledger_symbols(n):
    """The compose-law symbols of the identity ledger: z_1 zbar_1,
    zbar_1 + 1/2 and 2 z_1."""
    zero, e = (0,) * n, mi_unit(n, 0)
    return [PolyZZbar(n, {(e, e): 1}),
            PolyZZbar(n, {(zero, e): 1, (zero, zero): Fraction(1, 2)}),
            PolyZZbar(n, {(e, zero): 2})]


def _compose_degree(basis, q1, q2):
    """The column degree op_compose_law compares up to, from the raise r(q)
    of each symbol."""
    D, r1, r2 = basis.D, bargmann._raise(q1), bargmann._raise(q2)
    return min(D - max(0, r2), D - max(0, r1) - r2)


def _by_label(basis, op, max_degree):
    """An operator's entries on the columns of degree <= max_degree, keyed
    by (row label, column label)."""
    labels, degs = basis.labels, basis.degrees
    return {(labels[i], labels[j]): c for (i, j), c in op.entries.items()
            if degs[j] <= max_degree}


@pytest.mark.parametrize("n,D", [(1, 2), (1, 3), (1, 6), (2, 2), (2, 4), (3, 3)])
def test_compose_law_degree_agrees_with_a_larger_cutoff(n, D):
    """On the columns op_compose_law compares, both of its sides on cutoff D
    equal, label by label, the same operators built on cutoff D + 2, for the
    ledger's symbols and random ones of degree <= 2: Op(q1) Op(q2), and
    Op(q1 * q2) of the twisted product, which has no cutoff.  On some pair a
    column one degree higher differs, so the degree is not lower than it
    need be everywhere."""
    basis, big = GradedBasis(n, D, FULL), GradedBasis(n, D + 2, FULL)
    rng = random.Random(10 * n + D)
    symbols = _ledger_symbols(n) + [_random_full_poly(n, 2, rng, nterms=3)
                                    for _ in range(3)]
    tight = 0
    for q1 in symbols:
        for q2 in symbols:
            safe = _compose_degree(basis, q1, q2)
            lhs, want = op_of(basis, q1) @ op_of(basis, q2), op_of(big, q1) @ op_of(big, q2)
            assert _by_label(basis, lhs, safe) == _by_label(big, want, safe)
            q12 = star_product(q1, q2)
            assert _by_label(basis, op_of(basis, q12), safe) == \
                _by_label(big, op_of(big, q12), safe)
            assert _by_label(big, want, safe) == _by_label(big, op_of(big, q12), safe)
            if safe < D and _by_label(basis, lhs, safe + 1) != _by_label(big, want, safe + 1):
                tight += 1
    assert tight


@pytest.mark.parametrize("n,D", [(1, 4), (2, 3)])
def test_compose_law_compares_exactly_up_to_its_degree(n, D, monkeypatch):
    """For each pair of the ledger's symbols, a wrong entry planted in
    Op(q1 * q2) on a column of the compared degree makes the law fail, and
    one on the next degree up, where there is one, does not."""
    basis = GradedBasis(n, D, FULL)
    op_of_unpatched = bargmann.op_of
    symbols = _ledger_symbols(n)
    for q1 in symbols:
        for q2 in symbols:
            safe = _compose_degree(basis, q1, q2)
            assert op_compose_law(basis, q1, q2)
            for degree, holds in ((safe, False), (safe + 1, True)):
                if degree > D:
                    continue
                calls = []

                def planted(b, sym):
                    calls.append(sym)
                    op = op_of_unpatched(b, sym)
                    if len(calls) < 3:
                        return op
                    col = b.degrees.index(degree)
                    return op + FockOperator(b, {(col, col): 1})

                monkeypatch.setattr(bargmann, "op_of", planted)
                assert op_compose_law(basis, q1, q2) is holds, (q1, q2, degree)
                assert len(calls) == 3
                monkeypatch.undo()


def test_compose_law_holds_where_the_truncated_product_loses_its_top_terms():
    """At n = 1, D = 2, q1 = 3 zbar^2 - z^2 and q2 = 2z, the truncated Op(q1)
    applied to q2 gives -12 zbar, while the twisted product is
    -12 zbar + 6 z zbar^2: the law compares Op(q1) Op(q2) with the operator
    of the twisted product, and it holds."""
    basis = GradedBasis(1, 2, FULL)
    q1 = PolyZZbar(1, {((0,), (2,)): 3, ((2,), (0,)): -1})
    q2 = PolyZZbar(1, {((1,), (0,)): 2})
    assert op_of(basis, q1).apply_poly(q2) == PolyZZbar(1, {((0,), (1,)): -12})
    assert star_product(q1, q2) == PolyZZbar(1, {((0,), (1,)): -12, ((1,), (2,)): 6})
    assert op_compose_law(basis, q1, q2)


@pytest.mark.parametrize("n,D", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3)])
def test_compose_law_holds_on_random_symbols(n, D):
    # symbols of degree up to D + 1, so that their products reach past the
    # cutoff
    basis = GradedBasis(n, D, FULL)
    rng = random.Random(100 * n + D)
    symbols = [_random_full_poly(n, D + 1, rng, nterms=4) for _ in range(6)]
    for q1 in symbols:
        for q2 in symbols:
            assert op_compose_law(basis, q1, q2), (q1, q2)


def test_trace_law_value_at_origin():
    basis = GradedBasis(1, 6, FULL)
    q = (PolyZZbar.constant(1, 5)
         + PolyZZbar.monomial(1, (1,), (1,), 2)
         + PolyZZbar.monomial(1, (0,), (2,), 3))
    tr = op_trace_antiholo(basis, op_of(basis, q))
    assert tr == CRad.of(5)


def test_star_product_matches_operator_order():
    basis = GradedBasis(1, 6, FULL)
    rng = random.Random(10)
    for _ in range(6):
        u = _random_full_poly(1, 3, rng, nterms=3)
        v = _random_full_poly(1, 3, rng, nterms=3)
        rep = compare_star_orders(basis, u, v)
        assert rep["matches_op_uv"]


def test_star_product_with_unit_projects():
    one = PolyZZbar.constant(1)
    f = PolyZZbar.monomial(1, (2,), (1,), 3)
    assert star_product(one, f) == _project(f)


_SYMBOL_LABELS = {n: GradedBasis(n, 3, FULL).labels for n in (1, 2)}
_rationals = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
_coefficients = st.one_of(_rationals, st.builds(CRad, st.integers(-2, 2), st.integers(-2, 2)))
# Every exact form, multi-term and complex irrational radicals included.
_exact_coefficients = st.one_of(
    _coefficients,
    st.builds(lambda s, c, d: CRad(Rad.sqrt(s) * c + d, Rad.sqrt(s) * d),
              st.sampled_from([2, 3]), st.integers(-2, 2), st.integers(-2, 2)),
)


def _symbol(n, coefficients=_coefficients):
    """A symbol in n variables of at most three terms of degree <= 3."""
    return st.dictionaries(st.sampled_from(_SYMBOL_LABELS[n]), coefficients,
                           max_size=3).map(lambda terms: PolyZZbar(n, terms))


def _symbols(n, count):
    return st.tuples(*[_symbol(n)] * count)


def _degree(p):
    return max((sum(a) + sum(b) for a, b in p.coeffs), default=0)


@functools.cache
def _full_basis(n, D):
    """One full-kind basis per (n, D), so its shift matrices are built once."""
    return GradedBasis(n, D, FULL)


@settings(deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda n: _symbols(n, 3)))
def test_star_product_is_associative(uvw):
    u, v, w = uvw
    assert star_product(star_product(u, v), w) == star_product(u, star_product(v, w))


@settings(deadline=None)
@given(st.sampled_from([1, 2]).flatmap(
    lambda n: st.tuples(_symbol(n, _exact_coefficients), _symbol(n))))
def test_star_product_is_the_operator_of_the_left_factor(uv):
    """u star v = Op(u) v on a full basis whose cutoff is deg u + deg v, for
    any exact symbols u and v."""
    u, v = uv
    basis = _full_basis(u.n, _degree(u) + _degree(v))
    assert star_product(u, v) == op_of(basis, u).apply_poly(v)



def test_shift_cache_survives_arithmetic_on_its_scaled_copies():
    """The cached shifts and vacuum projection are shared: scale(1) gives
    the shift itself, and arithmetic on it, on its normalized copies and on
    op_of's results may not write into any cached entry."""
    basis = GradedBasis(2, 4, FULL)
    pairs = [((1, 0), (0, 1)), ((0, 1), (0, 1)), ((1, 1), (0, 0))]
    shifts = [bargmann._shift(basis, a, b) for a, b in pairs]
    vac = bargmann_project_operator(basis)
    cached = [*shifts, vac]
    before = [(dict(S.entries), S.as_array()) for S in cached]
    x, y, z = [_normalized_shift(basis, a, b) for a, b in pairs]
    one = shifts[0].scale(1)
    assert one is shifts[0]
    sym = op_of(basis, _normalized_symbol(2, (1, 0), (0, 1)))
    results = [x + y, x - y, x + x, x - x, (x + y) - z, x @ y, y @ x, x.scale(3),
               x.scale(CRad(0, 1)) + y, *x.parity_split(),
               sym + x, sym @ vac, y + FockOperator.zero(basis),
               one + shifts[1], one - one, one @ vac, vac @ one, one.scale(-2),
               FockOperator.zero(basis) - one,
               *one.parity_split(), vac.scale(1) + vac]
    for r in results:
        r.apply_poly(PolyZZbar(2, {basis.labels[0]: 1, basis.labels[1]: CRad(0, 2)}))
    after = [(dict(S.entries), S.as_array()) for S in cached]
    for (e0, a0), (e1, a1) in zip(before, after):
        assert e0 == e1 and np.array_equal(a0, a1)


def _ladder_powers(basis, ladders):
    """Every power of the ladders up to the cutoff: the ladder at the first
    nonzero index times the power one below."""
    powers = {(0,) * basis.n: FockOperator.identity(basis)}
    for alpha in multi_indices(basis.n, basis.D)[1:]:
        i = next(k for k, v in enumerate(alpha) if v)
        powers[alpha] = ladders[i] @ powers[mi_sub(alpha, mi_unit(basis.n, i))]
    return powers


def _shift_by_powers(basis):
    """Every shift (a*)^alpha P_vac a^beta with |alpha| + |beta| <= D, built
    from whole ladder powers as (a*)^alpha @ (P_vac @ a^beta)."""
    lows, highs = ladder_matrices(basis)
    low_pow, high_pow = _ladder_powers(basis, lows), _ladder_powers(basis, highs)
    vac = bargmann_project_operator(basis)
    return {(alpha, beta): high_pow[alpha] @ (vac @ low_pow[beta])
            for alpha in low_pow for beta in low_pow
            if sum(alpha) + sum(beta) <= basis.D}


@pytest.mark.parametrize("n,D,count", [(1, 8, 45), (2, 6, 210), (3, 4, 210)])
def test_shift_is_the_product_of_whole_ladder_powers(n, D, count):
    """Each shift, built from a smaller one by one ladder product, equals
    the product of whole ladder powers in every entry, also on the columns
    where truncation makes both differ from the untruncated shift
    (op_trace_antiholo reads those).  The oracle runs on a basis of its
    own, so it shares no cached matrix with the shifts."""
    want = _shift_by_powers(GradedBasis(n, D, FULL))
    basis = GradedBasis(n, D, FULL)
    assert len(want) == count
    for (alpha, beta), op in want.items():
        got = bargmann._shift(basis, alpha, beta)
        assert got.entries == op.entries, (alpha, beta)


def _op_by_sums(basis, q):
    """Op(q) as a chain of sums of scaled shift matrices."""
    out = FockOperator.zero(basis)
    for (alpha, beta), c in bargmann._shift_coefficients(basis.n, q).items():
        out = out + bargmann._shift(basis, alpha, beta).scale(c)
    return out


@pytest.mark.parametrize("n,D", [(1, 6), (2, 4)])
def test_symbol_map_equals_the_sum_of_its_scaled_shifts(n, D):
    """A multi-term symbol's matrix, summed into one entry dict, has the
    entries of the chain of operator sums."""
    basis = GradedBasis(n, D, FULL)
    rng = random.Random(n + D)
    for unit in (1, 1, CRad(0, 1)):  # two rational symbols, then one times i
        terms = rng.sample(basis.labels, 5)
        q = PolyZZbar(n, {ab: rng.choice([-2, -1, Fraction(1, 2), 3]) for ab in terms}) * unit
        assert len(bargmann._shift_coefficients(n, q)) > 1
        got, want = op_of(basis, q), _op_by_sums(basis, q)
        assert got.entries == want.entries


@pytest.mark.parametrize("n,D", [(1, 6), (2, 4)])
def test_symbol_map_of_each_shift_symbol_is_its_shift(n, D):
    """Op(S(alpha, beta)) = T(alpha, beta) for every pair under the cutoff,
    entry by entry: op_of sums into a dict of its own, so each comparison
    walks two matrices, not one."""
    basis = GradedBasis(n, D, FULL)
    for alpha, beta in basis.labels:
        got = op_of(basis, bargmann._shift_symbol(n, alpha, beta))
        want = bargmann._shift(basis, alpha, beta)
        assert got.entries is not want.entries
        assert got.entries == want.entries, (alpha, beta)


@settings(deadline=None)
@given(st.sampled_from([1, 2]).flatmap(
    lambda n: st.tuples(_symbol(n, _rationals), _symbol(n, _rationals))))
@example((PolyZZbar.constant(1, Fraction(1, 2)), PolyZZbar.constant(1, 2)))
def test_pairing_of_rational_polynomials_is_rational(fg):
    """On rational coefficients the pairing is an int or a Fraction in its
    cheapest form, the value gram_inner gives as a CRad, and Hermitian."""
    f, g = fg
    v = pairing(f, g)
    assert type(v) is int or (type(v) is Fraction and v.denominator != 1)
    assert gram_inner(f, g) == v
    assert pairing(g, f) == v.conjugate()


@settings(deadline=None)
@given(st.sampled_from([1, 2]).flatmap(
    lambda n: st.tuples(_symbol(n, _exact_coefficients), _symbol(n, _exact_coefficients))))
def test_pairing_is_hermitian_on_exact_coefficients(fg):
    f, g = fg
    v = pairing(f, g)
    assert gram_inner(f, g) == v
    assert pairing(g, f) == CRad.of(v).conjugate()


def test_gram_inner_returns_crad():
    p = PolyZZbar.monomial
    v = gram_inner(p(1, (2,), (1,)), p(1, (1,), (0,)))
    assert type(v) is CRad and v == CRad.of(2)
    half = p(1, (0,), (0,), Fraction(1, 2))
    v = gram_inner(half, half)
    assert type(v) is CRad and v.im.is_zero() and v.re.as_fraction() == Fraction(1, 4)
    v = gram_inner(p(1, (0,), (2,)), p(1, (0,), (1,)))
    assert type(v) is CRad and v.is_zero()
