"""Symbol calculus on the mixed polynomial space.

Provides the Laguerre family used by kernel asymptotics, the exact Gaussian
pairing on monomials, the vacuum projection in closed form together with a
quadrature oracle, the symbol-to-operator map and its composition law, the
twisted product on symbols, and the level decomposition of mixed polynomials.

Conventions.  The pairing is <z^a zbar^b, z^c zbar^d> =
prod_i [a_i + d_i == b_i + c_i] * (a_i + d_i)!, which makes 1 a unit vector
and the normalized purely (anti)holomorphic monomials orthonormal.  The
operator attached to a symbol q is
(Op(q) f)(u) = (2 pi)^{-n} integral e^{u.vbar - |v|^2} q(u - v) f(v) dmu(v)
with dmu twice the Lebesgue measure per complex variable.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .fock import (FULL, FockOperator, GradedBasis, PolyZZbar, ladder_matrices,
                   mi_add, mi_degree, mi_factorial, mi_leq, mi_sub, mi_unit,
                   multi_indices_of_degree)
from .radicals import CRad, Rad

# ---------------------------------------------------------------------------
# Laguerre family


def laguerre_q(m: int, p: int) -> list[Fraction]:
    """Coefficients [c_0, ..., c_m] of the degree-m member with parameter p,
    defined through x^{-p}/m! (d/dx - 1)^m x^{m+p}."""
    if m < 0 or p < 0:
        raise ValueError("indices must be nonnegative")
    coeffs = [Fraction(0)] * (m + p) + [Fraction(1)]
    for _ in range(m):
        nxt = [Fraction(0)] * len(coeffs)
        for j, c in enumerate(coeffs):
            if j >= 1:
                nxt[j - 1] += j * c
            nxt[j] -= c
        coeffs = nxt
    fm = factorial(m)
    shifted = coeffs[p:]
    if any(coeffs[:p]):
        raise AssertionError("lower coefficients should vanish before the shift")
    return [c / fm for c in shifted]


def laguerre_q_value(m: int, p: int, x):
    """Evaluate the polynomial; exact on Fraction input, float otherwise."""
    acc = 0
    for c in reversed(laguerre_q(m, p)):
        acc = acc * x + c
    return acc


def laguerre_sum_identity(m: int, n: int) -> bool:
    """Check, by exact multivariate expansion, that the parameter-(n-1) member
    evaluated at x_1 + ... + x_n equals the sum over |alpha| = m of products
    of parameter-0 members of the x_i.  Guarded to m + n <= 12."""
    if n < 1:
        raise ValueError("need at least one variable")
    if m + n > 12:
        raise ValueError("guard: m + n must stay <= 12")
    lhs: dict[tuple, Fraction] = {}
    for j, c in enumerate(laguerre_q(m, n - 1)):
        if not c:
            continue
        for gamma in multi_indices_of_degree(n, j):
            weight = Fraction(factorial(j))
            for g in gamma:
                weight /= factorial(g)
            key = gamma
            lhs[key] = lhs.get(key, Fraction(0)) + c * weight
    rhs: dict[tuple, Fraction] = {}
    univ = {j: laguerre_q(j, 0) for j in range(m + 1)}
    for alpha in multi_indices_of_degree(n, m):
        partial: dict[tuple, Fraction] = {(0,) * n: Fraction(1)}
        for i, ai in enumerate(alpha):
            nxt: dict[tuple, Fraction] = {}
            for key, c in partial.items():
                for j, cj in enumerate(univ[ai]):
                    if not cj:
                        continue
                    new = list(key)
                    new[i] += j
                    k2 = tuple(new)
                    nxt[k2] = nxt.get(k2, Fraction(0)) + c * cj
            partial = nxt
        for key, c in partial.items():
            rhs[key] = rhs.get(key, Fraction(0)) + c
    lhs = {k: c for k, c in lhs.items() if c}
    rhs = {k: c for k, c in rhs.items() if c}
    return lhs == rhs


# ---------------------------------------------------------------------------
# Exact Gaussian pairing


def gram_inner(f: PolyZZbar, g: PolyZZbar) -> CRad:
    """Exact pairing, antilinear in the second argument."""
    if f.n != g.n:
        raise ValueError("variable count mismatch")
    acc = CRad()
    for (a, b), cf in f.terms():
        for (c, d), cg in g.terms():
            weight = 1
            for ai, bi, ci, di in zip(a, b, c, d):
                if ai + di != bi + ci:
                    weight = 0
                    break
                weight *= factorial(ai + di)
            if weight:
                acc = acc + cf * cg.conjugate() * weight
    return acc


def norm_sq(f: PolyZZbar) -> Fraction:
    val = gram_inner(f, f)
    if not val.im.is_zero():
        raise AssertionError("squared norm must be real")
    return val.re.as_fraction()


# ---------------------------------------------------------------------------
# Vacuum projection


def bargmann_project(f: PolyZZbar) -> PolyZZbar:
    """Project onto the holomorphic polynomials:
    z^a zbar^b maps to prod_i a_i!/(a_i-b_i)! z^(a-b) when a >= b, else 0."""
    zero = (0,) * f.n
    out: dict = {}
    for (a, b), c in f.terms():
        if not mi_leq(b, a):
            continue
        weight = 1
        for ai, bi in zip(a, b):
            weight *= factorial(ai) // factorial(ai - bi)
        key = (mi_sub(a, b), zero)
        term = c * weight
        cur = out.get(key)
        out[key] = term if cur is None else cur + term
    return PolyZZbar(f.n, out)


def gauss_hermite_points(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(nodes)


def bargmann_project_quadrature(f: PolyZZbar, points: np.ndarray,
                                nodes: int = 40) -> np.ndarray:
    """Oracle for the vacuum projection: evaluate
    (2 pi)^{-n} integral e^{u.vbar - |v|^2} f(v) dmu(v)
    at the given complex points by Gauss-Hermite quadrature with the stated
    number of nodes per real dimension (supported for n <= 2)."""
    n = f.n
    if n > 2:
        raise ValueError("quadrature oracle supports n <= 2")
    t, w = gauss_hermite_points(nodes)
    if n == 1:
        X, Y = np.meshgrid(t, t, indexing="ij")
        W = np.outer(w, w)
        v = (X + 1j * Y).ravel()
        weights = W.ravel()
    else:
        X1, Y1, X2, Y2 = np.meshgrid(t, t, t, t, indexing="ij")
        v = np.stack([(X1 + 1j * Y1).ravel(), (X2 + 1j * Y2).ravel()], axis=1)
        weights = (w[:, None, None, None] * w[None, :, None, None]
                   * w[None, None, :, None] * w[None, None, None, :]).ravel()
    v2 = np.atleast_2d(v.reshape(-1, n))
    fv = f.evaluate(v2)
    points = np.atleast_2d(np.asarray(points, dtype=complex).reshape(-1, n))
    out = np.empty(points.shape[0], dtype=complex)
    for idx, u in enumerate(points):
        expo = np.exp(np.sum(u[None, :] * np.conj(v2), axis=1))
        out[idx] = np.sum(weights * expo * fv) / np.pi ** n
    return out


# ---------------------------------------------------------------------------
# The p-symbols and the symbol-to-operator map


def p_ab(n: int, alpha, beta) -> PolyZZbar:
    """Symbol whose attached operator is the normalized (alpha, beta) shift:
    (alpha! beta!)^(-1/2) times (zbar - d/dz)^alpha applied to (-z)^beta."""
    alpha, beta = tuple(alpha), tuple(beta)
    sign = -1 if mi_degree(beta) % 2 else 1
    poly = PolyZZbar.monomial(n, beta, (0,) * n, sign)
    for i in range(n):
        for _ in range(alpha[i]):
            out: dict = {}
            for (a, b), c in poly.terms():
                key = (a, mi_add(b, mi_unit(n, i)))
                cur = out.get(key)
                out[key] = c if cur is None else cur + c
                if a[i]:
                    key2 = (mi_sub(a, mi_unit(n, i)), b)
                    term = c * (-a[i])
                    cur2 = out.get(key2)
                    out[key2] = term if cur2 is None else cur2 + term
            poly = PolyZZbar(n, out)
    scale = CRad(Rad.sqrt(Fraction(1, mi_factorial(alpha) * mi_factorial(beta))))
    return poly * scale


def _basis_cache(basis: GradedBasis) -> dict:
    cache = getattr(basis, "_landau_cache", None)
    if cache is None:
        cache = {}
        basis._landau_cache = cache
    return cache


def bargmann_project_operator(basis: GradedBasis) -> FockOperator:
    """Matrix of the vacuum projection on a full-kind basis."""
    if basis.kind != FULL:
        raise ValueError("needs the full kind")
    cache = _basis_cache(basis)
    if "P00" not in cache:
        zero = (0,) * basis.n
        ent: dict = {}
        for col, (a, b) in enumerate(basis.labels):
            if mi_leq(b, a):
                weight = 1
                for ai, bi in zip(a, b):
                    weight *= factorial(ai) // factorial(ai - bi)
                ent[(basis.index((mi_sub(a, b), zero)), col)] = weight
        cache["P00"] = FockOperator(basis, ent, parity=None,
                                    exactness_degree=basis.D)
    return cache["P00"]


def _ladder_pows(basis: GradedBasis):
    cache = _basis_cache(basis)
    if "ladders" not in cache:
        cache["ladders"] = ladder_matrices(basis)
        cache["low_pow"] = {(0,) * basis.n: FockOperator.identity(basis)}
        cache["high_pow"] = {(0,) * basis.n: FockOperator.identity(basis)}
    return cache


def _power(basis: GradedBasis, which: str, alpha) -> FockOperator:
    cache = _ladder_pows(basis)
    table = cache[which]
    alpha = tuple(alpha)
    if alpha in table:
        return table[alpha]
    i = next(k for k, v in enumerate(alpha) if v)
    prev = _power(basis, which, mi_sub(alpha, mi_unit(basis.n, i)))
    ops = cache["ladders"][0] if which == "low_pow" else cache["ladders"][1]
    table[alpha] = ops[i] @ prev
    return table[alpha]


def tilde_rho(basis: GradedBasis, alpha, beta) -> FockOperator:
    """Normalized shift between level subspaces of the full space:
    (alpha! beta!)^(-1/2) (a*)^alpha P_vac a^beta."""
    if basis.kind != FULL:
        raise ValueError("tilde_rho acts on the full kind")
    alpha, beta = tuple(alpha), tuple(beta)
    cache = _basis_cache(basis)
    key = ("tilde", alpha, beta)
    if key not in cache:
        mid_key = ("vac_low", beta)
        if mid_key not in cache:
            cache[mid_key] = bargmann_project_operator(basis) @ _power(basis, "low_pow", beta)
        op = _power(basis, "high_pow", alpha) @ cache[mid_key]
        scale = CRad(Rad.sqrt(Fraction(1, mi_factorial(alpha) * mi_factorial(beta))))
        cache[key] = op.scale(scale)
    return cache[key]


def _p_coefficients(n: int, q: PolyZZbar) -> dict[tuple, CRad]:
    """Write q as a combination of the p-symbols; triangular back-substitution
    from the top total degree down (each p-symbol is its leading monomial plus
    corrections of total degree lower by multiples of two)."""
    remaining = PolyZZbar(n, dict(q.coeffs))
    coeffs: dict[tuple, CRad] = {}
    while not remaining.is_zero():
        deg = remaining.degree()
        top = [(key, c) for key, c in remaining.terms()
               if mi_degree(key[0]) + mi_degree(key[1]) == deg]
        correction = PolyZZbar(n, {})
        for (a, b), c in top:
            alpha, beta = b, a
            lead = CRad(Rad.sqrt(mi_factorial(alpha) * mi_factorial(beta)))
            if mi_degree(beta) % 2:
                lead = -lead
            coeff = c * lead
            key = (alpha, beta)
            cur = coeffs.get(key)
            coeffs[key] = coeff if cur is None else cur + coeff
            correction = correction + p_ab(n, alpha, beta) * coeff
        remaining = remaining - correction
        if not remaining.is_zero() and remaining.degree() >= deg:
            raise AssertionError("back-substitution failed to lower the degree")
    return {k: c for k, c in coeffs.items() if c}


def op_of(basis: GradedBasis, q: PolyZZbar) -> FockOperator:
    """Matrix of the operator attached to the symbol q, assembled through the
    triangular change of basis onto the p-symbols."""
    if basis.kind != FULL:
        raise ValueError("op_of acts on the full kind")
    if q.n != basis.n:
        raise ValueError("variable count mismatch")
    out = FockOperator.zero(basis)
    for (alpha, beta), c in _p_coefficients(basis.n, q).items():
        out = out + tilde_rho(basis, alpha, beta).scale(c)
    return out


def op_trace_antiholo(basis_full: GradedBasis, op: FockOperator) -> CRad:
    """Trace of the operator restricted to the antiholomorphic monomials of
    the full-kind basis (finite once the cutoff exceeds the symbol degree)."""
    zero = (0,) * basis_full.n
    acc = CRad()
    for i, (a, b) in enumerate(basis_full.labels):
        if a == zero:
            val = op.entries.get((i, i))
            if val:
                acc = acc + val
    return acc


def op_compose_law(basis: GradedBasis, q1: PolyZZbar, q2: PolyZZbar) -> dict:
    """Check Op(q1) o Op(q2) = Op(Op(q1) q2) on the columns where both sides
    are exact; returns the comparison report."""
    A = op_of(basis, q1)
    B = op_of(basis, q2)
    lhs = A @ B
    r = A.apply_poly(q2)
    rhs = op_of(basis, r)
    safe = min(lhs.exactness_degree, rhs.exactness_degree)
    diff = lhs.restrict_columns(safe) - rhs.restrict_columns(safe)
    return {"exact_on_degree": safe,
            "equal": diff.is_zero(),
            "max_float_residual": diff.max_abs()}


# ---------------------------------------------------------------------------
# Twisted product on symbols


def star_product(u: PolyZZbar, v: PolyZZbar) -> PolyZZbar:
    """Twisted product: contract u(-zeta, zbar - zetabar) * v(z + zeta, zetabar)
    with exp of the mixed zeta Laplacian, then set zeta = 0."""
    if u.n != v.n:
        raise ValueError("variable count mismatch")
    n = u.n
    zero = (0,) * n

    left: dict = {}
    for (a, b), c in u.terms():
        base_sign = -1 if mi_degree(a) % 2 else 1
        for delta in itertools.product(*[range(bi + 1) for bi in b]):
            delta = tuple(delta)
            weight = base_sign * (-1 if mi_degree(delta) % 2 else 1)
            for bi, di in zip(b, delta):
                weight *= comb(bi, di)
            key = (zero, mi_sub(b, delta), a, delta)
            term = c * weight
            cur = left.get(key)
            left[key] = term if cur is None else cur + term

    right: dict = {}
    for (cidx, d), c in v.terms():
        for gamma in itertools.product(*[range(ci + 1) for ci in cidx]):
            gamma = tuple(gamma)
            weight = 1
            for ci, gi in zip(cidx, gamma):
                weight *= comb(ci, gi)
            key = (gamma, zero, mi_sub(cidx, gamma), d)
            term = c * weight
            cur = right.get(key)
            right[key] = term if cur is None else cur + term

    prod: dict = {}
    for (a1, b1, c1, d1), x in left.items():
        for (a2, b2, c2, d2), y in right.items():
            key = (mi_add(a1, a2), mi_add(b1, b2), mi_add(c1, c2), mi_add(d1, d2))
            term = x * y
            cur = prod.get(key)
            prod[key] = term if cur is None else cur + term

    total: dict = {k: c for k, c in prod.items() if c}
    layer = dict(total)
    j = 0
    while layer:
        j += 1
        nxt: dict = {}
        for (a, b, cz, dz), c in layer.items():
            for i in range(n):
                if cz[i] and dz[i]:
                    key = (a, b, mi_sub(cz, mi_unit(n, i)), mi_sub(dz, mi_unit(n, i)))
                    term = c * (cz[i] * dz[i])
                    cur = nxt.get(key)
                    nxt[key] = term if cur is None else cur + term
        layer = {k: c for k, c in nxt.items() if c}
        for k, c in layer.items():
            scaled = c * Fraction(1, factorial(j))
            cur = total.get(k)
            total[k] = scaled if cur is None else cur + scaled

    out: dict = {}
    for (a, b, cz, dz), c in total.items():
        if cz == zero and dz == zero:
            out[(a, b)] = c
    return PolyZZbar(n, out)


def compare_star_orders(basis: GradedBasis, u: PolyZZbar, v: PolyZZbar) -> dict:
    """Report whether the twisted product agrees with applying the operator of
    u to v, or the operator of v to u, or neither; all comparisons exact."""
    star = star_product(u, v)
    via_u = op_of(basis, u).apply_poly(v)
    via_v = op_of(basis, v).apply_poly(u)
    return {"star": star,
            "matches_op_uv": star == via_u,
            "matches_op_vu": star == via_v}


# ---------------------------------------------------------------------------
# Level decomposition


def level_projector(basis: GradedBasis, m: int) -> FockOperator:
    """Sum of the diagonal normalized shifts over |alpha| = m."""
    cache = _basis_cache(basis)
    key = ("level", m)
    if key not in cache:
        out = FockOperator.zero(basis)
        for alpha in multi_indices_of_degree(basis.n, m):
            out = out + tilde_rho(basis, alpha, alpha)
        cache[key] = out
    return cache[key]


def landau_decompose(basis: GradedBasis, f: PolyZZbar) -> dict[int, PolyZZbar]:
    """Split f along the level subspaces; the components sum back to f
    exactly and the decomposition is checked before returning."""
    if f.degree() > basis.D:
        raise ValueError("degree %d exceeds cutoff %d" % (f.degree(), basis.D))
    out: dict[int, PolyZZbar] = {}
    total = PolyZZbar(basis.n, {})
    for m in range(basis.D + 1):
        comp = level_projector(basis, m).apply_poly(f)
        if not comp.is_zero():
            out[m] = comp
            total = total + comp
    if not (total - f).is_zero():
        raise AssertionError("level components failed to recompose the input")
    return out
