"""Symbol calculus on the mixed polynomial space.

Provides the Laguerre family used by kernel asymptotics, the exact Gaussian
pairing on monomials, the vacuum projection in closed form together with a
quadrature oracle, the symbol-to-operator map and its composition law, and
the twisted product on symbols.

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

from .fock import (FULL, FockOperator, GradedBasis, PolyZZbar, Scalar,
                   ladder_matrices, mi_add, mi_degree, mi_factorial, mi_leq,
                   mi_sub, mi_unit, multi_indices_of_degree)
from .radicals import CRad, Rad, exact

# ---------------------------------------------------------------------------
# Laguerre family


def laguerre_q(m: int, p: int) -> list[Fraction]:
    """Coefficients [c_0, ..., c_m] of the degree-m member with parameter p,
    defined through x^{-p}/m! (d/dx - 1)^m x^{m+p}.  The recursion runs on
    the integer coefficients of (d/dx - 1)^m x^{m+p}; only the final division
    by m! makes fractions."""
    if m < 0 or p < 0:
        raise ValueError("indices must be nonnegative")
    coeffs = [0] * (m + p) + [1]
    for _ in range(m):
        nxt = [0] * len(coeffs)
        for j, c in enumerate(coeffs):
            if j >= 1:
                nxt[j - 1] += j * c
            nxt[j] -= c
        coeffs = nxt
    fm = factorial(m)
    shifted = coeffs[p:]
    if any(coeffs[:p]):
        raise AssertionError("lower coefficients should vanish before the shift")
    return [Fraction(c, fm) for c in shifted]


def _factorial_scaled(coeffs: list[Fraction]) -> list[int] | None:
    """The coefficients c_j times j!, or None if one is not an integer."""
    out = []
    for j, c in enumerate(coeffs):
        c = c * factorial(j)
        if c.denominator != 1:
            return None
        out.append(c.numerator)
    return out


def laguerre_sum_identity(m: int, n: int) -> bool:
    """Check, by exact multivariate expansion, that the parameter-(n-1) member
    evaluated at x_1 + ... + x_n equals the sum over |alpha| = m of products
    of parameter-0 members of the x_i.  Guarded to m + n <= 12.

    Both sides are compared with the coefficient of x^gamma multiplied by
    gamma!, which puts them in the integers: the left side's becomes
    c_|gamma| |gamma|!, and the right side's a sum of products of c_j j!.  A
    family whose scaled coefficients are not all integers fails the check."""
    if n < 1:
        raise ValueError("need at least one variable")
    if m + n > 12:
        raise ValueError("guard: m + n must stay <= 12")
    top = _factorial_scaled(laguerre_q(m, n - 1))
    univ = {j: _factorial_scaled(laguerre_q(j, 0)) for j in range(m + 1)}
    if top is None or any(u is None for u in univ.values()):
        return False
    lhs = {gamma: c for j, c in enumerate(top) if c
           for gamma in multi_indices_of_degree(n, j)}
    rhs: dict[tuple, int] = {}
    for alpha in multi_indices_of_degree(n, m):
        partial: dict[tuple, int] = {(0,) * n: 1}
        for i, ai in enumerate(alpha):
            nxt: dict[tuple, int] = {}
            for key, c in partial.items():
                for j, cj in enumerate(univ[ai]):
                    if not cj:
                        continue
                    new = list(key)
                    new[i] += j
                    k2 = tuple(new)
                    nxt[k2] = nxt.get(k2, 0) + c * cj
            partial = nxt
        for key, c in partial.items():
            rhs[key] = rhs.get(key, 0) + c
    rhs = {k: c for k, c in rhs.items() if c}
    return lhs == rhs


# ---------------------------------------------------------------------------
# Exact Gaussian pairing


def gram_inner(f: PolyZZbar, g: PolyZZbar) -> CRad:
    """Exact pairing, antilinear in the second argument.  The sums run in the
    coefficients' cheapest exact form, and each term of f multiplies its
    integer-weighted sum over g once; the value is returned as a CRad."""
    if f.n != g.n:
        raise ValueError("variable count mismatch")
    acc = 0
    for (a, b), cf in f.terms():
        inner = 0
        for (c, d), cg in g.terms():
            weight = 1
            for ai, bi, ci, di in zip(a, b, c, d):
                if ai + di != bi + ci:
                    weight = 0
                    break
                weight *= factorial(ai + di)
            if weight:
                inner = inner + cg * weight
        if inner:
            acc = acc + cf * inner.conjugate()
    return CRad.of(acc)


# ---------------------------------------------------------------------------
# The p-symbols and the symbol-to-operator map


def apply_raise(p: PolyZZbar, i: int) -> PolyZZbar:
    """Apply a_i* = zbar_i - d/dz_i to a polynomial."""
    n = p.n
    out: dict = {}
    for (a, b), c in p.terms():
        key = (a, mi_add(b, mi_unit(n, i)))
        cur = out.get(key)
        out[key] = c if cur is None else cur + c
        if a[i]:
            key2 = (mi_sub(a, mi_unit(n, i)), b)
            term = c * (-a[i])
            cur2 = out.get(key2)
            out[key2] = term if cur2 is None else cur2 + term
    return PolyZZbar(n, out)


def _shift_symbol(n: int, alpha, beta) -> PolyZZbar:
    """The integer symbol of the unnormalized (alpha, beta) shift:
    (zbar - d/dz)^alpha applied to (-z)^beta, whose top-degree term is
    (-1)^|beta| z^beta zbar^alpha."""
    sign = -1 if mi_degree(beta) % 2 else 1
    poly = PolyZZbar.monomial(n, beta, (0,) * n, sign)
    for i in range(n):
        for _ in range(alpha[i]):
            poly = apply_raise(poly, i)
    return poly


def _normalization(alpha, beta) -> Rad:
    return Rad.sqrt(Fraction(1, mi_factorial(alpha) * mi_factorial(beta)))


def p_ab(n: int, alpha, beta) -> PolyZZbar:
    """Symbol whose attached operator is the normalized (alpha, beta) shift:
    (alpha! beta!)^(-1/2) times (zbar - d/dz)^alpha applied to (-z)^beta."""
    alpha, beta = tuple(alpha), tuple(beta)
    return _shift_symbol(n, alpha, beta) * _normalization(alpha, beta)


def bargmann_project_operator(basis: GradedBasis) -> FockOperator:
    """Matrix of the vacuum projection on a full-kind basis:
    z^a zbar^b maps to prod_i a_i!/(a_i-b_i)! z^(a-b) when a >= b, else 0."""
    if basis.kind != FULL:
        raise ValueError("needs the full kind")
    cache = basis.cache
    if "P00" not in cache:
        zero = (0,) * basis.n
        ent: dict = {}
        for col, (a, b) in enumerate(basis.labels):
            if mi_leq(b, a):
                weight = 1
                for ai, bi in zip(a, b):
                    weight *= factorial(ai) // factorial(ai - bi)
                ent[(basis.index((mi_sub(a, b), zero)), col)] = weight
        cache["P00"] = FockOperator(basis, ent, exactness_degree=basis.D)
    return cache["P00"]


def _power(basis: GradedBasis, which: int, alpha) -> FockOperator:
    """The power a^alpha (which = 0) or (a*)^alpha (which = 1) of the basis's
    ladders, built once per basis."""
    key = ("ladder_pow", which)
    if key not in basis.cache:
        basis.cache[key] = {(0,) * basis.n: FockOperator.identity(basis)}
    table = basis.cache[key]
    alpha = tuple(alpha)
    if alpha in table:
        return table[alpha]
    i = next(k for k, v in enumerate(alpha) if v)
    prev = _power(basis, which, mi_sub(alpha, mi_unit(basis.n, i)))
    table[alpha] = ladder_matrices(basis)[which][i] @ prev
    return table[alpha]


def _shift(basis: GradedBasis, alpha, beta) -> FockOperator:
    """The unnormalized shift (a*)^alpha P_vac a^beta on the full kind, an
    integer matrix built once per basis."""
    cache = basis.cache
    key = ("shift", alpha, beta)
    if key not in cache:
        mid_key = ("vac_low", beta)
        if mid_key not in cache:
            cache[mid_key] = bargmann_project_operator(basis) @ _power(basis, 0, beta)
        cache[key] = _power(basis, 1, alpha) @ cache[mid_key]
    return cache[key]


def tilde_rho(basis: GradedBasis, alpha, beta) -> FockOperator:
    """Normalized shift between level subspaces of the full space:
    (alpha! beta!)^(-1/2) (a*)^alpha P_vac a^beta."""
    if basis.kind != FULL:
        raise ValueError("tilde_rho acts on the full kind")
    alpha, beta = tuple(alpha), tuple(beta)
    return _shift(basis, alpha, beta).scale(_normalization(alpha, beta))


def _shift_coefficients(n: int, q: PolyZZbar) -> dict[tuple, Scalar]:
    """Write q as a combination of the integer shift symbols; triangular
    back-substitution from the top total degree down (each shift symbol is
    its leading monomial, with coefficient +-1, plus corrections of total
    degree lower by multiples of two).  The coefficients are rational when
    q is: the normalization of the p-symbols never enters."""
    remaining = PolyZZbar(n, dict(q.coeffs))
    coeffs: dict[tuple, Scalar] = {}
    while not remaining.is_zero():
        deg = remaining.degree()
        top = [(key, c) for key, c in remaining.terms()
               if mi_degree(key[0]) + mi_degree(key[1]) == deg]
        correction = PolyZZbar(n, {})
        for (a, b), c in top:
            alpha, beta = b, a
            coeff = -c if mi_degree(beta) % 2 else c
            key = (alpha, beta)
            cur = coeffs.get(key)
            coeffs[key] = coeff if cur is None else cur + coeff
            correction = correction + _shift_symbol(n, alpha, beta) * coeff
        remaining = remaining - correction
        if not remaining.is_zero() and remaining.degree() >= deg:
            raise AssertionError("back-substitution failed to lower the degree")
    return {k: c for k, c in coeffs.items() if c}


def op_of(basis: GradedBasis, q: PolyZZbar) -> FockOperator:
    """Matrix of the operator attached to the symbol q, assembled through the
    triangular change of basis onto the shift symbols: the p-symbol
    coefficient times the normalization of its shift, applied to the integer
    shift matrix."""
    if basis.kind != FULL:
        raise ValueError("op_of acts on the full kind")
    if q.n != basis.n:
        raise ValueError("variable count mismatch")
    out = FockOperator.zero(basis)
    for (alpha, beta), c in _shift_coefficients(basis.n, q).items():
        out = out + _shift(basis, alpha, beta).scale(c)
    return out


def op_trace_antiholo(basis_full: GradedBasis, op: FockOperator) -> Scalar:
    """Trace of the operator restricted to the antiholomorphic monomials of
    the full-kind basis (finite once the cutoff exceeds the symbol degree)."""
    zero = (0,) * basis_full.n
    acc = 0
    for i, (a, b) in enumerate(basis_full.labels):
        if a == zero:
            val = op.unscaled.get((i, i))
            if val:
                acc = acc + val
    return exact(acc * op.scalar)


def op_compose_law(basis: GradedBasis, q1: PolyZZbar, q2: PolyZZbar) -> bool:
    """Whether Op(q1) o Op(q2) = Op(Op(q1) q2) holds exactly on the columns
    where both sides are exact."""
    A = op_of(basis, q1)
    B = op_of(basis, q2)
    lhs = A @ B
    r = A.apply_poly(q2)
    rhs = op_of(basis, r)
    safe = min(lhs.exactness_degree, rhs.exactness_degree)
    return (lhs.restrict_columns(safe) - rhs.restrict_columns(safe)).is_zero()


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
