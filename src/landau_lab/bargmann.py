"""Symbol calculus on the mixed polynomial space.

Provides the Laguerre family used by kernel asymptotics, the exact Gaussian
pairing on monomials (an int or a Fraction on rational polynomials), the
vacuum projection, the symbol-to-operator map and its composition law, and
the twisted product on symbols.  The Laguerre coefficients, the integer shift
symbols, their inverse expansion and the twisted product are binomial closed
forms; each shift matrix is one ladder product from a smaller one, down to
the vacuum projection, and a shift applied to frames built from the symbols
checks one construction against the other.  Shifts and symbols are kept
unnormalized, with integer entries and coefficients: conjugation by
diag(sqrt(alpha!)) carries them to the normalized ones (Bargmann, Comm. Pure
Appl. Math. 14 (1961) 187), so each relation holds in one form exactly when
it holds in the other, and no square root enters here.

Conventions.  The pairing is <z^a zbar^b, z^c zbar^d> =
prod_i [a_i + d_i == b_i + c_i] * (a_i + d_i)!, which makes 1 a unit vector
and the purely (anti)holomorphic monomials z^a (zbar^a) orthogonal with
squared norm a!.  The operator attached to a symbol q is
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
from .radicals import CRad, exact

# ---------------------------------------------------------------------------
# Laguerre family


def laguerre_q(m: int, p: int) -> list[Fraction]:
    """Coefficients [c_0, ..., c_m] of the degree-m member with parameter p,
    defined through x^{-p}/m! (d/dx - 1)^m x^{m+p}.  Leibniz's rule gives
    them in closed form: c_j = (-1)^j C(m+p, m-j) / j!."""
    if m < 0 or p < 0:
        raise ValueError("indices must be nonnegative")
    return [Fraction((-1) ** j * comb(m + p, m - j), factorial(j))
            for j in range(m + 1)]


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


def pairing(f: PolyZZbar, g: PolyZZbar) -> Scalar:
    """Exact pairing, antilinear in the second argument, in its cheapest
    exact form: an int or a Fraction when the coefficients are rational.
    The sums run in the coefficients' own form, and each term of f
    multiplies its integer-weighted sum over g once."""
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
    return exact(acc)


def gram_inner(f: PolyZZbar, g: PolyZZbar) -> CRad:
    """The pairing as a CRad.  The ledger compares pairing's ints and
    Fractions; this form stays because the benchmark's sympy cross-check
    reads the value's .re and .im, and it goes with the radicals module."""
    return CRad.of(pairing(f, g))


# ---------------------------------------------------------------------------
# The integer shift symbols and the symbol-to-operator map


def _shift_symbol(n: int, alpha, beta) -> PolyZZbar:
    """The integer symbol of the unnormalized (alpha, beta) shift:
    (zbar - d/dz)^alpha applied to (-z)^beta.  zbar and d/dz commute, so the
    binomial theorem expands it per variable as
    (zbar - d/dz)^a z^b = sum_j C(a, j) (-1)^j b!/(b-j)! z^(b-j) zbar^(a-j);
    the j = 0 term, (-1)^|beta| z^beta zbar^alpha, is the top degree."""
    out = {}
    for j in itertools.product(*[range(min(a, b) + 1) for a, b in zip(alpha, beta)]):
        c = -1 if (mi_degree(beta) + mi_degree(j)) % 2 else 1
        for a, b, ji in zip(alpha, beta, j):
            c *= comb(a, ji) * (factorial(b) // factorial(b - ji))
        out[(mi_sub(beta, j), mi_sub(alpha, j))] = c
    return PolyZZbar(n, out)


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


def _shift(basis: GradedBasis, alpha, beta) -> FockOperator:
    """The unnormalized shift (a*)^alpha P_vac a^beta on the full kind, an
    integer matrix built once per basis, each from a smaller one by a single
    ladder product: a*_i times the (alpha - e_i, beta) shift, i the first
    index with alpha_i > 0; at alpha = 0, the (0, beta - e_j) shift times
    a_j, j the last index with beta_j > 0; and P_vac at the base."""
    cache = basis.cache
    key = ("shift", alpha, beta)
    if key not in cache:
        lowers, raises_ = ladder_matrices(basis)
        if any(alpha):
            i = next(k for k, v in enumerate(alpha) if v)
            cache[key] = raises_[i] @ _shift(basis, mi_sub(alpha, mi_unit(basis.n, i)), beta)
        elif any(beta):
            j = max(k for k, v in enumerate(beta) if v)
            cache[key] = _shift(basis, alpha, mi_sub(beta, mi_unit(basis.n, j))) @ lowers[j]
        else:
            cache[key] = bargmann_project_operator(basis)
    return cache[key]


def _shift_coefficients(n: int, q: PolyZZbar) -> dict[tuple, Scalar]:
    """Write q as a combination of the integer shift symbols S(alpha, beta),
    by the inverse of the expansion in _shift_symbol:
    z^a zbar^b = sum_j C(b, j) a!/(a-j)! (-1)^(|a| - |j|) S(b - j, a - j).
    It is derived on its own (substituting _shift_symbol's expansion sums the
    j's to (1 - 1)^l = 0 at every lower degree l), so a wrong shift symbol
    is not inverted by itself.  The coefficients are rational when q is."""
    coeffs: dict[tuple, Scalar] = {}
    for (a, b), c in q.terms():
        for j in itertools.product(*[range(min(ai, bi) + 1) for ai, bi in zip(a, b)]):
            w = -1 if (mi_degree(a) - mi_degree(j)) % 2 else 1
            for ai, bi, ji in zip(a, b, j):
                w *= comb(bi, ji) * (factorial(ai) // factorial(ai - ji))
            key = (mi_sub(b, j), mi_sub(a, j))
            term = c * w
            cur = coeffs.get(key)
            coeffs[key] = term if cur is None else cur + term
    return {k: c for k, c in coeffs.items() if c}


def op_of(basis: GradedBasis, q: PolyZZbar) -> FockOperator:
    """Matrix of the operator attached to the symbol q: q is expanded on the
    integer shift symbols, and each coefficient times its integer shift
    matrix is summed entry by entry into one matrix."""
    if basis.kind != FULL:
        raise ValueError("op_of acts on the full kind")
    if q.n != basis.n:
        raise ValueError("variable count mismatch")
    out: dict = {}
    ed = basis.D
    for (alpha, beta), c in _shift_coefficients(basis.n, q).items():
        shift = _shift(basis, alpha, beta)
        ed = min(ed, shift.exactness_degree)
        for key, v in shift.entries.items():
            term = v * c
            cur = out.get(key)
            out[key] = term if cur is None else cur + term
    return FockOperator(basis, out, exactness_degree=ed)


def op_trace_antiholo(basis_full: GradedBasis, op: FockOperator) -> Scalar:
    """Trace of the operator restricted to the antiholomorphic monomials of
    the full-kind basis (finite once the cutoff exceeds the symbol degree)."""
    zero = (0,) * basis_full.n
    acc = 0
    for i, (a, b) in enumerate(basis_full.labels):
        if a == zero:
            val = op.entries.get((i, i))
            if val:
                acc = acc + val
    return exact(acc)


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
    with exp of the mixed zeta Laplacian, then set zeta = 0.  The contraction
    is Wick's: zeta^P zetabar^Q goes to [P = Q] P!.  So a term z^a zbar^b of
    u against a term z^c zbar^d of v gives, for each gamma <= c with
    delta = a + c - gamma - d between 0 and b,
    (-1)^(|a| + |delta|) C(b, delta) C(c, gamma) (a + c - gamma)!
    z^gamma zbar^(b - delta)."""
    if u.n != v.n:
        raise ValueError("variable count mismatch")
    out: dict = {}
    for (a, b), cu in u.terms():
        for (c, d), cv in v.terms():
            cuv = cu * cv
            for gamma in itertools.product(*[range(ci + 1) for ci in c]):
                P = mi_sub(mi_add(a, c), gamma)
                delta = mi_sub(P, d)
                if not (min(delta) >= 0 and mi_leq(delta, b)):
                    continue
                w = -1 if (mi_degree(a) + mi_degree(delta)) % 2 else 1
                for bi, di, ci, gi in zip(b, delta, c, gamma):
                    w *= comb(bi, di) * comb(ci, gi)
                key = (gamma, mi_sub(b, delta))
                term = cuv * (w * mi_factorial(P))
                cur = out.get(key)
                out[key] = term if cur is None else cur + term
    return PolyZZbar(u.n, out)


def compare_star_orders(basis: GradedBasis, u: PolyZZbar, v: PolyZZbar) -> dict:
    """Report whether the twisted product agrees with applying the operator of
    u to v, or the operator of v to u, or neither; all comparisons exact."""
    star = star_product(u, v)
    via_u = op_of(basis, u).apply_poly(v)
    via_v = op_of(basis, v).apply_poly(u)
    return {"star": star,
            "matches_op_uv": star == via_u,
            "matches_op_vu": star == via_v}
