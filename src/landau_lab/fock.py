"""Graded polynomial model spaces and an exact operator algebra on them.

Two finite-dimensional truncations appear throughout.  The "antiholomorphic"
kind is the span of the monomials zbar^alpha with |alpha| <= D; its normalized
monomials (alpha!)^(-1/2) zbar^alpha are orthonormal, so matrices are written
in that frame.  The "full" kind is the span of the mixed monomials
z^a zbar^b with |a| + |b| <= D, kept in plain monomial coordinates because the
mixed monomials are not orthogonal.

Operators are sparse matrices with entries in the exact radical ring
(:mod:`.radicals`), tagged with a parity and with the largest input degree on
which they agree with their untruncated counterparts.
"""

from __future__ import annotations

import itertools
import json
from math import factorial

import numpy as np

from .radicals import CRad, Rad

MultiIndex = tuple[int, ...]

ANTIHOLOMORPHIC = "antiholomorphic"
FULL = "full"


def mi_degree(a: MultiIndex) -> int:
    return sum(a)


def mi_factorial(a: MultiIndex) -> int:
    out = 1
    for ai in a:
        out *= factorial(ai)
    return out


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def mi_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x - y for x, y in zip(a, b))


def mi_leq(a: MultiIndex, b: MultiIndex) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mi_unit(n: int, i: int) -> MultiIndex:
    return tuple(1 if j == i else 0 for j in range(n))


def multi_indices(n: int, max_degree: int) -> list[MultiIndex]:
    """All multi-indices of length n with total degree <= max_degree,
    ordered by total degree then lexicographically."""
    mis = [c for c in itertools.product(range(max_degree + 1), repeat=n)
           if sum(c) <= max_degree]
    mis.sort(key=lambda a: (sum(a), a))
    return mis


def multi_indices_of_degree(n: int, degree: int) -> list[MultiIndex]:
    return [a for a in multi_indices(n, degree) if sum(a) == degree]


class GradedBasis:
    """Ordered label set for one of the two truncated model spaces."""

    def __init__(self, n: int, D: int, kind: str = ANTIHOLOMORPHIC):
        if kind not in (ANTIHOLOMORPHIC, FULL):
            raise ValueError("kind must be %r or %r" % (ANTIHOLOMORPHIC, FULL))
        if n < 1:
            raise ValueError("need at least one variable")
        if D < 0:
            raise ValueError("degree cutoff must be nonnegative")
        self.n = n
        self.D = D
        self.kind = kind
        mis = multi_indices(n, D)
        if kind == ANTIHOLOMORPHIC:
            labels = list(mis)
            degs = [sum(a) for a in labels]
        else:
            labels = [(a, b) for a in mis for b in mis if sum(a) + sum(b) <= D]
            labels.sort(key=lambda ab: (sum(ab[0]) + sum(ab[1]), ab[0], ab[1]))
            degs = [sum(a) + sum(b) for a, b in labels]
        self.labels = tuple(labels)
        self.degrees = tuple(degs)
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def index(self, label) -> int:
        return self._index[label]

    def contains(self, label) -> bool:
        return label in self._index

    def __repr__(self) -> str:
        return "GradedBasis(n=%d, D=%d, kind=%r, size=%d)" % (
            self.n, self.D, self.kind, self.size)


def enumerate_basis(n: int, D: int, kind: str = ANTIHOLOMORPHIC) -> GradedBasis:
    return GradedBasis(n, D, kind)


class PolyZZbar:
    """Polynomial in (z, zbar) with exact complex-radical coefficients.

    Stored as {(z_exponents, zbar_exponents): CRad}.  Purely antiholomorphic
    polynomials simply have zero z-exponents.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        self.coeffs: dict[tuple[MultiIndex, MultiIndex], CRad] = {}
        if coeffs:
            for key, c in coeffs.items():
                c = CRad.of(c)
                if c:
                    self.coeffs[key] = c

    @classmethod
    def monomial(cls, n: int, a: MultiIndex, b: MultiIndex, coeff=1) -> "PolyZZbar":
        return cls(n, {(tuple(a), tuple(b)): coeff})

    @classmethod
    def constant(cls, n: int, coeff=1) -> "PolyZZbar":
        zero = (0,) * n
        return cls(n, {(zero, zero): coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(a) + sum(b) for a, b in self.coeffs)

    def terms(self):
        return self.coeffs.items()

    def coefficient(self, a: MultiIndex, b: MultiIndex) -> CRad:
        return self.coeffs.get((tuple(a), tuple(b)), CRad())

    def conjugate(self) -> "PolyZZbar":
        return PolyZZbar(self.n, {(b, a): c.conjugate() for (a, b), c in self.coeffs.items()})

    def __neg__(self) -> "PolyZZbar":
        return PolyZZbar(self.n, {k: -c for k, c in self.coeffs.items()})

    def __add__(self, other: "PolyZZbar") -> "PolyZZbar":
        if not isinstance(other, PolyZZbar):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            cur = out.get(k)
            out[k] = c if cur is None else cur + c
        return PolyZZbar(self.n, out)

    def __sub__(self, other: "PolyZZbar") -> "PolyZZbar":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PolyZZbar):
            out: dict = {}
            for (a, b), c in self.coeffs.items():
                for (u, v), d in other.coeffs.items():
                    key = (mi_add(a, u), mi_add(b, v))
                    prod = c * d
                    cur = out.get(key)
                    out[key] = prod if cur is None else cur + prod
            return PolyZZbar(self.n, out)
        try:
            scal = CRad.of(other)
        except TypeError:
            return NotImplemented
        return PolyZZbar(self.n, {k: c * scal for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyZZbar):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def evaluate(self, z) -> np.ndarray:
        """Evaluate at complex points; z has shape (n,) or (npts, n)."""
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        out = np.zeros(z.shape[0], dtype=complex)
        zc = np.conj(z)
        for (a, b), c in self.coeffs.items():
            term = np.full(z.shape[0], c.value(), dtype=complex)
            for i, (ai, bi) in enumerate(zip(a, b)):
                if ai:
                    term = term * z[:, i] ** ai
                if bi:
                    term = term * zc[:, i] ** bi
            out += term
        return out

    def __repr__(self) -> str:
        if not self.coeffs:
            return "PolyZZbar(0)"
        parts = []
        for (a, b), c in sorted(self.coeffs.items()):
            parts.append("%s z^%s zbar^%s" % (c.value(), a, b))
        return "PolyZZbar(%s)" % " + ".join(parts)


_AUTO = object()


class FockOperator:
    """Sparse exact matrix on a GradedBasis.

    parity is 0 (preserves degree mod 2), 1 (flips it), or None (mixed).
    exactness_degree is the largest input degree on which the matrix agrees
    with the untruncated operator it models; identities should only be
    asserted on columns up to that degree.
    """

    __slots__ = ("basis", "entries", "parity", "exactness_degree")

    def __init__(self, basis: GradedBasis, entries, parity=_AUTO, exactness_degree=None):
        self.basis = basis
        self.entries: dict[tuple[int, int], CRad] = {}
        if entries:
            for (i, j), c in entries.items():
                c = CRad.of(c)
                if c:
                    self.entries[(i, j)] = c
        self.parity = self._infer_parity() if parity is _AUTO else parity
        self.exactness_degree = basis.D if exactness_degree is None else exactness_degree

    def _infer_parity(self):
        degs = self.basis.degrees
        seen = {(degs[i] - degs[j]) % 2 for i, j in self.entries}
        if len(seen) == 1:
            return seen.pop()
        return None if seen else 0

    @classmethod
    def zero(cls, basis: GradedBasis) -> "FockOperator":
        return cls(basis, {}, parity=0)

    @classmethod
    def identity(cls, basis: GradedBasis) -> "FockOperator":
        return cls(basis, {(i, i): 1 for i in range(basis.size)}, parity=0)

    def is_zero(self) -> bool:
        return not self.entries

    def raise_amount(self) -> int:
        """Largest degree increase across nonzero entries (negative if the
        operator only lowers degree; zero for the empty matrix)."""
        degs = self.basis.degrees
        if not self.entries:
            return 0
        return max(degs[i] - degs[j] for i, j in self.entries)

    def fall_amount(self) -> int:
        degs = self.basis.degrees
        if not self.entries:
            return 0
        return max(degs[j] - degs[i] for i, j in self.entries)

    def _combine_parity(self, other):
        if self.parity is None or other.parity is None:
            return None
        return (self.parity + other.parity) % 2

    def compose(self, other: "FockOperator") -> "FockOperator":
        """self o other, with the exactness bookkeeping
        ed = min(ed(other), ed(self) - raise(other))."""
        if other.basis is not self.basis:
            raise ValueError("operators live on different bases")
        by_row: dict[int, list] = {}
        for (i, j), c in self.entries.items():
            by_row.setdefault(j, []).append((i, c))
        out: dict[tuple[int, int], CRad] = {}
        for (j, k), b in other.entries.items():
            for i, a in by_row.get(j, ()):
                key = (i, k)
                prod = a * b
                cur = out.get(key)
                out[key] = prod if cur is None else cur + prod
        ed = min(other.exactness_degree, self.exactness_degree - other.raise_amount())
        ed = min(ed, self.basis.D)
        return FockOperator(self.basis, out, parity=self._combine_parity(other),
                            exactness_degree=ed)

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        if not isinstance(other, FockOperator):
            return NotImplemented
        if other.basis is not self.basis:
            raise ValueError("operators live on different bases")
        out = dict(self.entries)
        for k, c in other.entries.items():
            cur = out.get(k)
            out[k] = c if cur is None else cur + c
        par = self.parity if self.parity == other.parity else None
        return FockOperator(self.basis, out, parity=par,
                            exactness_degree=min(self.exactness_degree, other.exactness_degree))

    def __sub__(self, other):
        if not isinstance(other, FockOperator):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "FockOperator":
        c = CRad.of(c)
        if not c:
            return FockOperator.zero(self.basis)
        return FockOperator(self.basis, {k: v * c for k, v in self.entries.items()},
                            parity=self.parity, exactness_degree=self.exactness_degree)

    def adjoint(self) -> "FockOperator":
        """Conjugate transpose, valid as the adjoint only on the
        antiholomorphic kind (whose coordinate frame is orthonormal).

        The exactness degree min(ed, D - fall) is exact when the matrix is a
        plain truncation of its model and conservative otherwise.
        """
        if self.basis.kind != ANTIHOLOMORPHIC:
            raise ValueError("matrix adjoint equals the operator adjoint only on "
                             "the antiholomorphic kind; full-kind adjoints need "
                             "the pairing in the bargmann module")
        ed = min(self.exactness_degree, self.basis.D - max(0, self.fall_amount()))
        return FockOperator(self.basis,
                            {(j, i): c.conjugate() for (i, j), c in self.entries.items()},
                            parity=self.parity, exactness_degree=ed)

    def parity_split(self) -> tuple["FockOperator", "FockOperator"]:
        degs = self.basis.degrees
        even, odd = {}, {}
        for (i, j), c in self.entries.items():
            ((even, odd)[(degs[i] - degs[j]) % 2])[(i, j)] = c
        return (FockOperator(self.basis, even, parity=0, exactness_degree=self.exactness_degree),
                FockOperator(self.basis, odd, parity=1, exactness_degree=self.exactness_degree))

    def agrees_with(self, other: "FockOperator", max_degree=None) -> bool:
        """Exact entry equality on all columns of degree <= max_degree
        (default: the smaller exactness degree of the two)."""
        if max_degree is None:
            max_degree = min(self.exactness_degree, other.exactness_degree)
        degs = self.basis.degrees
        keys = set(self.entries) | set(other.entries)
        zero = CRad()
        for key in keys:
            if degs[key[1]] > max_degree:
                continue
            if self.entries.get(key, zero) != other.entries.get(key, zero):
                return False
        return True

    def restrict_columns(self, max_degree: int) -> "FockOperator":
        degs = self.basis.degrees
        kept = {k: c for k, c in self.entries.items() if degs[k[1]] <= max_degree}
        return FockOperator(self.basis, kept, parity=self.parity,
                            exactness_degree=min(self.exactness_degree, max_degree))

    def as_array(self) -> np.ndarray:
        out = np.zeros((self.basis.size, self.basis.size), dtype=complex)
        for (i, j), c in self.entries.items():
            out[i, j] = c.value()
        return out

    def max_abs(self) -> float:
        return max((abs(c.value()) for c in self.entries.values()), default=0.0)

    def apply_coords(self, vec: dict[int, CRad]) -> dict[int, CRad]:
        by_col: dict[int, list] = {}
        for (i, j), c in self.entries.items():
            by_col.setdefault(j, []).append((i, c))
        out: dict[int, CRad] = {}
        for j, x in vec.items():
            for i, c in by_col.get(j, ()):
                cur = out.get(i)
                term = c * x
                out[i] = term if cur is None else cur + term
        return {i: c for i, c in out.items() if c}

    def apply_poly(self, p: PolyZZbar) -> PolyZZbar:
        return poly_from_coords(self.basis, self.apply_coords(coords_from_poly(self.basis, p)))

    def to_json_dict(self) -> dict:
        entries = [[i, j, c.value().real, c.value().imag]
                   for (i, j), c in sorted(self.entries.items())]
        return {"n": self.basis.n, "D": self.basis.D, "kind": self.basis.kind,
                "entries": entries}

    def dump_json(self, fp) -> None:
        json.dump(self.to_json_dict(), fp, sort_keys=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockOperator):
            return NotImplemented
        return self.basis is other.basis and self.entries == other.entries

    def __repr__(self) -> str:
        return "FockOperator(%r, nnz=%d, parity=%r, exactness_degree=%d)" % (
            self.basis, len(self.entries), self.parity, self.exactness_degree)


def operator_from_json(data: dict) -> tuple[GradedBasis, np.ndarray]:
    """Rebuild the basis and a dense complex matrix from a JSON dump."""
    basis = GradedBasis(data["n"], data["D"], data["kind"])
    mat = np.zeros((basis.size, basis.size), dtype=complex)
    for i, j, re, im in data["entries"]:
        mat[i, j] = complex(re, im)
    return basis, mat


def coords_from_poly(basis: GradedBasis, p: PolyZZbar) -> dict[int, CRad]:
    """Coordinates of a polynomial in the basis frame.

    Antiholomorphic kind: p must be a polynomial in zbar alone, and the
    coordinates are against the normalized monomials, so the zbar^alpha
    coefficient picks up a factor sqrt(alpha!).
    """
    if p.n != basis.n:
        raise ValueError("variable count mismatch")
    out: dict[int, CRad] = {}
    for (a, b), c in p.coeffs.items():
        if basis.kind == ANTIHOLOMORPHIC:
            if any(a):
                raise ValueError("polynomial has z-dependence, not in the "
                                 "antiholomorphic space")
            if sum(b) > basis.D:
                raise ValueError("degree %d exceeds cutoff %d" % (sum(b), basis.D))
            out[basis.index(b)] = c * Rad.sqrt(mi_factorial(b))
        else:
            if sum(a) + sum(b) > basis.D:
                raise ValueError("degree %d exceeds cutoff %d" % (sum(a) + sum(b), basis.D))
            out[basis.index((a, b))] = c
    return out


def poly_from_coords(basis: GradedBasis, vec: dict[int, CRad]) -> PolyZZbar:
    zero = (0,) * basis.n
    coeffs: dict = {}
    for i, c in vec.items():
        lab = basis.labels[i]
        if basis.kind == ANTIHOLOMORPHIC:
            coeffs[(zero, lab)] = c / Rad.sqrt(mi_factorial(lab))
        else:
            coeffs[lab] = c
    return PolyZZbar(basis.n, coeffs)


def ladder_matrices(basis: GradedBasis) -> tuple[list[FockOperator], list[FockOperator]]:
    """Lowering and raising matrices (a_i, a_i*) for each variable.

    Antiholomorphic kind: a_i = d/dzbar_i and a_i* = zbar_i in the normalized
    frame, so entries are square roots of occupation numbers.  Full kind:
    a_i = d/dzbar_i and a_i* = zbar_i - d/dz_i on plain monomials.
    """
    n, D = basis.n, basis.D
    lowers, raises_ = [], []
    for i in range(n):
        low: dict = {}
        high: dict = {}
        if basis.kind == ANTIHOLOMORPHIC:
            for col, beta in enumerate(basis.labels):
                if beta[i] >= 1:
                    low[(basis.index(mi_sub(beta, mi_unit(n, i))), col)] = Rad.sqrt(beta[i])
                if sum(beta) <= D - 1:
                    high[(basis.index(mi_add(beta, mi_unit(n, i))), col)] = Rad.sqrt(beta[i] + 1)
        else:
            for col, (a, b) in enumerate(basis.labels):
                if b[i] >= 1:
                    low[(basis.index((a, mi_sub(b, mi_unit(n, i)))), col)] = b[i]
                if sum(a) + sum(b) <= D - 1:
                    high[(basis.index((a, mi_add(b, mi_unit(n, i)))), col)] = 1
                if a[i] >= 1:
                    key = (basis.index((mi_sub(a, mi_unit(n, i)), b)), col)
                    high[key] = high.get(key, CRad()) - CRad.of(a[i])
        lowers.append(FockOperator(basis, low, parity=1, exactness_degree=D))
        raises_.append(FockOperator(basis, high, parity=1, exactness_degree=D - 1))
    return lowers, raises_


def rho_ab(basis: GradedBasis, alpha: MultiIndex, beta: MultiIndex) -> FockOperator:
    """Rank-one map sending the normalized zbar^beta to the normalized
    zbar^alpha and killing the other normalized monomials."""
    if basis.kind != ANTIHOLOMORPHIC:
        raise ValueError("rho_ab acts on the antiholomorphic kind; use "
                         "tilde_rho from the bargmann module for the full kind")
    alpha, beta = tuple(alpha), tuple(beta)
    return FockOperator(basis, {(basis.index(alpha), basis.index(beta)): 1},
                        parity=(mi_degree(alpha) + mi_degree(beta)) % 2,
                        exactness_degree=basis.D)


def pi_m(basis: GradedBasis, m: int) -> FockOperator:
    """Orthogonal projection onto the homogeneous degree-m component."""
    if basis.kind != ANTIHOLOMORPHIC:
        raise ValueError("pi_m acts on the antiholomorphic kind")
    ent = {(i, i): 1 for i, lab in enumerate(basis.labels) if mi_degree(lab) == m}
    return FockOperator(basis, ent, parity=0, exactness_degree=basis.D)


def rho_tangent(basis: GradedBasis, u, v) -> FockOperator:
    """First-order operator sum_i (-u_i * zbar_i + v_i * d/dzbar_i).

    u and v are length-n sequences of exact scalars: the coefficients of the
    frame vectors represented by multiplication and differentiation.
    """
    n = basis.n
    u = [CRad.of(x) for x in u]
    v = [CRad.of(x) for x in v]
    if len(u) != n or len(v) != n:
        raise ValueError("need %d coefficients for each of u and v" % n)
    lowers, raises_ = ladder_matrices(basis)
    out = FockOperator.zero(basis)
    for i in range(n):
        if basis.kind == ANTIHOLOMORPHIC:
            mult, deriv = raises_[i], lowers[i]
        else:
            mult = _mult_zbar(basis, i)
            deriv = lowers[i]
        if u[i]:
            out = out + mult.scale(-u[i])
        if v[i]:
            out = out + deriv.scale(v[i])
    ed = basis.D if all(not x for x in u) else basis.D - 1
    return FockOperator(basis, out.entries, parity=1, exactness_degree=ed)


def _mult_zbar(basis: GradedBasis, i: int) -> FockOperator:
    ent: dict = {}
    n, D = basis.n, basis.D
    for col, (a, b) in enumerate(basis.labels):
        if sum(a) + sum(b) <= D - 1:
            ent[(basis.index((a, mi_add(b, mi_unit(n, i)))), col)] = 1
    return FockOperator(basis, ent, parity=1, exactness_degree=D - 1)
