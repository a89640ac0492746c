"""Graded polynomial model spaces and an exact operator algebra on them.

Two finite-dimensional truncations appear throughout.  The "antiholomorphic"
kind is the span of the monomials zbar^alpha with |alpha| <= D; its normalized
monomials (alpha!)^(-1/2) zbar^alpha are orthonormal, so matrices are written
in that frame.  The "full" kind is the span of the mixed monomials
z^a zbar^b with |a| + |b| <= D, kept in plain monomial coordinates because the
mixed monomials are not orthogonal.

Operators are sparse exact matrices; their parity is read off the entries.
A truncated matrix agrees with the operator it models only on the columns of
low enough degree, so each comparison states the degree it compares up to.
Each holds one dict of its entries, each in its cheapest exact form
(:func:`.radicals.exact`): a real rational is an ``int`` or a ``Fraction``,
and an entry is in the exact radical ring only where it is complex or
irrational.  Full-kind ladders, the vacuum projection, the unnormalized
shifts and the operators of rational symbols are rational throughout, so
their algebra runs on Python integers; radicals enter only through the
normalized antiholomorphic frame.
Polynomial coefficients are kept in the same cheapest exact form.  On the
full kind they are a polynomial's coordinates, so `FockOperator.apply_poly`
walks the matrix columns of the polynomial's terms.

Each basis carries one cache dict for the operators built on it: the ladder
set from :func:`ladder_matrices`, the rank-one shifts of :func:`rho_ab` on
the antiholomorphic kind and, on the full kind, the vacuum projection and
shift matrices of the bargmann module.  Every
caller on the same basis shares one copy, which lives as long as the basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING

from .radicals import CRad, Rad, exact

if TYPE_CHECKING:
    import numpy as np

MultiIndex = tuple[int, ...]
Scalar = int | Fraction | CRad

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
    return [a for d in range(max_degree + 1) for a in multi_indices_of_degree(n, d)]


def multi_indices_of_degree(n: int, degree: int) -> list[MultiIndex]:
    """The compositions of `degree` into n parts, in lexicographic order
    (the order of that degree's block in multi_indices)."""
    if n == 1:
        return [(degree,)]
    return [(first,) + rest for first in range(degree + 1)
            for rest in multi_indices_of_degree(n - 1, degree - first)]


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
        # Operators built on this basis, shared by every caller on it.
        self.cache: dict = {}

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self._index[label]

    def __repr__(self) -> str:
        return "GradedBasis(n=%d, D=%d, kind=%r, size=%d)" % (
            self.n, self.D, self.kind, self.size)


def _exact_entries(entries) -> dict:
    """A fresh entry dict with every value in its cheapest exact form and
    the zeros dropped."""
    out = {}
    for key, c in entries.items():
        if type(c) is not int:
            c = exact(c)
        if c:
            out[key] = c
    return out


class PolyZZbar:
    """Polynomial in (z, zbar) with exact coefficients.

    Stored as {(z_exponents, zbar_exponents): coefficient}, each coefficient
    in its cheapest exact form.  Purely antiholomorphic polynomials simply
    have zero z-exponents.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        self.coeffs: dict[tuple[MultiIndex, MultiIndex], Scalar] = \
            _exact_entries(coeffs) if coeffs else {}

    @classmethod
    def monomial(cls, n: int, a: MultiIndex, b: MultiIndex, coeff=1) -> "PolyZZbar":
        return cls(n, {(tuple(a), tuple(b)): coeff})

    @classmethod
    def constant(cls, n: int, coeff=1) -> "PolyZZbar":
        zero = (0,) * n
        return cls(n, {(zero, zero): coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        return self.coeffs.items()

    def coefficient(self, a: MultiIndex, b: MultiIndex) -> Scalar:
        return self.coeffs.get((tuple(a), tuple(b)), 0)

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
        try:
            scal = exact(other)
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
        import numpy as np
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        out = np.zeros(z.shape[0], dtype=complex)
        zc = np.conj(z)
        for (a, b), c in self.coeffs.items():
            term = np.full(z.shape[0], complex(c), dtype=complex)
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
            parts.append("%s z^%s zbar^%s" % (complex(c), a, b))
        return "PolyZZbar(%s)" % " + ".join(parts)


class FockOperator:
    """Sparse exact matrix on a GradedBasis: a dict of its entries, each in
    its cheapest exact form, which is never mutated once an operator holds
    it, so every operation that keeps it whole shares it.

    An operator holds only what its entries cannot tell, so its parity is
    read off them.  Truncation makes the matrix differ from the operator it
    models on the columns whose image leaves the cutoff; which columns those
    are depends on that operator, so each caller of agrees_with states the
    degree it compares up to.
    """

    __slots__ = ("basis", "entries", "_columns")

    def __init__(self, basis: GradedBasis, entries):
        self.basis = basis
        self.entries: dict[tuple[int, int], Scalar] = \
            _exact_entries(entries) if entries else {}
        self._columns = None

    @classmethod
    def _holding(cls, basis: GradedBasis, entries: dict) -> "FockOperator":
        """The operator with the given entry dict (already in exact form),
        held without copying."""
        op = cls.__new__(cls)
        op.basis = basis
        op.entries = entries
        op._columns = None
        return op

    def columns(self) -> dict[int, list]:
        """The entries grouped by column, j -> [(i, entry)], built on first
        use and kept with the operator: compose walks the left factor's
        columns, and apply_poly the columns of the polynomial's terms."""
        if self._columns is None:
            cols: dict[int, list] = {}
            for (i, j), c in self.entries.items():
                cols.setdefault(j, []).append((i, c))
            self._columns = cols
        return self._columns

    @property
    def parity(self):
        """0 when every entry preserves degree mod 2 (and for the zero
        operator), 1 when every entry flips it, None when the entries mix."""
        degs = self.basis.degrees
        seen = {(degs[i] - degs[j]) % 2 for i, j in self.entries}
        if len(seen) == 1:
            return seen.pop()
        return None if seen else 0

    @classmethod
    def zero(cls, basis: GradedBasis) -> "FockOperator":
        return cls(basis, {})

    @classmethod
    def identity(cls, basis: GradedBasis) -> "FockOperator":
        return cls(basis, {(i, i): 1 for i in range(basis.size)})

    def is_zero(self) -> bool:
        return not self.entries

    def compose(self, other: "FockOperator") -> "FockOperator":
        """self o other."""
        if other.basis is not self.basis:
            raise ValueError("operators live on different bases")
        by_col = self.columns()
        out: dict[tuple[int, int], Scalar] = {}
        for (j, k), b in other.entries.items():
            for i, a in by_col.get(j, ()):
                key = (i, k)
                prod = a * b
                cur = out.get(key)
                out[key] = prod if cur is None else cur + prod
        return FockOperator._holding(self.basis, _exact_entries(out))

    def __matmul__(self, other):
        return self.compose(other)

    def _plus(self, other: "FockOperator", sign: int) -> "FockOperator":
        """self + sign * other."""
        if other.basis is not self.basis:
            raise ValueError("operators live on different bases")
        out = dict(self.entries)
        for k, c in other.entries.items():
            if sign < 0:
                c = -c
            cur = out.get(k)
            out[k] = c if cur is None else cur + c
        return FockOperator._holding(self.basis, _exact_entries(out))

    def __add__(self, other):
        if not isinstance(other, FockOperator):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other):
        if not isinstance(other, FockOperator):
            return NotImplemented
        return self._plus(other, -1)

    def scale(self, c) -> "FockOperator":
        """c times the operator, for any exact c; by 1 it is the operator
        itself, and by -1 each entry is negated, which keeps its form."""
        c = exact(c)
        if type(c) is int and c == 1:
            return self
        if type(c) is int and c == -1:
            entries = {k: -v for k, v in self.entries.items()}
        else:
            entries = _exact_entries({k: v * c for k, v in self.entries.items()})
        return FockOperator._holding(self.basis, entries)

    def adjoint(self) -> "FockOperator":
        """Conjugate transpose, valid as the adjoint only on the
        antiholomorphic kind (whose coordinate frame is orthonormal)."""
        if self.basis.kind != ANTIHOLOMORPHIC:
            raise ValueError("matrix adjoint equals the operator adjoint only on "
                             "the antiholomorphic kind; full-kind adjoints need "
                             "the pairing in the bargmann module")
        return FockOperator._holding(
            self.basis, {(j, i): c.conjugate() for (i, j), c in self.entries.items()})

    def parity_split(self) -> tuple["FockOperator", "FockOperator"]:
        degs = self.basis.degrees
        even, odd = {}, {}
        for (i, j), c in self.entries.items():
            ((even, odd)[(degs[i] - degs[j]) % 2])[(i, j)] = c
        return (FockOperator._holding(self.basis, even),
                FockOperator._holding(self.basis, odd))

    def agrees_with(self, other: "FockOperator", max_degree: int) -> bool:
        """Exact entry equality on all columns of degree <= max_degree."""
        degs = self.basis.degrees
        mine, theirs = self.entries, other.entries
        for key in mine.keys() | theirs.keys():
            if degs[key[1]] <= max_degree and mine.get(key, 0) != theirs.get(key, 0):
                return False
        return True

    def as_array(self) -> np.ndarray:
        import numpy as np
        out = np.zeros((self.basis.size, self.basis.size), dtype=complex)
        for (i, j), c in self.entries.items():
            out[i, j] = complex(c)
        return out

    def apply_poly(self, p: PolyZZbar) -> PolyZZbar:
        """The operator applied to a polynomial on the full kind, whose
        coordinates are its coefficients against the plain monomials
        z^a zbar^b: the entry loop walks the columns of the polynomial's
        terms."""
        basis = self.basis
        if basis.kind != FULL:
            raise ValueError("polynomial coordinates are taken on the full kind")
        if p.n != basis.n:
            raise ValueError("variable count mismatch")
        by_col = self.columns()
        out: dict[int, Scalar] = {}
        for (a, b), x in p.coeffs.items():
            if sum(a) + sum(b) > basis.D:
                raise ValueError("degree %d exceeds cutoff %d" % (sum(a) + sum(b), basis.D))
            for i, c in by_col.get(basis.index((a, b)), ()):
                cur = out.get(i)
                term = c * x
                out[i] = term if cur is None else cur + term
        return PolyZZbar(basis.n, {basis.labels[i]: c for i, c in out.items()})

    def __repr__(self) -> str:
        return "FockOperator(%r, nnz=%d, parity=%r)" % (
            self.basis, len(self.entries), self.parity)


def ladder_matrices(basis: GradedBasis) -> tuple[tuple[FockOperator, ...],
                                                  tuple[FockOperator, ...]]:
    """Lowering and raising matrices (a_i, a_i*) for each variable, built
    once per basis and shared through its cache.

    Antiholomorphic kind: a_i = d/dzbar_i and a_i* = zbar_i in the normalized
    frame, so entries are square roots of occupation numbers.  Full kind:
    a_i = d/dzbar_i and a_i* = zbar_i - d/dz_i on plain monomials.
    """
    if "ladders" in basis.cache:
        return basis.cache["ladders"]
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
                    high[key] = high.get(key, 0) - a[i]
        lowers.append(FockOperator(basis, low))
        raises_.append(FockOperator(basis, high))
    basis.cache["ladders"] = (tuple(lowers), tuple(raises_))
    return basis.cache["ladders"]


def rho_ab(basis: GradedBasis, alpha: MultiIndex, beta: MultiIndex) -> FockOperator:
    """Rank-one map sending the normalized zbar^beta to the normalized
    zbar^alpha and killing the other normalized monomials, built once per
    basis and shared through its cache."""
    if basis.kind != ANTIHOLOMORPHIC:
        raise ValueError("rho_ab acts on the antiholomorphic kind; the full "
                         "kind's shifts are the integer shift matrices of the "
                         "bargmann module")
    alpha, beta = tuple(alpha), tuple(beta)
    cache = basis.cache
    key = ("rho", alpha, beta)
    if key not in cache:
        cache[key] = FockOperator(basis, {(basis.index(alpha), basis.index(beta)): 1})
    return cache[key]


def pi_m(basis: GradedBasis, m: int) -> FockOperator:
    """Orthogonal projection onto the homogeneous degree-m component."""
    if basis.kind != ANTIHOLOMORPHIC:
        raise ValueError("pi_m acts on the antiholomorphic kind")
    ent = {(i, i): 1 for i, lab in enumerate(basis.labels) if mi_degree(lab) == m}
    return FockOperator(basis, ent)


def rho_tangent(basis: GradedBasis, u, v) -> FockOperator:
    """First-order operator sum_i (-u_i * zbar_i + v_i * d/dzbar_i).

    u and v are length-n sequences of exact scalars: the coefficients of the
    frame vectors represented by multiplication and differentiation.
    """
    if basis.kind != ANTIHOLOMORPHIC:
        raise ValueError("rho_tangent acts on the antiholomorphic kind")
    n = basis.n
    u = [exact(x) for x in u]
    v = [exact(x) for x in v]
    if len(u) != n or len(v) != n:
        raise ValueError("need %d coefficients for each of u and v" % n)
    lowers, raises_ = ladder_matrices(basis)
    terms = []
    for i in range(n):
        if u[i]:
            terms.append(raises_[i].scale(-u[i]))
        if v[i]:
            terms.append(lowers[i].scale(v[i]))
    return sum(terms[1:], terms[0]) if terms else FockOperator.zero(basis)

