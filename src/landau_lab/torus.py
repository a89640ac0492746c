"""Lattice model of a constant-field magnetic Laplacian on a square torus.

The torus has side Lambda = sqrt(2*pi*d), so the field strength per tensor
power is 1 and the flux at power k is 2*pi*k*d.  Sites are (i*h, j*h) with
h = Lambda/N, flattened as p = i + N*j.  Link phases implement the gauge
A = -k*x*dy: the y-links carry exp(-i*k*h*x_i), the x-links are trivial
except on the wrap column, which carries the transition function
exp(i*k*Lambda*y).  Every plaquette then has the constant phase
exp(-i*k*h^2); this orientation makes (cov_x + i cov_y) the lowering
direction between clusters, matching the flat Bargmann model.

The Laplacian is the standard five-point covariant form, (1/2) nabla* nabla,
assembled once per bundle from its five stencil diagonals and checked for
hermiticity; the central covariant derivatives come from the same links.

The solver uses the Landau gauge.  A discrete Fourier transform in y makes
the y-links diagonal, and the wrap column shifts the y-mode by k*d, so H
splits exactly into g = gcd(N, k*d) independent real symmetric Harper rings
of N^2/g sites (Harper 1955; Hofstadter 1976).  The finite magnetic
translations (Zak 1964) carry each ring onto the rings of its class by a
cyclic shift, and the g rings fall into c = gcd(k*d, N^2)/g classes: only
one ring per class is solved, and the others' vectors are its vectors
rolled.  Shift-invert Lanczos on each solved ring finds its lowest pairs,
and a count of the ring's eigenvalues on both sides of every gap of the
Lanczos values certifies that Lanczos skipped none, with its vectors
orthonormal.  A ring that the reflection s -> s* - s maps onto itself, as
ring 0 always is, splits into an even and an odd open chain, counted in
O(L) by their inertia (Sylvester's law; spectrum slicing); a ring without
a reflection is counted by its lowest band values.  The certified values,
merged, give each ring its share, and a class that may hold more values
below the cut is solved again for twice as many.  A skipped eigenvalue
trips a GuardError.  Ring q0's y-modes are the coset q0 + g*Z_N, so each
pair maps back to the grid by one length-N/g inverse FFT in y, tiled g
times under a phase, and every column is checked against the real-space H
as it is written, which also checks the shift.  The spectrum keeps the
grid columns and, beside them, each class representative's real ring
vectors and each ring's roll and columns.  The Lanczos start vectors
come from one fixed random stream, so a spectrum depends on (d, k, N,
count) alone.
`resolve_levels` is the one spectral entry point: from (d, k, N, top level)
it returns the spectrum with levels 0..top resolved, from a byte-capped
least-recently-used cache keyed by (d, k, N) and the eigenvalue count; a
torus run resolves each power once, at the highest level any block reads.
`detect_clusters` is the one definition of a cluster: a unit window of
lambda/k whose count must equal the Riemann-Roch number k*d of its level; a
mismatch trips a GuardError instead of mislabelling the levels above it.  A
spectrum owns its cluster projectors: `SpectralDecomposition.projector`
builds each level's once, with its guards, as a read-only view of the
spectrum's vectors, and on first use its frame in ring coordinates, where
functions of x are diagonal, y-exponentials move a ring's vectors to
another ring, and the covariant derivatives and the ladder are real and
stay inside each ring.  The Toeplitz compressions, the derivative chains
and the ladder run on these L-site real ring vectors; the guards, the
kernel and the peaked sections read the grid columns.  The observables
take the spectrum they measure, and their projectors and the power k from
it.  The kernel comparison takes
every level of one power k in one call: the compared pairs and the
level-free factors of the flat model are built once per k, and only the
Laguerre factor and the kernel columns once per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import factorial, gcd, pi, sqrt

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eig_banded
from scipy.linalg.lapack import dstebz

from .bargmann import laguerre_q
from .dimensions import dim_torus
from .errors import ConfigError, GuardError

# Eigen-residual bound, relative to 4/h^2: the largest absolute row sum of
# the five-point H, which bounds its norm.
RESIDUAL_TOL = 1e-9
# Orthonormality bound for a cluster frame and for a ring's Lanczos vectors.
GRAM_TOL = 1e-10
# Gram defect up to which a Cholesky-QR frame counts as orthonormal; it moves
# a squared sine by at most its square.  One pass leaves 7e-15 at N = 192.
_ORTHO_TOL = 1e-12
# The command-line flags that set how many levels a run resolves.
_LEVEL_FLAGS = "--levels, --m or --ladder m=M"


@dataclass(frozen=True)
class TorusGeometry:
    """Square torus normalized so the unit-power field strength is 1."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("degree d must be a positive integer")

    @property
    def side(self) -> float:
        return sqrt(2 * pi * self.d)


class TrigPoly:
    """Trigonometric polynomial sum c_pq exp(2*pi*i*(p*x + q*y)/Lambda)."""

    __slots__ = ("side", "coeffs")

    def __init__(self, side: float, coeffs: dict[tuple[int, int], complex]):
        self.side = side
        self.coeffs = {k: complex(c) for k, c in coeffs.items() if c != 0}

    @classmethod
    def cos_x(cls, side: float) -> "TrigPoly":
        return cls(side, {(1, 0): 0.5, (-1, 0): 0.5})

    @classmethod
    def sin_x(cls, side: float) -> "TrigPoly":
        return cls(side, {(1, 0): -0.5j, (-1, 0): 0.5j})

    @classmethod
    def cos_y(cls, side: float) -> "TrigPoly":
        return cls(side, {(0, 1): 0.5, (0, -1): 0.5})

    @classmethod
    def sin_y(cls, side: float) -> "TrigPoly":
        return cls(side, {(0, 1): -0.5j, (0, -1): 0.5j})

    def x_weights(self, xs) -> dict[int, np.ndarray]:
        """The symbol as sum_q w_q(x) exp(2*pi*i*q*y/Lambda): each y-frequency
        q's weight w_q, the sum of its terms' exponentials in x, at xs."""
        xs = np.asarray(xs, dtype=float)
        w = 2 * pi / self.side
        out: dict = {}
        for (p, q), c in self.coeffs.items():
            out[q] = out.get(q, 0) + c * np.exp(1j * w * p * xs)
        return out

    def evaluate(self, xs, ys) -> np.ndarray:
        """Values on the tensor grid xs x ys, out[i, j] = f(xs[i], ys[j]):
        per term, the outer product of its exponentials in x and in y."""
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        out = np.zeros((len(xs), len(ys)), dtype=complex)
        w = 2 * pi / self.side
        for (p, q), c in self.coeffs.items():
            out += np.outer(c * np.exp(1j * w * p * xs), np.exp(1j * w * q * ys))
        return out

    def d_dx(self) -> "TrigPoly":
        w = 2 * pi / self.side
        return TrigPoly(self.side, {(p, q): 1j * w * p * c
                                    for (p, q), c in self.coeffs.items()})

    def d_dy(self) -> "TrigPoly":
        w = 2 * pi / self.side
        return TrigPoly(self.side, {(p, q): 1j * w * q * c
                                    for (p, q), c in self.coeffs.items()})

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return TrigPoly(self.side, out)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "TrigPoly":
        return TrigPoly(self.side, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        out: dict = {}
        for (p1, q1), c1 in self.coeffs.items():
            for (p2, q2), c2 in other.coeffs.items():
                key = (p1 + p2, q1 + q2)
                out[key] = out.get(key, 0) + c1 * c2
        return TrigPoly(self.side, out)


class DiscreteBundle:
    """Link-phase realization of the power-k bundle on an N x N grid."""

    def __init__(self, geometry: TorusGeometry, k: int, N: int):
        if k < 1:
            raise ValueError("k must be a positive integer")
        if N < 8:
            raise ValueError("grid too coarse, need N >= 8")
        self.geometry = geometry
        self.k = k
        self.N = N
        self.h = geometry.side / N
        if k * self.h ** 2 > 0.3:
            raise GuardError("k*h^2 = %.3f exceeds the hard limit 0.3; refine "
                             "the grid" % (k * self.h ** 2))
        self.xs = np.arange(N) * self.h
        # Coordinates of the sites p = i + N*j.
        self.X, self.Y = np.tile(self.xs, N), np.repeat(self.xs, N)
        # Fortran order, so that the link phases vx and vy below are views.
        ux = np.ones((N, N), dtype=complex, order="F")
        ux[N - 1, :] = np.exp(1j * k * geometry.side * self.xs)  # y_j = j*h
        uy = np.multiply(np.exp(-1j * k * self.h * self.xs)[:, None], np.ones((1, N)), order="F")
        self._ux, self._uy = ux, uy
        # The links (px, vx), (py, vy): S_x sends psi(p) to vx(p) psi(px(p)).
        # One pass over the five stencil diagonals of 4 - S_x - S_x* - S_y -
        # S_y* assembles H.  0 - u, not -u, keeps a zero imaginary part +0,
        # as a sparse difference of the shift matrices does.
        p = np.arange(N * N)
        grid = p.reshape(N, N, order="F")
        px = np.roll(grid, -1, axis=0).ravel(order="F")
        py = np.roll(grid, -1, axis=1).ravel(order="F")
        vx, vy = ux.ravel(order="F"), uy.ravel(order="F")
        self._links = ((px, vx), (py, vy))
        H = sp.csr_matrix((np.concatenate([np.full(N * N, 4 + 0j), 0 - vx, 0 - vx.conj(),
                                           0 - vy, 0 - vy.conj()]),
                           (np.concatenate([p, p, px, p, py]),
                            np.concatenate([p, px, p, py, p]))), shape=(N * N, N * N))
        # The bits of H / (2h^2), which multiplies by the reciprocal, without
        # a second copy of the entries.
        H.data *= 1 / (2 * self.h ** 2)
        herm = abs(H - H.getH()).max()
        if herm > 1e-13 / self.h ** 2:
            raise GuardError("laplacian lost hermiticity: %g" % herm)
        self._H = H

    @cached_property
    def ring_sines(self) -> np.ndarray:
        """sin(theta_s) at the sites of each Landau-gauge ring
        (`_ring_angles`), beside each of the k*d/g vectors that a ring holds
        of every level, as (g, L, k*d/g): a ring frame's covariant
        y-derivative is i/h times it.  Built on first use and kept as long
        as the bundle, for all of its cluster frames."""
        kd = self.k * self.geometry.d
        return np.repeat(np.sin(_ring_angles(self))[:, :, None], kd // gcd(self.N, kd), axis=2)

    def site_index(self, i: int, j: int) -> int:
        return i % self.N + self.N * (j % self.N)

    def plaquette_phases(self) -> np.ndarray:
        """Holonomy around every elementary plaquette; constant exp(-i*k*h^2)."""
        ux, uy = self._ux, self._uy
        return (ux * np.roll(uy, -1, axis=0) * np.conj(np.roll(ux, -1, axis=1))
                * np.conj(uy))

    def laplacian(self) -> sp.csr_matrix:
        """The covariant Laplacian H, assembled once in the constructor."""
        return self._H

    @cached_property
    def derivatives(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """The central covariant derivatives (S - S*)/2h along x and y, each
        one pass over the links of H's stencil; anti-Hermitian, built on
        first use and kept as long as the bundle."""
        n, p = self.N ** 2, np.arange(self.N ** 2)
        return tuple(sp.csr_matrix((np.concatenate([v, 0 - v.conj()]) * (1 / (2 * self.h)),
                                    (np.concatenate([p, q]), np.concatenate([q, p]))),
                                   shape=(n, n)) for q, v in self._links)


@dataclass(frozen=True)
class RingVectors:
    """A spectrum's columns in Landau-gauge ring coordinates: `rings[q]` is
    ring q's (r, t, columns), its class representative r, the roll t with
    ring q's vectors at s equal to r's at s + t (mod L), and the grid
    columns its vectors became, in the ring's ascending order; `vectors[r]`
    holds the representative's solved pairs, ascending, as (L, count) real
    columns, at least as many as any ring of its class takes."""

    vectors: dict
    rings: list

    @property
    def nbytes(self) -> int:
        return (sum(v.nbytes for v in self.vectors.values())
                + sum(cols.nbytes for _, _, cols in self.rings))


@dataclass
class SpectralDecomposition:
    bundle: DiscreteBundle
    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual_max: float
    ring_vectors: RingVectors
    solver: dict = field(default_factory=dict)
    # Cluster projectors by level; a replaced spectrum starts without any.
    _projectors: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def projector(self, m: int) -> "LandauProjector":
        """The projector of cluster m, built with its guards on first use and
        kept as long as this spectrum."""
        proj = self._projectors.get(m)
        if proj is None:
            proj = self._projectors[m] = LandauProjector(self, m)
        return proj


def _ring_angles(bundle: DiscreteBundle) -> np.ndarray:
    """theta_s = 2*pi*q0/N - 2*pi*k*d*s/N^2 at the sites s of each ring q0,
    as (g, L): the y-link phase at s, whose cosine sets the ring's diagonal
    and whose sine its covariant y-derivative."""
    N, kd = bundle.N, bundle.k * bundle.geometry.d
    g = gcd(N, kd)
    return 2 * pi * np.arange(g)[:, None] / N - 2 * pi * kd * np.arange(N * N // g) / N ** 2


def _harper_rings(bundle: DiscreteBundle):
    """The Landau-gauge rings of H, as (modes, diagonal) per ring.

    Ring q0 < g = gcd(N, k*d) visits the sites s = v*N + i <-> (i, modes[v])
    with modes[v] = (q0 - k*d*v) mod N.  Its diagonal is
    c*(4 - 2*cos(theta_s)) (`_ring_angles`) with c = 1/(2h^2), and its
    hopping is -c, the link from s = L - 1 back to s = 0 included.
    """
    N, kd = bundle.N, bundle.k * bundle.geometry.d
    c = 1.0 / (2 * bundle.h ** 2)
    for q0, theta in enumerate(_ring_angles(bundle)):
        yield (q0 - kd * np.arange(len(theta) // N)) % N, c * (4 - 2 * np.cos(theta))


def _ring_matrix(diag: np.ndarray, hop: float) -> sp.csc_matrix:
    """The ring with this diagonal and hopping on every link s -- s + 1
    (mod L), as a sparse matrix."""
    L = len(diag)
    return sp.diags([hop, hop, diag, hop, hop], [1 - L, -1, 0, 1, L - 1],
                    format="csc")


def _ring_band(diag: np.ndarray, hop: float) -> np.ndarray:
    """Lower band form of the ring in the order 0, L-1, 1, L-2, ...  Rows two
    apart hold ring neighbours; rows one apart do so only at the wrap link
    0 -- L-1 (rows 0, 1) and at the middle of the ring (rows L-2, L-1)."""
    L = len(diag)
    perm = np.empty(L, dtype=int)
    perm[0::2] = np.arange((L + 1) // 2)
    perm[1::2] = L - 1 - np.arange(L // 2)
    band = np.zeros((3, L))
    band[0] = diag[perm]
    band[1, [0, L - 2]] = hop
    band[2, :L - 2] = hop
    return band


def _congruence(a: int, b: int, m: int) -> int | None:
    """The least t >= 0 with a*t = b (mod m), or None when there is none."""
    G = gcd(a, m)
    if b % G:
        return None
    return b // G * pow(a // G, -1, m // G) % (m // G)


def _translation_class(N: int, kd: int, q0: int) -> tuple[int, int]:
    """Ring q0's representative r and the roll t with ring q0's diagonal at s
    equal to ring r's at s + t (mod L): k*d*t = (r - q0)*N (mod N^2), which
    is solvable exactly when c = gcd(k*d, N^2)/g divides q0 - r."""
    r = q0 % (gcd(kd, N * N) // gcd(N, kd))
    return r, _congruence(kd, (r - q0) * N, N * N)


def _reflection_sectors(diag: np.ndarray, hop: float, centre: int):
    """The even and odd sectors of a ring symmetric under s -> centre - s
    (mod L), as open chains (diagonal, off-diagonal): a link next to a fixed
    site carries sqrt(2), and a fixed link adds its hop to the even sector's
    diagonal and subtracts it from the odd one's."""
    L = len(diag)
    M = L // 2
    if centre % 2 and not L % 2:
        # Bond-centred: s pairs with -1 - s, and the links -1 -- 0 and
        # M-1 -- M are fixed.
        d = np.roll(diag, -((centre + 1) // 2))[:M]
        ends = np.r_[hop, np.zeros(M - 2), hop]
        e = np.full(M - 1, hop)
        return (d + ends, e), (d - ends, e)
    # Site-centred: s pairs with -s, and the site 0 is fixed.
    d = np.roll(diag, -(centre * (M + 1) % L if L % 2 else centre // 2))[:M + 1]
    e = np.full(M, hop)
    e[0] *= sqrt(2)
    if L % 2:
        # The link M -- M+1 is fixed.
        end = np.r_[np.zeros(M), hop]
        return (d + end, e), ((d - end)[1:], e[1:])
    # The site M is fixed.
    e[-1] *= sqrt(2)
    return (d, e), (d[1:-1], e[1:-1])


# Values solved per class past its even share ceil(count/g) when the rings
# fall into more than one translation class.  Every ring holds k*d/g values
# of each level, so a cut between levels gives each ring its even share;
# inside a level near-equal values decide the shares, which can run over.
# A single class needs no margin: g copies of one spectrum give no ring
# more than the even share.
_SHARE_MARGIN = 2


def _to_grid(found, H, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Ring eigenpairs, as (modes, values, ring vectors) per ring, as grid
    eigenpairs sorted by value, the grid column of each ring pair in the
    order given, and their largest residual against H.

    Ring q0's y-modes are the coset q0 + g*Z_N, M = N/g of them, so the
    inverse FFT in y of a vector's (y-mode, x-site) amplitudes is
    psi(i, j) = N^(-1/2) e^(2 pi i q0 j/N) sum_u b(u, i) e^(2 pi i u j/M),
    with b(u) the amplitude of mode q0 + g*u: one length-M transform per
    ring, periodic in j with period M.  Each column is written once, as that
    transform tiled g times times the phase, and its residual
    |H psi - lambda psi| is taken while it is in cache.  The vectors are
    returned as a read-only, Fortran-ordered (N^2, count) view, so that a
    column range of them is one contiguous block.
    """
    vals = np.concatenate([f[1] for f in found])
    count = len(vals)
    order = np.argsort(vals, kind="stable")
    column = np.empty(count, dtype=int)
    column[order] = np.arange(count)
    # out[n, i + N*j] = psi_n(i, j): one contiguous row per output column.
    out = np.empty((count, N * N), dtype=complex)
    worst, start = 0.0, 0
    for modes, lam, vecs in found:
        q0, M, n_r = modes[0], len(modes), len(lam)
        # Complex before the transform: numpy's ifft of a real array is
        # slower than the cast and the transform together.  The transform
        # runs in place, so a ring holds one buffer, not two.
        b = np.empty((n_r, M, N), dtype=complex)
        b[:, (modes - q0) % N // (N // M)] = vecs.T.reshape(n_r, M, N)
        np.fft.ifft(b, axis=1, norm="forward", out=b)
        # (q0*j) % N keeps the phase's argument below 2 pi; phase[t, u] is
        # the phase at j = t*M + u.
        phase = np.exp(2j * pi * (q0 * np.arange(N) % N) / N).reshape(-1, M, 1) / sqrt(N)
        for n, lam_n, tile in zip(column[start:], lam, b):
            np.multiply(phase, tile, out=out[n].reshape(-1, M, N))
            r = H @ out[n]
            r -= lam_n * out[n]
            worst = max(worst, np.vdot(r, r).real)  # squared norm
        start += n_r
    grid = out.T
    # Cluster frames are views of these columns.
    grid.flags.writeable = False
    return vals[order], grid, column, float(np.sqrt(worst))


def _count_below(chains, tau: float) -> int:
    """How many eigenvalues of the chains (diagonal, off-diagonal) lie at or
    below tau: by Sylvester's law of inertia, the negative pivots of the
    LDL^T of each chain minus tau (spectrum slicing; Parlett, The Symmetric
    Eigenvalue Problem, 3.3).  LAPACK's dstebz takes them on (-inf, tau] and
    bisects no further under an infinite tolerance.  It replaces a zero
    pivot, where tau is an eigenvalue of a leading block, by -pivmin, so
    such a cut counts as one just above tau (Kahan)."""
    return sum(int(dstebz(d, e, 1, -np.inf, tau, 0, 0, np.inf, b"B")[0])
               for d, e in chains)


def _ring_count(diag: np.ndarray, hop: float, centre: int | None, n: int):
    """How many eigenvalues of a ring lie at or below a cut, as a function
    of the cut, for certifying its n lowest: the inertia count of its
    reflection sectors, or, for a ring without a reflection, the number of
    its n lowest band values up to the cut, which is exact below the n-th
    eigenvalue and n above it."""
    if centre is None:
        low = eig_banded(_ring_band(diag, hop), lower=True, eigvals_only=True,
                         select="i", select_range=(0, n - 1))
        return lambda tau: int(np.searchsorted(low, tau, side="right"))
    chains = _reflection_sectors(diag, hop, centre)
    return lambda tau: _count_below(chains, tau)


def _certify_lowest(vals: np.ndarray, vecs: np.ndarray, below, tol: float) -> None:
    """Require the Lanczos pairs of a ring, values ascending, to be its
    lowest len(vals), when each value lies within tol of an eigenvalue (the
    residual check) and below(tau) counts the ring's eigenvalues at or below
    tau (`_ring_count`).

    The vectors must be orthonormal, so the values are distinct eigenvalues
    counted with multiplicity.  Across every gap of the values wider than
    2 tol, tol inside either end, the ring must hold as many eigenvalues as
    there are values below the gap: then none lies in a gap, and every
    eigenvalue below the highest one is a Lanczos value.  The values above
    the highest gap lie within 2 tol of each other.  No cut expects
    len(vals), so a count that stops there suffices.
    """
    # The Frobenius norm bounds the 2-norm and needs no SVD.
    defect = np.linalg.norm(vecs.T @ vecs - np.eye(len(vals)))
    if defect > GRAM_TOL:
        raise GuardError("ring eigensolve missed an eigenvalue: its vectors "
                         "have gram defect %g" % defect)
    # H is positive definite (its lowest level lies near k/2), so 0 opens a
    # gap below the lowest value.
    edges = np.r_[0.0, vals]
    # Gap i lies between edges[i] and edges[i + 1], above i values.
    wide = np.nonzero(np.diff(edges) > 2 * tol)[0]
    for i in wide:
        for cut in (edges[i] + tol, edges[i + 1] - tol):
            found = below(cut)
            if found != i:
                raise GuardError("ring eigensolve missed an eigenvalue: the "
                                 "ring holds %d eigenvalues up to %.9g, and "
                                 "its Lanczos values %d" % (found, cut, i))


def _ring_capacity_error(n: int, L: int) -> ConfigError:
    return ConfigError("at least %d eigenvalues asked of a Landau-gauge ring of %d "
                       "sites, where eigsh takes at most %d: ask for fewer levels "
                       "(%s) or a finer grid (--grid)" % (n, L, L - 1, _LEVEL_FLAGS))


def lowest_spectrum(bundle: DiscreteBundle, count: int) -> SpectralDecomposition:
    """Lowest eigenpairs of H from its Landau-gauge rings.

    One ring per translation class is solved (`_translation_class`), by
    shift-invert Lanczos for its even share ceil(count/g), two more when
    there is more than one class, and its pairs are certified complete by
    `_certify_lowest`: orthonormal vectors, and a count of the ring's
    eigenvalues (`_ring_count`) on both sides of every gap of the values.
    The class's other rings get its vectors rolled.  Merged, the g rings'
    values fix each ring's share of the count lowest, ties going to the
    lower ring; with one class that gives the first count % g rings one
    value more than count // g.  A class whose last value lies below the
    count-th merged one is solved again for twice as many.  `_to_grid`
    maps the vectors back to the grid, one length-N/g inverse FFT in y per
    ring, and checks every column against the real-space H as it writes
    it; that check does not use the symmetry, and its bound is
    RESIDUAL_TOL times 4/h^2.  Beside the grid columns the spectrum keeps
    its ring form (`RingVectors`): each representative's solved vectors,
    and each ring's roll and columns.  `solver` records the rings, the
    classes solved, how many through a reflection, the shares and the
    residual bound.
    """
    H = bundle.laplacian()
    N, kd = bundle.N, bundle.k * bundle.geometry.d
    tol = RESIDUAL_TOL * 4 / bundle.h ** 2
    if count > N * N:
        raise ConfigError("%d eigenvalues asked of a grid of %d sites: ask for "
                          "fewer levels (%s) or a finer grid (--grid)"
                          % (count, N * N, _LEVEL_FLAGS))
    hop = -1.0 / (2 * bundle.h ** 2)
    rings = list(_harper_rings(bundle))
    g = len(rings)
    L = N * N // g
    classes = [_translation_class(N, kd, q0) for q0 in range(g)]
    reps = sorted({r for r, _ in classes})
    centres = {r: _congruence(kd, 2 * r * N, N * N) for r in reps}
    share = -(-count // g)
    if share > L - 1:
        raise _ring_capacity_error(share, L)
    want = dict.fromkeys(reps, min(share + (_SHARE_MARGIN if len(reps) > 1 else 0), L - 1))
    # Random start vectors, drawn solve by solve from one fixed stream: a
    # constant vector is even under the ring's reflection and would have no
    # weight on the odd sector.
    rng = np.random.default_rng(0)
    solved, todo = {}, reps
    while todo:
        for r in todo:
            diag = rings[r][1]
            vals, vecs = spla.eigsh(_ring_matrix(diag, hop), k=want[r], sigma=0,
                                    which="LM", v0=rng.standard_normal(L))
            order = np.argsort(vals)
            vals, vecs = vals[order], vecs[:, order]
            _certify_lowest(vals, vecs, _ring_count(diag, hop, centres[r], want[r]), tol)
            solved[r] = vals, vecs
        merged = np.concatenate([solved[r][0] for r, _ in classes])
        lowest = np.argsort(merged, kind="stable")[:count]
        todo = [r for r in reps if solved[r][0][-1] < merged[lowest[-1]]]
        for r in todo:
            if want[r] == L - 1:
                raise _ring_capacity_error(L, L)
            want[r] = min(2 * want[r], L - 1)
    owner = np.repeat(np.arange(g), [want[r] for r, _ in classes])
    shares = np.bincount(owner[lowest], minlength=g)
    # A ring's vectors are rolled from its representative's only for the
    # transform.
    found = [(rings[q][0], solved[r][0][:n], np.roll(solved[r][1][:, :n], -t, axis=0))
             for q, ((r, t), n) in enumerate(zip(classes, shares)) if n]
    vals, vecs, column, resid = _to_grid(found, H, N)
    if resid > tol:
        raise GuardError("eigen-residual %g exceeds %g" % (resid, tol))
    starts = np.cumsum(np.r_[0, shares])
    ring_vectors = RingVectors({r: solved[r][1] for r in reps},
                               [(r, t, column[starts[q]:starts[q + 1]])
                                for q, (r, t) in enumerate(classes)])
    solver = {"rings": g, "ring_sites": L, "classes": len(reps),
              "sectors": sum(centres[r] is not None for r in reps),
              "shares": [int(n) for n in shares], "residual_bound": tol}
    return SpectralDecomposition(bundle, vals, vecs, resid, ring_vectors, solver)


# Byte cap of the spectrum cache, which serves repeated requests for one
# count.  A torus run hands its one spectrum per power to every block, and
# criterion 3 reads each of its spectra (up to 87 MB at k = 12) only once.
SPECTRUM_CACHE_BYTES = 256 * 2 ** 20

# Least recently used first: a hit is moved to the end.
_SPECTRUM_CACHE: dict[tuple, SpectralDecomposition] = {}


def _spectrum_bytes(dec: SpectralDecomposition) -> int:
    return dec.vectors.nbytes + dec.eigenvalues.nbytes + dec.ring_vectors.nbytes


def compute_spectrum(d: int, k: int, N: int, count: int) -> SpectralDecomposition:
    """Cached lowest count eigenpairs of the (d, k, N) lattice model.

    A cached spectrum is returned only for the count it was solved for, so
    the answer does not depend on earlier requests.  The cache keeps the
    most recently used spectra whose arrays fit in SPECTRUM_CACHE_BYTES
    together; a spectrum larger than that is returned but not kept.
    """
    key = (d, k, N, count)
    dec = _SPECTRUM_CACHE.pop(key, None)
    if dec is None:
        dec = lowest_spectrum(DiscreteBundle(TorusGeometry(d), k, N), count)
    _SPECTRUM_CACHE[key] = dec
    total = sum(_spectrum_bytes(v) for v in _SPECTRUM_CACHE.values())
    while total > SPECTRUM_CACHE_BYTES:
        total -= _spectrum_bytes(_SPECTRUM_CACHE.pop(next(iter(_SPECTRUM_CACHE))))
    return dec


def detect_clusters(dec: SpectralDecomposition, levels: int) -> list[dict]:
    """The clusters m < levels of a spectrum: cluster m is the unit window
    [m, m + 1) of lambda/k around the level center m + 1/2, and it must hold
    the Riemann-Roch dimension k*d of level m on the degree-d torus.

    Every window must close below the largest computed eigenvalue, so every
    reported cluster is complete.  Each record carries its window.
    """
    k, d = dec.bundle.k, dec.bundle.geometry.d
    scaled = dec.eigenvalues / k
    top = scaled.max()
    out = []
    for m in range(levels):
        lo, hi = float(m), m + 1.0
        if hi >= top:
            raise GuardError("cluster m=%d is not fully resolved; compute "
                             "more eigenvalues" % m)
        idx = np.nonzero((scaled >= lo) & (scaled < hi))[0]
        want = dim_torus(1, k, [d], m).value
        if len(idx) != want:
            raise GuardError("cluster m=%d holds %d eigenvalues, but the "
                             "Riemann-Roch count k*d is %d" % (m, len(idx), want))
        out.append({"m": m, "indices": idx, "count": len(idx),
                    "mean_scaled": float(scaled[idx].mean()),
                    "center": m + 0.5, "window": (lo, hi)})
    return out


def resolve_levels(d: int, k: int, N: int, top: int) -> SpectralDecomposition:
    """The spectrum of the (d, k, N) model with levels 0..top resolved.

    The solve asks for the k*d states of levels 0..top + 1 and four more,
    so that the window of level top closes below the largest eigenvalue.
    A cluster is checked where it is read, by `detect_clusters`.
    """
    return compute_spectrum(d, k, N, count=(top + 2) * k * d + 4)


class RingFrame:
    """A cluster's frame in the Landau-gauge rings' coordinates.

    V[q, :, a] is the a-th of ring q's k*d/g vectors in the cluster, real,
    on the ring's L = N^2/g sites s = v*N + i, i being the x-site, and
    at[q, a] is its column in the cluster's grid frame.  A grid column is
    the unitary y-DFT of its ring vector (`_to_grid`), so in these
    coordinates (Zak, Phys. Rev. 134 (1964) A1602):
      - a function of x alone is diagonal, the same on every ring;
      - exp(2 pi i q y/Lambda) moves y-mode mu to mu + q, which takes ring
        r's site s to ring (r + q) mod g's site s - delta*N (mod L), with
        k*d*delta = r + q - (r + q) mod g (mod N);
      - cov_x is the ring's nearest-neighbour difference (S - S^T)/2h, the
        wrap link from L - 1 to 0 included: the wrap column's phase steps
        the y-mode from mu to mu - k*d, which is the ring's next site;
      - cov_y is i sin(theta_s)/h (`DiscreteBundle.ring_sines`).
    An image of the frame is a dict {Q: A}: A[q0] is the image of ring q0's
    vectors, in the coordinates of ring (q0 + Q) mod g, as a (g, L, k*d/g)
    array.
    """

    def __init__(self, bundle: DiscreteBundle, V: np.ndarray, at: np.ndarray):
        self.bundle, self.V, self.at = bundle, V, at
        # delta for a y-shift that crosses once from ring g - 1 to ring 0,
        # k*d*delta = g (mod N); crossing w times steps w*delta (mod N/g).
        self._step = _congruence(bundle.k * bundle.geometry.d, len(V), bundle.N)
        # overlaps by y-shift mod N, at most N of them (`overlaps`)
        self._overlaps: dict = {}

    def _rings_of(self, Q: int) -> np.ndarray:
        """The ring whose coordinates each image A[q0] of key Q is in."""
        return (np.arange(len(self.V)) + Q) % len(self.V)

    def _shift(self, B: np.ndarray, Q: int, q: int) -> np.ndarray:
        """Images of key Q, as (g, N/g, N * k*d/g) rows of v, carried in
        place by the y-shift q to the key Q + q: an image whose ring
        crosses from g - 1 to 0 rolls by its step in v."""
        g, M = B.shape[:2]
        steps = (self._rings_of(Q) + q) // g * self._step % M
        for q0 in np.flatnonzero(steps):
            B[q0] = np.roll(B[q0], -steps[q0], axis=0)
        return B

    def multiply(self, images: dict, f: TrigPoly, out: dict) -> dict:
        """Add the images times f into out, one y-shift q of f's terms at a
        time: their sum in x is one weight per x-site, the same at every
        site v*N + i of a ring, and the y-shift carries each image to its
        new ring."""
        b = self.bundle
        g, L, per = self.V.shape
        for q, weight in f.x_weights(b.xs).items():
            weight = np.repeat(weight, per)
            for Q, A in images.items():
                B = self._shift(A.reshape(g, L // b.N, -1) * weight, Q, q)
                B = B.reshape(g, L, per)
                out[Q + q] = out[Q + q] + B if Q + q in out else B
        return out

    def overlaps(self, q: int) -> np.ndarray:
        """The frame against its own image under exp(2 pi i q y/Lambda),
        resolved by x-site: O[q0, a', a, i] sums over the sites v*N + i of
        ring (q0 + q) mod g its vector a' times the image of ring q0's
        vector a.  The compression of any symbol's y-shift q is then its
        x-weight against O, so each shift's O is built once per frame."""
        b = self.bundle
        O = self._overlaps.get(q % b.N)
        if O is None:
            g, L, per = self.V.shape
            shape = (g, L // b.N, b.N, per)
            image = self._shift(self.V.reshape(g, L // b.N, -1).copy(), 0, q)
            O = self._overlaps[q % b.N] = np.einsum(
                "gvia,gvib->gabi", self.V[self._rings_of(q)].reshape(shape),
                image.reshape(shape))
        return O

    def cov_x(self, images: dict) -> dict:
        h = self.bundle.h
        return {Q: (np.roll(A, -1, axis=1) - np.roll(A, 1, axis=1)) / (2 * h)
                for Q, A in images.items()}

    def cov_y(self, images: dict) -> dict:
        h = self.bundle.h
        return {Q: A * self.bundle.ring_sines[self._rings_of(Q)] * (1j / h)
                for Q, A in images.items()}

    def ladder(self, m: int, sign: int) -> np.ndarray:
        """(cov_x + sign * i cov_y)/sqrt(2) applied m times to the frame, the
        lowering derivative for sign 1 and the raising one for -1: in ring
        coordinates ((S - S^T)/2h - sign sin(theta_s)/h)/sqrt(2), which is
        real and stays inside each ring."""
        h, W = self.bundle.h, self.V
        for _ in range(m):
            W = ((np.roll(W, -1, axis=1) - np.roll(W, 1, axis=1)) / (2 * h)
                 - sign / h * self.bundle.ring_sines * W) / sqrt(2)
        return W

    def assemble(self, blocks: dict) -> np.ndarray:
        """The n x n matrix, in the grid frame's column order, whose entries
        between ring (q0 + Q) mod g's vectors and ring q0's are blocks[Q][q0]."""
        n = self.at.size
        out = np.zeros((n, n), dtype=complex)
        for Q, X in blocks.items():
            out[self.at[self._rings_of(Q)][:, :, None], self.at[:, None, :]] += X
        return out

    def compress(self, images: dict) -> np.ndarray:
        """V* times the images: for each key Q, the vectors of ring
        (q0 + Q) mod g against the image of ring q0's, one L-site product
        per pair of rings, in real arithmetic on the images' real and
        imaginary parts side by side."""
        return self.assemble({Q: (_adjoint(self.V[self._rings_of(Q)]) @ A.view(float)
                                  ).view(complex) for Q, A in images.items()})


class LandauProjector:
    """Orthogonal projector onto one resolved cluster, stored as its
    orthonormal column frame: a view of the spectrum's columns, which are
    sorted by eigenvalue, so that a cluster is one range of them.  Its
    frame in ring coordinates, `rings`, is built on first use."""

    def __init__(self, dec: SpectralDecomposition, m: int):
        cl = detect_clusters(dec, m + 1)[m]
        first = cl["indices"][0]
        V = dec.vectors[:, first:first + cl["count"]]
        # Ring frames are orthonormal by construction: rings have disjoint
        # Fourier support, and Lanczos vectors within a ring are orthonormal.
        # A gram defect below GRAM_TOL also puts every singular value of V
        # within GRAM_TOL of 1, so the frame has full rank.
        gram_defect = np.linalg.norm(V.conj().T @ V - np.eye(V.shape[1]), 2)
        if gram_defect > GRAM_TOL:
            raise GuardError("cluster frame is not orthonormal: %g" % gram_defect)
        # The real correctness check: compressing the Laplacian to the span
        # must keep every Ritz value inside this cluster's window.
        H = dec.bundle.laplacian()
        ritz = np.linalg.eigvalsh(V.conj().T @ (H @ V)) / dec.bundle.k
        lo, hi = cl["window"]
        if ritz.min() < lo - 1e-6 or ritz.max() > hi + 1e-6:
            raise GuardError("cluster span leaks outside its window: Ritz "
                             "values in [%g, %g]" % (ritz.min(), ritz.max()))
        # P = V V* is hermitian by construction, and its idempotency defect
        # is the gram defect.
        self.gram_defect = float(gram_defect)
        self.V = V
        self.bundle = dec.bundle
        self._ring_vectors, self._first = dec.ring_vectors, int(first)

    @property
    def dim(self) -> int:
        return self.V.shape[1]

    @cached_property
    def rings(self) -> RingFrame:
        """The frame in ring coordinates, k*d/g real L-site vectors for each
        of the g rings, rolled from the class representatives' vectors:
        each ring holds k*d/g of every level's values, and a ring that holds
        another number of the cluster's columns trips a GuardError."""
        b, spec, n = self.bundle, self._ring_vectors, self.dim
        g = len(spec.rings)
        per = b.k * b.geometry.d // g
        V = np.empty((g, b.N ** 2 // g, per))
        at = np.empty((g, per), dtype=int)
        for q, (r, t, columns) in enumerate(spec.rings):
            mine = np.nonzero((columns >= self._first) & (columns < self._first + n))[0]
            if len(mine) != per:
                raise GuardError("ring %d holds %d of the cluster's %d columns, "
                                 "not k*d/g = %d" % (q, len(mine), n, per))
            V[q] = np.roll(spec.vectors[r][:, mine], -t, axis=0)
            at[q] = columns[mine] - self._first
        return RingFrame(b, V, at)


def toeplitz_fn(proj: LandauProjector, f: TrigPoly) -> np.ndarray:
    """Compression of multiplication by f, on the cluster's ring frame: per
    y-shift of f's terms, their x-weight against the frame's overlaps."""
    frame = proj.rings
    return frame.assemble({q: frame.overlaps(q) @ w
                           for q, w in f.x_weights(proj.bundle.xs).items()})


def toeplitz_der(proj: LandauProjector, fields: list[tuple[TrigPoly, TrigPoly]]) -> np.ndarray:
    """Compression of the derivative chain along the listed vector fields,
    scaled by k^(-p) for 2p fields, on the cluster's ring frame.  Each
    field acts per component: covariant derivative, then its coefficient."""
    if len(fields) % 2:
        raise ValueError("derivative compressions take an even number of fields")
    frame = proj.rings
    images = {0: frame.V}
    for vf in reversed(fields):
        out: dict = {}
        for c, D in zip(vf, (frame.cov_x, frame.cov_y)):
            if c.coeffs:
                frame.multiply(D(images), c, out)
        images = out
    return frame.compress(images) / proj.bundle.k ** (len(fields) // 2)


def hamiltonian_vf(f: TrigPoly) -> tuple[TrigPoly, TrigPoly]:
    """Field X with omega(X, .) + df = 0 for omega = dx ^ dy:
    X = (-df/dy, df/dx)."""
    return (f.d_dy().scale(-1), f.d_dx())


def poisson_bracket(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    return f.d_dx() * g.d_dy() - f.d_dy() * g.d_dx()


def b1_correction(f: TrigPoly, g: TrigPoly, m: int) -> TrigPoly:
    """First product correction at level m:
    -(1/2 + m) * <X_f, X_g> + (1/(2i)) * omega(X_f, X_g)."""
    Xf, Xg = hamiltonian_vf(f), hamiltonian_vf(g)
    metric = Xf[0] * Xg[0] + Xf[1] * Xg[1]
    omega = Xf[0] * Xg[1] - Xf[1] * Xg[0]
    return metric.scale(-(0.5 + m)) + omega.scale(-0.5j)


def asymptotic_defects(dec: SpectralDecomposition, m: int, f: TrigPoly,
                       g: TrigPoly) -> dict:
    """Product, commutator, and corrected-product defects of the level-m
    cluster compressions of a spectrum at power k: the operator norms of
      D2: T(f)T(g) - T(fg) - k^(-1) T(X_f, X_g)
      D1: i k [T(f), T(g)] - T({f, g})
      DB: T(f)T(g) - T(fg) - k^(-1) T(B_1(f, g))
    the cluster's dimension n, and under "rounding" each defect's bound
    n L eps S, within which rounding alone can move it, L = N^2/g being a
    ring's sites.  The compressions run on the ring frame (`RingFrame`),
    whose unit rows are the solver's vectors themselves, and an entry of
    V*W is one sum over the L sites of a ring per y-shift of the symbol,
    so rounding moves it by at most L eps/2 ||W_a||: n L eps/2 |s| in the
    2-norm for W = s V, |s| being the sum of the moduli of s's Fourier
    coefficients and bounding the weights of all its y-shifts together, and
    n L eps/2 |X_f||X_g| / h^2 (|X| = |X^x| + |X^y|) for the derivative
    chain, whose ring differences and sines have norm at most 1/h.
    T(f)T(g) carries both factors' errors and adds its own sums over
    n <= L columns: 3 n L eps/2 |f||g|.  So S is 3|f||g| + |fg| +
    |X_f||X_g| / (k h^2) for D2, 6k|f||g| + |{f, g}| for D1 and 3|f||g| +
    |fg| + |B_1(f, g)| / k for DB; doubling eps/2 covers the few other
    operations per entry: the weights, the shifts' sums and the scaling.
    """
    proj, k = dec.projector(m), dec.bundle.k
    pb, b1 = poisson_bracket(f, g), b1_correction(f, g, m)
    Tf, Tg, Tfg, Tpb, Tb1 = (toeplitz_fn(proj, s) for s in (f, g, f * g, pb, b1))
    Xf, Xg = hamiltonian_vf(f), hamiltonian_vf(g)
    TXY = toeplitz_der(proj, [Xf, Xg])
    prod = Tf @ Tg

    def size(*parts: TrigPoly) -> float:
        return sum(abs(c) for s in parts for c in s.coeffs.values())

    unit = proj.dim * proj.rings.V.shape[1] * float(np.finfo(float).eps)
    fg = size(f) * size(g)
    return {"D2": float(np.linalg.norm(prod - Tfg - TXY / k, 2)),
            "D1": float(np.linalg.norm(1j * k * (prod - Tg @ Tf) - Tpb, 2)),
            "DB": float(np.linalg.norm(prod - Tfg - Tb1 / k, 2)),
            "dim": proj.dim,
            "rounding": {
                "D2": unit * (3 * fg + size(f * g)
                              + size(*Xf) * size(*Xg) / (k * dec.bundle.h ** 2)),
                "D1": unit * (6 * k * fg + size(pb)),
                "DB": unit * (3 * fg + size(f * g) + size(b1) / k)}}


def _kernel_pairs(b: DiscreteBundle):
    """Sites of the kernel's base points, stepping N/8 through [N/4, 3N/4)
    in x and y, and the (site, base column) pairs with |x - x0| <= Lambda/4."""
    steps = np.arange(b.N // 4, (3 * b.N) // 4, max(1, b.N // 8))
    i0, j0 = np.tile(steps, len(steps)), np.repeat(steps, len(steps))
    x0, y0 = i0 * b.h, j0 * b.h
    dist2 = (b.X[:, None] - x0) ** 2 + (b.Y[:, None] - y0) ** 2
    return b.site_index(i0, j0), np.nonzero(dist2 <= (b.geometry.side / 4) ** 2)


def kernel_error(dec: SpectralDecomposition, levels: int) -> list[dict]:
    """Diagonal and off-diagonal comparison of the kernels of a spectrum's
    clusters m < levels against the flat model, in units of the diagonal
    height k/2pi; one row per level.

    The flat level-m kernel is the envelope (k/2pi) e^{-k rho^2/4} times
    L_m(k rho^2/2) times the straight-segment transport phase e^{ikW} of the
    gauge A = k x dy.  Its pairs, all of `_kernel_pairs` (|x - y| <= Lambda/4
    with base points in the interior half-window, so no straight segment
    crosses the chart seam), the envelope and the phase are built once for
    the power k.  Each level adds its Laguerre factor and its kernel columns
    at the base points, one product V V[bases]* / h^2, dropped once compared.
    """
    b, k = dec.bundle, dec.bundle.k
    bases, (sites, cols) = _kernel_pairs(b)
    x, y, x0, y0 = b.X[sites], b.Y[sites], b.X[bases][cols], b.Y[bases][cols]
    rho2 = (x - x0) ** 2 + (y - y0) ** 2
    W = (x + x0) * (y - y0) / 2
    envelope, phase = k / (2 * pi) * np.exp(-k * rho2 / 4), np.exp(1j * k * W)
    t = k * rho2 / 2
    del x, y, x0, y0, rho2, W
    rows = []
    for m in range(levels):
        V = dec.projector(m).V
        diag = np.sum(np.abs(V) ** 2, axis=1) / b.h ** 2
        laguerre = np.polyval([float(c) for c in reversed(laguerre_q(m, 0))], t)
        kernel = (V @ V[bases].conj().T)[sites, cols] / b.h ** 2
        rows.append({"k": k, "m": m,
                     "diag_err": float(np.max(np.abs(2 * pi * diag / k - 1))),
                     "offdiag_err": float(np.max(np.abs(
                         kernel - envelope * laguerre * phase)) * 2 * pi / k)})
    return rows


def _adjoint(A: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix in a stack."""
    A = np.swapaxes(A, -1, -2)
    return A.conj() if np.iscomplexobj(A) else A


def _max_principal_angle(U: np.ndarray, V: np.ndarray) -> float:
    """Largest principal angle between span(U) and span(V), V orthonormal:
    Cholesky-QR of U (U L^(-*), L L* = U* U), once more if not orthonormal
    yet, then the largest eigenvalue of S* S, S = U (U* V) - V.  U and V
    may be stacks (..., L, n) of frames on mutually orthogonal coordinate
    blocks, as ring frames are: the spans are then the blocks' direct sums,
    the gram matrices block diagonal, and every step runs block by block."""
    G = _adjoint(U) @ U
    # Cholesky of G runs to completion in floating point when H, G scaled to
    # unit diagonal, has 20 k^(3/2) eps cond(H) < 1 (Demmel; Higham, Accuracy
    # and Stability of Numerical Algorithms, ch. 10).  A frame outside that
    # bound, one with a zero column among them, is rank deficient to working
    # precision.  k counts the columns of all the blocks.
    s = np.sqrt(np.diagonal(G, axis1=-2, axis2=-1).real)
    s[s == 0] = 1  # a zero column stays zero in H
    w = np.linalg.eigvalsh(G / (s[..., :, None] * s[..., None, :]))
    n = G.shape[-1] * int(np.prod(G.shape[:-2]))
    if w.min() <= 20 * n ** 1.5 * np.finfo(float).eps * w.max():
        raise GuardError("raised frame is rank deficient: the eigenvalues of "
                         "its unit-diagonal gram matrix span [%.3g, %.3g]"
                         % (w.min(), w.max()))
    # Inside that bound two passes reach _ORTHO_TOL (CholeskyQR2; Yamamoto
    # et al., ETNA 44, 2015).
    eye = np.eye(G.shape[-1])
    for _ in range(2):
        U = U @ _adjoint(np.linalg.inv(np.linalg.cholesky(G)))
        G = _adjoint(U) @ U
        if np.max(np.linalg.norm(G - eye, 2, axis=(-2, -1))) <= _ORTHO_TOL:
            break
    S = U @ (_adjoint(U) @ V)
    S -= V
    sin2 = np.max(np.linalg.eigvalsh(_adjoint(S) @ S)[..., -1])
    return float(np.arcsin(np.sqrt(min(max(sin2, 0.0), 1.0))))


def ladder_map(dec: SpectralDecomposition, m: int) -> dict:
    """Down-ladder from cluster m to cluster 0 and its isometry defects.

    The map is (m!)^(-1/2) k^(-m/2) P_0 D^m with D = (cov_x + i cov_y)/sqrt(2)
    the unit-frame lowering derivative (`RingFrame.ladder`).  D keeps every
    ring, so the map is block diagonal in ring order, one real block per
    ring, and its defects are the largest of the blocks'.  Also reports the
    largest principal angle between cluster m and cluster 0 raised m times,
    ring by ring.
    """
    k = dec.bundle.k
    p0, pm = dec.projector(0), dec.projector(m)
    r0, rm = p0.rings, pm.rings
    blocks = _adjoint(r0.V) @ rm.ladder(m, 1) / (sqrt(factorial(m)) * k ** (m / 2))
    eye = np.eye(blocks.shape[-1])
    vtv = float(np.max(np.linalg.norm(_adjoint(blocks) @ blocks - eye, 2, axis=(-2, -1))))
    vvt = float(np.max(np.linalg.norm(blocks @ _adjoint(blocks) - eye, 2, axis=(-2, -1))))
    return {"k": k, "vtv_defect": vtv, "vvt_defect": vvt,
            "max_angle": _max_principal_angle(r0.ladder(m, -1), rm.V),
            "dim0": p0.dim, "dimm": pm.dim}


def _bump(r: np.ndarray, inner: float, outer: float) -> np.ndarray:
    """Smooth plateau: 1 up to inner, 0 beyond outer."""
    def gl(s):
        return np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)

    t = (outer - r) / (outer - inner)
    num = gl(t)
    return num / (num + gl(1.0 - t))


def peaked_section(bundle: DiscreteBundle, coeffs) -> np.ndarray:
    """Sample a coherent peak modulated by the polynomial sum_j c_j w^j.

    Centered at the grid point (N/2, N/2); the profile is (k/2pi)^(1/2) times the model
    transport factor e^{-k rho^2/4 + i k W}, the polynomial evaluated at
    w = sqrt(k) * (xi_x + i xi_y)/sqrt(2), and a plateau cutoff supported
    in radius Lambda/4 and identically 1 inside Lambda/8.  The w^j
    modulations are the ones living in the lowest cluster for this gauge
    orientation; they realize the degree-j antiholomorphic model vectors.
    """
    b = bundle
    lam = b.geometry.side
    x0 = y0 = b.N // 2 * b.h
    xi_x, xi_y = b.X - x0, b.Y - y0
    rho = np.hypot(xi_x, xi_y)
    w = sqrt(b.k) * (xi_x + 1j * xi_y) / sqrt(2)
    poly = np.zeros_like(w)
    for c in reversed(list(coeffs)):
        poly = poly * w + c
    W = (b.X + x0) * (b.Y - y0) / 2
    vals = (sqrt(b.k / (2 * pi)) * np.exp(-b.k * rho ** 2 / 4 + 1j * b.k * W)
            * poly * _bump(rho, lam / 8, lam / 4))
    return vals


def peaked_gram(dec: SpectralDecomposition, coeff_list) -> dict:
    """Compare pairwise inner products of peaked samples on a spectrum's
    bundle with the model pairing of their modulating polynomials.

    coeff_list holds one coefficient sequence per section; the model value
    for a pair is sum_a conj(c_a) c'_a a! (degree-a vectors have squared
    norm a!, distinct degrees are orthogonal).  Reports the full numeric
    Gram matrix, the worst absolute deviation, and the relative projection
    defect of each section onto the lowest cluster.
    """
    proj, b = dec.projector(0), dec.bundle
    phis = [peaked_section(b, c) for c in coeff_list]
    gram = np.array([[b.h ** 2 * np.vdot(p, q) for q in phis] for p in phis])
    model = np.array([[sum(np.conj(a) * bb * factorial(deg)
                           for deg, (a, bb) in enumerate(zip(ci, cj)))
                       for cj in coeff_list] for ci in coeff_list], dtype=complex)
    defects = [float(np.linalg.norm(proj.V @ (proj.V.conj().T @ p) - p)
                     / np.linalg.norm(p)) for p in phis]
    return {"k": b.k, "gram": gram, "model": model,
            "max_dev": float(np.abs(gram - model).max()), "defects": defects}
