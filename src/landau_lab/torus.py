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
assembled and checked for hermiticity once per bundle.  `resolve_levels` is
the one spectral entry point: from (d, k, N, top level, seed) it returns the
spectrum, cached per (d, k, N, seed) and shared by the experiment drivers,
and the clusters of levels 0..top.  Each cluster is a unit window of
lambda/k (`detect_clusters`), and its count must equal the Riemann-Roch
number k*d of its level; a mismatch trips a GuardError instead of
mislabelling the levels above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, pi, sqrt

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import subspace_angles

from .bargmann import laguerre_q
from .dimensions import dim_torus

# Eigen-residual bound, relative to a norm bound of H.
RESIDUAL_TOL = 1e-9
# Orthonormality bound for a cluster frame after QR.
GRAM_TOL = 1e-10


class GuardError(RuntimeError):
    """A numerical validity guard failed; results would not be trustworthy."""


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
    def constant(cls, side: float, c=1.0) -> "TrigPoly":
        return cls(side, {(0, 0): c})

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

    def evaluate(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        w = 2 * pi / self.side
        for (p, q), c in self.coeffs.items():
            out += c * np.exp(1j * w * (p * x + q * y))
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

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            out: dict = {}
            for (p1, q1), c1 in self.coeffs.items():
                for (p2, q2), c2 in other.coeffs.items():
                    key = (p1 + p2, q1 + q2)
                    out[key] = out.get(key, 0) + c1 * c2
            return TrigPoly(self.side, out)
        return self.scale(other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return "TrigPoly(%r)" % (self.coeffs,)


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
        i = np.arange(N)
        self.xs = i * self.h
        ii, jj = np.meshgrid(i, i, indexing="ij")
        self.X = (ii * self.h).ravel(order="F")
        self.Y = (jj * self.h).ravel(order="F")
        ux = np.ones((N, N), dtype=complex)
        ux[N - 1, :] = np.exp(1j * k * geometry.side * self.xs)  # y_j = j*h
        uy = np.exp(-1j * k * self.h * self.xs)[:, None] * np.ones((1, N))
        self._ux = ux
        self._uy = uy
        self._shift_x = self._shift(ux, axis=0)
        self._shift_y = self._shift(uy, axis=1)
        Sx, Sy = self._shift_x, self._shift_y
        H = (4 * sp.identity(N * N, dtype=complex, format="csr")
             - Sx - Sx.getH() - Sy - Sy.getH()) / (2 * self.h ** 2)
        herm = abs(H - H.getH()).max()
        if herm > 1e-13 / self.h ** 2:
            raise GuardError("laplacian lost hermiticity: %g" % herm)
        self._H = H.tocsr()

    def _shift(self, phases: np.ndarray, axis: int) -> sp.csr_matrix:
        """Matrix sending psi(p) to phases(p) * psi(p + e_axis)."""
        N = self.N
        ii, jj = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
        if axis == 0:
            ti, tj = (ii + 1) % N, jj
        else:
            ti, tj = ii, (jj + 1) % N
        rows = (ii + N * jj).ravel(order="F")
        cols = (ti + N * tj).ravel(order="F")
        vals = phases.ravel(order="F")
        return sp.csr_matrix((vals, (rows, cols)), shape=(N * N, N * N))

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

    def cov_x(self) -> sp.csr_matrix:
        """Central covariant x-derivative; anti-Hermitian."""
        Sx = self._shift_x
        return (Sx - Sx.getH()) / (2 * self.h)

    def cov_y(self) -> sp.csr_matrix:
        Sy = self._shift_y
        return (Sy - Sy.getH()) / (2 * self.h)


@dataclass
class SpectralDecomposition:
    bundle: DiscreteBundle
    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual_max: float
    seed: int = 0


def lowest_spectrum(bundle: DiscreteBundle, count: int,
                    seed: int = 0) -> SpectralDecomposition:
    """Lowest eigenpairs by shift-invert Lanczos with a deterministic start
    vector.  Residuals are checked against RESIDUAL_TOL times a norm bound."""
    H = bundle.laplacian()
    rng = np.random.default_rng(seed)
    vals, vecs = spla.eigsh(H, k=count, sigma=0, which="LM",
                            v0=rng.standard_normal(H.shape[0]))
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    norm_bound = float(abs(H).sum(axis=0).max())
    resid = max(np.linalg.norm(H @ vecs[:, j] - vals[j] * vecs[:, j])
                for j in range(count))
    if resid > RESIDUAL_TOL * norm_bound:
        raise GuardError("eigen-residual %g exceeds %g" % (resid, RESIDUAL_TOL * norm_bound))
    return SpectralDecomposition(bundle, vals, vecs, resid, seed)


_SPECTRUM_CACHE: dict[tuple, SpectralDecomposition] = {}


def compute_spectrum(d: int, k: int, N: int, count: int,
                     seed: int = 0) -> SpectralDecomposition:
    """Cached lowest count eigenpairs of the (d, k, N) lattice model."""
    key = (d, k, N, seed)
    cached = _SPECTRUM_CACHE.get(key)
    if cached is not None and len(cached.eigenvalues) >= count:
        return cached
    bundle = DiscreteBundle(TorusGeometry(d), k, N)
    dec = lowest_spectrum(bundle, count, seed=seed)
    _SPECTRUM_CACHE[key] = dec
    return dec


def detect_clusters(eigenvalues: np.ndarray, k: int, levels: int) -> list[dict]:
    """Group eigenvalues into the clusters m < levels: cluster m is the unit
    window [m, m + 1) of lambda/k around the level center m + 1/2.

    Every window must close below the largest computed eigenvalue, so every
    reported cluster is complete.  Each record carries its window.
    """
    scaled = np.asarray(eigenvalues, dtype=float) / k
    top = scaled.max() if len(scaled) else 0.0
    out = []
    for m in range(levels):
        lo, hi = float(m), m + 1.0
        if hi >= top:
            raise GuardError("cluster m=%d is not fully resolved; compute "
                             "more eigenvalues" % m)
        idx = np.nonzero((scaled >= lo) & (scaled < hi))[0]
        out.append({"m": m, "indices": idx, "count": int(len(idx)),
                    "mean_scaled": float(scaled[idx].mean()) if len(idx) else None,
                    "center": m + 0.5, "window": (lo, hi)})
    return out


def level_clusters(dec: SpectralDecomposition, levels: int) -> list[dict]:
    """The clusters m < levels of a spectrum, each count checked against the
    Riemann-Roch dimension k*d of level m on the degree-d torus."""
    k, d = dec.bundle.k, dec.bundle.geometry.d
    clusters = detect_clusters(dec.eigenvalues, k, levels=levels)
    for c in clusters:
        want = dim_torus(1, k, [d], c["m"]).value
        if c["count"] != want:
            raise GuardError("cluster m=%d holds %d eigenvalues, but the "
                             "Riemann-Roch count k*d is %d" % (c["m"], c["count"], want))
    return clusters


def resolve_levels(d: int, k: int, N: int, top: int,
                   seed: int = 0) -> tuple[SpectralDecomposition, list[dict]]:
    """The spectrum of the (d, k, N) model with levels 0..top resolved, and
    their count-checked clusters.

    The solve asks for the k*d states of levels 0..top + 1 and four more,
    so that the window of level top closes below the largest eigenvalue.
    """
    dec = compute_spectrum(d, k, N, count=(top + 2) * k * d + 4, seed=seed)
    return dec, level_clusters(dec, top + 1)


class LandauProjector:
    """Orthogonal projector onto one resolved cluster, stored as its
    orthonormal column frame."""

    def __init__(self, dec: SpectralDecomposition, m: int):
        cl = level_clusters(dec, m + 1)[m]
        V = dec.vectors[:, cl["indices"]]
        # Within a numerically degenerate cluster the iterative solver can
        # return a skewed (non-orthogonal) block; the span is what matters,
        # so orthonormalize it.  A near-zero singular value would mean a
        # duplicated vector, i.e. a rank-deficient span.
        sv = np.linalg.svd(V, compute_uv=False)
        if sv.min() < 0.02:
            raise GuardError("cluster frame is rank deficient: smallest "
                             "singular value %g" % sv.min())
        Q, _ = np.linalg.qr(V)
        gram_defect = np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1]), 2)
        if gram_defect > GRAM_TOL:
            raise GuardError("cluster frame is not orthonormal: %g" % gram_defect)
        # The real correctness check: compressing the Laplacian to the span
        # must keep every Ritz value inside this cluster's window.
        H = dec.bundle.laplacian()
        ritz = np.linalg.eigvalsh(Q.conj().T @ (H @ Q)) / dec.bundle.k
        lo, hi = cl["window"]
        if ritz.min() < lo - 1e-6 or ritz.max() > hi + 1e-6:
            raise GuardError("cluster span leaks outside its window: Ritz "
                             "values in [%g, %g]" % (ritz.min(), ritz.max()))
        # P = Q Q* is hermitian by construction, and its idempotency defect
        # is the gram defect.
        self.gram_defect = float(gram_defect)
        self.V = Q
        self.m = m
        self.bundle = dec.bundle
        self.cluster = cl

    @property
    def dim(self) -> int:
        return self.V.shape[1]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self.V @ (self.V.conj().T @ psi)

    def compress(self, A) -> np.ndarray:
        return self.V.conj().T @ (A @ self.V)

    def kernel_column(self, p: int) -> np.ndarray:
        """Column x -> P(x, p) of the projector kernel in continuum
        normalization (1/h^2 per site pair)."""
        return (self.V @ np.conj(self.V[p, :])) / self.bundle.h ** 2


def sharpen_projector(A: np.ndarray, gap_tol: float = 1e-3) -> tuple[np.ndarray, float]:
    """Apply the spectral step function (1 at and above 1/2) to a Hermitian
    near-projector; refuse when an eigenvalue sits within gap_tol of 1/2."""
    A = np.asarray(A)
    herm = np.linalg.norm(A - A.conj().T, 2)
    if herm > 1e-8 * max(1.0, np.linalg.norm(A, 2)):
        raise ValueError("input is not hermitian enough to sharpen")
    Ah = (A + A.conj().T) / 2
    vals, vecs = np.linalg.eigh(Ah)
    gap = float(np.min(np.abs(vals - 0.5)))
    if gap < gap_tol:
        raise GuardError("spectral gap %g around 1/2 is below %g; refusing to "
                         "sharpen" % (gap, gap_tol))
    chi = (vals >= 0.5).astype(float)
    return (vecs * chi) @ vecs.conj().T, gap


@dataclass
class ToeplitzMatrix:
    """Compression of a multiplication or derivative chain to one cluster."""

    matrix: np.ndarray
    label: str
    m: int
    k: int

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))


def toeplitz_fn(proj: LandauProjector, f) -> ToeplitzMatrix:
    """Compression of multiplication by f (a TrigPoly or per-site values)."""
    b = proj.bundle
    fv = f.evaluate(b.X, b.Y) if isinstance(f, TrigPoly) else np.asarray(f)
    mat = proj.V.conj().T @ (fv[:, None] * proj.V)
    return ToeplitzMatrix(mat, "mult", proj.m, b.k)


def toeplitz_invariants(proj: LandauProjector, f: TrigPoly) -> dict:
    """Residuals of the structural identities: compression of 1 is the
    identity, and compressing the conjugate function gives the adjoint."""
    one = toeplitz_fn(proj, TrigPoly.constant(proj.bundle.geometry.side))
    Tf = toeplitz_fn(proj, f)
    fbar = TrigPoly(f.side, {(-p, -q): np.conj(c) for (p, q), c in f.coeffs.items()})
    Tfbar = toeplitz_fn(proj, fbar)
    return {
        "unit_defect": float(np.linalg.norm(one.matrix - np.eye(proj.dim), 2)),
        "adjoint_defect": float(np.linalg.norm(Tf.matrix.conj().T - Tfbar.matrix, 2)),
    }


def covariant_field_op(bundle: DiscreteBundle, vf: tuple[TrigPoly, TrigPoly]):
    """Sparse operator for the covariant derivative along the vector field."""
    fx, fy = vf
    dx, dy = bundle.cov_x(), bundle.cov_y()
    X = sp.diags(fx.evaluate(bundle.X, bundle.Y)) @ dx
    Y = sp.diags(fy.evaluate(bundle.X, bundle.Y)) @ dy
    return (X + Y).tocsr()


def toeplitz_der(proj: LandauProjector, fields: list[tuple[TrigPoly, TrigPoly]]) -> ToeplitzMatrix:
    """Compression of the derivative chain along the listed vector fields,
    scaled by k^(-p) for 2p fields."""
    if len(fields) % 2:
        raise ValueError("derivative compressions take an even number of fields")
    b = proj.bundle
    W = proj.V
    for vf in reversed(fields):
        W = covariant_field_op(b, vf) @ W
    p = len(fields) // 2
    mat = (proj.V.conj().T @ W) / b.k ** p
    return ToeplitzMatrix(mat, "der", proj.m, b.k)


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


def asymptotic_defects(d: int, ks, m: int, f: TrigPoly, g: TrigPoly,
                       N: int = 64, seed: int = 0) -> dict:
    """Product, commutator, and corrected-product defects of cluster
    compressions across a range of powers k.

    Returns per-k operator norms of
      D2: T(f)T(g) - T(fg) - k^(-1) T(X_f, X_g)
      D1: i k [T(f), T(g)] - T({f, g})
      DB: T(f)T(g) - T(fg) - k^(-1) T(B_1(f, g))
    """
    out = {"ks": list(ks), "D2": [], "D1": [], "DB": [], "dims": []}
    for k in ks:
        dec, _ = resolve_levels(d, k, N, m, seed=seed)
        proj = LandauProjector(dec, m)
        Tf = toeplitz_fn(proj, f).matrix
        Tg = toeplitz_fn(proj, g).matrix
        Tfg = toeplitz_fn(proj, f * g).matrix
        Tpb = toeplitz_fn(proj, poisson_bracket(f, g)).matrix
        Tb1 = toeplitz_fn(proj, b1_correction(f, g, m)).matrix
        TXY = toeplitz_der(proj, [hamiltonian_vf(f), hamiltonian_vf(g)]).matrix
        prod = Tf @ Tg
        out["D2"].append(float(np.linalg.norm(prod - Tfg - TXY / k, 2)))
        out["D1"].append(float(np.linalg.norm(1j * k * (prod - Tg @ Tf) - Tpb, 2)))
        out["DB"].append(float(np.linalg.norm(prod - Tfg - Tb1 / k, 2)))
        out["dims"].append(proj.dim)
    return out


def _laguerre_values(m: int, x: np.ndarray) -> np.ndarray:
    coeffs = [float(c) for c in laguerre_q(m, 0)]
    acc = np.zeros_like(x)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def kernel_model(bundle: DiscreteBundle, m: int, x: np.ndarray, y: np.ndarray,
                 x0: float, y0: float) -> np.ndarray:
    """Flat-model cluster kernel at (x, y) against base point (x0, y0):
    (k/2pi) e^{-k rho^2/4} L_m(k rho^2/2) times the straight-segment
    transport phase of the gauge A = k x dy."""
    k = bundle.k
    rho2 = (x - x0) ** 2 + (y - y0) ** 2
    W = (x + x0) * (y - y0) / 2
    return (k / (2 * pi) * np.exp(-k * rho2 / 4) * _laguerre_values(m, k * rho2 / 2)
            * np.exp(1j * k * W))


def kernel_error(d: int, k: int, m: int, N: int = 64, seed: int = 0) -> dict:
    """Diagonal and off-diagonal comparison of the cluster kernel against the
    flat model, in units of the diagonal height k/2pi.

    Off-diagonal pairs keep |x - y| <= Lambda/4 with base points in the
    interior half-window, so no straight segment crosses the chart seam.
    """
    dec, _ = resolve_levels(d, k, N, m, seed=seed)
    proj = LandauProjector(dec, m)
    b = proj.bundle
    lam = b.geometry.side
    diag = np.sum(np.abs(proj.V) ** 2, axis=1) / b.h ** 2
    diag_err = float(np.max(np.abs(2 * pi * diag / k - 1)))

    step = max(1, b.N // 8)
    base_range = range(b.N // 4, (3 * b.N) // 4, step)
    off_err = 0.0
    for i0 in base_range:
        for j0 in base_range:
            p = b.site_index(i0, j0)
            col = proj.kernel_column(p)
            x0, y0 = i0 * b.h, j0 * b.h
            dist2 = (b.X - x0) ** 2 + (b.Y - y0) ** 2
            mask = dist2 <= (lam / 4) ** 2
            model = kernel_model(b, m, b.X[mask], b.Y[mask], x0, y0)
            err = np.max(np.abs(col[mask] - model)) * 2 * pi / k
            off_err = max(off_err, float(err))
    return {"k": k, "diag_err": diag_err, "offdiag_err": off_err}


def ladder_map(d: int, k: int, m: int, N: int = 64, seed: int = 0) -> dict:
    """Down-ladder from cluster m to cluster 0 and its isometry defects.

    The map is (m!)^(-1/2) k^(-m/2) P_0 D^m with D the unit-frame lowering
    derivative (cov_x + i cov_y)/sqrt(2).  Also reports the principal angles
    between cluster m and the raised image of cluster 0.
    """
    dec, _ = resolve_levels(d, k, N, m, seed=seed)
    p0 = LandauProjector(dec, 0)
    pm = LandauProjector(dec, m)
    b = p0.bundle
    D = (b.cov_x() + 1j * b.cov_y()) / sqrt(2)
    W = pm.V
    for _ in range(m):
        W = D @ W
    Vop = (p0.V.conj().T @ W) / (sqrt(factorial(m)) * k ** (m / 2))
    eye = np.eye(Vop.shape[1])
    vtv = float(np.linalg.norm(Vop.conj().T @ Vop - eye, 2))
    vvt = float(np.linalg.norm(Vop @ Vop.conj().T - np.eye(Vop.shape[0]), 2))
    R = (b.cov_x() - 1j * b.cov_y()) / sqrt(2)
    U = p0.V
    for _ in range(m):
        U = R @ U
    angles = subspace_angles(U, pm.V)
    return {"k": k, "vtv_defect": vtv, "vvt_defect": vvt,
            "max_angle": float(np.max(angles)) if len(angles) else 0.0,
            "dim0": p0.dim, "dimm": pm.dim}


def _bump(r: np.ndarray, inner: float, outer: float) -> np.ndarray:
    """Smooth plateau: 1 up to inner, 0 beyond outer."""
    def gl(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    t = (outer - r) / (outer - inner)
    num = gl(t)
    return num / (num + gl(1.0 - t))


def peaked_section(bundle: DiscreteBundle, coeffs, center=None) -> np.ndarray:
    """Sample a coherent peak modulated by the polynomial sum_j c_j w^j.

    Centered at a grid point; the profile is (k/2pi)^(1/2) times the model
    transport factor e^{-k rho^2/4 + i k W}, the polynomial evaluated at
    w = sqrt(k) * (xi_x + i xi_y)/sqrt(2), and a plateau cutoff supported
    in radius Lambda/4 and identically 1 inside Lambda/8.  The w^j
    modulations are the ones living in the lowest cluster for this gauge
    orientation; they realize the degree-j antiholomorphic model vectors.
    """
    b = bundle
    lam = b.geometry.side
    if center is None:
        center = (b.N // 2, b.N // 2)
    x0, y0 = center[0] * b.h, center[1] * b.h
    xi_x = b.X - x0
    xi_y = b.Y - y0
    rho = np.hypot(xi_x, xi_y)
    w = sqrt(b.k) * (xi_x + 1j * xi_y) / sqrt(2)
    poly = np.zeros_like(w)
    for c in reversed(list(coeffs)):
        poly = poly * w + c
    W = (b.X + x0) * (b.Y - y0) / 2
    vals = (sqrt(b.k / (2 * pi)) * np.exp(-b.k * rho ** 2 / 4 + 1j * b.k * W)
            * poly * _bump(rho, lam / 8, lam / 4))
    return vals


def peaked_defect(d: int, k: int, coeffs, m: int, N: int = 64, seed: int = 0) -> dict:
    """Norm and cluster-projection defect of a peaked sample.

    For a pure degree-m modulation the peak should lie near cluster m: the
    report carries ||P_m phi - phi|| / ||phi|| and the continuum norm.
    """
    dec, _ = resolve_levels(d, k, N, m, seed=seed)
    proj = LandauProjector(dec, m)
    b = proj.bundle
    phi = peaked_section(b, coeffs)
    nrm = np.linalg.norm(phi) * b.h
    defect = np.linalg.norm(proj.apply(phi) - phi) / np.linalg.norm(phi)
    return {"k": k, "norm": float(nrm), "defect": float(defect)}


def peaked_gram(d: int, k: int, coeff_list, N: int = 64, seed: int = 0) -> dict:
    """Compare pairwise inner products of peaked samples with the model
    pairing of their modulating polynomials.

    coeff_list holds one coefficient sequence per section; the model value
    for a pair is sum_a conj(c_a) c'_a a! (degree-a vectors have squared
    norm a!, distinct degrees are orthogonal).  Reports the full numeric
    Gram matrix, the worst absolute deviation, and the relative projection
    defect of each section onto the lowest cluster.
    """
    dec, _ = resolve_levels(d, k, N, 0, seed=seed)
    proj = LandauProjector(dec, 0)
    b = proj.bundle
    phis = [peaked_section(b, c) for c in coeff_list]
    nsec = len(phis)
    gram = np.array([[b.h ** 2 * np.vdot(phis[i], phis[j])
                      for j in range(nsec)] for i in range(nsec)])
    model = np.zeros((nsec, nsec), dtype=complex)
    for i, ci in enumerate(coeff_list):
        for j, cj in enumerate(coeff_list):
            model[i, j] = sum(np.conj(a) * bb * factorial(deg)
                              for deg, (a, bb) in enumerate(zip(ci, cj)))
    defects = [float(np.linalg.norm(proj.apply(p) - p) / np.linalg.norm(p))
               for p in phis]
    return {"k": k, "gram": gram, "model": model,
            "max_dev": float(np.abs(gram - model).max()), "defects": defects}
