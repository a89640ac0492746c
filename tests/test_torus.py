import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eig_banded, eigvalsh_tridiagonal, subspace_angles
from scipy.stats import random_correlation

from landau_lab import torus
from landau_lab.bargmann import laguerre_q
from landau_lab.cli import build_parser
from landau_lab.errors import ConfigError
from landau_lab.torus import (
    DiscreteBundle,
    GuardError,
    LandauProjector,
    TorusGeometry,
    TrigPoly,
    asymptotic_defects,
    compute_spectrum,
    detect_clusters,
    hamiltonian_vf,
    kernel_error,
    ladder_map,
    peaked_gram,
    poisson_bracket,
    resolve_levels,
    toeplitz_fn,
)


def test_geometry_side_length():
    geo = TorusGeometry(d=1)
    assert abs(geo.side ** 2 - 2 * math.pi) < 1e-12
    assert abs(TorusGeometry(d=4).side - 2 * geo.side) < 1e-12


def test_bundle_guards():
    geo = TorusGeometry(d=1)
    with pytest.raises(ValueError):
        DiscreteBundle(geo, k=0, N=32)
    with pytest.raises(ValueError):
        DiscreteBundle(geo, k=4, N=4)
    with pytest.raises(GuardError):
        DiscreteBundle(geo, k=12, N=8)  # k*h^2 far above the 0.3 limit


def test_hermiticity_guard_catches_a_perturbed_entry(monkeypatch):
    # The hop (0, 1) of the assembled H moved by 1e-12 before the scaling by
    # 1/(2h^2): its mirror is off by 5e-13/h^2, five times the guard's bound.
    csr = sp.csr_matrix

    def perturbed(*args, **kwargs):
        H = csr(*args, **kwargs)
        H[0, 1] += 1e-12
        return H

    monkeypatch.setattr(torus.sp, "csr_matrix", perturbed)
    with pytest.raises(GuardError, match="lost hermiticity"):
        DiscreteBundle(TorusGeometry(d=1), 4, 16)


def test_plaquette_phases_constant():
    geo = TorusGeometry(d=2)
    b = DiscreteBundle(geo, k=3, N=24)
    phases = b.plaquette_phases()
    want = np.exp(-1j * 3 * b.h ** 2)
    assert np.max(np.abs(phases - want)) < 1e-13
    # total flux: the product of all plaquette phases winds k*d times
    total = 3 * b.N ** 2 * b.h ** 2 / (2 * math.pi)
    assert abs(total - round(total)) < 1e-9
    assert round(total) == 3 * 2


def test_laplacian_hermitian_covariant_antihermitian():
    b = DiscreteBundle(TorusGeometry(d=1), k=4, N=16)
    H = b.laplacian()
    assert abs(H - H.conj().T).max() < 1e-13
    # <u, D v> = -<D u, v> for the bundle's derivatives
    rng = np.random.default_rng(3)
    u, v = (rng.standard_normal((b.N ** 2, 2)) @ [1, 1j] for _ in range(2))
    for D in b.derivatives:
        assert abs(np.vdot(u, D @ v) + np.vdot(D @ u, v)) < 1e-13 * b.N ** 2 / b.h


def _shift_matrix(b, phases, axis):
    """The matrix sending psi(p) to phases(p) * psi(p + e_axis)."""
    n = b.N ** 2
    cols = np.roll(np.arange(n).reshape(b.N, b.N, order="F"), -1, axis=axis)
    return sp.csr_matrix((phases.ravel(order="F"), (np.arange(n), cols.ravel(order="F"))),
                         shape=(n, n))


@pytest.mark.parametrize("d,k,N", [(1, 3, 8), (2, 8, 72), (3, 1, 15)])
def test_laplacian_is_the_sum_of_its_shift_matrices(d, k, N):
    # The one-pass assemblies store the bits of (4 - S_x - S_x* - S_y - S_y*)/2h^2
    # and of (S - S*)/2h summed as sparse matrices, in the same canonical CSR
    # layout.
    b = DiscreteBundle(TorusGeometry(d=d), k=k, N=N)
    Sx, Sy = _shift_matrix(b, b._ux, 0), _shift_matrix(b, b._uy, 1)
    want = ((4 * sp.identity(N * N, dtype=complex, format="csr")
             - Sx - Sx.getH() - Sy - Sy.getH()) / (2 * b.h ** 2)).tocsr()
    H = b.laplacian()
    assert H.format == "csr" and H.has_canonical_format
    assert np.array_equal(H.indptr, want.indptr) and np.array_equal(H.indices, want.indices)
    assert np.array_equal(H.data.view(np.uint64), want.data.view(np.uint64))
    for D, S in zip(b.derivatives, (Sx, Sy)):
        want = ((S - S.getH()) / (2 * b.h)).tocsr()
        assert D.format == "csr" and D.has_canonical_format
        assert np.array_equal(D.indptr, want.indptr) and np.array_equal(D.indices, want.indices)
        assert np.array_equal(D.data.view(np.uint64), want.data.view(np.uint64))


def _explicit_derivatives(b):
    """cov_x and cov_y as dense matrices, entry by entry from the link
    phases: (D psi)(p) = (u(p) psi(p + e) - conj(u(p - e)) psi(p - e)) / 2h."""
    N = b.N
    Dx = np.zeros((N * N, N * N), dtype=complex)
    Dy = np.zeros((N * N, N * N), dtype=complex)
    for i in range(N):
        for j in range(N):
            p = b.site_index(i, j)
            for D, u, q in ((Dx, b._ux, b.site_index(i + 1, j)),
                            (Dy, b._uy, b.site_index(i, j + 1))):
                D[p, q] += u[i, j] / (2 * b.h)
                D[q, p] -= np.conj(u[i, j]) / (2 * b.h)
    return Dx, Dy


@pytest.mark.parametrize("N", [8, 12])
def test_bundle_derivatives_match_the_link_phases(N):
    b = DiscreteBundle(TorusGeometry(d=1), k=3, N=N)
    assert np.max(np.abs(b._ux[N - 1, :] - 1)) > 0.1  # the wrap column is twisted
    for D, want in zip(b.derivatives, _explicit_derivatives(b)):
        assert np.max(np.abs(D.toarray() - want)) < 1e-13


def _sites_pointwise(b, f):
    """f at every site, term by term from its coefficients."""
    w = 2 * math.pi / f.side
    return sum(c * np.exp(1j * w * (p * b.X + q * b.Y))
               for (p, q), c in f.coeffs.items()) + np.zeros(b.N ** 2)


def _site_values(b, f):
    """f at every site, in the site order p = i + N*j."""
    return f.evaluate(b.xs, b.xs).ravel(order="F")


def _grid_toeplitz_fn(proj, f):
    """toeplitz_fn on the grid frame: V* (f V), sums over the N^2 sites."""
    return proj.V.conj().T @ (_site_values(proj.bundle, f)[:, None] * proj.V)


def _grid_toeplitz_der(proj, fields):
    """toeplitz_der on the grid frame, through the bundle's sparse covariant
    derivatives: per field, derivative matvec, then per-site weight."""
    b, W = proj.bundle, proj.V
    for vf in reversed(fields):
        parts = [(D @ W) * _site_values(b, c)[:, None]
                 for c, D in zip(vf, b.derivatives) if c.coeffs]
        W = sum(parts[1:], parts[0]) if parts else np.zeros_like(W)
    return proj.V.conj().T @ W / b.k ** (len(fields) // 2)


def _grid_ladder(proj, W, m, sign):
    """(cov_x + sign i cov_y)/sqrt(2) applied m times to the grid columns
    of W, through the bundle's sparse covariant derivatives."""
    dx, dy = proj.bundle.derivatives
    for _ in range(m):
        W = (dx @ W + sign * 1j * (dy @ W)) / math.sqrt(2)
    return W


# One translation class; four, and rings 1 and 3 without a reflection;
# three, and rings 1 and 2 without one.
RING_GRIDS = [(1, 4, 32), (1, 16, 20), (1, 9, 24)]


def _relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("d,k,N", RING_GRIDS)
def test_ring_compressions_match_the_grid_forms(d, k, N):
    dec = resolve_levels(d, k, N, 2)
    side = dec.bundle.geometry.side
    f = TrigPoly.cos_x(side) + TrigPoly.sin_y(side).scale(0.3)
    g = TrigPoly.sin_y(side) * TrigPoly.cos_x(side) + TrigPoly.cos_y(side)
    # y-frequencies that cross the ring boundary more than once, both ways
    far = TrigPoly(side, {(2, 5): 0.4, (-1, -3): 0.25j, (0, 7): 0.1, (1, -9): 0.2})
    for m in range(3):
        proj = dec.projector(m)
        frame = proj.rings
        # each ring vector is its grid column's y-mode amplitudes
        for q in range(len(frame.V)):
            modes = (q - k * d * np.arange(N // len(frame.V))) % N
            for a, column in enumerate(frame.at[q]):
                phi = np.zeros((N, N), dtype=complex)
                phi[modes] = frame.V[q, :, a].reshape(len(modes), N)
                psi = np.fft.ifft(phi, axis=0, norm="ortho").ravel()
                assert np.max(np.abs(psi - proj.V[:, column])) < 1e-14
        for s in (f, g, f * g, poisson_bracket(f, g), torus.b1_correction(f, g, m), far):
            assert _relative(toeplitz_fn(proj, s), _grid_toeplitz_fn(proj, s)) < 1e-13
        for fields in ([hamiltonian_vf(f), hamiltonian_vf(g)],
                       [hamiltonian_vf(far), hamiltonian_vf(f * g)],
                       [hamiltonian_vf(g), hamiltonian_vf(far), hamiltonian_vf(f),
                        hamiltonian_vf(g)]):
            got = torus.toeplitz_der(proj, fields)
            assert _relative(got, _grid_toeplitz_der(proj, fields)) < 1e-13


@pytest.mark.parametrize("d,k,N", RING_GRIDS)
def test_ring_ladder_matches_the_grid_form(d, k, N):
    # The map has norm near 1, and its defects and the angle are departures
    # from that scale: each agrees with the grid form to 1e-13 of it.
    dec = resolve_levels(d, k, N, 2)
    for m in (1, 2):
        p0, pm = dec.projector(0), dec.projector(m)
        lowered = _grid_ladder(p0, pm.V, m, 1)
        Vop = p0.V.conj().T @ lowered / (math.sqrt(math.factorial(m)) * k ** (m / 2))
        eye = np.eye(len(Vop))
        want = {"vtv_defect": np.linalg.norm(Vop.conj().T @ Vop - eye, 2),
                "vvt_defect": np.linalg.norm(Vop @ Vop.conj().T - eye, 2),
                "max_angle": torus._max_principal_angle(_grid_ladder(p0, p0.V, m, -1), pm.V)}
        got = ladder_map(dec, m)
        for key, value in want.items():
            assert abs(got[key] - value) < 1e-13, (m, key)
        assert np.linalg.norm(Vop, 2) < 1.5


def test_spectrum_keeps_one_vector_array_per_class():
    # (1, 16, 20): four rings in four classes; (1, 4, 32): four rings in one
    # class, whose other rings get its vectors rolled when a frame is built
    for d, k, N, classes in ((1, 16, 20, 4), (1, 4, 32, 1)):
        dec = resolve_levels(d, k, N, 1)
        assert sorted(dec.ring_vectors.vectors) == list(range(classes))
        assert len(dec.ring_vectors.rings) == 4
        assert torus._spectrum_bytes(dec) == (dec.vectors.nbytes + dec.eigenvalues.nbytes
                                              + dec.ring_vectors.nbytes)
        columns = np.concatenate([cols for _, _, cols in dec.ring_vectors.rings])
        assert sorted(columns) == list(range(len(dec.eigenvalues)))


def test_ring_frame_rejects_a_ring_with_the_wrong_share_of_a_cluster():
    # ring 0 given ring 1's columns as well: it then holds two of level 1's
    # four columns, where each of the four rings holds k*d/g = 1
    dec = compute_spectrum(1, 4, 32, count=18)
    (r, t, cols), other = dec.ring_vectors.rings[0], dec.ring_vectors.rings[1][2]
    doubled = torus.RingVectors(dec.ring_vectors.vectors,
                                [(r, t, np.r_[cols, other])] + dec.ring_vectors.rings[1:])
    bad = dataclasses.replace(dec, ring_vectors=doubled)
    with pytest.raises(GuardError, match="ring 0 holds 2 of the cluster's 4 columns"):
        bad.projector(1).rings


def test_toeplitz_der_matches_the_sparse_operator_chain():
    dec = compute_spectrum(1, 4, 32, count=18)
    proj = LandauProjector(dec, 1)
    b = proj.bundle
    side = b.geometry.side
    f, g = TrigPoly.cos_x(side), TrigPoly.sin_y(side)
    dx, dy = b.derivatives
    # hamiltonian_vf(cos x) has no x-component, hamiltonian_vf(sin y) no
    # y-component; the last pair has both
    for fields in ([hamiltonian_vf(f), hamiltonian_vf(g)],
                   [hamiltonian_vf(f + g), hamiltonian_vf(f * g)]):
        W = proj.V
        for fx, fy in reversed(fields):
            op = sp.diags(_sites_pointwise(b, fx)) @ dx + sp.diags(_sites_pointwise(b, fy)) @ dy
            W = op @ W
        want = proj.V.conj().T @ W / b.k
        got = torus.toeplitz_der(proj, fields)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    assert b.derivatives is b.derivatives  # built once per bundle


def test_spectrum_residuals_and_cache(monkeypatch):
    monkeypatch.setattr(torus, "_SPECTRUM_CACHE", {})
    dec = compute_spectrum(1, 4, 32, count=18)
    assert dec.residual_max < 1e-8
    assert compute_spectrum(1, 4, 32, count=18) is dec  # served from the cache
    # a smaller request is solved for its own count, not cut from dec
    fewer = compute_spectrum(1, 4, 32, count=10)
    assert fewer is not dec and len(fewer.eigenvalues) == 10


@pytest.mark.parametrize("d,k,N", [(1, 2, 16), (2, 1, 16), (1, 3, 24),
                                   (1, 8, 20), (1, 16, 20), (3, 1, 15)])
def test_ring_solver_matches_dense_oracle(d, k, N):
    # (1, 8, 20): gcd(k*d, N^2) = 8 does not divide N, so the rings fall
    # into two classes.  (1, 16, 20): four classes, and rings 1 and 3 have
    # no reflection, so they are counted on their band.  (3, 1, 15): rings
    # of odd length 75.
    dec = resolve_levels(d, k, N, 1)
    clusters = detect_clusters(dec, 2)
    H = dec.bundle.laplacian().toarray()
    vals, vecs = np.linalg.eigh(H)
    count = len(dec.eigenvalues)
    assert np.max(np.abs(dec.eigenvalues - vals[:count]) / vals[:count]) < 1e-10
    for c in clusters:
        V = dec.vectors[:, c["indices"]]
        U = vecs[:, c["indices"]]
        P, Q = V @ V.conj().T, U @ U.conj().T
        assert np.linalg.norm(P - Q, 2) < 1e-9


def _guard_cases(*one_class):
    """The grids of a certificate test, as (d, k, N, count, call): the
    one-class grids given and the two-class grid (2, 8, 72) with every eigsh
    call mutated, and (1, 16, 20) with only the call of class 1 or 3, whose
    rings have no reflection and are counted on their band."""
    return ([pytest.param(*c, None, id="-".join(map(str, c)))
             for c in one_class + ((2, 8, 72, 52),)]
            + [pytest.param(1, 16, 20, 52, r, id="1-16-20-52-class%d" % r) for r in (1, 3)])


def _lanczos_stand_in(monkeypatch, extra, pick, call=None):
    """Replace eigsh by one that asks for `extra` more pairs and returns the
    columns pick(order, k) of them, order ascending by value: at every call,
    or only at the call-th (from 0), which solves class `call` first."""
    eigsh, calls = torus.spla.eigsh, []

    def stand_in(A, k, **kwargs):
        calls.append(k)
        if call is not None and len(calls) != call + 1:
            return eigsh(A, k=k, **kwargs)
        vals, vecs = eigsh(A, k=k + extra, **kwargs)
        keep = pick(np.argsort(vals), k)
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(torus.spla, "eigsh", stand_in)


@pytest.mark.parametrize("d,k,N,count,call", _guard_cases((1, 4, 32, 18)))
def test_completeness_guard_catches_a_skipped_eigenvalue(monkeypatch, d, k, N, count, call):
    # The lowest pair dropped and the next one up in the last place.
    _lanczos_stand_in(monkeypatch, 1, lambda order, n: order[1:], call)
    bundle = DiscreteBundle(TorusGeometry(d=d), k, N)
    with pytest.raises(GuardError, match="missed an eigenvalue"):
        torus.lowest_spectrum(bundle, count)


@pytest.mark.parametrize("d,k,N", [(1, 4, 32), (1, 6, 64), (2, 8, 72)])
@pytest.mark.parametrize("mutation", ["drop the odd sector", "drop sqrt(2)"])
def test_sector_mutation_trips_the_completeness_guard(monkeypatch, mutation, d, k, N):
    sectors = torus._reflection_sectors

    def mutated(diag, hop, centre):
        if mutation == "drop the odd sector":
            return sectors(diag, hop, centre)[:1]
        return [(a, np.full_like(e, hop)) for a, e in sectors(diag, hop, centre)]

    monkeypatch.setattr(torus, "_reflection_sectors", mutated)
    bundle = DiscreteBundle(TorusGeometry(d=d), k, N)
    with pytest.raises(GuardError, match="missed an eigenvalue"):
        torus.lowest_spectrum(bundle, 3 * k * d + 4)


@pytest.mark.parametrize("d,k,N,count,call", _guard_cases((1, 4, 32, 18), (1, 6, 64, 22)))
def test_certificate_catches_a_duplicated_pair(monkeypatch, d, k, N, count, call):
    # The lowest pair twice in place of the second: every pair is an
    # eigenpair.  At (1, 6, 64) both lie in level 0's cluster of three
    # near-equal values, so the counts match too, and only the
    # orthonormality of the vectors shows that one is missing; at
    # (1, 4, 32) the count would see it, but the gram check comes first.
    _lanczos_stand_in(monkeypatch, 5, lambda order, n: np.r_[order[0], order[0], order[2:n]],
                      call)
    bundle = DiscreteBundle(TorusGeometry(d=d), k, N)
    with pytest.raises(GuardError, match="missed an eigenvalue.*gram defect"):
        torus.lowest_spectrum(bundle, count)


@pytest.mark.parametrize("d,k,N,count,call", _guard_cases((1, 4, 32, 18), (1, 10, 64, 34)))
def test_certificate_catches_a_value_replaced_from_a_higher_level(monkeypatch, d, k, N, count,
                                                                   call):
    # The n-th value dropped and the one k*d/g places up, a ring's share of
    # a level, in its place: the vectors stay orthonormal, so only the count
    # sees the gap.  A swap within the top cluster, whose values lie within
    # 2 tol of each other, would be accepted by design.
    per_level = k * d // math.gcd(N, k * d)
    _lanczos_stand_in(monkeypatch, 5,
                      lambda order, n: np.r_[order[:n - 1], order[n - 1 + per_level]], call)
    bundle = DiscreteBundle(TorusGeometry(d=d), k, N)
    with pytest.raises(GuardError, match="missed an eigenvalue.*its Lanczos values"):
        torus.lowest_spectrum(bundle, count)


@pytest.mark.parametrize("d,k,N", [(1, 4, 64), (1, 6, 64), (1, 8, 64), (1, 10, 64),
                                   (4, 4, 64)])
def test_inertia_count_matches_dense_eigenvalues(d, k, N):
    # The one-class grids of the lattice-sweep benchmark: ring 0's sectors
    # counted tol inside either end of every gap wider than 2 tol among its
    # 50 lowest values.
    bundle = DiscreteBundle(TorusGeometry(d=d), k, N)
    tol = torus.RESIDUAL_TOL * abs(bundle.laplacian()).sum(axis=0).max()
    hop = -1.0 / (2 * bundle.h ** 2)
    chains = torus._reflection_sectors(next(torus._harper_rings(bundle))[1], hop, 0)
    vals = np.sort(np.concatenate([
        np.linalg.eigvalsh(np.diag(a) + np.diag(e, 1) + np.diag(e, -1)) for a, e in chains]))
    cuts = [j for j in range(1, 50) if vals[j] - vals[j - 1] > 2 * tol]
    assert len(cuts) >= 9  # at least one per level
    for j in cuts:
        for cut in (vals[j - 1] + tol, vals[j] - tol):
            assert torus._count_below(chains, cut) == j, (d, k, N, j)


def test_inertia_count_at_a_zero_pivot():
    # A cut on d[0] makes the first pivot zero; the count is still the
    # dense one, at tau and on either side of it.
    rng = np.random.default_rng(5)
    d, e = rng.uniform(1, 5, 50), rng.uniform(-1, -0.5, 49)
    d[0] = 2.0
    dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    assert np.min(np.abs(dense - 2.0)) > 1e-3
    for tau in (2.0, np.nextafter(2.0, 0), np.nextafter(2.0, 3)):
        assert torus._count_below([(d, e)], tau) == np.sum(dense <= tau)
    # [[t, 10], [10, t]]: eigenvalues t -/+ 10, zero first pivot at t.
    assert torus._count_below([(np.array([0.5, 0.5]), np.array([10.0]))], 0.5) == 1


@pytest.mark.parametrize("q0", [1, 3])
def test_band_count_matches_dense_eigenvalues(q0):
    # Rings 1 and 3 of (1, 16, 20) have no reflection.  Their count, from
    # the 15 lowest band values, is the dense count tol inside either end of
    # every gap wider than 2 tol among the 30 lowest values, up to the 15th
    # value, and stops at 15 above it.
    bundle = DiscreteBundle(TorusGeometry(d=1), 16, 20)
    assert torus._congruence(16, 2 * q0 * 20, 400) is None
    tol = torus.RESIDUAL_TOL * abs(bundle.laplacian()).sum(axis=0).max()
    hop = -1.0 / (2 * bundle.h ** 2)
    diag = list(torus._harper_rings(bundle))[q0][1]
    dense = np.linalg.eigvalsh(torus._ring_matrix(diag, hop).toarray())
    below = torus._ring_count(diag, hop, None, 15)
    cuts = [j for j in range(1, 30) if dense[j] - dense[j - 1] > 2 * tol]
    assert len(cuts) >= 7  # at least one per level
    for j in cuts:
        for cut in (dense[j - 1] + tol, dense[j] - tol):
            assert below(cut) == min(15, j), (q0, j)


def _bisection_ranked_shares(bundle, count):
    """Shares of a one-class grid ranked as by a merge of g bisected copies
    of ring 0's lowest ceil(count/g) values, ties to the lower ring."""
    rings = list(torus._harper_rings(bundle))
    g, hop = len(rings), -1.0 / (2 * bundle.h ** 2)
    n = -(-count // g)
    low = np.sort(np.concatenate([
        eigvalsh_tridiagonal(a, e, select="i", select_range=(0, min(n, len(a)) - 1))
        for a, e in torus._reflection_sectors(rings[0][1], hop, 0)]))[:n]
    lowest = np.argsort(np.tile(low, g), kind="stable")[:count]
    return np.bincount(np.repeat(np.arange(g), n)[lowest], minlength=g).tolist()


@pytest.mark.parametrize("d,k,N", [(1, 4, 16), (1, 2, 16), (1, 6, 24), (2, 3, 24),
                                   (3, 1, 15), (1, 5, 20), (4, 2, 32)])
def test_one_class_shares_equal_the_bisection_ranked_ones(d, k, N):
    bundle = DiscreteBundle(TorusGeometry(d=d), k, N)
    kd = k * d
    assert math.gcd(kd, N * N) == math.gcd(N, kd)  # one translation class
    for count in sorted({1, kd - 1, kd, kd + 1, 2 * kd + 3, 3 * kd + 4, 5 * kd + 1} - {0}):
        dec = torus.lowest_spectrum(bundle, count)
        assert dec.solver["classes"] == 1
        assert dec.solver["shares"] == _bisection_ranked_shares(bundle, count), count


@st.composite
def fine_grids(draw):
    N = draw(st.integers(8, 24))
    d = draw(st.integers(1, 3))
    # k*h^2 = 2*pi*d*k/N^2 <= 0.3
    k = draw(st.integers(1, max(1, int(0.3 * N * N / (2 * math.pi * d)))))
    return d, k, N


def test_reflection_sectors_match_the_ring_band():
    seen = set()

    @settings(max_examples=30, deadline=None)
    @given(fine_grids())
    @example((1, 8, 20))  # bond-centred ring 1
    @example((3, 1, 15))  # odd L = 75
    def check(grid):
        d, k, N = grid
        bundle = DiscreteBundle(TorusGeometry(d=d), k, N)
        hop = -1.0 / (2 * bundle.h ** 2)
        for q0, (_, diag) in enumerate(torus._harper_rings(bundle)):
            centre = torus._congruence(k * d, 2 * q0 * N, N * N)
            if centre is None:
                continue
            L = len(diag)
            seen.add("odd L" if L % 2 else
                     "bond-centred" if centre % 2 else "site-centred")
            vals = np.sort(np.concatenate([
                eigvalsh_tridiagonal(a, e, select="i", select_range=(0, len(a) - 1))
                for a, e in torus._reflection_sectors(diag, hop, centre)]))
            ref = eig_banded(torus._ring_band(diag, hop), lower=True, eigvals_only=True)
            assert np.max(np.abs(vals - ref) / ref) < 1e-12, (grid, q0)

    check()
    assert seen == {"odd L", "site-centred", "bond-centred"}


def test_ring_share_beyond_eigsh_is_a_config_error():
    # k*d = 4 splits the 16 x 16 grid into 4 rings of 64 sites with one
    # spectrum: 250 eigenvalues give each ring at most 63, 253 give one 64
    bundle = DiscreteBundle(TorusGeometry(d=1), 4, 16)
    assert len(torus.lowest_spectrum(bundle, 250).eigenvalues) == 250
    with pytest.raises(ConfigError, match="ring of 64 sites.*--levels, --m or --ladder m=M.*--grid"):
        torus.lowest_spectrum(bundle, 253)
    with pytest.raises(ConfigError, match="grid of 256 sites"):
        torus.lowest_spectrum(bundle, 257)


@pytest.mark.parametrize("d,k,N,classes", [(1, 4, 64, 1), (4, 4, 64, 1),
                                           (2, 8, 72, 2), (1, 16, 20, 4)])
def test_translation_classes(d, k, N, classes):
    # c = gcd(k*d, N^2)/g: 4/4, 16/16, 16/8 and 16/4.
    bundle = DiscreteBundle(TorusGeometry(d=d), k, N)
    rings = [diag for _, diag in torus._harper_rings(bundle)]
    found = [torus._translation_class(N, k * d, q0) for q0 in range(len(rings))]
    assert sorted({r for r, _ in found}) == list(range(classes))
    for diag, (r, t) in zip(rings, found):
        assert np.max(np.abs(diag - np.roll(rings[r], -t))) < 1e-12 * diag.max()


def test_translation_path_solves_ring_zero_only(monkeypatch):
    eigsh, calls = torus.spla.eigsh, []

    def counting(A, k, **kwargs):
        calls.append(k)
        return eigsh(A, k=k, **kwargs)

    monkeypatch.setattr(torus.spla, "eigsh", counting)
    bundle = DiscreteBundle(TorusGeometry(d=1), 4, 32)
    dec = torus.lowest_spectrum(bundle, 18)
    assert calls == [5]
    # The residual bound is RESIDUAL_TOL * 4/h^2, with h^2 = 2 pi d / N^2.
    assert dec.solver == {"rings": 4, "ring_sites": 256, "classes": 1,
                          "sectors": 1, "shares": [5, 5, 4, 4],
                          "residual_bound": pytest.approx(1e-9 * 2048 / math.pi, rel=1e-15)}


def test_wrong_magnetic_shift_trips_the_residual_guard(monkeypatch):
    roll = torus._translation_class

    def off_by_one(N, kd, q0):
        r, t = roll(N, kd, q0)
        return r, t + 1

    monkeypatch.setattr(torus, "_translation_class", off_by_one)
    bundle = DiscreteBundle(TorusGeometry(d=1), 4, 32)
    with pytest.raises(GuardError, match="eigen-residual"):
        torus.lowest_spectrum(bundle, 18)


@pytest.mark.parametrize("d,k,N,count", [(1, 4, 32, 18), (4, 4, 64, 52)])
def test_wrong_shift_on_the_last_ring_trips_the_residual_guard(monkeypatch, d, k, N, count):
    # Only ring q0 = g - 1, which holds 4 and 3 of the values here, gets its
    # class's vectors rolled one site too far: every ring's columns must be
    # checked, not only the first ones written.
    roll, g = torus._translation_class, math.gcd(N, k * d)

    def last_off_by_one(N, kd, q0):
        r, t = roll(N, kd, q0)
        return r, t + (q0 == g - 1)

    monkeypatch.setattr(torus, "_translation_class", last_off_by_one)
    bundle = DiscreteBundle(TorusGeometry(d=d), k, N)
    with pytest.raises(GuardError, match="eigen-residual"):
        torus.lowest_spectrum(bundle, count)


@pytest.mark.parametrize("d,k,N,count", [(1, 3, 8, 13), (1, 4, 32, 18), (2, 8, 72, 52),
                                         (1, 16, 20, 52), (3, 1, 15, 13)])
def test_coset_map_matches_the_full_length_inverse_fft(monkeypatch, d, k, N, count):
    # g = 1 (M = N); one class; two classes; four classes, rings 1 and 3
    # without a reflection; odd ring length L = 75.  The reference is each
    # ring vector's (y-mode, x-site) amplitudes zero-padded to all N y-modes
    # and taken back to the grid by one length-N inverse FFT in y.
    to_grid, calls = torus._to_grid, []

    def spy(found, H, N):
        calls.append(found)
        return to_grid(found, H, N)

    monkeypatch.setattr(torus, "_to_grid", spy)
    dec = torus.lowest_spectrum(DiscreteBundle(TorusGeometry(d=d), k, N), count)
    (found,) = calls
    expected = []
    for modes, vals, vecs in found:
        for lam, vec in zip(vals, vecs.T):
            phi = np.zeros((N, N), dtype=complex)
            phi[modes] = vec.reshape(len(modes), N)
            expected.append((lam, np.fft.ifft(phi, axis=0, norm="ortho").ravel()))
    order = np.argsort([lam for lam, _ in expected], kind="stable")
    V = dec.vectors
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    assert V.shape == (N * N, count) and V.flags.f_contiguous and not V.flags.writeable
    for n, i in enumerate(order):
        lam, psi = expected[i]
        assert dec.eigenvalues[n] == lam
        assert np.max(np.abs(V[:, n] - psi)) <= 1e-14 * np.max(np.abs(psi)), n


@pytest.mark.parametrize("d,k,N", [(1, 4, 64), (2, 8, 72), (4, 12, 192), (1, 6, 256),
                                   (1, 16, 20)])
def test_residual_bound_is_the_row_sum_bound_of_the_stencil(d, k, N):
    # The largest absolute row sum of H, taken from its entries, is the
    # closed form 4/h^2 of the five-point stencil to rounding.
    bundle = DiscreteBundle(TorusGeometry(d=d), k, N)
    row_sums = float(abs(bundle.laplacian()).sum(axis=0).max())
    closed = 4 / bundle.h ** 2
    assert abs(row_sums - closed) <= 4 * np.spacing(closed)
    bound = torus.lowest_spectrum(bundle, 1).solver["residual_bound"]
    assert abs(bound - torus.RESIDUAL_TOL * row_sums) <= 4 * np.spacing(bound)


def test_solve_peak_memory_stays_near_the_vectors_it_returns():
    # The grid vectors are written once into the buffer that is returned,
    # so a solve's traced peak stays near its bytes (1.18 times here); one
    # more full-size array, such as a zero-padded transform, passes 2.
    bundle = DiscreteBundle(TorusGeometry(d=2), 8, 72)
    tracemalloc.start()
    try:
        dec = torus.lowest_spectrum(bundle, 52)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * dec.vectors.nbytes


def test_lanczos_request_doubles_until_it_passes_the_cut(monkeypatch):
    # gcd(8, 400) = 8 does not divide N = 20, so the 4 rings fall into
    # c = 8/4 = 2 translation classes, and rings 0 and 1 are solved.  With
    # no margin each is asked for its even share of the three lowest levels,
    # 6 values, and fills it, so both requests double to 12, whose last
    # value lies above the cut.
    eigsh, calls = torus.spla.eigsh, []

    def counting(A, k, **kwargs):
        calls.append(k)
        return eigsh(A, k=k, **kwargs)

    monkeypatch.setattr(torus.spla, "eigsh", counting)
    monkeypatch.setattr(torus, "_SHARE_MARGIN", 0)
    bundle = DiscreteBundle(TorusGeometry(d=1), 8, 20)
    dec = torus.lowest_spectrum(bundle, 24)
    assert calls == [6, 6, 12, 12]
    assert dec.solver == {"rings": 4, "ring_sites": 100, "classes": 2,
                          "sectors": 2, "shares": [6, 6, 6, 6],
                          "residual_bound": pytest.approx(1e-9 * 800 / math.pi, rel=1e-15)}
    vals, vecs = np.linalg.eigh(bundle.laplacian().toarray())
    assert np.max(np.abs(dec.eigenvalues - vals[:24]) / vals[:24]) < 1e-10
    P, Q = dec.vectors @ dec.vectors.conj().T, vecs[:, :24] @ vecs[:, :24].conj().T
    assert np.linalg.norm(P - Q, 2) < 1e-9


def test_spectrum_cache_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(torus, "_SPECTRUM_CACHE", {})
    # 8 grid columns of 16^2 sites each, and the ring vectors of one ring
    # of 256 sites at k = 5, larger than k = 4's and k = 6's
    small = compute_spectrum(1, 4, 16, count=8)
    middle = compute_spectrum(1, 5, 16, count=8)
    cap = torus._spectrum_bytes(small) + torus._spectrum_bytes(middle)
    monkeypatch.setattr(torus, "SPECTRUM_CACHE_BYTES", cap)
    assert compute_spectrum(1, 4, 16, count=8) is small  # now the most recent
    last = compute_spectrum(1, 6, 16, count=8)  # evicts k = 5
    assert torus._spectrum_bytes(last) <= torus._spectrum_bytes(middle)
    assert list(torus._SPECTRUM_CACHE) == [(1, 4, 16, 8), (1, 6, 16, 8)]
    assert sum(map(torus._spectrum_bytes, torus._SPECTRUM_CACHE.values())) <= cap
    monkeypatch.setattr(torus, "SPECTRUM_CACHE_BYTES", 1)
    big = compute_spectrum(1, 4, 16, count=9)  # too large to keep
    assert len(big.eigenvalues) == 9 and torus._SPECTRUM_CACHE == {}


def test_cluster_counts_and_centers():
    dec = compute_spectrum(1, 4, 32, count=18)
    clusters = detect_clusters(dec, levels=3)
    assert [c["m"] for c in clusters] == [0, 1, 2]
    for c in clusters:
        assert c["count"] == 4  # k*d states per level
        assert abs(c["mean_scaled"] - c["center"]) < 0.05


def test_cluster_guard_when_levels_unresolved():
    dec = compute_spectrum(1, 4, 32, count=18)
    with pytest.raises(GuardError, match="m=4 is not fully resolved"):
        detect_clusters(dec, levels=12)


def test_cluster_with_its_full_count_but_an_open_window_is_unresolved():
    # 16 values hold levels 0..3 with k*d = 4 each, but the largest is level
    # 3's own (3.46 in lambda/k), so its window [3, 4) does not close below it
    dec = compute_spectrum(1, 4, 32, count=16)
    assert [c["count"] for c in detect_clusters(dec, 3)] == [4, 4, 4]
    with pytest.raises(GuardError, match="m=3 is not fully resolved"):
        detect_clusters(dec, 4)


def test_projector_structure():
    dec = compute_spectrum(1, 4, 32, count=18)
    proj = LandauProjector(dec, 1)
    assert proj.dim == 4
    assert proj.gram_defect < 1e-10
    # P = V V* has P^2 - P = V (G - I) V* with G = V* V.  On the thin SVD
    # V = U S W*, that is U S^2 (S^2 - I) U*, so the 2-norm of P^2 - P is
    # exactly max |g (g - 1)| over the eigenvalues g of the small G.
    g = np.linalg.eigvalsh(proj.V.conj().T @ proj.V)
    assert np.max(np.abs(g * (g - 1))) < 1e-10
    # kernel diagonal is real and positive
    p = proj.bundle.site_index(16, 16)
    col = proj.V @ proj.V[p].conj() / proj.bundle.h ** 2
    assert abs(col[p].imag) < 1e-12 * abs(col[p])
    assert col[p].real > 0


def test_projector_rejects_a_miscounted_cluster():
    dec = compute_spectrum(1, 4, 32, count=18)
    dec.projector(1)
    keep = np.arange(len(dec.eigenvalues)) != 5  # one of level 1's k*d = 4
    short = dataclasses.replace(dec, eigenvalues=dec.eigenvalues[keep],
                                vectors=dec.vectors[:, keep])
    short.projector(0)
    # the replaced spectrum keeps none of dec's projectors
    with pytest.raises(GuardError, match="m=1 holds 3 eigenvalues"):
        short.projector(1)


def test_projector_rejects_a_span_that_leaks_out_of_its_window():
    # Level 1's first column replaced by level 2's first: the frame stays
    # orthonormal, but one Ritz value of H on it lies in level 2's window.
    dec = compute_spectrum(1, 4, 32, count=18)
    first1, first2 = (c["indices"][0] for c in detect_clusters(dec, 3)[1:])
    V = dec.vectors.copy()
    V[:, first1] = V[:, first2]
    leaky = dataclasses.replace(dec, vectors=V)
    with pytest.raises(GuardError, match="leaks outside its window"):
        leaky.projector(1)


def test_projector_rejects_a_frame_that_is_not_orthonormal():
    # every vector scaled by 1.01: the spans and the Ritz values are those of
    # the true spectrum, but the frame's gram defect is 1.01^2 - 1
    dec = compute_spectrum(1, 4, 32, count=18)
    stretched = dataclasses.replace(dec, vectors=dec.vectors * 1.01)
    with pytest.raises(GuardError, match="not orthonormal: 0.0201"):
        stretched.projector(1)


def test_projector_is_a_read_only_view_kept_by_its_spectrum():
    dec = compute_spectrum(1, 4, 32, count=18)
    proj = dec.projector(1)
    assert proj is dec.projector(1)
    assert np.shares_memory(proj.V, dec.vectors)
    assert proj.V.flags.f_contiguous
    with pytest.raises(ValueError):
        proj.V[0, 0] = 0


def test_trig_poly_evaluate_and_derivatives():
    side = TorusGeometry(d=1).side
    om = 2 * math.pi / side
    f = TrigPoly.cos_x(side)
    xs = np.linspace(0, side, 9, endpoint=False)
    ys = np.linspace(0, side, 9, endpoint=False)
    # values on the grid xs x ys: out[i, j] = f(xs[i], ys[j])
    assert f.evaluate(xs, ys[:5]).shape == (9, 5)
    assert np.max(np.abs(f.evaluate(xs, ys) - np.cos(om * xs)[:, None])) < 1e-12
    dfx = f.d_dx()
    assert np.max(np.abs(dfx.evaluate(xs, ys) + om * np.sin(om * xs)[:, None])) < 1e-12
    g = TrigPoly.sin_y(side)
    prod = f * g
    want = np.outer(np.cos(om * xs), np.sin(om * ys))
    assert np.max(np.abs(prod.evaluate(xs, ys) - want)) < 1e-12
    # a bundle's site values follow its site order p = i + N*j
    b = DiscreteBundle(TorusGeometry(d=1), k=2, N=12)
    h = prod + f.scale(0.5j)
    assert np.max(np.abs(_site_values(b, h) - _sites_pointwise(b, h))) < 1e-12


def test_poisson_bracket_formula():
    side = TorusGeometry(d=1).side
    om = 2 * math.pi / side
    f = TrigPoly.cos_x(side)
    g = TrigPoly.sin_y(side)
    br = poisson_bracket(f, g)
    xs = np.linspace(0, side, 7, endpoint=False)
    ys = np.linspace(0.1, side, 7, endpoint=False)
    want = -(om ** 2) * np.outer(np.sin(om * xs), np.cos(om * ys))
    assert np.max(np.abs(br.evaluate(xs, ys) - want)) < 1e-12
    Xf = hamiltonian_vf(f)
    assert np.max(np.abs(Xf[0].evaluate(xs, ys))) < 1e-12  # -df/dy = 0


def test_toeplitz_unit_and_adjoint():
    dec = compute_spectrum(1, 4, 32, count=18)
    proj = LandauProjector(dec, 0)
    side = proj.bundle.geometry.side
    f = TrigPoly.cos_x(side) + TrigPoly.sin_y(side).scale(0.5j)
    one = toeplitz_fn(proj, TrigPoly(side, {(0, 0): 1}))
    assert np.linalg.norm(one - np.eye(proj.dim), 2) < 1e-10
    # the conjugate symbol compresses to the adjoint
    fbar = TrigPoly(side, {(-p, -q): np.conj(c) for (p, q), c in f.coeffs.items()})
    T = toeplitz_fn(proj, f)
    assert np.linalg.norm(T.conj().T - toeplitz_fn(proj, fbar), 2) < 1e-10
    # real symbols compress to Hermitian matrices
    g = TrigPoly.cos_x(side) + TrigPoly.sin_y(side).scale(0.5)
    Tg = toeplitz_fn(proj, g)
    assert np.linalg.norm(Tg - Tg.conj().T, 2) < 1e-10


def test_kernel_error_decays():
    e4 = kernel_error(resolve_levels(1, 4, 32, 0), 1)[0]
    e8 = kernel_error(resolve_levels(1, 8, 32, 0), 1)[0]
    assert e8["diag_err"] < e4["diag_err"]
    assert e8["offdiag_err"] < e4["offdiag_err"]
    assert e4["diag_err"] < 0.05


def _per_base_pairs(b):
    """The (site, base) pairs of the kernel comparison, base by base with
    the float mask |x - x0|^2 <= (Lambda/4)^2."""
    pairs = []
    base_range = range(b.N // 4, (3 * b.N) // 4, max(1, b.N // 8))
    for j0 in base_range:
        for i0 in base_range:
            dist2 = (b.X - i0 * b.h) ** 2 + (b.Y - j0 * b.h) ** 2
            sites = np.nonzero(dist2 <= (b.geometry.side / 4) ** 2)[0]
            pairs += [(int(s), b.site_index(i0, j0)) for s in sites]
    return sorted(pairs)


@pytest.mark.parametrize("d,k,N", [(1, 4, 32), (1, 4, 30), (2, 6, 48), (1, 10, 64)])
def test_kernel_pairs_match_the_per_base_mask(d, k, N):
    # When N % 4 == 0 grid points lie on the Lambda/4 circle itself, where
    # only the float comparison decides.
    b = DiscreteBundle(TorusGeometry(d), k, N)
    bases, (sites, cols) = torus._kernel_pairs(b)
    assert sorted(zip(sites.tolist(), bases[cols].tolist())) == _per_base_pairs(b)


def _direct_kernel_model(b, m, x, y, x0, y0):
    """The flat-model kernel evaluated whole at one level, in the operand
    order kernel_error keeps: envelope, Laguerre factor, transport phase."""
    k = b.k
    rho2 = (x - x0) ** 2 + (y - y0) ** 2
    W = (x + x0) * (y - y0) / 2
    laguerre = np.polyval([float(c) for c in reversed(laguerre_q(m, 0))], k * rho2 / 2)
    return k / (2 * math.pi) * np.exp(-k * rho2 / 4) * laguerre * np.exp(1j * k * W)


def test_kernel_error_matches_column_by_column():
    dec = resolve_levels(1, 4, 32, 1)
    rows = kernel_error(dec, 2)
    for m in (0, 1):
        V = LandauProjector(dec, m).V
        b = dec.bundle
        err = 0.0
        for s, p in _per_base_pairs(b):
            col = V[s] @ V[p].conj() / b.h ** 2
            model = _direct_kernel_model(b, m, b.X[s], b.Y[s], b.X[p], b.Y[p])
            err = max(err, abs(col - model) * 2 * math.pi / 4)
        got = rows[m]["offdiag_err"]
        assert abs(got - err) < 1e-12 * err


def test_run_kernel_comparison_equals_the_direct_model(monkeypatch):
    # Every (k, m) a run compares must read exactly what a fresh evaluation
    # of the pairs and the whole model per (k, m) gives on the run's one
    # spectrum per k (levels 0..2), although the run builds the pairs once
    # per k.
    built, pairs = [], torus._kernel_pairs

    def counting(b):
        built.append(b.k)
        return pairs(b)

    monkeypatch.setattr(torus, "_kernel_pairs", counting)
    args = build_parser().parse_args(["torus", "--d", "1", "--k", "4,6", "--grid", "32",
                                      "--levels", "3", "--m", "0", "--kernel-compare"])
    body, _ = args.run(args)
    assert built == [4, 6]
    assert [(r["k"], r["m"]) for r in body["kernel_compare"]] == [
        (k, m) for k in (4, 6) for m in range(3)]
    for row in body["kernel_compare"]:
        k, m = row["k"], row["m"]
        dec = resolve_levels(1, k, 32, 2)
        V, b = LandauProjector(dec, m).V, dec.bundle
        diag = np.sum(np.abs(V) ** 2, axis=1) / b.h ** 2
        assert row["diag_err"] == float(np.max(np.abs(2 * math.pi * diag / k - 1)))
        bases, (sites, cols) = torus._kernel_pairs(b)
        kernel = (V @ V[bases].conj().T) / b.h ** 2
        model = _direct_kernel_model(b, m, b.X[sites], b.Y[sites],
                                     b.X[bases][cols], b.Y[bases][cols])
        assert row["offdiag_err"] == float(
            np.max(np.abs(kernel[sites, cols] - model)) * 2 * math.pi / k)


@pytest.mark.parametrize("d,k,N", [(1, 4, 64), (1, 10, 64)])
def test_ladder_angle_matches_subspace_angles(d, k, N):
    dec = resolve_levels(d, k, N, 1)
    b = dec.bundle
    V0, V1 = LandauProjector(dec, 0).V, LandauProjector(dec, 1).V
    dx, dy = b.derivatives
    raised = (dx @ V0 - 1j * (dy @ V0)) / math.sqrt(2)
    want = np.max(subspace_angles(raised, V1))
    got = ladder_map(dec, 1)["max_angle"]
    assert abs(got - want) < 1e-9 * want


@pytest.mark.parametrize("theta", [1e-8, 1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("cond", [1.0, 1e6])
def test_principal_angle_of_a_rotated_frame(theta, cond):
    # V turns the orthonormal frame A towards its complement C by angles up
    # to theta; U spans A through a basis of condition number cond, and at
    # 1e6 one Cholesky-QR pass leaves it short of orthonormal.  Forming
    # U = A M in floating point moves its span by about cond * eps.
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((300, 10)) + 1j * rng.standard_normal((300, 10)))
    A, C = Q[:, :5], Q[:, 5:]
    angles = theta * np.array([1.0, 0.5, 0.25, 0.1, 0.0])
    V = A * np.cos(angles) + C * np.sin(angles)
    (W1, _), (W2, _) = (np.linalg.qr(rng.standard_normal((5, 5))) for _ in range(2))
    U = A @ (W1 * np.logspace(0, -np.log10(cond), 5)) @ W2
    assert abs(torus._max_principal_angle(U, V) - theta) < 1e-6 * theta + 1e-15 * cond


@pytest.mark.parametrize("defect", ["zero", "duplicate", "near-duplicate"])
def test_principal_angle_rejects_a_rank_deficient_frame(defect):
    # Cholesky of such a gram matrix breaks down on a zero or nearly equal
    # column, and on an exact duplicate may run on rounding noise.
    rng = np.random.default_rng(12)
    Q, _ = np.linalg.qr(rng.standard_normal((300, 10)) + 1j * rng.standard_normal((300, 10)))
    U, V = Q[:, :5].copy(), Q[:, 5:]
    U[:, 4] = {"zero": 0, "duplicate": U[:, 0],
               "near-duplicate": U[:, 0] + 1e-9 * Q[:, 9]}[defect]
    with pytest.raises(GuardError, match="raised frame is rank deficient"):
        torus._max_principal_angle(U, V)


@pytest.mark.parametrize("n", [5, 10, 20])
def test_principal_angle_at_the_edge_of_the_rank_guard(n):
    # A frame whose unit-diagonal gram matrix has condition number 0.99 of
    # the rank guard's limit 1/(20 n^(3/2) eps).  One Cholesky-QR pass
    # leaves a gram defect near 1e-3 and an angle of that size between a
    # span and itself; the second pass makes the frame orthonormal.
    rng = np.random.default_rng(13)
    limit = 1 / (20 * n ** 1.5 * np.finfo(float).eps)
    Q, _ = np.linalg.qr(rng.standard_normal((600, 2 * n)) + 1j * rng.standard_normal((600, 2 * n)))
    A, C = Q[:, :n], Q[:, n:]
    eigs = np.r_[1 / (0.99 * limit), np.ones(n - 1)]
    G = random_correlation.rvs(eigs * n / eigs.sum(), random_state=rng)
    U = A @ np.linalg.cholesky(G).conj().T  # U* U = G, unit diagonal
    w = np.linalg.eigvalsh(U.conj().T @ U)
    assert 0.95 * limit < w[-1] / w[0] < limit
    # Forming U moves its span by about sqrt(cond) eps, 1e-9.
    assert torus._max_principal_angle(U, A) < 1e-8
    angles = 0.3 * np.linspace(1, 0, n)
    V = A * np.cos(angles) + C * np.sin(angles)
    assert abs(torus._max_principal_angle(U, V) - 0.3) < 1e-8


def test_ladder_level_zero_is_trivial():
    rep = ladder_map(resolve_levels(1, 4, 32, 0), 0)
    assert rep["vtv_defect"] < 1e-10
    assert rep["vvt_defect"] < 1e-10
    assert rep["max_angle"] < 1e-6


def test_ladder_level_one_defect_is_discretization():
    rep = ladder_map(resolve_levels(1, 4, 32, 1), 1)
    b = DiscreteBundle(TorusGeometry(d=1), 4, 32)
    kh2 = 4 * b.h ** 2
    assert rep["vtv_defect"] < kh2
    assert rep["max_angle"] < 1e-4
    assert rep["dim0"] == 4 and rep["dimm"] == 4


def test_asymptotic_defects_smoke():
    side = TorusGeometry(d=1).side
    f = TrigPoly.cos_x(side)
    g = TrigPoly.sin_y(side)
    rows = [asymptotic_defects(resolve_levels(1, k, 32, 0), 0, f, g) for k in (4, 6)]
    assert [r["dim"] for r in rows] == [4, 6]
    for key in ("D2", "D1", "DB"):
        assert all(r[key] > 0 for r in rows)
    # second-order remainder is far smaller than the first-order product gap
    assert rows[0]["D2"] < 0.5


def test_peaked_sections_live_in_lowest_cluster():
    rep = peaked_gram(resolve_levels(6, 8, 48, 0), [[1.0]])
    assert abs(np.sqrt(rep["gram"][0, 0].real) - 1.0) < 0.05
    assert rep["defects"][0] < 0.1
    rep2 = peaked_gram(resolve_levels(6, 12, 48, 0), [[1.0]])
    assert rep2["defects"][0] < rep["defects"][0]


def test_peaked_gram_structure():
    rep = peaked_gram(resolve_levels(6, 10, 48, 0), [[1], [0, 1]])
    gram = rep["gram"]
    # distinct modulation degrees stay orthogonal on the symmetric window
    assert abs(gram[0, 1]) < 1e-8
    assert abs(gram[0, 0] - 1.0) < 0.05
    assert abs(gram[1, 1] - 1.0) < 0.2
    assert rep["max_dev"] < 0.2
