import dataclasses
import math

import numpy as np
import pytest

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
    peaked_defect,
    peaked_gram,
    poisson_bracket,
    sharpen_projector,
    toeplitz_fn,
    toeplitz_invariants,
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
    for D in (b.cov_x(), b.cov_y()):
        assert abs(D + D.conj().T).max() < 1e-13


def test_spectrum_residuals_and_cache():
    dec = compute_spectrum(1, 4, 32, count=18)
    assert dec.residual_max < 1e-8
    again = compute_spectrum(1, 4, 32, count=10)
    assert again is dec  # served from the cache, larger count retained


def test_cluster_counts_and_centers():
    dec = compute_spectrum(1, 4, 32, count=18)
    clusters = detect_clusters(dec.eigenvalues, k=4, levels=3)
    assert [c["m"] for c in clusters] == [0, 1, 2]
    for c in clusters:
        assert c["count"] == 4  # k*d states per level
        assert abs(c["mean_scaled"] - c["center"]) < 0.05


def test_cluster_guard_when_levels_unresolved():
    dec = compute_spectrum(1, 4, 32, count=18)
    with pytest.raises(GuardError):
        detect_clusters(dec.eigenvalues, k=4, levels=12)


def test_projector_structure():
    dec = compute_spectrum(1, 4, 32, count=18)
    proj = LandauProjector(dec, 1)
    assert proj.dim == 4
    assert proj.gram_defect < 1e-10
    P = proj.V @ proj.V.conj().T
    assert np.linalg.norm(P @ P - P, 2) < 1e-10
    # kernel diagonal is real and positive
    col = proj.kernel_column(proj.bundle.site_index(16, 16))
    p = proj.bundle.site_index(16, 16)
    assert abs(col[p].imag) < 1e-12 * abs(col[p])
    assert col[p].real > 0


def test_projector_rejects_a_miscounted_cluster():
    dec = compute_spectrum(1, 4, 32, count=18)
    keep = np.arange(len(dec.eigenvalues)) != 5  # one of level 1's k*d = 4
    short = dataclasses.replace(dec, eigenvalues=dec.eigenvalues[keep],
                                vectors=dec.vectors[:, keep])
    LandauProjector(short, 0)
    with pytest.raises(GuardError, match="m=1 holds 3 eigenvalues"):
        LandauProjector(short, 1)


def test_sharpen_projector_behavior():
    dec = compute_spectrum(1, 4, 32, count=18)
    proj = LandauProjector(dec, 0)
    P = proj.V @ proj.V.conj().T
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(P.shape) + 1j * rng.standard_normal(P.shape)
    noise = 1e-5 * (noise + noise.conj().T)
    sharpened, gap = sharpen_projector(P + noise)
    assert gap > 0.4
    assert np.linalg.norm(sharpened @ sharpened - sharpened, 2) < 1e-12
    assert np.linalg.norm(sharpened - P, 2) < 1e-3
    with pytest.raises(ValueError):
        sharpen_projector(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(GuardError):
        sharpen_projector(0.5 * np.eye(4))


def test_trig_poly_evaluate_and_derivatives():
    side = TorusGeometry(d=1).side
    om = 2 * math.pi / side
    f = TrigPoly.cos_x(side)
    xs = np.linspace(0, side, 9, endpoint=False)
    ys = np.linspace(0, side, 9, endpoint=False)
    assert np.max(np.abs(f.evaluate(xs, ys) - np.cos(om * xs))) < 1e-12
    dfx = f.d_dx()
    assert np.max(np.abs(dfx.evaluate(xs, ys) + om * np.sin(om * xs))) < 1e-12
    g = TrigPoly.sin_y(side)
    prod = f * g
    want = np.cos(om * xs) * np.sin(om * ys)
    assert np.max(np.abs(prod.evaluate(xs, ys) - want)) < 1e-12


def test_poisson_bracket_formula():
    side = TorusGeometry(d=1).side
    om = 2 * math.pi / side
    f = TrigPoly.cos_x(side)
    g = TrigPoly.sin_y(side)
    br = poisson_bracket(f, g)
    xs = np.linspace(0, side, 7, endpoint=False)
    ys = np.linspace(0.1, side, 7, endpoint=False)
    want = -(om ** 2) * np.sin(om * xs) * np.cos(om * ys)
    assert np.max(np.abs(br.evaluate(xs, ys) - want)) < 1e-12
    Xf = hamiltonian_vf(f)
    assert np.max(np.abs(Xf[0].evaluate(xs, ys))) < 1e-12  # -df/dy = 0


def test_toeplitz_unit_and_adjoint():
    dec = compute_spectrum(1, 4, 32, count=18)
    proj = LandauProjector(dec, 0)
    side = proj.bundle.geometry.side
    f = TrigPoly.cos_x(side) + TrigPoly.sin_y(side).scale(0.5)
    rep = toeplitz_invariants(proj, f)
    assert rep["unit_defect"] < 1e-10
    assert rep["adjoint_defect"] < 1e-10
    # real symbols compress to Hermitian matrices
    T = toeplitz_fn(proj, f)
    assert np.linalg.norm(T.matrix - T.matrix.conj().T, 2) < 1e-10


def test_kernel_error_decays():
    e4 = kernel_error(1, 4, 0, N=32)
    e8 = kernel_error(1, 8, 0, N=32)
    assert e8["diag_err"] < e4["diag_err"]
    assert e8["offdiag_err"] < e4["offdiag_err"]
    assert e4["diag_err"] < 0.05


def test_ladder_level_zero_is_trivial():
    rep = ladder_map(1, 4, 0, N=32)
    assert rep["vtv_defect"] < 1e-10
    assert rep["vvt_defect"] < 1e-10
    assert rep["max_angle"] < 1e-6


def test_ladder_level_one_defect_is_discretization():
    rep = ladder_map(1, 4, 1, N=32)
    b = DiscreteBundle(TorusGeometry(d=1), 4, 32)
    kh2 = 4 * b.h ** 2
    assert rep["vtv_defect"] < kh2
    assert rep["max_angle"] < 1e-4
    assert rep["dim0"] == 4 and rep["dimm"] == 4


def test_asymptotic_defects_smoke():
    side = TorusGeometry(d=1).side
    f = TrigPoly.cos_x(side)
    g = TrigPoly.sin_y(side)
    rep = asymptotic_defects(1, [4, 6], 0, f, g, N=32)
    assert rep["dims"] == [4, 6]
    for key in ("D2", "D1", "DB"):
        assert len(rep[key]) == 2
        assert all(v > 0 for v in rep[key])
    # second-order remainder is far smaller than the first-order product gap
    assert rep["D2"][0] < 0.5


def test_peaked_sections_live_in_lowest_cluster():
    rep = peaked_defect(6, 8, [1.0], 0, N=48)
    assert abs(rep["norm"] - 1.0) < 0.05
    assert rep["defect"] < 0.1
    rep2 = peaked_defect(6, 12, [1.0], 0, N=48)
    assert rep2["defect"] < rep["defect"]


def test_peaked_gram_structure():
    rep = peaked_gram(6, 10, [[1], [0, 1]], N=48)
    gram = rep["gram"]
    # distinct modulation degrees stay orthogonal on the symmetric window
    assert abs(gram[0, 1]) < 1e-8
    assert abs(gram[0, 0] - 1.0) < 0.05
    assert abs(gram[1, 1] - 1.0) < 0.2
    assert rep["max_dev"] < 0.2
