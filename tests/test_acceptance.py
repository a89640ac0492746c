"""Acceptance gate: one test per deliverable criterion.

Each test prints its measured numbers (run with -s to see them on success)
and asserts the pinned tolerance.  Decay-rate criteria are enforced one-sided
against the slow edge of their target band: a fit that decays faster than the
band prints an over-performance note instead of failing, since faster decay
can only come from a better-converged implementation.

Run order matters for speed, not correctness: the flat-lattice spectra are
cached per (d, k, N) and eigenvalue count, and the cluster, kernel and
dimension criteria ask for one d = 1, N = 64 spectrum per k with the same
count (levels 0..2), which a later criterion reads from the cache while its
byte cap still holds it.
"""

import random
import time
from fractions import Fraction
from math import comb

from landau_lab.dimensions import dim_surface, torus_composition_check
from landau_lab.identities import run_identity_checks
from landau_lab.reporting import fit_slope
from landau_lab.surfaces import (SurfaceGeometry, landau_eigenvalue,
                                 landau_multiplicity, landau_spectrum,
                                 sphere_crosscheck, weitzenbock_iterate)
from landau_lab.torus import (TorusGeometry, TrigPoly, asymptotic_defects,
                              compute_spectrum, detect_clusters, kernel_error,
                              ladder_map, peaked_gram, resolve_levels)

KS = (4, 6, 8, 10, 12)


def _assert_slope(name: str, slope: float, band: tuple) -> None:
    lo, hi = band
    note = ""
    if slope < lo:
        note = "  (over-performs the fast edge %.1f)" % lo
    print("    %-26s slope %+8.3f  band [%+.1f, %+.1f]%s"
          % (name, slope, lo, hi, note))
    assert slope <= hi, "%s slope %.3f misses the slow edge %.1f" % (
        name, slope, hi)


def test_criterion_1_exact_identity_suite():
    t0 = time.perf_counter()
    failed = []
    total = 0
    for n in (1, 2):
        for rec in run_identity_checks(n, 8):
            total += 1
            if not rec["passed"]:
                failed.append("n=%d %s: %s" % (n, rec["name"], rec["detail"]))
    elapsed = time.perf_counter() - t0
    print("exact suite: %d checks over n=1,2 at degree 8 in %.2f s "
          "(limit 10 s)" % (total, elapsed))
    assert not failed, "failed checks: %s" % failed
    assert elapsed < 10.0


def test_criterion_2_torus_cluster_counts_and_centers():
    d, N = 1, 64
    h = TorusGeometry(d).side / N
    print("cluster counts and centers, d=%d N=%d:" % (d, N))
    for k in KS:
        assert k * h * h <= 0.05
        dec = compute_spectrum(d, k, N, count=4 * k * d + 4)
        for c in detect_clusters(dec, levels=3):
            m = c["m"]
            tol = max(2 * k * h * h * (m + 1), 1e-3)
            dev = abs(c["mean_scaled"] - (m + 0.5))
            print("    k=%2d m=%d count=%2d (want %2d)  center dev %.2e "
                  "tol %.2e" % (k, m, c["count"], k * d, dev, tol))
            assert c["count"] == k * d
            assert dev <= tol


def test_criterion_3_toeplitz_product_asymptotics():
    d = 4
    side = TorusGeometry(d).side
    f, g = TrigPoly.cos_x(side), TrigPoly.sin_y(side)
    print("product/commutator defect rates, d=%d, grid 16k:" % d)
    for m in (1, 0):
        d2, d1, db = [], [], []
        for k in KS:
            t = asymptotic_defects(resolve_levels(d, k, 16 * k, m), m, f, g)
            assert t["dim"] == k * d
            d2.append(t["D2"])
            d1.append(t["D1"])
            db.append(t["DB"])
        print("  m=%d" % m)
        _assert_slope("product defect", fit_slope(KS, d2).slope, (-2.3, -1.7))
        _assert_slope("commutator defect", fit_slope(KS, d1).slope,
                      (-1.3, -0.7))
        _assert_slope("corrected-product defect", fit_slope(KS, db).slope,
                      (-2.4, -1.6))


def test_criterion_4_kernel_expansion():
    d, N, C = 1, 64, 2.0
    print("kernel against flat model, d=%d N=%d:" % (d, N))
    rows = [kernel_error(resolve_levels(d, k, N, 2), 3) for k in KS]
    for m in (0, 1, 2):
        diag = [r[m]["diag_err"] for r in rows]
        off = [r[m]["offdiag_err"] for r in rows]
        for k, e in zip(KS, diag):
            assert e <= C / k, (
                "m=%d k=%d diagonal error %.4f exceeds %.1f/k" % (m, k, e, C))
        print("  m=%d  max k*diag_err %.4f (bound %.1f)"
              % (m, max(k * e for k, e in zip(KS, diag)), C))
        _assert_slope("diagonal error", fit_slope(KS, diag).slope,
                      (-1.4, -0.6))
        so = fit_slope(KS, off).slope
        print("    %-26s slope %+8.3f  bound <= +0.2"
              % ("off-diagonal sup-error", so))
        assert so <= 0.2


def test_criterion_5_ladder_near_unitarity():
    d, m = 1, 1
    vtv, angles = [], []
    print("down-ladder isometry, d=%d m=%d, grid 16k:" % (d, m))
    for k in KS:
        r = ladder_map(resolve_levels(d, k, 16 * k, m), m)
        assert r["dim0"] == k * d and r["dimm"] == k * d
        vtv.append(r["vtv_defect"])
        angles.append(r["max_angle"])
        print("    k=%2d  |V*V - I| %.3e  max angle %.3e rad"
              % (k, r["vtv_defect"], r["max_angle"]))
    _assert_slope("isometry defect", fit_slope(KS, vtv).slope, (-1.4, -0.6))
    assert all(b < a for a, b in zip(angles, angles[1:])), (
        "principal angles are not decreasing: %s" % angles)
    assert angles[-1] <= 0.1


def test_criterion_6_peaked_section_pairing():
    d, N = 2, 64
    coeffs = [[1], [0, 1], [0, 0, 1]]
    devs = []
    print("peaked-section pairing vs model, d=%d N=%d, degrees 0..2:" % (d, N))
    for k in KS:
        r = peaked_gram(resolve_levels(d, k, N, 0), coeffs)
        devs.append(r["max_dev"])
        print("    k=%2d  max pairing deviation %.4f  projection defects %s"
              % (k, r["max_dev"],
                 " ".join("%.3f" % x for x in r["defects"])))
    _assert_slope("pairing deviation", fit_slope(KS, devs).slope, (-0.8, -0.2))


def test_criterion_7_surface_tables_exact():
    t0 = time.perf_counter()
    rng = random.Random(7)
    for _ in range(20):
        geom = SurfaceGeometry(genus=rng.randrange(0, 4),
                               degree=rng.randrange(1, 30),
                               area_over_pi=Fraction(rng.randrange(1, 9)))
        for row in weitzenbock_iterate(geom, 8).rows:
            if row.flag:
                continue
            assert row.eigenvalue == landau_eigenvalue(geom, row.m)
            assert row.multiplicity == landau_multiplicity(geom, row.m)[0]

    for degree in range(1, 21):
        assert sphere_crosscheck(degree, 5)["all_match"]

    sphere = SurfaceGeometry(genus=0, degree=4)
    assert landau_multiplicity(sphere, 0) == (5, "")
    assert landau_multiplicity(sphere, 1) == (7, "")
    hyper = SurfaceGeometry.from_field(genus=2, B=5)
    assert landau_eigenvalue(hyper, 1) == Fraction(13, 2)
    assert landau_multiplicity(hyper, 1) == (7, "")
    rows = landau_spectrum(hyper, 2).rows
    assert rows[1].eigenvalue == Fraction(13, 2)
    assert rows[1].multiplicity == 7

    elapsed = time.perf_counter() - t0
    print("surface tables: 20 random geometries, sphere degrees 1..20, "
          "pinned examples, %.3f s (limit 1 s)" % elapsed)
    assert elapsed < 1.0


def test_criterion_8_dimension_consistency():
    d, N = 1, 64
    print("level count consistency, d=%d N=%d:" % (d, N))
    for k in KS:
        dec = compute_spectrum(d, k, N, count=4 * k * d + 4)
        geom = SurfaceGeometry(genus=1, degree=k * d,
                               area_over_pi=Fraction(2 * d))
        assert geom.B == k
        for c in detect_clusters(dec, levels=3):
            m = c["m"]
            closed = dim_surface(k, d, 1, m).value
            mult, _ = landau_multiplicity(geom, m)
            print("    k=%2d m=%d  numeric %d  closed form %d  surface "
                  "table %d" % (k, m, c["count"], closed, mult))
            assert c["count"] == closed == mult == k * d

    res = torus_composition_check(2, 5, [2, 3], 3)
    assert res["direct"] == comb(4, 1) * 25 * 6 == 600
    assert res["match"]
    print("    two-torus composition: direct %d == level sum %d"
          % (res["direct"], res["composition_sum"]))


def test_translation_path_on_every_acceptance_grid():
    # The lattice criteria solve (d, N) = (1, 64) and (2, 64) at every k, and
    # (4, 16k) and (1, 16k).  The cache returns a spectrum only for the count
    # it was solved for, so each grid is solved again here for one value.
    grids = {(d, k, N) for k in KS
             for d, N in ((1, 64), (2, 64), (4, 16 * k), (1, 16 * k))}
    for d, k, N in sorted(grids):
        solver = compute_spectrum(d, k, N, count=1).solver
        assert solver["classes"] == 1, (d, k, N, solver)
