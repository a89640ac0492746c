"""Output checks for the benchmark, made apart from the program.

Every check returns a list of problems; an empty list means the output
passed.  The references here do not call the program's spectral code:

* cluster counts are k*d, computed here;
* lattice eigenvalues are compared against a direct (banded LAPACK) solve of
  the y-Fourier-reduced Landau-gauge rings of Harper, Proc. Phys. Soc. A 68
  (1955) 874;
* the exact ledger's scalars are recomputed in sympy.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from math import gcd, pi, sqrt
from pathlib import Path

import numpy as np
from scipy.linalg import eig_banded

# Identity records that are not checks; the suite appends them directly,
# not through its record() helper.
LEDGER_NON_CHECKS = ("elapsed_seconds",)


def grid_spacing(d: int, N: int) -> float:
    return sqrt(2 * pi * d) / N


def ring_spectrum(d: int, k: int, N: int, count: int) -> np.ndarray:
    """Lowest `count` eigenvalues of the lattice Laplacian from its
    Landau-gauge ring decomposition.

    A discrete Fourier transform along y (mode q) makes the y-links diagonal,
    2*cos(2*pi*q/N - k*h^2*i), while the wrap x-link joins (N-1, q) to
    (0, q - k*d), so the potential varies smoothly along each ring.  H therefore splits into g = gcd(N, k*d) real symmetric
    rings of length N^2/g with hopping -1/(2h^2).  Each ring is solved
    directly after a zig-zag reordering that turns the periodic chain into a
    matrix of bandwidth 2.
    """
    h = grid_spacing(d, N)
    c = 1.0 / (2 * h * h)
    kd = k * d
    g = gcd(N, kd)
    visits = N // g
    L = N * visits
    i = np.tile(np.arange(N), visits)
    per_ring = min(count, L)
    vals = []
    for q0 in range(g):
        q = np.repeat((q0 - kd * np.arange(visits)) % N, N)
        theta = 2 * pi * q / N - 2 * pi * kd * i / (N * N)
        diag = c * (4 - 2 * np.cos(theta))
        vals.append(_ring_lowest(diag, -c, per_ring))
    return np.sort(np.concatenate(vals))[:count]


def _ring_lowest(diag: np.ndarray, hop: float, count: int) -> np.ndarray:
    """Lowest eigenvalues of the periodic chain with the given diagonal and
    uniform hopping, via the zig-zag order 0, L-1, 1, L-2, ..."""
    L = len(diag)
    perm = np.empty(L, dtype=int)
    perm[0::2] = np.arange((L + 1) // 2)
    perm[1::2] = L - 1 - np.arange(L // 2)
    band = np.zeros((3, L))
    band[0] = diag[perm]
    for off in (1, 2):
        a, b = perm[:-off], perm[off:]
        linked = ((a - b) % L == 1) | ((b - a) % L == 1)
        band[off, :L - off] = np.where(linked, hop, 0.0)
    return eig_banded(band, lower=True, eigvals_only=True, select="i",
                      select_range=(0, count - 1))


def eigen_tolerance(d: int, N: int) -> float:
    """Absolute eigenvalue tolerance: the program's residual guard is
    1e-9 times a norm bound of H, and for a Hermitian matrix an eigenvalue is
    within the residual norm of the exact one.  ||H|| <= 4/h^2."""
    h = grid_spacing(d, N)
    return 1e-9 * 4 / (h * h)


def read_torus_output(report_path: Path) -> tuple[dict, dict[int, list[float]]]:
    """The JSON report and its side CSV of eigenvalues, keyed by k."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    rows: dict[int, list[float]] = {}
    name = report.get("eigenvalue_csv")
    if name:
        with open(report_path.parent / name, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for k, idx, lam in reader:
                rows.setdefault(int(k), []).append(float(lam))
    return report, rows


def check_torus(spec: dict, report: dict, eigen: dict[int, list[float]],
                refs: dict[tuple, np.ndarray]) -> list[str]:
    """Cluster counts and centres, eigenvalues against the ring reference,
    and, for observable runs, kernel, defect and ladder properties.

    refs maps (d, k, N) to at least levels*k*d reference eigenvalues."""
    d, N, levels = spec["d"], spec["N"], spec["levels"]
    h2 = grid_spacing(d, N) ** 2
    tol = eigen_tolerance(d, N)
    problems = []
    for k in spec["ks"]:
        clusters = report.get("clusters", {}).get(str(k))
        if not clusters or len(clusters) < levels:
            problems.append("k=%d: %s clusters, want %d"
                            % (k, len(clusters or []), levels))
            continue
        # A projector spans one cluster, so its dimension is this count; the
        # report's `dims` repeats the count and is not compared again.
        for c in clusters[:levels]:
            m = c["m"]
            if c["count"] != k * d:
                problems.append("k=%d m=%d: count %s, want %d"
                                % (k, m, c["count"], k * d))
            centre_tol = 2 * k * h2 * (m + 1)
            mean = c.get("mean_scaled")
            if mean is None or abs(mean - (m + 0.5)) > centre_tol:
                problems.append("k=%d m=%d: centre %s off m+1/2 by more than %.2e"
                                % (k, m, mean, centre_tol))
        # The resolved clusters hold the lowest levels*k*d eigenvalues; the
        # computed values above them are not compared (see CHANGES.md: the
        # solver can skip one there on some seeds).
        lams = np.sort(np.asarray(eigen.get(k, []), dtype=float))[:levels * k * d]
        if len(lams) < levels * k * d:
            problems.append("k=%d: %d eigenvalues, want at least %d"
                            % (k, len(lams), levels * k * d))
            continue
        ref = refs[(d, k, N)]
        err = float(np.max(np.abs(lams - ref[:len(lams)])))
        if err > tol:
            problems.append("k=%d: eigenvalues differ from the ring reference "
                            "by %.3e > %.3e" % (k, err, tol))
    if spec.get("observables"):
        problems += _check_observables(spec, report)
    return problems


def _check_observables(spec: dict, report: dict) -> list[str]:
    problems = []
    ks = spec["ks"]
    kernel = report.get("kernel_compare") or []
    if len(kernel) != len(ks) * min(spec["levels"], 3):
        problems.append("kernel block has %d rows" % len(kernel))
    for row in kernel:
        # Criterion 4: diagonal kernel error at most C/k with C = 2.
        if not row["diag_err"] <= 2.0 / row["k"]:
            problems.append("kernel k=%d m=%d: diagonal error %.4f > 2/k"
                            % (row["k"], row["m"], row["diag_err"]))
    defects = report.get("defects") or {}
    for name in ("D1", "D2", "DB"):
        vals = defects.get(name) or []
        if len(vals) != len(ks):
            problems.append("defect %s has %d values" % (name, len(vals)))
        elif not all(b < a for a, b in zip(vals, vals[1:])):
            problems.append("defect %s does not decrease in k: %s" % (name, vals))
    ladder = report.get("ladder") or []
    if [row["k"] for row in ladder] != list(ks):
        problems.append("ladder block covers k=%s" % [row["k"] for row in ladder])
    for row in ladder:
        vals = (row["vtv_defect"], row["vvt_defect"], row["max_angle"])
        if not all(np.isfinite(v) for v in vals):
            problems.append("ladder k=%d: non-finite defects %s" % (row["k"], vals))
    return problems


def check_ledger(report: dict) -> list[str]:
    """Every identity record passed; elapsed_seconds is not a check."""
    records = [r for r in report.get("identities", [])
               if r.get("name") not in LEDGER_NON_CHECKS]
    if not records:
        return ["no identity records"]
    problems = ["identity %s failed: %s" % (r.get("name"), r.get("detail"))
                for r in records if r.get("passed") is not True]
    if report.get("all_passed") is not True:
        problems.append("all_passed is %r" % report.get("all_passed"))
    return problems


def sympy_sample(seed: int, laguerre_q, gram_inner, poly_monomial, rad_sqrt,
                 size: int = 6) -> list[str]:
    """Recompute in sympy a seeded sample of what the ledger rests on:
    Laguerre coefficients, Gaussian moments and products of radicals.

    The program's functions are passed in, so a test can hand in a wrong
    one.  laguerre_q(m, p) must be the generalized Laguerre polynomial
    L_m^(p); gram_inner of one-variable monomials must be the Gaussian
    moment (1/pi) * integral of z^a zbar^b conj(z^c zbar^d) e^{-|z|^2} dA.
    """
    import sympy

    rng = random.Random(seed)
    x, r = sympy.symbols("x r", positive=True)
    problems = []

    for _ in range(size):
        m, p = rng.randrange(0, 9), rng.randrange(0, 4)
        want = sympy.Poly(sympy.assoc_laguerre(m, p, x), x).all_coeffs()[::-1]
        got = [_rational(c) for c in laguerre_q(m, p)]
        if got != want:
            problems.append("laguerre_q(%d, %d) = %s, sympy %s" % (m, p, got, want))

    radial: dict[int, sympy.Expr] = {}
    for _ in range(size):
        s = rng.randrange(0, 6)
        a, b = rng.randrange(0, s + 1), rng.randrange(0, s + 1)
        c, dd = s - b, s - a                      # a + dd == b + c: nonzero
        if rng.random() < 0.3:
            dd += 1                               # angular integral vanishes
        if (a + dd) != (b + c):
            want = sympy.Integer(0)
        else:
            if s not in radial:
                radial[s] = 2 * sympy.integrate(r ** (2 * s + 1) * sympy.exp(-r ** 2),
                                                (r, 0, sympy.oo))
            want = radial[s]
        got = gram_inner(poly_monomial((a,), (b,)), poly_monomial((c,), (dd,)))
        got_val = _rational(got.re.as_fraction()) if got.im.is_zero() else None
        if got_val != want:
            problems.append("moment <z^%d zb^%d, z^%d zb^%d> = %r, sympy %s"
                            % (a, b, c, dd, got, want))

    for _ in range(size):
        qs = [sympy.Rational(rng.randrange(1, 60), rng.randrange(1, 12))
              for _ in range(3)]
        sq = [rad_sqrt(Fraction(int(q.p), int(q.q))) for q in qs]
        prog = sq[0] * sq[1] * (sq[2] + sq[0])
        want = sympy.sqrt(qs[0]) * sympy.sqrt(qs[1]) * (sympy.sqrt(qs[2]) + sympy.sqrt(qs[0]))
        got = sum((_rational(cf) * sympy.sqrt(sf)
                   for sf, cf in prog.terms.items()), sympy.Integer(0))
        if sympy.expand(got - want) != 0:
            problems.append("radical product sqrt(%s)*sqrt(%s)*(sqrt(%s)+sqrt(%s)) "
                            "= %r" % (qs[0], qs[1], qs[2], qs[0], prog))
    return problems


def _rational(q):
    import sympy
    return sympy.Rational(q.numerator, q.denominator)
