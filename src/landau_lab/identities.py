"""Zero-tolerance identity suite for the exact operator algebra.

Every check here is decided in exact arithmetic: a check passes only when the
residual is identically zero (or the structural property holds verbatim).
The suite backs both the command-line ledger and the acceptance tests.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import bargmann as bg
from .fock import (ANTIHOLOMORPHIC, FULL, FockOperator, PolyZZbar,
                   enumerate_basis, ladder_matrices, mi_degree, mi_factorial,
                   mi_unit, multi_indices, multi_indices_of_degree, pi_m,
                   rho_ab, rho_tangent)
from .radicals import CRad, Rad


def _pair_sample(labels, rng, exhaustive_degree: int, sample: int):
    """All label pairs with both degrees <= exhaustive_degree, plus a random
    sample of arbitrary pairs."""
    small = [a for a in labels if mi_degree(a) <= exhaustive_degree]
    pairs = [(a, b) for a in small for b in small]
    for _ in range(sample):
        pairs.append((rng.choice(labels), rng.choice(labels)))
    return pairs


def run_identity_checks(n: int, degree: int, seed: int = 0) -> list[dict]:
    """Run the suite for the given variable count and cutoff; returns one
    record per check with name, passed flag, and detail."""
    if not 1 <= n <= 3:
        raise ValueError("n must be between 1 and 3")
    if not 2 <= degree <= 8:
        raise ValueError("degree must be between 2 and 8")
    rng = random.Random(seed)
    results: list[dict] = []

    def record(name, passed, detail=""):
        results.append({"name": name, "passed": bool(passed), "detail": detail})

    D = degree
    anti = enumerate_basis(n, D, ANTIHOLOMORPHIC)
    full = enumerate_basis(n, D, FULL)
    labels = list(anti.labels)

    # --- shift relations rho_ab . rho_a'b' = delta_{b,a'} rho_ab'
    ok = True
    pairs = _pair_sample(labels, rng, 2, 40)
    for a1, b1 in pairs:
        for a2, b2 in rng.sample(pairs, min(len(pairs), 12)):
            lhs = rho_ab(anti, a1, b1) @ rho_ab(anti, a2, b2)
            rhs = rho_ab(anti, a1, b2) if b1 == a2 else FockOperator.zero(anti)
            if not lhs.agrees_with(rhs, D):
                ok = False
    record("shift_compose", ok)

    # --- adjoint exchanges the indices
    ok = all(rho_ab(anti, a, b).adjoint().agrees_with(
        rho_ab(anti, b, a), D - abs(mi_degree(a) - mi_degree(b)))
        for a, b in _pair_sample(labels, rng, 2, 40))
    record("shift_adjoint", ok)

    # --- parity: the degree-change parity of shifts multiplies under
    # composition, and parity_split recovers the operator
    ok = True
    for a, b in _pair_sample(labels, rng, 2, 20):
        op = rho_ab(anti, a, b)
        want = (mi_degree(a) + mi_degree(b)) % 2
        if op.parity != want:
            ok = False
    for _ in range(20):
        a1, b1 = rng.choice(labels), rng.choice(labels)
        a2, b2 = rng.choice(labels), rng.choice(labels)
        A, B = rho_ab(anti, a1, b1), rho_ab(anti, a2, b2)
        C = A @ B
        if C.entries and C.parity != (A.parity + B.parity) % 2:
            ok = False
    mixed = rho_ab(anti, labels[0], labels[0]) + rho_tangent(
        anti, [1] * n, [0] * n)
    ev, od = mixed.parity_split()
    if not (ev + od).agrees_with(mixed, D) or ev.parity != 0 or od.parity != 1:
        ok = False
    record("parity_table", ok)

    # --- homogeneous projector as a sum of diagonal shifts
    ok = True
    for m in range(D + 1):
        total = FockOperator.zero(anti)
        for alpha in multi_indices_of_degree(n, m):
            total = total + rho_ab(anti, alpha, alpha)
        if not total.agrees_with(pi_m(anti, m), D):
            ok = False
    record("level_projector_sum", ok)

    # --- canonical commutators on both kinds
    ok = True
    for basis in (anti, full):
        low, high = ladder_matrices(basis)
        ident = FockOperator.identity(basis)
        for i in range(n):
            for j in range(n):
                comm = low[i] @ high[j] - high[j] @ low[i]
                want = ident if i == j else FockOperator.zero(basis)
                if not comm.agrees_with(want, D - 1):
                    ok = False
                if not (low[i] @ low[j] - low[j] @ low[i]).agrees_with(
                        FockOperator.zero(basis), D - 1):
                    ok = False
                if not (high[i] @ high[j] - high[j] @ high[i]).agrees_with(
                        FockOperator.zero(basis), D - 2):
                    ok = False
    record("ladder_commutators", ok)

    # --- the tangent representation is skew in the expected sense
    ok = True
    for i in range(n):
        u = [Fraction(0)] * n
        v = [Fraction(0)] * n
        u[i] = Fraction(1)
        v[i] = Fraction(1)
        left = rho_tangent(anti, u, [0] * n).adjoint()
        right = rho_tangent(anti, [0] * n, v).scale(-1)
        if not left.agrees_with(right, D - 1):
            ok = False
    record("tangent_adjoint", ok)

    # --- pairing structure on the full kind: diagonal factorials, orthonormal
    # pure blocks, orthonormal ladder-adapted frame
    ok = True
    zero = (0,) * n
    mis = multi_indices(n, min(D, 4))
    for a in mis:
        for b in mis:
            if sum(a) + sum(b) > D:
                continue
            mono = PolyZZbar.monomial(n, a, b)
            diag = bg.gram_inner(mono, mono)
            want = CRad.of(mi_factorial(tuple(ai + bi for ai, bi in zip(a, b))))
            if diag != want:
                ok = False
    for a in mis:
        for b in mis:
            na = PolyZZbar.monomial(n, zero, a, Rad.sqrt(Fraction(1, mi_factorial(a))))
            nb = PolyZZbar.monomial(n, zero, b, Rad.sqrt(Fraction(1, mi_factorial(b))))
            want = CRad.of(1 if a == b else 0)
            if bg.gram_inner(na, nb) != want:
                ok = False
            ha = PolyZZbar.monomial(n, a, zero, Rad.sqrt(Fraction(1, mi_factorial(a))))
            hb = PolyZZbar.monomial(n, b, zero, Rad.sqrt(Fraction(1, mi_factorial(b))))
            if bg.gram_inner(ha, hb) != want:
                ok = False
    frame = {}
    for alpha in multi_indices(n, 3):
        for hdeg in multi_indices(n, 3):
            if sum(alpha) + sum(hdeg) > D:
                continue
            frame[(alpha, hdeg)] = _ladder_frame_poly(n, alpha, hdeg)
    keys = list(frame)
    for x in keys:
        for y in rng.sample(keys, min(len(keys), 10)):
            want = CRad.of(1 if x == y else 0)
            if bg.gram_inner(frame[x], frame[y]) != want:
                ok = False
    record("gram_structure", ok)

    # --- normalized shifts on the full space: unitary between level blocks
    ok = True
    shift_pairs = [(a, b) for a in multi_indices(n, 2) for b in multi_indices(n, 2)]
    for alpha, beta in rng.sample(shift_pairs, min(len(shift_pairs), 10)):
        op = bg.tilde_rho(full, alpha, beta)
        for hdeg in multi_indices(n, min(3, D - max(sum(alpha), sum(beta)))):
            src = _ladder_frame_poly(n, beta, hdeg)
            img = op.apply_poly(src)
            want = _ladder_frame_poly(n, alpha, hdeg)
            if not (img - want).is_zero():
                ok = False
        # and it kills the other level blocks
        for beta2 in multi_indices(n, 2):
            if beta2 == beta or sum(beta2) + 1 > D:
                continue
            src = _ladder_frame_poly(n, beta2, zero)
            if not op.apply_poly(src).is_zero():
                ok = False
    record("tilde_unitary", ok)

    # --- restriction of the full-space shifts to the antiholomorphic space
    ok = True
    for alpha, beta in rng.sample(shift_pairs, min(len(shift_pairs), 12)):
        op = bg.tilde_rho(full, alpha, beta)
        for gamma in multi_indices(n, D - sum(alpha)):
            src = PolyZZbar.monomial(n, zero, gamma,
                                     Rad.sqrt(Fraction(1, mi_factorial(gamma))))
            img = op.apply_poly(src)
            if gamma == beta:
                want = PolyZZbar.monomial(n, zero, alpha,
                                          Rad.sqrt(Fraction(1, mi_factorial(alpha))))
            else:
                want = PolyZZbar(n, {})
            if not (img - want).is_zero():
                ok = False
    record("tilde_restriction", ok)

    # --- symbol map: Op of the p-symbol is the normalized shift
    ok = True
    if n == 1:
        sym_pairs = [((a,), (b,)) for a in range(D + 1) for b in range(D + 1)
                     if a + b <= D]
    else:
        sym_pairs = [(a, b) for a in multi_indices(n, 2) for b in multi_indices(n, 2)]
        extra = [(a, b) for a in multi_indices(n, D) for b in multi_indices(n, D)
                 if sum(a) + sum(b) <= D]
        sym_pairs += rng.sample(extra, min(len(extra), 25))
    for alpha, beta in sym_pairs:
        p = bg.p_ab(n, alpha, beta)
        if not bg.op_of(full, p).agrees_with(bg.tilde_rho(full, alpha, beta)):
            ok = False
    record("symbol_map", ok)

    # --- composition law of the symbol map
    ok = True
    test_symbols = [
        PolyZZbar(n, {(mi_unit(n, 0), mi_unit(n, 0)): 1}),
        PolyZZbar(n, {(zero, mi_unit(n, 0)): 1, (zero, zero): Fraction(1, 2)}),
        PolyZZbar(n, {(mi_unit(n, 0), zero): 2}),
    ]
    for q1 in test_symbols:
        for q2 in test_symbols:
            rep = bg.op_compose_law(full, q1, q2)
            if not rep["equal"]:
                ok = False
    record("compose_law", ok)

    # --- trace of the restricted operator reproduces the symbol at zero
    ok = True
    for q in test_symbols + [PolyZZbar(n, {(mi_unit(n, 0), mi_unit(n, 0)): 1,
                                           (zero, zero): 7})]:
        tr = bg.op_trace_antiholo(full, bg.op_of(full, q))
        if tr != q.coefficient(zero, zero):
            ok = False
    record("trace_law", ok)

    # --- Laguerre addition across variables
    ok = all(bg.laguerre_sum_identity(m, nn)
             for nn in range(1, 5) for m in range(0, min(9, 13 - nn)))
    record("laguerre_sum", ok)

    # --- diagonal p-symbols are the parameter-0 family of |z|^2
    ok = True
    if n == 1:
        for m in range(D // 2 + 1):
            p = bg.p_ab(1, (m,), (m,))
            ref = PolyZZbar(1, {((j,), (j,)): c
                                for j, c in enumerate(bg.laguerre_q(m, 0))})
            if not (p - ref).is_zero():
                ok = False
    else:
        for m in range(2):
            for alpha in multi_indices_of_degree(n, m):
                p = bg.p_ab(n, alpha, alpha)
                if p.coefficient(alpha, alpha) != CRad.of(
                        Rad.sqrt(Fraction(1, mi_factorial(alpha))) *
                        Rad.sqrt(Fraction(1, mi_factorial(alpha))) *
                        ((-1) ** sum(alpha))):
                    ok = False
    record("diagonal_symbols", ok)

    # --- twisted product order report (informational but must be consistent:
    # each probed pair matches applying the first factor's operator)
    star_rows = []
    ok = True
    probes = [
        (PolyZZbar.monomial(n, zero, mi_unit(n, 0)), PolyZZbar.monomial(n, mi_unit(n, 0), zero)),
        (PolyZZbar.monomial(n, mi_unit(n, 0), zero), PolyZZbar.monomial(n, zero, mi_unit(n, 0))),
        (PolyZZbar.monomial(n, mi_unit(n, 0), mi_unit(n, 0)), PolyZZbar.constant(n)),
    ]
    for u, v in probes:
        rep = bg.compare_star_orders(full, u, v)
        star_rows.append({"matches_op_uv": rep["matches_op_uv"],
                          "matches_op_vu": rep["matches_op_vu"]})
        if not (rep["matches_op_uv"] or rep["matches_op_vu"]):
            ok = False
    record("star_order_report", ok, detail=repr(star_rows))
    return results


def _ladder_frame_poly(n: int, alpha, hdeg) -> PolyZZbar:
    """Orthonormal ladder-adapted element: normalized (a*)^alpha z^hdeg."""
    zero = (0,) * n
    p = PolyZZbar.monomial(n, hdeg, zero,
                           Rad.sqrt(Fraction(1, mi_factorial(alpha) * mi_factorial(hdeg))))
    for i in range(n):
        for _ in range(alpha[i]):
            p = _apply_raise_var(p, i)
    return p


def _apply_raise_var(p: PolyZZbar, i: int) -> PolyZZbar:
    """Apply a_i* = zbar_i - d/dz_i to a polynomial."""
    n = p.n
    out: dict = {}
    for (a, b), c in p.terms():
        key = (a, tuple(x + (1 if j == i else 0) for j, x in enumerate(b)))
        cur = out.get(key)
        out[key] = c if cur is None else cur + c
        if a[i]:
            key2 = (tuple(x - (1 if j == i else 0) for j, x in enumerate(a)), b)
            term = c * (-a[i])
            cur2 = out.get(key2)
            out[key2] = term if cur2 is None else cur2 + term
    return PolyZZbar(n, out)
