"""Zero-tolerance identity suite for the exact operator algebra.

Every check here is decided in exact arithmetic: a check passes only when the
residual is identically zero (or the structural property holds verbatim).
The suite backs both the command-line ledger and the acceptance tests.

The full-kind checks run on the unnormalized forms: the integer shift
symbols S(alpha, beta), the frames (-1)^|h| S(alpha, h) and the integer
shifts T(alpha, beta) = (a*)^alpha P_vac a^beta.  Conjugation by
diag(sqrt(alpha!)) carries them to the paper's normalized ones, so each
normalized statement is checked in its integer form with its stated
rational factor: the plain monomials and the frames are orthogonal with
squared norms alpha! and alpha! h!, T(alpha, beta) takes the (beta, h)
frame to beta! times the (alpha, h) frame, and S(alpha, alpha) is alpha!
times a product of Laguerre polynomials.  No square root enters them:
gram_structure compares bargmann.pairing's ints with the stated norms.
symbol_map checks that bargmann._shift_coefficients expands each
S(alpha, beta) to the single coefficient 1 on (alpha, beta); Op(q) sums
q's coefficients times their shifts, so that is Op(S(alpha, beta)) =
T(alpha, beta), and it builds no matrix.

An object that several checks, or several cases of one check, read is built
once per run: the shift symbols and the ladder frames made from them, in
tables local to run_identity_checks, and the rank-one shifts, in the cache
of the run's antiholomorphic basis.  A run reads nothing that an earlier
run built.
Each ladder commutator relation is composed once: [a_i, a_j] and
[a*_i, a*_j] for i < j only.  Every record says how many cases it checked.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

from . import bargmann as bg
from .fock import (ANTIHOLOMORPHIC, FULL, FockOperator, GradedBasis, PolyZZbar,
                   ladder_matrices, mi_add, mi_degree, mi_factorial, mi_unit,
                   multi_indices, multi_indices_of_degree, pi_m, rho_ab,
                   rho_tangent)


def _pair_sample(labels, rng, exhaustive_degree: int, sample: int):
    """All label pairs with both degrees <= exhaustive_degree, plus a random
    sample of arbitrary pairs."""
    small = [a for a in labels if mi_degree(a) <= exhaustive_degree]
    pairs = [(a, b) for a in small for b in small]
    for _ in range(sample):
        pairs.append((rng.choice(labels), rng.choice(labels)))
    return pairs


def input_problem(n: int, degree: int) -> str | None:
    """Why the suite does not take this variable count and cutoff, or None."""
    if not 1 <= n <= 3:
        return "n must be between 1 and 3"
    if not 2 <= degree <= 8:
        return "degree must be between 2 and 8"
    return None


def run_identity_checks(n: int, degree: int, seed: int = 0) -> list[dict]:
    """Run the suite for the given variable count and cutoff; returns one
    record per check with name, passed flag, and detail."""
    problem = input_problem(n, degree)
    if problem:
        raise ValueError(problem)
    rng = random.Random(seed)
    results: list[dict] = []

    def record(name, passed, detail=""):
        results.append({"name": name, "passed": bool(passed), "detail": detail})

    D = degree
    anti = GradedBasis(n, D, ANTIHOLOMORPHIC)
    full = GradedBasis(n, D, FULL)
    labels = list(anti.labels)

    # The integer shift symbols and the ladder frames made from them, keyed
    # by (alpha, beta) and built on first read: the frames feed
    # gram_structure and tilde_unitary, the symbols symbol_map and
    # diagonal_symbols too.
    symbols: dict = {}
    frames: dict = {}

    def shift_symbol(alpha, beta) -> PolyZZbar:
        if (alpha, beta) not in symbols:
            symbols[alpha, beta] = bg._shift_symbol(n, alpha, beta)
        return symbols[alpha, beta]

    def frame(alpha, hdeg) -> PolyZZbar:
        """Ladder-adapted element (a*)^alpha z^hdeg, of squared norm
        alpha! hdeg!: (-1)^|hdeg| times the (alpha, hdeg) shift symbol."""
        if (alpha, hdeg) not in frames:
            p = shift_symbol(alpha, hdeg)
            frames[alpha, hdeg] = -p if mi_degree(hdeg) % 2 else p
        return frames[alpha, hdeg]

    # --- shift relations rho_ab . rho_a'b' = delta_{b,a'} rho_ab'
    ok = True
    pairs = _pair_sample(labels, rng, 2, 40)
    partners = min(len(pairs), 12)
    for a1, b1 in pairs:
        left = rho_ab(anti, a1, b1)
        for a2, b2 in rng.sample(pairs, partners):
            lhs = left @ rho_ab(anti, a2, b2)
            rhs = rho_ab(anti, a1, b2) if b1 == a2 else FockOperator.zero(anti)
            if not lhs.agrees_with(rhs, D):
                ok = False
    record("shift_compose", ok, detail="%d products of two shifts"
           % (len(pairs) * partners))

    # --- adjoint exchanges the indices
    adjoint_pairs = _pair_sample(labels, rng, 2, 40)
    ok = all(rho_ab(anti, a, b).adjoint().agrees_with(
        rho_ab(anti, b, a), D - abs(mi_degree(a) - mi_degree(b)))
        for a, b in adjoint_pairs)
    record("shift_adjoint", ok, detail="%d shifts" % len(adjoint_pairs))

    # --- parity, read off the entries: a shift rho_ab has the parity of
    # |a| + |b|, a chain of shifts through matching indices is nonzero with
    # the sum of its factors' parities, and parity_split recovers the operator
    ok = True
    shifts = _pair_sample(labels, rng, 2, 20)
    for a, b in shifts:
        if rho_ab(anti, a, b).parity != (mi_degree(a) + mi_degree(b)) % 2:
            ok = False
    chains = 20
    for _ in range(chains):
        a1, b1 = rng.choice(labels), rng.choice(labels)
        a2, b2 = rng.choice(labels), rng.choice(labels)
        factors = (rho_ab(anti, a1, b1), rho_ab(anti, b1, a2), rho_ab(anti, a2, b2))
        C = factors[0] @ factors[1] @ factors[2]
        if C.is_zero() or C.parity != sum(f.parity for f in factors) % 2:
            ok = False
    mixed = rho_ab(anti, labels[0], labels[0]) + rho_tangent(
        anti, [1] * n, [0] * n)
    ev, od = mixed.parity_split()
    if not (ev + od).agrees_with(mixed, D) or ev.parity != 0 or od.parity != 1:
        ok = False
    record("parity_table", ok, detail="%d shifts, %d compositions of three "
           "shifts" % (len(shifts), chains))

    # --- homogeneous projector as a sum of diagonal shifts
    ok = True
    for m in range(D + 1):
        total = FockOperator.zero(anti)
        for alpha in multi_indices_of_degree(n, m):
            total = total + rho_ab(anti, alpha, alpha)
        if not total.agrees_with(pi_m(anti, m), D):
            ok = False
    record("level_projector_sum", ok, detail="%d levels" % (D + 1))

    # --- canonical commutators on both kinds.  [a_i, a*_j] is checked for
    # every (i, j); [a_i, a_j] and [a*_i, a*_j] only for i < j, since they
    # vanish identically at i = j and change sign under i <-> j.
    ok = True
    relations = 0
    for basis in (anti, full):
        low, high = ladder_matrices(basis)
        ident = FockOperator.identity(basis)
        nil = FockOperator.zero(basis)
        for i in range(n):
            for j in range(n):
                comm = low[i] @ high[j] - high[j] @ low[i]
                if not comm.agrees_with(ident if i == j else nil, D - 1):
                    ok = False
                relations += 1
                if i >= j:
                    continue
                if not (low[i] @ low[j] - low[j] @ low[i]).agrees_with(nil, D - 1):
                    ok = False
                if not (high[i] @ high[j] - high[j] @ high[i]).agrees_with(nil, D - 2):
                    ok = False
                relations += 2
    record("ladder_commutators", ok, detail="%d commutators on the two kinds"
           % relations)

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
    record("tangent_adjoint", ok, detail="%d %s" % (
        n, "direction" if n == 1 else "directions"))

    # --- pairing structure on the full kind: diagonal factorials, orthogonal
    # pure blocks of squared norm a!, orthogonal ladder-adapted frame of
    # squared norm alpha! hdeg!
    ok = True
    zero = (0,) * n
    mis = multi_indices(n, min(D, 4))
    diagonal = 0
    for a in mis:
        for b in mis:
            if sum(a) + sum(b) > D:
                continue
            diagonal += 1
            mono = PolyZZbar.monomial(n, a, b)
            if bg.pairing(mono, mono) != mi_factorial(mi_add(a, b)):
                ok = False
    antis = {a: PolyZZbar.monomial(n, zero, a) for a in mis}
    holos = {a: PolyZZbar.monomial(n, a, zero) for a in mis}
    for a in mis:
        for b in mis:
            want = mi_factorial(a) if a == b else 0
            if bg.pairing(antis[a], antis[b]) != want:
                ok = False
            if bg.pairing(holos[a], holos[b]) != want:
                ok = False
    mis3 = multi_indices(n, 3)
    keys = [(alpha, hdeg) for alpha in mis3 for hdeg in mis3
            if sum(alpha) + sum(hdeg) <= D]
    partners = min(len(keys), 10)
    for x in keys:
        for y in rng.sample(keys, partners):
            want = mi_factorial(x[0]) * mi_factorial(x[1]) if x == y else 0
            if bg.pairing(frame(*x), frame(*y)) != want:
                ok = False
    record("gram_structure", ok, detail="%d diagonal, %d pure-block and %d "
           "frame pairings" % (diagonal, 2 * len(mis) ** 2, len(keys) * partners))

    # --- shifts on the full space: T(alpha, beta) takes each (beta, hdeg)
    # frame to beta! times the (alpha, hdeg) frame
    ok = True
    mis2 = multi_indices(n, 2)
    shift_pairs = [(a, b) for a in mis2 for b in mis2]
    shifts = rng.sample(shift_pairs, min(len(shift_pairs), 10))
    images = 0
    for alpha, beta in shifts:
        op = bg._shift(full, alpha, beta)
        for hdeg in multi_indices(n, min(3, D - max(sum(alpha), sum(beta)))):
            img = op.apply_poly(frame(beta, hdeg))
            if not (img - frame(alpha, hdeg) * mi_factorial(beta)).is_zero():
                ok = False
            images += 1
        # and it kills the other level blocks
        for beta2 in mis2:
            if beta2 == beta or sum(beta2) + 1 > D:
                continue
            if not op.apply_poly(frame(beta2, zero)).is_zero():
                ok = False
            images += 1
    record("tilde_unitary", ok, detail="%d shifts, %d frame images"
           % (len(shifts), images))

    # --- restriction of the full-space shifts to the antiholomorphic space:
    # T(alpha, beta) takes zbar^beta to beta! zbar^alpha and kills the other
    # monomials zbar^gamma
    ok = True
    shifts = rng.sample(shift_pairs, min(len(shift_pairs), 12))
    images = 0
    for alpha, beta in shifts:
        op = bg._shift(full, alpha, beta)
        for gamma in multi_indices(n, D - sum(alpha)):
            img = op.apply_poly(PolyZZbar.monomial(n, zero, gamma))
            if gamma == beta:
                img = img - PolyZZbar.monomial(n, zero, alpha, mi_factorial(beta))
            if not img.is_zero():
                ok = False
            images += 1
    record("tilde_restriction", ok, detail="%d shifts, %d unit images"
           % (len(shifts), images))

    # --- symbol map: the shift symbol S(alpha, beta) expands to the single
    # coefficient 1 on itself, so Op(S(alpha, beta)) = T(alpha, beta)
    ok = True
    if n == 1:
        sym_pairs = [((a,), (b,)) for a in range(D + 1) for b in range(D + 1)
                     if a + b <= D]
    else:
        sym_pairs = list(shift_pairs)
        mis_D = multi_indices(n, D)
        extra = [(a, b) for a in mis_D for b in mis_D if sum(a) + sum(b) <= D]
        sym_pairs += rng.sample(extra, min(len(extra), 25))
    for alpha, beta in sym_pairs:
        if bg._shift_coefficients(n, shift_symbol(alpha, beta)) != {(alpha, beta): 1}:
            ok = False
    record("symbol_map", ok, detail="%d (alpha, beta) shifts" % len(sym_pairs))

    # --- composition law of the symbol map
    test_symbols = [
        PolyZZbar(n, {(mi_unit(n, 0), mi_unit(n, 0)): 1}),
        PolyZZbar(n, {(zero, mi_unit(n, 0)): 1, (zero, zero): Fraction(1, 2)}),
        PolyZZbar(n, {(mi_unit(n, 0), zero): 2}),
    ]
    ok = all(bg.op_compose_law(full, q1, q2)
             for q1 in test_symbols for q2 in test_symbols)
    record("compose_law", ok, detail="%d symbol pairs" % (len(test_symbols) ** 2))

    # --- trace of the restricted operator reproduces the symbol at zero
    ok = True
    trace_symbols = test_symbols + [PolyZZbar(n, {(mi_unit(n, 0), mi_unit(n, 0)): 1,
                                                  (zero, zero): 7})]
    for q in trace_symbols:
        tr = bg.op_trace_antiholo(full, bg.op_of(full, q))
        if tr != q.coefficient(zero, zero):
            ok = False
    record("trace_law", ok, detail="%d symbols" % len(trace_symbols))

    # --- Laguerre addition across variables, up to this input's n and degree
    cases = [(m, nn) for nn in range(1, n + 1) for m in range(0, min(D, 12 - nn) + 1)]
    ok = all(bg.laguerre_sum_identity(m, nn) for m, nn in cases)
    record("laguerre_sum", ok, detail="%d (m, n) cases, %d with more than one "
           "variable" % (len(cases), sum(nn > 1 for _, nn in cases)))

    # --- the diagonal shift symbol S(alpha, alpha) is alpha! times a product
    # of the parameter-0 family of |z_i|^2
    ok = True
    diagonal = multi_indices(n, D // 2)
    for alpha in diagonal:
        family = [bg.laguerre_q(ai, 0) for ai in alpha]
        ref = {(j, j): prod(coeffs[ji] for coeffs, ji in zip(family, j))
               for j in itertools.product(*[range(ai + 1) for ai in alpha])}
        if shift_symbol(alpha, alpha) != PolyZZbar(n, ref) * mi_factorial(alpha):
            ok = False
    record("diagonal_symbols", ok, detail="%d symbols" % len(diagonal))

    # --- twisted product order report (informational but must be consistent:
    # each probed pair matches applying one factor's operator to the other)
    probes = [
        (PolyZZbar.monomial(n, zero, mi_unit(n, 0)), PolyZZbar.monomial(n, mi_unit(n, 0), zero)),
        (PolyZZbar.monomial(n, mi_unit(n, 0), zero), PolyZZbar.monomial(n, zero, mi_unit(n, 0))),
        (PolyZZbar.monomial(n, mi_unit(n, 0), mi_unit(n, 0)), PolyZZbar.constant(n)),
    ]
    reps = [bg.compare_star_orders(full, u, v) for u, v in probes]
    uv = sum(rep["matches_op_uv"] for rep in reps)
    vu = sum(rep["matches_op_vu"] for rep in reps)
    ok = all(rep["matches_op_uv"] or rep["matches_op_vu"] for rep in reps)
    record("star_order_report", ok, detail="%d probes: %d %s Op(u) v, %d %s Op(v) u" % (
        len(reps), uv, "matches" if uv == 1 else "match",
        vu, "matches" if vu == 1 else "match"))
    return results
