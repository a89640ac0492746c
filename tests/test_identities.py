from collections import Counter

import pytest

from landau_lab import bargmann, identities
from landau_lab.fock import PolyZZbar, mi_degree
from landau_lab.identities import run_identity_checks

EXPECTED_CHECKS = {
    "shift_compose",
    "shift_adjoint",
    "parity_table",
    "level_projector_sum",
    "ladder_commutators",
    "tangent_adjoint",
    "gram_structure",
    "tilde_unitary",
    "tilde_restriction",
    "symbol_map",
    "compose_law",
    "trace_law",
    "laguerre_sum",
    "diagonal_symbols",
    "star_order_report",
}


def test_suite_passes_one_variable():
    results = run_identity_checks(1, 6)
    names = {r["name"] for r in results}
    assert EXPECTED_CHECKS <= names
    for r in results:
        assert r["passed"], "%s failed: %s" % (r["name"], r["detail"])


def test_suite_passes_two_variables():
    results = run_identity_checks(2, 4)
    for r in results:
        assert r["passed"], "%s failed: %s" % (r["name"], r["detail"])


def test_rejects_out_of_range_arguments():
    with pytest.raises(ValueError):
        run_identity_checks(0, 4)
    with pytest.raises(ValueError):
        run_identity_checks(4, 4)
    with pytest.raises(ValueError):
        run_identity_checks(1, 1)
    with pytest.raises(ValueError):
        run_identity_checks(1, 9)


def test_seed_changes_sampling_not_outcome():
    a = run_identity_checks(1, 4, seed=1)
    b = run_identity_checks(1, 4, seed=2)
    assert all(r["passed"] for r in a)
    assert all(r["passed"] for r in b)


@pytest.mark.parametrize("n,degree,detail", [
    # At n = 1 every case has one variable: L_m(x_1) on both sides.
    (1, 4, "5 (m, n) cases, 0 with more than one variable"),
    (2, 4, "10 (m, n) cases, 5 with more than one variable"),
])
def test_laguerre_sum_detail_counts_its_cases(n, degree, detail):
    rec = next(r for r in run_identity_checks(n, degree)
               if r["name"] == "laguerre_sum")
    assert rec["passed"]
    assert rec["detail"] == detail


@pytest.mark.parametrize("n", [1, 2])
def test_star_order_detail_counts_its_probes(n):
    rec = next(r for r in run_identity_checks(n, 4)
               if r["name"] == "star_order_report")
    assert rec["passed"]
    assert rec["detail"] == "3 probes: 3 match Op(u) v, 1 matches Op(v) u"


def _parity_table(n, degree):
    return next(r for r in run_identity_checks(n, degree)
                if r["name"] == "parity_table")


@pytest.mark.parametrize("n,degree,detail", [
    (1, 4, "29 shifts, 20 compositions of three shifts"),
    (2, 4, "56 shifts, 20 compositions of three shifts"),
])
def test_parity_table_detail_counts_its_cases(n, degree, detail):
    rec = _parity_table(n, degree)
    assert rec["passed"]
    assert rec["detail"] == detail


@pytest.mark.parametrize("n", [1, 2])
def test_parity_table_reads_the_entries(monkeypatch, n):
    # rho_ab with its entry moved one degree up, to the row of alpha + e_1
    # wherever that fits under the cutoff: a parity tag set from |alpha| +
    # |beta| would still pass, the parity of the entries does not.
    shift = identities.rho_ab

    def misplaced(basis, alpha, beta):
        op = shift(basis, alpha, beta)
        up = (alpha[0] + 1,) + tuple(alpha[1:])
        if mi_degree(up) <= basis.D:
            op.entries = {(basis.index(up), basis.index(beta)): 1}
        return op

    monkeypatch.setattr(identities, "rho_ab", misplaced)
    assert not _parity_table(n, 4)["passed"]


@pytest.mark.parametrize("n,degree,details", [
    (1, 4, {"symbol_map": "15 (alpha, beta) shifts",
            "compose_law": "9 symbol pairs",
            "trace_law": "4 symbols",
            "diagonal_symbols": "3 symbols"}),
    (2, 4, {"symbol_map": "61 (alpha, beta) shifts",
            "compose_law": "9 symbol pairs",
            "trace_law": "4 symbols",
            "diagonal_symbols": "6 symbols"}),
])
def test_symbol_checks_count_their_cases(n, degree, details):
    recs = {r["name"]: r for r in run_identity_checks(n, degree)}
    for name, detail in details.items():
        assert recs[name]["passed"]
        assert recs[name]["detail"] == detail


@pytest.mark.parametrize("n,degree,details", [
    (1, 4, {"shift_compose": "588 products of two shifts",
            "shift_adjoint": "49 shifts",
            "level_projector_sum": "5 levels",
            "ladder_commutators": "2 commutators on the two kinds",
            "tangent_adjoint": "1 direction",
            "gram_structure": "15 diagonal, 50 pure-block and 130 frame pairings",
            "tilde_unitary": "9 shifts, 49 frame images",
            "tilde_restriction": "9 shifts, 36 unit images"}),
    # [a_i, a*_j] for all four (i, j), [a_i, a_j] and [a*_i, a*_j] for
    # i < j only: six relations on each kind
    (2, 4, {"shift_compose": "912 products of two shifts",
            "shift_adjoint": "76 shifts",
            "level_projector_sum": "5 levels",
            "ladder_commutators": "12 commutators on the two kinds",
            "tangent_adjoint": "2 directions",
            "gram_structure": "70 diagonal, 450 pure-block and 600 frame pairings",
            "tilde_unitary": "10 shifts, 122 frame images",
            "tilde_restriction": "12 shifts, 93 unit images"}),
])
def test_structural_checks_count_their_cases(n, degree, details):
    recs = {r["name"]: r for r in run_identity_checks(n, degree)}
    for name, detail in details.items():
        assert recs[name]["passed"]
        assert recs[name]["detail"] == detail


_TRUE_SHIFT_SYMBOL = bargmann._shift_symbol


def _plus_symbol(nvar, alpha, beta):
    """The integer symbol of (zbar + d/dz)^alpha (-z)^beta: the term
    z^(beta-j) zbar^(alpha-j) loses its (-1)^|j|."""
    return PolyZZbar(nvar, {(a, b): c * (-1) ** (sum(beta) - sum(a))
                            for (a, b), c in _TRUE_SHIFT_SYMBOL(nvar, alpha, beta).terms()})


@pytest.mark.parametrize("n", [1, 2])
def test_symbol_checks_fail_on_a_wrong_shift_symbol(monkeypatch, n):
    """The p-symbols of (zbar + d/dz)^alpha (-z)^beta: op_of's inverse
    expansion does not go through the shift symbols, so it does not undo
    the error, and symbol_map fails.  The diagonal ones are no longer
    products of Laguerre polynomials, which diagonal_symbols sees below
    the top degree."""
    assert _plus_symbol(1, (2,), (1,)) != _TRUE_SHIFT_SYMBOL(1, (2,), (1,))
    monkeypatch.setattr(bargmann, "_shift_symbol", _plus_symbol)
    recs = {r["name"]: r["passed"] for r in run_identity_checks(n, 4)}
    assert not recs["symbol_map"]
    assert not recs["diagonal_symbols"]


@pytest.mark.parametrize("n", [1, 2])
def test_symbol_map_fails_on_an_extra_coefficient(monkeypatch, n):
    """An expansion that gives S(e_1, 0) = zbar_1 a second coefficient, on
    the vacuum shift, makes Op(zbar_1) differ from T(e_1, 0); symbol_map
    sees it, and so does the star order probe that reads Op(zbar_1)."""
    true = bargmann._shift_coefficients
    unit, zero = (1,) + (0,) * (n - 1), (0,) * n

    def extra(nvar, q):
        out = true(nvar, q)
        return {**out, (zero, zero): 1} if out == {(unit, zero): 1} else out

    monkeypatch.setattr(bargmann, "_shift_coefficients", extra)
    failed = {r["name"] for r in run_identity_checks(n, 4) if not r["passed"]}
    assert failed == {"symbol_map", "star_order_report"}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("plant", ["constant", "dropped term"])
def test_a_wrong_twisted_product_fails_the_compose_law(monkeypatch, n, plant):
    """The composition law compares Op(q1) Op(q2) with the operator of the
    twisted product, so a twisted product with a unit constant added, or
    with its last term dropped, fails it, and the star order probes too."""
    true = bargmann.star_product

    def wrong(u, v):
        w = true(u, v)
        if plant == "constant":
            return w + PolyZZbar.constant(u.n)
        *keep, _ = w.terms()
        return PolyZZbar(u.n, dict(keep))

    monkeypatch.setattr(bargmann, "star_product", wrong)
    failed = {r["name"] for r in run_identity_checks(n, 4) if not r["passed"]}
    assert failed == {"compose_law", "star_order_report"}


@pytest.mark.parametrize("n,degree", [(1, 8), (2, 4)])
def test_each_p_symbol_is_built_once_per_run(monkeypatch, n, degree):
    """The frames, symbol_map and diagonal_symbols read one table of
    integer shift symbols (the unnormalized p-symbols), filled afresh by
    every run."""
    built = Counter()

    def counting(nvar, alpha, beta):
        built[(tuple(alpha), tuple(beta))] += 1
        return _TRUE_SHIFT_SYMBOL(nvar, alpha, beta)

    monkeypatch.setattr(bargmann, "_shift_symbol", counting)
    runs = []
    for _ in range(2):
        built.clear()
        assert all(r["passed"] for r in run_identity_checks(n, degree))
        assert set(built.values()) == {1}
        runs.append(set(built))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("n", [1, 2])
def test_a_wrong_stated_factor_fails_each_check_that_states_one(monkeypatch, n):
    """The full-kind checks compare integer forms against stated factorial
    factors: squared norms a! and alpha! h!, the image factor beta!, the
    diagonal symbol's alpha!.  A factorial that is one too large at every
    multi-index of degree 1, where the true value is 1, fails exactly the
    checks that state a factor."""
    true_factorial = identities.mi_factorial
    monkeypatch.setattr(identities, "mi_factorial",
                        lambda a: true_factorial(a) + (mi_degree(a) == 1))
    failed = {r["name"] for r in run_identity_checks(n, 4) if not r["passed"]}
    assert failed == {"gram_structure", "tilde_unitary", "tilde_restriction",
                      "diagonal_symbols"}


@pytest.mark.parametrize("n", [1, 2])
def test_symbol_tables_do_not_outlive_a_run(monkeypatch, n):
    """A run with wrong shift symbols leaves nothing that a clean run reads,
    and a clean run leaves nothing that hides them from the next."""
    def symbol_map_passes():
        return next(r for r in run_identity_checks(n, 4)
                    if r["name"] == "symbol_map")["passed"]

    monkeypatch.setattr(bargmann, "_shift_symbol", _plus_symbol)
    assert not symbol_map_passes()
    monkeypatch.setattr(bargmann, "_shift_symbol", _TRUE_SHIFT_SYMBOL)
    assert symbol_map_passes()
    monkeypatch.setattr(bargmann, "_shift_symbol", _plus_symbol)
    assert not symbol_map_passes()
