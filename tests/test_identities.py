import pytest

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
