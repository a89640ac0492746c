"""Tests of the benchmark itself: each check rejects a wrong answer, a wrong
answer makes the run's result incorrect, the ring reference agrees with the
program's solver, and the trace survives names that are gone.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import json
from fractions import Fraction

import numpy as np
import pytest

import checks
import layertrace
import run
import worker
from landau_lab import bargmann, cli, torus
from landau_lab.fock import PolyZZbar
from landau_lab.radicals import Rad

SMALL = {"kind": "torus", "d": 1, "ks": [2, 3], "N": 24, "levels": 2}


@pytest.mark.parametrize("d,k,N", [(1, 2, 16), (2, 1, 16), (1, 3, 24),
                                   # gcd(kd, N^2) = 8 does not divide N = 20
                                   (1, 8, 20)])
def test_ring_reference_matches_lowest_spectrum(d, k, N):
    count = 3 * k * d + 4
    bundle = torus.DiscreteBundle(torus.TorusGeometry(d), k, N)
    dec = torus.lowest_spectrum(bundle, count)
    ref = checks.ring_spectrum(d, k, N, count)
    assert np.max(np.abs(ref - dec.eigenvalues)) <= 1e-10 * np.max(ref)


def _torus_output(tmp_path, spec):
    out = tmp_path / "report.json"
    argv = ["--out", str(out), "torus", "--d", str(spec["d"]),
            "--k", ",".join(map(str, spec["ks"])), "--grid", str(spec["N"]),
            "--levels", str(spec["levels"])]
    if spec.get("observables"):
        argv += ["--defects", "cosx", "siny", "--kernel-compare", "--ladder", "m=1"]
    assert cli.main(argv) == 0
    report, eigen = checks.read_torus_output(out)
    refs = {(spec["d"], k, spec["N"]):
            checks.ring_spectrum(spec["d"], k, spec["N"], len(eigen[k]))
            for k in spec["ks"]}
    return report, eigen, refs


@pytest.fixture(scope="module")
def torus_output(tmp_path_factory):
    return _torus_output(tmp_path_factory.mktemp("torus"), SMALL)


def test_torus_check_passes_real_output(torus_output):
    assert checks.check_torus(SMALL, *torus_output) == []


def test_torus_check_rejects_perturbed_eigenvalue(torus_output):
    report, eigen, refs = copy.deepcopy(torus_output)
    eigen[3][5] *= 1 + 1e-6
    problems = checks.check_torus(SMALL, report, eigen, refs)
    assert any("ring reference" in p for p in problems)


def test_torus_check_rejects_count_off_by_one(torus_output):
    report, eigen, refs = copy.deepcopy(torus_output)
    report["clusters"]["2"][1]["count"] += 1
    assert checks.check_torus(SMALL, report, eigen, refs)


def test_torus_check_rejects_drifted_centre(torus_output):
    report, eigen, refs = copy.deepcopy(torus_output)
    report["clusters"]["3"][0]["mean_scaled"] += 0.2
    assert checks.check_torus(SMALL, report, eigen, refs)


def test_observables_check_rejects_wrong_properties(tmp_path):
    spec = dict(SMALL, ks=[4, 6], N=32, observables=True)
    report, eigen, refs = _torus_output(tmp_path, spec)
    assert checks.check_torus(spec, report, eigen, refs) == []
    bad = copy.deepcopy(report)
    bad["kernel_compare"][0]["diag_err"] = 0.6          # above 2/k at k = 4
    assert checks.check_torus(spec, bad, eigen, refs)
    bad = copy.deepcopy(report)
    bad["defects"]["D1"].reverse()                       # grows with k
    assert checks.check_torus(spec, bad, eigen, refs)


def test_ledger_check_rejects_failed_record(tmp_path):
    out = tmp_path / "fock.json"
    assert cli.main(["--out", str(out), "fock", "--check-identities",
                     "--n", "1", "--degree", "3"]) == 0
    report = json.loads(out.read_text())
    assert checks.check_ledger(report) == []
    bad = copy.deepcopy(report)
    bad["identities"][3]["passed"] = False
    assert checks.check_ledger(bad)
    bad = copy.deepcopy(report)
    bad["all_passed"] = False
    assert checks.check_ledger(bad)
    assert checks.check_ledger({"identities": [], "all_passed": True})


def _sympy(**override):
    parts = {"laguerre_q": bargmann.laguerre_q,
             "gram_inner": bargmann.gram_inner,
             "poly_monomial": lambda a, b: PolyZZbar.monomial(1, a, b),
             "rad_sqrt": Rad.sqrt}
    parts.update(override)
    return checks.sympy_sample(5, size=12, **parts)


def test_sympy_sample_agrees_with_program():
    assert _sympy() == []


def test_sympy_sample_rejects_wrong_scalars():
    def laguerre(m, p):
        coeffs = bargmann.laguerre_q(m, p)
        return coeffs[:-1] + [coeffs[-1] * 2]

    def gram(f, g):
        return bargmann.gram_inner(f, g) * 2

    def sqrt(q):
        return Rad.sqrt(q * Fraction(4, 1))

    assert _sympy(laguerre_q=laguerre)
    assert _sympy(gram_inner=gram)
    assert _sympy(rad_sqrt=sqrt)


def test_tally_counts_wrong_output_as_failed_and_incorrect():
    tally = run.Tally()
    tally.operation("a", 0, lambda: [])
    assert (tally.attempted, tally.failed, tally.correct) == (1, 0, True)
    tally.operation("b", 0, lambda: ["count 5, want 4"])
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)
    assert tally.problems == ["b: count 5, want 4"]


def test_tally_counts_an_erring_operation_without_checking_it():
    tally = run.Tally()
    tally.operation("a", 1, lambda: pytest.fail("output of a failed operation checked"))
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, True)
    tally.setup("warm", 0, lambda: ["centre off"])
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


def _stubbed_run(monkeypatch, tmp_path, capsys, check):
    """run.main on exact-ledger with workers and checks stubbed out."""
    def fake_worker(job, timeout):
        result = {"ready_at": 0.0, "setup_rc": [0] * len(job["warm"]),
                  "passes": [1.0], "probes": [0.1, 0.1],
                  "outcomes": [[0] * len(job["ops"])], "maxrss_kb": 1024}
        return result, 0.5

    monkeypatch.setattr(run, "HERE", tmp_path)
    monkeypatch.setattr(run, "run_worker", fake_worker)
    monkeypatch.setattr(run.Checker, "check", lambda self, spec, path: check(spec))
    assert run.main(["--workload", "exact-ledger", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_run_with_a_failing_check_reports_incorrect(monkeypatch, tmp_path, capsys):
    ok = _stubbed_run(monkeypatch, tmp_path, capsys, lambda spec: [])
    assert (ok["correct"], ok["attempted"], ok["failed"]) == (True, 15, 0)
    bad = _stubbed_run(monkeypatch, tmp_path, capsys,
                       lambda spec: ["identity x failed"] if spec["n"] == 2 else [])
    assert (bad["correct"], bad["attempted"], bad["failed"]) == (False, 15, 5)


def test_scaled_passes_use_the_median_probe():
    # A machine at half the reference speed, with one stray slow probe.
    assert run.scaled_passes([4.0, 6.0], [0.2, 0.2, 0.9], 0.1) == \
        pytest.approx([2.0, 3.0])


def test_probe_takes_about_its_reference_time():
    probe = worker.SpeedProbe()
    assert 0.2 * worker.PROBE_REF_S < min(probe.run() for _ in range(3)) \
        < 5 * worker.PROBE_REF_S


def test_trace_reports_missing_names_as_absent(monkeypatch):
    original = torus.compute_spectrum
    monkeypatch.setattr(layertrace, "SPAN_HOOKS", layertrace.SPAN_HOOKS + (
        ("landau_lab.torus", "eigsh_rings", "torus.rings"),
        ("landau_lab.torus", "NoSuchProjector.__init__", "torus.projector"),
        ("landau_lab.no_such_module", "solve", "x.solve")))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert torus.compute_spectrum is not original
    finally:
        tracer.uninstall()
    assert torus.compute_spectrum is original
    assert "landau_lab.torus:eigsh_rings" in tracer.absent
    assert "landau_lab.torus:NoSuchProjector.__init__" in tracer.absent
    assert "landau_lab.no_such_module:solve" in tracer.absent


def test_trace_layers_of_a_small_run(tmp_path):
    torus._SPECTRUM_CACHE.clear()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert cli.main(["--out", str(tmp_path / "t.json"), "torus", "--d", "1",
                         "--k", "2", "--grid", "16", "--levels", "2"]) == 0
        assert cli.main(["--out", str(tmp_path / "f.json"), "fock",
                         "--check-identities", "--n", "1", "--degree", "3"]) == 0
    finally:
        tracer.uninstall()
    assert "bool" not in vars(__import__("landau_lab.identities").identities)
    m = layertrace.layer_metrics(tracer)
    assert m["torus.spectrum_calls"] == 1 and m["torus.spectrum_reuse"] == 0
    assert m["torus.solve_calls"] > 0 and m["torus.laplacian_calls"] >= 1
    assert 0 < m["torus.arpack_self_s"] < m["torus.eigsh_s"] < m["cli.main_s"]
    assert m["torus.spectrum_mb"] == pytest.approx((3 * 2 + 4) * 256 * 16 / 1e6)
    assert m["fock.compose_calls"] > 0 and m["radicals.crad_mul_calls"] > 0
    report = json.loads((tmp_path / "f.json").read_text())
    names = [r["name"] for r in report["identities"] if r["name"] != "elapsed_seconds"]
    assert sorted(k for k in m if k.startswith("identities.")) == sorted(
        "identities.%s_s" % n for n in names)


def test_reset_forgets_cached_spectra():
    torus.compute_spectrum(1, 2, 16, count=6)
    assert torus._SPECTRUM_CACHE
    worker.reset_program_caches()
    assert not torus._SPECTRUM_CACHE
