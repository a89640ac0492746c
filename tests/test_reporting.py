import csv
import json
import math
from datetime import datetime

import numpy as np
import pytest

from landau_lab import torus
from landau_lab.cli import build_parser, main
from landau_lab.reporting import SCHEMA_VERSION, emit_report, fit_slope, write_csv


def _run(argv):
    """The report body and CSV table that the runner argv picks returns."""
    args = build_parser().parse_args(argv)
    return args.run(args)


def test_fit_slope_exact_power_law():
    ks = [4, 6, 8, 10, 12]
    ys = [k ** -2.0 for k in ks]
    fit = fit_slope(ks, ys)
    assert abs(fit.slope + 2.0) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12
    assert fit.points == 5


def test_fit_slope_constant_sequence():
    fit = fit_slope([1, 2, 3, 4], [7.0] * 4)
    assert abs(fit.slope) < 1e-12
    assert fit.r_squared == 1.0


def test_fit_slope_noisy_data():
    rng = np.random.default_rng(5)
    ks = np.arange(4, 30)
    ys = ks ** -1.0 * np.exp(0.1 * rng.standard_normal(len(ks)))
    fit = fit_slope(ks, ys)
    assert abs(fit.slope + 1.0) < 0.2
    assert fit.r_squared > 0.9


def test_fit_slope_input_guards():
    with pytest.raises(ValueError):
        fit_slope([1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError):
        fit_slope([1, 2, 3, 4], [1, -2, 3, 4])
    with pytest.raises(ValueError):
        fit_slope([0, 2, 3, 4], [1, 2, 3, 4])
    with pytest.raises(ValueError):
        fit_slope([1, 2, 3, 4], [1, 2, 3])


def test_emit_report_deterministic_apart_from_its_timestamp(tmp_path):
    body = {"b": 2, "a": {"y": 1, "x": [3, 1]}}
    first = emit_report(body)
    second = emit_report(body, path=tmp_path / "r.json")
    assert (tmp_path / "r.json").read_text() == second
    docs = [json.loads(text) for text in (first, second)]
    stamps = [doc.pop("generated_at") for doc in docs]
    assert docs[0] == docs[1] == dict(body, schema_version=SCHEMA_VERSION)
    assert all(datetime.fromisoformat(t).tzinfo is not None for t in stamps)
    # the timestamp is the only line that differs
    assert [line for line in first.splitlines() if "generated_at" not in line] == \
        [line for line in second.splitlines() if "generated_at" not in line]
    # keys are sorted for stable diffs
    assert first.index('"a"') < first.index('"b"')


def test_emit_report_reserved_keys():
    with pytest.raises(ValueError):
        emit_report({"schema_version": 2})
    with pytest.raises(ValueError):
        emit_report({"generated_at": "now"})


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]


def test_run_fock_experiment():
    body, _ = _run(["fock", "--check-identities", "--n", "1", "--degree", "3"])
    assert body["all_passed"] is True
    names = [r["name"] for r in body["identities"]]
    assert "shift_compose" in names


def test_run_surface_experiment_from_field():
    body, _ = _run(["surface", "--genus", "2", "--B", "5", "--area-over-pi", "4",
                    "--levels", "2"])
    rows = body["surface"]["rows"]
    assert rows[1]["eigenvalue"] == "13/2"
    assert rows[1]["multiplicity"] == 7


def test_run_dim_experiment():
    body, _ = _run(["dim", "--torus", "d=1:1", "--k", "3", "--m", "2"])
    assert body["reports"][0]["value"] == 27
    assert body["composition"]["match"] is True


def test_run_torus_experiment_smoke(monkeypatch):
    monkeypatch.setattr(torus, "_SPECTRUM_CACHE", {})  # solve for this count
    body, (_, rows) = _run(["torus", "--d", "1", "--k", "4", "--grid", "32",
                            "--levels", "2", "--m", "0"])
    assert body["dims"]["4"] == {"0": 4, "1": 4}
    assert body["residuals"]["4"] < 1e-8
    # levels 0..1 ask for 3 * k*d + 4 = 16 eigenvalues of 4 rings of 256 sites
    assert body["solver"]["4"] == {"rings": 4, "ring_sites": 256, "classes": 1,
                                   "sectors": 1, "shares": [4, 4, 4, 4],
                                   "residual_bound": pytest.approx(1e-9 * 2048 / math.pi,
                                                                   rel=1e-15)}
    assert body["eigenvalue_rows"] == len(rows)
    # the remaining body must serialize cleanly
    emit_report(body)


def test_torus_run_solves_each_power_once(monkeypatch):
    # With the cache off, every block that asked for a spectrum of its own
    # would solve again.  The defects read level 2 and the ladder level 3,
    # above --levels 2, so the one solve per k resolves levels 0..3:
    # (3 + 2) * k*d + 4 eigenvalues.
    monkeypatch.setattr(torus, "_SPECTRUM_CACHE", {})
    monkeypatch.setattr(torus, "SPECTRUM_CACHE_BYTES", 0)
    solve, calls = torus.lowest_spectrum, []

    def counting(bundle, count):
        calls.append((bundle.k, count))
        return solve(bundle, count)

    monkeypatch.setattr(torus, "lowest_spectrum", counting)
    body, _ = _run(["torus", "--d", "1", "--k", "4,6", "--grid", "32", "--levels", "2",
                    "--m", "2", "--defects", "cosx", "siny", "--kernel-compare",
                    "--ladder", "m=3"])
    assert calls == [(4, 24), (6, 34)]
    assert body["dims"] == {"4": {"0": 4, "1": 4}, "6": {"0": 6, "1": 6}}
    assert body["eigenvalue_rows"] == 24 + 34
    assert [r["k"] for r in body["kernel_compare"]] == [4, 4, 6, 6]
    assert [r["k"] for r in body["ladder"]] == [4, 6]
    assert len(body["defects"]["D2"]) == 2


def test_torus_run_builds_each_cluster_projector_once(monkeypatch):
    # --defects (level 0), --kernel-compare (levels 0, 1) and --ladder m=1
    # (levels 0, 1) need two cluster projectors per k; each is built once,
    # with its guards, and kept by its spectrum for as long as the spectrum
    # cache keeps that.
    monkeypatch.setattr(torus, "_SPECTRUM_CACHE", {})
    init, built = torus.LandauProjector.__init__, []

    def counting(self, dec, m):
        built.append((dec.bundle.k, m))
        init(self, dec, m)

    monkeypatch.setattr(torus.LandauProjector, "__init__", counting)
    cfg = ["torus", "--d", "1", "--k", "4,6", "--grid", "32", "--levels", "2", "--m", "0",
           "--defects", "cosx", "siny", "--kernel-compare", "--ladder", "m=1"]
    first = _run(cfg)
    assert sorted(built) == [(4, 0), (4, 1), (6, 0), (6, 1)]
    built.clear()
    assert _run(cfg) == first
    assert built == []
    torus._SPECTRUM_CACHE.clear()
    _run(cfg)
    assert sorted(built) == [(4, 0), (4, 1), (6, 0), (6, 1)]


def test_unknown_kind_rejected(capsys):
    # argparse picks the subcommand, and rejects one that does not exist
    # with the configuration-error exit code
    with pytest.raises(SystemExit) as err:
        main(["nope"])
    assert err.value.code == 2
