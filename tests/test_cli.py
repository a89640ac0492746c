import csv
import itertools
import json
import time

import pytest

from landau_lab import torus
from landau_lab.cli import main


def test_fock_identities_exit_zero(capsys):
    code = main(["fock", "--check-identities", "--n", "1", "--degree", "3"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["schema_version"] == 1


def test_fock_without_action_is_config_error(capsys):
    assert main(["fock"]) == 2
    assert "config error" in capsys.readouterr().err


def test_surface_json_frozen_row(capsys):
    code = main(["surface", "--genus", "2", "--B", "5", "--levels", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    rows = doc["surface"]["rows"]
    assert rows[1]["eigenvalue"] == "13/2"
    assert rows[1]["multiplicity"] == 7


def test_surface_csv_stdout(capsys):
    code = main(["--format", "csv", "surface", "--genus", "0", "--degree", "2",
                 "--levels", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,eigenvalue,multiplicity,flag"
    assert lines[1].startswith("0,")
    assert len(lines) == 4


def test_surface_rejects_conflicting_sources(capsys):
    with pytest.raises(SystemExit) as err:
        main(["surface", "--genus", "1", "--B", "3", "--degree", "2"])
    assert err.value.code == 2


def test_dim_torus_composition(capsys):
    code = main(["dim", "--torus", "d=1:1", "--k", "3", "--m", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["value"] == 27
    assert doc["composition"]["match"] is True


def test_dim_surface_parse(capsys):
    code = main(["dim", "--surface", "g=2,d=10", "--k", "1", "--m", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["value"] == 7


def test_dim_without_target_is_config_error(capsys):
    assert main(["dim"]) == 2


def test_dim_bad_syntax_is_config_error(capsys):
    assert main(["dim", "--surface", "genus:2"]) == 2


def test_dim_missing_key_is_config_error(capsys):
    assert main(["dim", "--surface", "g=2"]) == 2
    assert "--surface needs d=" in capsys.readouterr().err


def test_csv_unavailable_for_fock(capsys):
    code = main(["--format", "csv", "fock", "--check-identities",
                 "--n", "1", "--degree", "2"])
    assert code == 2


def test_unknown_defect_observable(capsys):
    code = main(["torus", "--d", "1", "--k", "4", "--grid", "32",
                 "--levels", "1", "--defects", "f=cosq", "g=siny"])
    assert code == 2
    assert "unknown observable" in capsys.readouterr().err


def test_torus_guard_exit(capsys):
    # k h^2 over the hard limit on the coarse 8-site grid
    code = main(["torus", "--d", "1", "--k", "12", "--grid", "8",
                 "--levels", "1"])
    assert code == 1
    assert "guard tripped" in capsys.readouterr().err


def test_torus_count_guard_exit(capsys):
    # From level 25 up the unit windows of lambda/k no longer hold one level
    # each on this grid; window 25 holds 8 eigenvalues against k*d = 4.
    code = main(["torus", "--d", "1", "--k", "4", "--grid", "64",
                 "--levels", "40"])
    assert code == 1
    err = capsys.readouterr().err
    assert "guard tripped" in err and "m=25" in err


def test_torus_json_with_side_csv(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(["--out", str(out), "torus", "--d", "1", "--k", "4",
                 "--grid", "32", "--levels", "2"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["dims"]["4"] == {"0": 4, "1": 4}
    assert doc["eigenvalue_csv"] == "run.csv"
    with open(tmp_path / "run.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "index", "eigenvalue"]
    assert len(rows) == doc["eigenvalue_rows"] + 1


def test_torus_csv_stdout(capsys):
    code = main(["--format", "csv", "torus", "--d", "1", "--k", "4",
                 "--grid", "32", "--levels", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,index,eigenvalue"
    assert float(lines[1].split(",")[2]) > 0


@pytest.mark.parametrize("argv", [
    ["fock", "--check-identities", "--n", "1", "--degree", "4"],
    ["surface", "--genus", "2", "--B", "5", "--levels", "2"],
    ["dim", "--surface", "g=2,d=10", "--torus", "d=1:2", "--k", "3"],
    ["torus", "--d", "1", "--k", "4", "--grid", "32", "--levels", "2"],
], ids=lambda argv: argv[0])
def test_reports_identical_across_runs(tmp_path, monkeypatch, argv):
    # Each run solves afresh, as a separate CLI process would, and sees a
    # clock running at its own speed, so a report field that records a
    # duration differs between the runs.
    monkeypatch.setattr(torus, "_SPECTRUM_CACHE", {})
    docs = []
    for run in range(2):
        torus._SPECTRUM_CACHE.clear()
        clock = itertools.count(0.0, 1.0 + run)
        monkeypatch.setattr(time, "time", lambda: next(clock))
        monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
        out = tmp_path / ("run%d.json" % run)
        assert main(["--out", str(out)] + argv) == 0
        doc = json.loads(out.read_text())
        del doc["generated_at"]
        if "eigenvalue_csv" in doc:
            doc["eigenvalue_csv"] = (tmp_path / doc["eigenvalue_csv"]).read_text()
        docs.append(doc)
    assert docs[0] == docs[1]
