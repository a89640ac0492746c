import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from landau_lab import cli, dimensions, errors, identities, surfaces, torus
from landau_lab.cli import main


def test_fock_identities_exit_zero(capsys):
    code = main(["fock", "--check-identities", "--n", "1", "--degree", "3"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["schema_version"] == 1


REFERENCE = Path(__file__).parent / "reference"

# The reference tables: the benchmark's ledger inputs and the README's
# (2, 6) ledger example at two seeds, the README's other exact-side
# examples and three torus runs.  Running this file as a script rewrites
# every reference from them.
FOCK_INPUTS = [(1, 8), (2, 6), (2, 8), (3, 4)]
FOCK_SEEDS = [0, 101]
EXACT_REFERENCES = {
    "surface_g2_B5_l3.json": "surface --genus 2 --B 5 --levels 3",
    "surface_g0_d4_l3.csv": "--format csv surface --genus 0 --degree 4 --levels 3",
    "surface_g0_d4_l3_iterate.json": "surface --genus 0 --degree 4 --levels 3 --iterate",
    "dim_g2_d10_t1-2_k3_m1.json": "dim --surface g=2,d=10 --torus d=1:2 --k 3 --m 1",
}


def _fock_reference(n, degree, seed):
    return ("fock_n%d_d%d_s%d.json" % (n, degree, seed),
            "--seed %d fock --check-identities --n %d --degree %d" % (seed, n, degree))


def _printed_report(command):
    """main's exit code and standard output for the command line, without
    the timestamp line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    return code, "".join(line for line in out.getvalue().splitlines(keepends=True)
                         if '"generated_at"' not in line)


@pytest.mark.parametrize("n,degree", FOCK_INPUTS)
@pytest.mark.parametrize("seed", FOCK_SEEDS)
def test_fock_report_matches_its_reference(n, degree, seed):
    """The ledger at the benchmark's inputs gives the committed report byte
    for byte, apart from the timestamp line."""
    name, command = _fock_reference(n, degree, seed)
    code, fresh = _printed_report(command)
    assert code == 0
    assert fresh == (REFERENCE / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(EXACT_REFERENCES))
def test_readme_example_matches_its_reference(name):
    """Each exact-side README example prints the committed report or CSV
    byte for byte, apart from the timestamp line."""
    code, fresh = _printed_report(EXACT_REFERENCES[name])
    assert code == 0
    assert fresh.encode("utf-8") == (REFERENCE / name).read_bytes()


TORUS_REFERENCES = {
    "torus_d1_k4-10_n64": "--d 1 --k 4,6,8,10 --grid 64 --levels 2",
    "torus_d2_k8_n72": "--d 2 --k 8 --grid 72 --levels 3",  # two classes
    "torus_d1_k9_n24": "--d 1 --k 9 --grid 24 --levels 2",  # rings without a reflection
    # The benchmark's observables run, the README's defect example and a
    # ladder from level 2 on the two-class grid.
    "torus_d1_k4-10_n64_obs": "--d 1 --k 4,6,8,10 --grid 64 --levels 2 --defects cosx siny "
                              "--kernel-compare --ladder m=1",
    "torus_d1_k4-10_n64_defects": "--d 1 --k 4,6,8,10 --grid 64 --defects f=cosx g=siny",
    "torus_d2_k8_n72_ladder2": "--d 2 --k 8 --grid 72 --levels 3 --kernel-compare "
                               "--ladder m=2",
}

EPS = sys.float_info.epsilon


def _frame_errors(doc, rows, k):
    """eta[m]: how far cluster m's frame of this run can lie from an
    orthonormal basis of the exact eigenspace, in the 2-norm, after the
    best unitary rotation.  The run's count orthonormal pairs at k have
    residuals at most r (the report's largest), and they hold the count
    lowest eigenvalues, so each exact one lies within sqrt(count) r of its
    computed value (Kahan), and the exact spectrum outside cluster m keeps
    a gap of at least delta - sqrt(count) r from the cluster's values,
    delta being the computed gap (the top computed value lies outside every
    reported cluster).  The cluster's residual matrix has 2-norm at most
    sqrt(n) r, so the sin-theta theorem (Davis and Kahan, SIAM J. Numer.
    Anal. 7 (1970) 1) bounds its largest angle by sqrt(n) r over that gap,
    and a rotation then brings the frame within sqrt(2) sin theta.  The
    transform of each column (`torus._to_grid`: a length-N/g FFT, a phase
    and a scale) adds at most 4 log2(N) eps to it (Higham, Accuracy and
    Stability of Numerical Algorithms, 24.1), sqrt(n) times that over the
    frame."""
    N, r = doc["config"]["params"]["N"], doc["residuals"][k]
    vals = np.array([float(row[2]) for row in rows if row[0] == k])
    scaled = vals / int(k)
    eta = {}
    for cl in doc["clusters"][k]:
        m, n = cl["m"], cl["count"]
        inside = (scaled >= m) & (scaled < m + 1)
        delta = float(np.min(np.abs(vals[~inside][:, None] - vals[inside])))
        slack = delta - math.sqrt(len(vals)) * r
        assert slack > 0, (k, m)
        eta[m] = math.sqrt(n) * (math.sqrt(2) * r / slack + 4 * math.log2(N) * EPS)
    return eta


def _slope_bounds(ks, ys, dly):
    """How far fit_slope's slope, intercept and r_squared can move when
    each log y moves by at most dly: the least-squares slope is linear in
    log y with weights (lx - mean)/sum (lx - mean)^2, the intercept is
    mean(log y) - slope mean(lx), and the fit's residual and total sums of
    squares move by at most 2 sqrt(ss) ||d log y|| + ||d log y||^2."""
    lx, ly = np.log(ks), np.log(ys)
    cx = lx - lx.mean()
    dslope = dly * np.sum(np.abs(cx)) / np.sum(cx ** 2)
    slope, intercept = np.polyfit(lx, ly, 1)
    norm = math.sqrt(len(ks)) * dly
    ss_res = float(np.sum((ly - slope * lx - intercept) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    d_res = 2 * math.sqrt(ss_res) * norm + norm ** 2
    d_tot = 2 * math.sqrt(ss_tot) * norm + norm ** 2
    # 1 - res/tot moves by at most (d_res + (res/tot) d_tot)/(tot - d_tot)
    dr2 = (d_res + ss_res / ss_tot * d_tot) / (ss_tot - d_tot)
    # polyfit itself rounds at the level of its inputs
    fit = 16 * EPS * max(1.0, np.max(np.abs(ly)))
    return {"slope": dslope + fit, "intercept": dly + dslope * abs(lx.mean()) + fit,
            "r_squared": dr2 + fit}


def _check_observables(new, ref, new_rows, ref_rows):
    """Every observable of the run within its bound of the reference.

    All of them are functions of the cluster projectors, so they change
    with a frame only through its distance eta from the exact eigenspace
    (`_frame_errors`, one for each run) and through the rounding of their
    own arithmetic, sums over at most N^2 sites.

    - A defect's compressions V* s V move by at most 2 |s| eta and products
      of them by the sum of their factors' moves, so a defect moves by at
      most 2 S eta; S is `torus.asymptotic_defects`' weight (3|f||g| + |fg|
      + |X_f||X_g|/(k h^2) for D2, 6k|f||g| + |{f, g}| for D1, 3|f||g| +
      |fg| + |B_1|/k for DB), and its rounding is n N^2 eps S.
    - A kernel entry is an entry of P/h^2 with P = V V*, which moves by at
      most 2 eta, in units of k/2pi: N^2/(kd) 2 eta; its n-term sums round
      at the level (n + 2) eps.
    - The ladder's compressed map moves by at most c (eta_0 + eta_m), with
      c = (2/(k h^2))^(m/2)/sqrt(m!) the scaled norm of D^m, ||D|| <= sqrt(2)/h,
      and rounds by n N^2 eps c; vtv and vvt move by twice that times
      ||Vop|| <= 1 + vtv.  The raised frame U = (D*)^m V_0 / sqrt(m! k^m)
      (the raising derivative is -D*, the covariant derivatives being
      anti-Hermitian) moves by c eta_0, and its span by that over its
      smallest singular value, at least sqrt(1 - vtv) since V_m* U = Vop*;
      cluster m's span moves by eta_m, and the angle by those, by the
      rounding of S = U U* V - V and by the Cholesky-QR frame's gram
      defect, at most torus._ORTHO_TOL.
    - The slopes move as `_slope_bounds` says for log D moving by at most
      the defect's bound over D.
    """
    params = new["config"]["params"]
    d, N = params["d"], params["N"]
    side = torus.TorusGeometry(d).side
    h2 = side ** 2 / N ** 2
    for key in ("defects", "kernel_compare", "ladder"):
        assert (key in new) == (key in ref), key
    if not {"defects", "kernel_compare", "ladder"} & set(ref):
        return
    # eta_new + eta_ref per k and level
    eta = {k: {m: e + _frame_errors(ref, ref_rows, k)[m]
               for m, e in _frame_errors(new, new_rows, k).items()}
           for k in ref["residuals"]}
    if "defects" in ref:
        f, g = (cli._trig_by_name(ref["defects"][name], side) for name in ("f", "g"))
        m = ref["defects"]["m"]
        assert new["defects"]["m"] == m
        assert (new["defects"]["f"], new["defects"]["g"]) == (ref["defects"]["f"],
                                                                ref["defects"]["g"])

        def size(*parts):
            return sum(abs(c) for s in parts for c in s.coeffs.values())

        fg, Xf, Xg = size(f) * size(g), torus.hamiltonian_vf(f), torus.hamiltonian_vf(g)
        ks = [int(k) for k in ref["residuals"]]
        logs = {}
        for name in ("D2", "D1", "DB"):
            assert len(new["defects"][name]) == len(ks)
            dly = 0.0
            for i, k in enumerate(ks):
                S = {"D2": 3 * fg + size(f * g) + size(*Xf) * size(*Xg) / (k * h2),
                     "D1": 6 * k * fg + size(torus.poisson_bracket(f, g)),
                     "DB": 3 * fg + size(f * g) + size(torus.b1_correction(f, g, m)) / k}[name]
                n = d * k
                bound = S * (2 * n * N ** 2 * EPS + 2 * eta[str(k)][m])
                a, b = new["defects"][name][i], ref["defects"][name][i]
                assert abs(a - b) <= bound, (name, k, a, b, bound)
                dly = max(dly, bound / (b - bound))
            logs[name] = dly
        assert (new["defects"].get("slopes") is None) == (ref["defects"].get("slopes") is None)
        for name, fit in (ref["defects"].get("slopes") or {}).items():
            got = new["defects"]["slopes"][name]
            if fit is None:
                assert got is None, name
                continue
            assert got["points"] == fit["points"]
            bounds = _slope_bounds(np.array(ks, dtype=float),
                                   np.array(ref["defects"][name]), logs[name])
            for field, bound in bounds.items():
                assert abs(got[field] - fit[field]) <= bound, (name, field)
    for a, b in zip(new.get("kernel_compare", []), ref.get("kernel_compare", [])):
        assert (a["k"], a["m"]) == (b["k"], b["m"])
        n = d * b["k"]
        bound = N ** 2 / n * 2 * eta[str(b["k"])][b["m"]] + 2 * (n + 2) * EPS
        for field in ("diag_err", "offdiag_err"):
            assert abs(a[field] - b[field]) <= bound, (b["k"], b["m"], field)
    assert len(new.get("kernel_compare", [])) == len(ref.get("kernel_compare", []))
    for a, b in zip(new.get("ladder", []), ref.get("ladder", [])):
        assert (a["k"], a["m"]) == (b["k"], b["m"])
        k, m = b["k"], b["m"]
        n = d * k
        c = (2 / (k * h2)) ** (m / 2) / math.sqrt(math.factorial(m))
        e0, em = eta[str(k)][0], eta[str(k)][m]
        dvop = c * (e0 + em) + 2 * n * N ** 2 * EPS * c
        for field in ("vtv_defect", "vvt_defect"):
            bound = 2 * (1 + b[field]) * dvop + dvop ** 2
            assert abs(a[field] - b[field]) <= bound, (k, field)
        sigma = math.sqrt(1 - b["vtv_defect"])
        bound = (c * e0 / sigma + em + 2 * n * N ** 2 * EPS
                 + 2 * torus._ORTHO_TOL)
        assert abs(a["max_angle"] - b["max_angle"]) <= bound, k
    assert len(new.get("ladder", [])) == len(ref.get("ladder", []))


@pytest.mark.parametrize("name", sorted(TORUS_REFERENCES))
def test_torus_report_matches_its_reference(tmp_path, capsys, name):
    """A lattice run gives the committed report and CSV: every count, the
    solver block and the configuration exactly, and each eigenvalue within
    sqrt(count) * (r_ref + r_new) of the reference, r being each report's
    largest eigen-residual at that k.  That is Kahan's bound: an orthonormal
    set with residuals r_i has its Ritz values within ||R||_2 <= sqrt(count)
    max r_i of as many eigenvalues of H, and both runs are certified to hold
    the lowest ones.  A cluster's mean of lambda/k moves by at most the
    bound over k.  Each observable lies within the bound that
    `_check_observables` derives."""
    out = tmp_path / (name + ".json")
    assert main(["--out", str(out), "torus"] + TORUS_REFERENCES[name].split()) == 0
    new, ref = (json.loads(path.read_text(encoding="utf-8"))
                for path in (out, REFERENCE / out.name))
    del new["generated_at"]
    assert sorted(new) == sorted(ref)
    for key in ("config", "dims", "solver", "eigenvalue_rows", "eigenvalue_csv",
                "schema_version"):
        assert new[key] == ref[key], key
    tables = []
    for path in (out.with_suffix(".csv"), REFERENCE / (name + ".csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            tables.append(list(csv.reader(fh)))
    new_rows, ref_rows = tables
    assert [row[:2] for row in new_rows] == [row[:2] for row in ref_rows]
    assert len(ref_rows) == ref["eigenvalue_rows"] + 1
    for k in ref["residuals"]:
        rows = [(float(a[2]), float(b[2])) for a, b in zip(new_rows[1:], ref_rows[1:])
                if a[0] == k]
        bound = math.sqrt(len(rows)) * (new["residuals"][k] + ref["residuals"][k])
        assert max(abs(a - b) for a, b in rows) <= bound, k
        for a, b in zip(new["clusters"][k], ref["clusters"][k]):
            assert (a["m"], a["count"], a["center"]) == (b["m"], b["count"], b["center"])
            assert abs(a["mean_scaled"] - b["mean_scaled"]) <= bound / int(k)
        assert len(new["clusters"][k]) == len(ref["clusters"][k])
    _check_observables(new, ref, new_rows[1:], ref_rows[1:])


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


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(args):
        raise KeyError("no such record")

    monkeypatch.setattr(cli, "_run_dim", broken)
    assert main(["dim", "--torus", "d=1", "--k", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "Traceback" in err and "KeyError: 'no such record'" in err


@pytest.mark.parametrize("argv,work", [
    (["fock", "--check-identities", "--n", "1", "--degree", "2"],
     (identities, "run_identity_checks")),
    (["dim", "--torus", "d=1", "--k", "2"], (dimensions, "dim_torus")),
    (["surface", "--genus", "0", "--degree", "2"], (surfaces, "landau_spectrum")),
], ids=["fock", "dim", "surface"])
def test_value_error_inside_the_work_exits_three(capsys, monkeypatch, argv, work):
    """A ValueError raised by the computation, after the flags were checked,
    is a bug and not a configuration error."""
    def broken(*args, **kwargs):
        raise ValueError("operators live on different bases")

    monkeypatch.setattr(*work, broken)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "config error" not in err
    assert "ValueError: operators live on different bases" in err


def test_csv_unavailable_for_fock(capsys):
    code = main(["--format", "csv", "fock", "--check-identities",
                 "--n", "1", "--degree", "2"])
    assert code == 2


def test_csv_format_is_rejected_before_any_work(capsys, monkeypatch):
    def must_not_run(args):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "_run_fock", must_not_run)
    code = main(["--format", "csv", "fock", "--check-identities",
                 "--n", "2", "--degree", "8"])
    assert code == 2
    assert "csv output is only available" in capsys.readouterr().err


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


# Runs main in a fresh interpreter and prints its exit code and the numerical
# packages loaded by then.
_FRESH_RUN = """
import contextlib, io, sys
from landau_lab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(rc, sorted({"numpy", "scipy"} & set(sys.modules)))
"""


def _fresh_run(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    return proc.stdout.split(" ", 1), proc.stderr


@pytest.mark.parametrize("argv", [
    ["fock", "--check-identities", "--n", "1", "--degree", "4"],
    ["dim", "--surface", "g=2,d=10", "--k", "3"],
    ["surface", "--genus", "2", "--B", "5", "--levels", "2"],
], ids=lambda argv: argv[0])
def test_exact_side_runs_load_no_numerical_stack(argv):
    (rc, loaded), err = _fresh_run(argv)
    assert (rc, loaded.strip()) == ("0", "[]"), err


def test_fresh_torus_guard_is_the_class_main_catches():
    # the lazily imported lattice raises the error main was loaded with
    assert torus.GuardError is errors.GuardError
    (rc, _), err = _fresh_run(["torus", "--d", "1", "--k", "12", "--grid", "8"])
    assert rc == "1" and "guard tripped" in err, err


def test_torus_count_guard_exit(capsys):
    # From level 25 up the unit windows of lambda/k no longer hold one level
    # each on this grid; window 25 holds 8 eigenvalues against k*d = 4.
    code = main(["torus", "--d", "1", "--k", "4", "--grid", "64",
                 "--levels", "40"])
    assert code == 1
    err = capsys.readouterr().err
    assert "guard tripped" in err and "m=25" in err


def test_too_many_levels_for_the_grid_is_config_error(capsys):
    # levels 0..69 need (69 + 2) * k * d + 4 = 75 eigenvalues, more than
    # the 64 sites of an 8 x 8 grid hold
    code = main(["torus", "--d", "1", "--k", "1", "--grid", "8",
                 "--levels", "70"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--levels" in err and "--grid" in err


@pytest.mark.parametrize("extra", [
    ["--ladder", "m=70"],
    ["--m", "70", "--defects", "cosx", "siny"],
], ids=["ladder", "m"])
def test_too_high_a_level_names_every_flag_that_sets_it(capsys, extra):
    # level 70 read by the ladder or the defects sets the count as --levels
    # 71 would: 76 eigenvalues, more than an 8 x 8 grid holds
    code = main(["torus", "--d", "1", "--k", "1", "--grid", "8",
                 "--levels", "2"] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "76 eigenvalues" in err
    assert "--levels, --m or --ladder m=M" in err and "--grid" in err


@pytest.mark.parametrize("extra", [
    ["--levels", "0"],
    ["--levels", "-3"],
    ["--ladder", "m=-1"],
    ["--m", "-1", "--defects", "cosx", "siny"],
], ids=["levels0", "levels-3", "ladder-1", "m-1"])
def test_torus_level_that_does_not_exist_is_config_error(capsys, extra):
    code = main(["torus", "--d", "1", "--k", "4", "--grid", "32"] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--levels" in err and "--ladder" in err


@pytest.mark.parametrize("argv", [
    ["surface", "--genus", "0", "--B", "1/0"],
    ["surface", "--genus", "0", "--degree", "2", "--area-over-pi", "1/0"],
    ["surface", "--degree", "2", "--genus", "0", "--levels", "-1"],
    ["dim", "--torus", "d=1:2", "--k", "2", "--m", "-1"],
    ["dim", "--surface", "g=-1,d=2", "--k", "1"],
], ids=["B", "area", "levels", "dim-torus-m", "dim-surface-g"])
def test_impossible_surface_and_dim_inputs_are_config_errors(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


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


def test_zero_defect_row_has_no_slope(tmp_path, capsys):
    # f = g makes the commutator defect D1 exactly 0 at every k; the run
    # still fits the product defects and exits 0.
    out = tmp_path / "run.json"
    assert main(["--out", str(out), "torus", "--d", "1", "--k", "4,6,8,10", "--grid", "64",
                 "--levels", "2", "--defects", "f=cosx", "g=cosx"]) == 0
    defects = json.loads(out.read_text())["defects"]
    assert defects["D1"] == [0.0] * 4 and defects["slopes"]["D1"] is None
    for name in ("D2", "DB"):
        assert min(defects[name]) > 0
        assert defects["slopes"][name]["points"] == 4 and defects["slopes"][name]["slope"] < 0


@pytest.mark.parametrize("argv,work", [
    (["--out", "{missing}/r.json", "dim", "--torus", "d=1", "--k", "2"],
     (dimensions, "dim_torus")),
    (["--format", "csv", "--out", "{missing}/r.csv", "surface", "--genus", "0",
      "--degree", "2", "--levels", "2"], (surfaces, "landau_spectrum")),
    # the eigenvalue CSV would go beside the report
    (["--out", "{missing}/r.json", "torus", "--d", "1", "--k", "4", "--grid", "32",
      "--levels", "1"], (torus, "resolve_levels")),
], ids=["json", "csv", "torus"])
def test_out_in_a_missing_directory_is_refused_before_any_work(tmp_path, capsys,
                                                                 monkeypatch, argv, work):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the runner ran")

    monkeypatch.setattr(*work, must_not_run)
    missing = tmp_path / "missing"
    assert main([a.format(missing=missing) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--out" in err and "Traceback" not in err
    assert not missing.exists()


def test_out_that_cannot_be_written_is_config_error(tmp_path, capsys):
    # the directory exists, but the eigenvalue CSV's path is a directory
    (tmp_path / "run.csv").mkdir()
    assert main(["--out", str(tmp_path / "run.json"), "torus", "--d", "1", "--k", "4",
                 "--grid", "32", "--levels", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--out" in err and "Traceback" not in err


def test_rounding_level_defect_row_has_no_slope(tmp_path, capsys):
    # f = cos x and g = sin x leave D1 at rounding level at every k, and D2
    # and DB at k = 4 only; a row with an entry within its rounding bound
    # gets no slope.  With g = sin y every entry is far above its bound.
    def defects(g):
        out = tmp_path / (g + ".json")
        assert main(["--out", str(out), "torus", "--d", "1", "--k", "4,6,8,10",
                     "--grid", "64", "--levels", "1", "--defects", "f=cosx", "g=" + g]) == 0
        return json.loads(out.read_text())["defects"]

    flat = defects("sinx")
    assert max(flat["D1"]) < 1e-13 and flat["D2"][0] < 1e-13 and flat["DB"][0] < 1e-13
    assert min(flat["D2"][1:]) > 0.1 and min(flat["DB"][1:]) > 0.01
    assert flat["slopes"] == {"D2": None, "D1": None, "DB": None}
    slopes = defects("siny")["slopes"]
    assert all(slopes[name]["points"] == 4 and slopes[name]["slope"] < 0
               for name in ("D2", "D1", "DB"))


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
    pytest.param(["torus", "--d", "1", "--k", "4,6", "--grid", "32", "--levels", "2",
                  "--defects", "cosx", "siny", "--kernel-compare", "--ladder", "m=1"],
                 id="torus-observables"),
    # Three translation classes, two of them without a reflection: the
    # solves draw their start vectors in turn from one fixed stream.
    pytest.param(["torus", "--d", "1", "--k", "9", "--grid", "24", "--levels", "2"],
                 id="torus-classes"),
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


def test_torus_report_does_not_depend_on_earlier_runs(tmp_path, monkeypatch):
    # A run at --levels 4 leaves a larger spectrum in the cache; a later
    # --levels 2 run on the same grid must still report its own solve.
    monkeypatch.setattr(torus, "_SPECTRUM_CACHE", {})
    grid = ["torus", "--d", "1", "--k", "4", "--grid", "32", "--levels"]

    def run(name, levels):
        out = tmp_path / (name + ".json")
        assert main(["--out", str(out)] + grid + [levels]) == 0
        doc = json.loads(out.read_text())
        del doc["generated_at"], doc["eigenvalue_csv"]
        return doc, out.with_suffix(".csv").read_bytes()

    run("wide", "4")
    after = run("after", "2")
    torus._SPECTRUM_CACHE.clear()
    fresh = run("fresh", "2")
    assert after == fresh
    assert len(fresh[1].splitlines()) == 1 + 16


def test_torus_report_does_not_depend_on_the_seed(tmp_path, monkeypatch):
    # --seed picks the identity suite's samples only; a lattice run solves
    # from the same start vectors whatever it is.
    monkeypatch.setattr(torus, "_SPECTRUM_CACHE", {})
    docs, tables = [], []
    for seed in (0, 101):
        torus._SPECTRUM_CACHE.clear()
        out = tmp_path / ("seed%d.json" % seed)
        assert main(["--seed", str(seed), "--out", str(out), "torus", "--d", "1",
                     "--k", "4,6", "--grid", "32", "--levels", "2", "--defects",
                     "cosx", "siny", "--kernel-compare", "--ladder", "m=1"]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"].pop("seed") == seed
        del doc["generated_at"], doc["eigenvalue_csv"]
        docs.append(doc)
        tables.append(out.with_suffix(".csv").read_bytes())
    assert docs[0] == docs[1]
    assert tables[0] == tables[1]


def _rewrite_references() -> None:
    """Rewrite every file in tests/reference/ from the tables above."""
    exact = dict(EXACT_REFERENCES)
    exact.update(_fock_reference(n, degree, seed)
                 for n, degree in FOCK_INPUTS for seed in FOCK_SEEDS)
    for name, command in sorted(exact.items()):
        code, text = _printed_report(command)
        if code != 0:
            raise SystemExit("%s exited %d" % (command, code))
        (REFERENCE / name).write_text(text, encoding="utf-8", newline="")
    for name, args in sorted(TORUS_REFERENCES.items()):
        out = REFERENCE / (name + ".json")
        code = main(["--out", str(out), "torus"] + args.split())
        if code != 0:
            raise SystemExit("torus %s exited %d" % (args, code))
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
        out.write_text("".join(line for line in lines if '"generated_at"' not in line),
                       encoding="utf-8", newline="")


if __name__ == "__main__":
    _rewrite_references()
