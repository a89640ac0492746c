"""Experiment configuration, log-log slope fitting, and report emission.

Reports are deterministic: keys are sorted and the only run-dependent field
is the isolated top-level timestamp, so two runs with the same config differ
in at most that one line.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from fractions import Fraction

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    points: int

    def to_dict(self) -> dict:
        return asdict(self)


def fit_slope(xs, ys) -> SlopeFit:
    """Least-squares slope of log(y) against log(x).

    Requires at least four strictly positive pairs.  A constant sequence has
    r_squared 1.0 by convention (the fit is exact).
    """
    import numpy as np
    xs = np.asarray(list(xs), dtype=float)
    ys = np.asarray(list(ys), dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d sequences of equal length")
    if len(xs) < 4:
        raise ValueError("slope fits need at least 4 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-300 else 1.0 - ss_res / ss_tot
    return SlopeFit(float(slope), float(intercept), float(r2), len(xs))


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def emit_report(body: dict, path=None) -> str:
    """Serialize a report with schema version and timestamp; optionally write
    it to path.  Returns the JSON text."""
    for key in ("schema_version", "generated_at"):
        if key in body:
            raise ValueError("%r is reserved" % key)
    doc = dict(body)
    doc["schema_version"] = SCHEMA_VERSION
    doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_experiment(config: ExperimentConfig) -> dict:
    """Dispatch a config to the matching driver; returns the report body."""
    runner = _RUNNERS.get(config.kind)
    if runner is None:
        raise ValueError("unknown experiment kind %r" % config.kind)
    return runner(config)


def _run_fock(config: ExperimentConfig) -> dict:
    from .identities import run_identity_checks
    results = run_identity_checks(config.params["n"], config.params["degree"],
                                  seed=config.seed)
    return {"config": config.to_dict(),
            "identities": results,
            "all_passed": all(r["passed"] for r in results)}


def _rational(text, flag: str) -> Fraction:
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError("%s %s has a zero denominator" % (flag, text)) from None


def _run_surface(config: ExperimentConfig) -> dict:
    from .surfaces import SurfaceGeometry, landau_spectrum, weitzenbock_iterate
    p = config.params
    area = _rational(p["area_over_pi"], "--area-over-pi")
    if "B" in p:
        geom = SurfaceGeometry.from_field(p["genus"], _rational(p["B"], "--B"), area)
    else:
        geom = SurfaceGeometry(p["genus"], p["degree"], area)
    levels = p["levels"]
    if levels < 1:
        raise ValueError("--levels must be at least 1, got %d" % levels)
    if p["iterate"]:
        table = weitzenbock_iterate(geom, max_steps=levels)
    else:
        table = landau_spectrum(geom, levels)
    return {"config": config.to_dict(), "surface": table.to_dict()}


def _run_dim(config: ExperimentConfig) -> dict:
    from .dimensions import dim_surface, dim_torus, torus_composition_check
    p = config.params
    k, m = p["k"], p["m"]
    out = {"config": config.to_dict(), "reports": []}
    if "surface" in p:
        s = p["surface"]
        rep = dim_surface(k=k, d=s["d"], g=s["g"], m=m)
        out["reports"].append(rep.to_dict())
    if "torus" in p:
        d_list = p["torus"]["d_list"]
        rep = dim_torus(n=len(d_list), k=k, d_list=d_list, m=m)
        out["reports"].append(rep.to_dict())
        out["composition"] = torus_composition_check(
            n=len(d_list), k=k, d_list=d_list, m=m)
    return out


def _run_torus(config: ExperimentConfig) -> dict:
    from . import torus as T
    p = config.params
    d, ks, N, levels, m = p["d"], p["ks"], p["N"], p["levels"], p["m"]

    body: dict = {"config": config.to_dict(), "clusters": {}, "dims": {},
                  "residuals": {}, "solver": {}}
    # The levels the blocks read; one solve per k resolves all of them.
    read = [levels - 1]
    if "defects" in p:
        fname, gname = p["defects"]
        side = T.TorusGeometry(d).side
        f, g = (_trig_by_name(name, side) for name in (fname, gname))
        body["defects"] = {"f": fname, "g": gname, "m": m,
                           "D2": [], "D1": [], "DB": []}
        read.append(m)
    if "kernel_compare" in p:
        body["kernel_compare"] = []
    if "ladder" in p:
        lm = p["ladder"]
        body["ladder"] = []
        read.append(lm)
    if min(read) < 0:
        raise ValueError("level %d does not exist: --levels must be at least 1, "
                         "and --m and --ladder m=M at least 0" % min(read))
    eigen_rows = []
    for k in ks:
        dec = T.resolve_levels(d, k, N, max(read))
        cls = T.detect_clusters(dec, levels)
        body["residuals"][str(k)] = dec.residual_max
        body["solver"][str(k)] = dec.solver
        body["clusters"][str(k)] = [
            {"m": c["m"], "count": c["count"], "center": c["center"],
             "mean_scaled": c["mean_scaled"]} for c in cls]
        body["dims"][str(k)] = {str(c["m"]): c["count"] for c in cls}
        for i, lam in enumerate(dec.eigenvalues):
            eigen_rows.append((k, i, repr(float(lam))))
        if "defects" in body:
            row = T.asymptotic_defects(dec, m, f, g)
            for name in ("D2", "D1", "DB"):
                body["defects"][name].append(row[name])
        if "kernel_compare" in body:
            body["kernel_compare"] += T.kernel_error(dec, min(levels, 3))
        if "ladder" in body:
            r = T.ladder_map(dec, lm)
            body["ladder"].append({"k": k, "m": lm, "vtv_defect": r["vtv_defect"],
                                   "vvt_defect": r["vvt_defect"],
                                   "max_angle": r["max_angle"]})
    body["eigenvalue_rows"] = len(eigen_rows)
    if "defects" in body and len(ks) >= 4:
        # A row with a zero, such as D1 when f = g, has no log-log slope.
        defects = body["defects"]
        defects["slopes"] = {name: fit_slope(ks, defects[name]).to_dict()
                             if min(defects[name]) > 0 else None
                             for name in ("D2", "D1", "DB")}

    body["_eigen_rows"] = eigen_rows
    return body


_TRIG_NAMES = ("cosx", "sinx", "cosy", "siny")


def _trig_by_name(name: str, side: float):
    from .torus import TrigPoly
    makers = {"cosx": TrigPoly.cos_x, "sinx": TrigPoly.sin_x,
              "cosy": TrigPoly.cos_y, "siny": TrigPoly.sin_y}
    if name not in makers:
        raise ValueError("unknown observable %r; choose from %s"
                         % (name, ", ".join(_TRIG_NAMES)))
    return makers[name](side)


_RUNNERS = {"fock": _run_fock, "surface": _run_surface,
            "dim": _run_dim, "torus": _run_torus}
