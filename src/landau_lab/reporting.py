"""Experiment configuration, log-log slope fitting, and report emission.

Reports are deterministic: keys are sorted and the only run-dependent field
is the isolated top-level timestamp, so two runs with the same config differ
in at most that one line.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    points: int

    def to_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "r_squared": self.r_squared, "points": self.points}


def fit_slope(xs, ys) -> SlopeFit:
    """Least-squares slope of log(y) against log(x).

    Requires at least four strictly positive pairs.  A constant sequence has
    r_squared 1.0 by convention (the fit is exact).
    """
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
        return {"kind": self.kind, "params": self.params, "seed": self.seed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {"kind", "params", "seed"}
        extra = set(d) - known
        if extra:
            raise ValueError("unknown config fields: %s" % sorted(extra))
        return cls(kind=d["kind"], params=dict(d.get("params", {})),
                   seed=int(d.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def emit_report(body: dict, path=None, timestamp: str | None = None) -> str:
    """Serialize a report with schema version and timestamp; optionally write
    it to path.  Returns the JSON text."""
    for key in ("schema_version", "generated_at"):
        if key in body:
            raise ValueError("%r is reserved" % key)
    doc = dict(body)
    doc["schema_version"] = SCHEMA_VERSION
    doc["generated_at"] = timestamp or datetime.now(timezone.utc).isoformat()
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
    n = int(config.params.get("n", 1))
    degree = int(config.params.get("degree", 6))
    results = run_identity_checks(n, degree, seed=config.seed)
    return {"config": config.to_dict(),
            "identities": results,
            "all_passed": all(r["passed"] for r in results)}


def _run_surface(config: ExperimentConfig) -> dict:
    from .surfaces import SurfaceGeometry, landau_spectrum, weitzenbock_iterate
    p = config.params
    area = Fraction(str(p.get("area_over_pi", 4)))
    genus = int(p.get("genus", 0))
    if "B" in p:
        geom = SurfaceGeometry.from_field(genus, Fraction(str(p["B"])), area)
    else:
        geom = SurfaceGeometry(genus, int(p.get("degree", 1)), area)
    levels = int(p.get("levels", 4))
    if p.get("iterate"):
        table = weitzenbock_iterate(geom, max_steps=levels)
    else:
        table = landau_spectrum(geom, levels)
    return {"config": config.to_dict(), "surface": table.to_dict()}


def _run_dim(config: ExperimentConfig) -> dict:
    from .dimensions import dim_surface, dim_torus, torus_composition_check
    p = config.params
    k = int(p.get("k", 1))
    m = int(p.get("m", 0))
    out = {"config": config.to_dict(), "reports": []}
    if "surface" in p:
        s = p["surface"]
        rep = dim_surface(k=k, d=int(s["d"]), g=int(s["g"]), m=m)
        out["reports"].append(rep.to_dict())
    if "torus" in p:
        t = p["torus"]
        d_list = [int(x) for x in t["d_list"]]
        rep = dim_torus(n=len(d_list), k=k, d_list=d_list, m=m)
        out["reports"].append(rep.to_dict())
        out["composition"] = torus_composition_check(
            n=len(d_list), k=k, d_list=d_list, m=m)
    return out


def _run_torus(config: ExperimentConfig) -> dict:
    from . import torus as T
    p = config.params
    d = int(p.get("d", 1))
    ks = [int(k) for k in p.get("ks", [8])]
    N = int(p.get("N", 64))
    levels = int(p.get("levels", 3))
    m = int(p.get("m", 0))
    seed = config.seed

    body: dict = {"config": config.to_dict(), "clusters": {}, "dims": {},
                  "residuals": {}}
    eigen_rows = []
    for k in ks:
        dec, cls = T.resolve_levels(d, k, N, levels - 1, seed=seed)
        body["residuals"][str(k)] = dec.residual_max
        body["clusters"][str(k)] = [
            {"m": c["m"], "count": c["count"], "center": c["center"],
             "mean_scaled": c["mean_scaled"]} for c in cls]
        body["dims"][str(k)] = {str(c["m"]): c["count"] for c in cls}
        for i, lam in enumerate(dec.eigenvalues):
            eigen_rows.append((k, i, repr(float(lam))))
    body["eigenvalue_rows"] = len(eigen_rows)

    if p.get("defects"):
        fname, gname = p["defects"]
        side = T.TorusGeometry(d).side
        f = _trig_by_name(fname, side)
        g = _trig_by_name(gname, side)
        table = T.asymptotic_defects(d, ks, m, f, g, N=N, seed=seed)
        block = {"f": fname, "g": gname, "m": m,
                 "D2": table["D2"], "D1": table["D1"], "DB": table["DB"]}
        if len(ks) >= 4:
            block["slopes"] = {
                name: fit_slope(ks, table[name]).to_dict()
                for name in ("D2", "D1", "DB")}
        body["defects"] = block

    if p.get("kernel_compare"):
        block = []
        for k in ks:
            for mm in range(min(levels, 3)):
                r = T.kernel_error(d, k, mm, N=N, seed=seed)
                block.append({"k": k, "m": mm, "diag_err": r["diag_err"],
                              "offdiag_err": r["offdiag_err"]})
        body["kernel_compare"] = block

    if p.get("ladder") is not None:
        lm = int(p["ladder"])
        block = []
        for k in ks:
            r = T.ladder_map(d, k, lm, N=N, seed=seed)
            block.append({"k": k, "m": lm, "vtv_defect": r["vtv_defect"],
                          "vvt_defect": r["vvt_defect"],
                          "max_angle": r["max_angle"]})
        body["ladder"] = block

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
