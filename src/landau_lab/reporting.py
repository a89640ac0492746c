"""Log-log slope fitting and report emission.

Reports are deterministic: keys are sorted and the only run-dependent field
is the isolated top-level timestamp, so two runs with the same arguments
differ in at most that one line.  The command-line runners build the report
bodies (cli.py).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

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
