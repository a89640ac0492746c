"""Command-line front end.

Subcommands: fock (exact identity ledger), surface (closed-form spectra),
dim (dimension counts), torus (lattice spectral experiments).  Each
subparser binds its runner, which checks its own flags, then does the work
and returns the report body and the table a CSV gets (or None).  Exit codes:
0 on success, 1 when a numerical guard trips or an identity fails, 2 for a
ConfigError: a flag check, a lattice count that the grid cannot hold, or an
--out that cannot be written; 3 for any other exception, a ValueError from
the work included, which is an internal error (a bug), with its traceback.
Only torus runs import the lattice stack (numpy, scipy); fock, dim and
surface load neither, so a cold dim run takes about 0.1 s on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, GuardError
from .reporting import emit_report, fit_slope, write_csv

_TRIG_NAMES = ("cosx", "sinx", "cosy", "siny")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landau-lab",
        description="Landau level toolbox: exact symbol algebra, lattice "
                    "magnetic spectra, and closed-form surface tables.")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the identity suite's sampled cases; "
                             "lattice runs do not use it")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (csv only for tabular reports)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fock = sub.add_parser("fock", help="exact operator-algebra checks")
    p_fock.set_defaults(run=_run_fock)
    p_fock.add_argument("--check-identities", action="store_true",
                        help="run the zero-tolerance identity suite")
    p_fock.add_argument("--n", type=int, default=1, help="complex variables")
    p_fock.add_argument("--degree", type=int, default=6,
                        help="truncation degree")

    p_surf = sub.add_parser("surface", help="constant-curvature level tables")
    p_surf.set_defaults(run=_run_surface)
    p_surf.add_argument("--genus", type=int, required=True)
    group = p_surf.add_mutually_exclusive_group(required=True)
    group.add_argument("--B", type=str, help="field strength (rational)")
    group.add_argument("--degree", type=int, help="bundle degree")
    p_surf.add_argument("--area-over-pi", type=str, default="4")
    p_surf.add_argument("--levels", type=int, default=4)
    p_surf.add_argument("--iterate", action="store_true",
                        help="build the table by the iteration scheme "
                             "instead of the closed form")

    p_dim = sub.add_parser("dim", help="level dimension counts")
    p_dim.set_defaults(run=_run_dim)
    p_dim.add_argument("--surface", type=str, default=None,
                       metavar="g=G,d=D", help="surface target")
    p_dim.add_argument("--torus", type=str, default=None,
                       metavar="d=D1:D2", help="torus target")
    p_dim.add_argument("--k", type=int, default=1)
    p_dim.add_argument("--m", type=int, default=0)

    p_tor = sub.add_parser("torus", help="lattice magnetic Laplacian runs")
    p_tor.set_defaults(run=_run_torus)
    p_tor.add_argument("--d", type=int, default=1, help="bundle degree")
    p_tor.add_argument("--k", type=str, default="8",
                       help="tensor power, or comma list for slope studies")
    p_tor.add_argument("--grid", type=int, default=64, help="sites per side")
    p_tor.add_argument("--levels", type=int, default=3,
                       help="number of clusters to resolve")
    p_tor.add_argument("--m", type=int, default=0,
                       help="cluster index for defect studies; a level above "
                       "--levels - 1 extends the run's one solve, and its CSV")
    p_tor.add_argument("--defects", nargs=2, default=None,
                       metavar=("f=NAME", "g=NAME"),
                       help="observables from {%s}" % ",".join(_TRIG_NAMES))
    p_tor.add_argument("--kernel-compare", action="store_true",
                       help="compare cluster kernels to the flat model")
    p_tor.add_argument("--ladder", type=str, default=None, metavar="m=M",
                       help="run the down-ladder study for cluster M; a level "
                       "above --levels - 1 extends the run's one solve, and its CSV")
    return parser


def _require(ok, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _parsed(convert, *values):
    """convert(*values) for values taken from flags, before any work: a
    ValueError there is the flags' problem."""
    try:
        return convert(*values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _kv_pairs(text: str, what: str) -> dict:
    out = {}
    for chunk in text.split(","):
        _require("=" in chunk, "bad %s syntax %r; expected key=value pairs"
                 % (what, text))
        key, _, val = chunk.partition("=")
        out[key.strip()] = val.strip()
    return out


def _kv_value(kv: dict, key: str, what: str) -> str:
    _require(key in kv, "%s needs %s=..." % (what, key))
    return kv[key]


def _rational(text, flag: str) -> Fraction:
    try:
        return _parsed(Fraction, str(text))
    except ZeroDivisionError:
        raise ConfigError("%s %s has a zero denominator" % (flag, text)) from None


def _run_fock(args):
    _require(args.check_identities, "nothing to do; pass --check-identities")
    from .identities import input_problem, run_identity_checks
    problem = input_problem(args.n, args.degree)
    _require(problem is None, problem)
    results = run_identity_checks(args.n, args.degree, seed=args.seed)
    return {"config": {"kind": "fock", "params": {"n": args.n, "degree": args.degree},
                       "seed": args.seed},
            "identities": results,
            "all_passed": all(r["passed"] for r in results)}, None


def _run_surface(args):
    from .surfaces import SurfaceGeometry, landau_spectrum, weitzenbock_iterate
    params = {"genus": args.genus, "area_over_pi": args.area_over_pi,
              "levels": args.levels, "iterate": args.iterate}
    area = _rational(args.area_over_pi, "--area-over-pi")
    if args.B is not None:
        params["B"] = args.B
        geom = _parsed(SurfaceGeometry.from_field, args.genus,
                       _rational(args.B, "--B"), area)
    else:
        params["degree"] = args.degree
        geom = _parsed(SurfaceGeometry, args.genus, args.degree, area)
    _require(args.levels >= 1, "--levels must be at least 1, got %d" % args.levels)
    if args.iterate:
        table = weitzenbock_iterate(geom, max_steps=args.levels).to_dict()
    else:
        table = landau_spectrum(geom, args.levels).to_dict()
    body = {"config": {"kind": "surface", "params": params, "seed": args.seed},
            "surface": table}
    header = ("m", "eigenvalue", "multiplicity", "flag")
    rows = [tuple(r[key] for key in header) for r in table["rows"]]
    return body, (header, rows) if args.format == "csv" else None


def _run_dim(args):
    _require(args.surface is not None or args.torus is not None,
             "pass --surface and/or --torus")
    k, m = args.k, args.m
    params: dict = {"k": k, "m": m}
    if args.surface is not None:
        kv = _kv_pairs(args.surface, "--surface")
        g = _parsed(int, _kv_value(kv, "g", "--surface"))
        params["surface"] = {"g": g, "d": _parsed(int, _kv_value(kv, "d", "--surface"))}
        _require(k >= 1, "k must be at least 1")
        _require(g >= 0 and m >= 0, "genus and level must be nonnegative, got "
                 "g=%d, m=%d" % (g, m))
    if args.torus is not None:
        kv = _kv_pairs(args.torus, "--torus")
        d_list = [_parsed(int, x) for x in _kv_value(kv, "d", "--torus").split(":")]
        params["torus"] = {"d_list": d_list}
        _require(k >= 1 and min(d_list) >= 1, "k and all degrees must be positive")
        _require(m >= 0, "level must be nonnegative, got m=%d" % m)
    from .dimensions import dim_surface, dim_torus, torus_composition_check
    out = {"config": {"kind": "dim", "params": params, "seed": args.seed}, "reports": []}
    if "surface" in params:
        out["reports"].append(dim_surface(k=k, m=m, **params["surface"]).to_dict())
    if "torus" in params:
        d_list = params["torus"]["d_list"]
        out["reports"].append(dim_torus(n=len(d_list), k=k, d_list=d_list, m=m).to_dict())
        out["composition"] = torus_composition_check(
            n=len(d_list), k=k, d_list=d_list, m=m)
    return out, None


def _run_torus(args):
    ks = [_parsed(int, tok) for tok in args.k.split(",") if tok]
    _require(ks, "--k needs at least one power")
    d, N, levels, m = args.d, args.grid, args.levels, args.m
    params = {"d": d, "ks": ks, "N": N, "levels": levels, "m": m}
    # The levels the blocks read; one solve per k resolves all of them.
    read = [levels - 1]
    if args.defects:
        params["defects"] = [args.defects[0].removeprefix("f="),
                             args.defects[1].removeprefix("g=")]
        for name in params["defects"]:
            _require(name in _TRIG_NAMES, "unknown observable %r; choose from %s"
                     % (name, ", ".join(_TRIG_NAMES)))
        read.append(m)
    if args.kernel_compare:
        params["kernel_compare"] = True
    if args.ladder is not None:
        params["ladder"] = lm = _parsed(int, args.ladder.removeprefix("m="))
        read.append(lm)
    _require(min(read) >= 0, "level %d does not exist: --levels must be at least "
             "1, and --m and --ladder m=M at least 0" % min(read))
    _require(d >= 1, "degree d must be a positive integer")
    _require(min(ks) >= 1, "k must be a positive integer")
    _require(N >= 8, "grid too coarse, need N >= 8")
    from . import torus as T

    body: dict = {"config": {"kind": "torus", "params": params, "seed": args.seed},
                  "clusters": {}, "dims": {}, "residuals": {}, "solver": {}}
    if args.defects:
        fname, gname = params["defects"]
        side = T.TorusGeometry(d).side
        f, g = (_trig_by_name(name, side) for name in (fname, gname))
        body["defects"] = {"f": fname, "g": gname, "m": m,
                           "D2": [], "D1": [], "DB": []}
        rounded = set()
    if args.kernel_compare:
        body["kernel_compare"] = []
    if args.ladder is not None:
        body["ladder"] = []
    eigen_rows = []
    for k in ks:
        dec = T.resolve_levels(d, k, N, max(read))
        cls = T.detect_clusters(dec, levels)
        body["residuals"][str(k)] = dec.residual_max
        body["solver"][str(k)] = dec.solver
        body["clusters"][str(k)] = [{key: c[key] for key in (
            "m", "count", "center", "mean_scaled")} for c in cls]
        body["dims"][str(k)] = {str(c["m"]): c["count"] for c in cls}
        eigen_rows += [(k, i, repr(float(lam))) for i, lam in enumerate(dec.eigenvalues)]
        if args.defects:
            row = T.asymptotic_defects(dec, m, f, g)
            for name in ("D2", "D1", "DB"):
                body["defects"][name].append(row[name])
                if row[name] <= row["rounding"][name]:
                    rounded.add(name)
        if args.kernel_compare:
            body["kernel_compare"] += T.kernel_error(dec, min(levels, 3))
        if args.ladder is not None:
            r = T.ladder_map(dec, lm)
            body["ladder"].append({"k": k, "m": lm, **{key: r[key] for key in (
                "vtv_defect", "vvt_defect", "max_angle")}})
    body["eigenvalue_rows"] = len(eigen_rows)
    if args.defects and len(ks) >= 4:
        # A row with an entry that is zero to rounding, such as D1 when
        # f = g, has no log-log slope.
        defects = body["defects"]
        defects["slopes"] = {name: None if name in rounded
                             else fit_slope(ks, defects[name]).to_dict()
                             for name in ("D2", "D1", "DB")}
    return body, (("k", "index", "eigenvalue"), eigen_rows)


def _trig_by_name(name: str, side: float):
    from .torus import TrigPoly
    makers = {"cosx": TrigPoly.cos_x, "sinx": TrigPoly.sin_x,
              "cosy": TrigPoly.cos_y, "siny": TrigPoly.sin_y}
    return makers[name](side)


def _emit(args, body: dict, table) -> None:
    """Print the report, or its table for csv, or write either to --out; a
    torus report written to --out gets its eigenvalue table beside it."""
    if args.out is None:
        if args.format == "csv":
            header, rows = table
            print(",".join(header))
            for row in rows:
                print(",".join(str(x) for x in row))
        else:
            sys.stdout.write(emit_report(body))
        return
    try:
        if args.format == "csv":
            write_csv(args.out, *table)
            return
        if table is not None:
            csv_path = args.out.with_suffix(".csv")
            write_csv(csv_path, *table)
            body["eigenvalue_csv"] = csv_path.name
        emit_report(body, path=args.out)
    except OSError as exc:
        raise ConfigError("cannot write --out %s: %s" % (args.out, exc)) from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.format == "csv" and args.command not in ("surface", "torus"):
            raise ConfigError("csv output is only available for surface and "
                              "torus reports")
        if args.out is not None and not args.out.parent.is_dir():
            raise ConfigError("--out %s: %s is not a directory"
                              % (args.out, args.out.parent))
        body, table = args.run(args)
        _emit(args, body, table)
    except GuardError as exc:
        print("guard tripped: %s" % exc, file=sys.stderr)
        return 1
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except Exception:
        sys.stderr.write("internal error:\n%s" % traceback.format_exc())
        return 3
    return 0 if body.get("all_passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
