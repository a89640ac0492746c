"""Command-line front end.

Subcommands: fock (exact identity ledger), surface (closed-form spectra),
dim (dimension counts), torus (lattice spectral experiments).  Exit codes:
0 on success, 1 when a numerical guard trips or an identity fails, 2 for
configuration errors, 3 for an internal error (a bug), with its traceback.
Only torus runs import the lattice stack (numpy, scipy); fock, dim and
surface load neither, so a cold dim run takes about 0.1 s on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .errors import GuardError
from .reporting import (ExperimentConfig, emit_report, run_experiment,
                        write_csv, _TRIG_NAMES)


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
    p_fock.add_argument("--check-identities", action="store_true",
                        help="run the zero-tolerance identity suite")
    p_fock.add_argument("--n", type=int, default=1, help="complex variables")
    p_fock.add_argument("--degree", type=int, default=6,
                        help="truncation degree")

    p_surf = sub.add_parser("surface", help="constant-curvature level tables")
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
    p_dim.add_argument("--surface", type=str, default=None,
                       metavar="g=G,d=D", help="surface target")
    p_dim.add_argument("--torus", type=str, default=None,
                       metavar="d=D1:D2", help="torus target")
    p_dim.add_argument("--k", type=int, default=1)
    p_dim.add_argument("--m", type=int, default=0)

    p_tor = sub.add_parser("torus", help="lattice magnetic Laplacian runs")
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


def _kv_pairs(text: str, what: str) -> dict:
    out = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ValueError("bad %s syntax %r; expected key=value pairs"
                             % (what, text))
        key, _, val = chunk.partition("=")
        out[key.strip()] = val.strip()
    return out


def _kv_value(kv: dict, key: str, what: str) -> str:
    if key not in kv:
        raise ValueError("%s needs %s=..." % (what, key))
    return kv[key]


def _config_from_args(args) -> ExperimentConfig:
    if args.command == "fock":
        if not args.check_identities:
            raise ValueError("nothing to do; pass --check-identities")
        return ExperimentConfig("fock", {"n": args.n, "degree": args.degree},
                                seed=args.seed)
    if args.command == "surface":
        params = {"genus": args.genus,
                  "area_over_pi": args.area_over_pi,
                  "levels": args.levels,
                  "iterate": bool(args.iterate)}
        if args.B is not None:
            params["B"] = args.B
        else:
            params["degree"] = args.degree
        return ExperimentConfig("surface", params, seed=args.seed)
    if args.command == "dim":
        params: dict = {"k": args.k, "m": args.m}
        if args.surface is None and args.torus is None:
            raise ValueError("pass --surface and/or --torus")
        if args.surface is not None:
            kv = _kv_pairs(args.surface, "--surface")
            params["surface"] = {"g": int(_kv_value(kv, "g", "--surface")),
                                 "d": int(_kv_value(kv, "d", "--surface"))}
        if args.torus is not None:
            kv = _kv_pairs(args.torus, "--torus")
            params["torus"] = {"d_list": [
                int(x) for x in _kv_value(kv, "d", "--torus").split(":")]}
        return ExperimentConfig("dim", params, seed=args.seed)
    if args.command == "torus":
        ks = [int(tok) for tok in args.k.split(",") if tok]
        if not ks:
            raise ValueError("--k needs at least one power")
        params = {"d": args.d, "ks": ks, "N": args.grid,
                  "levels": args.levels, "m": args.m}
        if args.defects:
            params["defects"] = [args.defects[0].removeprefix("f="),
                                 args.defects[1].removeprefix("g=")]
        if args.kernel_compare:
            params["kernel_compare"] = True
        if args.ladder is not None:
            params["ladder"] = int(args.ladder.removeprefix("m="))
        return ExperimentConfig("torus", params, seed=args.seed)
    raise ValueError("unknown command %r" % args.command)


def _emit(args, body: dict) -> None:
    eigen_rows = body.pop("_eigen_rows", None)
    if args.format == "csv":
        if args.command == "surface":
            rows = [(r["m"], r["eigenvalue"], r["multiplicity"], r["flag"])
                    for r in body["surface"]["rows"]]
            header = ("m", "eigenvalue", "multiplicity", "flag")
        else:  # torus: main() turns csv down for the other reports
            rows = eigen_rows or []
            header = ("k", "index", "eigenvalue")
        if args.out is None:
            print(",".join(header))
            for row in rows:
                print(",".join(str(x) for x in row))
        else:
            write_csv(args.out, header, rows)
        return
    if args.command == "torus" and eigen_rows and args.out is not None:
        csv_path = args.out.with_suffix(".csv")
        write_csv(csv_path, ("k", "index", "eigenvalue"), eigen_rows)
        body["eigenvalue_csv"] = csv_path.name
    text = emit_report(body, path=args.out)
    if args.out is None:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.format == "csv" and args.command not in ("surface", "torus"):
            raise ValueError("csv output is only available for surface and "
                             "torus reports")
        body = run_experiment(config)
        _emit(args, body)
    except GuardError as exc:
        print("guard tripped: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except Exception:
        print("internal error:\n%s" % traceback.format_exc(), file=sys.stderr,
              end="")
        return 3
    if args.command == "fock" and not body.get("all_passed", True):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
