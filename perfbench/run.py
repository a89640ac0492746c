"""Benchmark of landau-lab: three workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload lattice-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is imported from
src/.  Load comes from one process at a time running one operation at a
time (a closed loop with one client).  With --trace 0 the run starts
several fresh processes one after another; each imports the program, sets
up, then runs whole passes over the workload's operations for its share of
--seconds.  With --trace 1 one process alternates untraced and traced
passes and reports per-layer figures and the trace's own overhead.

pass_s is each pass's time at a fixed machine speed: an untraced worker
runs a fixed probe of work between operations, and its pass times are
scaled by the probe's reference time over the median of its probes (see
worker.SpeedProbe).  The unscaled wall times are printed and recorded.

Every operation's outputs are checked in this process after the workers
have ended (see checks.py).  An operation that errs or whose check fails is
counted in `failed`; a wrong output also makes the run's `correct` false.
The last line of standard output is the result object; the full record,
with the environment, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PROBE_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# OpenBLAS threads per process.  One thread keeps two cores from contending
# with each other; at 2 threads some solves get faster and others slower.
BLAS_THREADS = 1
# A worker overruns its share of --seconds by its set-up and by at most one
# pass; one that is still running this long after its share is hung.
WORKER_MARGIN_S = 120

README_GRID = {"kind": "torus", "d": 1, "ks": [4, 6, 8, 10], "N": 64, "levels": 2}

WORKLOADS = {
    # Cold cluster runs: every operation starts with no spectrum in memory.
    # The README grid; the criterion-3 grid (d=4, N=16k) at k=4; and a grid
    # where gcd(kd, N^2) = 16 does not divide N = 72, so its Landau-gauge
    # rings do not all share one spectrum.
    "lattice-sweep": {
        "workers": 5,
        "cold": True,
        "warm": [],
        "ops": [README_GRID,
                {"kind": "torus", "d": 4, "ks": [4], "N": 64, "levels": 2},
                {"kind": "torus", "d": 2, "ks": [8], "N": 72, "levels": 2}],
    },
    # Set-up solves the README grid; each operation then runs the defect,
    # kernel and ladder observables on those spectra in memory.
    "lattice-observables": {
        "workers": 3,
        "cold": False,
        "warm": [README_GRID],
        "ops": [dict(README_GRID, observables=True)],
    },
    # The exact identity ledger at the acceptance shapes and one n=3 shape.
    "exact-ledger": {
        "workers": 5,
        "cold": False,
        "warm": [],
        "ops": [{"kind": "fock", "n": 1, "degree": 8},
                {"kind": "fock", "n": 2, "degree": 8},
                {"kind": "fock", "n": 3, "degree": 4}],
    },
}


def op_argv(spec: dict) -> list[str]:
    if spec["kind"] == "fock":
        return ["fock", "--check-identities", "--n", str(spec["n"]),
                "--degree", str(spec["degree"])]
    argv = ["torus", "--d", str(spec["d"]), "--k", ",".join(map(str, spec["ks"])),
            "--grid", str(spec["N"]), "--levels", str(spec["levels"])]
    if spec.get("observables"):
        argv += ["--defects", "cosx", "siny", "--kernel-compare", "--ladder", "m=1"]
    return argv


def program_seeds(workload: str, seed: int, count: int) -> list[int]:
    """The --seed values handed to the program, one per worker."""
    rng = random.Random("%s/%d" % (workload, seed))
    return [rng.randrange(1, 10 ** 6) for _ in range(count)]


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(job: dict, timeout: float) -> tuple[dict, float]:
    """Run one worker to its end; returns its result and its set-up time
    (launch to the first timed operation being ready)."""
    launched = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=worker_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-3000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready_at"] - launched


def scaled_passes(passes: list[float], probes: list[float],
                  ref_s: float) -> list[float]:
    """One worker's pass times at the reference machine speed: each times
    ref_s over the median of the worker's probes."""
    speed = statistics.median(probes)
    return [t * ref_s / speed for t in passes]


class Tally:
    """Operations attempted and failed, and whether every output was right.

    An operation that exits non-zero or raises is counted in `failed`.  One
    that completes but whose output fails its check is counted in `failed`
    too, and it makes `correct` false, as does any set-up whose output is
    wrong: the program answered, and the answer was wrong."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def _note(self, where: str, problems: list[str]) -> None:
        if len(self.problems) < 20:
            self.problems.append("%s: %s" % (where, "; ".join(problems)))

    def setup(self, where: str, rc, check) -> None:
        """A set-up step: `check()` returns its output's problems."""
        problems = ["exit %r" % rc] if rc != 0 else check()
        if problems:
            self.correct = False
            self._note(where, problems)

    def operation(self, where: str, rc, check) -> None:
        """A timed operation: `check()` is called only if it exited 0."""
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self._note(where, ["exit %r" % rc])
            return
        problems = check()
        if problems:
            self.failed += 1
            self.correct = False
            self._note(where, problems)


class Checker:
    """Checks operation outputs; caches the ring references per grid."""

    def __init__(self, seed: int):
        self.seed = seed
        self._refs: dict[tuple, object] = {}
        self._sympy: list[str] | None = None

    def reference(self, d, k, N, count):
        import checks
        ref = self._refs.get((d, k, N))
        if ref is None or len(ref) < count:
            ref = checks.ring_spectrum(d, k, N, count)
            self._refs[(d, k, N)] = ref
        return ref

    def sympy_problems(self) -> list[str]:
        if self._sympy is None:
            import checks
            from landau_lab import bargmann
            from landau_lab.fock import PolyZZbar
            from landau_lab.radicals import Rad
            self._sympy = checks.sympy_sample(
                self.seed, bargmann.laguerre_q, bargmann.gram_inner,
                lambda a, b: PolyZZbar.monomial(1, a, b), Rad.sqrt)
        return self._sympy

    def check(self, spec: dict, report_path: Path) -> list[str]:
        import checks
        if not report_path.is_file():
            return ["no report written"]
        if spec["kind"] == "fock":
            report = json.loads(report_path.read_text(encoding="utf-8"))
            return checks.check_ledger(report) + self.sympy_problems()
        report, eigen = checks.read_torus_output(report_path)
        d, N = spec["d"], spec["N"]
        refs = {(d, k, N): self.reference(d, k, N, spec["levels"] * k * d)
                for k in spec["ks"]}
        return checks.check_torus(spec, report, eigen, refs)


def environment() -> dict:
    import numpy
    import scipy
    info = {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "cpu": None, "git_sha": None,
            "openblas": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return info


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 40:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def metric_specs(kind: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "landau_lab" / "cli.py").is_file():
        print("no program source under %s; run from a landau-lab checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]

    workload = WORKLOADS[args.workload]
    workers = 1 if args.trace else workload["workers"]
    seeds = program_seeds(args.workload, args.seed, workers)
    work_root = HERE / ".work" / ("%s-%d" % (args.workload, os.getpid()))
    checker = Checker(args.seed)
    ops = workload["ops"]
    share = args.seconds / workers
    tally = Tally()
    setups, passes, walls, rss, results = [], [], [], [], []
    probes: list[float] = []
    try:
        for w in range(workers):
            workdir = work_root / ("w%d" % w)
            workdir.mkdir(parents=True)
            job = {"src": str(SRC), "workdir": str(workdir),
                   "program_seed": seeds[w], "trace": args.trace,
                   "seconds": share, "cold": workload["cold"],
                   "warm": [op_argv(s) for s in workload["warm"]],
                   "ops": [{"argv": op_argv(s)} for s in ops]}
            result, setup = run_worker(job, timeout=share + WORKER_MARGIN_S)
            setups.append(setup)
            walls += result["passes"]
            if args.trace:
                passes += result["passes"]
            else:
                passes += scaled_passes(result["passes"], result["probes"],
                                        PROBE_REF_S)
                probes += result["probes"]
            rss.append(result["maxrss_kb"] / 1024)
            results.append(result)
            for i, spec in enumerate(workload["warm"]):
                path = workdir / ("warm%d.json" % i)
                tally.setup("worker %d set-up %d" % (w, i), result["setup_rc"][i],
                            lambda: checker.check(spec, path))
            for p, rcs in enumerate(result["outcomes"]):
                for j, spec in enumerate(ops):
                    path = workdir / ("p%d_o%d.json" % (p, j))
                    tally.operation("worker %d pass %d op %d" % (w, p, j), rcs[j],
                                    lambda: checker.check(spec, path))
            shutil.rmtree(workdir)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    values: dict[str, float] = {}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "program_seeds": seeds, "ops": [op_argv(s) for s in ops],
              "warm": [op_argv(s) for s in workload["warm"]],
              "setup_s": setups, "pass_s": passes, "pass_wall_s": walls,
              "probe_s": probes, "probe_ref_s": PROBE_REF_S,
              "peak_rss_mb": rss,
              "problems": tally.problems, "environment": environment()}
    if args.trace:
        result = results[0]
        layers = result["layers"]
        for name in sorted({key for layer in layers for key in layer}):
            values[name] = statistics.median(layer.get(name, 0.0) for layer in layers)
        for name, value in (result["setup_layers"] or {}).items():
            values["setup." + name] = value
        base = statistics.median(result["passes"])
        values["trace.overhead_pct"] = 100 * (
            statistics.median(result["traced_passes"]) / base - 1)
        values["trace.spans"] = len(result["spans"])
        record.update(traced_pass_s=result["traced_passes"],
                      absent_hooks=result["absent"], layers=layers,
                      setup_layers=result["setup_layers"], spans=result["spans"])
        kind = "per_layer"
    else:
        values = {"setup_s": statistics.median(setups),
                  "pass_s": statistics.median(passes),
                  "peak_rss_mb": max(rss)}
        kind = "end_to_end"

    metrics, absent = {}, []
    for m in metric_specs(kind):
        if m["name"] not in values:
            absent.append(m["name"])
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    record.update(metrics=metrics, absent_metrics=absent,
                  attempted=tally.attempted, failed=tally.failed,
                  correct=tally.correct)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("workload %s, seed %d, program seeds %s, BLAS threads %d"
          % (args.workload, args.seed, seeds, BLAS_THREADS))
    print("passes: %d, pass_s median %.4f s; set-ups %s"
          % (len(passes), statistics.median(passes),
             " ".join("%.3f" % s for s in setups)))
    if probes:
        print("unscaled pass wall time median %.4f s; %d probes, median %.4f s "
              "against %.4f s" % (statistics.median(walls), len(probes),
                                 statistics.median(probes), PROBE_REF_S))
    tail = tail_percentile(passes)
    if tail:
        print("pass_s p%d %.4f s (information only)" % tail)
    for line in tally.problems:
        print("problem: " + line)
    if absent:
        print("no measurement on this workload (reads 0): " + ", ".join(absent))
    if args.trace and result["absent"]:
        print("absent hooks: " + ", ".join(result["absent"]))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
