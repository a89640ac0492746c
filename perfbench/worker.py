"""One load-generating process: imports the program, sets up, then runs whole
passes over the workload's operations until its time is up.

Run by run.py, never by hand.  It reads a JSON job from stdin and prints one
JSON line with its timings.  Operations write their reports under the job's
work directory; run.py checks them after this process has ended.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# The machine's speed drifts by a fifth or more over minutes, and the drift
# moves exact arithmetic and sparse solves alike.  An untraced worker runs a
# fixed probe (SpeedProbe) before its first operation and after any
# operation that ends at least PROBE_EVERY_S after the last probe.  run.py
# scales the worker's pass times by PROBE_REF_S over the median of its
# probes.
PROBE_EVERY_S = 1.0
# A round figure near the probe's median wall time (0.088-0.091 s) on the
# machine the reference figures in README.md come from, at 1 BLAS thread.
PROBE_REF_S = 0.1


def reset_program_caches() -> None:
    """Forget every spectrum the program holds, as a fresh CLI process would:
    module-level dicts whose name mentions a cache, and functools caches."""
    for mod in [m for name, m in sys.modules.items()
                if name.startswith("landau_lab") and m is not None]:
        for name, value in vars(mod).items():
            if isinstance(value, dict) and "cache" in name.lower():
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class SpeedProbe:
    """A fixed chunk of work of the kinds the program does: exact Fraction
    arithmetic and dict updates in pure Python, then sparse complex LU
    factorizations of a small periodic 2-D Laplacian and their solves."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu
        n = 32
        ring = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="lil")
        ring[0, n - 1] = ring[n - 1, 0] = -1.0
        eye = sp.identity(n)
        phase = sp.diags(1e-2 * np.exp(0.01j * np.arange(n * n)))
        self.matrix = (sp.kron(eye, ring) + sp.kron(ring, eye) + phase).tocsc()
        self.rhs = np.ones(n * n, dtype=complex)
        self.splu = splu

    def run(self) -> float:
        """Wall time of one probe."""
        t0 = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, 10000):
            total += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
            table[i % 211] = table.get(i % 211, 0) + total.denominator % 1009
        for _ in range(7):
            lu = self.splu(self.matrix)
            for _ in range(20):
                lu.solve(self.rhs)
        return time.perf_counter() - t0


def run_op(cli, argv: list[str]) -> tuple[float, int | str]:
    """Wall time of one CLI invocation and its exit code (or the traceback
    of an exception, which counts the operation as failed)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception:  # the run goes on; run.py counts the operation failed
        return time.perf_counter() - t0, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, rc


def main() -> int:
    result = measure(json.loads(sys.stdin.read()))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def measure(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from landau_lab import cli

    tracer = None
    if job["trace"]:
        import layertrace as tracing
        tracer = tracing.Tracer()

    work = Path(job["workdir"])
    seed = str(job["program_seed"])

    def argv_for(op_argv, tag):
        return ["--seed", seed, "--out", str(work / (tag + ".json"))] + op_argv

    setup_rc = []
    setup_layers = None
    if tracer is not None:
        tracer.install()
    for i, op_argv in enumerate(job["warm"]):
        setup_rc.append(run_op(cli, argv_for(op_argv, "warm%d" % i))[1])
    if tracer is not None:
        tracer.uninstall()
        setup_layers = tracing.layer_metrics(tracer)
        tracer.reset()
    ready_at = time.monotonic()

    passes, traced_passes, layers, outcomes = [], [], [], []
    # Untraced runs only, so that the probe adds no spans.
    probe = SpeedProbe() if tracer is None else None
    probes = []
    probed_at = 0.0

    def run_probe(due=True):
        nonlocal probed_at
        if probe is not None and due:
            probes.append(probe.run())
            probed_at = time.perf_counter()

    run_probe()
    deadline = time.perf_counter() + job["seconds"]
    last = 0.0
    p = 0
    # Whole passes while the next one is expected to end less than half a
    # pass after the deadline, so that a worker measures its share on
    # average; always one, and in a traced run always pairs of an untraced
    # and a traced pass.
    while (p == 0 or time.perf_counter() + last / 2 <= deadline
           or (tracer and p % 2)):
        traced = tracer is not None and p % 2 == 1
        started = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
        times, rcs = [], []
        for j, op in enumerate(job["ops"]):
            if job["cold"]:
                reset_program_caches()
            t, rc = run_op(cli, argv_for(op["argv"], "p%d_o%d" % (p, j)))
            times.append(t)
            rcs.append(rc)
            run_probe(time.perf_counter() - probed_at >= PROBE_EVERY_S)
        if traced:
            tracer.uninstall()
            layers.append(tracing.layer_metrics(tracer))
            traced_passes.append(sum(times))
        else:
            passes.append(sum(times))
        last = time.perf_counter() - started
        outcomes.append(rcs)
        p += 1

    result = {
        "ready_at": ready_at,
        "setup_rc": setup_rc,
        "passes": passes,
        "outcomes": outcomes,
        "probes": probes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result.update(traced_passes=traced_passes, layers=layers,
                      setup_layers=setup_layers, absent=tracer.absent,
                      spans=tracer.spans)
    return result


if __name__ == "__main__":
    sys.exit(main())
