"""Outside-in trace of the program's layers.

The tracer replaces public names of the program (and the two scipy names the
lattice solver goes through) with wrappers that record spans or count calls,
and puts the originals back on uninstall.  A span is [name, start, end,
parent index]; spans stay in memory until the run writes them out.  A name
that a later version of the program removes is listed as absent and its
metrics read 0; nothing fails because of it.
"""

from __future__ import annotations

import builtins
import importlib
import time

from checks import LEDGER_NON_CHECKS

_MISSING = object()

# (module, attribute path, span name).  The attribute path is looked up from
# the module, so "spla.eigsh" is the eigsh that the torus module calls.
SPAN_HOOKS = (
    ("landau_lab.cli", "main", "cli.main"),
    ("landau_lab.cli", "emit_report", "reporting.emit_report"),
    ("landau_lab.reporting", "emit_report", "reporting.emit_report"),
    ("landau_lab.torus", "compute_spectrum", "torus.compute_spectrum"),
    ("landau_lab.torus", "lowest_spectrum", "torus.lowest_spectrum"),
    ("landau_lab.torus", "spla.eigsh", "torus.eigsh"),
    ("scipy.sparse.linalg._eigen.arpack.arpack", "splu", "torus.splu"),
    ("landau_lab.torus", "DiscreteBundle.__init__", "torus.bundle"),
    ("landau_lab.torus", "DiscreteBundle.laplacian", "torus.laplacian"),
    ("landau_lab.torus", "detect_clusters", "torus.detect_clusters"),
    ("landau_lab.torus", "LandauProjector.__init__", "torus.projector"),
    ("landau_lab.torus", "toeplitz_fn", "torus.toeplitz"),
    ("landau_lab.torus", "toeplitz_der", "torus.toeplitz"),
    ("landau_lab.torus", "asymptotic_defects", "torus.defects"),
    ("landau_lab.torus", "kernel_error", "torus.kernel"),
    ("landau_lab.torus", "ladder_map", "torus.ladder"),
    ("landau_lab.fock", "FockOperator.compose", "fock.compose"),
    ("landau_lab.fock", "FockOperator.agrees_with", "fock.agrees_with"),
    ("landau_lab.bargmann", "tilde_rho", "bargmann.tilde_rho"),
    ("landau_lab.bargmann", "op_of", "bargmann.op_of"),
    ("landau_lab.bargmann", "p_ab", "bargmann.p_ab"),
    ("landau_lab.bargmann", "gram_inner", "bargmann.gram_inner"),
    ("landau_lab.bargmann", "star_product", "bargmann.star_product"),
    ("landau_lab.bargmann", "laguerre_q", "bargmann.laguerre"),
    ("landau_lab.bargmann", "laguerre_sum_identity", "bargmann.laguerre"),
    ("landau_lab.identities", "run_identity_checks", "identities.run"),
)

# Call counters without spans: these run millions of times.
COUNT_HOOKS = (
    ("landau_lab.radicals", "CRad.__mul__", "radicals.crad_mul"),
    ("landau_lab.radicals", "CRad.__rmul__", "radicals.crad_mul"),
    ("landau_lab.radicals", "CRad.__add__", "radicals.crad_add"),
    ("landau_lab.radicals", "CRad.__radd__", "radicals.crad_add"),
    ("landau_lab.radicals", "Rad.__mul__", "radicals.rad_mul"),
    ("landau_lab.radicals", "Rad.__rmul__", "radicals.rad_mul"),
)

# The identity suite's record() passes every verdict through the module-level
# name `bool` right before appending the record, so a `bool` placed in the
# module's globals marks when each record is appended.
RECORD_HOOK = ("landau_lab.identities", "bool")



def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, _MISSING)
        if owner is _MISSING:
            return None
    value = getattr(owner, attr, _MISSING)
    if value is _MISSING or not callable(value):
        return None
    return owner, attr, value


class _TimedLU:
    """Stand-in for a SuperLU factorization whose solves are spans."""

    def __init__(self, tracer: "Tracer", lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._tracer.span("torus.solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.records: list[float] = []
        self.absent: list[str] = []
        self.spectrum_arrays: dict[int, int] = {}
        self.record_names: dict[int, list[str]] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.records.clear()
        self.spectrum_arrays.clear()
        self.record_names.clear()

    def span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name, fn):
        tracer = self

        if name == "torus.splu":
            def wrapper(*args, **kwargs):
                return _TimedLU(tracer, tracer.span(name, fn, args, kwargs))
        elif name == "torus.compute_spectrum":
            def wrapper(*args, **kwargs):
                dec = tracer.span(name, fn, args, kwargs)
                vectors = getattr(dec, "vectors", None)
                if vectors is not None:
                    tracer.spectrum_arrays[id(vectors)] = vectors.nbytes
                return dec
        elif name == "identities.run":
            def wrapper(*args, **kwargs):
                idx = len(tracer.spans)
                records = tracer.span(name, fn, args, kwargs)
                tracer.record_names[idx] = [
                    r.get("name") for r in records
                    if r.get("name") not in LEDGER_NON_CHECKS]
                return records
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, args, kwargs)
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _record_bool(self, value):
        self.records.append(time.perf_counter())
        return builtins.bool(value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for hooks, make in ((SPAN_HOOKS, self._span_wrapper),
                            (COUNT_HOOKS, self._count_wrapper)):
            for module, path, name in hooks:
                found = _resolve(module, path)
                if found is None:
                    self.absent.append("%s:%s" % (module, path))
                    continue
                owner, attr, value = found
                self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, make(name, value))
        module, attr = RECORD_HOOK
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.absent.append("%s:%s" % RECORD_HOOK)
        else:
            self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, self._record_bool)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _tree(spans):
    children: dict[int, list[int]] = {}
    for idx, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(idx)
    return children


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of everything recorded since the last reset."""
    spans = tracer.spans
    children = _tree(spans)
    dur = [end - start for _, start, end, _ in spans]

    def ancestors(idx):
        parent = spans[idx][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    def total(*names):
        """Time in the named spans, not counting a named span nested in
        another one."""
        return sum(dur[i] for i, s in enumerate(spans)
                   if s[0] in names and not any(a in names for a in ancestors(i)))

    def self_time(*names):
        return sum(dur[i] - sum(dur[c] for c in children.get(i, ()))
                   for i, s in enumerate(spans) if s[0] in names)

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    def has_descendant(idx, names):
        stack = list(children.get(idx, ()))
        while stack:
            c = stack.pop()
            if spans[c][0] in names:
                return True
            stack.extend(children.get(c, ()))
        return False

    def reuse(name, work):
        calls = [i for i, s in enumerate(spans) if s[0] == name]
        if not calls:
            return 0.0
        return sum(1 for i in calls if not has_descendant(i, work)) / len(calls)

    out = {
        "torus.eigsh_s": total("torus.eigsh"),
        "torus.factor_s": total("torus.splu"),
        "torus.solve_calls": count("torus.solve"),
        "torus.solve_s": total("torus.solve"),
        "torus.arpack_self_s": self_time("torus.eigsh"),
        "torus.residual_s": self_time("torus.lowest_spectrum"),
        "torus.projector_s": self_time("torus.projector"),
        "torus.toeplitz_s": total("torus.toeplitz"),
        "torus.defects_s": self_time("torus.defects"),
        "torus.kernel_s": self_time("torus.kernel"),
        "torus.ladder_s": self_time("torus.ladder"),
        "torus.assemble_s": total("torus.bundle", "torus.laplacian"),
        "torus.laplacian_calls": count("torus.laplacian"),
        "torus.cluster_s": total("torus.detect_clusters"),
        "torus.spectrum_calls": count("torus.compute_spectrum"),
        "torus.spectrum_reuse": reuse("torus.compute_spectrum",
                                      ("torus.lowest_spectrum", "torus.eigsh")),
        "torus.spectrum_mb": sum(tracer.spectrum_arrays.values()) / 1e6,
        "radicals.crad_mul_calls": tracer.counts.get("radicals.crad_mul", 0),
        "radicals.crad_add_calls": tracer.counts.get("radicals.crad_add", 0),
        "radicals.rad_mul_calls": tracer.counts.get("radicals.rad_mul", 0),
        "fock.compose_calls": count("fock.compose"),
        "fock.compose_s": total("fock.compose"),
        "fock.agrees_with_s": total("fock.agrees_with"),
        "bargmann.tilde_rho_calls": count("bargmann.tilde_rho"),
        "bargmann.tilde_rho_reuse": reuse("bargmann.tilde_rho", ("fock.compose",)),
        "bargmann.op_of_s": total("bargmann.op_of"),
        "bargmann.p_ab_s": total("bargmann.p_ab"),
        "bargmann.gram_inner_s": total("bargmann.gram_inner"),
        "bargmann.star_product_s": total("bargmann.star_product"),
        "bargmann.laguerre_s": total("bargmann.laguerre"),
        "cli.main_s": total("cli.main"),
        "reporting.emit_report_s": total("reporting.emit_report"),
    }
    out.update(identity_times(tracer))
    return out


def identity_times(tracer: Tracer) -> dict[str, float]:
    """Seconds per identity check: the time from the previous record (or the
    start of the suite) to the check's own record.  A suite run whose
    records cannot be matched to record timestamps is skipped."""
    per: dict[str, float] = {}
    for idx, names in tracer.record_names.items():
        _, start, end, _ = tracer.spans[idx]
        marks = [t for t in tracer.records if start <= t <= end]
        if len(marks) != len(names):
            continue
        prev = start
        for name, t in zip(names, marks):
            key = "identities.%s_s" % name
            per[key] = per.get(key, 0.0) + t - prev
            prev = t
    return per
