"""Outside-in tracing for the benchmark's traced run.

The library has no timer of its own, so the traced run wraps ramspect's
public functions from here: each wrapper is installed in every ramspect
module namespace that holds the original (``from .graph_core import
count_edges`` makes a second reference), and every original is put back on
exit.  Spans live in memory and are written out once, when the run ends.

A span covers one call.  The hot popcount kernels in AGGREGATED are called
hundreds of times per harvest window, so they get one record per parent
span that carries the summed duration and the call count.  Counter hooks
run after a call returns; their own time is recorded as a ``trace.counters``
child of the caller so it never lands in a layer's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from ramspect.graph_core import symdiff_size

# module -> public functions wrapped in the traced run.  A name a later
# change deletes is reported as absent instead of failing the run.
TRACED = {
    "ramspect.cli": ["main"],
    "ramspect.spectrum_oracle": ["phi_exact", "psi_exact"],
    "ramspect.graph_core": ["generate", "induced_subgraph", "count_edges",
                            "unit_degree", "symdiff_size"],
    "ramspect.structure_audit": ["rich_extract", "richness_audit"],
    "ramspect.ramsey_construct": ["construct", "pigeonhole_pairs",
                                  "filter_close_complements", "star_or_matching",
                                  "independent_units", "sample_U0", "select_STX",
                                  "verify_construction"],
    "ramspect.double_exposure": ["per_m_run", "expose", "family_table",
                                 "per_k_checks"],
    "ramspect.anticoncentration": ["lo_scaling_fit", "lo_exact_distribution",
                                   "lo_point_prob_mc"],
}

AGGREGATED = {"graph_core.count_edges", "graph_core.unit_degree",
              "graph_core.symdiff_size"}

SETUP_OP = -1  # op id of the traced set-up; every timed op has an id >= 0


@dataclass
class Span:
    name: str
    op: int
    parent: int      # index of the parent span, -1 for a root
    start: float
    dur: float = 0.0
    calls: int = 1


def self_times(spans) -> list:
    """Each span's duration minus the time covered by its direct children."""
    out = [s.dur for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.dur
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []      # indices of the open spans, innermost last
        self.agg = {}        # (parent index, name) -> index of the aggregate record
        self.counters = {}   # layer name -> Counter, filled by timed ops only
        self.absent = []

    @contextmanager
    def root(self, name: str, op: int):
        """Open the root span of one op; wrapped calls record only inside one."""
        idx = self.open(name, op)
        try:
            yield
        finally:
            self.close(idx)

    def open(self, name: str, op: int | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        if op is None:
            op = self.spans[parent].op
        self.spans.append(Span(name, op, parent, perf_counter()))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.dur = perf_counter() - span.start
        self.stack.pop()

    def add(self, name: str, start: float, dur: float) -> None:
        """Fold one call into the aggregate record under the open span."""
        parent = self.stack[-1]
        key = (parent, name)
        idx = self.agg.get(key)
        if idx is None:
            self.agg[key] = len(self.spans)
            self.spans.append(Span(name, self.spans[parent].op, parent, start, dur))
        else:
            span = self.spans[idx]
            span.dur += dur
            span.calls += 1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "op": s.op, "parent": s.parent,
                                     "start": s.start, "end": s.start + s.dur,
                                     "calls": s.calls}) + "\n")
            fh.write(json.dumps({"absent": self.absent}) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)
    sig = inspect.signature(fn) if hook else None

    if name in AGGREGATED:
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add(name, t0, perf_counter() - t0)
        return wrapper

    def wrapper(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx)
            _count(tracer, name, hook, sig, args, kwargs, None, exc)
            raise
        tracer.close(idx)
        _count(tracer, name, hook, sig, args, kwargs, result, None)
        return result
    return wrapper


def _count(tracer, name, hook, sig, args, kwargs, result, exc):
    if hook is None or tracer.spans[tracer.stack[0]].op < 0:
        return
    t0 = perf_counter()
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    hook(tracer.counters.setdefault(name, Counter()), bound.arguments, result, exc)
    tracer.add("trace.counters", t0, perf_counter() - t0)


@contextmanager
def installed(tracer: Tracer, traced=TRACED):
    """Wrap every traced function in every namespace of its package."""
    patches = []
    try:
        for modname, names in traced.items():
            mod = importlib.import_module(modname)
            pkg = modname.split(".")[0]
            spaces = [m for k, m in list(sys.modules.items())
                      if k == pkg or k.startswith(pkg + ".")]
            for fname in names:
                key = f"{modname.split('.')[-1]}.{fname}"
                orig = getattr(mod, fname, None)
                if orig is None:
                    if key not in tracer.absent:
                        tracer.absent.append(key)
                    continue
                wrapper = _wrap(tracer, key, orig)
                for space in spaces:
                    for attr, val in list(vars(space).items()):
                        if val is orig:
                            patches.append((space, attr, orig))
                            setattr(space, attr, wrapper)
        yield tracer
    finally:
        for space, attr, orig in reversed(patches):
            setattr(space, attr, orig)


# ── counters ─────────────────────────────────────────────────────────────
# Each hook sees (counter, bound arguments, result, exception) and reads
# only public inputs and outputs.


def conflict_pairs(g, units, theta_conflict: float) -> int:
    """Unit pairs whose multiset symmetric difference is below theta*n, the
    conflict edges independent_units builds, counted with the reference
    symdiff_size (imported before any wrapper is installed)."""
    thr = theta_conflict * g.n
    return sum(symdiff_size(g, x, y) < thr
               for i, x in enumerate(units) for y in units[i + 1:])


def _phi(c, a, r, e):
    c["subsets"] += 1 << a["g"].n
    if r is not None:
        c["entries"] += len(r.sizes)


def _psi(c, a, r, e):
    c["subsets"] += 1 << a["g"].n
    if r is not None:
        c["entries"] += len(r)


def _induced(c, a, r, e):
    if r is not None:
        c["vertices_copied"] += len(r[1])


def _filter(c, a, r, e):
    if r is not None:
        c["in"] += len(a["h"])
        c["kept"] += len(r)


def _independent(c, a, r, e):
    if r is not None:
        c["in"] += len(a["units"])
        c["kept"] += len(r)
        c["conflict_pairs"] += conflict_pairs(a["g"], a["units"], a["theta_conflict"])


def _sample_u0(c, a, r, e):
    diag = r[3] if r is not None else getattr(e, "diagnostics", {})
    c["attempts"] += len(diag.get("attempts", ()))
    c["accepted"] += r is not None


def _rich_extract(c, a, r, e):
    if r is not None:
        c["rounds"] += len(r.trace)


def _richness(c, a, r, e):
    if r is not None:
        c["candidates"] += r.budget_used


def _family(c, a, r, e):
    if r is not None:
        c["cells"] += sum(len(rec.i_values) for rec in r)


def _per_k(c, a, r, e):
    if r is not None:
        c["rows"] += 1
        c["passing"] += all(r)


def _per_m(c, a, r, e):
    if r is not None:
        c["exposures"] += r.attempts
        c["accepted"] += bool(r.distinct_sizes)


def _lo_exact(c, a, r, e):
    inst = a["inst"]
    c["dp_cells"] += len(inst.coefficients) * (inst.weight + 1)


def _lo_mc(c, a, r, e):
    c["trials"] += a["trials"]


HOOKS = {
    "spectrum_oracle.phi_exact": _phi,
    "spectrum_oracle.psi_exact": _psi,
    "graph_core.induced_subgraph": _induced,
    "ramsey_construct.filter_close_complements": _filter,
    "ramsey_construct.independent_units": _independent,
    "ramsey_construct.sample_U0": _sample_u0,
    "structure_audit.rich_extract": _rich_extract,
    "structure_audit.richness_audit": _richness,
    "double_exposure.family_table": _family,
    "double_exposure.per_k_checks": _per_k,
    "double_exposure.per_m_run": _per_m,
    "anticoncentration.lo_exact_distribution": _lo_exact,
    "anticoncentration.lo_point_prob_mc": _lo_mc,
}


# ── per-layer metrics ────────────────────────────────────────────────────

# Bytes a DP cell update computes: two float64 reads and one write.
DP_BYTES_PER_CELL = 24


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, ops: int, setups: int = 1) -> dict:
    """Per-layer figures of the traced ops, per op where they are totals.

    Spans of the traced set-ups count only toward graph_core.generate.s,
    which is per set-up.  A layer a workload never calls reads 0.
    """
    calls, dur, selfs = Counter(), Counter(), Counter()
    gen_s = 0.0
    for span, st in zip(tracer.spans, self_times(tracer.spans)):
        if span.op == SETUP_OP:
            if span.name == "graph_core.generate":
                gen_s += span.dur
            continue
        calls[span.name] += span.calls
        dur[span.name] += span.dur
        selfs[span.name] += st
    c = {name: tracer.counters.get(name, Counter()) for name in HOOKS}
    m = {}

    def per_op(x):
        return x / ops

    for name in ("spectrum_oracle.phi_exact", "spectrum_oracle.psi_exact"):
        m[f"{name}.self_s"] = per_op(selfs[name])
        m[f"{name}.subsets_per_s"] = _ratio(c[name]["subsets"], dur[name])
    m["spectrum_oracle.spectrum_entries"] = per_op(
        c["spectrum_oracle.phi_exact"]["entries"] + c["spectrum_oracle.psi_exact"]["entries"])
    name = "graph_core.induced_subgraph"
    m[f"{name}.calls"] = per_op(calls[name])
    m[f"{name}.self_s"] = per_op(selfs[name])
    m[f"{name}.vertices_copied"] = per_op(c[name]["vertices_copied"])
    for fn in ("construct", "pigeonhole_pairs", "star_or_matching", "select_STX",
               "verify_construction", "filter_close_complements", "independent_units",
               "sample_U0"):
        m[f"ramsey_construct.{fn}.self_s"] = per_op(selfs[f"ramsey_construct.{fn}"])
    cf = c["ramsey_construct.filter_close_complements"]
    m["ramsey_construct.filter_close_complements.kept_ratio"] = _ratio(cf["kept"], cf["in"])
    ci = c["ramsey_construct.independent_units"]
    m["ramsey_construct.independent_units.conflict_pairs"] = per_op(ci["conflict_pairs"])
    m["ramsey_construct.independent_units.kept_ratio"] = _ratio(ci["kept"], ci["in"])
    cs = c["ramsey_construct.sample_U0"]
    m["ramsey_construct.sample_U0.attempts"] = per_op(cs["attempts"])
    m["ramsey_construct.sample_U0.accept_ratio"] = _ratio(cs["accepted"], cs["attempts"])
    m["structure_audit.rich_extract.self_s"] = per_op(selfs["structure_audit.rich_extract"])
    m["structure_audit.rich_extract.rounds"] = per_op(c["structure_audit.rich_extract"]["rounds"])
    name = "structure_audit.richness_audit"
    m[f"{name}.calls"] = per_op(calls[name])
    m[f"{name}.self_s"] = per_op(selfs[name])
    m[f"{name}.candidates"] = per_op(c[name]["candidates"])
    for fn in ("count_edges", "unit_degree", "symdiff_size"):
        m[f"graph_core.{fn}.calls"] = per_op(calls[f"graph_core.{fn}"])
        m[f"graph_core.{fn}.self_s"] = per_op(selfs[f"graph_core.{fn}"])
    m["double_exposure.per_m_run.self_s"] = per_op(selfs["double_exposure.per_m_run"])
    m["double_exposure.expose.calls"] = per_op(calls["double_exposure.expose"])
    m["double_exposure.expose.self_s"] = per_op(selfs["double_exposure.expose"])
    m["double_exposure.family_table.self_s"] = per_op(selfs["double_exposure.family_table"])
    m["double_exposure.family_table.cells"] = per_op(c["double_exposure.family_table"]["cells"])
    name = "double_exposure.per_k_checks"
    m[f"{name}.calls"] = per_op(calls[name])
    m[f"{name}.self_s"] = per_op(selfs[name])
    m[f"{name}.rows_passing_ratio"] = _ratio(c[name]["passing"], c[name]["rows"])
    cm = c["double_exposure.per_m_run"]
    m["double_exposure.exposure_accept_ratio"] = _ratio(cm["accepted"], cm["exposures"])
    name = "anticoncentration.lo_exact_distribution"
    cells = c[name]["dp_cells"]
    m[f"{name}.calls"] = per_op(calls[name])
    m[f"{name}.self_s"] = per_op(selfs[name])
    m[f"{name}.dp_cells"] = per_op(cells)
    m[f"{name}.dp_cells_per_s"] = _ratio(cells, dur[name])
    m[f"{name}.dp_bytes_computed"] = per_op(cells * DP_BYTES_PER_CELL)
    m["anticoncentration.lo_scaling_fit.self_s"] = per_op(selfs["anticoncentration.lo_scaling_fit"])
    name = "anticoncentration.lo_point_prob_mc"
    m[f"{name}.self_s"] = per_op(selfs[name])
    m[f"{name}.trials_per_s"] = _ratio(c[name]["trials"], dur[name])
    m["cli.main.self_s"] = per_op(selfs["cli.main"])
    m["graph_core.generate.s"] = gen_s / setups
    return m
