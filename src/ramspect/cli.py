"""Command-line front end: seeded, reproducible, file-oriented runs.

Text/CSV artifacts begin with '#' header lines (version, effective config,
master seed); JSON artifacts embed the same header object at the top level.
Below the header, output is byte-identical across re-runs with the same
config and seed.

The construct and per-m --dump JSON artifacts are the result dataclasses'
fields: ConstructionResult minus u0_mask (written as u0_size), and
PerMOutcome with each PerKRecord minus z_masks.  A field added to one of
those classes enters the artifact and moves the golden digests.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import typing
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__ as VERSION
from . import anticoncentration as ac
from . import graph_core as gc
from . import spectrum_oracle as so
from . import structure_audit as sa
from .double_exposure import ExposureParams, per_m_run, theorem_run
from .errors import (CapacityError, ConstructionFailure, GraphParseError,
                     ParameterError, RamspectError, _require, _require_cap)
from .ramsey_construct import ConstructionParams, construct, m_window
from .seeding import derive_seed

SCHEMA = 1
VERTEX_CAP = 1 << 16  # no command builds a graph on more vertices


# ── slope fitting ────────────────────────────────────────────────────────


def fit_slope(points) -> tuple[float, float]:
    """Least-squares slope of log(count) vs log(n) with a 95% interval.

    Returns (slope, half_width); the interval is slope +- half_width where
    half_width = 1.96 * standard error of the slope. Requires >= 3 points,
    pairwise-distinct n, and positive n and counts.
    """
    pts = [(float(n), float(c)) for n, c in points]
    if len(pts) < 3:
        raise ParameterError(f"slope fit needs >= 3 points, got {len(pts)}")
    if any(n <= 0 or c <= 0 for n, c in pts):
        raise ParameterError("slope fit needs positive n and count values")
    if len({n for n, _ in pts}) != len(pts):
        raise ParameterError("slope fit needs pairwise-distinct n values")
    logs = np.log(np.array(pts))
    slope, se = ac._least_squares_slope(logs[:, 0], logs[:, 1])
    return slope, 1.96 * se


# ── plumbing ─────────────────────────────────────────────────────────────


class _Parser(argparse.ArgumentParser):
    # contract: bad usage is a parameter error -> exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _field_types(cls) -> dict:
    """Settable field name -> the types its annotation admits."""
    hints = typing.get_type_hints(cls)
    # seed is set by --seed, never by --set
    return {f.name: set(typing.get_args(hints[f.name])) or {hints[f.name]}
            for f in fields(cls) if f.name != "seed"}


def _coerce(key: str, text: str, types: set):
    """Parse an override value as the field's type; an int is a valid float."""
    low = text.lower()
    if low == "none" and type(None) in types:
        return None
    if bool in types and low in ("true", "false"):
        return low == "true"
    casts = (int, float) if float in types else (int,) if int in types else ()
    for cast in casts:
        try:
            return cast(text)
        except ValueError:
            pass
    want = " or ".join(sorted("None" if t is type(None) else t.__name__
                              for t in types))
    raise ParameterError(f"override {key} expects {want}, got {text!r}")


_CP_FIELDS = _field_types(ConstructionParams)
_EP_FIELDS = _field_types(ExposureParams)
_AP_FIELDS = _field_types(sa.AuditParams)
_PIPELINE_FIELDS = {"construct": _CP_FIELDS, "exposure": _EP_FIELDS}


def _split_overrides(pairs, groups: dict) -> dict:
    out = {name: {} for name in groups}
    for raw in pairs or ():
        key, sep, val = raw.partition("=")
        if not sep or not key:
            raise ParameterError(f"override must be key=value, got {raw!r}")
        key = key.strip()
        hits = [name for name, keys in groups.items() if key in keys]
        if not hits:
            known = sorted(set().union(*groups.values()))
            raise ParameterError(
                f"unknown override key {key!r}; known keys: {', '.join(known)}")
        for name in hits:
            out[name][key] = _coerce(key, val.strip(), groups[name][key])
    return out


def _json_default(obj):
    if isinstance(obj, gc.Unit):
        return list(obj.vertices)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=_json_default)


def _header_obj(ns, config: dict) -> dict:
    # generate, phi and psi take no --seed: their header reads seed 0
    return {"version": VERSION, "seed": getattr(ns, "seed", 0), "config": config}


def _text_header(ns, config: dict) -> str:
    h = _header_obj(ns, config)
    return (f"# ramspect {h['version']}\n"
            f"# seed {h['seed']}\n"
            f"# config {_dumps(config)}\n")


def _emit(ns, header: str, body: str) -> None:
    """File outputs carry the '#' header; stdout stays bare for piping.  Every
    body ends in a newline."""
    if getattr(ns, "out", None):
        Path(ns.out).write_text(header + body)
    else:
        sys.stdout.write(body)


def _json_doc(ns, config: dict, payload: dict) -> str:
    # JSON artifacts embed the header object so the file stays parseable
    return _dumps({"schema": SCHEMA, "header": _header_obj(ns, config), **payload}) + "\n"


def _build_graph(ns, cap: int) -> tuple[gc.Graph, dict]:
    # a vertex count above the command's cap, from --n or the file's header,
    # is refused before any row is built; the header config names only what
    # the source read
    graph = getattr(ns, "graph", None)  # generate takes no --graph
    if bool(graph) == bool(ns.gen):
        raise ParameterError("exactly one of --graph or --gen is required")
    _refuse_unread(ns)
    if graph:
        try:  # UTF-8 whatever the locale
            text = Path(graph).read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphParseError(f"{graph}: byte {exc.start} is not valid UTF-8") from None
        g = gc.load_graph(text, max_n=cap)
        return g, {"file": graph, "n": g.n}
    if ns.n is None:
        raise ParameterError("--gen requires --n")
    _require_cap("--n", ns.n, cap)
    if ns.gen != "gnp":
        return gc.generate(ns.gen, n=ns.n), {"model": ns.gen, "n": ns.n}
    p = 0.5 if ns.p is None else ns.p
    seed = 0 if ns.graph_seed is None else ns.graph_seed
    cfg = {"model": "gnp", "n": ns.n, "seed": seed, "p": p}
    return gc.generate("gnp", n=ns.n, p=p, seed=seed), cfg


def _refuse_unread(ns) -> None:
    """A graph-source flag the source does not read is an error: a --graph
    file reads none of --n, --p and --graph-seed, and only gnp draws."""
    if getattr(ns, "graph", None):
        source, unread = "--graph", ("n", "p", "graph_seed")
    elif ns.gen != "gnp":
        source, unread = f"--gen {ns.gen}", ("p", "graph_seed")
    else:
        return
    for dest in unread:
        if getattr(ns, dest, None) is not None:
            raise ParameterError(f"{source} does not read --{dest.replace('_', '-')}")


def _fields(obj, drop=()) -> dict:
    """A dataclass's fields by name, one level deep, minus those in drop."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in drop}


def _emit_windows(ns, config: dict, windows, footer: list, dump: dict) -> None:
    """The per-m/theorem CSV, one row per window outcome, and --dump's JSON."""
    lines = ["m,e_U,distinct_count,k_selected,p_selected,attempts"]
    for w in windows:
        ks = "|".join(str(k) for k in w.k_selected)
        ps = "|".join(f"{k}:{i}" for k, i in w.p_selected)
        lines.append(f"{w.m},{w.e_u},{w.distinct_count},{ks},{ps},{w.attempts}")
    _emit(ns, _text_header(ns, config), "\n".join(lines + footer) + "\n")
    if ns.dump:
        Path(ns.dump).write_text(_json_doc(ns, config, dump))


def _pipeline_params(ov: dict, seed: int) -> tuple[ConstructionParams, ExposureParams]:
    cp = ConstructionParams(seed=seed, **ov["construct"])
    ep = ExposureParams(seed=derive_seed(seed, "exposure"), **ov["exposure"])
    return cp, ep


def _pipeline_inputs(ns):
    """per-m/theorem: graph, graph source and both param sets."""
    g, gsrc = _build_graph(ns, VERTEX_CAP)
    return (g, gsrc, *_pipeline_params(_split_overrides(ns.set, _PIPELINE_FIELDS), ns.seed))


# ── subcommands ──────────────────────────────────────────────────────────


def cmd_generate(ns) -> int:
    g, cfg = _build_graph(ns, VERTEX_CAP)
    _emit(ns, _text_header(ns, cfg), gc.dump_graph(g))
    return 0


def cmd_spectrum(ns) -> int:
    """phi lists the edge counts, psi the order:size pairs."""
    g, gsrc = _build_graph(ns, so.PHI_EXACT_CAP)
    cfg = {"graph": gsrc}
    if ns.cmd == "phi":
        sizes = so.phi_exact(g).sizes
        cells = [str(s) for s in sizes]
    else:
        pairs = so.psi_exact(g)
        sizes = [s for _, s in pairs]
        cells = [f"{k}:{s}" for k, s in pairs]
    summary = f"|{ns.cmd.capitalize()}|={len(cells)} max={max(sizes)}"
    _emit(ns, _text_header(ns, cfg), ",".join(cells) + "\n" + summary + "\n")
    return 0


def cmd_audit(ns) -> int:
    g, gsrc = _build_graph(ns, VERTEX_CAP)
    ov = _split_overrides(ns.set, {"audit": _AP_FIELDS})
    params = sa.AuditParams(seed=ns.seed, **ov["audit"])
    cfg = {"graph": gsrc, "params": asdict(params)}

    profile, close_pairs = sa.pair_audit(g, params.c_div, params.epsilon / 2)
    extract = sa.rich_extract(g, params)
    payload = {
        "density": sa.edge_density(g),
        "diversity_max_count": max(profile) if profile else 0,
        "close_complement_pairs": close_pairs,
        # the extraction's first round is the budgeted audit, and it records
        # a round exactly when that audit finds a witness
        "richness_status": "witness_found" if extract.trace else "no_witness_in_budget",
        "extract_trace": {
            "status": extract.status,
            "kept_size": extract.u_mask.bit_count(),
            "rounds": [asdict(r) for r in extract.trace],
        },
    }
    _emit(ns, "", _json_doc(ns, cfg, payload))
    return 0


def cmd_lo(ns) -> int:
    # each n builds an n-int coefficient tuple before the exact/MC choice
    _require_cap("--n-list value", max(ns.n_list, default=0), ac.EXACT_WEIGHT_CAP)
    p = 0.5 if ns.p is None else ns.p
    cfg = {"model": ns.model, "n_values": ns.n_list, "p": p, "trials": ns.trials}
    fit = ac.lo_scaling_fit(ns.n_list, coeff_model=ns.model, p=p,
                            trials=ns.trials, seed=ns.seed)
    lines = ["n,max_prob,method"]
    for n, prob, method in zip(fit.n_values, fit.max_probs, fit.methods):
        lines.append(f"{n},{prob:.12e},{method}")
    lines.append(f"# slope={fit.slope:.6f} stderr={fit.stderr:.6f}")
    _emit(ns, _text_header(ns, cfg), "\n".join(lines) + "\n")
    return 0


def cmd_construct(ns) -> int:
    # construct runs no exposure, so an exposure key is an unknown one
    g, gsrc = _build_graph(ns, VERTEX_CAP)
    ov = _split_overrides(ns.set, {"construct": _CP_FIELDS})["construct"]
    cp = ConstructionParams(seed=ns.seed, **ov)
    m = ns.m if ns.m is not None else m_window(cp, g.n).mid
    cfg = {"graph": gsrc, "m": m, "cparams": asdict(cp), "overrides": ov}
    res = construct(g, m, cp)
    payload = {**_fields(res, drop=("u0_mask",)), "u0_size": res.u0_mask.bit_count()}
    _emit(ns, "", _json_doc(ns, cfg, payload))
    return 0


def cmd_per_m(ns) -> int:
    g, gsrc, cp, ep = _pipeline_inputs(ns)
    m = ns.m if ns.m is not None else m_window(cp, g.n).mid
    cfg = {"graph": gsrc, "m": m, "cparams": asdict(cp), "eparams": asdict(ep)}
    out = per_m_run(g, m, cp, ep)
    # str keys: sort_keys orders "10" before "2", as the artifact always has
    records = [{**_fields(r, drop=("z_masks",)),
                "x_witnesses": {str(i): w for i, w in r.x_witnesses.items()}}
               for r in out.records]
    _emit_windows(ns, cfg, [out], [], {**_fields(out), "records": records})
    return 0


def cmd_theorem(ns) -> int:
    g, gsrc, cp, ep = _pipeline_inputs(ns)
    cfg = {"graph": gsrc, "cparams": asdict(cp), "eparams": asdict(ep)}
    out = theorem_run(g, cp, ep)
    footer = [f"# total_distinct={out.total_distinct} step={out.step} "
              f"windows_attempted={len(out.windows)}"]
    payload = {"step": out.step, "total_distinct": out.total_distinct,
               "windows": [[m, (o.distinct_count if o is not None else None),
                            kept] for m, o, kept in out.windows],
               "kept_sizes": [list(w.distinct_sizes) for w in out.kept],
               "diagnostics": out.diagnostics}
    _emit_windows(ns, cfg, out.kept, footer, payload)
    return 0


def cmd_sweep(ns) -> int:
    if not ns.n_list:
        raise ParameterError("--n-list needs at least one n")
    ov = _split_overrides(ns.set, _PIPELINE_FIELDS)
    p = 0.5 if ns.p is None else ns.p
    cfg = {"mode": ns.mode, "n_values": ns.n_list, "p": p,
           "overrides": {k: v for grp in ov.values() for k, v in grp.items()}}
    _require_cap("--n-list value", max(ns.n_list), VERTEX_CAP)
    rows, failures = [], []
    for n in ns.n_list:
        g = gc.generate("gnp", n=n, p=p, seed=derive_seed(ns.seed, "graph", n))
        cp, ep = _pipeline_params(ov, derive_seed(ns.seed, "sweep", n))
        try:
            if ns.mode == "per-m":
                count = per_m_run(g, m_window(cp, n).mid, cp, ep).distinct_count
            else:
                count = theorem_run(g, cp, ep).total_distinct
        except (ConstructionFailure, ParameterError) as exc:
            # e.g. an n whose m-window holds no positive integer
            stage = exc.stage if isinstance(exc, ConstructionFailure) else "parameters"
            failures.append({"n": n, "stage": stage, "message": str(exc)})
            count = 0
        rows.append((n, count))
    lines = ["n,count", *(f"{n},{c}" for n, c in rows)]
    # zero-count rows carry no log-scale information; fit on the rest
    fittable = [(n, c) for n, c in rows if c > 0]
    try:
        slope, half = fit_slope(fittable)
        lines.append(f"slope={slope:.6f} ci95={half:.6f}")
    except ParameterError:
        lines.append("slope=nan ci95=nan")
    _emit(ns, _text_header(ns, cfg), "\n".join(lines) + "\n")
    if len(failures) == len(ns.n_list):
        raise ConstructionFailure("sweep", f"every n failed ({len(failures)} of "
                                  f"{len(ns.n_list)})", {"per_n": failures})
    return 0


# ── parser assembly / dispatch ───────────────────────────────────────────


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text!r}")


# every flag's spec, stated once; _COMMANDS lists the flags each command takes
_FLAGS = {
    "--graph": dict(metavar="FILE",
                    help="edge-list file: header 'n <count>', then 'u v' lines"),
    "--gen": dict(choices=gc.GRAPH_MODELS, help="model of the generated graph"),
    "--n": dict(type=int, help="vertex count (paley: a prime = 1 mod 4)"),
    # --p and --graph-seed have no default, so that a source that does not
    # read them can refuse them; the code that reads them resolves 0.5 and 0
    "--p": dict(type=float, help="gnp edge probability; for lo, Pr(xi_i = 1) (default 0.5)"),
    "--graph-seed": dict(type=int, help="gnp generator seed (default 0)"),
    "--model": dict(default="ones", choices=ac.COEFF_MODELS),
    "--n-list": dict(type=_int_list,
                     help="comma-separated n values (lo: 4+, spanning 2 octaves)"),
    "--trials": dict(type=int, default=200_000),
    "--mode": dict(default="per-m", choices=("per-m", "theorem")),
    "--m": dict(type=int, help="target edge count (default: window midpoint)"),
    "--diagnostics": dict(metavar="FILE", help="where to write failure diagnostics (exit 3)"),
    "--set": dict(action="append", metavar="KEY=VALUE",
                  help="parameter override (repeatable)"),
    "--seed": dict(type=int, default=0, help="master seed"),
    "--out": dict(metavar="FILE", help="output file (default stdout)"),
    "--dump": dict(metavar="FILE", help="full outcome as JSON"),
}

_GRAPH = ("--graph", "--gen", "--n", "--p", "--graph-seed")
# name -> (function, help line, flags in usage order; a trailing '!' marks a
# required flag).  theorem takes no --diagnostics: it records a failed window
# and goes on, so it never exits 3
_COMMANDS = {
    "generate": (cmd_generate, "write a graph file",
                 ("--gen!", "--n!", "--p", "--graph-seed", "--out")),
    "phi": (cmd_spectrum, "exact phi spectrum of a small graph", (*_GRAPH, "--out")),
    "psi": (cmd_spectrum, "exact psi spectrum of a small graph", (*_GRAPH, "--out")),
    "audit": (cmd_audit, "density/diversity/richness report (JSON)",
              (*_GRAPH, "--set", "--seed", "--out")),
    "lo": (cmd_lo, "anticoncentration max point mass (CSV)",
           ("--model", "--n-list!", "--p", "--trials", "--seed", "--out")),
    "construct": (cmd_construct, "run the scaffold construction (JSON)",
                  (*_GRAPH, "--m", "--diagnostics", "--set", "--seed", "--out")),
    "per-m": (cmd_per_m, "one exposure window (CSV)",
              (*_GRAPH, "--m", "--diagnostics", "--set", "--seed", "--out", "--dump")),
    "theorem": (cmd_theorem, "sweep m and union disjoint windows (CSV)",
                (*_GRAPH, "--set", "--seed", "--out", "--dump")),
    "sweep": (cmd_sweep, "per-m or theorem across n; CSV + slope",
              ("--mode", "--n-list!", "--p", "--set", "--diagnostics", "--seed", "--out")),
}


def _build_parser() -> _Parser:
    top = _Parser(prog="ramspect",
                  description="Induced-subgraph size spectra: oracles, audits, "
                              "and the randomized double-exposure pipeline.")
    sub = top.add_subparsers(dest="cmd", parser_class=_Parser)
    for name, (func, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        # in the order given: a usage line lists options as registered
        for flag in flags:
            bare = flag.rstrip("!")
            p.add_argument(bare, required=flag != bare, **_FLAGS[bare])
        p.set_defaults(func=func)
    return top


def _diag_path(ns) -> str:
    if getattr(ns, "diagnostics", None):
        return ns.diagnostics
    if getattr(ns, "out", None):
        return ns.out + ".diag.json"
    return f"{ns.cmd.replace('-', '_')}.diag.json"


@functools.cache
def _parser() -> _Parser:
    # built once per process: parse_args keeps no state between calls, and
    # each call returns a fresh namespace
    return _build_parser()


def main(argv=None) -> int:
    parser = _parser()
    ns = parser.parse_args(argv)
    if getattr(ns, "cmd", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    # formatted before the command runs, so that running out of memory
    # costs no more than writing it
    oom = f"capacity: out of memory in {ns.cmd}\n"
    try:
        try:
            # every command but generate, phi and psi takes --seed, and every
            # graph command --graph-seed; a negative one is refused here,
            # before any graph is built
            _require("non-negative", {"seed": getattr(ns, "seed", None),
                                      "graph_seed": getattr(ns, "graph_seed", None)})
            return ns.func(ns)
        except ConstructionFailure as exc:
            # a diagnostics path that cannot be written is an io error below
            path = _diag_path(ns)
            doc = {"schema": SCHEMA, "stage": exc.stage, "message": str(exc),
                   "diagnostics": exc.diagnostics}
            Path(path).write_text(_dumps(doc) + "\n")
            print(f"pipeline failure at stage {exc.stage!r}; diagnostics in {path}",
                  file=sys.stderr)
            return 3
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 2
    except RamspectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass  # leaving the clause drops the exception and the command's frames
    sys.stderr.write(oom)
    return 2


if __name__ == "__main__":
    sys.exit(main())
