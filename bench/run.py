"""ramspect benchmark: four seeded workloads, one process, one thread.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all  [...]   # every workload, one process each

Run from a source checkout; the library is imported from ``src/``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer figures of a
traced pass that repeats an untraced pass's ops with every public
function wrapped.  Lines above the JSON restate the figures under their
per-workload names.  Scratch files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_s": "s",
              "work_per_s": "1/s"}
# op_tail_s is printed but is no JSON metric: on harvest it is set by which
# scaffolds a seed draws (bench/README.md), so no bound on it would hold.

# Set-up is repeated until both floors are met; the median is reported.
# Set-up r builds input set r % w.input_sets from its own sub-seed, and ops
# cycle over the sets: one graph or scaffold decides much of an op's cost
# (the median harvest window differed from one scaffold to the next by 10
# to 20 per cent), so the sets average it out.
SETUP_MIN_TOTAL_S = 0.5
SETUP_MAX_REPS = 1000


def tail(values) -> tuple:
    """(value, percentile, n): the highest percentile with at least ten
    values beyond it.  Below 21 values there is no tail to speak of (the
    slowest of a few ops is noise), so it is the upper median."""
    xs = sorted(values)
    n = len(xs)
    k = n - 1 - min(10, (n - 1) // 2)
    return xs[k], 100.0 * (k + 1) / n, n


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("self_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


@dataclass
class OpRecord:
    seconds: float       # at nominal host speed
    wall: float
    work: float
    parts: dict          # seconds of named calls inside the op, nominal speed


@dataclass
class Pass:
    """What one pass over ops 0..count-1 produced."""
    ops: list            # OpRecord of every op that returned
    count: int
    failed: int
    pin_digest: str      # over the workload's first digest_ops ops
    digest: str          # over every op of the pass

    def seconds(self) -> float:
        return sum(r.seconds for r in self.ops)


def run_ops(w, states, seconds: float, clock: HostClock, *, ops: int | None = None,
            check: bool = True, tracer=None) -> Pass:
    """Run ops 0, 1, ... for `seconds` of wall time (at least w.digest_ops
    of them), or exactly `ops` ops.  Only w.op is timed."""
    pin, full = hashlib.sha256(), hashlib.sha256()
    timed, failed, i = [], 0, 0
    begin = perf_counter()

    def more():
        if ops is not None:
            return i < ops
        return i < w.digest_ops or perf_counter() - begin < seconds

    while more():
        state = states[i % len(states)]
        try:
            with tracer.root("op", i) if tracer else nullcontext():
                t0 = perf_counter()
                out = w.op(state, i)
                t1 = perf_counter()
            item = w.digest(out)
        except Exception:  # an op that raises is a failure; keep measuring
            failed += 1
            traceback.print_exc(file=sys.stderr)
            item = b"raised"
        else:
            timed.append((t0, t1, w.work(state, out), w.parts(out)))
            if check:
                try:
                    w.check(state, i, out)
                except Exception as exc:
                    failed += 1
                    print(f"op {i}: check failed: {exc!r}", file=sys.stderr)
        if i < w.digest_ops:
            pin.update(item + b"\0")
        full.update(item + b"\0")
        i += 1
    records = []
    for t0, t1, work, parts in timed:
        secs = clock.seconds(t0, t1)
        scale = secs / (t1 - t0)
        records.append(OpRecord(secs, t1 - t0, work, {k: v * scale for k, v in parts.items()}))
    return Pass(records, i, failed, pin.hexdigest(), full.hexdigest())


def _run_checks(w, state) -> bool:
    try:
        w.run_checks(state)
    except Exception as exc:
        print(f"run check failed: {exc!r}", file=sys.stderr)
        return False
    return True


def _setup(w, seed: int, workdir: Path, rep: int):
    """Build input set rep % w.input_sets."""
    from ramspect.seeding import derive_seed

    k = rep % w.input_sets
    d = workdir / f"set{k}"
    d.mkdir(exist_ok=True)
    return w.setup(derive_seed(seed, "input-set", k), d)


def _warm_up(w, states) -> None:
    for i in range(w.warmup_ops):
        w.op(states[i % len(states)], i)
    gc.collect()


def _metrics(values: dict, unit) -> dict:
    return {k: {"value": v, "unit": unit(k)} for k, v in values.items()}


def run_untraced(w, seed: int, seconds: float, workdir: Path) -> dict:
    states, setups, walls = [], [], []
    with HostClock(w.probe) as clock:
        while (len(setups) < w.input_sets
               or (sum(walls) < SETUP_MIN_TOTAL_S and len(setups) < SETUP_MAX_REPS)):
            t0 = perf_counter()
            state = _setup(w, seed, workdir, len(setups))
            t1 = perf_counter()
            walls.append(t1 - t0)
            setups.append(clock.seconds(t0, t1))
            if len(states) < w.input_sets:
                states.append(state)
        checks_ok = _run_checks(w, states[0])
        _warm_up(w, states)
        p = run_ops(w, states, seconds, clock)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = dict.fromkeys(END_TO_END, 0.0)
    values.update(setup_s=statistics.median(setups), peak_rss_mb=rss_mb)
    values["op_tail_s"] = 0.0
    figures, tail_pct, wall = [], 0.0, 0.0
    if p.ops:
        times = [r.seconds for r in p.ops]
        tail_s, tail_pct, _ = tail(times)
        values.update(op_p50_s=statistics.median(times), op_tail_s=tail_s,
                      work_per_s=sum(r.work for r in p.ops) / sum(times))
        parts = {}
        for r in p.ops:
            for k, v in r.parts.items():
                parts.setdefault(k, []).append(v)
        figures = w.figures(values, parts)
        wall = statistics.median(r.wall for r in p.ops)
    n = len(p.ops)
    host = clock.slowdown()
    pinned = w.pinned.get(seed)
    digest_ok = pinned is None or pinned == p.pin_digest

    print(f"# {w.name}: seed {seed}, {seconds:g} s, untraced; times are at nominal "
          f"host speed (the host ran {host:.3g}x slower than nominal)")
    print(f"#   setup_s          {values['setup_s']:.6g} s (median of {len(setups)} "
          f"set-ups; wall {statistics.median(walls):.6g} s)")
    print(f"#   peak_rss_mb      {values['peak_rss_mb']:.6g} MB")
    print(f"#   fail_ratio       {p.failed / max(p.count, 1):.6g} "
          f"({p.failed} failed of {p.count} ops)")
    print(f"#   op_p50_s         {values['op_p50_s']:.6g} s (median of {n} ops; wall {wall:.6g} s)")
    print(f"#   op_tail_s        {values['op_tail_s']:.6g} s (p{tail_pct:.4g} of {n} ops; "
          f"not a JSON metric)")
    print(f"#   work_per_s       {values['work_per_s']:.6g} {w.work_unit}/s")
    for name, v, unit in figures:
        print(f"#   {name:<16} {v:.6g} {unit}")
    pin_state = "no pin for this seed" if pinned is None else (
        "matches pin" if digest_ok else f"MISMATCH, pinned {pinned}")
    print(f"#   digest           {p.pin_digest} ({pin_state})")
    return {"correct": p.failed == 0 and checks_ok and digest_ok and bool(p.ops),
            "attempted": p.count, "failed": p.failed,
            "metrics": _metrics({k: values[k] for k in END_TO_END}, END_TO_END.get)}


def run_traced(w, seed: int, seconds: float, workdir: Path) -> dict:
    from tracing import SETUP_OP, Tracer, installed, layer_metrics

    tracer = Tracer()
    states = []
    with installed(tracer):
        for rep in range(w.input_sets):
            with tracer.root("setup", SETUP_OP):
                states.append(_setup(w, seed, workdir, rep))
    checks_ok = _run_checks(w, states[0])
    _warm_up(w, states)
    with HostClock(w.probe) as clock:
        base = run_ops(w, states, seconds / 2, clock)
        with installed(tracer):
            traced = run_ops(w, states, 0, clock, ops=base.count, check=False,
                             tracer=tracer)
    values = layer_metrics(tracer, ops=base.count, setups=w.input_sets)
    values["trace_overhead_ratio"] = traced.seconds() / base.seconds() if base.ops else 0.0
    same = traced.digest == base.digest
    spans_path = workdir.parent / f"spans-{w.name}-seed{seed}.jsonl"
    tracer.write(spans_path)

    print(f"# {w.name}: seed {seed}, {seconds:g} s, traced pass over {base.count} ops")
    for name, v in values.items():
        print(f"#   {name:<58} {v:.6g} {layer_unit(name)}")
    print(f"#   absent: {', '.join(tracer.absent) or 'none'}")
    print(f"#   digests traced vs untraced: {'equal' if same else 'DIFFER'}; spans in {spans_path}")
    return {"correct": base.failed == 0 and checks_ok and same and bool(base.ops),
            "attempted": base.count, "failed": base.failed,
            "metrics": _metrics(values, layer_unit)}


def run_all(args) -> int:
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ramspect" / "__init__.py").is_file():
        print(f"no ramspect sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        result = run(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
