"""Second-stage randomness: swap families, checks, and size harvesting.

Starting from a construction result (U0, S, T, X, d), expose U inside U0 at
rate 1/2, then walk the swap family Z_{k,i} = (first k-i units of S) +
(first i units of T).  Because T units out-degree S units into U0 by a
guaranteed gap, e_{k,i} = e(Z_{k,i}) + e(Z_{k,i}, U) climbs with i, and the
X units supply many distinct finishing degrees; together they realize many
distinct values of e(U u Z_{k,i} u x) inside one narrow edge-count window.

Four per-k checks gate each row: (1) most cells i admit a large subset of X
with pairwise-distinct adjusted degrees in [d/2 - Q*sqrt(n), d/2 + Q*sqrt(n)];
(2) e_{k,0} sits within Q*n of its exact conditional expectation
e(Z) + e(Z,U0)/2; (3) the row climbs by at least 3*beta*n; (4) increments
of size >= M*sqrt(n) carry at most beta*n total mass.  Selection then thins
rows and cells so that surviving anchors are separated beyond the cluster
width, which makes cross-cell size collisions impossible by arithmetic
rather than by luck.

Constants (c', beta, Q, M) left as None are derived from the construction
geometry (|B|, the S/T gap floor, d) and echoed in every outcome, so a run
is reproducible from its own report.  The adjusted degree of a unit adds
its internal edge, so a pair unit's emitted size never collides with a
single's at equal plain degree.

The adjusted degree of x in cell (k, i) is deg(x, U) + e(x) + deg(x, Z_{k,i}),
exact because U lies in U0 and the S, T and X units are pairwise disjoint
and miss U0 (per_m_run checks this, so a hand-built result that breaks it
is a ContractViolation).  per_m_run counts e(x) once per run and deg(x, U)
once per exposure attempt; per_k_checks adds only the degree into the few
vertices of each Z_{k,i}.  family_table splits each cell the same way:
e_{k,i} = e(U u Z_{k,i}) - e(U) = e(Z') + sum over v in Z' of |N(v) & U|
with Z' = Z_{k,i} minus U, exact for any masks, the degrees into U taken
once per exposure attempt and e(Z') a count_edges over a few vertices.
Every emitted size, which adds the split degrees to those cells, is
recounted from scratch in one graph_core.count_edges_many batch, a kernel
the table does not use.

Each window has one outcome: per_m_run leaves its retry loop at the
accepted exposure, and a loop that runs out returns the empty outcome.
theorem_run steps m through ramsey_construct.m_window and keeps a
window by one predicate: it emitted sizes, all above the last kept window's
maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate
from operator import or_

import numpy as np

from .errors import ConstructionFailure, ContractViolation, ParameterError, _require
from .graph_core import (Graph, Unit, bit_matrix, check_disjoint_units, count_edges,
                         count_edges_many, iter_bits, mask_from_bools, unit_degree)
from .ramsey_construct import ConstructionParams, ConstructionResult, construct, m_window
from .seeding import bernoulli, derive_seed, stream


@dataclass(frozen=True)
class ExposureParams:
    c_prime: float | None = None   # None -> derived from |B| and the gap floor
    big_m: float | None = None     # None -> (gap_floor + 3*sqrt(d) + 2)/sqrt(n)
    beta: float | None = None      # None -> 2*c'^2/3
    q_const: float | None = None   # None -> max(3*beta, (2.1*sqrt(d)+1)/sqrt(n))
    gamma: float = 0.05
    expose_window: float | None = None  # |e(U)-m| gate, units of n^(3/2); None -> kappa1/4 + 0.02
    kappa_window: float = 0.25     # reported-size containment radius, units of n^(3/2)
    trials: int = 8
    seed: int = 0

    def __post_init__(self):
        _require("positive", vars(self), "c_prime", "big_m")
        if not 0 < self.gamma < 1:
            raise ParameterError("gamma must lie in (0, 1)")
        _require("count", vars(self), "trials")
        if not 0 < self.kappa_window < math.inf:
            raise ParameterError(
                f"kappa_window must be positive and finite, got {self.kappa_window}")
        _require("number", vars(self), "beta", "q_const", "expose_window")
        if self.beta is not None and self.q_const is not None \
                and self.q_const < 3 * self.beta:
            raise ParameterError(
                f"q_const must be >= 3*beta, got {self.q_const} < {3 * self.beta}")


@dataclass(frozen=True)
class ResolvedExposure:
    """Concrete per-run constants."""
    n: int
    c_prime: float
    beta: float
    big_m: float
    q_const: float
    gamma: float
    k_lo: int
    k_hi: int
    i_hi: int
    d: float

    def as_dict(self) -> dict:
        return {"n": self.n, "c_prime": self.c_prime, "beta": self.beta,
                "M": self.big_m, "Q": self.q_const, "gamma": self.gamma,
                "k_lo": self.k_lo, "k_hi": self.k_hi, "i_hi": self.i_hi}


def resolve_exposure(res: ConstructionResult, params: ExposureParams) -> ResolvedExposure:
    """Turn None constants into concrete values from the construction shape.

    The index scale kappa = c'*sqrt(n) is capped so every row keeps i=0
    available (2*kappa <= |S|) and every column fits (kappa <= |T|), and
    tuned so the expected climb over one row clears the 3*beta*n bar when
    swaps gain about half the U0-degree gap.
    """
    n = res.working_n
    rt = math.sqrt(n)
    if params.c_prime is not None:
        kappa = params.c_prime * rt
        if kappa > len(res.s_units):  # also keeps an overflowed kappa out of ceil
            raise ParameterError(
                f"row range needs k={kappa:.1f} first S units but |S|={len(res.s_units)}")
    else:
        struct_cap = min(len(res.s_units) / 2, len(res.t_units))
        kappa = max(1.0, min(struct_cap, res.gap_floor / 4))
    c_prime = kappa / rt
    beta = params.beta if params.beta is not None else 2 * c_prime ** 2 / 3
    dd = max(res.d, 1.0)
    big_m = params.big_m if params.big_m is not None \
        else (res.gap_floor + 3 * math.sqrt(dd) + 2) / rt
    # X degrees into U spread like sqrt(d/2); +-2.1 sigma keeps ~96% in window
    q_const = params.q_const if params.q_const is not None \
        else max(3 * beta, (2.1 * math.sqrt(dd) + 1) / rt)
    if q_const < 3 * beta:
        raise ParameterError(f"Q={q_const:.4f} below 3*beta={3 * beta:.4f}")
    k_lo = max(1, math.ceil(kappa))
    k_hi = max(k_lo, math.floor(2 * kappa))
    i_hi = math.floor(kappa)
    if params.c_prime is None:
        # derived scale bends to the scaffold; tiny |S|/|T| shrink the grid
        k_hi = min(k_hi, len(res.s_units))
        k_lo = min(k_lo, k_hi)
        i_hi = min(i_hi, len(res.t_units), k_lo)
    if k_hi > len(res.s_units):
        raise ParameterError(
            f"row range needs k={k_hi} first S units but |S|={len(res.s_units)}")
    if i_hi > len(res.t_units):
        raise ParameterError(
            f"column range needs {i_hi} T units but |T|={len(res.t_units)}")
    return ResolvedExposure(n=n, c_prime=c_prime, beta=beta, big_m=big_m, q_const=q_const,
                            gamma=params.gamma, k_lo=k_lo, k_hi=k_hi, i_hi=i_hi, d=res.d)


def expose(u0_mask: int, seed: int) -> int:
    """Independent rate-1/2 subsample of U0; deterministic in the seed."""
    if u0_mask == 0:
        raise ParameterError("U0 must be nonempty")
    # one random() draw per U0 vertex, in increasing vertex order
    keep = bit_matrix([u0_mask], u0_mask.bit_length())[0].view(bool)
    keep[keep] = bernoulli(stream(seed), int(np.count_nonzero(keep)), 0.5)
    return mask_from_bools(keep)


@dataclass
class PerKRecord:
    k: int
    i_values: list   # always 0..i_top, so i indexes z_masks and e_values
    z_masks: list
    e_values: list
    e_hat: float | None = None
    checks: tuple | None = None
    i_pass: list = field(default_factory=list)   # i with a valid X witness
    x_witnesses: dict = field(default_factory=dict)  # i -> tuple of (Unit, adjusted value)


def family_table(g: Graph, u_mask: int, s_units, t_units, resolved: ResolvedExposure):
    """e_{k,i} = e(U u Z_{k,i}) - e(U) over the whole index rectangle.

    Z_{k,i}, the first k-i units of S and the first i of T, is s_pre[k-i] |
    t_pre[i] over two running ORs of the units' masks, s_pre[j] the first j
    units of S; resolve_exposure keeps k <= |S| and i <= |T|.  With Z' =
    Z_{k,i} minus U, U u Z_{k,i} is the disjoint union of U and Z', so the
    cell is e(Z') + sum over v in Z' of |N(v) & U|, for any masks.  The
    degrees into U are taken once per vertex of the union of the cells'
    masks, and each cell adds a count_edges over its few vertices.
    """
    s_pre = list(accumulate((u.mask() for u in s_units[:resolved.k_hi]), or_, initial=0))
    t_pre = list(accumulate((u.mask() for u in t_units[:resolved.i_hi]), or_, initial=0))
    rows = [(k, [s_pre[k - i] | t_pre[i] for i in range(min(k, resolved.i_hi) + 1)])
            for k in range(resolved.k_lo, resolved.k_hi + 1)]
    # every cell has k - i <= k_hi and i <= i_hi, so it lies inside this union
    union = s_pre[-1] | t_pre[-1]
    into_u = {v: (g.adj[v] & u_mask).bit_count() for v in iter_bits(union & ~u_mask)}

    def cell(zm: int) -> int:
        z = zm & ~u_mask
        return count_edges(g, z) + sum(into_u[v] for v in iter_bits(z))

    return [PerKRecord(k=k, i_values=list(range(len(zms))), z_masks=zms,
                       e_values=[cell(zm) for zm in zms])
            for k, zms in rows]


def per_k_checks(record: PerKRecord, g: Graph, u0_mask: int, x_units, x_base,
                 resolved: ResolvedExposure):
    """Evaluate the four row checks; fills the record's witness fields.

    check1: enough cells i admit >= gamma*sqrt(n) X units with pairwise
    distinct adjusted degrees inside [d/2 - Q*sqrt(n), d/2 + Q*sqrt(n)];
    check2: e_{k,0} within Q*n of e(Z) + e(Z,U0)/2; check3: the row climbs
    at least 3*beta*n; check4: increments >= M*sqrt(n) total at most beta*n.
    x_base[j] is the part of x_units[j]'s adjusted degree that no cell
    changes, its degree into U plus its internal edge; each cell adds the
    degree into its own Z_{k,i}.
    """
    n = resolved.n
    rt = math.sqrt(n)
    q = resolved.q_const
    lo, hi = resolved.d / 2 - q * rt, resolved.d / 2 + q * rt
    need = resolved.gamma * rt
    record.i_pass = []
    record.x_witnesses = {}
    for i, zm in zip(record.i_values, record.z_masks):
        seen = set()
        wit = []
        for x, base in zip(x_units, x_base):
            v = base + unit_degree(g, x, zm)
            if lo <= v <= hi and v not in seen:
                seen.add(v)
                wit.append((x, v))
        if len(wit) >= need:
            record.i_pass.append(i)
            record.x_witnesses[i] = tuple(wit)
    check1 = len(record.i_pass) >= (1 - resolved.beta / (2 * resolved.big_m)) \
        * len(record.i_values)
    z0 = record.z_masks[0]
    record.e_hat = count_edges(g, z0) + count_edges(g, z0, u0_mask) / 2
    check2 = abs(record.e_values[0] - record.e_hat) <= q * n
    check3 = record.e_values[-1] - record.e_values[0] >= 3 * resolved.beta * n
    big = resolved.big_m * rt
    steps = (abs(b - a) for a, b in zip(record.e_values, record.e_values[1:]))
    check4 = sum(dl for dl in steps if dl >= big) <= resolved.beta * n
    record.checks = (check1, check2, check3, check4)
    return record.checks


def _stride_select(items, key_gap: float, values) -> list:
    """Smallest stride whose selected values are consecutively >= key_gap apart."""
    if not items:
        return []
    for q in range(1, len(items) + 1):
        sel = items[::q]
        vals = values[::q]
        if all(b - a >= key_gap for a, b in zip(vals, vals[1:])):
            return sel


@dataclass(frozen=True)
class PerMOutcome:
    m: int
    # the defaults are the empty outcome of a window whose exposures all failed
    u_mask: int = 0
    e_u: int = 0
    records: tuple = ()
    k_selected: tuple = ()
    p_selected: tuple = ()      # (k, i) anchors in emission order
    family: tuple = ()          # (k, i, Unit) triples
    distinct_sizes: tuple = ()  # sorted distinct e(U u Z u x)
    window_center: int = 0
    window_radius: float = 0.0
    attempts: int = 0
    constants: dict = field(compare=False, default_factory=dict)
    diagnostics: dict = field(compare=False, default_factory=dict)

    @property
    def distinct_count(self) -> int:
        return len(self.distinct_sizes)


def per_m_run(g: Graph, m: int, cparams: ConstructionParams | None = None,
              eparams: ExposureParams | None = None,
              result: ConstructionResult | None = None) -> PerMOutcome:
    """One full window: construct, expose, check, thin, harvest sizes.

    Exposures retry (chained seeds) while |e(U) - m| misses its gate, no
    row passes all four checks, or selection comes back empty; the attempt
    log is kept either way.  An exhausted retry budget returns the empty
    outcome with diagnostics rather than raising: a zero count is a
    measurement, not a crash.  Pass result to reuse a construction.
    """
    cparams = cparams or ConstructionParams()
    eparams = eparams or ExposureParams()
    res = result if result is not None else construct(g, m, cparams)
    resolved = resolve_exposure(res, eparams)
    wn = res.working_n
    gate = eparams.expose_window if eparams.expose_window is not None \
        else cparams.kappa1 / 4 + 0.02
    gate_abs = gate * wn ** 1.5
    rt = math.sqrt(wn)
    # e(U u Z_{k,i} u x) = e(U) + e_{k,i} + deg(x, U) + deg(x, Z_{k,i}) + e(x)
    # holds when the S, T and X units are disjoint and miss U0 (so U, Z and
    # x are disjoint); a single has no internal edge e(x)
    check_disjoint_units(res.all_units(), res.u0_mask)
    internal = [count_edges(g, x.mask()) if x.is_pair else 0 for x in res.x_units]
    attempts_log = []
    for t in range(eparams.trials):
        u = expose(res.u0_mask, derive_seed(eparams.seed, "expose", t))
        e_u = count_edges(g, u)
        if abs(e_u - m) > gate_abs:
            attempts_log.append({"attempt": t, "stage": "expose_gate", "e_u": e_u})
            continue
        records = family_table(g, u, res.s_units, res.t_units, resolved)
        x_base = [unit_degree(g, x, u) + e for x, e in zip(res.x_units, internal)]
        for rec in records:
            per_k_checks(rec, g, res.u0_mask, res.x_units, x_base, resolved)
        k_all = [rec.k for rec in records if all(rec.checks)]
        if not k_all:
            attempts_log.append({"attempt": t, "stage": "checks",
                                 "rows": {rec.k: rec.checks for rec in records}})
            continue
        by_k = {rec.k: rec for rec in records}
        e_hats = [by_k[k].e_hat for k in k_all]
        k_sel = _stride_select(k_all, 4 * resolved.q_const * wn, e_hats)
        cells = []
        for k in k_sel:
            rec = by_k[k]
            e0 = rec.e_values[0]
            span_hi = e0 + 3 * resolved.beta * wn
            n_int = max(1, math.floor(2 * resolved.beta * rt / resolved.big_m))
            length = resolved.big_m * rt
            reps = []
            for j in range(n_int):
                a = e0 + j * 1.5 * length
                if a > span_hi:
                    break
                b = min(a + length, span_hi)
                inside = [i for i in rec.i_pass
                          if a <= rec.e_values[i] <= b]
                if inside:
                    reps.append(min(inside))
            for i in sorted(set(reps)):
                cells.append((rec.e_values[i], k, i))
        cells.sort()
        # strict > 2Q*sqrt(n); no two sizes are wn**2 apart, so the clamp
        # changes no selection and keeps a huge Q out of floor
        sep = math.floor(min(2 * resolved.q_const * rt, wn * wn)) + 1
        sel = _stride_select(cells, sep, [c[0] for c in cells])
        if not sel:
            attempts_log.append({"attempt": t, "stage": "selection"})
            continue
        attempts_log.append({"attempt": t, "stage": "accepted",
                             "rows_passing": k_all, "cells": len(sel)})
        break
    else:
        return PerMOutcome(m=m, attempts=len(attempts_log), constants=resolved.as_dict(),
                           diagnostics={"attempts": attempts_log,
                                        "construction": res.diagnostics})
    # t, u, e_u, records, k_sel, sel and by_k are the accepted attempt's
    family = []
    sizes = []
    for e_ki, k, i in sel:
        rec = by_k[k]
        for x, v in rec.x_witnesses[i]:
            family.append((k, i, x))
            sizes.append(e_u + e_ki + int(v))
    if len(set(sizes)) != len(sizes):
        raise ContractViolation("emitted sizes collide despite separation")
    # every size reproducible from scratch
    direct_sizes = count_edges_many(
        g, [by_k[k].z_masks[i] | u | x.mask() for k, i, x in family])
    for (k, i, x), s, direct in zip(family, sizes, direct_sizes):
        if direct != s:
            raise ContractViolation(
                f"size {s} for (k={k}, i={i}, x={x.vertices}) != direct {direct}")
    radius = eparams.kappa_window * wn ** 1.5
    outside = [s for s in sizes if abs(s - e_u) > radius]
    if outside:
        raise ConstructionFailure(
            "window", f"{len(outside)} of {len(sizes)} sizes outside "
            f"{e_u}+-{radius:.1f} (kappa_window={eparams.kappa_window})",
            {"center": e_u, "radius": radius,
             "kappa_window": eparams.kappa_window, "outside": outside})
    return PerMOutcome(
        m=m, u_mask=u, e_u=e_u, records=tuple(records),
        k_selected=tuple(k_sel), p_selected=tuple((k, i) for _, k, i in sel),
        family=tuple(family), distinct_sizes=tuple(sorted(set(sizes))),
        window_center=e_u, window_radius=radius, attempts=t + 1,
        constants=resolved.as_dict(),
        diagnostics={"attempts": attempts_log})


@dataclass(frozen=True)
class TheoremOutcome:
    windows: tuple            # per attempted m: (m, outcome or None, kept flag)
    kept: tuple               # kept PerMOutcome list, ascending m
    total_distinct: int
    step: int
    diagnostics: dict = field(compare=False, default_factory=dict)


def theorem_run(g: Graph, cparams: ConstructionParams | None = None,
                eparams: ExposureParams | None = None) -> TheoremOutcome:
    """Sweep m across the non-empty m window and union disjoint windows.

    The step is 2.2*kappa_window*n^(3/2), a stride just beyond twice the
    containment radius, so kept windows cannot overlap; a greedy pass
    additionally drops any window whose smallest size fails to clear the
    previous kept maximum.  Per-window failures are recorded and
    contribute nothing.
    """
    cparams = cparams or ConstructionParams()
    eparams = eparams or ExposureParams()
    n = g.n
    # every window's S lives in a working graph of wn <= n vertices, so
    # c' > sqrt(n) makes resolve_exposure refuse c'*sqrt(wn) > |S| in all of
    # them; refused once here rather than as a failure of every window
    if eparams.c_prime is not None and not eparams.c_prime <= math.sqrt(n):
        raise ParameterError(f"row range needs k={eparams.c_prime * math.sqrt(n):.1f} "
                             f"first S units but |S| <= n = {n}")
    m_lo, m_hi, _ = m_window(cparams, n)
    stride = 2.2 * eparams.kappa_window * n ** 1.5
    if not stride < math.inf:
        raise ParameterError(f"kappa_window={eparams.kappa_window} gives a stride "
                             f"beyond float range at n={n}")
    step = max(1, round(stride))
    windows = []
    kept = []
    union = set()
    last_max = None
    for idx, m in enumerate(range(m_lo, m_hi + 1, step)):
        cp = replace(cparams, seed=derive_seed(cparams.seed, "window-c", idx))
        ep = replace(eparams, seed=derive_seed(eparams.seed, "window-e", idx))
        try:
            out = per_m_run(g, m, cp, ep)
        except (ConstructionFailure, ParameterError):
            out = None
        keep = out is not None and bool(out.distinct_sizes) \
            and (last_max is None or min(out.distinct_sizes) > last_max)
        windows.append((m, out, keep))
        if keep:
            kept.append(out)
            union.update(out.distinct_sizes)
            last_max = max(out.distinct_sizes)
    for a, b in zip(kept, kept[1:]):
        if max(a.distinct_sizes) >= min(b.distinct_sizes):
            raise ContractViolation("kept windows overlap")
    total = sum(len(o.distinct_sizes) for o in kept)
    if total != len(union):
        raise ContractViolation("cross-window size collision")
    return TheoremOutcome(windows=tuple(windows), kept=tuple(kept),
                          total_distinct=total, step=step,
                          diagnostics={"m_lo": m_lo, "m_hi": m_hi,
                                       "attempted": len(windows)})
