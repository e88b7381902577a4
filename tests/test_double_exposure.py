"""Exposure families: table counts, separations, and determinism."""
import math
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from ramspect import graph_core as gc
from ramspect import double_exposure as de
from ramspect.double_exposure import (ExposureParams, expose, family_table,
                                      per_m_run, resolve_exposure, theorem_run)
from ramspect.errors import (ConstructionFailure, ContractViolation, ParameterError,
                             RamspectError)
from ramspect.ramsey_construct import ConstructionParams, construct, m_window
from ramspect.seeding import derive_seed
from reference import adjusted_values, bernoulli_loop, family_table_batch, z_family

G256 = gc.generate("gnp", n=256, p=0.5, seed=3)
M256 = round(1.5 * 0.0003 * 256 * 256)
RES256 = construct(G256, M256, ConstructionParams(seed=4))

# matching mode, as in the per-m-matching golden pin: pair units, some of
# them edges, so the internal-edge term of the adjusted degree is not zero
G512 = gc.generate("gnp", n=512, p=0.5, seed=1)
M512 = round(1.5 * 0.0003 * 512 * 512)
CP512 = ConstructionParams(seed=3, theta_compl=0.45, star_coeff=100)
RES512 = construct(G512, M512, CP512)
SCAFFOLDS = {"star": (G256, M256, ConstructionParams(seed=4), RES256),
             "matching": (G512, M512, CP512, RES512)}


# ── family masks and exposure ────────────────────────────────────────────


def test_z_family_mask_composition():
    s = tuple(gc.Unit.single(v) for v in (0, 2, 4))
    t = (gc.Unit.pair(6, 7),)
    assert z_family(s, t, 2, 0) == gc.mask_of([0, 2])
    assert z_family(s, t, 3, 1) == gc.mask_of([0, 2, 6, 7])
    assert z_family(s, t, 1, 1) == gc.mask_of([6, 7])
    with pytest.raises(ParameterError):
        z_family(s, t, 2, 3)  # i > k
    with pytest.raises(ParameterError):
        z_family(s, t, 5, 0)  # k - i > |S|


def test_expose_is_a_deterministic_subset():
    u0 = RES256.u0_mask
    u_a = expose(u0, seed=7)
    u_b = expose(u0, seed=7)
    u_c = expose(u0, seed=8)
    assert u_a == u_b
    assert u_a != u_c
    assert u_a & ~u0 == 0
    # rate-half exposure keeps roughly half the vertices
    assert 0.25 * u0.bit_count() < u_a.bit_count() < 0.75 * u0.bit_count()


def test_expose_refuses_an_empty_u0():
    with pytest.raises(ParameterError, match="U0 must be nonempty"):
        expose(0, seed=0)


@settings(max_examples=100)
@example(vertices={0}, seed=0)
@given(vertices=st.sets(st.integers(0, 700), min_size=1, max_size=400)
       | st.sets(st.integers(0, 70), min_size=1),
       seed=st.integers(0, 2 ** 64))
def test_expose_draws_once_per_u0_vertex_in_vertex_order(vertices, seed):
    # U0 masks with gaps, from one vertex to dense runs past several words
    u0 = gc.mask_of(vertices)
    keep = bernoulli_loop(random.Random(seed), len(vertices), 0.5)
    assert expose(u0, seed) == gc.mask_of(v for v, k in zip(sorted(vertices), keep) if k)


# ── constant resolution ──────────────────────────────────────────────────


def test_resolved_constants_relations():
    r = resolve_exposure(RES256, ExposureParams())
    assert r.beta == pytest.approx(2 * r.c_prime ** 2 / 3)
    assert r.q_const >= 3 * r.beta
    assert 1 <= r.k_lo <= r.k_hi <= len(RES256.s_units)
    assert 0 <= r.i_hi <= len(RES256.t_units)
    assert r.i_hi <= r.k_lo  # every cell keeps k - i >= 0
    d = r.as_dict()
    assert d["Q"] == r.q_const and d["k_hi"] == r.k_hi


def test_resolve_rejects_oversized_explicit_scale():
    big = (len(RES256.s_units) + 5) / math.sqrt(256)
    with pytest.raises(ParameterError):
        resolve_exposure(RES256, ExposureParams(c_prime=big))


# RES256 has |S| = |T| = 3 on n = 256, so c' = 0.125 is kappa = 2 <= |S|, and
# its rows run to k = 4; c' = 1/16 asks for one T unit
@pytest.mark.parametrize("res,params,message", [
    (RES256, ExposureParams(q_const=0.001), r"Q=0.0010 below 3\*beta=0.0078"),
    (RES256, ExposureParams(c_prime=0.125), r"row range needs k=4 first S units but \|S\|=3"),
    (replace(RES256, t_units=()), ExposureParams(c_prime=1 / 16),
     r"column range needs 1 T units but \|T\|=0"),
])
def test_resolve_refuses_constants_the_scaffold_cannot_hold(res, params, message):
    with pytest.raises(ParameterError, match=message):
        resolve_exposure(res, params)


def test_resolve_honors_explicit_constants():
    r = resolve_exposure(RES256, ExposureParams(beta=0.001, big_m=2.0,
                                                q_const=0.5))
    assert r.beta == 0.001 and r.big_m == 2.0 and r.q_const == 0.5
    with pytest.raises(ParameterError):
        resolve_exposure(RES256, ExposureParams(beta=0.2, q_const=0.05))


# ── family table identity ────────────────────────────────────────────────


def test_family_table_edge_counts_match_direct_recount():
    resolved = resolve_exposure(RES256, ExposureParams())
    u = expose(RES256.u0_mask, seed=31)
    records = family_table(G256, u, RES256.s_units, RES256.t_units, resolved)
    assert records
    for rec in records:
        assert resolved.k_lo <= rec.k <= resolved.k_hi
        for i, e_ki in zip(rec.i_values, rec.e_values):
            zm = z_family(RES256.s_units, RES256.t_units, rec.k, i)
            want = gc.count_edges(G256, zm) + gc.count_edges(G256, zm, u)
            assert e_ki == want


# |S| = |T| = 6, so an explicit kappa = c'*sqrt(n) = 3 makes a 4 x 4 table
G1024 = gc.generate("gnp", n=1024, p=0.5, seed=0)
RES1024 = construct(G1024, round(1.5 * 0.0003 * 1024 * 1024), ConstructionParams(seed=3))
TABLE_SCAFFOLDS = {"star": (G256, RES256), "matching": (G512, RES512),
                   "star-n1024": (G1024, RES1024)}


@settings(max_examples=40)
@example(mode="star-n1024", kappa=3, seed=0)
@given(mode=st.sampled_from(sorted(TABLE_SCAFFOLDS)),
       kappa=st.sampled_from([None, 1, 1.5, 2, 2.5, 3]), seed=st.integers(0, 2 ** 32))
def test_family_table_matches_count_edges_on_every_cell(mode, kappa, seed):
    # each e_{k,i} against its definition e(Z) + e(Z, U) on the int rows;
    # kappa None is the derived scale, an explicit one is clamped to fit S and T
    g, res = TABLE_SCAFFOLDS[mode]
    c_prime = None if kappa is None else \
        min(kappa, len(res.s_units) / 2, len(res.t_units)) / math.sqrt(res.working_n)
    resolved = resolve_exposure(res, ExposureParams(c_prime=c_prime))
    u = expose(res.u0_mask, seed)
    records = family_table(g, u, res.s_units, res.t_units, resolved)
    assert [rec.k for rec in records] == list(range(resolved.k_lo, resolved.k_hi + 1))
    if (mode, kappa) == ("star-n1024", 3):
        assert [len(rec.i_values) for rec in records] == [4] * 4
    for rec in records:
        assert rec.i_values == list(range(min(rec.k, resolved.i_hi) + 1))
        for i, zm, e_ki in zip(rec.i_values, rec.z_masks, rec.e_values):
            assert zm == z_family(res.s_units, res.t_units, rec.k, i)
            assert e_ki == gc.count_edges(g, zm) + gc.count_edges(g, zm, u)


@settings(max_examples=40)
@example(mode="matching", kappa=None, seed=0, share=1.0)
@example(mode="star-n1024", kappa=3, seed=0, share=0.5)
@given(mode=st.sampled_from(sorted(TABLE_SCAFFOLDS)),
       kappa=st.sampled_from([None, 1, 1.5, 2, 2.5, 3]), seed=st.integers(0, 2 ** 32),
       share=st.sampled_from([0.0, 0.5, 1.0]))
def test_family_table_matches_the_batch_and_the_definition(mode, kappa, seed, share):
    # the degree split against the one-batch reference and against
    # e(U u Z) - e(U) per cell; share > 0 adds that share of the S and T
    # vertices to U, so the Z masks meet U and only Z minus U may be counted
    g, res = TABLE_SCAFFOLDS[mode]
    c_prime = None if kappa is None else \
        min(kappa, len(res.s_units) / 2, len(res.t_units)) / math.sqrt(res.working_n)
    resolved = resolve_exposure(res, ExposureParams(c_prime=c_prime))
    rng = random.Random(seed)
    swap = [v for x in res.s_units + res.t_units for v in x.vertices]
    u = expose(res.u0_mask, seed) | gc.mask_of(v for v in swap if rng.random() < share)
    records = family_table(g, u, res.s_units, res.t_units, resolved)
    assert records == family_table_batch(g, u, res.s_units, res.t_units, resolved)
    e_u = gc.count_edges(g, u)
    for rec in records:
        for zm, e_ki in zip(rec.z_masks, rec.e_values):
            assert e_ki == gc.count_edges(g, u | zm) - e_u
            if share == 1.0:
                assert e_ki == 0


def test_family_table_never_reads_count_edges_many(monkeypatch):
    resolved = resolve_exposure(RES256, ExposureParams())
    u = expose(RES256.u0_mask, seed=31)
    want = family_table_batch(G256, u, RES256.s_units, RES256.t_units, resolved)

    def refuse(g, masks):
        raise AssertionError("family_table read count_edges_many")

    monkeypatch.setattr(gc, "count_edges_many", refuse)
    monkeypatch.setattr(de, "count_edges_many", refuse)
    assert family_table(G256, u, RES256.s_units, RES256.t_units, resolved) == want


def reference_witnesses(g, res, u, zm, lo, hi):
    """The first X unit of each distinct in-window adjusted value, in order."""
    seen, wit = set(), []
    for x, v in adjusted_values(g, res.x_units, zm | u):
        if lo <= v <= hi and v not in seen:
            seen.add(v)
            wit.append((x, v))
    return tuple(wit)


@settings(max_examples=30)
@given(mode=st.sampled_from(sorted(SCAFFOLDS)), seed=st.integers(0, 2 ** 32))
def test_per_k_witnesses_match_the_per_cell_reference(mode, seed):
    g, _, _, res = SCAFFOLDS[mode]
    resolved = resolve_exposure(res, ExposureParams())
    u = expose(res.u0_mask, seed)
    x_base = [gc.unit_degree(g, x, u) + gc.count_edges(g, x.mask()) for x in res.x_units]
    rt = math.sqrt(resolved.n)
    lo, hi = res.d / 2 - resolved.q_const * rt, res.d / 2 + resolved.q_const * rt
    for rec in family_table(g, u, res.s_units, res.t_units, resolved):
        de.per_k_checks(rec, g, res.u0_mask, res.x_units, x_base, resolved)
        for i, zm in zip(rec.i_values, rec.z_masks):
            want = reference_witnesses(g, res, u, zm, lo, hi)
            if i in rec.i_pass:
                assert rec.x_witnesses[i] == want
            else:
                assert i not in rec.x_witnesses
                assert len(want) < resolved.gamma * rt


@pytest.mark.parametrize("mode", sorted(SCAFFOLDS))
def test_per_m_witnesses_match_the_per_cell_reference(mode):
    g, m, cp, res = SCAFFOLDS[mode]
    out = per_m_run(g, m, cp, ExposureParams(seed=9), result=res)
    assert out.family
    q, rt = out.constants["Q"], math.sqrt(res.working_n)
    lo, hi = res.d / 2 - q * rt, res.d / 2 + q * rt
    for rec in out.records:
        for i in rec.i_pass:
            want = reference_witnesses(g, res, out.u_mask, rec.z_masks[i], lo, hi)
            assert rec.x_witnesses[i] == want
    if mode == "matching":
        assert {gc.count_edges(g, x.mask()) for _, _, x in out.family} == {0, 1}


@pytest.mark.parametrize("intruder", ["an S unit", "a U0 vertex"])
def test_per_m_refuses_x_units_that_meet_u0_or_the_swap_units(intruder):
    # the adjusted degrees split e(U u Z u x) into exact terms only while
    # x misses U0 and every S/T unit
    x = RES256.s_units[0] if intruder == "an S unit" \
        else gc.Unit.single(next(gc.iter_bits(RES256.u0_mask)))
    bad = replace(RES256, x_units=RES256.x_units + (x,))
    with pytest.raises(ContractViolation, match="overlaps U0 or another unit") as exc:
        per_m_run(G256, M256, ConstructionParams(seed=4), ExposureParams(seed=9),
                  result=bad)
    assert isinstance(exc.value, RamspectError)


def test_batched_recount_checks_every_emitted_size(monkeypatch):
    # the size recount is the one reader of count_edges_many, not the table:
    # shifting every count it returns by one leaves each e_(k,i) as it was
    # but breaks each emitted size
    real = gc.count_edges_many
    monkeypatch.setattr(de, "count_edges_many", lambda g, masks: [e + 1 for e in real(g, masks)])
    with pytest.raises(ContractViolation, match=r"size \d+ for \(k="):
        per_m_run(G256, M256, ConstructionParams(seed=4), ExposureParams(seed=9),
                  result=RES256)


def test_per_k_checks_shape():
    resolved = resolve_exposure(RES256, ExposureParams())
    u = expose(RES256.u0_mask, seed=31)
    records = family_table(G256, u, RES256.s_units, RES256.t_units, resolved)
    x_base = [gc.unit_degree(G256, x, u) + gc.count_edges(G256, x.mask())
              for x in RES256.x_units]
    checks = de.per_k_checks(records[0], G256, RES256.u0_mask, RES256.x_units,
                             x_base, resolved)
    assert len(checks) == 4
    assert all(isinstance(c, bool) for c in checks)
    # check 2 recomputed from its definition
    e_hat = records[0].e_hat
    zm = z_family(RES256.s_units, RES256.t_units, records[0].k, 0)
    want_hat = gc.count_edges(G256, zm) + \
        gc.count_edges(G256, zm, RES256.u0_mask) / 2
    assert e_hat == pytest.approx(want_hat)


@pytest.mark.parametrize("e_values,ok", [
    ([0, 2, 0], True),               # two steps of 2: exactly beta*n
    ([0, 2, 4, 6], False),           # three steps of 2, each at the M*sqrt(n) bar
    ([0, 3, 0], False),              # a step down counts by its size
    ([0, 1, 2, 3, 4, 5, 6], True),   # steps below the bar never count
])
def test_check4_totals_the_large_steps_of_the_row(e_values, ok):
    # n = 4, M*sqrt(n) = 2 and beta*n = 4
    resolved = de.ResolvedExposure(n=4, c_prime=0.5, beta=1.0, big_m=1.0,
                                   q_const=3.0, gamma=0.5, k_lo=1, k_hi=1, i_hi=6, d=0.0)
    rec = de.PerKRecord(k=6, i_values=list(range(len(e_values))),
                        z_masks=[0] * len(e_values), e_values=e_values)
    checks = de.per_k_checks(rec, gc.generate("empty", n=4), 0, (), [], resolved)
    assert checks[3] is ok


# ── per-m runs ───────────────────────────────────────────────────────────


def test_per_m_sizes_survive_external_recount():
    out = per_m_run(G256, M256, ConstructionParams(seed=4),
                    ExposureParams(seed=9), result=RES256)
    assert out.distinct_count > 0
    recounted = set()
    for k, i, x in out.family:
        zm = z_family(RES256.s_units, RES256.t_units, k, i)
        recounted.add(gc.count_edges(G256, zm | out.u_mask | x.mask()))
    assert recounted == set(out.distinct_sizes)
    # all sizes inside the reported containment window
    for s in out.distinct_sizes:
        assert abs(s - out.window_center) <= out.window_radius


def test_per_m_anchor_separation_and_cluster_width():
    out = per_m_run(G256, M256, ConstructionParams(seed=4),
                    ExposureParams(seed=9), result=RES256)
    q = out.constants["Q"]
    rt_n = math.sqrt(256)
    cells = {}
    for k, i, x in out.family:
        zm = z_family(RES256.s_units, RES256.t_units, k, i)
        size = gc.count_edges(G256, zm | out.u_mask | x.mask())
        cells.setdefault((k, i), []).append(size)
    anchors = sorted(min(v) for v in cells.values())
    for a, b in zip(anchors, anchors[1:]):
        assert b - a >= 2 * q * rt_n
    for vals in cells.values():
        assert max(vals) - min(vals) <= 2 * q * rt_n
    # no collisions across cells
    all_sizes = [s for vals in cells.values() for s in vals]
    assert len(all_sizes) == len(set(all_sizes))


def test_per_m_is_deterministic():
    a = per_m_run(G256, M256, ConstructionParams(seed=4), ExposureParams(seed=9))
    b = per_m_run(G256, M256, ConstructionParams(seed=4), ExposureParams(seed=9))
    assert a.distinct_sizes == b.distinct_sizes
    assert a.u_mask == b.u_mask
    assert a.k_selected == b.k_selected
    assert a.attempts == b.attempts


def test_per_m_exhausted_trials_is_an_empty_outcome():
    # an impossible exposure gate: |e(U) - m| <= 0 essentially never holds
    out = per_m_run(G256, M256, ConstructionParams(seed=4),
                    ExposureParams(seed=9, expose_window=0.0, trials=3),
                    result=RES256)
    assert out.distinct_sizes == ()
    assert out.attempts == 3
    assert out.k_selected == ()


def test_per_m_rejects_m_outside_window():
    with pytest.raises(ParameterError):
        per_m_run(G256, 50 * M256)


def spy_on_selection(monkeypatch) -> list:
    """Each _stride_select call per_m_run makes, as (items, key_gap, selection)."""
    real, calls = de._stride_select, []

    def spy(items, key_gap, values):
        calls.append((list(items), key_gap, real(items, key_gap, values)))
        return calls[-1][2]

    monkeypatch.setattr(de, "_stride_select", spy)
    return calls


def test_an_attempt_whose_passing_cells_miss_every_interval_is_retried(monkeypatch):
    # RES256's first exposure passes rows k = 1, e = (2, 5), and k = 2; its
    # one interval is [2, 2 + 3*beta*n] = [2, 4], so without cell 0 the row
    # gives no cell.  The patch drops cell 0 from each row of that attempt
    # and lets check 1 pass, as a beta >= M would with one cell in two
    # failing: selection comes back empty, and the next exposure is drawn
    real_checks, rigged = de.per_k_checks, []

    def without_cell_zero(record, g, u0_mask, x_units, x_base, resolved):
        checks = real_checks(record, g, u0_mask, x_units, x_base, resolved)
        if not rigged:
            rigged.append(x_base)  # one per exposure, built before its checks
        if x_base is rigged[0]:
            record.i_pass = [i for i in record.i_pass if i]
            record.x_witnesses.pop(0, None)
            record.checks = checks = (True, *checks[1:])
        return checks

    monkeypatch.setattr(de, "per_k_checks", without_cell_zero)
    calls = spy_on_selection(monkeypatch)
    out = per_m_run(G256, M256, ConstructionParams(seed=4), ExposureParams(seed=9),
                    result=RES256)
    stages = [a["stage"] for a in out.diagnostics["attempts"]]
    assert stages == ["selection", "accepted"] and out.attempts == 2
    assert [(items, sel) for items, _, sel in calls if not items] == [([], [])]
    assert out.distinct_count > 0


def test_the_harvest_takes_a_cell_from_its_second_interval(monkeypatch):
    # the CLI run per-m --gen gnp --n 2048 --graph-seed 0 --seed 3 --set
    # c_prime=0.09375 --set beta=0.005 --set big_m=0.18: n_int =
    # floor(2*beta*sqrt(n)/M) = 2 intervals of length M*sqrt(n) = 8.1, from
    # e_{5,0} = 170 and from 170 + 1.5*8.1.  Cell (5, 2) at 184 lies in the
    # second; it is within 2Q*sqrt(n) of cell (5, 0), and the separation rule
    # keeps the lower one
    g = gc.generate("gnp", n=2048, p=0.5, seed=0)
    cp = ConstructionParams(seed=3)
    ep = ExposureParams(seed=derive_seed(3, "exposure"), c_prime=0.09375, beta=0.005,
                        big_m=0.18)
    calls = spy_on_selection(monkeypatch)
    out = per_m_run(g, m_window(cp, 2048).mid, cp, ep)
    c = out.constants
    length = c["M"] * math.sqrt(c["n"])
    assert (c["n"], c["i_hi"]) == (2048, 4)
    assert math.floor(2 * c["beta"] * math.sqrt(c["n"]) / c["M"]) == 2
    cells, sep, kept = calls[-1]
    assert cells == [(170, 5, 0), (184, 5, 2)] and kept == [(170, 5, 0)]
    assert 170 + 1.5 * length <= 184 <= 170 + 2.5 * length
    assert 184 - 170 < sep == math.floor(2 * c["Q"] * math.sqrt(c["n"])) + 1
    assert (out.attempts, out.distinct_count, out.p_selected) == (7, 19, ((5, 0),))


# ── theorem sweep ────────────────────────────────────────────────────────


def test_theorem_windows_are_disjoint_and_collision_free():
    out = theorem_run(G256, ConstructionParams(seed=4), ExposureParams(seed=9))
    assert out.step >= 1
    assert out.total_distinct == sum(w.distinct_count for w in out.kept)
    last_max = -1
    seen = set()
    for w in out.kept:
        assert w.distinct_sizes
        assert min(w.distinct_sizes) > last_max
        last_max = max(w.distinct_sizes)
        for s in w.distinct_sizes:
            assert s not in seen
            seen.add(s)
    # every attempted window is recorded, kept or not
    assert len(out.windows) >= len(out.kept) >= 1


@settings(max_examples=40)
@given(n=st.integers(0, 300), c=st.floats(1e-5, 2.0))
def test_theorem_attempts_m_from_the_window_low_end_to_within_its_high_end(n, c):
    # on the empty graph every window fails at the density check, cheaply
    params = ConstructionParams(c_density=c)
    g = gc.generate("empty", n=n)
    if max(1, math.ceil(c * n * n)) > 2 * c * n * n:  # no integer m in the window
        with pytest.raises(ParameterError, match="empty m range"):
            theorem_run(g, params)
        return
    lo, hi, _ = m_window(params, n)
    out = theorem_run(g, params)
    ms = [m for m, _, _ in out.windows]
    assert ms == list(range(lo, hi + 1, out.step))
    assert ms[0] == lo and ms[-1] <= hi
    assert (out.diagnostics["m_lo"], out.diagnostics["m_hi"]) == (lo, hi)
    assert all(o is None and not kept for _, o, kept in out.windows)


def test_theorem_keeps_a_window_only_above_the_last_kept_maximum(monkeypatch):
    # six windows on the empty graph at c = 0.2, their outcomes faked in
    # turn: a failure, no sizes, kept, touching the kept maximum, below it,
    # kept again
    outcomes = iter([None, (), (5, 7), (7, 9), (2, 3), (8, 9)])

    def fake(g, m, cp, ep):
        sizes = next(outcomes)
        if sizes is None:
            raise ConstructionFailure("density", "faked", {})
        return SimpleNamespace(distinct_sizes=sizes)

    monkeypatch.setattr(de, "per_m_run", fake)
    out = theorem_run(gc.generate("empty", n=256), ConstructionParams(c_density=0.2))
    assert [kept for _, _, kept in out.windows] == [False, False, True, False, False, True]
    assert out.windows[0][1] is None
    assert [o.distinct_sizes for o in out.kept] == [(5, 7), (8, 9)]
    assert out.total_distinct == 4


def test_a_gamma_near_one_fails_check_one_on_every_row():
    # check 1 asks most cells of a row for gamma*sqrt(n) witnesses, 15.8 of
    # them at gamma = 0.99 on n = 256: no row of any exposure passes, so the
    # window is the empty outcome; the default 0.05 asks for 0.8
    cp = ConstructionParams(seed=4)
    assert per_m_run(G256, M256, cp, ExposureParams(), result=RES256).distinct_sizes
    out = per_m_run(G256, M256, cp, ExposureParams(gamma=0.99), result=RES256)
    assert out.distinct_sizes == ()
    attempts = out.diagnostics["attempts"]
    assert len(attempts) == ExposureParams().trials
    rows = [checks for a in attempts if a["stage"] == "checks" for checks in a["rows"].values()]
    assert rows and not any(checks[0] for checks in rows)
    assert {a["stage"] for a in attempts} <= {"expose_gate", "checks"}


def test_theorem_is_deterministic():
    a = theorem_run(G256, ConstructionParams(seed=4), ExposureParams(seed=9))
    b = theorem_run(G256, ConstructionParams(seed=4), ExposureParams(seed=9))
    assert a.total_distinct == b.total_distinct
    assert [w.distinct_sizes for w in a.kept] == [w.distinct_sizes for w in b.kept]


G64 = gc.generate("gnp", n=64, p=0.5, seed=0)


def test_theorem_records_a_window_outside_a_small_radius_as_failed():
    out = theorem_run(G64, eparams=ExposureParams(kappa_window=0.01))
    assert out.windows == ((2, None, False),)
    assert out.total_distinct == 0


@pytest.mark.parametrize("kappa", [0.0, -0.25, math.inf])
def test_exposure_params_reject_a_window_radius_that_is_not_positive(kappa):
    with pytest.raises(ParameterError, match="kappa_window"):
        ExposureParams(kappa_window=kappa)


@pytest.mark.parametrize("gamma", [0.0, 1.0, math.nan])
def test_exposure_params_reject_a_gamma_outside_zero_one(gamma):
    with pytest.raises(ParameterError, match=r"gamma must lie in \(0, 1\)"):
        ExposureParams(gamma=gamma)
