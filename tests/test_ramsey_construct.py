"""Scaffold construction pipeline: stages, invariants, and the verifier."""
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ramspect import graph_core as gc
from ramspect import ramsey_construct as rc
from ramspect import structure_audit as sa
from ramspect.errors import ContractViolation, ParameterError
from ramspect.ramsey_construct import (ConstructionFailure, ConstructionParams,
                                       construct, verify_construction)
from hypothesis import example, given, settings, strategies as st

from ramspect.seeding import derive_seed
from reference import (bernoulli_loop, bucket_by_enumeration, event4_scan, from_edges,
                       independent_units_greedy, sampled_bucket_loop, select_stx_split,
                       star_degrees, verify_construction_loop)

G256 = gc.generate("gnp", n=256, p=0.5, seed=3)
M256 = round(1.5 * 0.0003 * 256 * 256)  # window midpoint for default c


# ── pigeonhole bucketing ─────────────────────────────────────────────────


def test_pigeonhole_bucket_center_and_membership():
    rng = random.Random(2)
    for seed in range(6):
        g = gc.generate("gnp", n=40, p=0.5, seed=seed)
        d_prime, bucket = rc.pigeonhole_pairs(g)
        w = math.ceil(math.sqrt(40))
        assert bucket.shape[1]
        assert d_prime % w == w // 2  # bucket center
        degs = g.degrees()
        j = d_prime // w
        for a, b in zip(*bucket.tolist()):
            assert a != b
            assert (degs[a] + degs[b]) // w == j
        # the fullest bucket is at least as big as a random other bucket
        sums = [degs[a] + degs[b] for a in range(40) for b in range(a + 1, 40)]
        other = rng.choice(sorted(set(s // w for s in sums)))
        assert bucket.shape[1] >= sum(1 for s in sums if s // w == other)


def test_pigeonhole_width_one_star():
    # star K_{1,3}: degree sums are 2 (leaf+leaf) and 4 (center+leaf);
    # with width 1 the fullest bucket is the three leaf pairs at d'=2
    g = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    d_prime, bucket = rc.pigeonhole_pairs(g, bucket_width=1)
    assert d_prime == 2
    assert sorted(zip(*bucket.tolist())) == [(1, 2), (1, 3), (2, 3)]


def test_pigeonhole_rejects_tiny_graphs():
    with pytest.raises(ParameterError):
        rc.pigeonhole_pairs(gc.generate("complete", n=3))


def test_pigeonhole_sampling_path_is_deterministic():
    g = gc.generate("gnp", n=60, p=0.5, seed=7)
    a = rc.pigeonhole_pairs(g, pair_enum_cap=50, seed=11)
    b = rc.pigeonhole_pairs(g, pair_enum_cap=50, seed=11)
    assert a[0] == b[0]
    assert a[1].tolist() == b[1].tolist()


def assert_pair_layout(h):
    """h is one C-contiguous (2, k) int32 array whose columns (a, b) have
    a < b and run in strict lexicographic order."""
    assert h.dtype == np.int32 and h.ndim == 2 and h.shape[0] == 2
    assert h.flags.c_contiguous
    pairs = list(zip(*h.tolist()))
    assert all(a < b for a, b in pairs)
    assert all(p < q for p, q in zip(pairs, pairs[1:]))


def assert_same_bucket(got, want):
    assert got[0] == want[0]
    assert_pair_layout(got[1])
    assert got[1].tolist() == want[1].tolist()


@pytest.mark.parametrize("g", [gc.generate("paley", n=13), gc.generate("paley", n=29),
                               gc.generate("complete", n=6), gc.generate("empty", n=5),
                               from_edges(9, [(v, (v + 1) % 9) for v in range(9)])],
                         ids=["paley13", "paley29", "K6", "empty5", "C9"])
@pytest.mark.parametrize("w", [1, None, 10 ** 6])
def test_pigeonhole_on_a_regular_graph_is_one_bucket_of_every_pair(g, w):
    width = math.ceil(math.sqrt(g.n)) if w is None else w
    got = rc.pigeonhole_pairs(g, w)
    assert_same_bucket(got, bucket_by_enumeration(g, width))
    assert got[1].shape[1] == g.n * (g.n - 1) // 2


@pytest.mark.parametrize("w,d_prime,pairs", [
    # K_{1,3}: three leaf pairs of sum 2 tie three center pairs of sum 4
    (1, 2, [(1, 2), (1, 3), (2, 3)]),
    (2, 3, [(1, 2), (1, 3), (2, 3)]),  # buckets {2, 3} and {4, 5}: 3 pairs each
    (5, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),  # every sum < 5
])
def test_pigeonhole_ties_go_to_the_lowest_bucket_at_n_4(w, d_prime, pairs):
    g = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    got = rc.pigeonhole_pairs(g, w)
    assert_same_bucket(got, bucket_by_enumeration(g, w))
    assert (got[0], list(zip(*got[1].tolist()))) == (d_prime, pairs)


@settings(max_examples=100)
@given(n=st.integers(4, 90), p=st.sampled_from((0.05, 0.3, 0.5, 0.9)),
       seed=st.integers(0, 2 ** 32),
       w=st.sampled_from((1, 2, None, 10 ** 6)) | st.integers(1, 200))
def test_pigeonhole_matches_the_all_pairs_enumeration(n, p, seed, w):
    g = gc.generate("gnp", n=n, p=p, seed=seed)
    width = math.ceil(math.sqrt(n)) if w is None else w
    assert_same_bucket(rc.pigeonhole_pairs(g, w), bucket_by_enumeration(g, width))


def test_pigeonhole_on_both_sides_of_the_enumeration_cap():
    g = gc.generate("gnp", n=60, p=0.5, seed=7)
    want = bucket_by_enumeration(g, 8)
    # at the cap every pair is enumerated; one vertex above it the sample is
    # asked for more pairs than exist, so it draws every pair as well
    assert_same_bucket(rc.pigeonhole_pairs(g, pair_enum_cap=60), want)
    assert_same_bucket(rc.pigeonhole_pairs(g, pair_enum_cap=59, sample_coeff=1e6, seed=3),
                       want)


def test_pigeonhole_enumeration_mask_stays_in_row_blocks(monkeypatch):
    # blocks of one row and of a few rows list the same pairs in the same order
    g = gc.generate("gnp", n=130, p=0.5, seed=2)
    want = rc.pigeonhole_pairs(g)
    for block in (1, 300, 1000):
        monkeypatch.setattr(rc, "BUCKET_BLOCK", block)
        assert_same_bucket(rc.pigeonhole_pairs(g), want)


@pytest.mark.parametrize("n", [130, 200])
def test_bucket_is_one_contiguous_int32_array_on_both_paths(n):
    g = gc.generate("gnp", n=n, p=0.5, seed=n + 3)
    w = math.ceil(math.sqrt(n))
    enumerated = rc.pigeonhole_pairs(g)
    assert_same_bucket(enumerated, bucket_by_enumeration(g, w))
    d_prime, sampled = rc.pigeonhole_pairs(g, pair_enum_cap=n - 1, sample_coeff=1.0, seed=5)
    assert_pair_layout(sampled)
    degs = g.degrees()
    assert {(degs[a] + degs[b]) // w for a, b in zip(*sampled.tolist())} == {d_prime // w}
    for _, bucket in (enumerated, (d_prime, sampled)):
        kept = rc.filter_close_complements(g, bucket, 0.5)
        assert_pair_layout(kept)
        # the kept pairs are a subset of the bucket, so strict order makes
        # them a subsequence of it
        assert set(zip(*kept.tolist())) < set(zip(*bucket.tolist()))


@settings(max_examples=40)
@given(n=st.sampled_from((4, 8, 16, 32, 64)) | st.integers(4, 70),
       near=st.sampled_from((0.9, 0.99, 1.0, 1.01, 3.0)) | st.floats(0.001, 1.2),
       chunk=st.sampled_from((15, 64, 1001, rc.PAIR_CHUNK)),
       seed=st.integers(0, 2 ** 64), w=st.sampled_from((1, 3, None)))
def test_sampled_bucket_matches_the_randrange_loop(n, near, chunk, seed, w):
    # near = 1 asks for every pair; a draw of 15 words often leaves an odd
    # value to pair with the next draw's first, and at n = 2**j about half
    # the randrange draws are rejected
    g = gc.generate("gnp", n=n, p=0.5, seed=n)
    coeff = near * (n - 1) / (2 * math.sqrt(n))
    width = math.ceil(math.sqrt(n)) if w is None else w
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rc, "PAIR_CHUNK", chunk)
        got = rc.pigeonhole_pairs(g, w, pair_enum_cap=3, sample_coeff=coeff, seed=seed)
    assert_same_bucket(got, sampled_bucket_loop(g, width, coeff, seed))


@pytest.mark.parametrize("skew", [-1, 1])
def test_pigeonhole_refuses_a_bucket_its_histogram_does_not_count(monkeypatch, skew):
    g = gc.generate("gnp", n=130, p=0.5, seed=2)
    real = rc._bucket_sizes
    monkeypatch.setattr(rc, "_bucket_sizes", lambda degs, w: real(degs, w) + skew)
    with pytest.raises(ContractViolation, match="histogram"):
        rc.pigeonhole_pairs(g)


# ── complement filter ────────────────────────────────────────────────────


def test_filter_close_complements_matches_direct_rule():
    g = gc.generate("gnp", n=30, p=0.5, seed=5)
    _, bucket = rc.pigeonhole_pairs(g)
    kept = rc.filter_close_complements(g, bucket, 0.3)
    kept_pairs = set(zip(*kept.tolist()))
    thr = 0.3 * g.n
    for a, b in zip(*bucket.tolist()):
        gap = (g.adj[a] ^ g.comp_row(b)).bit_count()
        assert ((a, b) in kept_pairs) == (gap >= thr)


@settings(max_examples=60)
@given(n=st.sampled_from((63, 64, 65, 127, 128, 129, 130, 200)),
       p=st.sampled_from((0.05, 0.5, 0.95)), seed=st.integers(0, 2 ** 32),
       theta=st.floats(0.001, 0.999))
def test_filter_close_complements_matches_the_comp_row_rule_everywhere(n, p, seed, theta):
    g = gc.generate("gnp", n=n, p=p, seed=seed)
    _, bucket = rc.pigeonhole_pairs(g)
    kept = rc.filter_close_complements(g, bucket, theta)
    want = [(a, b) for a, b in zip(*bucket.tolist())
            if (g.adj[a] ^ g.comp_row(b)).bit_count() >= theta * n]
    assert kept.dtype == np.int32 and kept.shape == (2, len(want))
    assert list(zip(*kept.tolist())) == want


# ── star / matching split ────────────────────────────────────────────────


def test_star_mode_on_star_heavy_bucket():
    g = gc.generate("gnp", n=64, p=0.5, seed=1)
    d_prime, bucket = rc.pigeonhole_pairs(g)
    kept = rc.filter_close_complements(g, bucket, 0.1)
    mode, anchor, units, d_dp = rc.star_or_matching(
        g, bucket, kept, d_prime, star_floor=4.0, match_floor=1e9)
    assert mode == "star"
    assert anchor is not None
    assert d_dp == d_prime - g.degree(anchor)
    assert all(not u.is_pair for u in units)
    # star units come from the anchor's unfiltered bucket pairs
    partners = {b if a == anchor else a
                for a, b in zip(*bucket.tolist()) if anchor in (a, b)}
    assert {u.vertices[0] for u in units} == partners


def test_matching_mode_when_star_unreachable():
    g = gc.generate("gnp", n=64, p=0.5, seed=1)
    d_prime, bucket = rc.pigeonhole_pairs(g)
    kept = rc.filter_close_complements(g, bucket, 0.1)
    mode, anchor, units, d_dp = rc.star_or_matching(
        g, bucket, kept, d_prime, star_floor=1e9, match_floor=3.0)
    assert mode == "matching" and anchor is None
    assert d_dp == d_prime
    assert all(u.is_pair for u in units)
    seen = 0
    for u in units:  # greedy matching is vertex-disjoint
        assert not (u.mask() & seen)
        seen |= u.mask()


def test_star_or_matching_failure_stage():
    g = gc.generate("gnp", n=64, p=0.5, seed=1)
    d_prime, bucket = rc.pigeonhole_pairs(g)
    kept = rc.filter_close_complements(g, bucket, 0.1)
    with pytest.raises(ConstructionFailure) as exc:
        rc.star_or_matching(g, bucket, kept, d_prime, 1e9, 1e9)
    assert exc.value.stage == "star_or_matching"


def test_a_filter_that_keeps_no_pair_fails_at_star_or_matching():
    # theta_compl = 1 keeps a pair only when |N(a) symdiff N_bar(b)| >= n
    g = gc.generate("gnp", n=64, p=0.5, seed=0)
    cp = ConstructionParams(theta_compl=1.0)
    with pytest.raises(ConstructionFailure, match="filtered bucket is empty") as exc:
        construct(g, rc.m_window(cp, 64).mid, cp)
    assert exc.value.stage == "star_or_matching"
    assert exc.value.diagnostics["h_size"] > 0


# ── conflict-free unit family ────────────────────────────────────────────


def test_independent_units_refuses_an_empty_unit_list():
    with pytest.raises(ParameterError, match="unit list must be nonempty"):
        rc.independent_units(gc.generate("complete", n=4), (), 0.1)


def test_independent_units_are_pairwise_far():
    g = gc.generate("gnp", n=48, p=0.5, seed=9)
    units = tuple(gc.Unit.single(v) for v in range(20))
    theta = 0.05
    a = rc.independent_units(g, units, theta)
    assert a
    thr = theta * g.n
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            assert gc.symdiff_size(g, a[i], a[j]) >= thr


# ── packed stages against the int-row references (multi-word rows) ──────
# n = 130 and 200 are not multiples of 64, so every packed row ends in a
# partly filled word.


def reference_star_anchor(h_filtered):
    """Vertex of top filtered-pair degree, lowest vertex on ties, for a
    (2, k) array of pairs."""
    hdeg = Counter()
    for a, b in zip(*h_filtered.tolist()):
        hdeg[a] += 1
        hdeg[b] += 1
    top = max(hdeg.values())
    return min(v for v, c in hdeg.items() if c == top), top


@pytest.mark.parametrize("n", [130, 200])
def test_filter_close_complements_multiword_matches_comp_row_rule(n):
    g = gc.generate("gnp", n=n, p=0.5, seed=n)
    _, bucket = rc.pigeonhole_pairs(g)
    pairs = list(zip(*bucket.tolist()))
    for theta in (0.3, 0.45, 0.5):
        want = [(a, b) for a, b in pairs
                if (g.adj[a] ^ g.comp_row(b)).bit_count() >= theta * n]
        kept = rc.filter_close_complements(g, bucket, theta)
        assert list(zip(*kept.tolist())) == want
    assert 0 < len(want) < len(pairs)  # theta = 0.5 drops some pairs, not all


@pytest.mark.parametrize("n", [130, 200])
def test_independent_units_multiword_matches_bitset_greedy(n):
    g = gc.generate("gnp", n=n, p=0.5, seed=n + 1)
    singles = tuple(gc.Unit.single(v) for v in range(0, n, 3))
    pairs = tuple(gc.Unit.pair(v, v + 1) for v in range(0, n - 1, 2))
    # singles differ in about n/2 vertices, pairs have multiset gaps near
    # 3n/4; these thetas put both families on either side of the threshold
    for units, theta in ((singles, 0.45), (singles, 0.5), (pairs, 0.7), (pairs, 0.75)):
        want, conflicts = independent_units_greedy(g, units, theta)
        assert conflicts > 0
        got = rc.independent_units(g, units, theta)
        assert got == want
        assert len(got) < len(units)
    # the double term |D_x ^ D_y| is what separates pairs here
    _, dx = gc.unit_rows(g, pairs[0])
    _, dy = gc.unit_rows(g, pairs[1])
    assert (dx ^ dy).bit_count() > 0


@pytest.mark.parametrize("n", [130, 200])
def test_star_anchor_multiword_matches_counter_reference(n):
    g = gc.generate("gnp", n=n, p=0.5, seed=n + 2)
    d_prime, bucket = rc.pigeonhole_pairs(g)
    kept = rc.filter_close_complements(g, bucket, 0.45)
    anchor, top = reference_star_anchor(kept)
    mode, got, units, d_dp = rc.star_or_matching(g, bucket, kept, d_prime, top, 1e9)
    assert (mode, got) == ("star", anchor)
    assert d_dp == d_prime - g.degree(anchor)
    partners = sorted({b if a == anchor else a
                       for a, b in zip(*bucket.tolist()) if anchor in (a, b)})
    assert [u.vertices[0] for u in units] == partners


def test_star_anchor_tie_goes_to_lowest_vertex():
    # vertices 90 (only ever the first entry) and 5 (only ever the second)
    # both carry three filtered pairs; vertex 5 must win the tie.  The
    # pairs are in lexicographic order, as pigeonhole_pairs lists them
    g = gc.generate("gnp", n=130, p=0.5, seed=4)
    h = np.array([[1, 2, 3, 7, 90, 90, 90], [5, 5, 5, 120, 100, 101, 102]], dtype=np.int32)
    assert reference_star_anchor(h) == (5, 3)
    assert star_degrees(h, g.n)[[5, 90]].tolist() == [3, 3]
    mode, anchor, units, _ = rc.star_or_matching(g, h, h, 0, 3.0, 1e9)
    assert (mode, anchor) == ("star", 5)
    assert [u.vertices for u in units] == [(1,), (2,), (3,)]
    # the anchor's partners past it are read from a slice of h's sorted first row
    mode, anchor, units, _ = rc.star_or_matching(g, h, h[:, 4:], 0, 3.0, 1e9)
    assert (mode, anchor) == ("star", 90)
    assert [u.vertices for u in units] == [(100,), (101,), (102,)]


def test_a_bucket_out_of_lexicographic_order_is_refused():
    # the tie test's seven pairs out of order: either bucket's first row
    # decreasing is refused
    g = gc.generate("gnp", n=130, p=0.5, seed=4)
    unsorted = np.array([[90, 90, 90, 1, 2, 3, 7], [100, 101, 102, 5, 5, 5, 120]],
                        dtype=np.int32)
    ordered = unsorted[:, np.lexsort(unsorted[::-1])]
    assert ordered[0].tolist() == [1, 2, 3, 7, 90, 90, 90]
    for h, kept, name in ((unsorted, ordered, "h"), (ordered, unsorted, "h_filtered")):
        with pytest.raises(ContractViolation, match=f"first vertices of {name} decrease"):
            rc.star_or_matching(g, h, kept, 0, 3.0, 1e9)
    # a tie in the first row is no decrease
    assert rc.star_or_matching(g, ordered, ordered, 0, 3.0, 1e9)[1] == 5


@pytest.mark.parametrize("n,seed", [(130, 1), (200, 2), (512, 3)])
def test_star_degrees_by_searchsorted_match_the_bincount_reference(n, seed):
    # the anchor and its unit list against the per-row bincount count, on
    # real buckets and on filtered ones that drop pairs
    g = gc.generate("gnp", n=n, p=0.5, seed=seed)
    d_prime, h = rc.pigeonhole_pairs(g)
    for theta in (0.1, 0.45, 0.5):
        kept = rc.filter_close_complements(g, h, theta)
        hdeg = star_degrees(kept, n)
        best = int(np.argmax(hdeg))
        mode, anchor, units, d_dp = rc.star_or_matching(g, h, kept, d_prime, hdeg[best], 1e9)
        assert (mode, anchor) == ("star", best)
        partners = sorted({b if a == best else a for a, b in zip(*h.tolist()) if best in (a, b)})
        assert [u.vertices[0] for u in units] == partners
        with pytest.raises(ConstructionFailure):
            rc.star_or_matching(g, h, kept, d_prime, hdeg[best] + 1, 1e9)


def pipeline_units(n, seed, star_coeff):
    """(graph, mode, unit list L) of a default build on G(n, 1/2), without
    the rich prepass, up to star_or_matching; a huge star_coeff forces
    matching mode."""
    g = gc.generate("gnp", n=n, p=0.5, seed=seed)
    d_prime, h = rc.pigeonhole_pairs(g)
    kept = rc.filter_close_complements(g, h, 0.1)
    floor = 0.25 * n ** 0.75
    mode, _, units, _ = rc.star_or_matching(g, h, kept, d_prime, star_coeff * n ** 0.75,
                                            floor)
    return g, mode, units


@pytest.mark.parametrize("star_coeff,mode,thetas", [
    # G(n, 1/2) star units are about n/2 apart and matched pairs about 3n/4,
    # with the closest near 0.45n and 0.68n: theta_conflict = 0.3 would give
    # no conflict edge, so these thetas sit in the lower tail
    (0.25, "star", (0.46, 0.48, 0.5)),
    (1e6, "matching", (0.69, 0.71, 0.75)),
])
def test_independent_units_on_built_unit_lists_matches_reference_greedy(
        star_coeff, mode, thetas):
    g, got_mode, units = pipeline_units(300, 5, star_coeff)
    assert got_mode == mode
    for theta in thetas:
        want, conflicts = independent_units_greedy(g, units, theta)
        assert conflicts > 0
        assert rc.independent_units(g, units, theta) == want


def test_conflict_threshold_is_compared_exactly():
    # at n = 1000 the default theta_conflict = eps^2/4 gives a threshold of
    # 10.000000000000002, which float32 rounds to 10.0: a gap of exactly 10
    # is a conflict
    theta = ConstructionParams().epsilon ** 2 / 4
    assert theta * 1000 > 10
    g = from_edges(1000, [(0, v) for v in range(2, 12)])
    units = (gc.Unit.single(0), gc.Unit.single(1))
    assert gc.pair_gaps(g, units)[0, 1] == gc.symdiff_size(g, *units) == 10
    assert rc.independent_units(g, units, theta) == units[:1]


# ── the prefix screen of the conflict graph ──────────────────────────────


def near_twin_graph(n, twins, copied, seed):
    """G(n, 1/2) in which, for each (a, b) in twins, vertex b has a's
    neighbors among the vertices below 128 and among those in copied."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < 0.5, 1)
    adj |= adj.T
    cols = [u for u in range(n) if u < 128 or u in copied]
    for a, b in twins:
        for u in cols:
            if u not in (a, b):
                adj[b, u] = adj[u, b] = adj[a, u]
    return from_edges(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(adj, 1)))])


def spy_pair_gaps(mp):
    """Record (unit count, umask) of every pair_gaps call independent_units makes."""
    calls = []
    real = rc.pair_gaps

    def spy(g, units, umask=None):
        calls.append((len(units), umask))
        return real(g, units, umask)

    mp.setattr(rc, "pair_gaps", spy)
    return calls


@settings(max_examples=30)
@given(mode=st.sampled_from(("star", "matching")), seed=st.integers(0, 2 ** 32),
       keep=st.sampled_from((0.0, 0.9, 0.97, 1.0)), extra=st.integers(0, 20))
def test_near_twins_past_the_prefix_match_the_reference_greedy(mode, seed, keep, extra):
    # at n = 300 and theta = 0.05 the screen reads the first 128 columns.
    # Twins (a, b) agree there, so every unit built from them is open after
    # the screen; how many later columns b copies decides whether the full
    # rows put them in conflict (gap below 15) or not
    n, theta = 300, 0.05
    rng = random.Random(seed)
    verts = rng.sample(range(128, n), 16)
    twins = list(zip(verts[:8], verts[8:]))
    copied = set(rng.sample(range(128, n), round(keep * (n - 128))))
    g = near_twin_graph(n, twins, copied, seed)
    others = rng.sample([v for v in range(n) if v not in verts], 2 * extra)
    if mode == "star":
        units = [gc.Unit.single(v) for v in verts + others]
    else:
        units = [gc.Unit.pair(a1, a2) for (a1, _), (a2, _) in zip(twins[::2], twins[1::2])]
        units += [gc.Unit.pair(b1, b2) for (_, b1), (_, b2) in zip(twins[::2], twins[1::2])]
        units += [gc.Unit.pair(*others[i:i + 2]) for i in range(0, len(others), 2)]
    units = tuple(rng.sample(units, len(units)))
    want, _ = independent_units_greedy(g, units, theta)
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_pair_gaps(mp)
        assert rc.independent_units(g, units, theta) == want
    assert calls[0] == (len(units), (1 << 128) - 1)
    assert len(calls) == 2 and calls[1][1] is None and calls[1][0] >= 8


@pytest.mark.parametrize("mode", ["star", "matching"])
def test_a_sparse_graph_leaves_every_pair_open(mode, monkeypatch):
    # every prefix gap of G(300, 0.02) is far below theta*n = 30, so all
    # units read their whole rows and the recount decides every pair
    g = gc.generate("gnp", n=300, p=0.02, seed=7)
    if mode == "star":
        units = tuple(gc.Unit.single(v) for v in range(0, 300, 2))
    else:
        units = tuple(gc.Unit.pair(v, v + 1) for v in range(0, 300, 2))
    want, conflicts = independent_units_greedy(g, units, 0.1)
    assert conflicts > 0
    calls = spy_pair_gaps(monkeypatch)
    assert rc.independent_units(g, units, 0.1) == want
    assert calls == [(len(units), (1 << 128) - 1), (len(units), None)]


@pytest.mark.parametrize("n,theta", [(100, 0.3), (130, 0.45), (200, 0.9), (64, 0.01),
                                     (300, 1e300)])
def test_a_prefix_as_long_as_the_row_is_one_full_product(n, theta, monkeypatch):
    # head = min(n, 64*(ceil(2*theta*n/64) + 1)) reaches n: no screen
    g = gc.generate("gnp", n=n, p=0.5, seed=n)
    units = tuple(gc.Unit.single(v) for v in range(0, n, 2))
    want, _ = independent_units_greedy(g, units, theta)
    calls = spy_pair_gaps(monkeypatch)
    assert rc.independent_units(g, units, theta) == want
    assert calls == [(len(units), None)]


@pytest.mark.parametrize("theta", [0.0, -0.5])
def test_a_threshold_of_zero_or_below_keeps_every_unit(theta, monkeypatch):
    g = gc.generate("gnp", n=300, p=0.5, seed=2)
    units = tuple(gc.Unit.single(v) for v in range(0, 300, 3))
    calls = spy_pair_gaps(monkeypatch)
    assert rc.independent_units(g, units, theta) == units
    assert calls == [(len(units), (1 << 64) - 1)]


def test_event4_floor_is_compared_exactly():
    # kappa3 * n lands just above 63, which float32 rounds to 63.0: an
    # attempt that puts exactly 63 vertices of N(0) into U0 fails event (4)
    kappa3 = 0.063
    while kappa3 * 1000 <= 63:
        kappa3 = math.nextafter(kappa3, 1)
    g = from_edges(1000, [(0, v) for v in range(2, 1000)])
    units = (gc.Unit.single(0), gc.Unit.single(1))
    params = ConstructionParams(seed=0, kappa3=kappa3, kappa4=1e9)
    with pytest.raises(ConstructionFailure) as exc:
        rc.sample_U0(g, units, 1, 0, params)
    seen = [(a["min_pair_symdiff"], a["events"][3]) for a in exc.value.diagnostics["attempts"]]
    assert (63, False) in seen and (64, True) in seen
    assert all(ok4 == (gap >= kappa3 * 1000) for gap, ok4 in seen)


@pytest.mark.parametrize("n,star_coeff", [(300, 0.25), (700, 1e6)])
def test_sample_u0_event4_matches_the_pair_loop(n, star_coeff, monkeypatch):
    # each attempt's (events[3], min_pair_symdiff) against the row-major
    # pair scan, on the U0 the attempt drew: kappa3 = 0.02 passes event (4)
    # in some attempts, the larger floors fail it in every one
    g, mode, units = pipeline_units(n, 1, star_coeff)
    a_units = rc.independent_units(g, units, 0.01)[:round(4 * n ** 0.5)]
    assert all(x.is_pair == (mode == "matching") for x in a_units)
    drawn = []
    real = rc.pair_gaps

    def spy(g, units, umask=None):
        drawn.append(umask)
        return real(g, units, umask)

    monkeypatch.setattr(rc, "pair_gaps", spy)
    m = round(1.5 * 0.0003 * n * n)
    outcomes = {}
    for kappa3 in (0.02, 0.05, 0.1, 0.2):
        drawn.clear()
        params = ConstructionParams(seed=1, kappa3=kappa3, kappa4=1e9, retry_max=6)
        try:
            attempts = rc.sample_U0(g, a_units, m, 0, params)[3]["attempts"]
        except ConstructionFailure as exc:
            attempts = exc.diagnostics["attempts"]
        assert len(drawn) == len(attempts)
        for att, u0 in zip(attempts, drawn):
            ok4, min_sym = event4_scan(g, a_units, u0, kappa3 * n)
            assert (att["events"][3], att["min_pair_symdiff"]) == (ok4, min_sym)
            assert type(att["min_pair_symdiff"]) is int
            outcomes.setdefault(kappa3, set()).add(ok4)
    assert True in outcomes[0.02]
    assert all(outcomes[k] == {False} for k in (0.05, 0.1, 0.2))


@pytest.mark.parametrize("g,units,m,message", [
    (gc.generate("complete", n=8), (), 2, "unit family A must be nonempty"),
    (gc.generate("empty", n=8), (gc.Unit.single(0),), 2, "graph has no edges"),
    # p = sqrt(4m/e(G)) = sqrt(32/28) on K_8
    (gc.generate("complete", n=8), (gc.Unit.single(0),), 8,
     r"sampling probability p=1.0690 outside \(0, 1\]; m too large for e\(G\)=28"),
])
def test_sample_u0_refuses_inputs_it_cannot_sample(g, units, m, message):
    with pytest.raises(ParameterError, match=message):
        rc.sample_U0(g, units, m, 4, ConstructionParams())


def test_sample_u0_draws_once_per_vertex_per_attempt(monkeypatch):
    # attempt t's U0 holds vertex v iff the v-th random() draw of its
    # derived seed is below p; a strict kappa3 makes every attempt fail
    g, _, units = pipeline_units(300, 1, 0.25)
    a_units = rc.independent_units(g, units, 0.01)[:70]
    drawn = []
    real = rc.pair_gaps
    monkeypatch.setattr(rc, "pair_gaps",
                        lambda g, units, umask=None: drawn.append(umask) or real(g, units, umask))
    params = ConstructionParams(seed=5, kappa3=0.9, retry_max=4)
    with pytest.raises(ConstructionFailure) as exc:
        rc.sample_U0(g, a_units, round(1.5 * 0.0003 * 300 * 300), 0, params)
    p = exc.value.diagnostics["p"]
    assert len(drawn) == 4
    for t, u0 in enumerate(drawn):
        keep = bernoulli_loop(random.Random(derive_seed(5, "u0", t)), 300, p)
        assert u0 == gc.mask_of(v for v in range(300) if keep[v])


def stx_inputs(g, m, params):
    """(g, U0, Q, R, p, d'') of a built scaffold, Q and R as sample_U0 hands
    them to select_STX."""
    res = construct(g, m, params)
    u0, q, r, diag = rc.sample_U0(g, res.a_units, m, res.d_doubleprime, params)
    assert u0 == res.u0_mask
    return g, u0, q, r, diag["p"], res.d_doubleprime


STX_INPUTS = {
    "star": stx_inputs(G256, M256, ConstructionParams(seed=4)),
    "matching": stx_inputs(gc.generate("gnp", n=512, p=0.5, seed=1),
                           round(1.5 * 0.0003 * 512 * 512),
                           ConstructionParams(seed=3, theta_compl=0.45, star_coeff=100)),
}


@settings(max_examples=60)
@given(mode=st.sampled_from(sorted(STX_INPUTS)), seed=st.integers(0, 2 ** 32),
       keep=st.sampled_from((1.0, 0.7, 0.4, 0.15)), shuffle=st.booleans())
def test_select_stx_matches_the_reference_split(mode, seed, keep, shuffle):
    # sub-lists of the scaffold's own Q and R, in order or shuffled, down to
    # sizes where select_STX refuses for want of units or of degrees
    g, u0, q, r, p, d_dp = STX_INPUTS[mode]
    rng = random.Random(seed)
    q = [x for x in q if rng.random() < keep]
    r = [x for x in r if rng.random() < keep]
    if shuffle:
        rng.shuffle(q)
    want = select_stx_split(g, u0, q, r, p, d_dp)
    if want is None:
        with pytest.raises(ConstructionFailure, match="select_STX"):
            rc.select_STX(g, u0, q, r, p, d_dp)
    else:
        assert rc.select_STX(g, u0, q, r, p, d_dp) == want


# ── end-to-end construction ──────────────────────────────────────────────


def test_construct_verifies_on_gnp_battery():
    ok = 0
    for seed in range(6):
        g = gc.generate("gnp", n=256, p=0.5, seed=100 + seed)
        try:
            res = construct(g, M256, ConstructionParams(seed=seed))
        except ConstructionFailure:
            continue
        ok += 1
        assert verify_construction(g, res, ConstructionParams(seed=seed))
        assert res.mode in ("star", "matching")
        assert len(res.s_units) >= 1 and len(res.t_units) >= 1
        assert len(res.x_units) >= 1
        assert 0 < res.p < 1
        assert res.gap_floor >= 1
    assert ok >= 5  # soundness target is 90%; 6 local seeds may drop one


def test_construct_is_seed_deterministic():
    params = ConstructionParams(seed=4)
    a = construct(G256, M256, params)
    b = construct(G256, M256, params)
    assert a.u0_mask == b.u0_mask
    assert a.all_units() == b.all_units()
    assert a.d == b.d and a.p == b.p


def test_construct_rejects_m_outside_window():
    with pytest.raises(ParameterError):
        construct(G256, 10 * M256)
    with pytest.raises(ParameterError):
        construct(G256, 0)


@settings(max_examples=150)
@given(n=st.integers(0, 300), c=st.floats(1e-6, 2.0), pick=st.sampled_from((0, 1, 2)),
       shift=st.integers(-2, 2))
@example(n=4, c=0.25, pick=0, shift=0)  # c*n^2 = 4 exactly: m = 4 is inside
@example(n=4, c=0.25, pick=1, shift=0)  # 2c*n^2 = 8 exactly: m = 8 is inside
@example(n=1, c=0.4, pick=0, shift=0)   # [0.4, 0.8] holds no integer
def test_construct_refuses_exactly_the_m_outside_the_window(n, c, pick, shift):
    # the window against its statement, the integers m >= 1 with
    # c*n^2 <= m <= 2c*n^2: its least candidate is max(1, ceil(c*n^2)), so
    # it is empty exactly when that one lies above 2c*n^2, and then m_window
    # and construct refuse it whatever m is asked for; the empty graph fails
    # the density check right after the window check, so an admitted m
    # costs nothing
    params = ConstructionParams(c_density=c)
    g = gc.generate("empty", n=n)
    if max(1, math.ceil(c * n * n)) > 2 * c * n * n:
        for call in (lambda: rc.m_window(params, n), lambda: construct(g, 1 + shift, params)):
            with pytest.raises(ParameterError, match=r"^empty m range \[\d+, \d+\]$"):
                call()
        return
    window = rc.m_window(params, n)
    assert window.lo <= window.hi
    m = window[pick] + shift
    inside = m >= 1 and c * n * n <= m <= 2 * c * n * n
    assert inside == (window.lo <= m <= window.hi)
    assert window.mid == round(1.5 * c * n * n)
    assert window.lo <= window.mid <= window.hi
    if m < 1:
        return  # refused as no positive integer, before the window
    with pytest.raises(ConstructionFailure if inside else ParameterError) as exc:
        construct(g, m, params)
    if inside:
        assert exc.value.stage == "density"


def test_construct_density_entry_check():
    sparse = gc.generate("gnp", n=256, p=0.02, seed=0)
    with pytest.raises(ConstructionFailure) as exc:
        construct(sparse, M256)
    assert exc.value.stage == "density"


def test_construct_rich_prepass_rejects_homogeneous_input():
    g = gc.generate("complete", n=256)
    params = ConstructionParams(seed=0, delta=0.3)
    with pytest.raises(ConstructionFailure) as exc:
        construct(g, M256, params)
    assert exc.value.stage == "rich_prepass"


def test_rich_extract_hands_its_shrunken_graph_to_construct():
    """G(256,1/2) joined to an independent block B = {0..7}, 8 > 264^0.3:
    W = N(0) = V - B leaves every B vertex too few non-neighbors, so the
    extraction shrinks to the G(256,1/2) part, which the next audit finds
    rich; construct then works inside the graph the extraction handed back."""
    a = gc.generate("gnp", n=256, p=0.5, seed=1)
    rows = [a.full_mask << 8] * 8 + [(r << 8) | 0xFF for r in a.adj]
    g = gc.Graph(264, rows)
    params = ConstructionParams(seed=1)
    ext = sa.rich_extract(g, params.audit_params())
    assert ext.status == "rich"
    assert len(ext.trace) == 1 and ext.trace[0].side == "dense"
    assert ext.u_mask == a.full_mask << 8
    assert ext.graph == gc.induced_subgraph(g, ext.u_mask)[0] == a
    res = construct(g, round(1.5 * 0.0003 * 264 * 264), params)
    assert res.diagnostics["rich_status"] == "rich"
    assert res.working_n == 256
    assert not res.u0_mask & 0xFF
    assert verify_construction(g, res, params)


def test_verifier_catches_tampering():
    params = ConstructionParams(seed=4)
    res = construct(G256, M256, params)
    # overlap: copy an S unit into X
    bad = replace(res, x_units=res.x_units[:-1] + (res.s_units[0],))
    with pytest.raises(ContractViolation):
        verify_construction(G256, bad, params)
    # shrink the recorded degree target far below reality
    bad = replace(res, d=res.d + 100 * math.sqrt(res.working_n))
    with pytest.raises(ContractViolation):
        verify_construction(G256, bad, params)
    # claim an S/T degree gap one above the family's; the gap itself passes
    gap = min(gc.unit_degree(G256, x, res.u0_mask) for x in res.t_units) \
        - max(gc.unit_degree(G256, x, res.u0_mask) for x in res.s_units)
    assert verify_construction(G256, replace(res, gap_floor=gap), params)
    bad = replace(res, gap_floor=gap + 1)
    with pytest.raises(ContractViolation, match="degree gap"):
        verify_construction(G256, bad, params)
    # claim a symdiff floor one above the closest X pair's gap inside U0
    closest = min(gc.symdiff_size(G256, x, y, umask=res.u0_mask)
                  for i, x in enumerate(res.x_units) for y in res.x_units[i + 1:])
    assert verify_construction(G256, replace(res, kappa3=closest / res.working_n), params)
    bad = replace(res, kappa3=(closest + 1) / res.working_n)
    with pytest.raises(ContractViolation, match="symdiff"):
        verify_construction(G256, bad, params)
    # claim a much larger symdiff floor than the family achieves
    bad = replace(res, kappa3=0.9)
    with pytest.raises(ContractViolation):
        verify_construction(G256, bad, params)
    # mix unit kinds against the declared mode
    flipped = "matching" if res.mode == "star" else "star"
    bad = replace(res, mode=flipped)
    with pytest.raises(ContractViolation):
        verify_construction(G256, bad, params)


def verdict(verify, g, res, params):
    """True, or the text of the ContractViolation the verifier raised."""
    try:
        return verify(g, res, params)
    except ContractViolation as exc:
        return str(exc)


@pytest.mark.parametrize("star_coeff,mode", [(0.25, "star"), (1e6, "matching")])
def test_verifier_matches_the_int_row_loop(star_coeff, mode):
    # the packed X-pair broadcast against the pair-by-pair symdiff_size loop,
    # on a sound scaffold and on hand-broken ones: the same verdict, and the
    # same first pair in row-major order named in the same words
    params = ConstructionParams(seed=4, star_coeff=star_coeff)
    res = construct(G256, M256, params)
    assert res.mode == mode and len(res.x_units) > 20
    n, xs = res.working_n, res.x_units
    gaps = sorted({gc.symdiff_size(G256, x, y, umask=res.u0_mask)
                   for i, x in enumerate(xs) for y in xs[i + 1:]})
    broken = [replace(res, kappa3=gap / n) for gap in (gaps[0], gaps[1], gaps[len(gaps) // 2])]
    broken += [
        replace(res, kappa3=(gaps[-1] + 1) / n),  # every pair below: the first is (0, 1)
        replace(res, x_units=xs[::-1], kappa3=gaps[len(gaps) // 2] / n),
        replace(res, x_units=xs[:1], kappa3=0.9),  # one unit: no pair to compare
        replace(res, x_units=(), kappa3=0.9),
        replace(res, x_units=xs[:-1] + (res.s_units[0],)),  # overlap, caught first
        replace(res, mode="star" if mode == "matching" else "matching"),
    ]
    texts = []
    for r in [res] + broken:
        want = verdict(verify_construction_loop, G256, r, params)
        assert verdict(verify_construction, G256, r, params) == want
        texts.append(want)
    assert texts[0] is True
    symdiff = [t for t in texts if t is not True and "symdiff" in t]
    assert len(symdiff) == len(set(symdiff)) == 4
    assert f"x units {xs[0].vertices},{xs[1].vertices} symdiff" in texts[4]


def test_construct_diagnostics_shape():
    res = construct(G256, M256, ConstructionParams(seed=4))
    d = res.diagnostics
    for key in ("rich_status", "h_size", "l_size", "a_size", "b_size",
                "u0_size", "resolved", "sampling"):
        assert key in d
    assert len(d["sampling"]["attempts"]) >= 1
    assert d["sampling"]["accepted_attempt"] >= 0
    assert d["u0_size"] == res.u0_mask.bit_count()
    assert res.working_n == 256


def test_construct_diagnostics_count_the_bucket_and_the_filter():
    # the construct-matching golden case: the filter drops 779 of 65,248 pairs
    g = gc.generate("gnp", n=512, p=0.5, seed=1)
    m = rc.m_window(ConstructionParams(), 512).mid
    res = construct(g, m, ConstructionParams(seed=3, theta_compl=0.45, star_coeff=100))
    assert res.mode == "matching"
    assert (res.diagnostics["h_size"], res.diagnostics["h_filtered_size"]) == (65248, 64469)
    # a star build lists the whole fullest bucket of its working graph
    params = ConstructionParams(seed=4)
    res = construct(G256, M256, params)
    assert res.mode == "star"
    work = sa.rich_extract(G256, params.audit_params()).graph
    w = math.ceil(math.sqrt(work.n))
    sizes = rc._bucket_sizes(np.array(work.degrees(), dtype=np.int64), w)
    assert res.diagnostics["h_size"] == int(sizes.max()) \
        == bucket_by_enumeration(work, w)[1].shape[1] > 2


def test_pair_stages_keep_the_bucket_small():
    # one (2, k) int32 bucket: pigeonhole -> filter -> star peaks near 16 MiB
    # on G(2048, 1/2), where the filter keeps every pair; a (k, 2) int64
    # bucket and its filtered copy peaked near 44 MiB
    n = 2048
    g = gc.generate("gnp", n=n, p=0.5, seed=0)
    floor = 0.25 * n ** 0.75
    tracemalloc.start()
    try:
        d_prime, h = rc.pigeonhole_pairs(g)
        kept = rc.filter_close_complements(g, h, 0.1)
        mode = rc.star_or_matching(g, h, kept, d_prime, floor, floor)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mode == "star" and h.shape[1] > 10 ** 6
    assert peak <= 32 * 2 ** 20


def test_construct_event_knobs_are_respected():
    # vacuous event-4/5 knobs cannot make the pipeline fail those events
    params = ConstructionParams(seed=4, kappa3=0.0, kappa4=1e9)
    res = construct(G256, M256, params)
    assert res.kappa3 == 0.0
    hist = res.diagnostics["sampling"]["event_fail_histogram"]  # one slot per event
    assert hist[3] == 0 and hist[4] == 0


@pytest.mark.parametrize("key,event", [("kappa1", 0), ("kappa2", 2)])
def test_a_tiny_event_window_fails_its_event_on_every_attempt(key, event):
    # kappa1 is event (1)'s e(U0) window, kappa2 event (3)'s degree window:
    # at 1e-9 neither e(U0) = 4m nor 2/3 of the unit degrees at p*d'' exactly
    # is met by any of the retry_max draws
    params = ConstructionParams(seed=4, retry_max=8, **{key: 1e-9})
    with pytest.raises(ConstructionFailure) as exc:
        construct(G256, M256, params)
    assert exc.value.stage == "sample_U0"
    assert exc.value.diagnostics["event_fail_histogram"][event] == 8
    ok = construct(G256, M256, replace(params, **{key: getattr(ConstructionParams(), key)}))
    assert ok.diagnostics["sampling"]["event_fail_histogram"][event] == 0


def test_the_kappa5_floor_is_recorded_not_enforced():
    # d_floor_ok reads d >= kappa5 * n on the working graph; a floor above d
    # turns it False and changes nothing else
    res = construct(G256, M256, ConstructionParams(seed=4))
    assert res.diagnostics["d_floor_ok"]
    above = construct(G256, M256, ConstructionParams(seed=4,
                                                     kappa5=(res.d + 1) / res.working_n))
    assert not above.diagnostics["d_floor_ok"]
    assert above == res


def test_the_match_floor_is_match_coeff_times_n_to_three_quarters():
    # the construct-matching golden build, star_coeff=100 ruling out a star:
    # the greedy matching passes a floor half a unit below its size and
    # fails one half a unit above it
    g = gc.generate("gnp", n=512, p=0.5, seed=1)
    m = rc.m_window(ConstructionParams(), 512).mid
    params = ConstructionParams(seed=3, theta_compl=0.45, star_coeff=100)
    res = construct(g, m, params)
    size, wn = res.diagnostics["l_size"], res.working_n
    assert res.mode == "matching"
    below = construct(g, m, replace(params, match_coeff=(size - 0.5) / wn ** 0.75))
    assert below == res
    with pytest.raises(ConstructionFailure) as exc:
        construct(g, m, replace(params, match_coeff=(size + 0.5) / wn ** 0.75))
    diag = exc.value.diagnostics
    assert exc.value.stage == "star_or_matching"
    assert diag["matching_size"] == size
    assert diag["match_floor"] == pytest.approx(size + 0.5)
