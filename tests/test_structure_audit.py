"""Density/diversity/richness audits against brute-force mirrors."""
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramspect import graph_core as gc
from ramspect import structure_audit as sa
from ramspect.errors import ContractViolation, ParameterError
from reference import (bad_counts_product, candidate_sets_loop, close_complement_pair_count,
                       diversity_profile, extract_keep_loop, extract_sides_loop,
                       richness_audit_loop)


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return gc.from_edges(n, edges)


def bad_sides_ref(g, w, epsilon):
    """(sparse, dense) toward W from int rows, the non-neighbors read off
    complement rows: fewer than eps*|W| neighbors in W, else fewer than
    eps*|W| non-neighbors there."""
    thr = epsilon * w.bit_count()
    sparse = gc.mask_of(v for v in range(g.n) if (g.adj[v] & w).bit_count() < thr)
    dense = gc.mask_of(v for v in range(g.n) if (g.comp_row(v) & w).bit_count() < thr)
    return sparse, dense & ~sparse


def bad_count(rows, w, epsilon):
    """|Y| of W by the popcount kernel: both of _bad_sides' disjoint sides."""
    return sum(side.bit_count() for side in sa._bad_sides(rows, w, epsilon))


PALEY13 = gc.generate("paley", n=13)


# ── params and simple checks ─────────────────────────────────────────────


def test_audit_params_validation():
    with pytest.raises(ParameterError):
        sa.AuditParams(epsilon=0.5)
    with pytest.raises(ParameterError):
        sa.AuditParams(delta=0.6)
    with pytest.raises(ParameterError):
        sa.AuditParams(sample_budget=0)


def test_edge_density():
    g = gc.generate("gnp", n=40, p=0.5, seed=1)
    assert sa.edge_density(g) == g.edge_count() / math.comb(40, 2)
    assert sa.edge_density(gc.generate("complete", n=7)) == 1.0
    assert sa.edge_density(gc.generate("empty", n=10)) == 0.0
    assert sa.edge_density(gc.generate("empty", n=1)) == 0.0


def test_diversity_profile_matches_brute_force():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 12)
        g = random_graph(rng, n)
        c = rng.choice((0.1, 0.3, 0.6))
        want = [0] * n
        for x, y in itertools.combinations(range(n), 2):
            if (g.adj[x] ^ g.adj[y]).bit_count() < c * n:
                want[x] += 1
                want[y] += 1
        assert sa.pair_audit(g, c, 0.5)[0] == want


def test_close_complement_pair_count_matches_brute_force():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 11)
        g = random_graph(rng, n)
        thr = rng.choice((0.2, 0.5, 0.9)) * n
        want = 0
        for x, y in itertools.combinations(range(n), 2):
            # multiset gap between N(x) and the complement neighborhood of y
            d = sum(abs((g.adj[x] >> v & 1) - (g.comp_row(y) >> v & 1))
                    for v in range(n))
            if d < thr:
                want += 1
        assert sa.pair_audit(g, 0.1, thr / n)[1] == want
    # path 0-1-2-3 by hand: N(0) = {1} against N_bar(3) = {0, 1} and
    # N(1) = {0, 2} against N_bar(2) = {0} each differ in one vertex; the
    # other four pairs differ in two
    path = gc.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert sa.pair_audit(path, 0.1, 2 / 4)[1] == 2
    assert sa.pair_audit(path, 0.1, 3 / 4)[1] == 6


def test_pair_audits_multiword_match_int_rows():
    # n = 130: packed rows end in a partly filled third word
    g = random_graph(random.Random(13), 130)
    n = g.n
    for c in (0.45, 0.5):
        profile, pairs = sa.pair_audit(g, c, c)
        want = [sum((g.adj[x] ^ g.adj[y]).bit_count() < c * n for y in range(n) if y != x)
                for x in range(n)]
        assert profile == want
        want = sum((g.adj[x] ^ g.comp_row(y)).bit_count() < c * n
                   for x, y in itertools.combinations(range(n), 2))
        assert pairs == want
    assert 0 < want < n * (n - 1) // 2


def audit_graph(n, p, seed, plant):
    """G(n, p) with an optional plant: "twins" makes vertices 2i and 2i+1
    share one drawn row (a gap of 0 between them), "complements" XORs in the
    complete bipartite graph between even and odd vertices, which makes
    every even-odd pair nearly complementary when p is far from 1/2."""
    rng = np.random.default_rng(seed)
    draw = np.triu(rng.random((n, n)) < p, 1)
    draw |= draw.T
    cls = np.arange(n) // 2 if plant == "twins" else np.arange(n)
    adj = draw[np.ix_(cls, cls)]
    if plant == "complements":
        adj ^= (np.arange(n)[:, None] % 2) != (np.arange(n) % 2)
    np.fill_diagonal(adj, False)
    return gc.from_edges(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(adj, 1)))])


@settings(max_examples=120)
@given(n=st.sampled_from((0, 1, 2, 63, 64, 65, 127, 128, 129, 130)),
       p=st.sampled_from((0.05, 0.5, 0.95)),
       plant=st.sampled_from((None, "twins", "complements")),
       seed=st.integers(0, 2 ** 32), c_div=st.floats(0.001, 0.999),
       theta=st.floats(0.001, 0.999))
def test_pair_audit_matches_the_separate_passes(n, p, plant, seed, c_div, theta):
    # one popcount per pair against two separate references: the profile's
    # row loop and the complement count through the gather kernel
    g = audit_graph(n, p, seed, plant)
    profile, pairs = sa.pair_audit(g, c_div, theta)
    assert profile == diversity_profile(g, c_div)
    assert pairs == close_complement_pair_count(g, theta)
    if plant == "twins" and n >= 2:
        assert min(profile[:n - n % 2]) >= 1  # each twin counts the other


def test_pair_audit_refuses_thresholds_that_are_not_positive():
    g = gc.generate("empty", n=3)
    for c_div, theta in ((0.0, 0.1), (float("nan"), 0.1), (0.1, -1.0), (0.1, float("nan"))):
        with pytest.raises(ParameterError):
            sa.pair_audit(g, c_div, theta)


# ── richness ─────────────────────────────────────────────────────────────


def brute_richness_witness(g, delta, epsilon):
    """Smallest-index witness set, enumerating every W of size >= delta*n."""
    n = g.n
    wmin = math.ceil(delta * n)
    limit = n ** delta
    for w in range(1 << n):
        if w.bit_count() < wmin:
            continue
        bad = 0
        thr = epsilon * w.bit_count()
        for v in range(n):
            if (g.adj[v] & w).bit_count() < thr or \
                    (g.comp_row(v) & w).bit_count() < thr:
                bad += 1
        if bad > limit:
            return w
    return None


def test_paley13_is_exhaustively_rich():
    params = sa.AuditParams(epsilon=0.07, delta=0.5)
    verdict = richness_audit_loop(PALEY13, params, exhaustive=True)
    assert not verdict.found
    assert brute_richness_witness(PALEY13, 0.5, 0.07) is None


def test_exhaustive_richness_matches_brute_force_battery():
    rng = random.Random(7)
    for _ in range(8):
        n = rng.randrange(5, 10)
        g = random_graph(rng, n, rng.choice((0.2, 0.5)))
        params = sa.AuditParams(epsilon=0.2, delta=0.5)
        verdict = richness_audit_loop(g, params, exhaustive=True)
        want = brute_richness_witness(g, 0.5, 0.2)
        # the non-neighbor count without complement rows, on every subset W
        for w in range(1 << n):
            assert sa._bad_sides(gc.pack_rows(g.adj, n), w, 0.2) == bad_sides_ref(g, w, 0.2)
        assert verdict.found == (want is not None)
        if verdict.found:
            # the verdict's witness really is one
            assert bad_count(gc.pack_rows(g.adj, n), verdict.witness_w, 0.2) > n ** 0.5
            assert verdict.witness_w.bit_count() >= math.ceil(0.5 * n)


@pytest.mark.parametrize("n", [130, 200])
def test_bad_vertices_multiword_matches_comp_row_reference(n):
    rng = random.Random(n)
    g = random_graph(rng, n, 0.3)
    rows = gc.pack_rows(g.adj, n)
    found = 0
    for size in (1, n // 3, n // 2, n - 1, n):
        w = gc.mask_of(rng.sample(range(n), size))
        ref = bad_sides_ref(g, w, 0.25)
        assert sa._bad_sides(rows, w, 0.25) == ref
        found += ref != (0, 0)
    assert found  # some W leaves bad vertices


def test_sampled_witness_implies_exhaustive_witness():
    """The budgeted search never reports a spurious witness."""
    rng = random.Random(11)
    checked = 0
    for _ in range(12):
        n = rng.randrange(6, 11)
        g = random_graph(rng, n, 0.15)  # sparse graphs violate richness easily
        params = sa.AuditParams(epsilon=0.25, delta=0.5,
                                sample_budget=80, seed=rng.randrange(999))
        sampled = sa.richness_audit(g, params)
        if sampled.found:
            checked += 1
            bad = bad_count(gc.pack_rows(g.adj, n), sampled.witness_w, params.epsilon)
            assert bad > n ** params.delta
            assert richness_audit_loop(g, params, exhaustive=True).found
    assert checked > 0  # the battery actually exercised the witness path


def test_richness_audit_deterministic():
    g = gc.generate("gnp", n=30, p=0.5, seed=4)
    params = sa.AuditParams(seed=9)
    a = sa.richness_audit(g, params)
    b = sa.richness_audit(g, params)
    assert a == b


# ── batched richness audit against the candidate-at-a-time loop ──────────


@settings(max_examples=60)
@given(n=st.sampled_from((0, 1, 2, 63, 64, 65, 129)),
       p=st.sampled_from((0.05, 0.3, 0.5, 0.7)), graph_seed=st.integers(0, 2 ** 32),
       epsilon=st.floats(0.01, 0.3), delta=st.floats(0.2, 0.5),
       budget=st.integers(1, 300), seed=st.integers(0, 999))
def test_richness_audit_matches_the_candidate_loop(n, p, graph_seed, epsilon, delta,
                                                   budget, seed):
    g = audit_graph(n, p, graph_seed, None)
    params = sa.AuditParams(epsilon=epsilon, delta=delta, sample_budget=budget, seed=seed)
    assert sa.richness_audit(g, params) == richness_audit_loop(g, params)


def planted_witness_graph(n, seed):
    """(graph, W): G(n, 1/2) with no edge between the first eight vertices
    and W, the upper half of the vertices, so at epsilon = 0.05 all eight
    are bad toward W, more than n^0.3 for every n below 1000."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < 0.5, 1)
    adj |= adj.T
    adj[:8, n // 2:] = adj[n // 2:, :8] = False
    g = gc.from_edges(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(adj, 1)))])
    return g, gc.mask_of(range(n // 2, n))


@settings(max_examples=30)
@given(n=st.sampled_from((65, 129, 256)), at=st.sampled_from((1, 32, 33, 96, 97, 224, 225)),
       after=st.integers(0, 40), seed=st.integers(0, 2 ** 32))
def test_planted_witness_is_found_at_its_index_across_block_boundaries(n, at, after, seed):
    # the candidates before the plant have at most n^delta bad vertices;
    # the audit must stop at the plant, whichever block it falls in.  At
    # n = 256 the prefix screen reads the first 128 columns, so the plant's
    # W, the upper half, is all past it and only the full count finds it
    g, witness = planted_witness_graph(n, seed)
    params = sa.AuditParams(epsilon=0.05, delta=0.3)
    rows = gc.pack_rows(g.adj, n)
    rng = random.Random(seed)
    before = []
    while len(before) < at - 1:
        w = gc.mask_of(rng.sample(range(n), rng.randrange(n // 4, n + 1)))
        if bad_count(rows, w, params.epsilon) <= n ** params.delta:
            before.append(w)
    later = [gc.mask_of(rng.sample(range(n), n // 2)) for _ in range(after)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sa, "_candidate_sets", lambda *args: iter(before + [witness] + later))
        verdict = sa.richness_audit(g, params)
        assert verdict == richness_audit_loop(g, params)
    assert (verdict.budget_used, verdict.witness_w) == (at, witness)
    assert verdict.witness_y & 0xFF == 0xFF


@settings(max_examples=60)
@given(n=st.sampled_from((1, 40, 64, 65, 129)), graph_seed=st.integers(0, 2 ** 32),
       epsilon=st.sampled_from((0.125, 0.25, 0.375, 0.07, 0.35)),
       seed=st.integers(0, 2 ** 32))
def test_bad_counts_match_bad_vertices_where_eps_w_is_an_integer(n, graph_seed, epsilon,
                                                                 seed):
    # |W| a multiple of 8, 20 or 100 makes eps*|W| an integer, or a float
    # an ulp off one (0.07 * 100 is 7.000000000000001): k < eps*|W| must
    # then read the same through ceil(eps*|W|)
    g = audit_graph(n, 0.5, graph_seed, None)
    rng = random.Random(seed)
    sizes = [s for s in range(0, n + 1) if s % 8 == 0 or s % 20 == 0]
    block = [gc.mask_of(rng.sample(range(n), rng.choice(sizes))) for _ in range(40)]
    rows = gc.pack_rows(g.adj, n)
    want = [bad_count(rows, w, epsilon) for w in block]
    assert sa._bad_counts(rows, block, epsilon).tolist() == want


TIE_CASES = [
    (0.25, 8, 0b1010),   # eps*|W| = 2 exactly: a count of 2 is not bad
    (0.07, 100, 0b1111),  # eps*|W| = 7.000000000000001: a count of 7 is bad
]


def tie_graph(epsilon, size, pad=0):
    """(graph, W) for the tie cases: W = {0..size-1} and t = round(eps*|W|).
    Vertices size and size+1 have t and t - 1 neighbors in W, vertices
    size+2 and size+3 have t and t - 1 non-neighbors there; pad isolated
    vertices follow."""
    t = round(epsilon * size)
    edges = [(size + i, u) for i, top in enumerate((t, t - 1, size - t, size - t + 1))
             for u in range(top)]
    return gc.from_edges(size + 4 + pad, edges), gc.mask_of(range(size))


@pytest.mark.parametrize("epsilon,size,pattern", TIE_CASES)
def test_bad_counts_keep_the_ties_on_both_sides(epsilon, size, pattern):
    # the pattern marks which of the four vertices past W are bad
    g, w = tie_graph(epsilon, size)
    rows = gc.pack_rows(g.adj, g.n)
    want = gc.mask_of(v for v in range(g.n)
                      if (g.adj[v] & w).bit_count() < epsilon * size
                      or (g.comp_row(v) & w).bit_count() < epsilon * size)
    want_sparse = gc.mask_of(v for v in range(g.n)
                             if (g.adj[v] & w).bit_count() < epsilon * size)
    assert want >> size == pattern
    sparse, dense = sa._bad_sides(rows, w, epsilon)
    assert (sparse, dense) == (want_sparse, want & ~want_sparse)
    assert sparse | dense == want and not sparse & dense
    assert (sparse >> size, dense >> size) == (pattern & 0b11, pattern & 0b1100)
    assert sa._bad_counts(rows, [w], epsilon).tolist() == [want.bit_count()]


@pytest.mark.parametrize("epsilon,size,pattern", TIE_CASES)
def test_the_prefix_screen_settles_exactly_the_vertices_at_or_above_both_ties(
        epsilon, size, pattern, monkeypatch):
    # 400 isolated vertices, bad on the sparse side, make the rows longer
    # than the screen's prefix, which holds W.  The screen settles exactly
    # the vertices whose counts reach t on both sides: size holds t
    # neighbors and size+2 t non-neighbors, at the tie; every other vertex
    # is bad, so open
    g, w = tie_graph(epsilon, size, pad=400)
    rows = gc.pack_rows(g.adj, g.n)
    assert size + 4 <= 64 * gc.prefix_words(epsilon * g.n, rows.shape[1]) < g.n
    opened = []
    real = sa._open_bad
    monkeypatch.setattr(sa, "OPEN_DENSE", 1)  # the popcount path for any open count
    monkeypatch.setattr(sa, "_open_bad", lambda *a: opened.append(a[4][:, 0].copy())
                        or real(*a))
    bad = g.n - 4 + bin(pattern).count("1")
    assert sa._bad_counts(rows, [w], epsilon).tolist() == [bad]
    assert bad_counts_product(rows, [w], epsilon).tolist() == [bad]
    settled = {size, size + 2} - {size + i for i in range(4) if pattern >> i & 1}
    assert set(np.flatnonzero(~opened[0]).tolist()) == settled


def test_a_witness_recount_that_disagrees_is_a_contract_violation(monkeypatch):
    g = gc.generate("gnp", n=40, p=0.05, seed=1)
    params = sa.AuditParams()
    assert sa.richness_audit(g, params).found
    real = sa._bad_sides

    def drop_a_bit(rows, wmask, epsilon):
        sparse, dense = real(rows, wmask, epsilon)
        return sparse & (sparse - 1), dense

    monkeypatch.setattr(sa, "_bad_sides", drop_a_bit)
    with pytest.raises(ContractViolation):
        sa.richness_audit(g, params)


def test_richness_audit_builds_no_n_by_n_matrix(monkeypatch):
    # an n x n float32 matrix at n = 2048 takes 16 MB; numpy reports its
    # buffers to tracemalloc, and the audit reads the adjacency in row
    # blocks.  The audit's own candidates take the prefix screen and a
    # popcount per open entry; sets in the upper half of the columns leave
    # every entry open and take the second product over the other columns
    n = 2048
    g = gc.generate("gnp", n=n, p=0.5, seed=0)
    params = sa.AuditParams()
    head = 64 * gc.prefix_words(params.epsilon * n, n // 64)
    assert head == 896
    rng = random.Random(0)
    high = [gc.mask_of(rng.sample(range(n // 2, n), 700)) for _ in range(params.sample_budget)]
    real = sa.neighbor_counts
    for family, widths in (("audit", {head}), ("high columns", {head, n - head})):
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            if family == "high columns":
                mp.setattr(sa, "_candidate_sets", lambda *args: iter(high))
            mp.setattr(sa, "neighbor_counts",
                       lambda rows, member: seen.append(member.shape[1]) or real(rows, member))
            tracemalloc.start()
            try:
                verdict = sa.richness_audit(g, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert verdict.budget_used == params.sample_budget, family
        assert peak < 8 * 2 ** 20, family
        assert set(seen) == widths, family


def planted_graph(n, seed, plant, frac):
    """G(n, 1/2) with a clique or an independent set planted on a random
    frac of the vertices (plant None: none)."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < 0.5, 1)
    adj |= adj.T
    if plant is not None:
        inside = rng.permutation(n)[:round(frac * n)]
        adj[np.ix_(inside, inside)] = plant == "clique"
    np.fill_diagonal(adj, False)
    return gc.from_edges(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(adj, 1)))])


@settings(max_examples=60)
@given(n=st.sampled_from((129, 200, 256, 300)),
       plant=st.sampled_from((None, "clique", "independent")), frac=st.floats(0.3, 0.4),
       epsilon=st.one_of(st.floats(0.01, 0.3), st.sampled_from((0.125, 0.25, 0.07, 0.05))),
       family=st.sampled_from(("audit", "high columns", "mixed", "integer ties")),
       dense=st.sampled_from((1, sa.OPEN_DENSE, 1 << 30)), seed=st.integers(0, 2 ** 32))
def test_screened_bad_counts_match_the_whole_row_product(n, plant, frac, epsilon, family,
                                                          dense, seed):
    # the prefix screen and either way of finishing its open entries (dense
    # 1: a popcount per open entry; 1 << 30: the product over the other
    # columns once any entry is open) against one product of whole rows:
    # on planted structure, on sets packed past the prefix, where the
    # screen settles nothing, and on sizes where eps*|W| is an integer
    g = planted_graph(n, seed, plant, frac)
    rows = gc.pack_rows(g.adj, n)
    rng = random.Random(seed)
    c = min(64 * gc.prefix_words(epsilon * n, rows.shape[1]), n)
    audit = list(sa._candidate_sets(g, 0.3, 64, seed))
    high = [gc.mask_of(rng.sample(range(c, n), rng.randrange(1, n - c + 1)))
            for _ in range(16)] if c < n else []
    ties = [gc.mask_of(rng.sample(range(n), size)) for size in rng.sample(
        [s for s in range(8, n + 1) if s % 8 == 0 or s % 20 == 0 or s % 100 == 0], 16)]
    block = {"audit": audit, "high columns": high, "mixed": audit[:24] + high + audit[24:],
             "integer ties": ties}[family]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sa, "OPEN_DENSE", dense)
        got = sa._bad_counts(rows, block, epsilon).tolist()
    assert got == bad_counts_product(rows, block, epsilon).tolist()
    assert got == [bad_count(rows, w, epsilon) for w in block]


@settings(max_examples=30)
@given(n=st.sampled_from((200, 256)), plant=st.sampled_from(("clique", "independent")),
       frac=st.floats(0.3, 0.4), epsilon=st.floats(0.05, 0.3), seed=st.integers(0, 2 ** 32))
def test_richness_audit_on_planted_structure_matches_the_candidate_loop(n, plant, frac,
                                                                        epsilon, seed):
    g = planted_graph(n, seed, plant, frac)
    params = sa.AuditParams(epsilon=epsilon, sample_budget=300, seed=seed % 1000)
    assert sa.richness_audit(g, params) == richness_audit_loop(g, params)


@settings(max_examples=120)
@given(n=st.sampled_from((0, 1, 2, 5, 16, 40, 65)),
       p=st.sampled_from((0.02, 0.3, 0.5, 0.7, 0.98)), graph_seed=st.integers(0, 2 ** 32),
       delta=st.floats(0.01, 0.5), budget=st.integers(1, 300), seed=st.integers(0, 999))
def test_candidate_sets_match_the_counting_generator(n, p, graph_seed, delta, budget, seed):
    # budgets from inside the first phase to deep in the random one, and
    # sparse or dense graphs whose first two phases are nearly empty
    g = audit_graph(n, p, graph_seed, None)
    got = list(sa._candidate_sets(g, delta, budget, seed))
    assert got == list(candidate_sets_loop(g, delta, budget, seed))
    assert len(got) == budget


def test_candidate_sets_sort_by_degree_only_once_the_budget_reaches_the_prefixes(monkeypatch):
    # on G(64, 1/2) every neighborhood and complement neighborhood is large
    # enough, so the first 128 candidates come from the first two phases
    g = gc.generate("gnp", n=64, p=0.5, seed=1)
    sorts = []
    monkeypatch.setattr(sa, "sorted", lambda *a, **k: sorts.append(1) or sorted(*a, **k),
                        raising=False)
    assert len(list(sa._candidate_sets(g, 0.3, 64, 0))) == 64
    assert sorts == []
    list(sa._candidate_sets(g, 0.3, 129, 0))
    assert sorts == [1]


# ── extraction loop ──────────────────────────────────────────────────────


@settings(max_examples=120)
@given(n=st.sampled_from((1, 7, 40, 65, 130)), p=st.sampled_from((0.05, 0.5, 0.95)),
       graph_seed=st.integers(0, 2 ** 32), epsilon=st.floats(0.01, 0.49),
       side=st.sampled_from(("sparse", "dense")), seed=st.integers(0, 2 ** 32),
       s_rate=st.sampled_from((0.02, 0.2, 0.6)))
def test_kept_band_matches_the_loop_per_side(n, p, graph_seed, epsilon, side, seed, s_rate):
    g = audit_graph(n, p, graph_seed, None)
    rng = random.Random(seed)
    smask = gc.mask_of(v for v in range(n) if rng.random() < s_rate) or 1
    rest = rng.getrandbits(n) & ~smask
    assert sa._kept(g, rest, smask, side, epsilon) == \
        extract_keep_loop(g, rest, smask, side, epsilon)


@settings(max_examples=120)
@given(n=st.sampled_from((1, 7, 40, 64, 65, 130)), p=st.sampled_from((0.05, 0.5, 0.95)),
       graph_seed=st.integers(0, 2 ** 32),
       epsilon=st.one_of(st.floats(0.01, 0.49), st.sampled_from((0.125, 0.25, 0.07))),
       seed=st.integers(0, 2 ** 32), w_rate=st.sampled_from((0.1, 0.5, 0.9)))
def test_bad_sides_match_the_extraction_loop(n, p, graph_seed, epsilon, seed, w_rate):
    # the loop rich_extract ran over Y splits it as _bad_sides does; over
    # every vertex it leaves out exactly the vertices that are not bad
    g = audit_graph(n, p, graph_seed, None)
    rng = random.Random(seed)
    w = gc.mask_of(v for v in range(n) if rng.random() < w_rate)
    sparse, dense = sa._bad_sides(gc.pack_rows(g.adj, n), w, epsilon)
    assert (sparse, dense) == extract_sides_loop(g, w, g.full_mask, epsilon)
    assert (sparse, dense) == extract_sides_loop(g, w, sparse | dense, epsilon)
    assert not sparse & dense


@pytest.mark.parametrize("n,p,seed", [(40, 0.05, 1), (16, 1.0, 0), (60, 0.9, 3)])
def test_rich_extract_takes_the_witness_sides_of_the_loop(n, p, seed):
    # every round's y_size and side follow from the verdict's split, which
    # the extraction loop reproduces on the audited graph
    g = gc.generate("gnp", n=n, p=p, seed=seed)
    params = sa.AuditParams(k_rounds=3, sample_budget=60)
    verdict = sa.richness_audit(g, params)
    assert verdict.found
    sparse, dense = extract_sides_loop(g, verdict.witness_w, verdict.witness_y, params.epsilon)
    assert (verdict.witness_sparse, verdict.witness_dense) == (sparse, dense)
    first = sa.rich_extract(g, params).trace[0]
    assert first.y_size == (sparse | dense).bit_count()
    assert first.side == ("sparse" if sparse.bit_count() >= dense.bit_count() else "dense")


def test_rich_extract_on_random_graph_keeps_everything():
    """A quasirandom graph yields no witness at delta=1/2, so the loop ends
    immediately; at delta=0.3 the n^delta ceiling is tiny and small random
    graphs legitimately produce witnesses."""
    g = gc.generate("gnp", n=40, p=0.5, seed=2)
    res = sa.rich_extract(g, sa.AuditParams(delta=0.5, sample_budget=120))
    assert res.status == "rich"
    assert res.u_mask == g.full_mask
    assert res.trace == ()
    assert res.graph is g


def test_rich_extract_trace_invariants_on_homogeneous_graph():
    """K_16 keeps violating richness; every round must shrink within bounds."""
    g = gc.generate("complete", n=16)
    params = sa.AuditParams(epsilon=0.2, delta=0.3, k_rounds=5, sample_budget=60)
    res = sa.rich_extract(g, params)
    assert res.status in ("rounds_exhausted", "failed_shrink")
    size = 16
    for idx, r in enumerate(res.trace):
        assert r.size_before == size
        assert r.side in ("sparse", "dense")
        assert 1 <= r.s_size <= r.y_size
        assert r.size_after < r.size_before
        last = idx == len(res.trace) - 1
        if r.size_after < params.delta / 4 * r.size_before:
            # only the terminal round may break the retention floor, and
            # doing so is exactly what the failed_shrink status reports
            assert last and res.status == "failed_shrink"
        size = r.size_after
    assert res.u_mask.bit_count() == size


def test_rich_extract_deterministic():
    g = gc.generate("complete", n=14)
    params = sa.AuditParams(epsilon=0.2, delta=0.3, seed=5, sample_budget=50)
    assert sa.rich_extract(g, params) == sa.rich_extract(g, params)
