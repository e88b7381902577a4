"""Bit-packed graph primitives against brute-force recounts."""
import itertools
import math
import random
import tracemalloc
from datetime import timedelta
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ramspect import graph_core as gc
from ramspect.errors import (CapacityError, ContractViolation, GraphParseError,
                             ParameterError)
from reference import (bernoulli_loop, complement, gnp_loop, has_edge, homogeneous_number,
                       is_c_ramsey)


def brute_count_edges(g, avs, bvs=None):
    if bvs is None:
        return sum(1 for u, v in itertools.combinations(sorted(avs), 2)
                   if has_edge(g, u, v))
    return sum(1 for u in avs for v in bvs if has_edge(g, u, v))


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return gc.from_edges(n, edges)


# ── construction and basic counts ────────────────────────────────────────


def test_from_edges_symmetry_and_counts():
    g = gc.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert g.degrees() == [1, 2, 2, 1]
    assert has_edge(g, 0, 1) and has_edge(g, 1, 0)
    assert not has_edge(g, 0, 2)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ParameterError):
        gc.from_edges(3, [(0, 0)])
    with pytest.raises(ParameterError):
        gc.from_edges(3, [(0, 5)])


def test_complement_involution():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 12))
        gg = complement(complement(g))
        assert gg.adj == g.adj
        total = g.n * (g.n - 1) // 2
        assert g.edge_count() + complement(g).edge_count() == total


def test_comp_row_excludes_self():
    g = gc.generate("gnp", n=9, p=0.4, seed=3)
    for v in range(g.n):
        row = g.comp_row(v)
        assert not (row >> v) & 1
        assert row == (g.full_mask & ~g.adj[v]) & ~(1 << v)


def test_induced_subgraph_matches_brute_force():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(2, 13)
        g = random_graph(rng, n)
        keep = [v for v in range(n) if rng.random() < 0.6]
        sub, vmap = gc.induced_subgraph(g, gc.mask_of(keep))
        assert sub.n == len(keep)
        assert sorted(vmap) == sorted(keep)
        for i, j in itertools.combinations(range(sub.n), 2):
            assert has_edge(sub, i, j) == has_edge(g, vmap[i], vmap[j])


def test_count_edges_within_and_across():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(2, 14)
        g = random_graph(rng, n)
        a = [v for v in range(n) if rng.random() < 0.5]
        b = [v for v in range(n) if v not in a and rng.random() < 0.5]
        assert gc.count_edges(g, gc.mask_of(a)) == brute_count_edges(g, a)
        assert gc.count_edges(g, gc.mask_of(a), gc.mask_of(b)) == \
            brute_count_edges(g, a, b)


MANY_N = (1, 63, 64, 65, 129)  # one vertex, and rows just before, at and after a word edge


@settings(max_examples=120)
@given(n=st.sampled_from(MANY_N), seed=st.integers(0, 2 ** 32),
       kinds=st.lists(st.sampled_from(("empty", "single", "full", "random", "repeat")),
                      max_size=8))
def test_count_edges_many_equals_count_edges_per_mask(n, seed, kinds):
    # empty, single-vertex, overlapping and repeated masks, and no mask at all
    rng = random.Random(seed)
    g = gc.generate("gnp", n=n, p=rng.choice((0.1, 0.5, 0.9)), seed=seed)
    masks = []
    for kind in kinds:
        if kind == "repeat" and masks:
            masks.append(rng.choice(masks))
        elif kind == "single":
            masks.append(1 << rng.randrange(n))
        elif kind == "full":
            masks.append(g.full_mask)
        elif kind == "random":
            masks.append(rng.getrandbits(n))
        else:
            masks.append(0)
    got = gc.count_edges_many(g, masks)
    assert got == [gc.count_edges(g, m) for m in masks]
    assert all(type(e) is int for e in got)


def test_check_disjoint_units_names_the_first_overlap():
    a, b, c = gc.Unit.single(1), gc.Unit.pair(2, 5), gc.Unit.pair(0, 3)
    gc.check_disjoint_units([a, b, c], 0)
    gc.check_disjoint_units([a, b], gc.mask_of([0, 4]))
    gc.check_disjoint_units([], 0)
    with pytest.raises(ContractViolation, match=r"\(5,\)"):
        gc.check_disjoint_units([b, gc.Unit.single(5)], 0)
    with pytest.raises(ContractViolation, match=r"\(0, 3\)"):
        gc.check_disjoint_units([a, c], gc.mask_of([3]))


def test_mask_helpers_roundtrip():
    vs = [0, 3, 5, 11]
    assert sorted(gc.iter_bits(gc.mask_of(vs))) == vs


# ── units ────────────────────────────────────────────────────────────────


def test_unit_basics():
    s = gc.Unit.single(4)
    p = gc.Unit.pair(7, 2)
    assert not s.is_pair and p.is_pair
    assert p.vertices == (2, 7)  # stored sorted
    assert s.mask() == 1 << 4
    assert p.mask() == (1 << 2) | (1 << 7)
    with pytest.raises(ParameterError):
        gc.Unit.pair(3, 3)


def test_unit_degree_counts_multiset():
    """Pair degree = edges from both endpoints into the set, multiplicity kept."""
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randrange(3, 12)
        g = random_graph(rng, n)
        umask = gc.mask_of([v for v in range(n) if rng.random() < 0.5])
        a, b = rng.sample(range(n), 2)
        x = gc.Unit.pair(a, b)
        want = sum(1 for v in gc.iter_bits(umask) if has_edge(g, a, v)) + \
            sum(1 for v in gc.iter_bits(umask) if has_edge(g, b, v))
        assert gc.unit_degree(g, x, umask) == want
        v = rng.randrange(n)
        want_s = sum(1 for u in gc.iter_bits(umask) if has_edge(g, v, u))
        assert gc.unit_degree(g, gc.Unit.single(v), umask) == want_s


def brute_symdiff(g, x, y, uvs):
    """Summed multiset symmetric-difference gap, restricted to uvs."""
    def mult(unit, v):
        return sum(1 for w in unit.vertices if has_edge(g, w, v))
    return sum(abs(mult(x, v) - mult(y, v)) for v in uvs)


def test_multiset_gap_all_multiplicity_pairs():
    # vertex 0 carries multiplicity a in x and b in y, as unit_rows encodes it
    def rows(mult):
        return (1 if mult == 1 else 0), (1 if mult == 2 else 0)
    for a, b in itertools.product((0, 1, 2), repeat=2):
        assert gc.multiset_gap(*rows(a), *rows(b)) == abs(a - b), (a, b)


def test_symdiff_size_matches_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randrange(4, 12)
        g = random_graph(rng, n)
        uvs = [v for v in range(n) if rng.random() < 0.7]
        mk = lambda: (gc.Unit.single(rng.randrange(n)) if rng.random() < 0.5
                      else gc.Unit.pair(*rng.sample(range(n), 2)))
        x, y = mk(), mk()
        got = gc.symdiff_size(g, x, y, gc.mask_of(uvs))
        assert got == brute_symdiff(g, x, y, uvs)
        assert gc.symdiff_size(g, x, y) == brute_symdiff(g, x, y, range(n))


def test_symdiff_close_complement_single_pair():
    # |N(x1) ^ comp-neighborhood(x2)| via the unit helpers, checked by hand:
    # x2's rows are taken in the complement graph
    g = gc.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    x1, x2 = gc.Unit.single(0), gc.Unit.single(3)
    got = gc.multiset_gap(*gc.unit_rows(g, x1),
                          *gc.unit_rows(complement(g), x2))
    # N(0) = {1}; complement row of 3 = {0,1}; difference = {0}
    assert got == 1


WORD_N = (63, 64, 65, 127, 129)  # rows that end just before, at and after a word edge


@settings(max_examples=60)
@given(n=st.sampled_from(WORD_N), seed=st.integers(0, 2 ** 32),
       kinds=st.lists(st.booleans(), min_size=1, max_size=10),
       umask_p=st.sampled_from((None, 0.0, 0.3, 0.7, 1.0)))
def test_pair_gaps_equals_symdiff_size_on_every_pair(n, seed, kinds, umask_p):
    # kinds[i] makes unit i a pair; all-False lists take the singles-only path
    rng = random.Random(seed)
    g = gc.generate("gnp", n=n, p=rng.choice((0.1, 0.5, 0.9)), seed=seed)
    units = [gc.Unit.pair(*rng.sample(range(n), 2)) if pair else
             gc.Unit.single(rng.randrange(n)) for pair in kinds]
    umask = None if umask_p is None else \
        gc.mask_of(v for v in range(n) if rng.random() < umask_p)
    gaps = gc.pair_gaps(g, units, umask)
    assert gaps.dtype == np.float32 and gaps.shape == (len(units),) * 2
    want = [[gc.symdiff_size(g, x, y, umask) for y in units] for x in units]
    assert gaps.tolist() == want


GAP_N = (63, 64, 65, 127, 128, 129, 130, 200)


def gap_graph(n, p, seed, planted):
    """G(n, p), or with planted=True G(n, p) XOR the complete bipartite graph
    between the even and the odd vertices: an even and an odd vertex then
    have nearly complementary neighborhoods, so their gaps are small and no
    prefix of their rows can show the gap reaches a threshold."""
    g = gc.generate("gnp", n=n, p=p, seed=seed)
    if not planted:
        return g
    evens = gc.mask_of(range(0, n, 2))
    odds = g.full_mask & ~evens
    return gc.Graph(n, [row ^ (odds if v % 2 == 0 else evens) for v, row in enumerate(g.adj)],
                    _checked=True)


def comp_row_rule(g, a, b, thr):
    return [(g.adj[x] ^ g.comp_row(y)).bit_count() >= thr for x, y in zip(a, b)]


@settings(max_examples=120)
@given(n=st.sampled_from(GAP_N), p=st.sampled_from((0.05, 0.5, 0.95)),
       planted=st.booleans(), seed=st.integers(0, 2 ** 32),
       theta=st.floats(0.001, 0.999))
def test_complement_gap_at_least_matches_the_comp_row_rule(n, p, planted, seed, theta):
    # theta spans prefixes of one word up to every word, the padded last one
    # included (n = 130 at theta = 0.3 screens all three words, 192 > n bits)
    g = gap_graph(n, p, seed, planted)
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, 300), rng.integers(0, n, 300)  # a = b and a > b too
    rows = gc.pack_rows(g.adj, n)
    got = gc.complement_gap_at_least(rows, a, b, n, theta * n)
    assert got.dtype == bool
    assert got.tolist() == comp_row_rule(g, a.tolist(), b.tolist(), theta * n)


@pytest.mark.parametrize("n,theta,suffix_words", [(130, 0.3, 0), (200, 0.3, 1),
                                                  (129, 0.5, 0), (2000, 0.1, 24)])
def test_complement_gap_screen_and_fallback_both_decide_pairs(
        monkeypatch, n, theta, suffix_words):
    # the first popcount of a chunk is the prefix screen over every pair; a
    # second one, over the suffix words, is the exact fallback for the pairs
    # whose lower bound misses thr.  Planted near-complements need it.
    g = gap_graph(n, 0.05, n, planted=True)
    a, b = np.triu_indices(n, 1)
    a, b = a[:gc.GAP_CHUNK], b[:gc.GAP_CHUNK]
    calls = []
    real = gc._xor_popcount

    def spy(words, x, y):
        calls.append((words.shape[1], len(x)))
        return real(words, x, y)

    monkeypatch.setattr(gc, "_xor_popcount", spy)
    got = gc.complement_gap_at_least(gc.pack_rows(g.adj, n), a, b, n, theta * n)
    assert got.tolist() == comp_row_rule(g, a.tolist(), b.tolist(), theta * n)
    (head, screened), (tail, fallback) = calls
    assert head + tail == -(-n // 64) and tail == suffix_words
    assert screened == len(a) and 0 < fallback < len(a)
    assert 0 < got.sum() < len(a)


def test_complement_gap_at_least_on_no_pairs_and_tiny_graphs():
    for n in (0, 1, 2):
        g = gc.generate("complete", n=n)
        rows = gc.pack_rows(g.adj, n)
        a = np.arange(n)
        assert gc.complement_gap_at_least(rows, a, a, n, 0.5).tolist() == [n >= 2] * n
    rows = gc.pack_rows(gc.generate("empty", n=70).adj, 70)
    none = np.zeros(0, dtype=np.int64)
    assert gc.complement_gap_at_least(rows, none, none, 70, 3.0).shape == (0,)


def test_pair_gaps_refuses_graphs_beyond_float32_exactness():
    # raised before any row is read, so a stand-in with no rows will do
    big = SimpleNamespace(n=gc.GRAM_EXACT_CAP + 1, adj=())
    with pytest.raises(CapacityError):
        gc.pair_gaps(big, [gc.Unit.single(0)])


def test_count_edges_many_refuses_graphs_beyond_float32_exactness(monkeypatch):
    # the cap is lowered so that a small graph crosses it
    g = gc.generate("gnp", n=40, p=0.5, seed=1)
    monkeypatch.setattr(gc, "GRAM_EXACT_CAP", 39)
    with pytest.raises(CapacityError):
        gc.count_edges_many(g, [g.full_mask])
    monkeypatch.setattr(gc, "GRAM_EXACT_CAP", 40)
    assert gc.count_edges_many(g, [g.full_mask]) == [g.edge_count()]


# ── generators ───────────────────────────────────────────────────────────


def test_generate_complete_and_empty():
    k = gc.generate("complete", n=6)
    e = gc.generate("empty", n=6)
    assert k.edge_count() == 15 and e.edge_count() == 0


def test_generate_gnp_is_seed_deterministic():
    a = gc.generate("gnp", n=30, p=0.5, seed=9)
    b = gc.generate("gnp", n=30, p=0.5, seed=9)
    c = gc.generate("gnp", n=30, p=0.5, seed=10)
    assert a.adj == b.adj
    assert a.adj != c.adj


def test_generate_gnp_frozen_sample():
    g = gc.generate("gnp", n=10, p=0.5, seed=42)
    assert g.edge_count() == 21
    assert g.degrees() == [5, 5, 5, 5, 2, 3, 3, 3, 4, 7]


BOUNDARY_N = (0, 1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129)  # byte and word edges
EDGE_P = (0.0, 5e-324, 0.5, 1 - 2 ** -53, 1.0)


def test_property_tests_replay_fixed_examples():
    # the profile tests/conftest.py loads for every property test
    s = settings()
    assert s.derandomize and s.database is None
    assert s.deadline == timedelta(milliseconds=2000)


@settings(max_examples=150)
@given(n=st.sampled_from(BOUNDARY_N) | st.integers(0, 200),
       p=st.sampled_from(EDGE_P) | st.floats(0.0, 1.0),
       seed=st.sampled_from((-1, -2 ** 70, 2 ** 64, 2 ** 64 + 1, 2 ** 200))
       | st.integers(-2 ** 80, 2 ** 80))
def test_gnp_is_identical_to_the_pair_by_pair_loop(n, p, seed):
    assert gc.generate("gnp", n=n, p=p, seed=seed).adj == gnp_loop(n, p, seed).adj


@settings(max_examples=200)
@example(k=0, p=0.5, seed=0)
@given(k=st.integers(0, 300),
       p=st.sampled_from((0.0, 1.0, 0.5)) | st.floats(0.0, 1.0),
       seed=st.integers(-2 ** 80, 2 ** 80))
def test_bernoulli_matches_one_random_call_per_draw(k, p, seed):
    # the same bools, and the generator left at the same point
    fast, slow = random.Random(seed), random.Random(seed)
    got = gc.bernoulli(fast, k, p)
    assert got.dtype == bool and got.tolist() == bernoulli_loop(slow, k, p)
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("seed", range(6))
def test_gnp_threshold_is_exact_at_the_draw(seed):
    # the one pair of G(2, p) is an edge iff its random() draw r is below p
    r = random.Random(seed).random()
    assert gc.generate("gnp", n=2, p=r, seed=seed).edge_count() == 0
    assert gc.generate("gnp", n=2, p=math.nextafter(r, 2.0), seed=seed).edge_count() == 1


@pytest.mark.parametrize("chunk", [1, 1000, 2000])
@pytest.mark.parametrize("n", [9, 21, 65, 130])
def test_gnp_row_blocks_match_the_loop(monkeypatch, chunk, n):
    # blocks of 8 to 104 rows: each block draws on where the last one stopped
    # and packs its transpose into its own byte columns of every row
    monkeypatch.setattr(gc, "GNP_CHUNK", chunk)
    assert gc.generate("gnp", n=n, p=0.4, seed=n).adj == gnp_loop(n, 0.4, n).adj


def test_gnp_temporaries_stay_below_an_n_by_n_bool_array(monkeypatch):
    n = 2048
    monkeypatch.setattr(gc, "GNP_CHUNK", 1 << 12)
    tracemalloc.start()
    try:
        gc.generate("gnp", n=n, p=0.5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the packed matrix and the output rows take n*n/8 bytes each
    assert peak < n * n // 2


def test_generate_paley_13():
    g = gc.generate("paley", q=13)
    assert g.edge_count() == 39
    assert set(g.degrees()) == {6}
    # quadratic residues mod 13
    assert sorted(gc.iter_bits(g.adj[0])) == [1, 3, 4, 9, 10, 12]
    # self-complementary: isomorphic degree/edge profile
    assert complement(g).edge_count() == 39


def test_generate_paley_rejects_bad_modulus():
    with pytest.raises(ParameterError):
        gc.generate("paley", q=15)
    with pytest.raises(ParameterError):
        gc.generate("paley", q=7)  # 7 % 4 == 3


def test_generate_rejects_unknown_model():
    with pytest.raises(ParameterError):
        gc.generate("smallworld", n=5)


# ── serialization ────────────────────────────────────────────────────────


def test_dump_load_roundtrip():
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(1, 15))
        assert gc.load_graph(gc.dump_graph(g)).adj == g.adj


def test_load_graph_ignores_comments_and_blanks():
    g = gc.load_graph("# hi\n\nn 3\n0 1\n# mid\n1 2\n")
    assert g.edge_count() == 2


@pytest.mark.parametrize("text", [
    "", "0 1\n", "n x\n", "n 3\n0 0\n", "n 3\n0 7\n", "n 3\n0\n",
])
def test_load_graph_rejects_malformed(text):
    with pytest.raises(GraphParseError):
        gc.load_graph(text)


# ── homogeneous sets ─────────────────────────────────────────────────────


def test_homogeneous_number_frozen():
    assert homogeneous_number(gc.generate("paley", q=13)) == (3, 3)
    assert homogeneous_number(gc.generate("complete", n=8)) == (8, 1)
    assert homogeneous_number(gc.generate("empty", n=8)) == (1, 8)
    c5 = gc.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert homogeneous_number(c5) == (2, 2)


def test_is_c_ramsey_on_paley():
    p13 = gc.generate("paley", q=13)
    # hom = 3 <= 10 * log2(13)
    assert is_c_ramsey(p13, 10.0)
    assert not is_c_ramsey(gc.generate("complete", n=32), 1.0)
