"""Exact spectrum walks against naive enumeration and closed forms."""
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ramspect import graph_core as gc
from ramspect import spectrum_oracle as so
from ramspect.errors import CapacityError, ParameterError
from reference import (complement, complete_graph_spectrum, from_edges, random_graph,
                       seen_table_eager)


def brute_phi(g):
    sizes = set()
    for r in range(g.n + 1):
        for vs in itertools.combinations(range(g.n), r):
            sizes.add(gc.count_edges(g, gc.mask_of(vs)))
    return tuple(sorted(sizes))


# ── frozen small spectra ─────────────────────────────────────────────────


def test_phi_k4_frozen():
    assert so.phi_exact(gc.generate("complete", n=4)).sizes == (0, 1, 3, 6)


def test_phi_c5_frozen():
    c5 = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert so.phi_exact(c5).sizes == (0, 1, 2, 3, 5)


def test_phi_p4_frozen():
    p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert so.phi_exact(p4).sizes == (0, 1, 2, 3)


def test_phi_petersen_frozen():
    pet = from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])
    assert so.phi_exact(pet).sizes == \
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15)


def test_psi_p4_frozen():
    p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert so.psi_exact(p4) == \
        ((0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (4, 3))


def test_complete_graph_spectrum_closed_form():
    for n in range(17):
        want = tuple(sorted({k * (k - 1) // 2 for k in range(n + 1)}))
        assert complete_graph_spectrum(n) == want
        if n <= 14:
            got = so.phi_exact(gc.generate("complete", n=n)).sizes
            assert got == want


# ── oracle equivalence batteries ─────────────────────────────────────────


def test_phi_exact_equals_naive_battery():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randrange(1, 11)
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        assert so.phi_exact(g).sizes == so.phi_naive(g).sizes


def test_phi_exact_equals_brute_force_small():
    rng = random.Random(103)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(1, 9))
        assert so.phi_exact(g).sizes == brute_phi(g)


def test_psi_exact_equals_naive_battery():
    rng = random.Random(107)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 10))
        assert so.psi_exact(g) == so.psi_naive(g)


def test_phi_always_contains_zero_and_total():
    rng = random.Random(109)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 12))
        sizes = so.phi_exact(g).sizes
        assert sizes[0] == 0
        assert sizes[-1] == g.edge_count()


def test_psi_cardinality_is_complement_invariant():
    # (k, s) in Psi(G) iff (k, C(k,2)-s) in Psi(complement)
    rng = random.Random(113)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 12))
        assert len(so.psi_exact(g)) == len(so.psi_exact(complement(g)))


def test_phi_monotone_under_vertex_removal():
    """Dropping a vertex can only lose sizes."""
    rng = random.Random(127)
    for _ in range(20):
        n = rng.randrange(2, 11)
        g = random_graph(rng, n)
        sub, _ = gc.induced_subgraph(g, g.full_mask & ~(1 << rng.randrange(n)))
        assert set(so.phi_exact(sub).sizes) <= set(so.phi_exact(g).sizes)


# ── block split ──────────────────────────────────────────────────────────


def test_tiny_and_closed_form_graphs_match_naive():
    # n <= 3 leaves the high block empty; n = 4, 5 give it one vertex
    rng = random.Random(139)
    graphs = [random_graph(rng, n) for n in (0, 1, 2, 3) for _ in range(4)]
    graphs += [gc.generate(model, n=n) for model in ("complete", "empty")
               for n in range(9)]
    for g in graphs:
        assert so.phi_exact(g).sizes == so.phi_naive(g).sizes
        assert so.psi_exact(g) == so.psi_naive(g)


@st.composite
def small_graphs(draw):
    """Any graph on at most 14 vertices; a third of the draws have n <= 3,
    where the high block of the walk is empty."""
    n = draw(st.one_of(st.integers(0, 3), st.integers(4, 14), st.integers(4, 14)))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [pr for i, pr in enumerate(pairs) if bits >> i & 1])


@settings(max_examples=60)
@given(g=small_graphs())
def test_exact_oracles_match_naive_on_any_small_graph(g):
    assert so.phi_exact(g).sizes == so.phi_naive(g).sizes
    assert so.psi_exact(g) == so.psi_naive(g)


@st.composite
def walk_graphs(draw):
    """A graph on 15 to 22 vertices, relabelled at random, from families on
    which the Phi walk skips from no step (complete) to nearly every step
    (sparse or dense G(n, p), empty)."""
    n = draw(st.integers(15, 22))
    family = draw(st.sampled_from(["gnp", "cliques", "bipartite", "complete", "empty"]))
    if family == "gnp":
        g = gc.generate("gnp", n=n, p=draw(st.sampled_from([0.05, 0.5, 0.95])),
                        seed=draw(st.integers(0, 2 ** 32 - 1)))
        edges = [(u, v) for u in range(n) for v in gc.iter_bits(g.adj[u]) if u < v]
    elif family == "cliques":
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=6)))
        edges = [pr for lo, hi in zip([0] + cuts, cuts + [n])
                 for pr in itertools.combinations(range(lo, hi), 2)]
    elif family == "bipartite":
        a = draw(st.integers(1, n - 1))
        edges = [(u, v) for u in range(a) for v in range(a, n)]
    elif family == "complete":
        edges = list(itertools.combinations(range(n), 2))
    else:
        edges = []
    perm = draw(st.permutations(range(n)))
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=40)
@given(g=walk_graphs())
# the low block (vertices 0..8) is isolated and the high block a clique, so
# each step's range is the single index e(T)
@example(g=from_edges(16, itertools.combinations(range(9, 16), 2)))
def test_seen_table_matches_the_eager_walk(g):
    for stride in (0, g.n * (g.n - 1) // 2 + 1):
        assert np.array_equal(so._seen_table(g, stride), seen_table_eager(g, stride))


def test_n24_phi_is_psi_projection_above_naive_cap():
    g = gc.generate("gnp", n=24, p=0.5, seed=24)
    assert g.n > so.PHI_NAIVE_CAP
    phi = so.phi_exact(g).sizes
    psi = so.psi_exact(g)
    assert phi == tuple(sorted({s for _, s in psi}))
    assert phi[-1] == g.edge_count()
    assert len(psi) == len(so.psi_exact(complement(g)))


def test_complete_graph_at_cap():
    n = so.PHI_EXACT_CAP
    assert so.phi_exact(gc.generate("complete", n=n)).sizes == \
        complete_graph_spectrum(n)


def test_kernel_memory_at_cap_is_bounded():
    # the high vertices' count vectors are intp, acc's dtype, for a
    # same-dtype add; at the cap they are 14 vectors of 2^16 entries
    g = gc.generate("empty", n=so.PHI_EXACT_CAP)
    tracemalloc.start()
    try:
        assert so.phi_exact(g).sizes == (0,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


# ── caps ─────────────────────────────────────────────────────────────────


def test_caps_raise_capacity_error():
    g = gc.generate("empty", n=so.PHI_EXACT_CAP + 1)
    with pytest.raises(CapacityError):
        so.phi_exact(g)
    with pytest.raises(CapacityError):
        so.psi_exact(g)
    with pytest.raises(CapacityError):
        so.phi_naive(gc.generate("empty", n=so.PHI_NAIVE_CAP + 1))


def test_size_spectrum_requires_zero():
    with pytest.raises(ParameterError):
        so.SizeSpectrum(3, (1, 2, 3))
    with pytest.raises(ParameterError):
        so.SizeSpectrum(3, (0, 2, 2))
    with pytest.raises(ParameterError):
        so.SizeSpectrum(3, (0, 4))
