"""Test-only references: exact homogeneous numbers, graph complement, edge
lookup, the K_n closed form, the spectrum oracle's block walk marking at
every step, pmf point lookup, Bernoulli draws one
random() call at a time, the pair-by-pair G(n, p) loop, the all-pairs
degree-sum bucket, pair-by-pair conflict greedy, event-(4) scan and S/T/X
split of the scaffold construction, the richness audit one candidate at a
time, the audit's two pair counts as separate passes, and the exposure's
adjusted degrees recounted per unit and cell.

Nothing in the package or the benchmark calls these; the tests use them to
check the package's results against independent computations.
"""
from __future__ import annotations

import math
import random

import numpy as np

from ramspect import structure_audit as sa
from ramspect.errors import CapacityError, ParameterError, RamspectError
from ramspect.graph_core import (Graph, complement_gap_at_least, count_edges, iter_bits,
                                 pack_rows, popcount, symdiff_size, unit_degree)

HOMOGENEOUS_CAP = 64  # exact clique/independence search refuses larger graphs


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool((g.adj[u] >> v) & 1)


def complement(g: Graph) -> Graph:
    return Graph(g.n, (g.comp_row(v) for v in range(g.n)), _checked=True)


def complete_graph_spectrum(n: int) -> tuple:
    """Closed form for K_n: exactly the triangular numbers C(k,2), k <= n."""
    return tuple(sorted({k * (k - 1) // 2 for k in range(n + 1)}))


def seen_table_eager(g: Graph, stride: int) -> np.ndarray:
    """spectrum_oracle._seen_table without its skip: the Gray walk over the
    high block moves the index vector and marks it at every step."""
    n = g.n
    b = min(n, (n + 1) // 2 + 1)
    low = np.arange(1 << b)
    acc = np.zeros(1 << b, dtype=np.intp)
    for j in range(b):  # e(S + j) = e(S) + |N(j) & S| for S below j
        half = 1 << j
        nbrs = g.adj[j] & (half - 1)
        acc[half:2 * half] = acc[:half] + np.bitwise_count(low[:half] & nbrs)
    acc += stride * np.bitwise_count(low).astype(np.intp)
    counts = [np.bitwise_count(low & (row & ((1 << b) - 1))).astype(np.int16)
              for row in g.adj[b:]]
    seen = np.zeros(n * stride + n * (n - 1) // 2 + 1, dtype=np.bool_)
    seen[acc] = True
    high = [row >> b for row in g.adj[b:]]
    cur = e = k = 0
    steps = 1
    for s in range(1, 1 << (n - b)):
        i = (s & -s).bit_length() - 1
        cur ^= 1 << i
        d = (high[i] & cur).bit_count()
        if cur >> i & 1:
            acc += counts[i]
            e += d
            k += 1
        else:
            acc -= counts[i]
            e -= d
            k -= 1
        seen[k * stride + e:][acc] = True
        steps += 1
    if steps << b != 1 << n:
        raise RamspectError(f"block walk covered {steps}*2^{b} subsets, expected 2^{n}")
    return seen


def prob(pmf, x: int) -> float:
    """Pr(X = x) under an LOPmf; zero outside its support."""
    i = x - pmf.support_min
    if 0 <= i < len(pmf.masses):
        return float(pmf.masses[i])
    return 0.0


def bernoulli_loop(rng: random.Random, k: int, p: float) -> list[bool]:
    """k draws of ``rng.random() < p``, one call each."""
    return [rng.random() < p for _ in range(k)]


def gnp_loop(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with one ``random()`` draw per pair, in row-major pair order."""
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, rows, _checked=True)


# ── scaffold construction ────────────────────────────────────────────────


def bucket_by_enumeration(g: Graph, w: int):
    """(d_prime, pairs) of the fullest width-w degree-sum bucket: every pair
    a < b listed by np.triu_indices, bucketed by (deg a + deg b) // w, the
    lowest bucket winning ties."""
    degs = np.array(g.degrees(), dtype=np.int64)
    ii, jj = np.triu_indices(g.n, 1)
    buckets = (degs[ii] + degs[jj]) // w
    j = int(np.argmax(np.bincount(buckets)))
    sel = buckets == j
    return j * w + w // 2, np.stack([ii[sel], jj[sel]], axis=1)


def independent_units_greedy(g: Graph, units, theta_conflict: float):
    """(kept units, conflict edge count): the conflict graph built from one
    symdiff_size call per unit pair, then repeated picks of the live unit of
    least live degree (lowest index on ties), checked against the Turan
    bound |A| >= |L|/(1 + average degree)."""
    k = len(units)
    thr = theta_conflict * g.n
    fadj = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if symdiff_size(g, units[i], units[j]) < thr:
                fadj[i] |= 1 << j
                fadj[j] |= 1 << i
    alive = (1 << k) - 1
    chosen = []
    while alive:
        best_i, best_d = -1, k + 1
        for i in iter_bits(alive):
            di = (fadj[i] & alive).bit_count()
            if di < best_d:
                best_d, best_i = di, i
        chosen.append(best_i)
        alive &= ~((1 << best_i) | fadj[best_i])
    edges = sum(r.bit_count() for r in fadj) // 2
    assert len(chosen) >= k / (1 + 2 * edges / k), "greedy below the Turan bound"
    return tuple(units[i] for i in sorted(chosen)), edges


def event4_scan(g: Graph, units, umask: int, sym_floor: float):
    """(ok4, min_pair_symdiff) of one sample_U0 attempt: visit the unit
    pairs in row-major order, track the least symdiff inside umask and stop
    at the first pair below sym_floor."""
    min_sym = None
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            s = symdiff_size(g, units[i], units[j], umask=umask)
            if min_sym is None or s < min_sym:
                min_sym = s
            if s < sym_floor:
                return False, min_sym
    return True, min_sym


def select_stx_split(g: Graph, u0: int, q, r, p: float, d_doubleprime: int):
    """(S, T, X, d, gap_floor, |B|) of select_STX, or None where it refuses:
    the units of Q that are also in R, halved in order into Y and X; B the
    first Y unit of each degree into U0, by rising degree; S and T the lower
    and upper thirds of B."""
    both = [x for x in q if x in r]
    if len(both) < 6:
        return None
    y, x = both[:len(both) // 2], both[len(both) // 2:]
    first = {}
    for u in y:
        first.setdefault(sum((g.adj[v] & u0).bit_count() for v in u.vertices), u)
    if len(first) < 3:
        return None
    b = [first[dd] for dd in sorted(first)]
    third = len(b) // 3
    return (tuple(b[:third]), tuple(b[len(b) - third:]), tuple(x),
            p * d_doubleprime, -(-len(b) // 3), len(b))


# ── double exposure ──────────────────────────────────────────────────────


def adjusted_values(g: Graph, x_units, ukimask: int):
    """(x, adjusted degree) for each X unit in one cell: the unit's degree
    into U u Z_{k,i} plus its internal edge, both counted from scratch."""
    return [(x, unit_degree(g, x, ukimask) + count_edges(g, x.mask())) for x in x_units]


# ── richness ─────────────────────────────────────────────────────────────


def richness_audit_loop(g: Graph, params, exhaustive: bool = False):
    """RichnessVerdict of the candidate-at-a-time audit: one _bad_vertices
    popcount per candidate W, in the order richness_audit draws them,
    stopping at the first W with more than n^delta bad vertices."""
    n = g.n
    if exhaustive:
        sa.check_exhaustive_cap(n)
        wmin = math.ceil(params.delta * n)
        candidates = (w for w in range(1 << n) if w.bit_count() >= wmin)
    else:
        candidates = sa._candidate_sets(g, params.delta, params.sample_budget, params.seed)
    limit = n ** params.delta
    rows = pack_rows(g.adj, n)
    tried = 0
    for w in candidates:
        tried += 1
        bad = sa._bad_vertices(rows, w, params.epsilon)
        if bad.bit_count() > limit:
            return sa.RichnessVerdict("witness_found", w, bad, tried, exhaustive)
    return sa.RichnessVerdict("no_witness_in_budget", 0, 0, tried, exhaustive)


# ── pair audits ──────────────────────────────────────────────────────────


def diversity_profile(g: Graph, c_div: float) -> list[int]:
    """For each vertex, the number of others with symdiff(N(x), N(y)) < c_div*n:
    one packed row against the later rows per vertex."""
    thr = c_div * g.n
    rows = pack_rows(g.adj, g.n)
    counts = np.zeros(g.n, dtype=np.int64)
    for x in range(g.n - 1):
        close = popcount(rows[x] ^ rows[x + 1:]) < thr
        counts[x] += close.sum()
        counts[x + 1:] += close
    return counts.tolist()


def close_complement_pair_count(g: Graph, threshold_fraction: float) -> int:
    """Pairs {x1,x2} with |N(x1) symdiff N_bar(x2)| < threshold_fraction * n:
    the pairs of each block of rows handed to complement_gap_at_least."""
    n = g.n
    thr = threshold_fraction * n
    rows = pack_rows(g.adj, n)
    cols = np.arange(n)
    step = max(1, (1 << 16) // max(n, 1))
    count = 0
    for s in range(0, n, step):
        x1, x2 = np.divmod(np.flatnonzero(cols > np.arange(s, min(s + step, n))[:, None]), n)
        far = complement_gap_at_least(rows, x1 + s, x2, n, thr)
        count += len(far) - int(np.count_nonzero(far))
    return count


# ── exact clique / independence numbers ──────────────────────────────────


def _max_clique(adj: list[int], n: int) -> int:
    """Branch-and-bound maximum clique with a greedy coloring bound."""
    best = 0
    order = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)
    # remap rows so the search expands high-degree vertices first
    pos = {v: i for i, v in enumerate(order)}
    rows = [0] * n
    for v in range(n):
        r = 0
        for u in iter_bits(adj[v]):
            r |= 1 << pos[u]
        rows[pos[v]] = r

    def color_bound(cand: int) -> list[tuple[int, int]]:
        # greedy coloring: returns (vertex, color) with colors nondecreasing
        colored = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= ~low & ~rows[v]
                rest ^= low
                colored.append((v, color))
        return colored

    def expand(cand: int, size: int):
        nonlocal best
        colored = color_bound(cand)
        for v, color in reversed(colored):
            if size + color <= best:
                return  # colors are nondecreasing: nothing left can improve
            if size + 1 > best:
                best = size + 1
            nxt = cand & rows[v]
            if nxt:
                expand(nxt, size + 1)
            cand ^= 1 << v

    expand((1 << n) - 1, 0)
    return best


def homogeneous_number(g: Graph) -> tuple[int, int]:
    """Exact (clique number, independence number).  Refuses n > HOMOGENEOUS_CAP."""
    if g.n > HOMOGENEOUS_CAP:
        raise CapacityError(
            f"exact homogeneous search capped at n={HOMOGENEOUS_CAP}; "
            f"n={g.n} would branch over subsets of up to 2^{g.n} candidates"
        )
    if g.n == 0:
        return 0, 0
    omega = _max_clique(list(g.adj), g.n)
    alpha = _max_clique([g.comp_row(v) for v in range(g.n)], g.n)
    return omega, alpha


def is_c_ramsey(g: Graph, c: float) -> bool:
    """True iff every homogeneous set has size < c*log2(n)."""
    if c <= 0:
        raise ParameterError(f"Ramsey constant must be positive, got {c}")
    if g.n < 2:
        return False
    omega, alpha = homogeneous_number(g)
    return max(omega, alpha) < c * math.log2(g.n)
