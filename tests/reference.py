"""Test-only references: exact homogeneous numbers, graph complement, edge
lookup, the K_n closed form, the spectrum oracle's block walk marking at
every step, pmf point lookup, the Monte-Carlo sampler's hits and mode
mass from one stream drawn in one loop, Bernoulli draws one random() call at a time,
the pair-by-pair G(n, p) and Paley loops, induced subgraphs repacked bit
by bit, the all-pairs degree-sum bucket, the sampled bucket drawn one
randrange call at a time, star degrees by bincount,
pair-by-pair conflict greedy, event-(4) scan, S/T/X split and int-row verifier of the scaffold construction, the richness
audit's bad-vertex counts over whole rows and one candidate at a time, its candidate
family as one generator with a shared budget counter, the extraction's split
of a witness and its keep rule as int-row loops, the audit's two pair counts
as separate passes, the exposure's adjusted degrees recounted per unit
and cell, and its family table as one count_edges_many batch over the
swap family Z_{k,i} ORed together one unit at a time.

Nothing in the package or the benchmark calls these; the tests use them to
check the package's results against independent computations.
"""
from __future__ import annotations

import math
import random

import numpy as np

from ramspect import structure_audit as sa
from ramspect.double_exposure import PerKRecord
from ramspect.errors import ContractViolation, ParameterError, RamspectError, _require_cap
from ramspect.graph_core import (Graph, bit_matrix, check_disjoint_units,
                                 complement_gap_at_least, count_edges, count_edges_many,
                                 iter_bits, mask_of, multiset_gap, neighbor_counts,
                                 pack_rows, popcount, symdiff_size, unit_degree, unit_rows)
from ramspect.seeding import derive_seed, np_stream

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


def sampled_sums_loop(inst, trials: int, seed: int):
    """Chunks of sampled sum_i a_i * xi_i (offset excluded), trials in all,
    drawn in order from the one generator of (seed, spawn key 0)."""
    a = np.asarray(inst.coefficients, dtype=np.int64)
    rng = np_stream(seed, 0)
    chunk = max(1, (1 << 16) // len(a))
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        yield (rng.random((b, len(a))) < inst.p) @ a
        done += b


def mc_hits_loop(inst, x: int, trials: int, seed: int) -> int:
    """How many of the one-stream trials sum to x."""
    return sum(int(np.count_nonzero(sums == x - inst.offset))
               for sums in sampled_sums_loop(inst, trials, seed))


def mc_max_mass_loop(inst, trials: int, seed: int) -> float:
    """The one-stream trials' mode frequency."""
    counts = {}
    for sums in sampled_sums_loop(inst, trials, seed):
        vals, cnt = np.unique(sums, return_counts=True)
        for v, c in zip(vals.tolist(), cnt.tolist()):
            counts[v] = counts.get(v, 0) + c
    return max(counts.values()) / trials


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


def paley_loop(q: int) -> Graph:
    """The Paley graph on Z_q, one pair at a time: v ~ u iff u - v is a
    nonzero square mod q."""
    residues = {x * x % q for x in range(1, q)}
    rows = [0] * q
    for u in range(q):
        for v in range(q):
            if v != u and (u - v) % q in residues:
                rows[u] |= 1 << v
    return Graph(q, rows, _checked=True)


# ── scaffold construction ────────────────────────────────────────────────


def induced_subgraph_loop(g: Graph, mask: int) -> tuple[Graph, list[int]]:
    """graph_core.induced_subgraph with each kept row repacked bit by bit."""
    if mask & ~g.full_mask:
        raise ParameterError("mask has bits outside the vertex range")
    vmap = list(iter_bits(mask))
    rows = []
    for v in vmap:
        row = g.adj[v] & mask
        packed = 0
        for j, u in enumerate(vmap):
            packed |= ((row >> u) & 1) << j
        rows.append(packed)
    return Graph(len(vmap), rows, _checked=True), vmap


def bucket_by_enumeration(g: Graph, w: int):
    """(d_prime, pairs) of the fullest width-w degree-sum bucket: every pair
    a < b listed by np.triu_indices, bucketed by (deg a + deg b) // w, the
    lowest bucket winning ties.  The pairs are a (2, k) array, first
    vertices in row 0."""
    degs = np.array(g.degrees(), dtype=np.int64)
    ii, jj = np.triu_indices(g.n, 1)
    buckets = (degs[ii] + degs[jj]) // w
    j = int(np.argmax(np.bincount(buckets)))
    sel = buckets == j
    return j * w + w // 2, np.stack([ii[sel], jj[sel]])


def sampled_bucket_loop(g: Graph, w: int, sample_coeff: float, seed: int):
    """(d_prime, pairs) of ramsey_construct.pigeonhole_pairs above its
    enumeration cap, with the pair sample drawn one randrange call at a
    time: the first want distinct pairs a < b of consecutive draws a != b,
    sorted, then bucketed by (deg a + deg b) // w, the lowest bucket
    winning ties."""
    n = g.n
    rng = random.Random(derive_seed(seed, "pigeonhole"))
    want = max(1, int(min(sample_coeff * n ** 1.5, n * (n - 1) // 2)))
    seen = set()
    while len(seen) < want:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            seen.add((a, b) if a < b else (b, a))
    ii, jj = np.array(sorted(seen), dtype=np.int32).T
    degs = np.array(g.degrees(), dtype=np.int64)
    buckets = (degs[ii] + degs[jj]) // w
    j = int(np.argmax(np.bincount(buckets)))
    sel = buckets == j
    return j * w + w // 2, np.stack([ii[sel], jj[sel]])


def star_degrees(h: np.ndarray, n: int) -> np.ndarray:
    """Filtered-pair degree of every vertex of an n-vertex graph, for a
    (2, k) array of pairs: one np.bincount per row, in any pair order."""
    return sum(np.bincount(row, minlength=n) for row in h)


def verify_construction_loop(g: Graph, res, params) -> bool:
    """ramsey_construct.verify_construction on int rows throughout: each
    unit's degree into U0 counted once for the degree window and the S/T
    gap, then every X pair, in row-major order, compared with multiset_gap
    on its multiplicity rows cut to U0."""
    n, u0 = res.working_n, res.u0_mask
    units = res.all_units()
    check_disjoint_units(units, u0)
    d_window = params.kappa2 * math.sqrt(n)
    ds, dt, dx = ([unit_degree(g, x, u0) for x in group]
                  for group in (res.s_units, res.t_units, res.x_units))
    for x, dd in zip(res.s_units + res.t_units + res.x_units, ds + dt + dx):
        if abs(dd - res.d) > d_window:
            raise ContractViolation(
                f"unit {x.vertices} degree {dd} outside {res.d:.2f}+-{d_window:.2f}")
    if ds and dt:
        gap = min(dt) - max(ds)
        if gap < res.gap_floor:
            raise ContractViolation(f"degree gap {gap} below floor {res.gap_floor}")
    sym_floor = res.kappa3 * n
    xs = res.x_units
    rows = [(m1 & u0, m2 & u0) for m1, m2 in (unit_rows(g, x) for x in xs)]
    for i, (a1, a2) in enumerate(rows):
        for j in range(i + 1, len(xs)):
            s = multiset_gap(a1, a2, *rows[j])
            if s < sym_floor:
                raise ContractViolation(
                    f"x units {xs[i].vertices},{xs[j].vertices} symdiff {s} "
                    f"below {sym_floor:.2f}")
    want_pair = res.mode == "matching"
    for x in units:
        if x.is_pair != want_pair:
            raise ContractViolation(f"mode {res.mode} but unit {x.vertices} mixes kinds")
    return True


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


def z_family(s_units, t_units, k: int, i: int) -> int:
    """Vertex mask of Z_{k,i}: the first k-i units of S plus the first i
    units of T, one unit at a time."""
    if not 0 <= i <= k:
        raise ParameterError(f"need 0 <= i <= k, got i={i}, k={k}")
    if i > len(t_units):
        raise ParameterError(f"i={i} exceeds |T|={len(t_units)}")
    if k - i > len(s_units):
        raise ParameterError(f"k-i={k - i} exceeds |S|={len(s_units)}")
    zm = 0
    for u in s_units[:k - i]:
        zm |= u.mask()
    for u in t_units[:i]:
        zm |= u.mask()
    return zm


def family_table_batch(g: Graph, u_mask: int, s_units, t_units, resolved):
    """family_table from its definition: U and every U u Z_{k,i} counted in
    one count_edges_many batch, each cell e(U u Z_{k,i}) - e(U)."""
    rows = [(k, [z_family(s_units, t_units, k, i) for i in range(min(k, resolved.i_hi) + 1)])
            for k in range(resolved.k_lo, resolved.k_hi + 1)]
    e_u, *counts = count_edges_many(g, [u_mask] + [zm | u_mask for _, zms in rows for zm in zms])
    cells = iter(counts)
    return [PerKRecord(k=k, i_values=list(range(len(zms))), z_masks=zms,
                       e_values=[next(cells) - e_u for _ in zms])
            for k, zms in rows]


# ── richness ─────────────────────────────────────────────────────────────


# the exact audit enumerates all 2^n vertex sets
RICHNESS_EXHAUSTIVE_CAP = 14


def richness_audit_loop(g: Graph, params, exhaustive: bool = False):
    """RichnessVerdict of the candidate-at-a-time audit: one _bad_sides
    popcount per candidate W, in the order richness_audit draws them,
    stopping at the first W with more than n^delta bad vertices.
    exhaustive=True enumerates every W with |W| >= delta*n instead, and so
    decides richness (n <= RICHNESS_EXHAUSTIVE_CAP)."""
    n = g.n
    if exhaustive:
        _require_cap("exhaustive richness n", n, RICHNESS_EXHAUSTIVE_CAP)
        wmin = math.ceil(params.delta * n)
        candidates = (w for w in range(1 << n) if w.bit_count() >= wmin)
    else:
        candidates = sa._candidate_sets(g, params.delta, params.sample_budget, params.seed)
    limit = n ** params.delta
    rows = pack_rows(g.adj, n)
    tried = 0
    for w in candidates:
        tried += 1
        sparse, dense = sa._bad_sides(rows, w, params.epsilon)
        if (sparse | dense).bit_count() > limit:
            return sa.RichnessVerdict("witness_found", w, sparse, dense, tried)
    return sa.RichnessVerdict("no_witness_in_budget", 0, 0, 0, tried)


def bad_counts_product(rows: np.ndarray, block: list, epsilon: float) -> np.ndarray:
    """structure_audit._bad_counts over whole rows: one neighbor_counts
    product of every column, the bad-vertex rule read off integer
    thresholds.  k = |N(v) & W| and |W| - k - [v in W] are integers, so
    each is below eps*|W| iff it is below ceil(eps*|W|)."""
    member = bit_matrix(block, len(rows))
    k = neighbor_counts(rows, member)  # k[v, i] = |N(v) & block[i]|
    wsize = np.array([w.bit_count() for w in block], dtype=np.float64)
    thr = np.ceil(epsilon * wsize).astype(np.float32)
    bad = k < thr
    k += member.T  # now |N(v) & W| + [v in W]; the non-neighbor count is |W| minus it
    bad |= k > wsize.astype(np.float32) - thr
    return np.count_nonzero(bad, axis=0)


def candidate_sets_loop(g: Graph, delta: float, budget: int, seed: int):
    """structure_audit._candidate_sets as one generator that counts what it
    has emitted and stops at budget: neighborhoods, complement
    neighborhoods, degree-order prefixes, then seeded random sets."""
    wmin = math.ceil(delta * g.n)
    emitted = 0
    degs = g.degrees()
    for v in range(g.n):
        if emitted >= budget:
            return
        if degs[v] >= wmin:
            emitted += 1
            yield g.adj[v]
    for v in range(g.n):
        if emitted >= budget:
            return
        if g.n - 1 - degs[v] >= wmin:
            emitted += 1
            yield g.comp_row(v)
    order = sorted(range(g.n), key=lambda v: (-degs[v], v))
    prefix = 0
    for i, v in enumerate(order):
        prefix |= 1 << v
        if i + 1 >= wmin:
            if emitted >= budget:
                return
            emitted += 1
            yield prefix
    rng = random.Random(seed)
    sizes = sorted({wmin, min(g.n, 2 * wmin), max(wmin, g.n // 2)})
    verts = list(range(g.n))
    while emitted < budget:
        for size in sizes:
            if emitted >= budget:
                return
            emitted += 1
            yield mask_of(rng.sample(verts, size))


def extract_sides_loop(g: Graph, w: int, y: int, epsilon: float) -> tuple[int, int]:
    """The split rich_extract made of a witness (W, Y) with its own loop over
    Y: sparse the vertices with fewer than eps*|W| neighbors in W, dense the
    others with fewer than eps*|W| non-neighbors there."""
    wsize = w.bit_count()
    thr = epsilon * wsize
    sparse, dense = [], []
    for v in iter_bits(y):
        k = (g.adj[v] & w).bit_count()
        if k < thr:
            sparse.append(v)
        elif wsize - k - (w >> v & 1) < thr:
            dense.append(v)
    return mask_of(sparse), mask_of(dense)


def extract_keep_loop(g: Graph, rest: int, smask: int, side: str, epsilon: float) -> int:
    """The vertices of rest that rich_extract keeps after it drops S = smask:
    on the sparse side those with at most 4*eps*|S| neighbors in S, on the
    dense side those with at least (1 - 4*eps)*|S|, one loop per side."""
    ssize = smask.bit_count()
    keep = 0
    if side == "sparse":
        hi = 4 * epsilon * ssize
        for v in iter_bits(rest):
            if (g.adj[v] & smask).bit_count() <= hi:
                keep |= 1 << v
    else:
        lo = (1.0 - 4 * epsilon) * ssize
        for v in iter_bits(rest):
            if (g.adj[v] & smask).bit_count() >= lo:
                keep |= 1 << v
    return keep


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
    _require_cap("exact homogeneous search n", g.n, HOMOGENEOUS_CAP,
                 f"it would branch over subsets of up to 2^{g.n} candidates")
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
