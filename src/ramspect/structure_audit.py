"""Richness and diversity audits.

A graph is (delta, eps)-rich when for every vertex set W with |W| >= delta*n,
at most n^delta vertices see fewer than eps*|W| neighbors or fewer than
eps*|W| non-neighbors inside W.  Richness cannot be decided exhaustively
beyond toy sizes, so richness_audit scores a candidate family under a budget
and reports the first violation it finds; the exact check over every W is
test code, tests/reference.py::richness_audit_loop.  _candidate_sets states
the budget once: the first sample_budget sets of four lazy phases chained
in turn (neighborhoods, complement neighborhoods, degree-order prefixes,
seeded random sets), so a phase the budget never reaches costs nothing.

pair_audit counts, for each vertex, how many others have a nearly
identical neighborhood (diversity), and how many pairs have neighborhoods
that nearly complement each other.  Rich graphs keep both counts
polynomially small, which is what the audits let an experiment check.
Both counts read one popcount per pair, |N(x) symdiff N(y)|: the pair
pass broadcasts each packed uint64 row against the rows after it, and the
complement gap is n - 1 minus that popcount plus twice the edge bit.

richness_audit scores the candidates in blocks, in the order they are
drawn: AUDIT_BLOCK_FIRST of them first, so that an early witness stays
cheap, then twice as many per block up to AUDIT_BLOCK_CAP.  A block is
screened on a prefix of the columns, as the close-complement filter is:
one float32 product, graph_core.neighbor_counts, counts |N(v) & W| over the
first 64*prefix_words(eps*n, words) columns (512 of 1024 at the defaults)
for every vertex v and candidate W, over adjacency rows unpacked a chunk at
a time.  A vertex with at least ceil(eps*|W|) neighbors and as many
non-neighbors in that part of W is not bad; only the entries the prefix
leaves open are counted in full, by a popcount of the packed rows, or by a
second product over the other columns when most of the block is open.  The
bad-vertex counts follow from integer thresholds.  The witness's bad
vertices are read off the packed rows by a popcount per vertex in
_bad_sides, the one statement of the bad-vertex rule.  It splits them into
two sides: sparse, fewer than eps*|W| neighbors in W, and dense, the others
(fewer than eps*|W| non-neighbors there).  The witness Y is their union,
and its size must agree with the product's count.  Masks, bools and 0/1
rows convert through graph_core alone.

rich_extract mirrors the proof-style cleanup loop: while a richness violation
(W, Y) exists, take a set S from the larger side of the verdict's split of
Y, drop it from W, and keep the vertices of W whose count of
neighbors in S lies in that side's band (_kept: at most 4*eps*|S| when
sparse, at least (1 - 4*eps)*|S| when dense).  Each such round retains at
least a (delta/4) fraction; a graph that keeps yielding witnesses for K
rounds is reported as far from Ramsey-like.  A rich extraction hands back
the induced subgraph it audited for construct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import ContractViolation, ParameterError, _require
from .graph_core import (Graph, bit_matrix, induced_subgraph, iter_bits, mask_from_bools,
                         mask_of, neighbor_counts, pack_rows, popcount, prefix_words)
from .seeding import stream

# richness_audit scores candidates in blocks: the first block is small, so a
# witness among the first candidates stays cheap, and each next one doubles
AUDIT_BLOCK_FIRST = 32
AUDIT_BLOCK_CAP = 128


@dataclass(frozen=True)
class AuditParams:
    epsilon: float = 0.2
    delta: float = 0.3
    c_div: float = 0.1
    sample_budget: int = 500
    k_rounds: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ParameterError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")
        if not 0.0 < self.delta <= 0.5:
            raise ParameterError(f"delta must lie in (0, 1/2], got {self.delta}")
        _require("positive", vars(self), "c_div")
        _require("count", vars(self), "sample_budget", "k_rounds")
        _require("non-negative", vars(self), "seed")


def edge_density(g: Graph) -> float:
    """Edges over vertex pairs; 0.0 on fewer than two vertices."""
    top = g.n * (g.n - 1) // 2
    return g.edge_count() / top if top else 0.0


def pair_audit(g: Graph, c_div: float, threshold_fraction: float) -> tuple[list[int], int]:
    """The diversity profile and the close-complement pair count.

    The profile holds, for each vertex x, the number of others y with
    |N(x) symdiff N(y)| < c_div*n; the count is the number of pairs
    {x, y} with |N(x) symdiff N_bar(y)| < threshold_fraction*n.  Both read
    the popcount of row x xor row y: the complement gap is n - 1 minus it
    plus 2*[xy edge], and the edge bit is bit x of row y.
    """
    _require("positive", {"c_div": c_div, "threshold_fraction": threshold_fraction})
    n = g.n
    div_thr, comp_thr = c_div * n, threshold_fraction * n
    rows = pack_rows(g.adj, n)
    counts = np.zeros(n, dtype=np.int64)
    close_pairs = 0
    for x in range(n - 1):
        later = rows[x + 1:]
        pc = popcount(rows[x] ^ later)
        twin = pc < div_thr
        counts[x] += twin.sum()
        counts[x + 1:] += twin
        edge = (later[:, x >> 6] >> np.uint64(x & 63) & np.uint64(1)).astype(np.int64)
        close_pairs += int(np.count_nonzero(n - 1 - pc + 2 * edge < comp_thr))
    return counts.tolist(), close_pairs


# ── richness ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class RichnessVerdict:
    status: str  # "witness_found" | "no_witness_in_budget"
    witness_w: int = 0  # masks; empty when no witness
    witness_sparse: int = 0  # Y, split by side as _bad_sides splits it
    witness_dense: int = 0
    budget_used: int = 0

    @property
    def found(self) -> bool:
        return self.status == "witness_found"

    @property
    def witness_y(self) -> int:
        """The witness's bad vertices, both sides."""
        return self.witness_sparse | self.witness_dense


def _bad_sides(rows: np.ndarray, wmask: int, epsilon: float) -> tuple[int, int]:
    """Masks (sparse, dense) of the vertices bad toward W, over a graph's
    packed adjacency rows: sparse those with fewer than eps*|W| neighbors
    in W, dense the others with fewer than eps*|W| non-neighbors there.  v
    has |N(v) & W| of the former and |W| - |N(v) & W| - [v in W] of the
    latter."""
    n = len(rows)
    wsize = wmask.bit_count()
    thr = epsilon * wsize
    k = popcount(rows & pack_rows([wmask], n))
    sparse = k < thr
    dense = ~sparse & (wsize - k - bit_matrix([wmask], n)[0] < thr)
    return mask_from_bools(sparse), mask_from_bools(dense)


# when _bad_counts' prefix screen leaves more than 1/OPEN_DENSE of a block's
# entries open, a product over the other columns costs less than a
# popcount per open entry
OPEN_DENSE = 4
OPEN_CHUNK = 8192  # open entries recounted per step of _open_bad


def _bad_counts(rows: np.ndarray, block: list, epsilon: float) -> np.ndarray:
    """Number of bad vertices of each candidate W in block, as _bad_sides
    counts them: a product over a prefix of the columns screens every
    (vertex, candidate) entry, and only the entries it leaves open are
    counted in full.

    The counts k = |N(v) & W| and |W| - k - [v in W] are integers, so each
    is below eps*|W| (taken in float64, as _bad_sides takes it) iff it is
    below t = ceil(eps*|W|); every side of those comparisons is an integer
    at most n, exact in float32.  The screen reads the first c columns, c =
    min(64*prefix_words(eps*n, words), n), in one graph_core.neighbor_counts
    product.  Both counts of v only grow from W's part in the prefix, P, to
    the whole of W, so a v with at least t neighbors in W & P and at least
    t non-neighbors there other than itself is not bad.  _open_bad
    popcounts the open entries on the packed rows; a block left open at
    more than 1/OPEN_DENSE of its entries takes a second product over the
    other columns instead.
    """
    n, words = rows.shape
    head = prefix_words(epsilon * n, words)
    c = min(64 * head, n)
    member = bit_matrix([w & ((1 << c) - 1) for w in block], c)
    k = neighbor_counts(rows, member)  # k[v, i] = |N(v) & P & block[i]|
    wsize = np.array([w.bit_count() for w in block], dtype=np.int64)
    thr = np.ceil(epsilon * wsize).astype(np.int64)
    t32 = thr.astype(np.float32)
    # v has |W & P| - k - [v in W & P] non-neighbors in W & P, [v in P] for v < c
    over = member.sum(axis=1, dtype=np.float32) - t32
    open_ = k < t32
    open_[:c] |= k[:c] + member.T > over
    open_[c:] |= k[c:] > over
    if np.count_nonzero(open_) <= open_.size // OPEN_DENSE:
        return _open_bad(rows, pack_rows(block, n), head, k, open_, wsize, thr)
    # bit j of the words past the prefix is column c + j
    rest = bit_matrix([w >> c for w in block], n - c)
    k += neighbor_counts(rows[:, head:], rest)
    bad = k < t32
    k[:c] += member.T
    k[c:] += rest.T  # now |N(v) & W| + [v in W]
    bad |= k > (wsize - thr).astype(np.float32)
    return np.count_nonzero(bad, axis=0)


def _open_bad(rows: np.ndarray, wrows: np.ndarray, head: int, k: np.ndarray,
              open_: np.ndarray, wsize: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Bad vertices per candidate among the open entries of _bad_counts'
    screen.  k holds the counts over the first head words of the rows
    (all of each row when head is their word count), wrows the
    candidates' packed rows; an open entry (v, i) adds the popcount of the
    rest of row v & wrows[i] to k[v, i], reads v's bit of W, and is decided
    by the rule of _bad_sides with the integer threshold thr[i].  The rows
    are gathered word-major, so the popcount sums contiguous rows."""
    count = len(wsize)
    rest = np.ascontiguousarray(rows[:, head:].T)
    wcols = np.ascontiguousarray(wrows.T)
    wrest = wcols[head:]
    flat = np.flatnonzero(open_)
    kflat = k.ravel()
    bad = np.zeros(count, dtype=np.int64)
    for s in range(0, len(flat), OPEN_CHUNK):
        at = flat[s:s + OPEN_CHUNK]
        v, i = np.divmod(at, count)
        both = np.take(rest, v, axis=1)
        both &= np.take(wrest, i, axis=1)
        got = np.bitwise_count(both).sum(axis=0, dtype=np.int64)
        got += kflat[at].astype(np.int64)
        inw = (wcols[v >> 6, i] >> (v & 63).astype(np.uint64) & np.uint64(1)).astype(np.int64)
        t = thr[i]
        hit = (got < t) | (wsize[i] - got - inw < t)
        bad += np.bincount(i[hit], minlength=count)
    return bad


def _candidate_sets(g: Graph, delta: float, budget: int, seed: int):
    """The first budget candidate sets W, |W| >= delta*n, of four phases
    drawn lazily in turn: the neighborhoods, the complement neighborhoods,
    the prefixes of the vertices by falling degree, then seeded random sets
    of three sizes in rotation."""
    n = g.n
    wmin = math.ceil(delta * n)
    degs = g.degrees()

    def prefixes():
        prefix = 0
        for i, v in enumerate(sorted(range(n), key=lambda v: (-degs[v], v))):
            prefix |= 1 << v
            if i + 1 >= wmin:
                yield prefix

    def random_sets():
        rng = stream(seed)
        sizes = sorted({wmin, min(n, 2 * wmin), max(wmin, n // 2)})
        verts = list(range(n))
        while True:
            for size in sizes:
                yield mask_of(rng.sample(verts, size))

    return islice(chain((g.adj[v] for v in range(n) if degs[v] >= wmin),
                        (g.comp_row(v) for v in range(n) if n - 1 - degs[v] >= wmin),
                        prefixes(), random_sets()), budget)


def richness_audit(g: Graph, params: AuditParams) -> RichnessVerdict:
    """Search the first sample_budget candidates for a witness against
    (delta, eps)-richness.

    A witness is a set W, |W| >= delta*n, for which strictly more than
    n^delta vertices are bad (few neighbors or few non-neighbors in W).
    No witness in the budget does not decide richness.
    """
    n = g.n
    candidates = _candidate_sets(g, params.delta, params.sample_budget, params.seed)
    limit = n ** params.delta
    rows = pack_rows(g.adj, n)
    tried, size = 0, AUDIT_BLOCK_FIRST
    while block := list(islice(candidates, size)):
        counts = _bad_counts(rows, block, params.epsilon)
        hits = np.flatnonzero(counts > limit)
        if len(hits):
            i = int(hits[0])
            w, tried = block[i], tried + i + 1
            # the witness's sides come from the popcount kernel, which must
            # agree with the product on how many vertices are bad
            sparse, dense = _bad_sides(rows, w, params.epsilon)
            bad = (sparse | dense).bit_count()
            if bad != counts[i]:
                raise ContractViolation(
                    f"richness candidate {tried} has {bad} bad vertices "
                    f"by popcount and {counts[i]} by the block product")
            return RichnessVerdict("witness_found", w, sparse, dense, tried)
        tried += len(block)
        size = min(2 * size, AUDIT_BLOCK_CAP)
    return RichnessVerdict("no_witness_in_budget", budget_used=tried)


# ── extraction ───────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ExtractRound:
    size_before: int
    w_size: int
    y_size: int
    side: str  # "sparse" | "dense"
    s_size: int
    size_after: int


@dataclass(frozen=True)
class ExtractResult:
    status: str  # "rich" | "rounds_exhausted" | "failed_shrink"
    u_mask: int
    trace: tuple = field(default_factory=tuple)
    # induced_subgraph(g, u_mask)[0], the graph audited last; only when "rich"
    graph: Graph | None = field(default=None, compare=False)


def _kept(g: Graph, rest: int, smask: int, side: str, epsilon: float) -> int:
    """The vertices v of rest with lo <= |N(v) & S| <= hi, S = smask, where
    the side picks the band: [0, 4*eps*|S|] for "sparse", [(1 - 4*eps)*|S|,
    |S|] for "dense"."""
    s = smask.bit_count()
    lo, hi = (0, 4 * epsilon * s) if side == "sparse" else ((1.0 - 4 * epsilon) * s, s)
    return mask_of(v for v in iter_bits(rest) if lo <= (g.adj[v] & smask).bit_count() <= hi)


def rich_extract(g: Graph, params: AuditParams) -> ExtractResult:
    """Iteratively carve toward an empirically rich vertex subset.

    Stops with status "rich" the first time the budgeted audit finds no
    witness, and hands back the graph it audited as ExtractResult.graph.
    A round that would shrink the live set below the (delta/4) retention
    floor stops with "failed_shrink"; exhausting k_rounds with witnesses
    still arriving stops with "rounds_exhausted".  Both of the latter
    signal a graph far from Ramsey-like.  Only a round that shrinks the
    live set induces a new working graph, from the current one:
    graph_core.induced_subgraph copies its kept rows a chunk at a time,
    through 0/1 columns cut to the kept vertices and packed back into ints.
    """
    sub, vmap = g, range(g.n)
    umask = g.full_mask
    trace = []
    for rnd in range(params.k_rounds):
        if sub.n == 0:
            return ExtractResult("failed_shrink", umask, tuple(trace))
        verdict = richness_audit(sub, params)
        if not verdict.found:
            return ExtractResult("rich", umask, tuple(trace), sub)
        w, sparse, dense = verdict.witness_w, verdict.witness_sparse, verdict.witness_dense
        wsize = w.bit_count()
        # Y is nonempty, so the larger side is too
        side, members = ("sparse", sparse) if sparse.bit_count() >= dense.bit_count() \
            else ("dense", dense)
        # clamped at sub.n before ceil, which a huge c_div would overflow
        ssize = max(1, math.ceil(min((params.c_div * sub.n) ** params.delta / 2, sub.n)))
        ssize = min(ssize, max(1, wsize // 2), members.bit_count())
        smask = mask_of(islice(iter_bits(members), ssize))
        keep = _kept(sub, w & ~smask, smask, side, params.epsilon)
        umask = mask_of(vmap[v] for v in iter_bits(keep))
        before, after = sub.n, keep.bit_count()
        trace.append(ExtractRound(before, wsize, verdict.witness_y.bit_count(), side, ssize,
                                  after))
        if after < (params.delta / 4) * before:
            return ExtractResult("failed_shrink", umask, tuple(trace))
        sub, kept = induced_subgraph(sub, keep)
        vmap = [vmap[v] for v in kept]
    return ExtractResult("rounds_exhausted", umask, tuple(trace))
