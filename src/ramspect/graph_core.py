"""Bit-packed graph primitives.

A graph on n vertices is stored as one Python integer per vertex: bit u of
``adj[v]`` is set iff uv is an edge.  Arbitrary-precision ints give branch-free
AND/XOR row operations and popcounts via ``int.bit_count``.  Loops over many
row pairs run on a packed view instead: pack_rows lays a list of rows out as
an (k, ceil(n/64)) array of little-endian uint64 words, and popcount sums
``np.bitwise_count`` over the words of each row.  The all-pairs multiset
gaps of a unit family come from one kernel, pair_gaps: each gap is
|A| + |B| - 2|A & B| over 0/1 rows, the intersections one float32 Gram
product (exact for integer counts below 2**24).  The close-complement test
|N(a) symdiff N_bar(b)| >= thr on an arbitrary list of pairs, such as a
degree-sum bucket, is one kernel, complement_gap_at_least: the bits past a
prefix of each row can lower the gap by at most their count, so a prefix
whose lower bound reaches thr settles the pair, and only the other pairs
read their whole rows.  Counts over all pairs need no gather: they
broadcast one packed row against the rows after it (see
structure_audit.pair_audit).  Edge counts of many vertex sets at once,
count_edges_many, are the same kind of float32 product, over the adjacency
matrix of the sets' union.  So are the counts |N(v) & M| of every vertex v
into each of many sets M, neighbor_counts, which unpacks the adjacency
rows a chunk at a time instead of building an n x n matrix.  Every counting
routine in this package reduces to a popcount or to such a product.

Vertex sets are plain int bitmasks throughout ("mask" in signatures).  A Unit
is either a single vertex or an unordered pair of distinct vertices; pair
neighborhoods are multisets (multiplicities in {0,1,2}) and all unit-level
quantities (degrees, symmetric differences) honor multiplicity.

Complement neighborhoods follow the complement graph: N_bar(v) excludes v
itself as well as N(v).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import CapacityError, ContractViolation, GraphParseError, ParameterError


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int):
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph on vertices 0..n-1 with bitset adjacency rows."""

    __slots__ = ("n", "adj", "full_mask")

    def __init__(self, n: int, adj, _checked: bool = False):
        if n < 0:
            raise ParameterError(f"vertex count must be nonnegative, got {n}")
        adj = tuple(adj)
        if len(adj) != n:
            raise ParameterError(f"expected {n} adjacency rows, got {len(adj)}")
        full = (1 << n) - 1
        if not _checked:
            for v, row in enumerate(adj):
                if row >> n:
                    raise ParameterError(f"row {v} has bits beyond vertex range")
                if (row >> v) & 1:
                    raise ParameterError(f"self-loop at vertex {v}")
            for v, row in enumerate(adj):
                for u in iter_bits(row):
                    if not (adj[u] >> v) & 1:
                        raise ParameterError(f"asymmetric adjacency at {v},{u}")
        self.n = n
        self.adj = adj
        self.full_mask = full

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.adj]

    def comp_row(self, v: int) -> int:
        """Neighborhood of v in the complement graph (excludes v)."""
        return self.full_mask & ~self.adj[v] & ~(1 << v)


def from_edges(n: int, edges) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ParameterError(f"self-loop ({u},{v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows, _checked=True)


def induced_subgraph(g: Graph, mask: int) -> tuple[Graph, list[int]]:
    """Induced subgraph on the masked vertices, renumbered to 0..k-1.

    Returns (subgraph, vertex_map) where vertex_map[i] is the original id of
    subgraph vertex i.
    """
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


# ── packed rows ──────────────────────────────────────────────────────────


def pack_rows(rows, n: int) -> np.ndarray:
    """(len(rows), ceil(n/64)) uint64 array; word w of row i holds bits
    64w..64w+63 of rows[i], least significant first."""
    nbytes = 8 * -(-n // 64)
    buf = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    return np.frombuffer(buf, dtype="<u8").reshape(len(rows), nbytes // 8)


def popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each row of a packed word array."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _xor_popcount(words: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """popcount(words[a[i]] ^ words[b[i]]) for each pair, as int64 (zeros
    when words has no columns).  np.take gathers rows faster than fancy
    indexing, and adding the word columns one by one beats a sum over the
    last axis."""
    bits = np.bitwise_count(np.take(words, a, axis=0) ^ np.take(words, b, axis=0))
    total = np.zeros(len(a), dtype=np.int64)
    for col in bits.T:
        total += col
    return total


GAP_CHUNK = 8192  # pairs gathered per step of complement_gap_at_least


def prefix_words(thr: float, words: int) -> int:
    """Words a prefix screen reads for a gap threshold thr out of rows of
    the given word count: ceil(2*thr/64) + 1, at least 1, which clears thr
    when about half of the bits differ, or all the words when that is not
    fewer (a huge thr included)."""
    return words if not 2 * thr / 64 + 1 < words else max(1, math.ceil(2 * thr / 64) + 1)


def complement_gap_at_least(rows: np.ndarray, a: np.ndarray, b: np.ndarray, n: int,
                            thr: float) -> np.ndarray:
    """Bool array: |N(a) symdiff N_bar(b)| >= thr for each pair of vertex
    indices a[i], b[i] (int64 arrays), over the packed adjacency rows of an
    n-vertex graph.

    N_bar(b) is V minus N(b) minus b, so the symmetric difference is V minus
    N(a) symdiff N(b) with b's bit flipped; that bit is set iff ab is an
    edge, and the gap is n - 1 - popcount(row a ^ row b) + 2*[ab edge].

    A prefix screen decides most pairs from the first W = prefix_words(thr,
    words) words alone.  The s = min(64W, n) bits seen there give the lower
    bound s - 1 - popcount(prefix a ^ prefix b): the n - s unseen bits add
    at most their count to the popcount, and the edge term is >= 0.  A pair
    whose bound reaches thr is kept; only the others read the remaining
    words and the edge bit.  On G(n, 1/2) the screen decides every pair; at
    worst every pair reads every word, once.
    """
    words = rows.shape[1]
    head = prefix_words(thr, words)
    seen = min(64 * head, n)
    prefix = np.ascontiguousarray(rows[:, :head])
    suffix = np.ascontiguousarray(rows[:, head:])
    flat = rows.ravel()
    thr = np.float64(thr)
    keep = np.empty(len(a), dtype=bool)
    for s in range(0, len(a), GAP_CHUNK):
        ca, cb = a[s:s + GAP_CHUNK], b[s:s + GAP_CHUNK]
        pc = _xor_popcount(prefix, ca, cb)
        part = seen - 1 - pc >= thr
        rest = np.flatnonzero(~part)
        if len(rest):
            ra, rb = np.take(ca, rest), np.take(cb, rest)
            pc = np.take(pc, rest) + _xor_popcount(suffix, ra, rb)
            edge = np.take(flat, ra * words + (rb >> 6)) >> (rb & 63).astype(np.uint64)
            part[rest] = n - 1 - pc + 2 * (edge & np.uint64(1)).astype(np.int64) >= thr
        keep[s:s + GAP_CHUNK] = part
    return keep


# ── units ────────────────────────────────────────────────────────────────


@dataclass(frozen=True, order=True)
class Unit:
    """A single vertex or an unordered pair of distinct vertices."""

    vertices: tuple

    @staticmethod
    def single(v: int) -> "Unit":
        return Unit((v,))

    @staticmethod
    def pair(a: int, b: int) -> "Unit":
        if a == b:
            raise ParameterError(f"pair components must be distinct, got ({a},{b})")
        return Unit((a, b) if a < b else (b, a))

    @property
    def is_pair(self) -> bool:
        return len(self.vertices) == 2

    def mask(self) -> int:
        m = 0
        for v in self.vertices:
            m |= 1 << v
        return m


def check_disjoint_units(units, u0_mask: int) -> None:
    """ContractViolation, naming the first offender, unless the units are
    pairwise disjoint and miss U0."""
    seen = u0_mask
    for x in units:
        for v in x.vertices:
            if seen >> v & 1:
                raise ContractViolation(f"unit {x.vertices} overlaps U0 or another unit")
            seen |= 1 << v


def unit_rows(g: Graph, x: Unit) -> tuple[int, int]:
    """Multiplicity masks (m1, m2) of the unit's neighborhood multiset.

    m2 covers vertices of multiplicity 2 (pair units only), m1 multiplicity 1.
    """
    if x.is_pair:
        a, b = x.vertices
        ra, rb = g.adj[a], g.adj[b]
        return ra ^ rb, ra & rb
    (v,) = x.vertices
    return g.adj[v], 0


def unit_degree(g: Graph, x: Unit, umask: int) -> int:
    """Multiset degree of the unit into the masked set: sum of component degrees."""
    # written out for the one or two vertices of a unit: the exposure calls
    # this once per X unit and cell, and a generator sum costs twice as much
    adj, vs = g.adj, x.vertices
    d = (adj[vs[0]] & umask).bit_count()
    return d + (adj[vs[1]] & umask).bit_count() if len(vs) == 2 else d


def multiset_gap(x1: int, x2: int, y1: int, y2: int) -> int:
    """Total multiplicity gap, sum over v of |mult_x(v) - mult_y(v)|, of two
    multisets given as unit_rows masks (x1, x2) and (y1, y2).

    Where x1 ^ y1 is set the multiplicities differ by one; elsewhere they
    differ by two exactly where x2 ^ y2 is set.
    """
    d1 = x1 ^ y1
    return d1.bit_count() + 2 * ((x2 ^ y2) & ~d1).bit_count()


# pair_gaps, count_edges_many and neighbor_counts refuse larger graphs: see pair_gaps
GRAM_EXACT_CAP = 1 << 23


def bit_matrix(masks, n: int) -> np.ndarray:
    """(len(masks), n) uint8 array of 0/1: entry (i, v) is bit v of masks[i]."""
    return np.unpackbits(pack_rows(masks, n).view(np.uint8), axis=1, count=n,
                         bitorder="little")


def _gram_symdiff(masks, n: int, cols) -> np.ndarray:
    """|A_i symdiff A_j| for every pair of the masks, inside the columns cols
    (all when None), as |A_i| + |A_j| - 2|A_i & A_j|: the intersections are
    one float32 Gram product of the 0/1 rows, which numpy hands to BLAS."""
    bits = bit_matrix(masks, n)
    if cols is not None:
        bits = bits[:, cols]
    bits = bits.astype(np.float32)
    gaps = bits @ bits.T
    sizes = gaps.diagonal().copy()
    gaps *= -2
    gaps += sizes[:, None]
    gaps += sizes
    return gaps


def pair_gaps(g: Graph, units, umask: int | None = None) -> np.ndarray:
    """k x k float32 matrix whose (i, j) entry is
    symdiff_size(g, units[i], units[j], umask).

    With S the support (multiplicity >= 1) and D the doubled part of a
    unit's neighborhood, the multiset gap is |S_x symdiff S_y| +
    |D_x symdiff D_y|.  Each term comes from one float32 Gram product of
    0/1 rows restricted to umask's columns; D is skipped when every unit is
    a single.  All counts are integers and every partial sum and gap is at
    most 2n <= 2**24, so float32 holds them exactly; larger graphs are
    refused.  Compare entries against a float threshold in float64 (an
    np.float64 scalar), since a Python float would be rounded to float32.
    """
    n = g.n
    if n > GRAM_EXACT_CAP:
        raise CapacityError(f"pair_gaps is exact in float32 up to n={GRAM_EXACT_CAP}, "
                            f"got n={n}")
    rows = [unit_rows(g, x) for x in units]
    width, cols = n, None
    if umask is not None:
        # rows cut to umask have no bit past its top one: a prefix umask
        # such as (1 << h) - 1 unpacks and multiplies h columns only
        rows = [(m1 & umask, m2 & umask) for m1, m2 in rows]
        width = umask.bit_length()
        cols = bit_matrix([umask], width)[0].astype(bool)
    gaps = _gram_symdiff([m1 | m2 for m1, m2 in rows], width, cols)
    if any(x.is_pair for x in units):
        gaps += _gram_symdiff([m2 for _, m2 in rows], width, cols)
    return gaps


def symdiff_size(g: Graph, x: Unit, y: Unit, umask: int | None = None) -> int:
    """Size of the multiset symmetric difference of the two unit neighborhoods,
    restricted to umask (whole vertex set when None).

    For two singles this is the ordinary set symmetric difference.
    """
    a1, a2 = unit_rows(g, x)
    b1, b2 = unit_rows(g, y)
    if umask is not None:
        a1, a2, b1, b2 = a1 & umask, a2 & umask, b1 & umask, b2 & umask
    return multiset_gap(a1, a2, b1, b2)


# ── edge counting ────────────────────────────────────────────────────────


def count_edges(g: Graph, amask: int, bmask: int | None = None) -> int:
    """Edges inside amask, or between amask and bmask (which must be disjoint)."""
    if bmask is None:
        return sum((g.adj[v] & amask).bit_count() for v in iter_bits(amask)) // 2
    if amask & bmask:
        raise ContractViolation("count_edges(A, B) requires disjoint masks")
    return sum((g.adj[v] & bmask).bit_count() for v in iter_bits(amask))


def count_edges_many(g: Graph, masks) -> list[int]:
    """count_edges(g, mask) for each mask, in one batch.

    The rows of the masks' union are unpacked once and cut to the union's
    columns: a 0/1 float32 adjacency matrix A.  Each count is the sum of
    popcount(row v & mask) over the mask's vertices v, halved.  With m the
    mask's 0/1 row over the union, those popcounts are the entries of m @ A,
    one float32 product for all masks (exact: each is at most n <= 2**24),
    and their sum over the mask is taken in float64 (exact below 2**53).
    Larger graphs are refused.
    """
    n = g.n
    if n > GRAM_EXACT_CAP:
        raise CapacityError(f"count_edges_many is exact in float32 up to n={GRAM_EXACT_CAP}, "
                            f"got n={n}")
    member = bit_matrix(list(masks), n)
    verts = np.flatnonzero(member.any(axis=0))
    adj = bit_matrix([g.adj[v] for v in verts.tolist()], n)[:, verts].astype(np.float32)
    m = member[:, verts].astype(np.float32)
    twice = ((m @ adj) * m).sum(axis=1, dtype=np.float64)
    return (twice.astype(np.int64) // 2).tolist()


NEIGHBOR_CHUNK = 256  # adjacency rows unpacked per product of neighbor_counts


def neighbor_counts(rows: np.ndarray, member: np.ndarray) -> np.ndarray:
    """(n, k) float32 array whose entry (v, i) is |N(v) & M_i|, for k vertex
    sets M_i given as the 0/1 rows of member (k, n uint8, as bit_matrix
    returns), over the packed adjacency rows of an n-vertex graph.

    With A the 0/1 adjacency matrix the counts are A @ member.T, one float32
    product per block of NEIGHBOR_CHUNK adjacency rows unpacked from rows,
    so no n x n matrix is built.  Exact: each count is an integer at most
    n <= 2**24.
    """
    k, n = member.shape
    if n > GRAM_EXACT_CAP:
        raise CapacityError(f"neighbor_counts is exact in float32 up to n={GRAM_EXACT_CAP}, "
                            f"got n={n}")
    m = np.ascontiguousarray(member.T, dtype=np.float32)
    out = np.empty((n, k), dtype=np.float32)
    for v in range(0, n, NEIGHBOR_CHUNK):
        # the chunk is a temporary of the call, so no two chunks are alive at once
        np.matmul(np.unpackbits(rows[v:v + NEIGHBOR_CHUNK].view(np.uint8), axis=1, count=n,
                                bitorder="little").astype(np.float32),
                  m, out=out[v:v + NEIGHBOR_CHUNK])
    return out


# ── generation and serialization ─────────────────────────────────────────


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def bernoulli(rng: random.Random, k: int, p: float) -> np.ndarray:
    """k bools, the j-th True iff the j-th of k successive ``rng.random()``
    draws is below p; rng is left where those k draws would leave it.

    random() is ((a >> 5) * 2**26 + (b >> 6)) / 2**53 for two successive
    32-bit Mersenne-Twister outputs a and b, and getrandbits(64 * k) returns
    the same 2k words little-endian.  So each <u8 word w of one bulk draw
    yields the same 53-bit key, and random() < p iff key < ceil(p * 2**53),
    which is exact in binary64.
    """
    below = np.uint64(math.ceil(p * 2.0 ** 53))
    w = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u8")
    return (((w & 0xFFFFFFFF) >> 5 << 26) | (w >> 38)) < below


def mask_from_bools(bits: np.ndarray) -> int:
    """The int mask whose bit v is set iff bits[v]."""
    return int.from_bytes(np.packbits(bits, bitorder="little"), "little")


GNP_CHUNK = 1 << 18  # pairs per row block (and getrandbits call) of the gnp generator


def _gnp_rows(n: int, p: float, seed: int) -> list[int]:
    """Adjacency rows in which pair (u, v) is an edge iff its draw of
    ``random.Random(seed).random()``, taken in row-major pair order, is
    below p.

    The draws come from bernoulli.  Rows are taken in blocks of a multiple
    of 8 rows holding about GNP_CHUNK pairs (at least 8 rows), one bulk
    draw each; a block's upper-triangle bits are packed into its rows and,
    transposed, into its byte columns of every row, so no temporary grows
    with n**2.
    """
    rng = random.Random(seed)
    bits = np.zeros((n, -(-n // 8)), np.uint8)
    step = max(8, GNP_CHUNK // max(n, 1) & ~7)
    for a in range(0, n, step):
        b = min(a + step, n)
        size = (b - a) * (2 * n - a - b - 1) // 2  # pairs (u, v), a <= u < b, u < v
        # drawn before the block is allocated, so the block reuses the memory
        # the draw's temporaries freed (about half the page faults)
        draws = bernoulli(rng, size, p)
        block = np.zeros((b - a, n), bool)
        block[np.arange(n) > np.arange(a, b)[:, None]] = draws
        bits[a:b] |= np.packbits(block, axis=1, bitorder="little")
        bits[:, a >> 3:-(-b // 8)] |= np.packbits(block.T, axis=1, bitorder="little")
    return list(map(int.from_bytes, bits, repeat("little")))


def generate(model: str, *, n: int | None = None, p: float = 0.5,
             q: int | None = None, seed: int = 0) -> Graph:
    """Deterministic graph generators: gnp, paley, complete, empty."""
    if model == "gnp":
        if n is None or n < 0:
            raise ParameterError("gnp requires n >= 0")
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"gnp requires p in [0,1], got {p}")
        return Graph(n, _gnp_rows(n, p, seed), _checked=True)
    if model == "paley":
        if q is None:
            raise ParameterError("paley requires q")
        if not _is_prime(q) or q % 4 != 1:
            raise ParameterError(f"paley requires a prime q = 1 mod 4, got {q}")
        residues = 0
        for x in range(1, q):
            residues |= 1 << (x * x % q)
        rows = []
        for u in range(q):
            row = 0
            for v in range(q):
                if v != u and (residues >> ((u - v) % q)) & 1:
                    row |= 1 << v
            rows.append(row)
        return Graph(q, rows, _checked=True)
    if model == "complete":
        if n is None or n < 0:
            raise ParameterError("complete requires n >= 0")
        full = (1 << n) - 1
        return Graph(n, (full & ~(1 << v) for v in range(n)), _checked=True)
    if model == "empty":
        if n is None or n < 0:
            raise ParameterError("empty requires n >= 0")
        return Graph(n, (0,) * n, _checked=True)
    raise ParameterError(f"unknown model {model!r}")


def load_graph(text: str, max_n: int | None = None) -> Graph:
    """Parse the edge-list format: first line "n <N>", then one "u v" per line.

    Blank lines and lines starting with '#' are ignored.  A header above
    max_n is a CapacityError, raised before any row is built.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise GraphParseError(f"line {lineno}: expected header 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad vertex count {parts[1]!r}")
            if n < 0:
                raise GraphParseError(f"line {lineno}: negative vertex count")
            if max_n is not None and n > max_n:
                raise CapacityError(f"graph declares n={n}, above the cap {max_n}")
            continue
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer endpoint in {line!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: endpoint out of range in {line!r}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop {u}")
        edges.append((u, v))
    if n is None:
        raise GraphParseError("empty input: missing 'n <count>' header")
    return from_edges(n, edges)


def dump_graph(g: Graph) -> str:
    """Inverse of load_graph: header plus sorted edge lines."""
    lines = [f"n {g.n}"]
    for u in range(g.n):
        row = g.adj[u] >> (u + 1) << (u + 1)  # edges to higher-numbered vertices
        for v in iter_bits(row):
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"

