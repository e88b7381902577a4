"""Bit-packed graph primitives.

A graph on n vertices is stored as one Python integer per vertex: bit u of
``adj[v]`` is set iff uv is an edge.  Arbitrary-precision ints give branch-free
AND/XOR row operations and popcounts via ``int.bit_count``.  Loops over many
row pairs run on a packed view instead: pack_rows lays a list of rows out as
an (k, ceil(n/64)) array of little-endian uint64 words, and popcount sums
``np.bitwise_count`` over the words of each row.  Int masks become packed
words, bool arrays or 0/1 matrices, and back, only in this module:
pack_rows and bit_matrix turn int rows into words and 0/1 matrices, and one
conversion, _int_rows, the inverse of pack_rows, turns little-endian packed
bytes back into int rows for mask_from_bools, the gnp generator and
induced_subgraph.

Counts over many sets at once are 0/1 matrix products, and one private
function, _product, converts 0/1 matrices to float32 and multiplies them.
It hands a Gram a @ a.T to BLAS as a gemm against a contiguous copy of
a.T, not as the syrk numpy would choose.  GRAM_EXACT_CAP carries its
exactness argument, and _require_exact, its only reader, passes it to the
package's one capacity rule, errors._require_cap.  Three kernels call
_product: pair_gaps, every multiset gap |A| + |B| - 2|A & B| of a unit
family from one Gram product; count_edges_many, edge counts of many vertex
sets over the adjacency matrix of their union, which per_m_run uses only
to recount its emitted sizes from scratch; and neighbor_counts, the
counts |N(v) & M| of every vertex v into each of many sets M of the first
c columns (all n of them, or a prefix that a screen reads first), a chunk
of adjacency rows at a time against the sets' matrix, converted to
float32 once for all the chunks.

The close-complement test |N(a) symdiff N_bar(b)| >= thr on an arbitrary
list of pairs, such as a degree-sum bucket, is one popcount kernel,
complement_gap_at_least: the bits past a prefix of each row can lower the
gap by at most their count, so a prefix whose lower bound reaches thr
settles the pair, and only the other pairs read their whole rows.  Counts
over all pairs need no gather: they broadcast one packed row against the
rows after it (see structure_audit.pair_audit).  Every counting routine in
this package reduces to a popcount or to a _product.

Vertex sets are plain int bitmasks throughout ("mask" in signatures).  A Unit
is either a single vertex or an unordered pair of distinct vertices; pair
neighborhoods are multisets (multiplicities in {0,1,2}) and all unit-level
quantities (degrees, symmetric differences) honor multiplicity.

Complement neighborhoods follow the complement graph: N_bar(v) excludes v
itself as well as N(v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ContractViolation, GraphParseError, ParameterError, _require_cap
from .seeding import bernoulli_blocks, stream


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


ROW_CHUNK = 256  # adjacency rows unpacked at a time: induced_subgraph, neighbor_counts


def induced_subgraph(g: Graph, mask: int) -> tuple[Graph, list[int]]:
    """Induced subgraph on the masked vertices, renumbered to 0..k-1.

    Returns (subgraph, vertex_map) where vertex_map[i] is the original id of
    subgraph vertex i.  The kept rows are copied ROW_CHUNK at a time: unpacked
    to 0/1 columns, cut to the kept columns, and packed back into int rows,
    so no k x n array is built.
    """
    if mask & ~g.full_mask:
        raise ParameterError("mask has bits outside the vertex range")
    vmap = list(iter_bits(mask))
    cols = np.array(vmap, dtype=np.intp)
    rows = []
    for s in range(0, len(vmap), ROW_CHUNK):
        bits = bit_matrix([g.adj[v] for v in vmap[s:s + ROW_CHUNK]], g.n)[:, cols]
        rows += _int_rows(np.packbits(bits, axis=1, bitorder="little"))
    return Graph(len(vmap), rows, _checked=True), vmap


# ── packed rows ──────────────────────────────────────────────────────────


def pack_rows(rows, n: int) -> np.ndarray:
    """(len(rows), ceil(n/64)) uint64 array; word w of row i holds bits
    64w..64w+63 of rows[i], least significant first."""
    nbytes = 8 * -(-n // 64)
    buf = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    return np.frombuffer(buf, dtype="<u8").reshape(len(rows), nbytes // 8)


def _int_rows(packed: np.ndarray) -> list[int]:
    """The int rows that the rows of a 2-D array of little-endian packed
    bytes hold (byte b, bit j of a row is bit 8b + j), the inverse of
    pack_rows.  Viewed as one void item a row, the array's tolist() is one
    bytes object a row, which int.from_bytes reads without a buffer copy."""
    width = packed.shape[1]
    if not width:  # a void item holds at least one byte
        return [0] * len(packed)
    rows = np.ascontiguousarray(packed).view(f"V{width}")
    return list(map(int.from_bytes, rows.ravel().tolist(), repeat("little")))


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
    the given word count: ceil(2*thr/64) + 1, which clears thr when about
    half of the bits differ, one word for any thr <= 0 (-inf included), or
    all the words when that is not fewer (a huge thr included)."""
    return words if not 2 * thr / 64 + 1 < words else math.ceil(2 * max(thr, 0) / 64) + 1


def complement_gap_at_least(rows: np.ndarray, a: np.ndarray, b: np.ndarray, n: int,
                            thr: float) -> np.ndarray:
    """Bool array: |N(a) symdiff N_bar(b)| >= thr for each pair of vertex
    indices a[i], b[i] (integer arrays), over the packed adjacency rows of
    an n-vertex graph.

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
        # intp once per chunk: np.take would convert narrower indices per
        # call, and the flat word offsets below must not wrap in int32
        ca, cb = (np.asarray(x[s:s + GAP_CHUNK], dtype=np.intp) for x in (a, b))
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
        return mask_of(self.vertices)


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


# _product multiplies 0/1 matrices in float32, which holds every integer of
# magnitude at most 2**24 exactly.  Each entry of a product counts the common
# ones of two rows of at most 2n columns, so it is at most 2n.  The callers
# add and subtract such entries only while the result stays within 2n,
# double them (exact in binary floating point) or sum them in float64 (exact
# below 2**53).  So every count is exact while 2n <= 2**24, and
# _require_exact refuses larger graphs before any row is read.
GRAM_EXACT_CAP = 1 << 23


def _require_exact(op: str, n: int) -> None:
    _require_cap(f"{op} n", n, GRAM_EXACT_CAP, "its float32 product is exact only up to the cap")


def _product(a: np.ndarray, b: np.ndarray | None = None, out=None) -> np.ndarray:
    """a @ b.T of two 0/1 matrices (a @ a.T when b is None) as a float32
    array, which numpy hands to BLAS; exact within GRAM_EXACT_CAP.  An
    operand that is float32 already is used as it is.  A Gram goes to BLAS
    as a gemm against a contiguous copy of a.T: numpy would send a @ a.T to
    syrk, which is slower at these shapes."""
    a = a.astype(np.float32, copy=False)
    bt = np.ascontiguousarray(a.T) if b is None else b.astype(np.float32, copy=False).T
    return np.matmul(a, bt, out=out)


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 uint8 rows of n bits that packed word rows hold."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little")


def bit_matrix(masks, n: int) -> np.ndarray:
    """(len(masks), n) uint8 array of 0/1: entry (i, v) is bit v of masks[i]."""
    return _unpack(pack_rows(masks, n), n)


def pair_gaps(g: Graph, units, umask: int | None = None) -> np.ndarray:
    """k x k float32 matrix whose (i, j) entry is
    symdiff_size(g, units[i], units[j], umask).

    With S the support (multiplicity >= 1) and D the doubled part of a
    unit's neighborhood, the multiset gap is |S_x symdiff S_y| +
    |D_x symdiff D_y|, the symmetric difference of the rows that lay S and
    D side by side (D is left out when every unit is a single).  Each is
    |A| + |B| - 2|A & B| over 0/1 rows restricted to umask's columns, the
    intersections one Gram product.  Compare entries against a float
    threshold in float64 (an np.float64 scalar), since a Python float would
    be rounded to float32.
    """
    _require_exact("pair_gaps", g.n)
    rows = [unit_rows(g, x) for x in units]
    width = g.n
    if umask is not None:
        # rows cut to umask have no bit past its top one: a prefix umask
        # such as (1 << h) - 1 unpacks and multiplies h columns only
        rows = [(m1 & umask, m2 & umask) for m1, m2 in rows]
        width = umask.bit_length()
    shift = width if any(x.is_pair for x in units) else 0
    bits = bit_matrix([m1 | m2 | m2 << shift for m1, m2 in rows], width + shift)
    if umask is not None:
        bits = bits[:, bit_matrix([umask | umask << shift], width + shift)[0].astype(bool)]
    gaps = _product(bits)
    sizes = gaps.diagonal().copy()
    gaps *= -2
    gaps += sizes[:, None]
    gaps += sizes
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

    With A the 0/1 adjacency matrix of the masks' union and m a mask's 0/1
    row over the union, the popcounts |N(v) & mask| are the entries of
    m @ A, one product for all masks; each count is the sum of those
    entries over the mask's vertices, halved, taken in float64.
    """
    _require_exact("count_edges_many", g.n)
    member = bit_matrix(list(masks), g.n)
    verts = np.flatnonzero(member.any(axis=0))
    m = member[:, verts]
    adj = bit_matrix([g.adj[v] for v in verts.tolist()], g.n)[:, verts]
    twice = (_product(m, adj) * m).sum(axis=1, dtype=np.float64)
    return (twice.astype(np.int64) // 2).tolist()


def neighbor_counts(rows: np.ndarray, member: np.ndarray) -> np.ndarray:
    """(n, k) float32 array whose entry (v, i) is |N(v) & M_i|, for k vertex
    sets M_i of the first c columns given as the 0/1 rows of member (k, c
    uint8, as bit_matrix(masks, c) returns), over the packed adjacency rows
    of an n-vertex graph, c <= n: with c < n, the counts over a prefix of
    the columns.

    The counts are A @ member.T for the 0/1 adjacency matrix A cut to its
    first c columns, one product per block of ROW_CHUNK rows unpacked
    at a time, so no n x n matrix is built.
    """
    k, c = member.shape
    n = len(rows)
    _require_exact("neighbor_counts", n)
    member = member.astype(np.float32)
    prefix = rows[:, :-(-c // 64)]
    out = np.empty((n, k), dtype=np.float32)
    for v in range(0, n, ROW_CHUNK):
        _product(_unpack(prefix[v:v + ROW_CHUNK], c), member,
                 out=out[v:v + ROW_CHUNK])
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


def mask_from_bools(bits: np.ndarray) -> int:
    """The int mask whose bit v is set iff bits[v]."""
    return _int_rows(np.packbits(bits, bitorder="little")[None])[0]


GNP_CHUNK = 1 << 18  # pairs per row block of the gnp generator
_BIT_WEIGHTS = 1 << np.arange(8, dtype=np.uint8)  # row 8i + j of a block is bit j of byte i


def _gnp_rows(n: int, p: float, seed: int) -> list[int]:
    """Adjacency rows in which pair (u, v) is an edge iff its draw of
    ``stream(seed).random()``, taken in row-major pair order, is below p.

    The draws come from seeding.bernoulli_blocks, one array per block of
    rows, a multiple of 8 rows holding about GNP_CHUNK pairs (at least 8
    rows); from n = 257 on all of them are read through one MT19937.  A
    block's upper-triangle bits are packed into its rows and, each 8 rows
    weighted 1, 2, ..., 128 and summed, into its byte columns of every
    row, so no temporary grows with n**2.
    """
    bits = np.zeros((n, -(-n // 8)), np.uint8)
    column = np.arange(n, dtype=np.min_scalar_type(n))  # the narrowest compares fastest
    step = max(8, GNP_CHUNK // max(n, 1) & ~7)
    sizes = [(b - a) * (2 * n - a - b - 1) // 2  # pairs (u, v), a <= u < b, u < v
             for a in range(0, n, step) for b in (min(a + step, n),)]
    # each block's draws are made before the block is allocated, so the
    # block reuses the memory the draw's temporaries freed
    a = 0
    for draws in bernoulli_blocks(stream(seed), sizes, p):
        b = min(a + step, n)
        block = np.zeros((-(-(b - a) // 8) * 8, n), np.uint8)
        rows = block[:b - a]
        rows[column > column[a:b, None]] = draws
        # the block's byte columns are still zero from row a down (earlier
        # blocks wrote rows above a and byte columns left of a >> 3), so
        # its column bytes are written into them, not or-ed
        np.einsum("j,ijk->ki", _BIT_WEIGHTS, block.reshape(-1, 8, n)[:, :, a:],
                  out=bits[a:, a >> 3:-(-b // 8)])
        bits[a:b] |= np.packbits(rows, axis=1, bitorder="little")
        a = b
    return _int_rows(bits)


GRAPH_MODELS = ("gnp", "paley", "complete", "empty")


def generate(model: str, *, n: int, p: float = 0.5, seed: int = 0) -> Graph:
    """Deterministic graph generators, one per name in GRAPH_MODELS, each on
    n vertices; paley takes a prime n = 1 mod 4, and only gnp reads p and
    seed."""
    if model not in GRAPH_MODELS:
        raise ParameterError(f"unknown model {model!r}")
    if n < 0:
        raise ParameterError(f"{model} requires n >= 0")
    if model == "paley":
        if not _is_prime(n) or n % 4 != 1:
            raise ParameterError(f"paley requires a prime n = 1 mod 4, got {n}")
        residues = 0
        for x in range(1, n):
            residues |= 1 << (x * x % n)
        # -1 is a residue mod n, so v ~ u iff v - u is one: row u is the
        # residue row rotated left by u within n bits
        full = (1 << n) - 1
        return Graph(n, (((residues << u) | (residues >> (n - u))) & full
                         for u in range(n)), _checked=True)
    if model == "gnp":
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"gnp requires p in [0,1], got {p}")
        return Graph(n, _gnp_rows(n, p, seed), _checked=True)
    if model == "complete":
        full = (1 << n) - 1
        return Graph(n, (full & ~(1 << v) for v in range(n)), _checked=True)
    return Graph(n, (0,) * n, _checked=True)


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
            if max_n is not None:
                _require_cap("graph header n", n, max_n)
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

