"""Exact induced-subgraph size spectra for small graphs.

phi_exact and psi_exact share one meet-in-the-middle kernel.  The vertices
split into a low block of b = min(n, ceil(n/2) + 1) vertices and a high
block of the rest.  Edge counts of all 2^b low subsets are built by
doubling, and each high vertex gets one row of neighbour counts into those
subsets, all rows one intp array.  A reflected-Gray-code walk over the
2^(n-b) high subsets then adds or subtracts one such row per step and marks
every sum in a numpy table at once: indexed by edge count for Phi, by
(order, edge count) for Psi.  The same doubling over the high block gives
each step's offset and index range up front, in one table, so the Python
loop only tests, moves and marks.  A Phi step whose whole index range is
already marked is skipped (see _seen_table); on G(n, 1/2) that is most
steps.  The kernel is single-threaded; its output depends only on the
graph.  phi_naive/psi_naive recount every subset from scratch and exist
only to cross-check the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RamspectError, _require_cap
from .graph_core import Graph

PHI_EXACT_CAP = 30
PHI_NAIVE_CAP = 20
# rough throughputs behind the capacity message's time estimate; the exact
# one is the walk's rate with no step skipped, the worst case (K_n, or Psi)
EXACT_SUBSETS_PER_S = 2e8
NAIVE_SUBSETS_PER_S = 5e5


@dataclass(frozen=True)
class SizeSpectrum:
    """Sorted set of achievable induced-subgraph edge counts of one graph."""

    n: int
    sizes: tuple

    def __post_init__(self):
        top = self.n * (self.n - 1) // 2
        if not self.sizes or self.sizes[0] != 0:
            raise ParameterError("a size spectrum always contains 0 (empty subgraph)")
        for a, b in zip(self.sizes, self.sizes[1:]):
            if a >= b:
                raise ParameterError("spectrum sizes must be strictly increasing")
        if self.sizes[-1] > top:
            raise ParameterError(f"size {self.sizes[-1]} exceeds C({self.n},2)={top}")


def _require_order(op: str, n: int, cap: int, per_s: float) -> None:
    # 2^n / per_s as mantissa and decimal exponent, without building 2^n
    exp10 = n * math.log10(2) - math.log10(per_s)
    whole = math.floor(exp10)
    _require_cap(f"{op} n", n, cap, f"its walk over all 2^{n} subsets would take "
                 f"~{10 ** (exp10 - whole):.1f}e{whole} s")


def _block_sums(nbrs: list, weights: list) -> np.ndarray:
    """Entry S is e(S) + sum of weights[j] over j in S, for every subset S of
    a block of len(nbrs) vertices, vertex j's neighbours in the block being
    the bit mask nbrs[j].  By doubling: adding j to a set S of lower vertices
    adds |N(j) & S| + weights[j]."""
    sets = np.arange(1 << len(nbrs))
    out = np.zeros(1 << len(nbrs), dtype=np.intp)
    for j, (row, w) in enumerate(zip(nbrs, weights)):
        half = 1 << j
        out[half:2 * half] = out[:half] + np.bitwise_count(sets[:half] & (row & (half - 1)))
        out[half:2 * half] += w
    return out


def _seen_table(g: Graph, stride: int) -> np.ndarray:
    """Boolean table marking |U|*stride + e(U) for every vertex subset U.

    stride 0 gives the size spectrum; stride C(n,2)+1 gives (order, size)
    pairs.  Each subset is a low part S of the first b vertices and a high
    part T of the other h = n - b, and e(S u T) = e(S) + e(T) +
    sum_{v in T} |N(v) & S|.  The 2^b low indices |S|*stride + e(S) are one
    vector, acc, and each high vertex v has one vector of |N(v) & S|, a row
    of counts.  A Gray walk over T adds or subtracts one row per step and
    marks acc shifted by base = |T|*stride + e(T).

    Everything a step needs apart from acc is one precomputed table over
    the 2^h - 1 steps: step s visits T = s ^ (s >> 1), and base and, for
    Phi, the range end come from _block_sums over the high block.  Step T
    marks only in [base, base + top]: top is acc's entry for the whole low
    block, its largest, so base + top is the index of the whole low block
    plus T.  A Phi step whose range is all marked would change nothing and
    is skipped; acc catches up on the skipped flips at the next marking
    step, so it moves no more often than in a walk that marks every step.
    Psi never skips: top >= stride, so its range holds (|T|, C(|T|,2) + 1),
    never marked.  The counts are intp, acc's own dtype, since numpy adds
    mixed dtypes as a buffered cast at about three times the cost.
    """
    n = g.n
    b = min(n, (n + 1) // 2 + 1)
    low_mask = (1 << b) - 1
    acc = _block_sums(g.adj[:b], [stride] * b)
    counts = np.arange(1 << b) & np.array([row & low_mask for row in g.adj[b:]],
                                          dtype=np.intp).reshape(-1, 1)
    np.bitwise_count(counts, out=counts)
    high = [row >> b for row in g.adj[b:]]
    gray = np.arange(1, 1 << len(high))
    gray ^= gray >> 1
    bases = _block_sums(high, [stride] * len(high))[gray].tolist()
    # one past base + top, top being acc[-1] plus |N(v) & low block| for v in T;
    # only Phi reads it, since Psi never skips
    ends = bases if stride else (_block_sums(high, (stride + counts[:, -1]).tolist())[gray]
                                 + (int(acc[-1]) + 1)).tolist()
    # seen views a bytearray, so marks.find can look for the first unmarked entry
    marks = bytearray(n * stride + n * (n - 1) // 2 + 1)
    seen = np.frombuffer(marks, dtype=np.bool_)
    seen[acc] = True
    held = 0
    for t, base, end in zip(gray.tolist(), bases, ends):
        if not stride and marks.find(0, base, end) < 0:
            continue
        flips, held = t ^ held, t  # high vertices flipped since acc last marked
        while flips:
            j = (flips & -flips).bit_length() - 1
            flips ^= 1 << j
            if t >> j & 1:
                acc += counts[j]
            else:
                acc -= counts[j]
        seen[base:][acc] = True
    if (len(gray) + 1) << b != 1 << n:
        raise RamspectError(f"block walk covered {len(gray) + 1}*2^{b} subsets, expected 2^{n}")
    return seen


def phi_exact(g: Graph) -> SizeSpectrum:
    """The full spectrum {e(H) : H induced subgraph of g}, computed exactly."""
    _require_order("phi_exact", g.n, PHI_EXACT_CAP, EXACT_SUBSETS_PER_S)
    return SizeSpectrum(g.n, tuple(np.flatnonzero(_seen_table(g, 0)).tolist()))


def phi_naive(g: Graph) -> SizeSpectrum:
    """Reference oracle: the size projection of psi_naive."""
    _require_order("phi_naive", g.n, PHI_NAIVE_CAP, NAIVE_SUBSETS_PER_S)
    return SizeSpectrum(g.n, tuple(sorted({e for _, e in psi_naive(g)})))


def psi_exact(g: Graph) -> tuple:
    """All achievable (order, size) pairs over induced subgraphs, sorted."""
    _require_order("psi_exact", g.n, PHI_EXACT_CAP, EXACT_SUBSETS_PER_S)
    stride = g.n * (g.n - 1) // 2 + 1
    flat = np.flatnonzero(_seen_table(g, stride)).tolist()
    return tuple(divmod(i, stride) for i in flat)


def psi_naive(g: Graph) -> tuple:
    """Reference oracle: recounts the edges of every subset from scratch."""
    _require_order("psi_naive", g.n, PHI_NAIVE_CAP, NAIVE_SUBSETS_PER_S)
    adj = g.adj
    seen = set()
    bc = int.bit_count
    for mask in range(1 << g.n):
        e = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            e += bc(adj[low.bit_length() - 1] & m)  # edges to still-unprocessed bits
        seen.add((bc(mask), e))
    return tuple(sorted(seen))

