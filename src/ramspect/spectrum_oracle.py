"""Exact induced-subgraph size spectra for small graphs.

phi_exact and psi_exact share one meet-in-the-middle kernel.  The vertices
split into a low block of b = min(n, ceil(n/2) + 1) vertices and a high
block of the rest.  Edge counts of all 2^b low subsets are built by
doubling, and each high vertex gets one vector of neighbour counts into
those subsets.  A reflected-Gray-code walk over the 2^(n-b) high subsets
then adds or subtracts one such vector per step and marks every sum in a
numpy table at once: indexed by edge count for Phi, by (order, edge count)
for Psi.  A Phi step whose whole index range is already marked is skipped
(see _seen_table); on G(n, 1/2) that is most steps.  The kernel is
single-threaded; its output depends only on the graph.  phi_naive/psi_naive
recount every subset from scratch and exist only to cross-check the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError, RamspectError
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


def _require_cap(n: int, cap: int, op: str, per_s: float = EXACT_SUBSETS_PER_S):
    if n > cap:
        # 2^n / per_s as mantissa and decimal exponent, without building 2^n
        exp10 = n * math.log10(2) - math.log10(per_s)
        whole = math.floor(exp10)
        raise CapacityError(
            f"{op} is exact over all 2^n subsets and is capped at n={cap}; "
            f"n={n} would take ~2^{n} steps (~{10 ** (exp10 - whole):.1f}e{whole} s)"
        )


def _seen_table(g: Graph, stride: int) -> np.ndarray:
    """Boolean table marking |U|*stride + e(U) for every vertex subset U.

    stride 0 gives the size spectrum; stride C(n,2)+1 gives (order, size)
    pairs.  Each subset is a low part S of the first b vertices and a high
    part T of the rest, and e(S u T) = e(S) + e(T) + sum_{v in T} |N(v) & S|.
    The 2^b low terms are one vector; a Gray walk over T adds or subtracts
    one neighbour-count vector per step and marks the vector shifted by the
    high part's own contribution.

    Step T marks only in [base, base + top]: base = |T|*stride + e(T) for S
    empty, top the vector's entry for the whole low block, its largest.  A
    Phi step whose range is all marked would change nothing and is skipped;
    the vector catches up on the skipped flips at the next marking step, so
    it moves no more often than in a walk that marks every step.  Psi never
    skips: top >= stride, so its range holds (|T|, C(|T|,2) + 1), never marked.
    """
    n = g.n
    b = min(n, (n + 1) // 2 + 1)
    low = np.arange(1 << b)
    # acc is the index vector itself, intp so no scatter casts it; the
    # per-vertex count vectors, the bulk of the memory, are int16
    acc = np.zeros(1 << b, dtype=np.intp)
    for j in range(b):  # e(S + j) = e(S) + |N(j) & S| for S below j
        half = 1 << j
        nbrs = g.adj[j] & (half - 1)
        acc[half:2 * half] = acc[:half] + np.bitwise_count(low[:half] & nbrs)
    acc += stride * np.bitwise_count(low).astype(np.intp)
    counts = [np.bitwise_count(low & (row & ((1 << b) - 1))).astype(np.int16)
              for row in g.adj[b:]]
    # seen views a bytearray, so marks.find can look for the first unmarked entry
    marks = bytearray(n * stride + n * (n - 1) // 2 + 1)
    seen = np.frombuffer(marks, dtype=np.bool_)
    seen[acc] = True
    high = [row >> b for row in g.adj[b:]]
    lowdeg = [int(c[-1]) for c in counts]
    top = int(acc[-1])
    cur = held = e = k = 0
    steps = 1
    for s in range(1, 1 << (n - b)):
        i = (s & -s).bit_length() - 1
        cur ^= 1 << i
        d = (high[i] & cur).bit_count()
        if cur >> i & 1:
            e, k, top = e + d, k + 1, top + lowdeg[i]
        else:
            e, k, top = e - d, k - 1, top - lowdeg[i]
        steps += 1
        base = k * stride + e
        if not stride and marks.find(0, base, base + top + 1) < 0:
            continue
        flips, held = cur ^ held, cur  # high vertices flipped since acc last marked
        while flips:
            j = (flips & -flips).bit_length() - 1
            flips ^= 1 << j
            if cur >> j & 1:
                acc += counts[j]
            else:
                acc -= counts[j]
        seen[base:][acc] = True
    if steps << b != 1 << n:
        raise RamspectError(f"block walk covered {steps}*2^{b} subsets, expected 2^{n}")
    return seen


def phi_exact(g: Graph, cap: int = PHI_EXACT_CAP) -> SizeSpectrum:
    """The full spectrum {e(H) : H induced subgraph of g}, computed exactly."""
    _require_cap(g.n, cap, "phi_exact")
    return SizeSpectrum(g.n, tuple(np.flatnonzero(_seen_table(g, 0)).tolist()))


def phi_naive(g: Graph, cap: int = PHI_NAIVE_CAP) -> SizeSpectrum:
    """Reference oracle: the size projection of psi_naive."""
    _require_cap(g.n, cap, "phi_naive", NAIVE_SUBSETS_PER_S)
    return SizeSpectrum(g.n, tuple(sorted({e for _, e in psi_naive(g, cap)})))


def psi_exact(g: Graph, cap: int = PHI_EXACT_CAP) -> tuple:
    """All achievable (order, size) pairs over induced subgraphs, sorted."""
    _require_cap(g.n, cap, "psi_exact")
    stride = g.n * (g.n - 1) // 2 + 1
    flat = np.flatnonzero(_seen_table(g, stride)).tolist()
    return tuple(divmod(i, stride) for i in flat)


def psi_naive(g: Graph, cap: int = PHI_NAIVE_CAP) -> tuple:
    """Reference oracle: recounts the edges of every subset from scratch."""
    _require_cap(g.n, cap, "psi_naive", NAIVE_SUBSETS_PER_S)
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

