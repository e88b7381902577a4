"""Randomized construction of a degree-structured scaffold.

Given a dense graph and a target edge count m, build a tuple
(U0, S, T, X, d): a random vertex set U0 with e(U0) close to 4m, plus three
disjoint families of units (single vertices or pairs) that avoid U0, whose
degrees into U0 sit in a narrow window around d = p*d'', with every T unit
strictly above every S unit by a guaranteed integer gap, and with the X
units pairwise far apart in their U0-neighborhoods.

Stages: bucket vertex pairs by degree sum and keep the fullest bucket;
drop pairs whose neighborhoods nearly complement each other; extract either
a star (many bucket pairs through one vertex) or a large matching; thin the
survivors to units with pairwise far neighborhoods (greedy independent set
in a conflict graph, Turan bound checked); then repeatedly sample U0 with
per-vertex probability p = sqrt(4m/e(G)) until five concentration events
hold, and read S, T, X off the degree order, keeping one unit per degree.

The bucket travels as one C-contiguous (2, k) int32 array of vertex
pairs, first vertices in row 0 and second ones in row 1, so every pair
stage reads whole contiguous rows.  The pair stages run on numpy.  The
bucket sizes come from the degree histogram convolved with itself, so only
the fullest bucket's pairs are listed, read off a bool mask per block of
rows.  The close-complement filter is graph_core.complement_gap_at_least
on packed uint64 rows, which settles most pairs from a prefix of their
words.  The bucket's columns are in lexicographic order, so the star
degrees count the sorted first row with np.searchsorted and the second
with np.bincount, and the anchor's partners past it are one slice.  The
unit-pair stages, the conflict graph and event (4) of U0 sampling, read
all gaps off graph_core.pair_gaps matrices (float32 Gram products, exact
for integer counts) and compare them with their float thresholds in
float64.
The conflict graph is screened on a prefix of the columns first, as the
close-complement filter is: a gap over the prefix is at most the whole
gap, so only the units in a pair whose prefix gap falls below the
threshold are recounted over whole rows.  Every decision is thus an exact
integer comparison, so the results equal those of the int-row loops the
tests keep as references.

The target m must lie in the m-window, the integers m >= 1 with
c*n^2 <= m <= 2c*n^2 for c = c_density.  m_window states it once, with its
default midpoint and its two refusals, of a window beyond float range and
of a window that holds no m: construct's entry check,
double_exposure.theorem_run's sweep and the CLI's default m all read it
there.

All the asymptotic constants are explicit knobs on ConstructionParams with
defaults tuned for dense random graphs at desk scale; every resolved value
is echoed in the result diagnostics so runs are self-describing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConstructionFailure, ContractViolation, ParameterError, _require
from .graph_core import (Graph, Unit, check_disjoint_units, complement_gap_at_least,
                         count_edges, iter_bits, mask_from_bools, mask_of, pack_rows,
                         pair_gaps, popcount, prefix_words, unit_degree, unit_rows)
from .seeding import bernoulli, derive_seed, randbelow, stream
from .structure_audit import AuditParams, rich_extract

PAIR_ENUM_CAP = 3000
DENSITY_FACTOR = 800.0


@dataclass(frozen=True)
class ConstructionParams:
    """Knobs for the scaffold pipeline; None fields resolve at run time."""

    epsilon: float = 0.2
    delta: float = 0.3
    c_density: float = 0.0003
    bucket_width: int | None = None      # None -> ceil(sqrt(n))
    theta_compl: float | None = None     # None -> epsilon/2
    theta_conflict: float | None = None  # None -> epsilon^2/4
    star_coeff: float = 0.25             # star floor   = star_coeff  * n^(3/4)
    match_coeff: float = 0.25            # match floor  = match_coeff * n^(3/4)
    kappa1: float = 0.2     # e(U0) window, units of n^(3/2)
    kappa2: float = 1.5     # degree window, units of sqrt(n)
    kappa3: float | None = None   # pairwise symdiff floor, units of n; None -> p*theta_conflict/3
    kappa4: float | None = None   # collision budget, units of sqrt(n); None -> 3x analytic
    kappa5: float = 0.02    # recorded floor d >= kappa5*n (not enforced)
    a_cap_coeff: float = 4.0      # |A| kept to at most a_cap_coeff*sqrt(n)
    density_factor: float = DENSITY_FACTOR  # entry check e(G) >= density_factor*c*n^2
    pair_enum_cap: int = PAIR_ENUM_CAP
    pair_sample_coeff: float = 10.0
    retry_max: int = 40
    rich_prepass: bool = True
    c_div: float = 0.1      # audit pass-through
    audit_budget: int = 200
    k_rounds: int = 8
    seed: int = 0

    def __post_init__(self):
        # epsilon and the other audit fields are AuditParams' to check
        _require("positive", vars(self), "c_density", "density_factor", "kappa1", "kappa2",
                 "kappa5", "star_coeff", "match_coeff", "a_cap_coeff", "pair_sample_coeff")
        _require("count", vars(self), "bucket_width", "retry_max")
        _require("number", vars(self), "theta_compl", "theta_conflict", "kappa3", "kappa4")
        self.audit_params()  # the audit fields fail here, not in every theorem window

    def audit_params(self) -> AuditParams:
        return AuditParams(epsilon=self.epsilon, delta=self.delta, c_div=self.c_div,
                           sample_budget=self.audit_budget,
                           k_rounds=self.k_rounds, seed=derive_seed(self.seed, "audit"))


class MWindow(NamedTuple):
    lo: int
    hi: int
    mid: int


def m_window(params: ConstructionParams, n: int) -> MWindow:
    """The edge-count targets m that n vertices admit, as (lo, hi, mid).

    The admissible m are the integers with c*n^2 <= m <= 2c*n^2, c =
    c_density, and m >= 1: lo = max(1, ceil(c*n^2)) and hi = floor(2c*n^2).
    mid = round(1.5c*n^2) is the default target.  construct, theorem_run
    and the CLI read the window from here alone, so a window beyond float
    range, or one that holds no m (lo > hi), is refused here alone, in the
    same words for every command.
    """
    c = params.c_density
    if not 2 * c * n * n < math.inf:
        raise ParameterError(f"c_density={c} puts the m window beyond float range at n={n}")
    lo, hi = max(1, math.ceil(c * n * n)), math.floor(2 * c * n * n)
    if lo > hi:
        raise ParameterError(f"empty m range [{lo}, {hi}]")
    return MWindow(lo, hi, round(1.5 * c * n * n))


@dataclass(frozen=True)
class ConstructionResult:
    mode: str               # "star" | "matching"
    anchor: int | None      # star center in original vertex ids
    u0_mask: int
    a_units: tuple
    s_units: tuple
    t_units: tuple
    x_units: tuple
    d: float                # p * d_doubleprime
    d_prime: int
    d_doubleprime: int
    p: float
    gap_floor: int
    kappa3: float           # resolved pairwise-symdiff floor coefficient
    working_n: int          # vertex count the thresholds were computed against
    diagnostics: dict = field(compare=False, default_factory=dict)

    def all_units(self) -> tuple:
        return self.s_units + self.t_units + self.x_units


def _bucket_sizes(degs: np.ndarray, w: int) -> np.ndarray:
    """Pairs a < b in each width-w degree-sum bucket, counted from the degree
    histogram: its self convolution counts ordered pairs by degree sum, a = b
    included, and those add hist[d] at the even sum 2d."""
    lo = int(degs.min())
    hist = np.bincount(degs - lo)
    by_sum = np.convolve(hist, hist)
    by_sum[::2] -= hist
    by_sum = np.concatenate([np.zeros(2 * lo, np.int64), by_sum // 2])
    return np.add.reduceat(by_sum, np.arange(0, len(by_sum), w))


BUCKET_BLOCK = 1 << 16  # mask cells per row block of the bucket enumeration


def _bucket_pairs(degs: np.ndarray, lo: int, w: int, size: int) -> np.ndarray:
    """(2, size) int32 array of the pairs a < b with lo <= deg a + deg b <
    lo + w, first vertices in row 0 and second ones in row 1, in
    lexicographic order: for each block of rows a, one bool mask over the
    columns b > a, read row-major.  The first vertices repeat each row by
    its hit count; the second ones are the mask's flat hit indices less
    their row's start."""
    n = len(degs)
    d32 = degs.astype(np.int32)
    off = d32 - np.int32(lo)
    cols = np.arange(n, dtype=np.int32)
    out = np.empty((2, size), dtype=np.int32)
    at = 0
    step = max(1, BUCKET_BLOCK // n)
    for s in range(0, n - 1, step):
        e, c = min(s + step, n - 1), s + 1
        # 0 <= deg a + deg b - lo < w as one unsigned comparison
        hit = (d32[c:] + off[s:e, None]).view(np.uint32) < w
        hit &= cols[c:] > cols[s:e, None]
        per_row = np.count_nonzero(hit, axis=1)
        k = int(per_row.sum())
        if at + k <= size:
            out[0, at:at + k] = np.repeat(cols[s:e], per_row)
            # hit i*(n - c) + j of the flat mask is column b = c + j of row s + i
            starts = np.arange(e - s) * (n - c) - c
            out[1, at:at + k] = np.flatnonzero(hit) - np.repeat(starts, per_row)
        at += k
    if at != size:
        raise ContractViolation(f"degree-sum bucket lists {at} pairs, its histogram {size}")
    return out


def _bucket_width(n: int, width: int | None) -> int:
    """The degree-sum bucket width: width, or ceil(sqrt(n)) when it is None."""
    _require("count", {"bucket_width": width})
    return math.ceil(math.sqrt(n)) if width is None else width


PAIR_CHUNK = 1 << 20  # most Mersenne-Twister words per draw of _sampled_pairs


def _sampled_pairs(rng, n: int, want: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs that the loop

        seen = set()
        while len(seen) < want:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                seen.add((min(a, b), max(a, b)))

    collects, as two int32 arrays of the first and second vertices in
    sorted(seen) order, for want <= n(n - 1)/2.

    The randrange values come from seeding.randbelow, at most PAIR_CHUNK
    words a draw.  Consecutive values pair up, and an odd last value waits
    for the next draw.  A pair a != b is the key min*n + max; a bit array
    over the keys marks the ones taken, so a draw takes its keys that are
    neither marked nor repeated earlier in it, in draw order, up to want in
    all.  The taken keys, sorted, are sorted(seen).
    """
    k = n.bit_length()
    total = n * (n - 1) // 2
    # a draw holds fewer than 2**shift pairs, and key << shift fits in int64
    # below n = 2**21, where the bit array alone would take 512 GiB
    shift = PAIR_CHUNK.bit_length()
    seen = np.zeros(-(-n * n // 8), np.uint8)  # bit a*n + b marks the pair (a, b)
    taken = []
    have = 0
    carry = np.empty(0, np.uint32)
    while have < want:
        # two values a pair, 2**k / n words a value on average, and about
        # total / (total - have) pairs drawn for each new one
        words = 2 * (want - have) * total << k
        words = min(PAIR_CHUNK, words // (n * (total - have)) + 64)
        vals = np.concatenate([carry, randbelow(rng, n, words)])
        end = len(vals) & ~1
        carry = vals[end:]
        a, b = vals[:end:2].astype(np.int64), vals[1:end:2].astype(np.int64)
        drawn = (np.minimum(a, b) * n + np.maximum(a, b))[a != b]
        # sorted by key, then by draw position: a key's first draw leads its run
        ranked = np.sort(drawn << shift | np.arange(len(drawn)))
        key = ranked >> shift
        fresh = (seen[key >> 3] >> (key & 7).astype(np.uint8) & 1) == 0
        fresh[1:] &= key[1:] != key[:-1]
        new = drawn[np.sort(ranked[fresh] & ((1 << shift) - 1))[:want - have]]
        np.bitwise_or.at(seen, new >> 3, np.left_shift(1, new & 7).astype(np.uint8))
        taken.append(new)
        have += len(new)
    ii, jj = np.divmod(np.sort(np.concatenate(taken)), n)
    return ii.astype(np.int32), jj.astype(np.int32)


def pigeonhole_pairs(g: Graph, bucket_width: int | None = None, *,
                     pair_enum_cap: int = PAIR_ENUM_CAP,
                     sample_coeff: float = 10.0, seed: int = 0):
    """Bucket pairs by degree sum; return (d_prime, fullest bucket's pairs).

    The pairs come as one C-contiguous (2, k) int32 array: row 0 holds the
    first vertices a and row 1 the second vertices b, a < b, the columns
    in lexicographic order.  d_prime is the bucket's center j*w + w//2.  Ties
    go to the lowest bucket.  Up to pair_enum_cap vertices every pair
    counts: the bucket sizes come from the degree histogram and only the
    fullest bucket's pairs are listed.  Above it a uniform pair sample of
    size ~sample_coeff*n^(3/2) (at most every pair), from _sampled_pairs,
    stands in for full enumeration.
    """
    n = g.n
    if n < 4:
        raise ParameterError(f"need n >= 4, got {n}")
    w = _bucket_width(n, bucket_width)
    degs = np.array(g.degrees(), dtype=np.int64)
    if n <= pair_enum_cap:
        sizes = _bucket_sizes(degs, w)
        j = int(np.argmax(sizes))  # argmax returns the first (lowest) maximum
        return j * w + w // 2, _bucket_pairs(degs, j * w, w, int(sizes[j]))
    # the sample must not chase more pairs than exist
    want = max(1, int(min(sample_coeff * n ** 1.5, n * (n - 1) // 2)))
    ii, jj = _sampled_pairs(stream(derive_seed(seed, "pigeonhole")), n, want)
    buckets = (degs[ii] + degs[jj]) // w
    counts = np.bincount(buckets)
    j = int(np.argmax(counts))  # argmax returns the first (lowest) maximum
    sel = buckets == j
    return j * w + w // 2, np.stack([ii[sel], jj[sel]])


def filter_close_complements(g: Graph, h: np.ndarray, theta_compl: float) -> np.ndarray:
    """Drop pairs whose neighborhoods nearly complement each other; returns
    the columns (a, b) of the (2, k) bucket h with |N(a) symdiff N_bar(b)|
    >= theta_compl*n, as a (2, k') array of h's dtype in h's order: h
    itself when every pair is kept, as on G(n, 1/2) at the default theta."""
    rows = pack_rows(g.adj, g.n)
    keep = complement_gap_at_least(rows, h[0], h[1], g.n, theta_compl * g.n)
    return h if keep.all() else np.compress(keep, h, axis=1)


def star_or_matching(g: Graph, h: np.ndarray, h_filtered: np.ndarray, d_prime: int,
                     star_floor: float, match_floor: float):
    """Either a heavy star center or a large matching inside the bucket.

    h and h_filtered are (2, k) arrays of pairs, first vertices in row 0,
    as pigeonhole_pairs and filter_close_complements return them: in
    lexicographic order, so each first row is sorted.  A bucket whose
    first row decreases is a ContractViolation.  Star branch: if the vertex
    v in most filtered pairs (the lowest on ties) is in >= star_floor of
    them, its unit list is the Singles of its UNFILTERED bucket neighbors
    and d'' = d' - deg(v).  Otherwise a greedy lexicographic matching on the
    filtered pairs; if it reaches match_floor, units are the matched Pairs
    and d'' = d'.  Both under floor -> stage failure.

    The sorted first rows are counted by np.searchsorted, and v's partners
    b > v are one slice of h; only the second rows are read whole.
    """
    if h_filtered.shape[1] == 0:
        raise ConstructionFailure("star_or_matching", "filtered bucket is empty",
                                  {"h_size": h.shape[1]})
    for name, bucket in (("h", h), ("h_filtered", h_filtered)):
        if np.any(bucket[0, 1:] < bucket[0, :-1]):
            raise ContractViolation(f"star_or_matching: the first vertices of {name} decrease")
    first, second = h_filtered
    # vertex v leads the pairs from the first v' >= v up to the first v' >= v + 1
    starts = np.searchsorted(first, np.arange(g.n + 1, dtype=first.dtype))
    hdeg = np.diff(starts) + np.bincount(second, minlength=g.n)
    best = int(np.argmax(hdeg))  # argmax returns the lowest vertex of top degree
    top = int(hdeg[best])
    if top >= star_floor:
        first, second = h
        lo, hi = np.searchsorted(first, np.array([best, best + 1], dtype=first.dtype))
        nb = np.unique(np.concatenate([second[lo:hi], first[second == best]])).tolist()
        units = tuple(Unit.single(v) for v in nb)
        return "star", best, units, d_prime - g.degree(best)
    used = 0
    matching = []
    for a, b in zip(*h_filtered.tolist()):
        if not (used >> a & 1) and not (used >> b & 1):
            used |= (1 << a) | (1 << b)
            matching.append((a, b))
    if len(matching) >= match_floor:
        units = tuple(Unit.pair(a, b) for a, b in matching)
        return "matching", None, units, d_prime
    raise ConstructionFailure(
        "star_or_matching",
        "no vertex reaches the star floor and the greedy matching is too small",
        {"max_star_degree": top, "matching_size": len(matching),
         "star_floor": star_floor, "match_floor": match_floor})


def independent_units(g: Graph, units, theta_conflict: float):
    """Greedy independent set in the conflict graph (close neighborhoods).

    Conflict edge: multiset symdiff below theta_conflict*n, the pair_gaps
    matrix of all unit pairs compared with it.  A gap over a subset of the
    columns is at most the whole gap, so the matrix is screened first on
    the first head = min(n, 64*(ceil(2*theta*n/64) + 1)) columns, the
    prefix_words rule of complement_gap_at_least: a pair whose prefix gap
    reaches the threshold is no conflict, and only the units in some other
    pair read their whole rows.  Greedy min-degree removal (lowest index on ties)
    meets the Turan bound |A| >= |L|/(1+avg degree), checked against the
    computed conflict graph.
    """
    if not units:
        raise ParameterError("unit list must be nonempty")
    k, n = len(units), g.n
    # float64 threshold: a Python float would be rounded to the gaps' float32
    thr = np.float64(theta_conflict * n)
    head = min(n, 64 * prefix_words(thr, -(-n // 64)))
    conflict = pair_gaps(g, units, (1 << head) - 1 if head < n else None) < thr
    np.fill_diagonal(conflict, False)
    if head < n:
        near = np.flatnonzero(conflict.any(axis=1))
        if len(near):
            conflict[np.ix_(near, near)] = pair_gaps(g, [units[i] for i in near]) < thr
            np.fill_diagonal(conflict, False)
    f_edges = int(conflict.sum()) // 2
    # removing a vertex of degree 0 changes no other degree, so all of them
    # are taken at once; the rest go one at a time by lowest (degree, index)
    deg = conflict.sum(axis=1)
    alive = np.ones(k, dtype=bool)
    chosen = []
    while alive.any():
        free = alive & (deg == 0)
        if free.any():
            chosen.extend(np.flatnonzero(free).tolist())
            alive &= ~free
            continue
        i = int(np.argmin(np.where(alive, deg, k + 1)))
        gone = alive & conflict[i]
        gone[i] = True
        chosen.append(i)
        alive &= ~gone
        deg -= conflict[gone].sum(axis=0)
    turan = k / (1.0 + 2.0 * f_edges / k)
    if len(chosen) + 1e-9 < turan:
        raise ContractViolation(
            f"greedy independent set size {len(chosen)} below Turan bound {turan:.3f}")
    return tuple(units[i] for i in sorted(chosen))


def _theta_conflict(params: ConstructionParams) -> float:
    """theta_conflict, or its default eps^2/4 when unset."""
    return params.theta_conflict if params.theta_conflict is not None else params.epsilon ** 2 / 4


def _resolve_kappa4(kappa4, a_size: int, p: float, d_dp: int, n: int) -> float:
    if kappa4 is not None:
        return kappa4
    sigma = math.sqrt(max(p * d_dp, 1.0) * (1.0 - p))
    per_pair = min(1.0, 1.0 / (2.0 * sigma * math.sqrt(math.pi)))
    est = a_size * (a_size - 1) / 2 * per_pair
    return 3.0 * est / math.sqrt(n)


def sample_U0(g: Graph, a_units, m: int, d_doubleprime: int,
              params: ConstructionParams):
    """Resample U0 at rate p = sqrt(4m/e(G)) until five events hold.

    (1) e(U0) within kappa1*n^(3/2) of 4m; (2) at least 2/3 of the units
    avoid U0 entirely (-> Q); (3) at least 2/3 have degree into U0 within
    kappa2*sqrt(n) of p*d'' (-> R); (4) every unit pair keeps symdiff
    >= kappa3*n inside U0; (5) at most kappa4*sqrt(n) unit pairs collide on
    exact degree.  Attempts use derived seeds, so the accepted attempt is
    the lowest-numbered passing one no matter the evaluation order.
    """
    if not a_units:
        raise ParameterError("unit family A must be nonempty")
    eg = g.edge_count()
    if eg == 0:
        raise ParameterError("graph has no edges")
    p = math.sqrt(4.0 * m / eg)
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"sampling probability p={p:.4f} outside (0, 1]; "
                             f"m too large for e(G)={eg}")
    n = g.n
    target_d = p * d_doubleprime
    kappa3 = params.kappa3 if params.kappa3 is not None else p * _theta_conflict(params) / 3.0
    kappa4 = _resolve_kappa4(params.kappa4, len(a_units), p, d_doubleprime, n)
    e_window = params.kappa1 * n ** 1.5
    d_window = params.kappa2 * math.sqrt(n)
    sym_floor = kappa3 * n
    coll_cap = kappa4 * math.sqrt(n)
    upper = np.triu_indices(len(a_units), 1)
    attempts = []
    fail_hist = [0] * 5
    for t in range(params.retry_max):
        u0 = mask_from_bools(bernoulli(stream(derive_seed(params.seed, "u0", t)), n, p))
        e_u0 = count_edges(g, u0)
        ok1 = abs(e_u0 - 4 * m) <= e_window
        q = tuple(x for x in a_units if not (x.mask() & u0))
        ok2 = len(q) >= (2 / 3) * len(a_units)
        degs = [unit_degree(g, x, u0) for x in a_units]
        r = tuple(x for x, dd in zip(a_units, degs) if abs(dd - target_d) <= d_window)
        ok3 = len(r) >= (2 / 3) * len(a_units)
        # the upper triangle in row-major order is the pair order of event (4);
        # min_pair_symdiff covers the pairs up to the first one below the floor
        gaps = pair_gaps(g, a_units, u0)[upper]
        fails = np.flatnonzero(gaps < np.float64(sym_floor))
        ok4 = not len(fails)
        seen = gaps if ok4 else gaps[:fails[0] + 1]
        min_sym = int(seen.min()) if len(seen) else None
        cnt = Counter(degs)
        collisions = sum(c * (c - 1) // 2 for c in cnt.values())
        ok5 = collisions <= coll_cap
        flags = (ok1, ok2, ok3, ok4, ok5)
        attempts.append({"attempt": t, "events": flags, "e_u0": e_u0,
                         "q_size": len(q), "r_size": len(r),
                         "min_pair_symdiff": min_sym, "collisions": collisions})
        for i, ok in enumerate(flags):
            if not ok:
                fail_hist[i] += 1
        if all(flags):
            diag = {"attempts": attempts, "accepted_attempt": t, "p": p,
                    "kappa3": kappa3, "kappa4": kappa4,
                    "event_fail_histogram": fail_hist}
            return u0, q, r, diag
    raise ConstructionFailure(
        "sample_U0",
        f"no attempt passed all five events in {params.retry_max} tries",
        {"event_fail_histogram": fail_hist, "attempts": attempts, "p": p,
         "kappa3": kappa3, "kappa4": kappa4})


def select_STX(g: Graph, u0: int, q, r, p: float, d_doubleprime: int):
    """Split the surviving units into S, T, X with a guaranteed degree gap.

    The units in both Q and R are halved by unit order into Y and X.  B
    keeps the first unit of Y at each degree, so its integer degrees are
    all distinct; sorting B and taking the outer thirds yields S and T with
    min_T - max_S >= ceil(|B|/3).
    """
    rset = set(r)
    rq = tuple(x for x in q if x in rset)
    if len(rq) < 6:
        raise ConstructionFailure("select_STX",
                                  f"only {len(rq)} units survive both Q and R; need 6",
                                  {"q_size": len(q), "r_size": len(r)})
    half = len(rq) // 2
    y, x = rq[:half], rq[half:]
    ydeg = [unit_degree(g, u, u0) for u in y]
    first = {}
    for i, dd in enumerate(ydeg):
        first.setdefault(dd, i)
    if len(first) < 3:
        raise ConstructionFailure("select_STX",
                                  f"collision-free family has {len(first)} < 3 units",
                                  {"y_size": len(y), "distinct_degrees": len(first)})
    b = [first[dd] for dd in sorted(first)]
    third = len(b) // 3
    s = tuple(y[i] for i in b[:third])
    t = tuple(y[i] for i in b[-third:])
    gap_floor = math.ceil(len(b) / 3)
    return s, t, x, p * d_doubleprime, gap_floor, len(b)


def verify_construction(g: Graph, res: ConstructionResult,
                        params: ConstructionParams) -> bool:
    """Re-check the four output invariants from graph primitives alone.

    Popcounts of int rows and of packed rows, independent of the pair_gaps
    products the stages use.  Each unit's degree into U0 is counted once
    and read by both the degree window and the S/T gap.  Each X unit's
    multiplicity rows are cut to U0 once and packed, and every X pair is
    compared in one graph_core.popcount broadcast: the gap of multiset_gap,
    |x1 ^ y1| + 2|(x2 ^ y2) & ~(x1 ^ y1)|, for all pairs at once, the first
    pair below the floor in row-major order named in the error.
    """
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
    p1, p2 = (pack_rows([r[side] for r in rows], g.n) for side in (0, 1))
    d1 = p1[:, None] ^ p1
    gaps = popcount(d1) + 2 * popcount((p2[:, None] ^ p2) & ~d1)
    # the upper triangle in row-major order is the pair order of the message
    ii, jj = np.triu_indices(len(xs), 1)
    low = np.flatnonzero(gaps[ii, jj] < sym_floor)
    if len(low):
        i, j = int(ii[low[0]]), int(jj[low[0]])
        raise ContractViolation(
            f"x units {xs[i].vertices},{xs[j].vertices} symdiff {int(gaps[i, j])} "
            f"below {sym_floor:.2f}")
    want_pair = res.mode == "matching"
    for x in units:
        if x.is_pair != want_pair:
            raise ContractViolation(f"mode {res.mode} but unit {x.vertices} mixes kinds")
    return True


def construct(g: Graph, m: int, params: ConstructionParams | None = None) -> ConstructionResult:
    """Run the full pipeline and return an independently verified result.

    Entry checks: a non-empty m window and m inside it (parameter errors),
    then e(G) >=
    density_factor*c*n^2 (stage "density").  With rich_prepass on, the
    pipeline runs inside the induced subgraph that rich_extract audited and
    hands back, and the result is mapped back to original vertex ids; every
    threshold uses the working size, echoed as working_n.
    """
    params = params or ConstructionParams()
    n = g.n
    window = m_window(params, n)
    if m != int(m) or m < 1:
        raise ParameterError(f"m must be a positive integer, got {m}")
    if not window.lo <= m <= window.hi:
        raise ParameterError(
            f"m={m} outside the m window [{window.lo}, {window.hi}] at n={n}")
    required = params.density_factor * params.c_density * n * n
    if g.edge_count() < required:
        raise ConstructionFailure("density", f"e(G)={g.edge_count()} below {required:.1f}",
                                  {"edges": g.edge_count(), "required": required})
    rich_status = "skipped"
    if params.rich_prepass:
        ext = rich_extract(g, params.audit_params())
        rich_status = ext.status
        if ext.status != "rich":
            raise ConstructionFailure(
                "rich_prepass", f"extraction ended with status {ext.status}",
                {"status": ext.status, "final_size": ext.u_mask.bit_count(),
                 "rounds": len(ext.trace)})
        work, vmap = ext.graph, list(iter_bits(ext.u_mask))
    else:
        work, vmap = g, list(range(n))
    wn = work.n
    width = _bucket_width(wn, params.bucket_width)
    theta_compl = params.theta_compl if params.theta_compl is not None \
        else params.epsilon / 2
    theta_conflict = _theta_conflict(params)
    d_prime, h = pigeonhole_pairs(work, width, pair_enum_cap=params.pair_enum_cap,
                                  sample_coeff=params.pair_sample_coeff,
                                  seed=params.seed)
    h_filt = filter_close_complements(work, h, theta_compl)
    star_floor = params.star_coeff * wn ** 0.75
    match_floor = params.match_coeff * wn ** 0.75
    mode, anchor, units, d_dp = star_or_matching(work, h, h_filt, d_prime,
                                                 star_floor, match_floor)
    a_full = independent_units(work, units, theta_conflict)
    # clamped before ceil: a huge a_cap_coeff would overflow to inf
    a_cap = max(1, math.ceil(min(params.a_cap_coeff * math.sqrt(wn), len(a_full))))
    a = a_full[:a_cap]
    u0, q, r, u0_diag = sample_U0(work, a, m, d_dp, params)
    p = u0_diag["p"]
    s, t, x, d, gap_floor, b_size = select_STX(work, u0, q, r, p, d_dp)

    def remap_unit(u: Unit) -> Unit:
        vs = tuple(vmap[v] for v in u.vertices)
        return Unit.single(vs[0]) if len(vs) == 1 else Unit.pair(*vs)

    diag = {
        "rich_status": rich_status,
        "h_size": h.shape[1], "h_filtered_size": h_filt.shape[1],
        "l_size": len(units), "a_full_size": len(a_full), "a_size": len(a),
        "b_size": b_size, "u0_size": u0.bit_count(),
        "d_floor_ok": d >= params.kappa5 * wn,
        "resolved": {"bucket_width": width, "theta_compl": theta_compl,
                     "theta_conflict": theta_conflict, "star_floor": star_floor,
                     "match_floor": match_floor, "kappa1": params.kappa1,
                     "kappa2": params.kappa2, "kappa3": u0_diag["kappa3"],
                     "kappa4": u0_diag["kappa4"], "kappa5": params.kappa5},
        "sampling": u0_diag,
    }
    res = ConstructionResult(
        mode=mode,
        anchor=None if anchor is None else vmap[anchor],
        u0_mask=mask_of(vmap[v] for v in iter_bits(u0)),
        a_units=tuple(remap_unit(u) for u in a),
        s_units=tuple(remap_unit(u) for u in s),
        t_units=tuple(remap_unit(u) for u in t),
        x_units=tuple(remap_unit(u) for u in x),
        d=d, d_prime=d_prime, d_doubleprime=d_dp, p=p,
        gap_floor=gap_floor, kappa3=u0_diag["kappa3"], working_n=wn,
        diagnostics=diag)
    verify_construction(g, res, params)
    return res
