"""Point-probability tools for weighted Bernoulli sums.

The object of study is X = sum_i a_i * xi_i + c with nonzero integer
coefficients and iid xi_i ~ Bernoulli(p).  For fixed p in (0,1) the largest
point mass of X is O(1/sqrt(n)), and that decay rate is what the scaling fit
measures empirically.

lo_exact_distribution computes the full pmf by dynamic programming over the
dense integer support, updating in place only the live window between the
first and last nonzero mass (one vectorized shift-and-mix per coefficient).
Its cost is len(coefficients) times the mean window width, at most
sum |a_i| + 1, and the window drops the tails that underflow to exact zero.
The Monte-Carlo estimator exists for instances past the exact cap and for
cross-checking the DP.

The estimator's trials all come from one numpy stream, trial t reading its
len(a) uniforms from output t * len(a) on (seeding.py states the PCG64
facts).  So a contiguous run of trials can start its own generator there,
and _split_trials draws one run per CPU, each on its own thread: the hits
and value counts are the one-stream loop's, bit for bit, for any CPU count.
A trial's 0/1 draws are packed into uint64 words by graph_core.pack_bools,
into one zeroed block per run, and its sum is a signed sum of popcounts,
one per bit plane of the coefficients (_planes, packed the same way).  The
sums are int64, so an instance whose weight sum |a_i| does not fit is
refused before any draw.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, ParameterError, _require, _require_cap
from .graph_core import pack_bools, popcount
from .seeding import np_stream

EXACT_WEIGHT_CAP = 10**6  # cap on sum |a_i| for the live-window DP
INT64_MAX = 2**63 - 1  # cap on sum |a_i| for the Monte-Carlo sampler's sums


@dataclass(frozen=True)
class LOInstance:
    """A weighted Bernoulli sum: coefficients, additive offset, success prob."""

    coefficients: tuple
    offset: int = 0
    p: float = 0.5

    def __post_init__(self):
        if not self.coefficients:
            raise ParameterError("need at least one coefficient")
        for a in self.coefficients:
            if not isinstance(a, int) or a == 0:
                raise ParameterError(f"coefficients must be nonzero integers, got {a!r}")
        if not 0.0 < self.p < 1.0:
            raise ParameterError(f"p must lie strictly inside (0,1), got {self.p}")

    @property
    def weight(self) -> int:
        return sum(abs(a) for a in self.coefficients)


@dataclass(frozen=True)
class LOPmf:
    """Dense pmf over the integer support [support_min, support_min + len - 1]."""

    support_min: int
    masses: np.ndarray = field(repr=False)

    def max_mass(self) -> float:
        return float(self.masses.max())

    def argmax(self) -> int:
        return self.support_min + int(self.masses.argmax())

    def total(self) -> float:
        # fsum of the array; the DP keeps each entry nonnegative
        return math.fsum(self.masses.tolist())


def lo_exact_distribution(inst: LOInstance) -> LOPmf:
    """Exact pmf of the weighted Bernoulli sum via live-window DP."""
    w = inst.weight
    _require_cap("exact pmf weight", w, EXACT_WEIGHT_CAP, f"it needs two dense arrays of "
                 f"{w + 1} floats; use lo_point_prob_mc instead")
    neg = sum(-a for a in inst.coefficients if a < 0)
    f = np.zeros(w + 1, dtype=np.float64)
    moved = np.empty(w + 1, dtype=np.float64)
    f[neg] = 1.0  # index i holds Pr(X = support_min + i)
    lo = hi = neg  # every entry outside f[lo:hi+1] is exactly zero
    p = inst.p
    q = 1.0 - p
    for a in inst.coefficients:
        # each entry becomes fl(fl(f[i]*q) + fl(f[i-a]*p)), as over the dense
        # range; adding a zero term is exact, so skipping exact zeros changes
        # no bit
        k = hi - lo + 1
        window = f[lo:hi + 1]
        np.multiply(window, p, out=moved[:k])
        window *= q
        f[lo + a:hi + a + 1] += moved[:k]
        if a > 0:
            hi += a
        else:
            lo += a
        # the total mass stays 1, so some entry is nonzero and both walks stop
        while f[lo] == 0.0:
            lo += 1
        while f[hi] == 0.0:
            hi -= 1
    pmf = LOPmf(inst.offset - neg, f)
    total = pmf.total()
    if abs(total - 1.0) > 1e-12:
        raise ContractViolation(f"pmf mass drifted to {total!r}")
    return pmf


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    stderr: float
    trials: int
    hits: int


def _planes(a: np.ndarray) -> list:
    """[(weight, mask)] such that sum_i a_i * xi_i is the sum over the list
    of weight * popcount(x & mask), where x holds the 0/1 draws xi packed
    as graph_core.pack_bools packs them, and so does each mask.

    There is one mask per sign and per bit b set in some |a_i| of that sign.
    It holds the i whose a_i has that sign and bit b of |a_i| set, and its
    weight is 2**b or -2**b.  A sign that no coefficient has gives no mask.
    The terms of one sign add up to at most the sum of |a_i| over that
    sign, so every partial sum lies within +-sum |a_i|: the sums are exact
    in int64 whenever that weight fits.
    """
    planes = []
    for sign in (1, -1):
        mag = np.maximum(sign * a, 0)
        for b in range(int(mag.max()).bit_length()):
            bits = mag >> b & 1
            if bits.any():
                planes.append((sign << b, pack_bools(bits)))
    return planes


def _sampled_sums(inst: LOInstance, first: int, trials: int, seed: int):
    """Yield chunks of sampled sum_i a_i * xi_i (offset excluded) for the
    trials first, ..., first + trials - 1 of the one stream of (seed, spawn
    key 0), in which trial t reads the outputs t * len(a) onward."""
    a = np.asarray(inst.coefficients, dtype=np.int64)
    n = len(a)
    planes = _planes(a)
    rng = np_stream(seed, 0, first * n)
    # 2**16 draws per chunk keep the float, bool and packed blocks in cache;
    # rows are drawn in order, so the stream does not depend on the chunk
    chunk = max(1, (1 << 16) // n)
    u = np.empty((min(chunk, trials), n))
    # one zeroed block for every chunk, packed from no draws: the packer
    # writes a row's draws into its first bytes, and the rest stay zero
    packed = pack_bools(np.zeros(u.shape, dtype=bool))
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        pack_bools(rng.random(out=u[:b]) < inst.p, out=packed[:b])
        sums = np.zeros(b, dtype=np.int64)
        for weight, mask in planes:
            sums += weight * popcount(packed[:b] & mask)
        yield sums
        done += b


def _split_trials(job, trials: int) -> list:
    """[job(first, count) for each run of trials], in trial order.

    The trials 0, ..., trials - 1 are cut into W = min(CPUs, trials)
    contiguous runs, W read from the process's CPU affinity (os.cpu_count()
    where that is missing).  Run 0 goes on the calling thread and each other
    run on a thread of its own.  The generator draws, most of a chunk's
    time, and the comparison release the GIL, so the runs overlap; the
    packing and the short per-plane calls barely do.  Every thread is
    joined before this returns or raises, and an exception in a run is
    raised here, that of the lowest run first.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    w = min(cpus, trials)
    cuts = [trials * i // w for i in range(w + 1)]
    results = [None] * w
    errors = [None] * w

    def run(i):
        try:
            results[i] = job(cuts[i], cuts[i + 1] - cuts[i])
        except BaseException as exc:  # raised again on the calling thread
            errors[i] = exc

    threads = []
    try:
        for i in range(1, w):
            t = threading.Thread(target=run, args=(i,))
            t.start()
            threads.append(t)
        results[0] = job(0, cuts[1])
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _require_int64_sums(inst: LOInstance) -> None:
    _require_cap("sampled sum weight", inst.weight, INT64_MAX, "the sampled sums are int64")


def lo_point_prob_mc(inst: LOInstance, x: int, trials: int, seed: int = 0) -> MCEstimate:
    """Monte-Carlo estimate of Pr(X = x) with a binomial standard error."""
    _require("count", {"trials": trials})
    _require_int64_sums(inst)
    target = x - inst.offset

    def run_hits(first, count):
        return sum(int(np.count_nonzero(sums == target))
                   for sums in _sampled_sums(inst, first, count, seed))

    hits = sum(_split_trials(run_hits, trials))
    est = hits / trials
    se = math.sqrt(max(est * (1.0 - est), 1.0 / trials) / trials)
    return MCEstimate(est, se, trials, hits)


def _mc_max_mass(inst: LOInstance, trials: int, seed: int) -> float:
    """Empirical mode frequency; used only past the exact-DP cap."""
    _require_int64_sums(inst)

    def run_counts(first, count):
        counts = Counter()
        for sums in _sampled_sums(inst, first, count, seed):
            vals, cnt = np.unique(sums, return_counts=True)
            counts.update(dict(zip(vals.tolist(), cnt.tolist())))
        return counts

    return max(sum(_split_trials(run_counts, trials), Counter()).values()) / trials


COEFF_MODELS = ("ones", "u3", "u10")


def model_coefficients(model: str, n: int, seed: int) -> tuple:
    """Deterministic coefficient families for the scaling study."""
    if model == "ones":
        return (1,) * n
    if model == "u3":
        lo, hi = 1, 3
    elif model == "u10":
        lo, hi = 1, 10
    else:
        raise ParameterError(f"unknown coefficient model {model!r}; choose from {COEFF_MODELS}")
    return tuple(int(v) for v in np_stream(seed, n).integers(lo, hi + 1, size=n))


@dataclass(frozen=True)
class ScalingFit:
    n_values: tuple
    max_probs: tuple
    methods: tuple  # "exact" or "mc" per n
    slope: float
    stderr: float


def lo_scaling_fit(n_values, coeff_model: str = "ones", p: float = 0.5,
                   trials: int = 200_000, seed: int = 0) -> ScalingFit:
    """Least-squares slope of log(max point mass) against log(n).

    Uses the exact DP whenever sum |a_i| fits under EXACT_WEIGHT_CAP and falls back
    to a Monte-Carlo mode estimate beyond it.
    """
    _require("count", {"trials": trials})
    ns = sorted(set(int(n) for n in n_values))
    if len(ns) < 4:
        raise ParameterError("scaling fit needs at least 4 distinct values of n")
    if ns[0] < 1 or ns[-1] < 4 * ns[0]:
        raise ParameterError("scaling fit needs n values spanning at least two octaves")
    probs = []
    methods = []
    for n in ns:
        inst = LOInstance(model_coefficients(coeff_model, n, seed), 0, p)
        if inst.weight <= EXACT_WEIGHT_CAP:
            probs.append(lo_exact_distribution(inst).max_mass())
            methods.append("exact")
        else:
            probs.append(_mc_max_mass(inst, trials, seed))
            methods.append("mc")
    lx = np.log(np.asarray(ns, dtype=np.float64))
    ly = np.log(np.asarray(probs, dtype=np.float64))
    slope, resid_se = _least_squares_slope(lx, ly)
    return ScalingFit(tuple(ns), tuple(probs), tuple(methods), slope, resid_se)


def _least_squares_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and its standard error for a simple linear regression."""
    xm = x - x.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ (y - y.mean())) / sxx
    inter = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + inter)
    dof = max(len(x) - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / sxx)
    return slope, se
