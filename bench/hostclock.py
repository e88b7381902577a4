"""Host-speed probe: rescales timings to the host's nominal speed.

Other tenants of the host slow every core for seconds to minutes at a
time.  On the reference box (2 cores, Python 3.11.7), over three minutes,
a 10 s window ran slow from end to end about a quarter of the time, by up
to 1.6x.  ramspect's calls slowed in step with a short fixed probe that
mixes the three kinds of work they do: interpreter bytecode, popcounts of
2048-bit ints, and numpy array sweeps.  In a 150 s trial of a larger
probe of the same mix, cut into 15 s blocks, the interquartile range over
the median of the block medians of a harvest window's time was 0.065 raw
and 0.025 as a ratio to the probe; phi_exact went from 0.035 to 0.016, the
u10 DP from 0.024 to 0.008, the MC sampler from 0.052 to 0.029.

While a HostClock is entered, a SIGALRM timer runs the probe every
PROBE_EVERY_S, inside long ops as well as between them.  A timing is the
wall time of its interval minus the probe runs inside it, divided by the
host slowdown there: the median probe time around the interval over the
probe's nominal time.  The results are seconds at nominal host speed.
Each workload names the probe closest to its own work: PROBES holds the
mixed probe above, the big-int bit walk of count_edges, and the oracles'
Gray-code walk.  bench/README.md compares them per workload.
"""

from __future__ import annotations

import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

PROBE_EVERY_S = 0.05

_rng = random.Random(0)
_ROWS = [_rng.getrandbits(2048) for _ in range(256)]
_MASK = _rng.getrandbits(2048)
_ARRAY = np.ones(1 << 16)
_ADJ = [_rng.getrandbits(2048) for _ in range(2048)]
_WALK = [_rng.getrandbits(2048) for _ in range(2)]
_SMALL = [_rng.getrandbits(11) for _ in range(11)]


def _probe_mix() -> None:
    x = 0
    for i in range(5_000):
        x += i & 7
    for row in _ROWS:
        x += (row & _MASK).bit_count()
    (_ARRAY * 0.5 + _ARRAY).sum()


def _probe_bigint() -> None:
    """count_edges' loop on a 2048-row graph: walk the set bits of a mask,
    each step making new 2048-bit ints, and popcount a row against it."""
    x = 0
    for mask in _WALK:
        m = mask
        while m:
            low = m & -m
            x += (_ADJ[low.bit_length() - 1] & mask).bit_count()
            m ^= low


def _probe_gray() -> None:
    """The oracles' loop: a Gray-code walk over the subsets of 11 vertices,
    adding or removing one vertex's edges at each step and marking the
    running count in a byte table."""
    seen = bytearray(56)
    cur = e = 0
    s = 1
    while s < 2048:
        low = s & -s
        row = _SMALL[low.bit_length() - 1]
        if cur & low:
            cur ^= low
            e -= (row & cur).bit_count()
        else:
            e += (row & cur).bit_count()
            cur ^= low
        seen[e] = 1
        s += 1


# name -> (probe, its 5th-percentile seconds on the reference box)
PROBES = {"mix": (_probe_mix, 0.00054), "bigint": (_probe_bigint, 0.00113),
          "gray": (_probe_gray, 0.00067)}


class HostClock:
    def __init__(self, probe: str = "mix"):
        self.probe, self.nominal = PROBES[probe]
        self.samples = []  # (start, end) of each probe run, in time order
        self._old = None

    def sample(self, *_) -> None:
        t0 = perf_counter()
        self.probe()
        self.samples.append((t0, perf_counter()))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def seconds(self, t0: float, t1: float) -> float:
        """Seconds at nominal host speed of the interval [t0, t1]."""
        samples = self.samples[:]
        lo = bisect_left(samples, t0, key=lambda s: s[0])
        hi = bisect_right(samples, t1, key=lambda s: s[0])
        inside = sum(e - s for s, e in samples[lo:hi])
        probe = statistics.median(e - s for s, e in samples[max(lo - 1, 0):hi + 1])
        return (t1 - t0 - inside) / (probe / self.nominal)

    def slowdown(self) -> float:
        """Median host slowdown over every probe so far."""
        return statistics.median(e - s for s, e in self.samples) / self.nominal
