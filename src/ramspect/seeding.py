"""Seeded random streams: the one place a seed becomes a stream.

Every randomized stage draws its seed as sha256(master:tag:index) so that
runs are reproducible from one master seed, stages are decoupled (changing
the retry count of one never shifts another's stream), and retry attempts
can be evaluated speculatively in any order with identical outcomes.

stream builds CPython's Mersenne-Twister generator and np_stream numpy's.
Both refuse a negative seed: random.Random seeds an int by its absolute
value, so -s would silently replay the stream of s.

The bulk decoders read the Mersenne-Twister stream through these facts of
CPython's random module, where a, b, ... are its successive 32-bit outputs:
- random() is ((a >> 5) * 2**26 + (b >> 6)) / 2**53, two outputs a draw;
- getrandbits(32 * N) returns the next N outputs as one int, little-endian
  (the first output in the lowest 32 bits), and for k <= 32 getrandbits(k)
  is one output shifted right by 32 - k;
- randrange(n) is getrandbits(n.bit_length()) drawn again until it is
  below n.
numpy's MT19937 is the same generator (Matsumoto and Nishimura, 1998) on
the same 624-word state, so it continues the stream of a random.Random:
- with its key set to the 624 words of getstate() and its pos to the
  position that follows them, random_raw(N) returns the N outputs that
  getrandbits(32 * N) would, in the same order, and its key and pos are
  then the state that getrandbits leaves (checked for N = 1, 623, 624,
  625, 5,000, 100,001 and 1,000,003 from several seeds and positions).
mt_pieces, the one reader of these words, reads the stream through
getrandbits below MT_BULK_WORDS outputs in all and through one MT19937
from there on, however many counts it is given; mt_words gathers its
words into one array, and bernoulli_blocks (bernoulli is its one-count
form) and randbelow decode them.  Moving the state in and out costs about
0.27 ms, what getrandbits spends on about 2**15 words, so a read of many
counts, such as the row blocks of one G(n, p), pays it once.  numpy.random,
which otherwise only np_stream loads, is imported only by a bulk read:
loading it raises a process's peak RSS by 2-4 MB.

np_stream's generator is numpy's PCG64, and the Monte-Carlo sampler splits
its stream through these facts of numpy's Generator over PCG64:
- random() is (x >> 11) * 2**-53 for the next 64-bit output x, one output a
  draw, and random(size) or random(out=...) makes those draws in C order;
- bit_generator.advance(k) skips the next k outputs, in O(log k) steps.
So np_stream(seed, key, skip) continues the unskipped stream at its output
skip, and a run of draws can start anywhere without drawing what is before
it.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Iterator, Sequence

import numpy as np

from .errors import _require


def derive_seed(master: int, tag: str, index: int = 0) -> int:
    digest = hashlib.sha256(f"{master}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stream(seed: int) -> random.Random:
    """The Mersenne-Twister generator seeded by seed, for a seed >= 0."""
    _require("non-negative", {"seed": seed})
    return random.Random(seed)


def np_stream(seed: int, key: int, skip: int = 0) -> np.random.Generator:
    """numpy's generator seeded by (seed, spawn key key), for a seed >= 0,
    advanced past its first skip outputs."""
    _require("non-negative", {"seed": seed})
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
    rng.bit_generator.advance(skip)
    return rng


MT_BULK_WORDS = 1 << 16  # outputs from which a read goes through numpy's MT19937


def mt_pieces(rng: random.Random, counts: Sequence[int]) -> Iterator[np.ndarray]:
    """The next sum(counts) 32-bit outputs of rng in draw order, as arrays
    of words, each within one count: the words of counts[0], then of
    counts[1], and so on.  Once the last array is yielded rng is where
    ``rng.getrandbits(32 * sum(counts))`` would leave it.

    Below MT_BULK_WORDS words in all, each count is one getrandbits draw,
    as uint32.  From there on, by the module's MT19937 facts, rng's state
    is copied into one MT19937, random_raw draws every count as uint64
    pieces of MT_BULK_WORDS words (rounded up to even, so a piece of an
    even count holds whole random() draws), and the state is written back
    into rng once, before the last piece is yielded.
    """
    total = sum(counts)
    if total < MT_BULK_WORDS:
        for count in counts:
            yield np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4")
        return
    from numpy.random import MT19937

    version, internal, gauss = rng.getstate()
    bits = MT19937(0)
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": internal[:-1], "pos": internal[-1]}}
    step = MT_BULK_WORDS + 1 & ~1
    left = total
    for count in counts:
        for at in range(0, count, step):
            piece = bits.random_raw(min(step, count - at))
            left -= len(piece)
            if not left:
                state = bits.state["state"]
                rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss))
            yield piece


def mt_words(rng: random.Random, count: int) -> np.ndarray:
    """The next count 32-bit outputs of rng, as uint32 in draw order; rng is
    left where ``rng.getrandbits(32 * count)`` would leave it.  The words
    are mt_pieces's, gathered into one array."""
    words = np.empty(count, "<u4")
    at = 0
    for piece in mt_pieces(rng, (count,)):
        words[at:at + len(piece)] = piece
        at += len(piece)
    return words


def bernoulli_blocks(rng: random.Random, sizes: Sequence[int],
                     p: float) -> Iterator[np.ndarray]:
    """For each k in sizes in turn, k bools, the j-th True iff the j-th of k
    successive ``rng.random()`` draws is below p; once the last array is
    yielded rng is where those draws would leave it.

    By the module's Mersenne-Twister facts, a draw's two successive
    outputs a, b of mt_pieces give the 53-bit key (a >> 5) * 2**26 +
    (b >> 6), and random() < p iff key < ceil(p * 2**53), exact in
    binary64.  That holds iff a >> 5 is below the bound's top 27 bits, or
    equals them and b >> 6 is below its low 26 bits; the ties, about one
    draw in 2**27, are fixed up from b.  Each piece is decoded as it is
    read, so the temporaries stay within a piece.
    """
    below = math.ceil(p * 2.0 ** 53)
    top, low = below >> 26, below & (1 << 26) - 1
    pieces = mt_pieces(rng, [2 * k for k in sizes])
    for k in sizes:
        out = np.empty(k, bool)
        at = 0
        while at < k:
            words = next(pieces)
            high = words[0::2] >> 5
            drawn = out[at:at + len(high)]
            np.less(high, top, out=drawn)
            tied = high == top  # about one draw in 2**27
            if np.count_nonzero(tied):
                drawn[tied] = words[1::2][tied] >> 6 < low
            at += len(high)
        yield out


def bernoulli(rng: random.Random, k: int, p: float) -> np.ndarray:
    """k bools, the j-th True iff the j-th of k successive ``rng.random()``
    draws is below p; rng is left where those k draws would leave it."""
    return next(bernoulli_blocks(rng, (k,), p))


def randbelow(rng: random.Random, n: int, count: int) -> np.ndarray:
    """The values of ``rng.randrange(n)``, 1 <= n < 2**32, that the next
    count outputs of rng give, as uint32 in draw order; rng is left after
    those count outputs.

    By the module's Mersenne-Twister facts, each output is one
    getrandbits(k) draw, k = n.bit_length(), as its top k bits, and
    randrange keeps the draws below n and draws again for the others.
    """
    r = mt_words(rng, count) >> np.uint32(32 - n.bit_length())
    return r[r < n]
