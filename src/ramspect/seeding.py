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
mt_words reads the stream through getrandbits below MT_BULK_WORDS outputs
and through a fresh MT19937 from there on; bernoulli and randbelow decode
its words.  Moving the state in and out costs about 0.27 ms a call, what
getrandbits spends on about 2**15 words.  numpy.random, which otherwise
only np_stream loads, is imported only by a bulk read: loading it raises a
process's peak RSS by 2-4 MB.

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


MT_BULK_WORDS = 1 << 16  # outputs from which mt_words reads through numpy's MT19937


def mt_words(rng: random.Random, count: int) -> np.ndarray:
    """The next count 32-bit outputs of rng, as uint32 in draw order; rng is
    left where ``rng.getrandbits(32 * count)`` would leave it.

    Below MT_BULK_WORDS the words are one getrandbits draw.  From there on,
    by the module's MT19937 facts, rng's state is copied into a fresh
    MT19937, random_raw draws the words and the advanced state is written
    back into rng.  random_raw returns uint64, so it draws MT_BULK_WORDS
    words at a time into the uint32 result, and no uint64 array of count
    words is made.
    """
    if count < MT_BULK_WORDS:
        return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4")
    from numpy.random import MT19937

    version, internal, gauss = rng.getstate()
    bits = MT19937(0)
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": internal[:-1], "pos": internal[-1]}}
    words = np.empty(count, "<u4")
    for at in range(0, count, MT_BULK_WORDS):
        words[at:at + MT_BULK_WORDS] = bits.random_raw(min(MT_BULK_WORDS, count - at))
    state = bits.state["state"]
    rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss))
    return words


def bernoulli(rng: random.Random, k: int, p: float) -> np.ndarray:
    """k bools, the j-th True iff the j-th of k successive ``rng.random()``
    draws is below p; rng is left where those k draws would leave it.

    By the module's Mersenne-Twister facts, each <u8 word over two
    successive outputs of mt_words holds the two outputs of one random()
    draw, so it yields the same 53-bit key, and random() < p iff
    key < ceil(p * 2**53), which is exact in binary64.
    """
    below = np.uint64(math.ceil(p * 2.0 ** 53))
    w = mt_words(rng, 2 * k).view("<u8")
    return (((w & 0xFFFFFFFF) >> 5 << 26) | (w >> 38)) < below


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
