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


def bernoulli(rng: random.Random, k: int, p: float) -> np.ndarray:
    """k bools, the j-th True iff the j-th of k successive ``rng.random()``
    draws is below p; rng is left where those k draws would leave it.

    By the module's Mersenne-Twister facts, each <u8 word of one
    getrandbits(64 * k) draw holds the two outputs of one random() draw, so
    it yields the same 53-bit key, and random() < p iff key < ceil(p * 2**53),
    which is exact in binary64.
    """
    below = np.uint64(math.ceil(p * 2.0 ** 53))
    w = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u8")
    return (((w & 0xFFFFFFFF) >> 5 << 26) | (w >> 38)) < below
