"""Deterministic random streams for parallelizable tasks.

Every draw is a function of the run seed and stable task labels, so results
do not depend on task scheduling or execution order. ``derived_stream``
seeds a lot-hour's generator (its Poisson arrays and key). ``stream_key``
and ``counter_uniform`` are counter-based (Salmon et al. 2011): a uniform is
a hash of a seed, integer labels and a counter: draws need no generator and
may be made in any order and batch (on-street and lot stream version 3).
The hash folds in one label ``x`` at a time with SplitMix64's step and
finaliser (Steele, Lea & Flood 2014): key ``k`` becomes
``mix(k + (x + 1) * GAMMA)`` modulo 2^64.
"""

from __future__ import annotations

import zlib

import numpy as np

GAMMA = np.uint64(0x9E3779B97F4A7C15)   # SplitMix64's increment: 2^64 over the golden ratio
_MIX = tuple(map(np.uint64, (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)))


def derived_stream(seed: int, *labels: str | int) -> np.random.Generator:
    """Build an independent generator from a base seed and task labels.

    String labels are folded in via CRC32 so the stream is reproducible
    across runs and platforms.
    """
    entropy: list[int] = [int(seed)]
    for label in labels:
        if isinstance(label, str):
            entropy.append(zlib.crc32(label.encode("utf-8")))
        else:
            entropy.append(int(label))
    return np.random.default_rng(entropy)


def stream_key(key, *labels) -> np.ndarray:
    """uint64 keys with ``labels`` folded in, by the hash above. ``key`` is
    a seed (an int, taken modulo 2^64) or earlier keys; labels are
    non-negative ints or integer arrays, and all broadcast together. Every
    operand is uint64, so numpy 1 and 2 alike wrap modulo 2^64."""
    shift1, mult1, shift2, mult2, shift3 = _MIX
    with np.errstate(over="ignore"):            # numpy scalars warn on the wrap
        key = np.asarray(key % 2 ** 64 if isinstance(key, int) else key, dtype=np.uint64)
        for label in labels:
            z = key + (np.asarray(label, dtype=np.uint64) + np.uint64(1)) * GAMMA
            z = (z ^ (z >> shift1)) * mult1
            z = (z ^ (z >> shift2)) * mult2
            key = z ^ (z >> shift3)
    return key


def counter_uniform(key, counter) -> np.ndarray:
    """Uniforms in [0, 1): draw ``counter`` of the streams ``key``, the top
    53 bits of ``stream_key(key, counter)``."""
    return (stream_key(key, counter) >> np.uint64(11)) * 2.0 ** -53
