"""Counter-based uniforms: the integer reference, raw values, statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from parksim.seeding import counter_uniform, stream_key

import oracles


def vectorised(seeds, labels, counters):
    """``counter_uniform`` over arrays of seeds, label columns and counters."""
    return counter_uniform(stream_key(np.asarray(seeds, dtype=np.uint64), *labels), counters)


def test_matches_integer_reference():
    # about 10^4 random inputs over the full ranges, plus the extremes
    rng = np.random.default_rng(31)
    n = 10_000
    seeds = rng.integers(0, 2 ** 64, n, dtype=np.uint64)
    crc = rng.integers(0, 2 ** 32, n, dtype=np.uint64)
    hour = rng.integers(0, 24, n)
    sample = rng.integers(0, 10_000, n)
    counter = rng.integers(0, 2 ** 20, n)
    seeds[:3] = [2 ** 63 - 1, 0, 2 ** 64 - 1]
    crc[:3] = [2 ** 32 - 1, 0, 2 ** 32 - 1]
    counter[:3] = 0
    got = vectorised(seeds, (crc, hour, sample), counter)
    expected = [oracles.counter_uniform(int(s), (int(c), int(h), int(k)), int(t))
                for s, c, h, k, t in zip(seeds, crc, hour, sample, counter)]
    assert got.dtype == np.float64
    assert got.tolist() == expected


def test_seed_taken_modulo_two_to_the_64():
    assert stream_key(2 ** 64 + 5, 3) == stream_key(5, 3)
    assert stream_key(-1, 3) == stream_key(2 ** 64 - 1, 3)


# Raw values, the same under every numpy version: every operand is uint64.
# Folding label 0 and then 1 into seed 0 gives SplitMix64's first two
# outputs from state 0 (Steele, Lea & Flood 2014; Vigna's splitmix64.c).
# The inputs are scalars, on which numpy warns when a product wraps, and
# the test settings make that warning an error.
def test_raw_keys_pinned():
    assert stream_key(0, 0).dtype == np.uint64
    assert int(stream_key(0, 0)) == 0xE220A8397B1DCDAF
    assert int(stream_key(0, 1)) == 0x6E789E6AA1B965F4
    assert int(stream_key(7, 1, 2)) == 0xE719A8A134EEF951


@pytest.mark.parametrize("seed,labels,counter,expected", [
    (0, (), 0, 0.8833108082136426),
    (7, (), 0, 0.3898297483912715),
    (5, (1234567, 8, 0), 0, 0.6045674653163869),
    (5, (1234567, 8, 0), 1, 0.5218725399847518),
    (2 ** 63 - 1, (2 ** 32 - 1, 23, 99), 12345, 0.22346027738830998),
    (2 ** 64 - 1, (0, 0, 0), 2 ** 40, 0.6489065294893855),
])
def test_raw_uniforms_pinned(seed, labels, counter, expected):
    assert float(counter_uniform(stream_key(seed, *labels), counter)) == expected
    assert oracles.counter_uniform(seed, labels, counter) == expected


N = 10 ** 6
LAYOUTS = {
    # one search's consecutive draws
    "counters": lambda: counter_uniform(stream_key(7, 123, 8, 0), np.arange(N)),
    # draw 0 of neighbouring samples of one cell
    "samples": lambda: counter_uniform(stream_key(7, 123, 8, np.arange(N)), 0),
    # draw 0 of sample 0 of neighbouring cells (adjacent destination labels)
    "cells": lambda: counter_uniform(stream_key(7, np.arange(N), 8, 0), 0),
    # a (sample, counter) block of 1,000 x 1,000, draws of a search adjacent
    "grid": lambda: counter_uniform(stream_key(7, 123, 8, np.arange(1000))[:, None],
                                    np.arange(1000)).ravel(),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_uniform_moments_and_lag_one_correlation(layout):
    u = LAYOUTS[layout]()
    assert u.shape == (N,)
    assert ((u >= 0.0) & (u < 1.0)).all()
    assert abs(u.mean() - 0.5) < 5 * math.sqrt(1 / 12 / N)
    # the sample variance's SD is sqrt((mu4 - sigma^4) / N), mu4 = 1/80
    assert abs(u.var() - 1 / 12) < 5 * math.sqrt((1 / 80 - 1 / 144) / N)
    d = u - u.mean()
    r = (d[:-1] @ d[1:]) / (d @ d)
    assert abs(r) < 5 / math.sqrt(N)
