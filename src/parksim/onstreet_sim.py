"""Monte Carlo simulation of a driver cruising for an on-street spot.

The driver starts on the destination block. Each traversed block offers one
Bernoulli parking chance at the predicted availability probability for that
block (re-drawn on revisits, since curb occupancy churns on the scale of
minutes). When the driver fails to park, the next block is sampled with a
softmax policy over the outgoing blocks at the current intersection.

Total time = fixed parking overhead (pulling in plus paying) + driving
while cruising + walking back, with the driving and walking legs measured
mid-block to mid-block: half the first block, interior blocks in full,
half the last block.

Score-term units are a calibration knob: distance enters in hundreds of
meters, elapsed-since-checked in minutes capped at elapsed_cap_s, visit
counts raw, and the availability probability is floored at p_floor before
taking its reciprocal. These choices keep the four terms at comparable
magnitude under the default weights.

All ``n_samples`` searches of one (destination, hour) advance in lockstep
over the graph's dense block index (``RoadGraph.block_ids``, the block ids
in sorted order). Each step, for the searches still active, in sample order:

1. one ``rng.random(n_active)`` draws the parking checks on the blocks
   the searches stand on;
2. searches that parked drop out, then those whose cruising time has
   passed ``max_search_s`` (censored);
3. the four policy terms are scored for every (search, candidate) pair,
   with per-search visit counts and last-check times held as arrays;
4. one masked softmax per search and one ``rng.random(n_active)`` pick
   each search's next block by inverse CDF over its candidates in id order.

This draw order is on-street stream version 2. Each (destination, hour)
cell draws from its own stream, derived from (seed, destination, hour), so
a cell's estimate does not depend on which other cells a call covers or in
what order. ``estimate_onstreet_time`` covers every block at every hour of
a run in one call, destination by destination: it builds each
destination's walk and distance tables once for all hours, and allocates
the visit and last-check arrays once for all cells. The scalar reference
for one search is ``simulate_single`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, check_fields
from .road_graph import (RoadGraph, _check_hour, block_distances_to_block,
                         walk_times_to_block)
from .seeding import derived_stream


@dataclass(frozen=True)
class PolicyWeights:
    """Linear weights over the four block-choice terms."""

    distance_weight: float = -1.0   # per 100 m from the destination
    revisit_weight: float = -15.0   # per previous check of the block
    elapsed_weight: float = 15.0    # per minute since the block was checked
    scarcity_weight: float = -1.0   # on 1 / availability probability

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class OnstreetConfig:
    min_park_s: float = 210.0       # parallel parking plus paying at the meter
    max_search_s: float = 1800.0    # censoring cap on cruising time
    n_samples: int = 100
    seed: int = 0
    elapsed_cap_s: float = 1800.0   # cap on the since-last-checked term
    p_floor: float = 0.05           # floor on P before taking 1/P

    def __post_init__(self):
        check_fields(self, positive=("min_park_s", "max_search_s", "elapsed_cap_s"),
                     at_least={"n_samples": 1, "seed": 0})
        if not 0 < self.p_floor <= 1:
            raise DataError("p_floor must be in (0, 1]")


@dataclass(frozen=True)
class OnstreetEstimate:
    """Search statistics as (hour, destination) arrays: row ``i`` is the
    call's ``hours[i]`` and column ``j`` the block ``g.block_ids[j]``. Every
    cell summarises ``n_samples`` searches."""

    mean_s: np.ndarray
    std_s: np.ndarray
    censored_fraction: np.ndarray
    n_samples: int


def _lockstep(g: RoadGraph, dest: int, walk_s: np.ndarray, dist_m: np.ndarray,
              p: np.ndarray, cfg: OnstreetConfig, weights: PolicyWeights, hour: int,
              rng: np.random.Generator, visits: np.ndarray,
              last_check_s: np.ndarray) -> tuple[np.ndarray, int]:
    """Total time of every search, and the number censored."""
    drive_s = g.drive_s[hour]
    # The distance and scarcity terms depend only on the candidate block.
    fixed = (weights.distance_weight * (dist_m / 100.0)
             + weights.scarcity_weight / np.maximum(p, cfg.p_floor))
    half_first_s = drive_s[dest] / 2.0
    n = cfg.n_samples
    totals = np.empty(n)
    censored = 0
    visits.fill(0)
    last_check_s.fill(-np.inf)                      # never checked: full credit
    live = np.arange(n)                             # sample ids still searching
    block = np.full(n, dest)
    elapsed_s = np.zeros(n)
    while True:
        visits[live, block] += 1
        parked = rng.random(live.size) < p[block]
        if parked.any():
            at = block[parked]
            drive = elapsed_s[parked] - half_first_s + drive_s[at] / 2.0
            totals[live[parked]] = cfg.min_park_s + drive + walk_s[at]
            stay = ~parked
            live, block, elapsed_s = live[stay], block[stay], elapsed_s[stay]
        elapsed_s = elapsed_s + drive_s[block]
        last_check_s[live, block] = elapsed_s
        over = elapsed_s > cfg.max_search_s
        if over.any():
            totals[live[over]] = (cfg.min_park_s + cfg.max_search_s
                                  + walk_s[block[over]])
            censored += int(over.sum())
            stay = ~over
            live, block, elapsed_s = live[stay], block[stay], elapsed_s[stay]
        if not live.size:
            return totals, censored
        candidates = g.next_blocks[:, block]       # (candidate, search)
        cells = candidates + live * len(p)
        since_s = np.minimum(elapsed_s - last_check_s.take(cells), cfg.elapsed_cap_s)
        scores = (fixed[candidates]
                  + weights.revisit_weight * visits.take(cells)
                  + weights.elapsed_weight * (since_s / 60.0))
        # Padding repeats a search's first candidate, so checks and maxima
        # over all rows see only real candidates' values.
        if not np.isfinite(scores).all():
            raise NumericError("non-finite block score")
        weight = np.exp(scores - scores.max(axis=0))
        weight *= g.next_valid[:, block]
        cdf = weight.cumsum(axis=0)
        k = np.minimum((cdf <= rng.random(live.size) * cdf[-1]).sum(axis=0),
                       g.out_degree[block] - 1)
        block = candidates[k, np.arange(live.size)]


def estimate_onstreet_time(g: RoadGraph, p: np.ndarray, hours: tuple[int, ...],
                           cfg: OnstreetConfig, weights: PolicyWeights) -> OnstreetEstimate:
    """Mean and spread of total on-street time, over seeded search samples,
    for every destination block at every hour of ``hours``.

    ``p[i, j]`` is the availability probability of block ``g.block_ids[j]``
    at ``hours[i]``. Each (destination, hour) cell draws from its own stream,
    derived from (seed, destination block, hour), so a cell reproduces
    exactly whatever other hours the call covers.
    """
    for hour in hours:
        _check_hour(hour)
    shape = (len(hours), len(g.block_ids))
    if p.shape != shape:
        raise DataError(f"availability array has shape {p.shape}, expected {shape}")
    n = cfg.n_samples
    mean, std, censored = np.empty(shape), np.zeros(shape), np.empty(shape)
    # One pair of scratch arrays for every search of the call. Allocating
    # and freeing them per (destination, hour) let the allocator return
    # their pages and fault them back in on each cell, at times doubling
    # sim-on's run time.
    visits = np.empty((n, len(g.block_ids)), dtype=np.int64)
    last_check_s = np.empty((n, len(g.block_ids)))
    for j, dest in enumerate(g.block_ids):
        walk_s = walk_times_to_block(g, dest)
        dist_m = block_distances_to_block(g, dest)
        for i, hour in enumerate(hours):
            # an overflowing score is reported as a NumericError, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                totals, n_censored = _lockstep(g, j, walk_s, dist_m, p[i], cfg, weights,
                                               hour, derived_stream(cfg.seed, dest, hour),
                                               visits, last_check_s)
            mean[i, j] = totals.mean()
            if n > 1:
                std[i, j] = totals.std(ddof=1)
            censored[i, j] = n_censored / n
    return OnstreetEstimate(mean_s=mean, std_s=std, censored_fraction=censored,
                            n_samples=n)
