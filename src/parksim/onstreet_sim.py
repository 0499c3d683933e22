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

This draw order is on-street stream version 2. The stream derives from
(seed, destination, hour), so estimates do not depend on task order. The
scalar reference for one search is ``simulate_single`` in
``tests/oracles.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

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
    mean_s: float
    std_s: float
    censored_fraction: float
    n_samples: int


def probability_vector(g: RoadGraph, probs: Mapping[str, float]) -> np.ndarray:
    """Availability per block in ``g.block_ids`` order.

    Every block of the graph needs a probability in [0, 1], and every key
    of ``probs`` must be a block of the graph.
    """
    unknown = sorted(set(probs) - g.position.keys())
    if unknown:
        raise DataError(f"availability for unknown blocks {unknown[:3]}")
    missing = [block for block in g.block_ids if block not in probs]
    if missing:
        raise DataError(f"no availability for {len(missing)} blocks, e.g. {missing[:3]}")
    p = np.array([probs[block] for block in g.block_ids], dtype=float)
    outside = ~((p >= 0.0) & (p <= 1.0))
    if outside.any():
        block = g.block_ids[int(np.argmax(outside))]
        raise DataError(f"availability of block {block!r} is {probs[block]!r}, "
                        "outside [0, 1]")
    return p


@functools.lru_cache(maxsize=1)
def _search_arrays(n: int, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """One pair of (visits, last check) arrays, reused by every search of a
    process, which is single-threaded. Allocating and freeing them per
    (destination, hour) let the allocator return their pages and fault
    them back in on each call, at times doubling sim-on's run time."""
    return np.empty((n, blocks), dtype=np.int64), np.empty((n, blocks))


def _lockstep(g: RoadGraph, dest: int, walk_s: np.ndarray, dist_m: np.ndarray,
              p: np.ndarray, cfg: OnstreetConfig, weights: PolicyWeights, hour: int,
              rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Total time of every search, and the number censored."""
    drive_s = g.drive_s[hour]
    # The distance and scarcity terms depend only on the candidate block.
    fixed = (weights.distance_weight * (dist_m / 100.0)
             + weights.scarcity_weight / np.maximum(p, cfg.p_floor))
    half_first_s = drive_s[dest] / 2.0
    n = cfg.n_samples
    totals = np.empty(n)
    censored = 0
    visits, last_check_s = _search_arrays(n, len(p))
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


def estimate_onstreet_time(g: RoadGraph, probs: Mapping[str, float] | np.ndarray,
                           dest: str, cfg: OnstreetConfig, weights: PolicyWeights,
                           hour: int, walk_s: np.ndarray | None = None,
                           dist_m: np.ndarray | None = None) -> OnstreetEstimate:
    """Mean and spread of total on-street time over seeded search samples.

    ``probs`` maps every block id to its availability probability, or is
    that mapping already turned into a vector by ``probability_vector``,
    which a caller covering many blocks does once per hour. The random stream
    derives from (seed, destination block, hour), so per-block tasks can
    run in any order and still reproduce exactly. ``walk_s`` and ``dist_m``
    are the destination's ``walk_times_to_block`` and
    ``block_distances_to_block`` tables, which do not depend on the hour; a
    caller covering several hours builds them once.
    """
    _check_hour(hour)
    g.edge(dest)
    walk_s = walk_times_to_block(g, dest) if walk_s is None else walk_s
    dist_m = block_distances_to_block(g, dest) if dist_m is None else dist_m
    p = probs if isinstance(probs, np.ndarray) else probability_vector(g, probs)
    if p.shape != (len(g.block_ids),):
        raise DataError(f"availability vector has shape {p.shape}, "
                        f"expected ({len(g.block_ids)},)")
    # an overflowing score is reported as a NumericError, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        totals, censored = _lockstep(g, g.position[dest], walk_s, dist_m, p, cfg,
                                     weights, hour, derived_stream(cfg.seed, dest, hour))
    std = float(totals.std(ddof=1)) if cfg.n_samples > 1 else 0.0
    return OnstreetEstimate(mean_s=float(totals.mean()), std_s=std,
                            censored_fraction=censored / cfg.n_samples,
                            n_samples=cfg.n_samples)
