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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, NumericError
from .road_graph import RoadGraph, block_distances_to_block, walk_times_to_block
from .seeding import derived_stream


@dataclass(frozen=True)
class PolicyWeights:
    """Linear weights over the four block-choice terms."""

    distance_weight: float = -1.0   # per 100 m from the destination
    revisit_weight: float = -15.0   # per previous check of the block
    elapsed_weight: float = 15.0    # per minute since the block was checked
    scarcity_weight: float = -1.0   # on 1 / availability probability


@dataclass(frozen=True)
class OnstreetConfig:
    min_park_s: float = 210.0       # parallel parking plus paying at the meter
    max_search_s: float = 1800.0    # censoring cap on cruising time
    n_samples: int = 100
    seed: int = 0
    elapsed_cap_s: float = 1800.0   # cap on the since-last-checked term
    p_floor: float = 0.05           # floor on P before taking 1/P

    def __post_init__(self):
        for name in ("min_park_s", "max_search_s", "n_samples",
                     "elapsed_cap_s", "p_floor"):
            if not getattr(self, name) > 0:
                raise DataError(f"{name} must be positive")


@dataclass
class SearchState:
    """Mutable per-search bookkeeping for the choice policy."""

    current_node: str
    elapsed_s: float = 0.0
    visits: dict[str, int] = field(default_factory=dict)
    last_check_s: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SearchOutcome:
    parked_block: str
    drive_s: float
    walk_s: float
    total_s: float
    censored: bool
    trace: tuple[str, ...]


@dataclass(frozen=True)
class OnstreetEstimate:
    mean_s: float
    std_s: float
    censored_fraction: float
    n_samples: int


def softmax_probabilities(scores: Sequence[float]) -> np.ndarray:
    """Softmax with max-shift; same distribution, no overflow."""
    z = np.asarray(scores, dtype=float)
    if z.size == 0:
        raise DataError("empty score list")
    if not np.all(np.isfinite(z)):
        raise NumericError("non-finite block score")
    e = np.exp(z - z.max())
    return e / e.sum()


def choose_block(scores: Sequence[float], rng: np.random.Generator) -> int:
    """Sample a candidate index with softmax probabilities."""
    p = softmax_probabilities(scores)
    r = rng.random()
    acc = 0.0
    for i, pi in enumerate(p):
        acc += pi
        if r < acc:
            return i
    return len(p) - 1  # guard against cumulative rounding


def block_scores(state: SearchState, candidates: Sequence[str],
                 probs: Mapping[str, float], weights: PolicyWeights,
                 cfg: OnstreetConfig, distances_m: Mapping[str, float]) -> list[float]:
    """Choice score for each candidate block at the current intersection.

    ``distances_m`` maps each block to its distance from the destination.
    Blocks never checked before get the full elapsed credit, so they are
    not penalized relative to blocks checked long ago.
    """
    if not candidates:
        raise DataError("no candidate blocks at current intersection")
    scores = []
    for eid in candidates:
        hundreds_m = distances_m[eid] / 100.0
        checks = state.visits.get(eid, 0)
        last = state.last_check_s.get(eid)
        if last is None:
            since_check_s = cfg.elapsed_cap_s
        else:
            since_check_s = min(state.elapsed_s - last, cfg.elapsed_cap_s)
        inv_p = 1.0 / max(probs.get(eid, 0.0), cfg.p_floor)
        scores.append(weights.distance_weight * hundreds_m
                      + weights.revisit_weight * checks
                      + weights.elapsed_weight * (since_check_s / 60.0)
                      + weights.scarcity_weight * inv_p)
    return scores


@dataclass(frozen=True)
class _DestContext:
    walk_s: Mapping[str, float]
    dist_m: Mapping[str, float]


def _destination_context(g: RoadGraph, dest: str) -> _DestContext:
    return _DestContext(walk_s=walk_times_to_block(g, dest),
                        dist_m=block_distances_to_block(g, dest))


def _trace_drive_seconds(g: RoadGraph, trace: Sequence[str], hour: int) -> float:
    """Cruising drive time along a trace: half first, interior, half last."""
    if len(trace) == 1:
        return 0.0
    d = [g.edges[eid].drive_time_s[hour] for eid in trace]
    return d[0] / 2.0 + sum(d[1:]) - d[-1] / 2.0


def simulate_single(g: RoadGraph, probs: Mapping[str, float], dest: str,
                    cfg: OnstreetConfig, weights: PolicyWeights, hour: int,
                    rng: np.random.Generator,
                    _ctx: _DestContext | None = None) -> SearchOutcome:
    """One complete search starting mid-block on the destination block."""
    g.edge(dest)
    ctx = _ctx if _ctx is not None else _destination_context(g, dest)
    state = SearchState(current_node=g.edges[dest].to_node)
    trace = [dest]
    while True:
        block = trace[-1]
        state.visits[block] = state.visits.get(block, 0) + 1
        if rng.random() < probs.get(block, 0.0):
            drive_s = _trace_drive_seconds(g, trace, hour)
            walk_s = 0.0 if block == dest else ctx.walk_s[block]
            return SearchOutcome(
                parked_block=block, drive_s=drive_s, walk_s=walk_s,
                total_s=cfg.min_park_s + drive_s + walk_s,
                censored=False, trace=tuple(trace))
        state.elapsed_s += g.edges[block].drive_time_s[hour]
        state.last_check_s[block] = state.elapsed_s
        if state.elapsed_s > cfg.max_search_s:
            walk_s = 0.0 if block == dest else ctx.walk_s[block]
            return SearchOutcome(
                parked_block=block, drive_s=cfg.max_search_s, walk_s=walk_s,
                total_s=cfg.min_park_s + cfg.max_search_s + walk_s,
                censored=True, trace=tuple(trace))
        state.current_node = g.edges[block].to_node
        candidates = g.adjacency[state.current_node]
        scores = block_scores(state, candidates, probs, weights, cfg, ctx.dist_m)
        trace.append(candidates[choose_block(scores, rng)])


def estimate_onstreet_time(g: RoadGraph, probs: Mapping[str, float], dest: str,
                           cfg: OnstreetConfig, weights: PolicyWeights,
                           hour: int,
                           _ctx: _DestContext | None = None) -> OnstreetEstimate:
    """Mean and spread of total on-street time over seeded search samples.

    The random stream derives from (seed, destination block, hour), so
    per-block tasks can run in any order and still reproduce exactly.
    ``_ctx`` holds the destination's walk and distance tables, which do not
    depend on the hour; a caller covering several hours builds it once with
    ``_destination_context``.
    """
    ctx = _ctx if _ctx is not None else _destination_context(g, dest)
    rng = derived_stream(cfg.seed, dest, hour)
    totals = np.empty(cfg.n_samples)
    censored = 0
    for i in range(cfg.n_samples):
        outcome = simulate_single(g, probs, dest, cfg, weights, hour, rng, _ctx=ctx)
        totals[i] = outcome.total_s
        censored += outcome.censored
    std = float(totals.std(ddof=1)) if cfg.n_samples > 1 else 0.0
    return OnstreetEstimate(mean_s=float(totals.mean()), std_s=std,
                            censored_fraction=censored / cfg.n_samples,
                            n_samples=cfg.n_samples)
