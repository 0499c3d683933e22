"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive: exhaustive enumeration, straight-line
formula evaluation, finite differences, one search at a time. None of it
shares code with the package (only its exception types), so agreement is
meaningful. The exceptions are ``fit_split``, which trains one split at a
time with the package's own gradient: it pins how the splits are stacked,
gathered and seeded, while ``finite_difference_gradient`` pins the gradient
and the CLI test ``test_training_pinned`` the bits of a whole training run;
``estimate_cells``, which runs the on-street lockstep one (destination,
hour) cell at a time on the package's tables and uniforms: it pins how cells
are chunked, while ``simulate_single`` pins the search itself and, through
the integer ``counter_uniform``, the uniforms; and ``lot_hours_scalar``,
which reduces the waits of ``simulate_lot_hour_scalar``'s parked cars with
the package's ``lot_wait_times``: the scalar lot pins the stalls, through
the integer ``counter_uniform`` the uniforms, and ``lot_wait_time`` the
waits. ``sessions_v1`` is synth stream version 1's session draw as it was
first written, one numpy call per draw, on synth's face record (a graph
file's edge dict); it reads the package's ``_DAY0_S`` and ``_hour_shape``,
and pins the draws, not those constants.

The graph oracles read only a ``RoadGraph``'s base columns: ``node_ids``,
``lat``, ``lon``, ``block_ids``, ``block_from``, ``block_to``,
``length_m``, ``walk_s``, ``drive_s`` and ``meter_count``, through
``block_records`` and ``node_records``, records of this module's own types,
where records are handier; ``graph_file_records`` gives the graph file's
object of those columns, as tests write and rebuild graphs from it. None
reads the position maps or the adjacency that the package derives from
them: ``lockstep_cell`` takes its candidates from ``candidate_table``,
built from ``out_blocks``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import zlib
from dataclasses import dataclass, field
from datetime import timedelta
from typing import Mapping, Sequence

import numpy as np

from parksim.errors import DataError, NumericError
from parksim.occupancy_model import (Network, SplitScore, _accuracy, _glorot_uniform,
                                     gradient, loss)
from parksim.offstreet_sim import LotHourStats, lot_wait_times
from parksim.onstreet_sim import OnstreetConfig, PolicyWeights
from parksim.road_graph import RoadGraph, block_distances_to_block, walk_times_to_block
from parksim.seeding import counter_uniform as uniforms, derived_stream, stream_key
from parksim.synth import _DAY0_S, _hour_shape


# -- the graph's base columns as records --------------------------------------

@dataclass(frozen=True)
class BlockRecord:
    """One directed block face, as the graph oracles read it."""

    id: str
    from_node: str
    to_node: str
    length_m: float
    meter_count: int
    walk_time_s: float
    drive_time_s: tuple[float, ...]  # one per hour


@dataclass(frozen=True)
class NodeRecord:
    id: str
    lat: float
    lon: float


def block_records(g) -> dict[str, BlockRecord]:
    """Every block of ``g`` by id, zipped from its base columns."""
    return {block: BlockRecord(block, g.node_ids[a], g.node_ids[b], length, meters, walk,
                               tuple(drive))
            for block, a, b, length, meters, walk, drive in zip(
                g.block_ids, g.block_from.tolist(), g.block_to.tolist(), g.length_m.tolist(),
                g.meter_count, g.walk_s.tolist(), g.drive_s.T.tolist())}


def node_records(g) -> dict[str, NodeRecord]:
    """Every node of ``g`` by id, zipped from its base columns."""
    return {node: NodeRecord(node, lat, lon)
            for node, lat, lon in zip(g.node_ids, g.lat.tolist(), g.lon.tolist())}


def graph_file_records(g) -> dict:
    """The graph file's object of ``g``, as ``json.loads`` gives it: its node
    and edge records in id order."""
    return {"nodes": [{"id": n.id, "lat": n.lat, "lon": n.lon} for n in node_records(g).values()],
            "edges": [{"id": b.id, "from": b.from_node, "to": b.to_node, "length_m": b.length_m,
                       "meter_count": b.meter_count, "walk_time_s": b.walk_time_s,
                       "drive_time_s": list(b.drive_time_s)} for b in block_records(g).values()]}


# -- shortest paths by exhaustive simple-path enumeration -------------------

def _edges_between(g, directed: bool):
    """Map (node, node) -> edge, honoring or ignoring direction."""
    table = {}
    for e in block_records(g).values():
        table.setdefault((e.from_node, e.to_node), []).append(e)
        if not directed:
            table.setdefault((e.to_node, e.from_node), []).append(e)
    return table


def _all_simple_path_costs(g, start, goal, step_cost, directed):
    """Yield left-fold costs of all simple node paths from start to goal."""
    arcs = _edges_between(g, directed)
    neighbors = {}
    for (a, b) in arcs:
        neighbors.setdefault(a, set()).add(b)

    def dfs(node, cost, visited):
        if node == goal:
            yield cost
            return
        for other in sorted(neighbors.get(node, ())):
            if other in visited:
                continue
            for edge in arcs[(node, other)]:
                yield from dfs(other, cost + step_cost(edge), visited | {other})

    yield from dfs(start, 0.0, {start})


def brute_drive_time(g, src_block, dst_block, hour):
    if src_block == dst_block:
        return 0.0
    src, dst = block_records(g)[src_block], block_records(g)[dst_block]
    best = math.inf
    start_cost = src.drive_time_s[hour] / 2.0
    for cost in _all_simple_path_costs(
            g, src.to_node, dst.from_node,
            lambda e: e.drive_time_s[hour], directed=True):
        total = (start_cost + cost) + dst.drive_time_s[hour] / 2.0
        if total < best:
            best = total
    return best


def _brute_undirected(g, src_block, dst_block, weight):
    if src_block == dst_block:
        return 0.0
    src, dst = block_records(g)[src_block], block_records(g)[dst_block]
    best = math.inf
    for start in (src.from_node, src.to_node):
        for goal in (dst.from_node, dst.to_node):
            start_cost = weight(src) / 2.0
            for cost in _all_simple_path_costs(g, start, goal, weight, directed=False):
                total = (start_cost + cost) + weight(dst) / 2.0
                if total < best:
                    best = total
    return best


def _least_folds_from(start, arcs):
    """Least cost of every node over all simple paths from ``start``.

    ``arcs`` maps a node to (next node, weight) pairs; each path's cost is
    folded from the ``start`` end.
    """
    best = {}

    def dfs(node, cost, visited):
        best[node] = min(best.get(node, math.inf), cost)
        for other, w in arcs.get(node, ()):
            if other not in visited:
                dfs(other, cost + w, visited | {other})

    dfs(start, 0.0, {start})
    return best


def brute_drive_time_to_node(g, src_block, node, hour):
    """Drive seconds from a block midpoint to an intersection, enumerating
    every simple path back from the node and folding its cost from there."""
    back, blocks = {}, block_records(g)
    for e in blocks.values():
        back.setdefault(e.to_node, []).append((e.from_node, e.drive_time_s[hour]))
    src = blocks[src_block]
    return src.drive_time_s[hour] / 2.0 + _least_folds_from(node, back).get(
        src.to_node, math.inf)


def brute_walk_time_from_node(g, node, dst_block):
    """Walk seconds from an intersection to a block midpoint over every
    simple path, each folded from the node."""
    arcs, blocks = {}, block_records(g)
    for e in blocks.values():
        arcs.setdefault(e.from_node, []).append((e.to_node, e.walk_time_s))
        arcs.setdefault(e.to_node, []).append((e.from_node, e.walk_time_s))
    dist = _least_folds_from(node, arcs)
    dst = blocks[dst_block]
    return dst.walk_time_s / 2.0 + min(dist[dst.from_node], dist[dst.to_node])


def brute_walk_time(g, src_block, dst_block):
    return _brute_undirected(g, src_block, dst_block, lambda e: e.walk_time_s)


def brute_distance_m(g, src_block, dst_block):
    return _brute_undirected(g, src_block, dst_block, lambda e: e.length_m)


# -- total on-street time from a recorded trace ------------------------------

def trace_total_time(min_park_s, drive_times, walk_times):
    """Straight-line evaluation of the three-part search-time formula.

    drive_times: per-block drive seconds along the cruising trace, in order.
    walk_times: per-block walk seconds along the walk back, in order.
    """
    drive = 0.0
    if len(drive_times) >= 1:
        drive = drive_times[0] / 2.0
        for d in drive_times[1:]:
            drive += d
        drive -= drive_times[-1] / 2.0
    walk = 0.0
    if len(walk_times) >= 1:
        walk = walk_times[0] / 2.0
        for w in walk_times[1:]:
            walk += w
        walk -= walk_times[-1] / 2.0
    return min_park_s + drive + walk


# -- one on-street search, scalar -------------------------------------------

def out_blocks(g) -> dict[str, tuple[str, ...]]:
    """Each node's outgoing block ids in id order, read from the block ends."""
    outs = {node: [] for node in g.node_ids}
    for block, a in zip(g.block_ids, g.block_from.tolist()):
        outs[g.node_ids[a]].append(block)
    return {node: tuple(sorted(ids)) for node, ids in outs.items()}


def candidate_table(g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidates after each block, its to-node's ``out_blocks``, as a
    (candidate, block) array of block indices padded by repeating the
    first; the mask of the real ones; and their count."""
    outs, index = out_blocks(g), {block: i for i, block in enumerate(g.block_ids)}
    rows = [[index[block] for block in outs[g.node_ids[b]]] for b in g.block_to.tolist()]
    width = max(map(len, rows))
    degree = np.array([len(row) for row in rows])
    return (np.array([row + row[:1] * (width - len(row)) for row in rows]).T,
            np.arange(width)[:, None] < degree, degree)


def midpoint_table(g, dst_block, weight):
    """Undirected midpoint-to-midpoint cost from every block to dst_block.

    Floyd-Warshall over the intersections, then half of each end block.
    """
    nodes, blocks = g.node_ids, block_records(g)
    dist = {(a, b): 0.0 if a == b else math.inf for a in nodes for b in nodes}
    for e in blocks.values():
        w = weight(e)
        for a, b in ((e.from_node, e.to_node), (e.to_node, e.from_node)):
            dist[(a, b)] = min(dist[(a, b)], w)
    for k in nodes:
        for a in nodes:
            for b in nodes:
                if dist[(a, k)] + dist[(k, b)] < dist[(a, b)]:
                    dist[(a, b)] = dist[(a, k)] + dist[(k, b)]
    dst = blocks[dst_block]
    table = {}
    for eid, e in blocks.items():
        if eid == dst_block:
            table[eid] = 0.0
            continue
        gap = min(dist[(a, b)] for a in (e.from_node, e.to_node)
                  for b in (dst.from_node, dst.to_node))
        table[eid] = weight(e) / 2.0 + gap + weight(dst) / 2.0
    return table


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
                 probs: Mapping[str, float], weights, cfg,
                 distances_m: Mapping[str, float]) -> list[float]:
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


def simulate_single(g, probs: Mapping[str, float], dest: str, cfg, weights,
                    hour: int, rng, *, walk_s=None, dist_m=None) -> SearchOutcome:
    """One complete search starting mid-block on the destination block.

    One parking draw per checked block, then one choice draw per step, each
    from ``rng.random()``: a numpy generator, or ``SearchDraws`` for the
    search of stream version 3.
    ``walk_s`` and ``dist_m`` are the destination's ``midpoint_table``s
    by walk time and by length, computed here when not given.
    """
    if walk_s is None:
        walk_s = midpoint_table(g, dest, lambda e: e.walk_time_s)
    if dist_m is None:
        dist_m = midpoint_table(g, dest, lambda e: e.length_m)
    outs, blocks = out_blocks(g), block_records(g)
    state = SearchState(current_node=blocks[dest].to_node)
    trace = [dest]
    while True:
        block = trace[-1]
        state.visits[block] = state.visits.get(block, 0) + 1
        if rng.random() < probs.get(block, 0.0):
            d = [blocks[eid].drive_time_s[hour] for eid in trace]
            drive_s = 0.0 if len(d) == 1 else d[0] / 2.0 + sum(d[1:]) - d[-1] / 2.0
            return SearchOutcome(
                parked_block=block, drive_s=drive_s, walk_s=walk_s[block],
                total_s=cfg.min_park_s + drive_s + walk_s[block],
                censored=False, trace=tuple(trace))
        state.elapsed_s += blocks[block].drive_time_s[hour]
        state.last_check_s[block] = state.elapsed_s
        if state.elapsed_s > cfg.max_search_s:
            return SearchOutcome(
                parked_block=block, drive_s=cfg.max_search_s, walk_s=walk_s[block],
                total_s=cfg.min_park_s + cfg.max_search_s + walk_s[block],
                censored=True, trace=tuple(trace))
        state.current_node = blocks[block].to_node
        candidates = outs[state.current_node]
        scores = block_scores(state, candidates, probs, weights, cfg, dist_m)
        trace.append(candidates[choose_block(scores, rng)])


# -- on-street stream version 3, one Python integer at a time ----------------

MASK = 2 ** 64 - 1


def _fold(key: int, label: int) -> int:
    """SplitMix64's step and finaliser: ``mix(key + (label + 1) * gamma)``."""
    z = (key + (label + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def fold_labels(seed: int, labels: Sequence[int]) -> int:
    """The key that (seed, labels) hash to: the seed modulo 2^64, then each
    label folded in."""
    key = seed & MASK
    for label in labels:
        key = _fold(key, label & MASK)
    return key


def counter_uniform(seed: int, labels: Sequence[int], counter: int) -> float:
    """The uniform that (seed, labels, counter) hash to: the top 53 bits of
    the key with the counter folded in last."""
    return (fold_labels(seed, (*labels, counter)) >> 11) / 2.0 ** 53


def cell_labels(dest: str, hour: int) -> tuple[int, int]:
    """The labels of an on-street (destination, hour) cell."""
    return zlib.crc32(dest.encode("utf-8")), hour


@dataclass
class SearchDraws:
    """One search's draws in on-street stream version 3, in the order a
    search makes them: ``random()`` returns draw 0, 1, 2, ... of sample
    ``sample`` of cell (``dest``, ``hour``)."""

    seed: int
    dest: str
    hour: int
    sample: int
    counter: int = 0

    def random(self) -> float:
        u = counter_uniform(self.seed, (*cell_labels(self.dest, self.hour), self.sample),
                            self.counter)
        self.counter += 1
        return u


def stream_v2(seed: int, dest: str, hour: int, n: int):
    """``lockstep_cell``'s draws in on-street stream version 2: the cell's
    own generator, one ``random`` call per draw over the live searches."""
    rng = derived_stream(seed, dest, hour)
    return lambda live, counter: rng.random(live.size)


def stream_v3(seed: int, dest: str, hour: int, n: int):
    """``lockstep_cell``'s draws in on-street stream version 3: draw
    ``counter`` of each live search, from the cell's key and its sample."""
    keys = stream_key(np.uint64(fold_labels(seed, cell_labels(dest, hour))), np.arange(n))
    return lambda live, counter: uniforms(keys[live], counter)


# -- every search of one (destination, hour) cell in lockstep ------------------

def lockstep_cell(g: RoadGraph, dest: int, walk_s: np.ndarray, dist_m: np.ndarray,
                  p: np.ndarray, cfg: OnstreetConfig, weights: PolicyWeights, hour: int,
                  draw, visits: np.ndarray, last_check_s: np.ndarray,
                  candidates_at) -> tuple[np.ndarray, int]:
    """Total time of every search, and the number censored. ``draw(live,
    counter)`` returns draw ``counter`` of the searches ``live``: the
    parking check on a search's ``t``-th block is draw ``2 t``, the choice
    after it ``2 t + 1``. ``candidates_at`` is ``g``'s ``candidate_table``."""
    table, real, degree = candidates_at
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
    for t in itertools.count():
        visits[live, block] += 1
        parked = draw(live, 2 * t) < p[block]
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
        candidates = table[:, block]               # (candidate, search)
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
        weight *= real[:, block]
        cdf = weight.cumsum(axis=0)
        k = np.minimum((cdf <= draw(live, 2 * t + 1) * cdf[-1]).sum(axis=0),
                       degree[block] - 1)
        block = candidates[k, np.arange(live.size)]


def estimate_cells(g: RoadGraph, p: np.ndarray, hours, cfg: OnstreetConfig,
                   weights: PolicyWeights, stream=stream_v3):
    """(mean, std, censored fraction) as (hour, block) arrays, one cell at a
    time: each destination's tables, then one ``lockstep_cell`` per hour,
    which refills the scratch, drawing from ``stream(seed, dest, hour, n)``."""
    n = cfg.n_samples
    shape = (len(hours), len(g.block_ids))
    mean, std, censored = np.empty(shape), np.zeros(shape), np.empty(shape)
    visits = np.empty((n, len(g.block_ids)), dtype=np.int64)
    last_check_s = np.empty((n, len(g.block_ids)))
    candidates_at = candidate_table(g)
    for j, dest in enumerate(g.block_ids):
        walk_s = walk_times_to_block(g, dest)
        dist_m = block_distances_to_block(g, dest)
        for i, hour in enumerate(hours):
            with np.errstate(over="ignore", invalid="ignore"):
                totals, n_censored = lockstep_cell(g, j, walk_s, dist_m, p[i], cfg, weights,
                                                   hour, stream(cfg.seed, dest, hour, n),
                                                   visits, last_check_s, candidates_at)
            mean[i, j] = totals.mean()
            if n > 1:
                std[i, j] = totals.std(ddof=1)
            censored[i, j] = n_censored / n
    return mean, std, censored


# -- in-lot wait time, straight-line ------------------------------------------

def lot_wait_time(k, departures, stalls_passed, min_park_s, per_stall_s,
                  vacate_wait_s):
    total = min_park_s
    total += stalls_passed * per_stall_s
    total += (min(k, departures) / 2.0) * vacate_wait_s
    for i in range(1, k):
        total += min_park_s / (2.0 ** i)
    return total


# -- the lot, one repetition and one tick at a time ---------------------------

@dataclass
class LotState:
    occupied: np.ndarray  # bool per stall, index 0 nearest the entrance

    @classmethod
    def fresh(cls, capacity: int, initially_occupied: int = 0) -> "LotState":
        if not 0 <= initially_occupied <= capacity:
            raise DataError("initial occupancy outside [0, capacity]")
        occupied = np.zeros(capacity, dtype=bool)
        occupied[:initially_occupied] = True
        return cls(occupied=occupied)

    @property
    def count(self) -> int:
        return int(self.occupied.sum())


@dataclass(frozen=True)
class TickResult:
    arrivals: int                    # Poisson draw
    departures: int                  # Poisson draw
    departed: int                    # actually vacated (bounded by occupancy)
    stall_indices: tuple[int, ...]   # 0-based stall per parked arrival
    overflow: int                    # arrivals that found no stall


def leave_and_park(state: LotState, leaving, n_arrive: int) -> tuple[int, ...]:
    """Vacate the stalls ``leaving``, then park up to ``n_arrive`` cars in
    the lowest free stalls; returns those stalls in order."""
    state.occupied[list(leaving)] = False
    taken = np.flatnonzero(~state.occupied)[:n_arrive]
    state.occupied[taken] = True
    return tuple(int(i) for i in taken)


def sample_tick(state: LotState, arrivals_per_hour: float,
                departures_per_hour: float, cfg,
                rng: np.random.Generator) -> TickResult:
    """Advance the lot by one tick, mutating ``state``, with its own draws.

    Departures vacate before arrivals park. The stall index recorded for an
    arrival equals the number of stalls it drove past.
    """
    if arrivals_per_hour < 0 or departures_per_hour < 0:
        raise DataError("rates must be nonnegative")
    scale = 1.0 / max(1, int(round(3600.0 / cfg.tick_s)))  # the ticks span the hour
    n_arrive = int(rng.poisson(arrivals_per_hour * scale))
    n_depart = int(rng.poisson(departures_per_hour * scale))

    occupied_idx = np.flatnonzero(state.occupied)
    departed = min(n_depart, occupied_idx.size)
    leaving = rng.choice(occupied_idx, size=departed, replace=False) if departed else ()
    taken = leave_and_park(state, leaving, n_arrive)
    return TickResult(arrivals=n_arrive, departures=n_depart, departed=departed,
                      stall_indices=taken, overflow=n_arrive - len(taken))


# -- which occupied stalls the leaving cars vacate, per lot stream version ---

def lot_departures_v3(rng: np.random.Generator, depart: np.ndarray, capacity: int):
    """Lot stream version 3: one task key drawn after the Poisson arrays;
    car ``j`` to leave repetition ``rep`` in tick ``t`` takes ``u =
    counter_uniform(key, (rep, t), j)`` and vacates the ``floor(u * n)``-th
    of the ``n`` stalls still occupied, in stall order."""
    key = int(rng.integers(0, 2 ** 64, dtype=np.uint64))

    def leaving(t: int, rep: int, stalls: list[int], n: int) -> list[int]:
        stalls, left = list(stalls), []
        for j in range(n):
            u = counter_uniform(key, (rep, t), j)
            left.append(stalls.pop(int(u * len(stalls))))
        return left
    return leaving


def lot_departures_v2(rng: np.random.Generator, depart: np.ndarray, capacity: int):
    """Lot stream version 2: after the Poisson arrays, one ``random((reps,
    capacity))`` of keys in each tick where any repetition draws a
    departure; the occupied stalls with the smallest keys leave."""
    keys = {t: rng.random((depart.shape[1], capacity))
            for t in range(len(depart)) if depart[t].any()}
    return lambda t, rep, stalls, n: sorted(stalls, key=lambda s: keys[t][rep, s])[:n]


def simulate_lot_hour_scalar(capacity: int, lam_a: float, lam_d: float, cfg,
                             initial_occupancy: int, rng: np.random.Generator,
                             departures=lot_departures_v3) -> tuple[list[tuple[int, ...]], int]:
    """One hour of lot traffic, repeated ``cfg.reps`` times from the initial
    occupancy, one tick and one repetition at a time, on the draws one task
    of ``simulate_lot_hours`` makes from ``rng``: the (tick, rep) Poisson
    arrays of arrivals and departures, then those of ``departures(rng,
    depart, capacity)``, which returns the stalls that ``n`` cars leaving a
    repetition in a tick vacate. Returns the (k, departed, stall) of every
    parked car in (tick, rep, stall) order, and the overflow summed over the
    repetitions."""
    ticks = max(1, int(round(3600.0 / cfg.tick_s)))
    scale = 1.0 / ticks
    arrive = rng.poisson(lam_a * scale, size=(ticks, cfg.reps))
    depart = rng.poisson(lam_d * scale, size=(ticks, cfg.reps))
    leaving = departures(rng, depart, capacity)
    states = [LotState.fresh(capacity, initial_occupancy) for _ in range(cfg.reps)]
    cars: list[tuple[int, ...]] = []
    overflow = 0
    for t in range(ticks):
        for rep, state in enumerate(states):
            stalls = np.flatnonzero(state.occupied).tolist()
            departed = min(int(depart[t, rep]), len(stalls))
            taken = leave_and_park(state, leaving(t, rep, stalls, departed) if departed else (),
                                   int(arrive[t, rep]))
            overflow += int(arrive[t, rep]) - len(taken)
            cars += [(k, departed, stall) for k, stall in enumerate(taken, start=1)]
    return cars, overflow


def lot_hours_scalar(tasks, rates, day: int, cfg, departures=lot_departures_v3):
    """``simulate_lot_hours`` one task at a time through
    ``simulate_lot_hour_scalar``. The waits come from the package's
    ``lot_wait_times`` (pinned against ``lot_wait_time``) and are reduced in
    the same order, so the statistics match to the bit."""
    stats = []
    for spec, hour, occupancy, rng in tasks:
        lam_a, lam_d = rates[spec.id][day, hour].tolist()
        cars, overflow = simulate_lot_hour_scalar(spec.capacity, lam_a, lam_d, cfg, occupancy,
                                                  rng, departures)
        if not cars:
            stats.append(LotHourStats(mean_s=None, std_s=None, arrivals=0, overflow=overflow))
            continue
        s = lot_wait_times(*np.array(cars).T, cfg)
        stats.append(LotHourStats(mean_s=float(s.mean()),
                                  std_s=float(s.std(ddof=1)) if s.size > 1 else 0.0,
                                  arrivals=s.size, overflow=overflow))
    return stats


# -- availability features by scanning every payment -------------------------

def extract_features(payments, block_id, t, g):
    """The four features of one block at one time, from payment records.

    A session is active over the half-open interval [start, start +
    duration); popularity counts sessions by start time in [t - 3h, t).
    Returns (active, popularity, length_m, drive seconds per meter).
    """
    if block_id not in g.block_ids:
        raise DataError(f"unknown block id: {block_id!r}")
    i = g.block_ids.index(block_id)
    active = 0
    recent = 0
    for p in payments:
        if p.block_id != block_id:
            continue
        if p.start <= t < p.start + timedelta(seconds=p.duration_s):
            active += 1
        if t - timedelta(hours=3) <= p.start < t:
            recent += 1
    length_m = float(g.length_m[i])
    return (float(active), float(recent), length_m, float(g.drive_s[t.hour, i]) / length_m)


# -- network forward pass with plain loops ------------------------------------

def plain_forward(weights, biases, feature_norm, x):
    """Evaluate the layered network on one input with scalar loops.

    weights: list of 2-D lists (in_dim x out_dim); biases: list of lists.
    ReLU between layers, final softmax. Returns the probability list.
    """
    mean, std = feature_norm
    values = [(xi - m) / s for xi, m, s in zip(x, mean, std)]
    for layer, (w, b) in enumerate(zip(weights, biases)):
        out = []
        for j in range(len(b)):
            acc = b[j]
            for i, v in enumerate(values):
                acc += v * w[i][j]
            out.append(acc)
        if layer < len(weights) - 1:
            out = [max(0.0, v) for v in out]
        values = out
    peak = max(values)
    exps = [math.exp(v - peak) for v in values]
    norm = sum(exps)
    return [v / norm for v in exps]


# -- finite-difference gradient ------------------------------------------------

def finite_difference_gradient(loss_fn, params, step_scale=1e-5):
    """Central-difference gradient of loss_fn with respect to flat arrays.

    params: dict name -> numpy array (perturbed in place during probing,
    restored afterwards). loss_fn takes no arguments and reads params.
    """
    import numpy as np

    grads = {}
    for name, arr in params.items():
        flat = arr.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            h = step_scale * max(1.0, abs(orig))
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * h)
        grads[name] = g.reshape(arr.shape)
    return grads


# -- training one split at a time ----------------------------------------------

def _init_model(dims, rng, mean, std):
    if len(dims) == 2:
        layers = [(np.zeros(dims), np.zeros(dims[1]))]
    else:
        layers = [(_glorot_uniform(rng, fan_in, fan_out), np.zeros(fan_out))
                  for fan_in, fan_out in zip(dims[:-1], dims[1:])]
    return Network(layers, feature_mean=mean, feature_std=std)


def fit_split(X, y, cfg, split_index, dims):
    """Train one fresh model on one seeded 80/20 split.

    The per-split generator drives, in order: the split permutation, weight
    initialization, and the per-epoch shuffles, which makes runs with the
    same seed bit-reproducible. The split permutation is drawn first so the
    network and the baseline see identical splits.
    """
    rng = np.random.default_rng(cfg.seed + split_index)
    n = len(y)
    perm = rng.permutation(n)
    n_val = max(1, int(round(n * cfg.validation_fraction)))
    if n_val >= n:
        raise DataError("validation fraction leaves no training data")
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    X_train, y_train = X[train_idx], y[train_idx]
    mean = X_train.mean(axis=0)
    std = X_train.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)  # constant features pass through
    model = _init_model(dims, rng, mean, std)

    n_train = len(y_train)
    for _ in range(cfg.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            grads = gradient(model, X_train[batch], y_train[batch])
            for (w, b), (dw, db) in zip(model.layers, grads):
                w -= cfg.learning_rate * dw
                b -= cfg.learning_rate * db

    X_val, y_val = X[val_idx], y[val_idx]
    score = SplitScore(cross_entropy=loss(model, X_val, y_val),
                       accuracy=_accuracy(model, X_val, y_val))
    return model, score


# -- left-half-Gaussian redistribution weights ---------------------------------

def left_gaussian_weights(sigma, span):
    raw = [math.exp(-(d * d) / (2.0 * sigma * sigma)) for d in range(1, span + 1)]
    total = sum(raw)
    return [r / total for r in raw]


# -- survey samples by grouping checks in a dict --------------------------------

def survey_samples(checks):
    """One availability sample per (block, half-hour window) of meter checks.

    ``checks`` are (block_id, timestamp or None, free) rows in any order.
    Checks without a timestamp are unusable and only counted. A block is
    available in a window if any check found a free spot; the sample time
    is the window midpoint. Returns ([(block_id, midpoint, available)]
    sorted by block, then window; the number of checks discarded).
    """
    discarded = 0
    groups = {}
    for block, ts, free in checks:
        if ts is None:
            discarded += 1
            continue
        window = ts.replace(minute=0 if ts.minute < 30 else 30, second=0, microsecond=0)
        groups[(block, window)] = max(groups.get((block, window), 0), int(free))
    return ([(block, window + timedelta(minutes=15), available)
             for (block, window), available in sorted(groups.items())], discarded)


# -- lot rates by scanning the event rows ---------------------------------------

def lot_rates(events, peak_hours, sigma_h, span_h):
    """Per-(lot, day-of-week, hour) rates of lot event rows, and the number
    of cars whose paid time expires at or after their lot's span end.

    ``events`` are (lot_id, hour, entries, paid_durations_s) rows, in any
    order, that cover each lot's span hour by hour. A car departs in the
    hour its paid time expires. At each peak hour, in time order, the
    excess over the median of the +-3 h neighborhood moves to the span_h
    hours before it; then each (day of week, hour) slot averages its hours
    in time order. Returns ({(lot, dow, hour): (lambda_a, lambda_d)},
    outside).
    """
    hour = timedelta(hours=1)
    rates = {}
    outside = 0
    for lot in sorted({e[0] for e in events}):
        rows = [e for e in events if e[0] == lot]
        start = min(r[1] for r in rows)
        end = max(r[1] for r in rows) + hour
        entries, leaving = {}, {}
        for _, t, n, paid in rows:
            entries[t] = entries.get(t, 0) + n
            for s in paid:
                leave = (t + timedelta(seconds=s)).replace(minute=0, second=0,
                                                           microsecond=0)
                leaving[leave] = leaving.get(leave, 0) + 1
        outside += sum(n for t, n in leaving.items() if t >= end)

        times = []
        t = start
        while t < end:
            times.append(t)
            t += hour
        series = [float(leaving.get(t, 0)) for t in times]
        weights = left_gaussian_weights(sigma_h, span_h)
        for i, t in enumerate(times):
            if t.hour not in peak_hours:
                continue
            if i < span_h:
                raise DataError(f"series too short before {t}")
            around = sorted(series[j] for j in range(i - 3, i + 4)
                            if j != i and 0 <= j < len(series))
            mid = len(around) // 2
            median = around[mid] if len(around) % 2 else (around[mid - 1] + around[mid]) / 2
            excess = max(0.0, series[i] - median)
            series[i] -= excess
            for d, w in enumerate(weights, start=1):
                series[i - d] += excess * w

        sums = {}
        for t, out in zip(times, series):
            acc = sums.setdefault((t.weekday(), t.hour), [0.0, 0.0])
            acc[0] += float(entries[t])
            acc[1] += out
        weeks = len(times) // (7 * 24)
        for (dow, h), (total_in, total_out) in sums.items():
            rates[(lot, dow, h)] = (total_in / weeks, total_out / weeks)
    return rates, outside


# -- synth stream version 1's sessions, one numpy call per draw ----------------

def sessions_v1(face: dict, centrality: float, cfg,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Admitted sessions' starts (whole seconds from the epoch) and paid
    whole seconds, in start order; at most the meter count run at once."""
    candidates: list[tuple[int, int]] = []
    pressure_base = 0.25 + 1.15 * centrality
    for day in range(cfg.days):
        for h in range(24):
            offered = (face["meter_count"] * pressure_base
                       * (0.10 + 1.15 * _hour_shape(h)) * cfg.demand_scale)
            for _ in range(int(rng.poisson(offered))):
                start = _DAY0_S + day * 86_400 + h * 3600 + int(rng.integers(0, 3600))
                duration = min(max(rng.lognormal(math.log(3300.0), 0.55), 600.0),
                               4 * 3600.0)
                candidates.append((start, round(duration / 60.0) * 60))
    candidates.sort()
    admitted: list[tuple[int, int]] = []
    running: list[int] = []  # a heap of the ends of admitted sessions
    for start, duration in candidates:
        while running and running[0] <= start:
            heapq.heappop(running)
        if len(running) < face["meter_count"]:
            admitted.append((start, duration))
            heapq.heappush(running, start + duration)
    return tuple(np.array(admitted, dtype=np.int64).reshape(-1, 2).T)
