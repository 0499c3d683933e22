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

Searches advance in lockstep over the graph's dense block index
(``RoadGraph.block_ids``, the block ids in sorted order). Each step, for the
searches still active:

1. one uniform per search draws the parking check on the block it stands on;
2. searches that parked drop out, then those whose cruising time has
   passed ``max_search_s`` (censored);
3. the four policy terms are scored for every (search, candidate) pair,
   with per-search visit counts and last-check times held as arrays;
4. one masked softmax and one more uniform per search pick its next block
   by inverse CDF over its candidates in id order.

On-street stream version 3 (``seeding.counter_uniform``): search ``s`` of
the (destination, hour) cell draws its uniform number ``c`` as a hash of
(seed, crc32 of the destination id, hour, s, c). The check on the search's
``t``-th block (the destination is block 0) is draw ``c = 2 t`` and the
choice after it ``2 t + 1``. No cell has a stream of its own, and a draw
does not depend on which searches run beside it, so a cell's estimate does
not depend on which other cells a call covers, on their order or on how
they are chunked. ``estimate_onstreet_time`` covers every block at every
hour of a run in one call. It builds the walk and distance tables of
``TABLE_CHUNK`` destinations per relaxation and runs the chunk's cells
through one pool of scratch rows:

- A search's first check (steps 1 and 2 on its destination) uses no
  scratch: self-loops are rejected, so no candidate has been visited or
  checked. First checks run in batches of consecutive cells.
- A survivor queues for a scratch row, its (search, block) visit counts
  and last-check times, seeded with the one visit and check at its
  destination. Each step runs steps 3, 4, 1 and 2 for every search that
  holds a row, at the search's own step number. A search that parks or
  passes the cap frees its row for the head of the queue, and the next
  batch's first checks run once the queue is shorter than the free rows.

Three limits bound the memory by the scratch, not by the cells of a run:
a batch has at most four searches a scratch row (at least one cell), and
keeps its (cell, sample) totals until its last search ends; at most
``BATCHES`` batches are in flight; a freed row is reset on the entries its
search touched, kept in a trail of an eighth of a row, or whole after a
longer search. A cell reads the chunk's destination tables and the call's
hour tables at its own offsets, so no table is per (cell, block). The
scalar reference for one search is ``simulate_single`` in
``tests/oracles.py``; ``estimate_cells`` there runs the lockstep by cell.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, check_fields
from .road_graph import RoadGraph, _check_hour, tables_to_blocks
from .seeding import counter_uniform, stream_key

TABLE_CHUNK = 64            # destinations per table relaxation
SCRATCH_ENTRIES = 3 * 2 ** 16  # (search, block) entries of the pool's rows, 2.25 MiB; sizes batches
BATCHES = 4                 # first-check batches in flight, each holding its totals


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


def _lockstep(g: RoadGraph, hour_of: np.ndarray, dest_of: np.ndarray, batch_cells: int,
              walk_s: np.ndarray, dist_m: np.ndarray, p: np.ndarray, drive_s: np.ndarray,
              cell_keys: np.ndarray, cfg: OnstreetConfig, weights: PolicyWeights,
              visits: np.ndarray, last_check_s: np.ndarray):
    """For each batch of ``batch_cells`` consecutive cells of a table chunk,
    once its last search ends, yield the cells' hour rows and destinations,
    a view of every search's total time as (cell, sample), valid until the
    generator resumes, and each cell's censored count. Cell ``c`` reads row
    ``hour_of[c]`` of ``p`` and ``drive_s``, row ``dest_of[c] - dest_of[0]``
    of ``walk_s`` and ``dist_m``, and key ``cell_keys[hour_of[c], dest_of[c]]``.
    ``visits`` and ``last_check_s`` hold ``visits.size // blocks`` reset rows."""
    blocks, n = len(g.block_ids), cfg.n_samples
    dest_at, hour_at = (dest_of - dest_of[0]) * blocks, hour_of * blocks
    half_first_s = drive_s.take(hour_at + dest_of) / 2.0
    slots, size = min(BATCHES, -(-dest_of.size // batch_cells)), batch_cells * n
    try:  # numpy refuses a count past its size limit outright, not as out of memory
        totals = np.empty((slots, size))            # search slot * size + s of a batch
    except ValueError as exc:
        raise MemoryError(exc) from exc
    censored, pending = np.zeros(totals.shape, dtype=bool), np.zeros(slots, dtype=np.intp)

    def check(search, cell, block, elapsed_s, u):
        """Check ``search`` on ``block``: record the totals of those that park
        or pass the cap; return every elapsed time and which searches go on."""
        at_hour, at_dest = hour_at[cell] + block, dest_at[cell] + block
        parked = u < p.take(at_hour)
        drive = (elapsed_s[parked] - half_first_s[cell[parked]]
                 + drive_s.take(at_hour[parked]) / 2.0)
        totals.flat[search[parked]] = cfg.min_park_s + drive + walk_s.take(at_dest[parked])
        elapsed_s = elapsed_s + drive_s.take(at_hour)
        over = (elapsed_s > cfg.max_search_s) & ~parked
        if over.any():
            totals.flat[search[over]] = (cfg.min_park_s + cfg.max_search_s
                                         + walk_s.take(at_dest[over]))
            censored.flat[search[over]] = True
            parked |= over
        return elapsed_s, ~parked

    rows, width = visits.size // blocks, max(1, blocks // 8)
    # a row's trail: its search's entry of step t in column min(t, width - 1)
    trail = np.repeat(np.arange(rows, dtype=np.int32) * blocks, width).reshape(rows, width)
    free, flight, starts = np.arange(rows), {}, iter(range(0, dest_of.size, batch_cells))
    # (search, cell, block, elapsed_s, key) of the first-check survivors
    # waiting for a row; the pool adds each search's row and step
    queue = [np.empty(0, dtype) for dtype in (np.intp, np.intp, np.intp, float, np.uint64)]
    pool = queue + [np.empty(0, np.intp)] * 2
    while True:
        for s in [s for s in flight if not pending[s]]:     # every search of batch s ended
            c = flight.pop(s)                       # totals a view: slot s is refilled next
            yield (hour_of[c], dest_of[c], totals[s].reshape(-1, n)[:c.stop - c.start],
                   censored[s].reshape(-1, n)[:c.stop - c.start].sum(axis=1))
        # First checks, at the destinations, of batches while rows would go
        # unused: one visit there and no other, so no scratch is read.
        while (queue[0].size < free.size and len(flight) < slots
               and (lo := next(starts, None)) is not None):
            s = min(set(range(slots)) - set(flight))
            flight[s] = slice(lo, min(lo + batch_cells, dest_of.size))
            cell = np.arange(lo, flight[s].stop)
            key = stream_key(cell_keys[hour_of[cell], dest_of[cell]][:, None], np.arange(n)).ravel()
            cell, search = cell.repeat(n), s * size + np.arange(key.size)
            censored[s] = False
            elapsed_s, stay = check(search, cell, dest_of[cell], np.zeros(cell.size),
                                    counter_uniform(key, 0))
            pending[s] = np.count_nonzero(stay)
            queue = [np.concatenate((q, a[stay])) for q, a in
                     zip(queue, (search, cell, dest_of[cell], elapsed_s, key))]
            del cell, key, search, elapsed_s, stay  # freed before the next batch's checks
        # the queue's head takes the free rows, seeded with its destination's visit and check
        k = min(free.size, queue[0].size)
        row, free = free[:k], free[k:]
        entry = row * blocks + queue[2][:k]
        visits[entry] = 1
        last_check_s[entry] = queue[3][:k]
        trail[row, 0] = entry
        pool = [np.concatenate((a, b)) for a, b in
                zip(pool, [q[:k] for q in queue] + [row, np.zeros(k, np.intp)])]
        queue = [q[k:] for q in queue]
        search, cell, block, elapsed_s, key, row, step = pool
        if not search.size:
            if flight:
                continue
            return
        step = step + 1                             # draws 2 step - 1 and 2 step
        candidates = g.next_blocks[:, block]       # (candidate, search)
        entries = candidates + row * blocks
        since_s = np.minimum(elapsed_s - last_check_s.take(entries), cfg.elapsed_cap_s)
        scores = (weights.distance_weight * (dist_m.take(candidates + dest_at[cell]) / 100.0)
                  + weights.scarcity_weight / np.maximum(p.take(candidates + hour_at[cell]),
                                                         cfg.p_floor)
                  + weights.revisit_weight * visits.take(entries)
                  + weights.elapsed_weight * (since_s / 60.0))
        # Padding repeats a search's first candidate, so checks and maxima
        # over all rows see only real candidates' values.
        if not np.isfinite(scores).all():
            raise NumericError("non-finite block score")
        weight = np.exp(scores - scores.max(axis=0))
        weight *= g.next_valid[:, block]
        cdf = weight.cumsum(axis=0)
        k = np.minimum((cdf <= counter_uniform(key, 2 * step - 1) * cdf[-1]).sum(axis=0),
                       g.out_degree[block] - 1)
        block = candidates[k, np.arange(search.size)]
        entry = row * blocks + block
        trail[row, np.minimum(step, width - 1)] = entry
        visits[entry] += 1
        elapsed_s, stay = check(search, cell, block, elapsed_s, counter_uniform(key, 2 * step))
        last_check_s[entry] = elapsed_s
        # reset and free the rows of the searches that ended; stale trail columns are in-row
        done, long = row[~stay], step[~stay] >= width
        reset = np.concatenate((trail[done[~long], :step[~stay].max(initial=0) + 1].ravel(),
                                (done[long, None] * blocks + np.arange(blocks)).ravel()))
        visits[reset] = 0
        last_check_s[reset] = -np.inf
        free = np.append(free, done)
        pending -= np.bincount(search[~stay] // size, minlength=slots)
        search, cell, block, elapsed_s, key, row, step = pool = [
            a[stay] for a in (search, cell, block, elapsed_s, key, row, step)]
        del candidates, entries, since_s, scores, weight, cdf, reset    # freed before first checks


@np.errstate(over="ignore", invalid="ignore")  # overflows are NumericErrors, not warnings
def estimate_onstreet_time(g: RoadGraph, p: np.ndarray, hours: tuple[int, ...],
                           cfg: OnstreetConfig, weights: PolicyWeights) -> OnstreetEstimate:
    """Mean and spread of total on-street time, over seeded search samples,
    for every destination block at every hour of ``hours``.

    ``p[i, j]`` is the availability probability of block ``g.block_ids[j]``
    at ``hours[i]``. Every draw is labelled by its (destination, hour) cell,
    search and step, so a cell reproduces exactly whatever other hours the
    call covers and however it is chunked.
    """
    for hour in hours:
        _check_hour(hour)
    shape = (len(hours), len(g.block_ids))
    if p.shape != shape:
        raise DataError(f"availability array has shape {p.shape}, expected {shape}")
    n, blocks = cfg.n_samples, len(g.block_ids)
    mean, std, censored = np.empty(shape), np.zeros(shape), np.empty(shape)
    # One (search, block) pair of scratch arrays for every table chunk of
    # the call, flattened: allocating them per chunk let the allocator
    # return their pages and fault them back in.
    rows = max(1, SCRATCH_ENTRIES // blocks)
    cells = max(1, min(4 * rows // n, min(TABLE_CHUNK, blocks) * len(hours)))
    visits = np.zeros(min(rows, cells * n) * blocks, dtype=np.int32)
    last_check_s = np.full(visits.size, -np.inf)    # never checked: full credit
    drive_s = g.drive_s[list(hours)]
    crc = [zlib.crc32(block.encode("utf-8")) for block in g.block_ids]
    cell_keys = stream_key(cfg.seed, crc, np.array(hours)[:, None])    # (hour, destination)
    for first in range(0, blocks, TABLE_CHUNK):
        dests = np.arange(first, min(first + TABLE_CHUNK, blocks))
        # (destination, block), contiguous for the lockstep's flat takes
        walk_s = tables_to_blocks(g, dests, g.walk_s).T.copy()
        dist_m = tables_to_blocks(g, dests, g.length_m).T.copy()
        # the chunk's cells in (destination, hour) order
        column, row = np.divmod(np.arange(dests.size * len(hours)), len(hours))
        for i, j, totals, n_censored in _lockstep(g, row, dests[column], cells, walk_s, dist_m,
                                                  p, drive_s, cell_keys, cfg, weights, visits,
                                                  last_check_s):
            mean[i, j] = totals.mean(axis=1)
            if n > 1:
                std[i, j] = totals.std(axis=1, ddof=1)
            censored[i, j] = n_censored / n
        del totals, walk_s, dist_m  # the totals view and tables go before the next chunk's
    return OnstreetEstimate(mean_s=mean, std_s=std, censored_fraction=censored,
                            n_samples=n)
