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
``TABLE_CHUNK`` destinations per relaxation and runs the chunk's cells in
batches, each in two parts:

- The first check of every search of the batch (steps 1 and 2 on the
  destination) uses no scratch. A search's state there is known: its
  destination visited once, and no candidate visited or checked, since
  self-loops are rejected and so a block is never its own candidate.
- Only the searches that survive it get scratch rows: (search, block)
  visit counts and last-check times, at most ``SCRATCH_ENTRIES`` entries.
  A row is seeded with the one visit and the check at its destination.
  The survivors run steps 3, 4, 1 and 2 in groups: consecutive slices of
  as many searches as there are rows, so a cell may span groups.

A batch covers at most four times as many searches as the scratch has
rows (at least one cell), so its per-search arrays follow the scratch, not
the cells of a run; it has no (cell, block) tables, since a cell reads the
chunk's destination tables and the call's hour tables at its own offsets.
The scalar reference for one search is ``simulate_single`` in
``tests/oracles.py``; ``estimate_cells`` there runs the lockstep one cell at
a time.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, check_fields
from .road_graph import RoadGraph, _check_hour, tables_to_blocks
from .seeding import counter_uniform, stream_key

TABLE_CHUNK = 64            # destinations per table relaxation
SCRATCH_ENTRIES = 3 * 2 ** 16  # (survivor, block) scratch entries, 2.25 MiB; sizes batches too


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


def _lockstep(g: RoadGraph, dests: np.ndarray, dest_at: np.ndarray, hour_at: np.ndarray,
              walk_s: np.ndarray, dist_m: np.ndarray, p: np.ndarray, drive_s: np.ndarray,
              cfg: OnstreetConfig, weights: PolicyWeights, keys: np.ndarray,
              visits: np.ndarray, last_check_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Total time of every search of a batch of cells, as (cell, sample),
    and the number censored in each cell.

    Cell ``c`` is the destination ``dests[c]``. Its tables over the blocks
    start at flat offset ``dest_at[c]`` of the destination tables
    ``walk_s`` and ``dist_m``, and at ``hour_at[c]`` of the hour tables
    ``p`` and ``drive_s``. ``keys`` holds every search's stream key, as
    (cell, sample). ``visits`` and ``last_check_s`` hold
    ``visits.size // blocks`` scratch rows.
    """
    blocks, n = len(g.block_ids), cfg.n_samples
    half_first_s = drive_s.take(hour_at + dests) / 2.0
    totals = np.empty((len(dests), n))
    censored = np.zeros((len(dests), n), dtype=bool)

    def check(live, cell, block, elapsed_s, u):
        """Parking checks of the (cell, sample) searches ``live`` on their
        blocks: record the totals of those that park or pass the cap;
        return every search's elapsed time and whether it goes on."""
        at_hour, at_dest = hour_at[cell] + block, dest_at[cell] + block
        parked = u < p.take(at_hour)
        drive = (elapsed_s[parked] - half_first_s[cell[parked]]
                 + drive_s.take(at_hour[parked]) / 2.0)
        totals.flat[live[parked]] = cfg.min_park_s + drive + walk_s.take(at_dest[parked])
        elapsed_s = elapsed_s + drive_s.take(at_hour)
        over = (elapsed_s > cfg.max_search_s) & ~parked
        if over.any():
            totals.flat[live[over]] = (cfg.min_park_s + cfg.max_search_s
                                       + walk_s.take(at_dest[over]))
            censored.flat[live[over]] = True
            parked |= over
        return elapsed_s, ~parked

    # First checks, at the destinations: one visit there and no other, so
    # no scratch is read or written.
    live = np.arange(totals.size)                   # (cell, sample) ids still searching
    cell = live // n
    block = dests[cell]
    elapsed_s, stay = check(live, cell, block, np.zeros(live.size), counter_uniform(keys, 0))
    survivors = [a[stay] for a in (live, cell, block, elapsed_s, keys)]
    # The survivors in groups of at most the scratch rows: draws are
    # labelled by search and step, so a cell may span groups.
    rows = visits.size // blocks
    for lo in range(0, survivors[0].size, rows):
        live, cell, block, elapsed_s, key = (a[lo:lo + rows] for a in survivors)
        row = np.arange(live.size)                  # scratch row of each search
        entry = row * blocks + block
        visits[entry] = 1
        last_check_s[entry] = elapsed_s
        touched, n_touched, used, step = [entry], entry.size, live.size * blocks, 0
        while live.size:
            step += 1                               # draws 2 step - 1 and 2 step
            candidates = g.next_blocks[:, block]   # (candidate, search)
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
            block = candidates[k, np.arange(live.size)]
            entry = row * blocks + block
            if n_touched <= used // 8:              # past that, refill the rows used
                touched.append(entry)
            n_touched += entry.size
            visits[entry] += 1
            elapsed_s, stay = check(live, cell, block, elapsed_s, counter_uniform(key, 2 * step))
            last_check_s[entry] = elapsed_s         # a parked search's row is not read again
            live, cell, block, elapsed_s, row, key = (a[stay] for a in
                                                      (live, cell, block, elapsed_s, row, key))
        touched = slice(used) if n_touched > used // 8 else np.concatenate(touched)
        visits[touched] = 0
        last_check_s[touched] = -np.inf
    return totals, censored.sum(axis=1)


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
    try:  # numpy refuses a count past its size limit outright, not as out of memory
        searches = np.arange(n)
    except ValueError as exc:
        raise MemoryError(exc) from exc
    mean, std, censored = np.empty(shape), np.zeros(shape), np.empty(shape)
    # One (search, block) pair of scratch arrays for every group of the
    # call, flattened: allocating them per group let the allocator return
    # their pages and fault them back in. A group resets only the entries
    # its searches touched, since a refill grows with the blocks; past an
    # eighth of its rows it stops listing and refills them.
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
        for lo in range(0, column.size, cells):
            c, i = column[lo:lo + cells], row[lo:lo + cells]
            j = dests[c]
            keys = stream_key(cell_keys[i, j][:, None], searches).ravel()
            totals, n_censored = _lockstep(g, j, c * blocks, i * blocks, walk_s, dist_m, p,
                                           drive_s, cfg, weights, keys, visits, last_check_s)
            mean[i, j] = totals.mean(axis=1)
            if n > 1:
                std[i, j] = totals.std(axis=1, ddof=1)
            censored[i, j] = n_censored / n
    return OnstreetEstimate(mean_s=mean, std_s=std, censored_fraction=censored,
                            n_samples=n)
