"""Monte Carlo simulation of parking in an off-street lot.

A lot is a single line of stalls behind one entrance. Within each tick,
arrivals and departures are Poisson draws at the lot's hourly ``LotRates``,
scaled to the tick length. Departing cars vacate uniformly random occupied
stalls (processed first, so this tick's arrivals can use the freed space);
arrivals park in order, each taking the lowest-index free stall. Arrivals
that find the lot full count as overflow. Each parked arrival contributes
one wait-time sample: the fixed park-and-pay minimum, driving past earlier
stalls, half the expected waits for cars seen vacating, and a geometrically
decaying wait behind earlier arrivals paying ahead of it; that halving
payment-queue sum starts from the lot minimum time.

A task is one (lot, day, hour) with its initial occupancy and its stream.
The hour is ``ticks = round(3600 / tick_s)`` ticks (at least one), each
with ``scale = 1 / ticks`` of the hourly rates. Each task's generator
draws, in lot stream version 3:

1. ``rng.poisson(lam_a * scale, size=(ticks, reps))``, every arrival;
2. ``rng.poisson(lam_d * scale, size=(ticks, reps))``, every departure;
3. one task key, ``rng.integers(0, 2 ** 64, dtype=np.uint64)``. Car ``j``
   to leave repetition ``rep`` in tick ``t`` then vacates the ``floor(u *
   n)``-th of the ``n`` stalls still occupied, in stall order, where ``u =
   counter_uniform(stream_key(key, rep, t), j)``: uniform, without replacement.

The stream derives from (seed, lot, day, hour), so estimates do not depend
on task order. All tasks share one tick count, so ``simulate_lot_hours``
advances the ``reps`` repetitions of every task of a chunk together, as one
``occupied[task x rep, stall]`` array padded to the widest lot; a chunk
holds as many tasks as fit ``SCRATCH_ENTRIES`` entries. One hash per chunk
gives every drawn departure's uniform. A tick touches only the rows that
move in it: stalls are vacated, one car per pass, only in rows that lose a
car, and free stalls are ranked only in rows that gain one; each row's
occupied count is kept as it changes. A task's draws and uniforms are its
own, and its samples are reduced in (tick, rep, stall) order, so its
result does not depend on the other tasks of its chunk. The scalar
reference on the same draws is ``simulate_lot_hour_scalar`` in
``tests/oracles.py``. A lot-hour reports ``arrivals``, the cars that
parked, and ``overflow``, the cars that found the lot full, both summed
over the repetitions.

End-to-end off-street time adds the drive from the destination block to the
lot entrance with the smallest drive time and the walk back. One call covers
every (hour, block) cell of a run and returns (hour, block) arrays; each
chosen (lot, hour) is simulated once, and every block that chose it shares
the outcome. Lots are points anchored at a graph node: the drive and walk
legs carry a half-block term only on the destination side.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, check_fields
from .road_graph import RoadGraph, drive_tables_to_nodes, walk_tables_from_nodes
from .seeding import counter_uniform, derived_stream, stream_key

logger = logging.getLogger(__name__)

DAYS_PER_WEEK = 7
SCRATCH_ENTRIES = 2 ** 18  # (task x rep) x (stall + tick) entries plus departures per lockstep
# Far more stalls than any lot has; numpy cannot size stall arrays for some larger counts.
MAX_CAPACITY = 2 ** 31 - 1
# Cars per hour, far above any lot's rate: numpy's Poisson sampler and
# ``initial_occupancy``'s int fail for much larger rates.
MAX_RATE = 1e12


@dataclass(frozen=True)
class LotSpec:
    id: str
    node: str       # entrance intersection
    capacity: int   # stalls, ordered 1..capacity from the entrance

    def __post_init__(self):
        if not 1 <= self.capacity <= MAX_CAPACITY:
            raise DataError(f"lot {self.id!r} needs capacity in 1..{MAX_CAPACITY}")


# lot id -> (day of week, hour, (arrival, departure)) hourly Poisson rates
LotRates = Mapping[str, np.ndarray]


def _rates_of(rates: LotRates, lot_id: str) -> np.ndarray:
    if lot_id not in rates:
        raise DataError(f"no rates for lot {lot_id!r}")
    return rates[lot_id]


@dataclass(frozen=True)
class LotSimConfig:
    min_park_s: float = 60.0        # pull into a stall and pay
    vacate_wait_s: float = 30.0     # wait out a car leaving a stall
    per_stall_drive_s: float = 0.54
    tick_s: float = 60.0
    reps: int = 20
    seed: int = 0

    def __post_init__(self):
        check_fields(self, positive=("min_park_s", "vacate_wait_s", "per_stall_drive_s",
                                     "tick_s"),
                     at_least={"reps": 1, "seed": 0})
        if np.isinf(3600.0 / self.tick_s):
            raise DataError(f"tick_s {self.tick_s!r} leaves no finite tick count per hour")


@dataclass(frozen=True)
class LotHourStats:
    mean_s: float | None
    std_s: float | None
    arrivals: int
    overflow: int


def lot_wait_times(k: np.ndarray, departures: np.ndarray, stalls_passed: np.ndarray,
                   cfg: LotSimConfig) -> np.ndarray:
    """Wait of the k-th (1-based) arrival of a tick: the park-and-pay minimum,
    driving past earlier stalls, half the possible waits for departing cars,
    and the 1/2 + 1/4 + ... queue behind the k-1 arrivals ahead still
    paying, in closed form."""
    return (cfg.min_park_s + stalls_passed * cfg.per_stall_drive_s
            + np.minimum(k, departures) / 2.0 * cfg.vacate_wait_s
            + cfg.min_park_s * (1.0 - 0.5 ** (k - 1)))


def advance_tick(occupied: np.ndarray, count: np.ndarray, n_arrive: np.ndarray,
                 n_depart: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Advance every repetition by one tick, updating ``occupied[row, stall]``
    and, in place, ``count``, each row's occupied stalls.

    ``n_arrive`` and ``n_depart`` are the tick's draws; ``u`` holds, row by
    row, the uniforms of each row's ``n_depart`` cars. Car ``j`` of the
    ``min(n_depart, count)`` that leave vacates the ``floor(u * n)``-th of
    the row's ``n = count - j`` occupied stalls, in stall order; then the
    k-th arrival takes the k-th lowest free stall, and arrivals beyond the
    free stalls overflow. Only rows with a departure or an arrival are
    touched. Returns the stalls vacated per row and, for each car that
    parked, its row, its stall and its 1-based index k.
    """
    departed = np.minimum(n_depart, count)
    rows = np.flatnonzero(departed)
    if rows.size:
        # one pass per car, in the rows still losing one: their m-th occupied stalls
        at, left, n = (np.cumsum(n_depart) - n_depart)[rows], departed[rows], count[rows]
        while True:
            m = (u[at] * n).astype(np.int64)  # below n: u * n rounds below n for u < 1
            held = np.flatnonzero(occupied[rows])
            start = np.arange(rows.size) * occupied.shape[1]
            occupied[rows, held[np.searchsorted(held, start) + m] - start] = False
            more = np.flatnonzero(left > 1)
            if not more.size:
                break
            rows, left, at, n = rows[more], left[more] - 1, at[more] + 1, n[more] - 1
        count -= departed
    rows = np.flatnonzero(n_arrive)
    if not rows.size:
        return departed, rows, rows, rows
    arrive = n_arrive[rows]
    # the k-th arrival finds a free stall among the first (occupied + k)
    free = ~occupied[rows, :(count[rows] + arrive).max()]
    rank = np.cumsum(free, axis=1)
    free &= rank <= arrive[:, None]
    occupied[rows, :free.shape[1]] |= free
    count[rows] += np.minimum(arrive, rank[:, -1])
    parked = np.flatnonzero(free)
    row, stall = np.divmod(parked, free.shape[1])
    return departed, rows[row], stall, rank.ravel()[parked]


# (lot, hour, initial occupancy, stream) of one lot-hour to simulate
LotHourTask = tuple[LotSpec, int, int, np.random.Generator]


def _task_rates(rates: LotRates, day: int, task: LotHourTask) -> tuple[float, float]:
    spec, hour, occupancy, _ = task
    lam_a, lam_d = _rates_of(rates, spec.id)[day, hour].tolist()
    if not (lam_a >= 0 and lam_d >= 0):
        raise DataError(f"negative rates for lot {spec.id!r} at (day {day}, hour {hour})")
    if not 0 <= occupancy <= spec.capacity:
        raise DataError("initial occupancy outside [0, capacity]")
    return lam_a, lam_d


def simulate_lot_hours(tasks: Sequence[LotHourTask], rates: LotRates, day: int,
                       cfg: LotSimConfig) -> list[LotHourStats]:
    """Simulate one hour of lot traffic for each task, in ``cfg.reps``
    repetitions, the tasks of a chunk in one lockstep.

    A chunk holds as many tasks as fit ``SCRATCH_ENTRIES`` entries, at
    least one: (task x rep, stall) entries of occupancy, (tick, task x rep)
    entries of draws and one entry per expected departure uniform. Every
    parked arrival yields one wait-time sample; the mean is absent if no
    arrival parked in any repetition.
    """
    lams = [_task_rates(rates, day, task) for task in tasks]
    ticks = max(1, int(round(3600.0 / cfg.tick_s)))
    stats: list[LotHourStats] = []
    lo = width = leaving = 0
    for hi, ((spec, *_), (_, lam_d)) in enumerate(zip(tasks, lams)):
        cars = min(lam_d, spec.capacity * ticks)  # bounds a repetition's expected uniforms
        width, leaving = max(width, spec.capacity), leaving + cars
        if hi > lo and cfg.reps * ((hi + 1 - lo) * (width + ticks) + leaving) > SCRATCH_ENTRIES:
            stats += _lockstep(tasks[lo:hi], lams[lo:hi], ticks, cfg)
            lo, width, leaving = hi, spec.capacity, cars
    if lo < len(tasks):
        stats += _lockstep(tasks[lo:], lams[lo:], ticks, cfg)
    return stats


def departure_uniforms(keys: np.ndarray, reps: int, cars: np.ndarray) -> np.ndarray:
    """Car ``j`` of row ``task x reps + rep`` in tick ``t``, for ``j`` below
    ``cars[t, row]``, takes ``counter_uniform(stream_key(keys[task], rep, t),
    j)``: these uniforms in (tick, row, car) order, from one hash."""
    rows = np.arange(keys.size * reps)
    row_keys = stream_key(keys[rows // reps], rows % reps)
    cell = np.flatnonzero(cars)
    n = cars.ravel()[cell]
    t, row = np.divmod(np.repeat(cell, n), rows.size)
    j = np.arange(t.size) - np.repeat(np.cumsum(n) - n, n)  # each car's index in its cell
    return counter_uniform(stream_key(row_keys[row], t), j)


def _lockstep(tasks: Sequence[LotHourTask], lams: Sequence[tuple[float, float]], ticks: int,
              cfg: LotSimConfig) -> list[LotHourStats]:
    """Every repetition of every task as one row of ``occupied[task x rep,
    stall]``, padded to the widest lot by stalls that stay occupied and
    never leave. Each task draws from its own stream as it would alone."""
    n, reps, scale = len(tasks), cfg.reps, 1.0 / ticks  # the ticks span the whole hour
    try:  # numpy refuses a shape past its size limit outright, not as out of memory
        arrive = np.empty((ticks, n * reps), dtype=np.int64)
    except ValueError as exc:
        raise MemoryError(exc) from exc
    depart = np.empty_like(arrive)
    for i, ((_, _, _, rng), (lam_a, lam_d)) in enumerate(zip(tasks, lams)):
        arrive[:, i * reps:(i + 1) * reps] = rng.poisson(lam_a * scale, size=(ticks, reps))
        depart[:, i * reps:(i + 1) * reps] = rng.poisson(lam_d * scale, size=(ticks, reps))
    keys = np.array([rng.integers(0, 2 ** 64, dtype=np.uint64) for *_, rng in tasks])
    capacity = np.repeat([spec.capacity for spec, *_ in tasks], reps)
    stall = np.arange(capacity.max())
    count = np.repeat([occupancy for _, _, occupancy, _ in tasks], reps)
    occupied = (stall < count[:, None]) | (stall >= capacity[:, None])
    np.minimum(depart, capacity, out=depart)  # no row loses more cars than its lot has stalls
    u = departure_uniforms(keys, reps, depart)
    bounds = [0, *np.cumsum(depart.sum(axis=1)).tolist()]  # each tick's slice of u
    parts = [(np.empty(0, dtype=int),) * 4]  # (row, k, vacated, stall) per parked car
    for t in np.flatnonzero(arrive.any(axis=1) | depart.any(axis=1)):
        departed, row, parked, k = advance_tick(occupied, count, arrive[t], depart[t],
                                                u[bounds[t]:bounds[t + 1]])
        parts.append((row, k, departed[row], parked))
    row, k, vacated, parked = map(np.concatenate, zip(*parts))
    task = row // reps
    order = np.argsort(task, kind="stable")  # each task's samples in (tick, rep, stall) order
    samples = lot_wait_times(k[order], vacated[order], parked[order], cfg)
    bounds = np.cumsum(np.bincount(task, minlength=n)).tolist()
    drawn = arrive.reshape(ticks, n, reps).sum(axis=(0, 2)).tolist()
    stats = []
    for lo, hi, total in zip([0] + bounds, bounds, drawn):
        s = samples[lo:hi]
        if not s.size:
            stats.append(LotHourStats(mean_s=None, std_s=None, arrivals=0, overflow=total))
            continue
        std = float(s.std(ddof=1)) if s.size > 1 else 0.0
        stats.append(LotHourStats(mean_s=float(s.mean()), std_s=std, arrivals=s.size,
                                  overflow=total - s.size))
    return stats


def simulate_lot_hour(spec: LotSpec, rates: LotRates, day: int, hour: int,
                      cfg: LotSimConfig, initial_occupancy: int,
                      rng: np.random.Generator) -> LotHourStats:
    """One task of ``simulate_lot_hours``."""
    return simulate_lot_hours([(spec, hour, initial_occupancy, rng)], rates, day, cfg)[0]


def initial_occupancy(rates: LotRates, lot: LotSpec, day: int, hour: int) -> int:
    """Occupancy at the start of an hour from cumulative daily flows.

    The balance of the lot's mean hourly arrivals less departures
    accumulates from the day's first hour and clamps to [0, capacity].
    """
    flows = _rates_of(rates, lot.id)[day, :hour].tolist()
    balance = sum(lam_a - lam_d for lam_a, lam_d in flows)  # in hour order, unlike np.sum
    count = int(round(balance))
    if count > lot.capacity:
        logger.warning("cumulative lot inflow %d exceeds capacity %d; clamping",
                       count, lot.capacity)
    return min(max(count, 0), lot.capacity)


@dataclass(frozen=True)
class OffstreetEstimate:
    """(hour, block) arrays, laid out as ``OnstreetEstimate``'s; ``lot_s``,
    ``std_s``, ``arrivals`` and ``overflow`` are the chosen lot-hour's."""

    total_s: np.ndarray
    lot_id: np.ndarray
    drive_s: np.ndarray
    lot_s: np.ndarray
    walk_s: np.ndarray
    std_s: np.ndarray
    arrivals: np.ndarray
    overflow: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # inf times are refused by their writer
def estimate_offstreet_time(g: RoadGraph, lots: Sequence[LotSpec], rates: LotRates,
                            day: int, hours: Sequence[int],
                            cfg: LotSimConfig) -> OffstreetEstimate:
    """Total off-street time of every block at each hour: drive to the lot
    with the smallest drive time, queue and park inside it, walk back.

    One ``drive_tables_to_nodes`` relaxation per hour, over the lots sorted
    by id, gives an (hour, lot, block) array whose first minimum along the
    lot axis picks each cell's lot, so ties go to the smallest lot id. The
    chosen (lot, hour) tasks go to one ``simulate_lot_hours`` call, each
    from its ``initial_occupancy`` on the stream of (seed, lot, day, hour);
    if no car arrives, a single probe car's wait stands in for the
    undefined mean. Walks come from one ``walk_tables_from_nodes`` call.
    """
    if not lots:
        raise DataError("no lots configured")
    if not 0 <= day < DAYS_PER_WEEK:
        raise DataError(f"day must be in 0..6, got {day!r}")
    lots = sorted(lots, key=lambda l: l.id)
    nodes = [lot.node for lot in lots]
    walk = walk_tables_from_nodes(g, nodes).T
    drive = np.array([drive_tables_to_nodes(g, nodes, hour).T for hour in hours]
                     ).reshape(len(hours), len(lots), len(g.block_ids))
    blocks, unreachable = np.nonzero(np.isinf(drive).any(axis=0).T)  # first block, then lot
    if blocks.size:
        raise DataError(f"no drive path from {g.block_ids[blocks[0]]!r} "
                        f"to node {lots[unreachable[0]].node!r}")
    choice = drive.argmin(axis=1)
    cells = list(zip(*np.nonzero(np.eye(len(lots), dtype=bool)[choice].any(axis=1))))
    tasks = [(lots[j], hours[i], initial_occupancy(rates, lots[j], day, hours[i]),
              derived_stream(cfg.seed, lots[j].id, day, hours[i])) for i, j in cells]
    # lot_s, std_s, arrivals and overflow of each chosen (hour, lot)
    stats = np.zeros((4, len(hours), len(lots)))
    for (i, j), (lot, _, occupancy, _), s in zip(cells, tasks,
                                                  simulate_lot_hours(tasks, rates, day, cfg)):
        if s.mean_s is None:
            # quiet lot: one probe car drives past the initially occupied stalls
            s = replace(s, mean_s=lot_wait_times(1, 0, min(occupancy, lot.capacity - 1), cfg),
                        std_s=0.0)
        stats[:, i, j] = s.mean_s, s.std_s, s.arrivals, s.overflow
    rows, cols = np.arange(len(hours))[:, None], np.arange(len(g.block_ids))
    lot_s, std_s, arrivals, overflow = stats[:, rows, choice]
    drive_s, walk_s = drive[rows, choice, cols], walk[choice, cols]
    return OffstreetEstimate(total_s=drive_s + lot_s + walk_s,
                             lot_id=np.array([lot.id for lot in lots])[choice],
                             drive_s=drive_s, lot_s=lot_s, walk_s=walk_s, std_s=std_s,
                             arrivals=arrivals.astype(int), overflow=overflow.astype(int))
