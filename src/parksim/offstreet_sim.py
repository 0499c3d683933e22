"""Monte Carlo simulation of parking in an off-street lot.

A lot is a single line of stalls behind one entrance. Within each tick,
arrivals and departures are Poisson draws at the hourly rates scaled to the
tick length. Departing cars vacate uniformly random occupied stalls
(processed first, so this tick's arrivals can use the freed space);
arrivals park in order, each taking the lowest-index free stall. Arrivals
that find the lot full count as overflow. Each parked arrival contributes
one wait-time sample: the fixed park-and-pay minimum, driving past earlier
stalls, half the expected waits for cars seen vacating, and a geometrically
decaying wait behind earlier arrivals paying ahead of it; that halving
payment-queue sum starts from the lot minimum time.

All ``reps`` repetitions of one (lot, day, hour) start from the same
initial occupancy and advance together as an ``occupied[rep, stall]``
array. The hour is ``ticks = round(3600 / tick_s)`` ticks (at least one),
each with ``scale = 1 / ticks`` of the hourly rates. Lot stream version 2 draws:

1. ``rng.poisson(lam_a * scale, size=(ticks, reps))``, every arrival;
2. ``rng.poisson(lam_d * scale, size=(ticks, reps))``, every departure;
3. in tick order, one ``rng.random((reps, capacity))`` of keys in each
   tick whose departure draws are not all zero; in each repetition the
   ``min(departures, occupied)`` occupied stalls with the smallest keys leave.

The stream derives from (seed, lot, day, hour), so estimates do not depend
on task order. The scalar reference, one repetition and one tick at a time,
is ``simulate_lot_hour_scalar`` in ``tests/oracles.py``. A lot-hour reports
``arrivals``, the cars that parked, and ``overflow``, the cars that found
the lot full, both summed over the repetitions.

End-to-end off-street time adds the drive from the destination block to the
lot entrance with the smallest drive time and the walk back. One call covers
every (hour, block) cell of a run and returns (hour, block) arrays; each
chosen (lot, hour) is simulated once, and every block that chose it shares
the outcome. Lots are points anchored at a graph node: the drive and walk
legs carry a half-block term only on the destination side.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, check_fields
from .road_graph import RoadGraph, drive_times_to_node, walk_times_from_node
from .seeding import derived_stream

logger = logging.getLogger(__name__)

DAYS_PER_WEEK = 7


@dataclass(frozen=True)
class LotSpec:
    id: str
    node: str       # entrance intersection
    capacity: int   # stalls, ordered 1..capacity from the entrance

    def __post_init__(self):
        if self.capacity < 1:
            raise DataError(f"lot {self.id!r} needs capacity >= 1")


@dataclass(frozen=True)
class LotRateTable:
    """Hourly Poisson rates per (lot, day-of-week, hour)."""

    rates: Mapping[tuple[str, int, int], tuple[float, float]]

    def lookup(self, lot_id: str, day: int, hour: int) -> tuple[float, float]:
        try:
            return self.rates[(lot_id, day, hour)]
        except KeyError:
            raise DataError(f"no rates for lot {lot_id!r} at (day {day}, hour {hour})") from None

    def validate(self) -> None:
        for key, (lam_a, lam_d) in self.rates.items():
            if not (math.isfinite(lam_a) and lam_a >= 0
                    and math.isfinite(lam_d) and lam_d >= 0):
                raise DataError(f"invalid rates {lam_a, lam_d} at {key}")


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


def advance_tick(occupied: np.ndarray, n_arrive: np.ndarray, n_depart: np.ndarray,
                 keys: np.ndarray | None) -> tuple[np.ndarray, ...]:
    """Advance every repetition by one tick, updating ``occupied[rep, stall]``.

    ``n_arrive``, ``n_depart`` and ``keys[rep, stall]`` are the tick's draws
    (``keys`` is None when no departure was drawn). The ``min(n_depart,
    occupied)`` occupied stalls with the smallest keys are vacated; then the
    k-th arrival takes the k-th lowest free stall, and arrivals beyond the
    free stalls overflow. Returns the stalls vacated per repetition and, for
    each car that parked, its repetition, its stall and its 1-based index k.
    """
    count = occupied.sum(axis=1)
    departed = np.minimum(n_depart, count)
    m = departed.max()
    if m:
        # each repetition's occupied stalls come first, in key order
        first = np.argsort(np.where(occupied, keys, 2.0), axis=1)[:, :m]
        occupied[np.arange(len(occupied))[:, None], first] &= np.arange(m) >= departed[:, None]
    # the k-th arrival finds a free stall among the first (occupied + k)
    free = ~occupied[:, :(count - departed + n_arrive).max()]
    rank = np.cumsum(free, axis=1)
    free &= rank <= n_arrive[:, None]
    occupied[:, :free.shape[1]] |= free
    rep, stall = np.nonzero(free)
    return departed, rep, stall, rank[rep, stall]


def simulate_lot_hour(spec: LotSpec, rates: LotRateTable, day: int, hour: int,
                      cfg: LotSimConfig, initial_occupancy: int,
                      rng: np.random.Generator) -> LotHourStats:
    """Simulate one hour of lot traffic in ``cfg.reps`` repetitions at once.

    Every parked arrival yields one wait-time sample; the mean is absent if
    no arrival parked in any repetition.
    """
    lam_a, lam_d = rates.lookup(spec.id, day, hour)
    if not (lam_a >= 0 and lam_d >= 0):
        raise DataError(f"negative rates for lot {spec.id!r} at (day {day}, hour {hour})")
    if not 0 <= initial_occupancy <= spec.capacity:
        raise DataError("initial occupancy outside [0, capacity]")
    ticks = max(1, int(round(3600.0 / cfg.tick_s)))
    scale = 1.0 / ticks  # the ticks span the whole hour
    arrive = rng.poisson(lam_a * scale, size=(ticks, cfg.reps))
    depart = rng.poisson(lam_d * scale, size=(ticks, cfg.reps))
    occupied = np.zeros((cfg.reps, spec.capacity), dtype=bool)
    occupied[:, :initial_occupancy] = True
    parts = [(np.empty(0, dtype=int),) * 3]  # (k, vacated, stall) per parked car
    for t in np.flatnonzero(arrive.any(axis=1) | depart.any(axis=1)):
        keys = rng.random(occupied.shape) if depart[t].any() else None
        departed, rep, stall, k = advance_tick(occupied, arrive[t], depart[t], keys)
        parts.append((k, departed[rep], stall))
    samples = lot_wait_times(*map(np.concatenate, zip(*parts)), cfg)
    overflow = int(arrive.sum()) - samples.size
    if not samples.size:
        return LotHourStats(mean_s=None, std_s=None, arrivals=0, overflow=overflow)
    std = float(samples.std(ddof=1)) if samples.size > 1 else 0.0
    return LotHourStats(mean_s=float(samples.mean()), std_s=std,
                        arrivals=samples.size, overflow=overflow)


def initial_occupancy(rates: LotRateTable, lot: LotSpec, day: int, hour: int) -> int:
    """Occupancy at the start of an hour from cumulative daily flows.

    The balance of the lot's mean hourly arrivals less departures
    accumulates from the day's first hour and clamps to [0, capacity].
    """
    balance = sum(lam_a - lam_d for lam_a, lam_d in
                  (rates.lookup(lot.id, day, h) for h in range(hour)))
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


def estimate_offstreet_time(g: RoadGraph, lots: Sequence[LotSpec], rates: LotRateTable,
                            day: int, hours: Sequence[int],
                            cfg: LotSimConfig) -> OffstreetEstimate:
    """Total off-street time of every block at each hour: drive to the lot
    with the smallest drive time, queue and park inside it, walk back.

    The ``drive_times_to_node`` rows of the lots, sorted by id, form one
    (hour, lot, block) array whose first minimum along the lot axis picks
    each cell's lot, so ties go to the smallest lot id. Each chosen
    (lot, hour) is simulated once, from its ``initial_occupancy`` on the
    stream of (seed, lot, day, hour); if no car arrives, a single probe
    car's wait stands in for the undefined mean. Walks come from one
    ``walk_times_from_node`` row per lot.
    """
    if not lots:
        raise DataError("no lots configured")
    if not 0 <= day < DAYS_PER_WEEK:
        raise DataError(f"day must be in 0..6, got {day!r}")
    lots = sorted(lots, key=lambda l: l.id)
    walk = np.array([walk_times_from_node(g, lot.node) for lot in lots])
    drive = np.array([[drive_times_to_node(g, lot.node, hour) for lot in lots]
                      for hour in hours]).reshape(len(hours), len(lots), len(g.block_ids))
    blocks, unreachable = np.nonzero(np.isinf(drive).any(axis=0).T)  # first block, then lot
    if blocks.size:
        raise DataError(f"no drive path from {g.block_ids[blocks[0]]!r} "
                        f"to node {lots[unreachable[0]].node!r}")
    choice = drive.argmin(axis=1)
    # lot_s, std_s, arrivals and overflow of each chosen (hour, lot)
    stats = np.zeros((4, len(hours), len(lots)))
    for i, j in zip(*np.nonzero(np.eye(len(lots), dtype=bool)[choice].any(axis=1))):
        lot, hour = lots[j], hours[i]
        occupancy = initial_occupancy(rates, lot, day, hour)
        s = simulate_lot_hour(lot, rates, day, hour, cfg, occupancy,
                              derived_stream(cfg.seed, lot.id, day, hour))
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
