"""Monte Carlo simulation of parking in an off-street lot.

A lot is a single line of stalls behind one entrance. Within each 60-second
tick, arrivals and departures are Poisson draws at the hourly rates scaled
to the tick length. Departing cars vacate uniformly random occupied stalls
(processed first, so this tick's arrivals can use the freed space);
arrivals park in order, each taking the lowest-index free stall. Arrivals
that find the lot full count as overflow and are reported, never dropped
silently.

Each parked arrival contributes one wait-time sample: the fixed park-and-
pay minimum, driving past earlier stalls, half the expected waits for cars
seen vacating, and a geometrically decaying wait behind earlier arrivals
paying ahead of it; that halving payment-queue sum starts from the lot
minimum time.

End-to-end off-street time adds the drive from the destination block to the
nearest lot entrance and the walk back. Lots are points anchored at a graph
node: the drive and walk legs carry a half-block term only on the
destination side.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
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
class TickResult:
    arrivals: int                    # Poisson draw
    departures: int                  # Poisson draw
    departed: int                    # actually vacated (bounded by occupancy)
    stall_indices: tuple[int, ...]   # 0-based stall per parked arrival
    overflow: int                    # arrivals that found no stall


def sample_tick(state: LotState, arrivals_per_hour: float,
                departures_per_hour: float, cfg: LotSimConfig,
                rng: np.random.Generator) -> TickResult:
    """Advance the lot by one tick, mutating ``state``.

    Departures vacate before arrivals park. The stall index recorded for an
    arrival equals the number of stalls it drove past.
    """
    if arrivals_per_hour < 0 or departures_per_hour < 0:
        raise DataError("rates must be nonnegative")
    scale = cfg.tick_s / 3600.0
    n_arrive = int(rng.poisson(arrivals_per_hour * scale))
    n_depart = int(rng.poisson(departures_per_hour * scale))

    occupied_idx = np.flatnonzero(state.occupied)
    departed = min(n_depart, occupied_idx.size)
    if departed:
        leaving = rng.choice(occupied_idx, size=departed, replace=False)
        state.occupied[leaving] = False

    free_idx = np.flatnonzero(~state.occupied)
    parked = min(n_arrive, free_idx.size)
    taken = free_idx[:parked]
    state.occupied[taken] = True
    return TickResult(arrivals=n_arrive, departures=n_depart, departed=departed,
                      stall_indices=tuple(int(i) for i in taken),
                      overflow=n_arrive - parked)


def arrival_wait_time(k: int, departures: int, stalls_passed: int,
                      cfg: LotSimConfig) -> float:
    """Wait time of the k-th arrival in a tick (k is 1-based).

    Terms: park-and-pay minimum, driving past earlier stalls, half the
    possible waits for departing cars, and a 1/2 + 1/4 + ... queue behind
    the k-1 arrivals ahead still paying.
    """
    if k < 1:
        raise DataError("arrival index k must be >= 1")
    total = cfg.min_park_s
    total += stalls_passed * cfg.per_stall_drive_s
    total += (min(k, departures) / 2.0) * cfg.vacate_wait_s
    for i in range(1, k):
        total += cfg.min_park_s / (2.0 ** i)
    return total


@dataclass(frozen=True)
class LotHourStats:
    mean_s: float | None
    std_s: float | None
    arrivals: int
    overflow: int


def simulate_lot_hour(spec: LotSpec, rates: LotRateTable, day: int, hour: int,
                      cfg: LotSimConfig, initial_occupancy: int,
                      rng: np.random.Generator) -> LotHourStats:
    """Simulate one hour of lot traffic, repeated cfg.reps times.

    Each repetition restarts from the same initial occupancy with an
    independent child stream. Every parked arrival yields one wait-time
    sample; the mean is absent if no arrival parked in any repetition.
    """
    lam_a, lam_d = rates.lookup(spec.id, day, hour)
    ticks = max(1, int(round(3600.0 / cfg.tick_s)))
    samples: list[float] = []
    overflow = 0
    for child in rng.spawn(cfg.reps):
        state = LotState.fresh(spec.capacity, initial_occupancy)
        for _ in range(ticks):
            result = sample_tick(state, lam_a, lam_d, cfg, child)
            overflow += result.overflow
            for k, stall in enumerate(result.stall_indices, start=1):
                samples.append(arrival_wait_time(k, result.departed, stall, cfg))
    if not samples:
        return LotHourStats(mean_s=None, std_s=None, arrivals=0, overflow=overflow)
    arr = np.asarray(samples)
    std = float(arr.std(ddof=1)) if len(samples) > 1 else 0.0
    return LotHourStats(mean_s=float(arr.mean()), std_s=std,
                        arrivals=len(samples), overflow=overflow)


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
    total_s: float
    lot_id: str
    drive_s: float
    lot_s: float
    walk_s: float
    std_s: float


def estimate_offstreet_time(g: RoadGraph, lots: Sequence[LotSpec],
                            rates: LotRateTable, dest: str, day: int, hour: int,
                            cfg: LotSimConfig,
                            occupancy_by_lot: Mapping[str, int] | None = None,
                            _cache: dict | None = None) -> OffstreetEstimate:
    """Total off-street time for a destination block: drive to the lot with
    the smallest drive time (ties go to the smallest lot id), queue and
    park inside it, walk back.

    The in-lot stream derives from (seed, lot, day, hour), so estimates for
    different destination blocks share identical lot outcomes. If the
    simulated hour sees no arrival at all, the wait of a single probe car
    entering the initial state is used instead of an undefined mean.

    Drive times come from one ``drive_times_to_node`` table per (lot
    entrance, hour) and walk times from one ``walk_times_from_node`` table
    per lot entrance, both indexed by ``g.position``. ``_cache`` is a dict
    the caller keeps for one run over a single graph, lot set, rate table
    and config; it shares these tables and the lot statistics between
    calls. Without it every call builds its own.
    """
    if not lots:
        raise DataError("no lots configured")
    if not 0 <= day < DAYS_PER_WEEK:
        raise DataError(f"day must be in 0..6, got {day!r}")
    i = g.position[g.edge(dest).id]
    cache = {} if _cache is None else _cache

    def cached(key, build):
        if key not in cache:
            cache[key] = build()
        return cache[key]

    drive_options = []
    for lot in sorted(lots, key=lambda l: l.id):
        drive_s = cached(("drive", lot.node, hour),
                         lambda: drive_times_to_node(g, lot.node, hour))[i]
        if drive_s == math.inf:
            raise DataError(f"no drive path from {dest!r} to node {lot.node!r}")
        drive_options.append((float(drive_s), lot))
    drive_s, lot = min(drive_options, key=lambda pair: pair[0])

    occupancy = 0
    if occupancy_by_lot is not None:
        occupancy = min(max(int(occupancy_by_lot.get(lot.id, 0)), 0), lot.capacity)

    stats = cached(("lot", lot.id, day, hour, occupancy), lambda: simulate_lot_hour(
        lot, rates, day, hour, cfg, occupancy,
        derived_stream(cfg.seed, lot.id, day, hour)))
    if stats.mean_s is None:
        # quiet lot: one probe car drives past the initially occupied stalls
        stalls_passed = min(occupancy, lot.capacity - 1)
        lot_s = arrival_wait_time(1, 0, stalls_passed, cfg)
        std_s = 0.0
    else:
        lot_s = stats.mean_s
        std_s = stats.std_s if stats.std_s is not None else 0.0

    walk_s = float(cached(("walk", lot.node), lambda: walk_times_from_node(g, lot.node))[i])
    return OffstreetEstimate(total_s=drive_s + lot_s + walk_s, lot_id=lot.id,
                             drive_s=drive_s, lot_s=lot_s, walk_s=walk_s,
                             std_s=std_s)
