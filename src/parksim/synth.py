"""The synthetic city: a grid of metered block faces, the payments and
curb surveys observed on it, off-street lots with hourly entry records, and
the ground truth that every stage is checked against. ``synth_generate``
writes BUNDLE_FILES in the schemas the pipeline reads. ``SynthConfig``'s six
knobs size the city and its demand; module constants fix the rest.

Synth stream version 1: one ``numpy.random.default_rng(seed)`` draws, in order,

1. per grid segment, by row then column of its first node, east-going
   before south-going: its length factor (``uniform``), then per face,
   forward first, whether the face is unmetered (``random``);
2. per metered face: per day and hour, the candidate arrivals
   (``poisson``), each followed by its start second (``integers``) and
   duration (``lognormal``); candidates in start order are admitted while
   fewer sessions than meters run; then, per admitted session in start
   order, whether its payment is observed (``random``);
3. per metered face, SURVEYS_PER_BLOCK visits, the morning half first:
   day, hour and minute (``integers``), drawn again while the half-hour
   window repeats one of the face's; then whether the visit's times are
   missing (``random``);
4. per lot in ``lot_nodes`` order, per day and hour: entries (``poisson``),
   the recorded ones (``binomial``, only with entries), then per recorded
   car whether it paid until FLAT_RATE_END_HOUR (``random``, only before
   it), and otherwise its paid hours (``choice``).

Survey answers and the ground truth are read off the sessions.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import re
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path

import numpy as np

from .data_ingest import (LOT_EVENT_COLUMNS, SURVEY_COLUMNS, write_lots, write_payments,
                          write_table)
from .errors import DataError, check_fields
from .occupancy_model import _EPOCH, HOUR_US, feature_matrix, micros, session_arrays
from .offstreet_sim import LotSpec
from .road_graph import BlockFace, Intersection, _atomic_write, build_graph, save_graph

BLOCK_LENGTH_M = 100.0
METERS_PER_BLOCK = 5
UNMETERED_FRACTION = 0.12
DRIVE_SPEED_MPS = 8.0
WALK_SPEED_MPS = 1.4
START_DATE = date(2026, 3, 2)  # a Monday
SURVEYS_PER_BLOCK = 8
SURVEY_MISSING_FRACTION = 0.15
# Lot parkers on the flat rate pay until this hour, so departures spike at it.
FLAT_RATE_END_HOUR = 18
_DAY0_S = (datetime.combine(START_DATE, time()) - _EPOCH) // timedelta(seconds=1)

BUNDLE_FILES = ("graph.json", "payments.csv", "surveys.csv", "lots.json",
                "lot_events.csv", "ground_truth.json")


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic city: a square grid with demand and
    congestion concentrated at the center and one or more off-street lots.

    ``days`` must cover whole weeks so lot rates can be estimated. The
    observed fraction mimics seeing a single payment channel only. A lot
    node names an intersection ``n{row}_{column}`` of the grid.
    """

    grid_n: int = 6
    days: int = 14
    observed_fraction: float = 0.6
    lot_capacity: int = 40
    lot_nodes: tuple[str, ...] = ()  # empty: one lot at the central node
    demand_scale: float = 1.0

    def __post_init__(self):
        check_fields(self, at_least={"grid_n": 2, "days": 7, "lot_capacity": 1,
                                     "demand_scale": 0})
        if self.days % 7:
            raise DataError("days must be a positive multiple of 7")
        if not 0.0 < self.observed_fraction <= 1.0:
            raise DataError("observed_fraction must be in (0, 1]")
        for node in self.lot_nodes:
            match = re.fullmatch(r"n(0|[1-9][0-9]*)_(0|[1-9][0-9]*)", node)
            if not (match and max(map(int, match.groups())) < self.grid_n):
                raise DataError(f"lot node {node!r} not in the {self.grid_n}x{self.grid_n} grid")


def _node_id(row: int, column: int) -> str:
    return f"n{row}_{column}"


def _hour_shape(h: int) -> float:
    """Business-hours demand bump peaking early afternoon."""
    return math.exp(-((h - 13.5) / 3.5) ** 2)


def _lot_shape(h: int) -> float:
    return math.exp(-((h - 11.0) / 3.2) ** 2)


def _grid_faces(cfg: SynthConfig, rng: np.random.Generator):
    """The grid's intersections, its block faces and each face's centrality:
    1 at the grid center, 0 at the far corners."""
    n = cfg.grid_n
    nodes = [Intersection(_node_id(r, c), 49.26 + r * 9e-4, -123.13 + c * 1.3e-3)
             for r in range(n) for c in range(n)]
    center = (n - 1) / 2.0
    max_dist = math.hypot(center, center)
    faces: list[BlockFace] = []
    centrality: list[float] = []
    for r in range(n):
        for c in range(n):
            segments = []
            if c + 1 < n:
                segments.append((f"h{r}_{c}", (r, c), (r, c + 1), "E", "W"))
            if r + 1 < n:
                segments.append((f"v{r}_{c}", (r, c), (r + 1, c), "S", "N"))
            for base_id, a, b, fwd, rev in segments:
                length = BLOCK_LENGTH_M * float(rng.uniform(0.85, 1.25))
                mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
                central = 1.0 - math.hypot(mid[0] - center, mid[1] - center) / max_dist
                base_drive = length / DRIVE_SPEED_MPS
                drive = tuple(
                    base_drive * (1.0 + (0.25 + 1.55 * central) * _hour_shape(h))
                    for h in range(24))
                for tag, (u, v) in ((fwd, (a, b)), (rev, (b, a))):
                    metered = rng.random() >= UNMETERED_FRACTION
                    faces.append(BlockFace(
                        id=f"{base_id}{tag}", from_node=_node_id(*u), to_node=_node_id(*v),
                        length_m=length, meter_count=METERS_PER_BLOCK if metered else 0,
                        walk_time_s=length / WALK_SPEED_MPS, drive_time_s=drive))
                    centrality.append(central)
    return nodes, faces, centrality


def _generate_sessions(face: BlockFace, centrality: float, cfg: SynthConfig,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Admitted sessions' starts (whole seconds from the epoch) and paid
    whole seconds, in start order; at most the meter count run at once."""
    candidates: list[tuple[int, int]] = []
    pressure_base = 0.25 + 1.15 * centrality
    for day in range(cfg.days):
        for h in range(24):
            offered = (face.meter_count * pressure_base
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
        if len(running) < face.meter_count:
            admitted.append((start, duration))
            heapq.heappush(running, start + duration)
    return tuple(np.array(admitted, dtype=np.int64).reshape(-1, 2).T)


def synth_generate(cfg: SynthConfig, seed: int, out_dir: str | os.PathLike) -> None:
    """Write the deterministic synthetic city bundle, BUNDLE_FILES, into ``out_dir``.

    The bundle reproduces the external file schemas exactly. The recorded
    ground truth holds, per block, the availability at half past each hour
    averaged over days, plus the exact availability at each usable survey
    window for end-to-end checks.
    """
    rng = np.random.default_rng(int(seed))
    out = Path(out_dir)

    nodes, faces, centrality = _grid_faces(cfg, rng)
    graph = build_graph(nodes, faces)
    metered = [(face, c) for face, c in zip(faces, centrality) if face.meter_count]

    # paid sessions, all of which set the availability, and those observed
    parts = [(np.empty(0, np.intp), np.empty(0, np.int64), np.empty(0, np.int64))]
    payments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for i, (face, c) in enumerate(metered):
        start_s, paid_s = _generate_sessions(face, c, cfg, rng)
        parts.append((np.full(start_s.size, i), start_s * 1_000_000,
                      (start_s + paid_s) * 1_000_000))
        observed = rng.random(start_s.size) < cfg.observed_fraction
        payments[face.id] = (start_s[observed], paid_s[observed])
    sessions = session_arrays([face.id for face, _ in metered], *map(np.concatenate, zip(*parts)))

    # survey visits, each in a half-hour window of its face's own
    visits: list[tuple[BlockFace, datetime, datetime, bool]] = []
    for face, _ in metered:
        seen_windows: set[datetime] = set()
        for visit in range(SURVEYS_PER_BLOCK):
            hours = (9, 12) if visit < SURVEYS_PER_BLOCK // 2 else (13, 17)
            while True:  # ends: a half-day's 4 visits share at least 42 windows
                day = int(rng.integers(0, cfg.days))
                hour = int(rng.integers(*hours))
                minute = int(rng.integers(0, 60))
                ts = datetime.combine(START_DATE + timedelta(days=day), time(hour, minute))
                window = ts.replace(minute=minute - minute % 30)
                if window not in seen_windows:
                    break
            seen_windows.add(window)
            visits.append((face, ts, window, rng.random() < SURVEY_MISSING_FRACTION))

    # meter checks, some without a time: (block, time or datetime.min, meter, text, free)
    surveys: list[tuple[str, datetime, str, str, int]] = []
    survey_truth: dict[str, dict[str, int]] = {}
    active = feature_matrix(sessions, graph, [face.id for face, *_ in visits],
                            [micros(ts) for _, ts, _, _ in visits])[:, 0].astype(int)
    for (face, ts, window, missing), n_active in zip(visits, active.tolist()):
        for i in range(face.meter_count):
            surveys.append((face.id, datetime.min if missing else ts, f"{face.id}:m{i}",
                            "" if missing else ts.isoformat(), int(i >= n_active)))
        if not missing:
            truth = survey_truth.setdefault(face.id, {})
            truth[window.isoformat()] = int(n_active < face.meter_count)

    # ground truth availability at half past each hour, averaged over days
    times = (_DAY0_S * 1_000_000 + HOUR_US // 2
             + HOUR_US * (np.arange(24)[:, None] + 24 * np.arange(cfg.days))).ravel()
    ids = np.array([face.id for face, _ in metered], dtype=object)
    active = feature_matrix(sessions, graph, np.repeat(ids, times.size),
                            np.tile(times, ids.size))[:, 0]
    meters = np.array([face.meter_count for face, _ in metered])
    free_days = (active.reshape(ids.size, 24, cfg.days) < meters[:, None, None]).sum(axis=2)
    hourly = {face.id: [0.0] * 24 for face in faces}
    hourly.update(zip(ids.tolist(), (free_days / cfg.days).tolist()))

    # lots and their hourly entry records
    middle = (cfg.grid_n - 1) // 2
    lots = [LotSpec(id=f"lot{i + 1}", node=node, capacity=cfg.lot_capacity)
            for i, node in enumerate(cfg.lot_nodes or (_node_id(middle, middle),))]
    events: list[list] = []
    for lot in lots:
        scale = lot.capacity / 3.0
        for day in range(cfg.days):
            weekend = (START_DATE + timedelta(days=day)).weekday() >= 5
            for h in range(24):
                mean_entries = scale * (0.04 + _lot_shape(h)) * (0.55 if weekend else 1.0)
                entries = int(rng.poisson(mean_entries))
                recorded = int(rng.binomial(entries, 0.95)) if entries else 0
                paid_s = [(FLAT_RATE_END_HOUR - h) * 3600
                          if h < FLAT_RATE_END_HOUR and rng.random() < 0.30
                          else 3600 * (1 + int(rng.choice(4, p=[0.35, 0.30, 0.20, 0.15])))
                          for _ in range(recorded)]
                hour = datetime.combine(START_DATE + timedelta(days=day), time(h, 0))
                events.append([lot.id, hour.isoformat(), entries, ";".join(map(str, paid_s))])

    save_graph(graph, out / "graph.json")
    write_payments(payments, out / "payments.csv")
    # by block, then time (missing first), then meter; ties keep visit order
    write_table(out / "surveys.csv", SURVEY_COLUMNS,
                ([meter_id, block_id, text, free] for block_id, _, meter_id, text, free
                 in sorted(surveys, key=lambda row: row[:3])))
    write_lots(lots, out / "lots.json")
    write_table(out / "lot_events.csv", LOT_EVENT_COLUMNS, sorted(events))
    _atomic_write(out / "ground_truth.json", json.dumps(
        {"format_version": 1, "hourly_availability": hourly, "survey_truth": survey_truth},
        sort_keys=True))
