"""Raw-data ingestion and the synthetic city generator.

Covers three jobs: collapsing meter-level occupancy surveys into
block-level samples; reading lot entry records into dense hourly arrays,
``LotFlows``; and averaging those into hourly Poisson rates per day of
week, ``LotRates``, after smoothing the artificial departure spikes that
flat-rate boundaries create. A lot's arrays hold its entries and departures
in every hour of its span, the whole weeks of consecutive hours from its
first record. A car departs in the hour its paid time expires; one whose
paid time expires at or after its span's end departs outside the span, and
is counted, not binned. The synthetic generator emits a complete,
schema-compatible city bundle (graph, payments, surveys, lots, lot events)
plus the ground-truth availability used to validate everything downstream.

Timestamps are naive local time throughout; CSV columns carry ISO 8601,
and a timestamp with a UTC offset is malformed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import statistics
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import DataError, check_fields
from .occupancy_model import (_EPOCH, FEATURE_NAMES, N_FEATURES, OccupancySample, Sessions,
                              feature_matrix, micros, session_arrays)
from .offstreet_sim import DAYS_PER_WEEK, LotRates, LotSpec
from .road_graph import (BlockFace, Intersection, RoadGraph, _atomic_write, _check_hour,
                         _json_int, build_graph, save_graph)

HOUR = timedelta(hours=1)
WEEK_H = 7 * 24
SURVEY_WINDOW = timedelta(minutes=30)


@dataclass(frozen=True)
class PaymentRecord:
    block_id: str
    start: datetime
    duration_s: float


@dataclass(frozen=True)
class SurveyRecord:
    meter_id: str
    block_id: str
    timestamp: datetime | None  # None: unusable check, will be discarded
    free: bool


@dataclass(frozen=True)
class LotFlows:
    """Every lot's hourly flows: one row per lot, in ``lot_ids`` order, and
    one column per hour of the lot's span. All spans have the same number
    of whole weeks; each starts at its lot's first recorded hour."""

    lot_ids: tuple[str, ...]
    starts: tuple[datetime, ...]
    entries: np.ndarray     # cars entering in each hour
    departures: np.ndarray  # cars whose paid time expires in each hour
    departures_outside_span: int  # cars whose paid time expires at or after the span's end

    @property
    def weeks(self) -> int:
        return self.entries.shape[1] // WEEK_H


@dataclass(frozen=True)
class SmoothingConfig:
    peak_hours: tuple[int, ...] = (18,)  # flat-rate boundaries, hour of day
    sigma_h: float = 3.5
    span_h: int = 12

    def __post_init__(self):
        check_fields(self, positive=("sigma_h",), at_least={"span_h": 1})
        if not all(0 <= h <= 23 for h in self.peak_hours):
            raise DataError("peak_hours must be hours of day")


@dataclass(frozen=True)
class SurveyCombination:
    samples: tuple[OccupancySample, ...]
    discarded: int  # records dropped for missing timestamps


# -- surveys -------------------------------------------------------------------

def combine_surveys(records: Iterable[SurveyRecord]) -> SurveyCombination:
    """Collapse meter-level checks into one availability sample per
    (block, half-hour window).

    Records without timestamps are unusable and only counted. A block is
    available in a window if any surveyed meter had a free spot; the sample
    time is the window midpoint.
    """
    discarded = 0
    groups: dict[tuple[str, datetime], int] = {}
    for r in records:
        if r.timestamp is None:
            discarded += 1
            continue
        window = _window_start(r.timestamp)
        key = (r.block_id, window)
        groups[key] = max(groups.get(key, 0), int(r.free))
    samples = tuple(
        OccupancySample(block_id=block, time=window + SURVEY_WINDOW / 2,
                        available=available)
        for (block, window), available in sorted(groups.items())
    )
    return SurveyCombination(samples=samples, discarded=discarded)


def _window_start(ts: datetime) -> datetime:
    minute = 0 if ts.minute < 30 else 30
    return ts.replace(minute=minute, second=0, microsecond=0)


# -- lot rates --------------------------------------------------------------------

def smooth_departures(counts: np.ndarray, first_hour: int,
                      cfg: SmoothingConfig) -> np.ndarray:
    """Redistribute departure spikes at configured peak hours backward.

    ``counts`` holds consecutive hours, the first at hour of day
    ``first_hour``. At each peak hour, in time order, the excess over the
    median of the +-3 h neighborhood is removed from the peak and spread
    over the preceding span_h hours with left-half Gaussian weights (std
    sigma_h, normalized). Grand totals are conserved.
    """
    values = np.array(counts, dtype=float)
    raw = [math.exp(-(d * d) / (2.0 * cfg.sigma_h * cfg.sigma_h))
           for d in range(1, cfg.span_h + 1)]
    weights = (np.array(raw) / sum(raw))[::-1]  # of the hours span_h, ..., 1 before a peak
    for i in range(len(values)):
        if (first_hour + i) % 24 not in cfg.peak_hours:
            continue
        if i < cfg.span_h:
            raise DataError(f"series too short: need {cfg.span_h} hours before "
                            f"the peak at hour {i} of the span")
        neighborhood = values[max(0, i - 3):i].tolist() + values[i + 1:i + 4].tolist()
        excess = max(0.0, values[i] - statistics.median(neighborhood))
        values[i] -= excess
        values[i - cfg.span_h:i] += excess * weights
    return values


def estimate_rates(flows: LotFlows, smoothing: SmoothingConfig) -> LotRates:
    """Average hourly flows into each lot's (day of week, hour) Poisson rates.

    Departures are smoothed first. Every slot is then the mean of the
    ``flows.weeks`` hours that fall on it, added in time order.
    """
    rates = {}
    for lot_id, start, entries, departures in zip(
            flows.lot_ids, flows.starts, flows.entries, flows.departures):
        slot = (start.weekday() * 24 + start.hour + np.arange(entries.size)) % WEEK_H
        departures = smooth_departures(departures, start.hour, smoothing)
        lams = np.stack([np.bincount(slot, weights=x, minlength=WEEK_H) / flows.weeks
                         for x in (entries, departures)], axis=-1)
        if not np.isfinite(lams).all():  # entry counts beyond the largest float
            raise DataError(f"lot {lot_id!r} has entry counts too large to average")
        rates[lot_id] = lams.reshape(DAYS_PER_WEEK, 24, 2)
    return rates


# -- file I/O ---------------------------------------------------------------------

PAYMENT_COLUMNS = ("block_id", "start_iso8601", "duration_s")
SURVEY_COLUMNS = ("meter_id", "block_id", "timestamp_iso8601", "free_spots")
LOT_EVENT_COLUMNS = ("lot_id", "hour_iso8601", "entries", "paid_durations_s")
RATE_COLUMNS = ("lot_id", "day_of_week", "hour", "lambda_a_per_hour", "lambda_d_per_hour")
SAMPLE_COLUMNS = ("block_id", "time_iso8601", "available") + FEATURE_NAMES
T = TypeVar("T")


def write_table(path: str | os.PathLike, columns: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Write ``columns`` as the header, then ``rows``, as one CSV file."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def read_table(path: str | os.PathLike, columns: Sequence[str],
               parse: Callable[[dict[str, str]], T]) -> Iterator[T]:
    """Yield ``parse(row)`` for each data row of a CSV file, as it is read.

    The header must be exactly ``columns``. An unreadable file, a wrong
    header or field count, malformed CSV, and a KeyError, ValueError,
    TypeError, OverflowError or DataError from ``parse`` all become one
    DataError that names the file and the line.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames != list(columns):
                raise ValueError(f"expected header {','.join(columns)}, "
                                 f"got {','.join(reader.fieldnames or ())}")
            for row in reader:
                if len(row) != len(columns) or None in row.values():
                    raise ValueError(f"expected {len(columns)} fields")
                yield parse(row)
        except (csv.Error, DataError, KeyError, ValueError, TypeError, OverflowError) as exc:
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from exc


def _real(raw: str | float, positive: bool = False) -> float:
    value = float(raw)
    if not math.isfinite(value) or (positive and value <= 0):
        raise ValueError(f"expected a finite{' positive' * positive} number, got {raw!r}")
    return value


def _naive(raw: str) -> datetime:
    value = datetime.fromisoformat(raw)
    if value.tzinfo is not None:
        raise ValueError(f"expected a local time without a UTC offset, got {raw!r}")
    return value


def _count(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError(f"expected a count, got {raw!r}")
    return value


def _label(raw: str) -> int:
    value = int(raw)
    if value not in (0, 1):
        raise ValueError(f"available must be 0 or 1, got {raw!r}")
    return value


def read_payments(path: str | os.PathLike) -> Sessions:
    """Each block's paid sessions, as ``occupancy_model.session_arrays``."""
    def parse(row: dict[str, str]) -> tuple[str, int, int]:
        start = _naive(row["start_iso8601"])
        end = start + timedelta(seconds=_real(row["duration_s"], positive=True))
        return row["block_id"], micros(start), micros(end)
    return session_arrays(read_table(path, PAYMENT_COLUMNS, parse))


def write_payments(records: Sequence[PaymentRecord], path: str | os.PathLike) -> None:
    write_table(path, PAYMENT_COLUMNS,
                ([r.block_id, r.start.isoformat(), int(r.duration_s)] for r in
                 sorted(records, key=lambda r: (r.block_id, r.start, r.duration_s))))


def read_surveys(path: str | os.PathLike) -> list[SurveyRecord]:
    def parse(row: dict[str, str]) -> SurveyRecord:
        raw_ts = row["timestamp_iso8601"].strip()
        return SurveyRecord(meter_id=row["meter_id"], block_id=row["block_id"],
                            timestamp=_naive(raw_ts) if raw_ts else None,
                            free=_count(row["free_spots"]) > 0)
    return list(read_table(path, SURVEY_COLUMNS, parse))


def write_surveys(records: Sequence[SurveyRecord], path: str | os.PathLike) -> None:
    """Write checks by block, then time (missing first), then meter."""
    write_table(path, SURVEY_COLUMNS,
                ([r.meter_id, r.block_id,
                  r.timestamp.isoformat() if r.timestamp is not None else "", int(r.free)]
                 for r in sorted(records, key=lambda r: (
                     r.block_id, r.timestamp or datetime.min, r.meter_id))))


def read_lots(path: str | os.PathLike) -> list[LotSpec]:
    """Lots from a JSON list of {id, node, capacity}: each id once, each
    capacity a positive JSON integer."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read lots file {path}: {exc}") from exc
    try:
        lots = [LotSpec(id=str(x["id"]), node=str(x["node"]),
                        capacity=_json_int(x["capacity"], f"lot {x['id']!r} capacity"))
                for x in raw]
        ids = [lot.id for lot in lots]
        if len(set(ids)) < len(ids):
            raise ValueError(f"repeated lot ids {sorted({i for i in ids if ids.count(i) > 1})}")
    except (DataError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed lots file {path}: {exc}") from exc
    return lots


def write_lots(lots: Sequence[LotSpec], path: str | os.PathLike) -> None:
    payload = [{"id": l.id, "node": l.node, "capacity": l.capacity}
               for l in sorted(lots, key=lambda l: l.id)]
    _atomic_write(path, json.dumps(payload, sort_keys=True))


def read_lot_events(path: str | os.PathLike) -> LotFlows:
    """Each lot's entries and naive departures in every hour of its span.

    Each car with a paid duration departs in the hour its paid time
    expires; a car without one is counted as an entry only. Rows for the
    same (lot, hour) add up. Each lot must have a row for every hour from
    its first to its last, whole weeks of them, and every lot the same
    number of weeks.
    """
    def parse(row: dict[str, str]) -> tuple[str, int, float, list[int]]:
        hour = _naive(row["hour_iso8601"])
        if hour.minute or hour.second or hour.microsecond:
            raise ValueError(f"hour {row['hour_iso8601']!r} is not on the hour")
        entries = int(row["entries"])
        blob = row["paid_durations_s"].strip()
        paid = [_real(x) for x in blob.split(";")] if blob else []
        if entries < 0 or min(paid, default=0.0) < 0:
            raise ValueError("entries and paid durations must not be negative")
        if len(paid) > entries:
            raise ValueError(f"{len(paid)} paid durations for {entries} entries")
        h = (hour - _EPOCH) // HOUR
        return row["lot_id"], h, float(entries), [h + timedelta(seconds=s) // HOUR
                                                  for s in paid]

    by_lot: dict[str, list[tuple[int, float, list[int]]]] = {}
    for lot_id, *event in read_table(path, LOT_EVENT_COLUMNS, parse):
        by_lot.setdefault(lot_id, []).append(event)
    if not by_lot:
        raise DataError(f"no lot event records in {path}")
    lot_ids = tuple(sorted(by_lot))
    weeks, starts, entries, departures, outside = {}, [], [], [], 0
    for lot_id in lot_ids:
        hours, counts, expiries = zip(*by_lot[lot_id])
        seen = np.unique(hours)
        gaps = seen[:-1][np.diff(seen) > 1] + 1  # the first missing hour of each gap
        if gaps.size:
            raise DataError(f"{path}: lot {lot_id!r} hourly series incomplete; gaps at "
                            f"{[(_EPOCH + h * HOUR).isoformat() for h in gaps[:8].tolist()]}")
        if seen.size % WEEK_H:
            raise DataError(f"{path}: lot {lot_id!r} entry series does not span whole weeks")
        first, n = int(seen[0]), seen.size
        expiry = np.array([e for row in expiries for e in row], dtype=np.int64) - first
        weeks[lot_id] = n // WEEK_H
        starts.append(_EPOCH + first * HOUR)
        entries.append(np.bincount(np.array(hours) - first, weights=counts, minlength=n))
        departures.append(np.bincount(expiry[expiry < n], minlength=n).astype(float))
        outside += int(np.count_nonzero(expiry >= n))
    if len(set(weeks.values())) > 1:
        raise DataError(f"{path}: lots cover different week counts: {weeks}")
    return LotFlows(lot_ids, tuple(starts), np.array(entries), np.array(departures),
                    outside)


def read_rates_csv(path: str | os.PathLike) -> LotRates:
    """Each lot's rates; the file needs a row for every (day, hour) of a lot."""
    def parse(row: dict[str, str]) -> tuple[tuple[str, int, int], tuple[float, float]]:
        key = row["lot_id"], int(row["day_of_week"]), _check_hour(int(row["hour"]))
        if not 0 <= key[1] < DAYS_PER_WEEK:
            raise ValueError(f"day_of_week must be in 0..6, got {key[1]}")
        lams = _real(row["lambda_a_per_hour"]), _real(row["lambda_d_per_hour"])
        if min(lams) < 0:
            raise ValueError(f"rates must be non-negative, got {lams}")
        return key, lams
    rates = {}
    for key, lams in read_table(path, RATE_COLUMNS, parse):
        if key in rates:
            raise DataError(f"duplicate rate row for {key} in {path}")
        rates[key] = lams
    rows = Counter(lot_id for lot_id, _, _ in rates)
    partial = sorted(lot_id for lot_id, n in rows.items() if n < WEEK_H)
    if partial:
        raise DataError(f"{path} lacks (day of week, hour) rows of lots {partial[:5]}")
    arrays = np.array([lams for _, lams in sorted(rates.items())])  # lot, day, hour order
    return dict(zip(sorted(rows), arrays.reshape(-1, DAYS_PER_WEEK, 24, 2)))


def write_rates_csv(rates: LotRates, path: str | os.PathLike) -> None:
    write_table(path, RATE_COLUMNS,
                ([lot_id, *divmod(slot, 24), *map(repr, lams)] for lot_id in sorted(rates)
                 for slot, lams in enumerate(rates[lot_id].reshape(WEEK_H, 2).tolist())))


def read_samples_csv(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray]:
    """The feature matrix and label vector of a samples file, in file order."""
    rows = list(read_table(path, SAMPLE_COLUMNS, lambda row: (
        _label(row["available"]), [_real(row[name]) for name in FEATURE_NAMES])))
    X = np.array([x for _, x in rows], dtype=float).reshape(len(rows), N_FEATURES)
    y = np.array([label for label, _ in rows], dtype=np.int64)
    return X, y


def write_samples_csv(samples: Sequence[OccupancySample], features: np.ndarray,
                      path: str | os.PathLike) -> None:
    """One row per sample, in order: its block, time, label and features."""
    write_table(path, SAMPLE_COLUMNS,
                ([s.block_id, s.time.isoformat(), s.available, *map(repr, x)]
                 for s, x in zip(samples, features.tolist(), strict=True)))


# -- synthetic city ------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic city: a square grid with demand and
    congestion concentrated at the center and one or more off-street lots.

    ``days`` must cover whole weeks so lot rates can be estimated. The
    observed fraction mimics seeing a single payment channel only.
    """

    grid_n: int = 6
    block_length_m: float = 100.0
    meters_per_block: int = 5
    unmetered_fraction: float = 0.12
    drive_speed_mps: float = 8.0
    walk_speed_mps: float = 1.4
    days: int = 14
    start_date: date = date(2026, 3, 2)  # a Monday
    observed_fraction: float = 0.6
    surveys_per_block: int = 8
    survey_missing_fraction: float = 0.15
    lot_capacity: int = 40
    lot_nodes: tuple[str, ...] = ()  # empty: one lot at the central node
    flat_rate_end_hour: int = 18
    demand_scale: float = 1.0

    def __post_init__(self):
        check_fields(self, positive=("block_length_m", "drive_speed_mps", "walk_speed_mps"),
                     at_least={"grid_n": 2, "days": 7, "meters_per_block": 1,
                               "lot_capacity": 1, "demand_scale": 0})
        if self.days % 7:
            raise DataError("days must be a positive multiple of 7")
        if not 0.0 <= self.unmetered_fraction <= 1.0:
            raise DataError("unmetered_fraction must be in [0, 1]")
        if not 0.0 < self.observed_fraction <= 1.0:
            raise DataError("observed_fraction must be in (0, 1]")
        if not 0.0 <= self.survey_missing_fraction < 1.0:
            raise DataError("survey_missing_fraction must be in [0, 1)")
        if not 0 <= self.flat_rate_end_hour <= 23:
            raise DataError("flat_rate_end_hour must be an hour of day")


@dataclass(frozen=True)
class SynthBundle:
    out_dir: Path
    graph: RoadGraph
    payments: tuple[PaymentRecord, ...]
    surveys: tuple[SurveyRecord, ...]
    lots: tuple[LotSpec, ...]
    ground_truth: dict


BUNDLE_FILES = ("graph.json", "payments.csv", "surveys.csv", "lots.json",
                "lot_events.csv", "ground_truth.json")


def _hour_shape(h: int) -> float:
    """Business-hours demand bump peaking early afternoon."""
    return math.exp(-((h - 13.5) / 3.5) ** 2)


def _lot_shape(h: int) -> float:
    return math.exp(-((h - 11.0) / 3.2) ** 2)


@dataclass
class _FacePlan:
    face: BlockFace
    centrality: float  # 1 at the grid center, 0 at the far corners


def _grid_faces(cfg: SynthConfig, rng: np.random.Generator):
    n = cfg.grid_n
    nodes = [Intersection(f"n{r}_{c}", 49.26 + r * 9e-4, -123.13 + c * 1.3e-3)
             for r in range(n) for c in range(n)]
    center = (n - 1) / 2.0
    max_dist = math.hypot(center, center)
    plans: list[_FacePlan] = []
    for r in range(n):
        for c in range(n):
            segments = []
            if c + 1 < n:
                segments.append((f"h{r}_{c}", (r, c), (r, c + 1), "E", "W"))
            if r + 1 < n:
                segments.append((f"v{r}_{c}", (r, c), (r + 1, c), "S", "N"))
            for base_id, a, b, fwd, rev in segments:
                length = cfg.block_length_m * float(rng.uniform(0.85, 1.25))
                mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
                centrality = 1.0 - math.hypot(mid[0] - center, mid[1] - center) / max_dist
                walk = length / cfg.walk_speed_mps
                base_drive = length / cfg.drive_speed_mps
                drive = tuple(
                    base_drive * (1.0 + (0.25 + 1.55 * centrality) * _hour_shape(h))
                    for h in range(24))
                for tag, (u, v) in ((fwd, (a, b)), (rev, (b, a))):
                    metered = rng.random() >= cfg.unmetered_fraction
                    face = BlockFace(
                        id=f"{base_id}{tag}",
                        from_node=f"n{u[0]}_{u[1]}", to_node=f"n{v[0]}_{v[1]}",
                        length_m=length,
                        meter_count=cfg.meters_per_block if metered else 0,
                        walk_time_s=walk, drive_time_s=drive)
                    plans.append(_FacePlan(face=face, centrality=centrality))
    return nodes, plans


def _generate_sessions(plan: _FacePlan, cfg: SynthConfig,
                       rng: np.random.Generator) -> list[tuple[float, float]]:
    """Admitted (start_epoch, duration) pairs in start order, capped at the
    meter count."""
    candidates: list[tuple[float, float]] = []
    day0 = (datetime.combine(cfg.start_date, time(0, 0)) - _EPOCH).total_seconds()
    pressure_base = 0.25 + 1.15 * plan.centrality
    for day in range(cfg.days):
        for h in range(24):
            offered = (plan.face.meter_count * pressure_base
                       * (0.10 + 1.15 * _hour_shape(h)) * cfg.demand_scale)
            for _ in range(int(rng.poisson(offered))):
                start = day0 + day * 86_400 + h * 3600 + float(rng.integers(0, 3600))
                duration = min(max(rng.lognormal(math.log(3300.0), 0.55), 600.0),
                               4 * 3600.0)
                candidates.append((start, round(duration / 60.0) * 60.0))
    candidates.sort()
    admitted: list[tuple[float, float]] = []
    active_ends: list[float] = []
    for start, duration in candidates:
        active_ends = [e for e in active_ends if e > start]
        if len(active_ends) < plan.face.meter_count:
            admitted.append((start, duration))
            active_ends.append(start + duration)
    return admitted


def synth_generate(cfg: SynthConfig, seed: int, out_dir: str | os.PathLike) -> SynthBundle:
    """Write a deterministic synthetic city bundle into ``out_dir``.

    The bundle reproduces the external file schemas exactly. The recorded
    ground truth holds, per block, the availability at half past each hour
    averaged over days, plus the exact availability at each usable survey
    window for end-to-end checks.
    """
    rng = np.random.default_rng(int(seed))
    out = Path(out_dir)

    nodes, plans = _grid_faces(cfg, rng)
    graph = build_graph(nodes, [p.face for p in plans])

    # paid sessions, all of which set the availability, and those observed
    sessions: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    payments: list[PaymentRecord] = []
    for plan in plans:
        if plan.face.meter_count == 0:
            continue
        admitted = _generate_sessions(plan, cfg, rng)
        # whole seconds from the epoch, so the microseconds are exact
        start_us, paid_us = (np.array(admitted).reshape(-1, 2) * 1e6).astype(np.int64).T
        sessions[plan.face.id] = (start_us, np.sort(start_us + paid_us))
        for start, duration in admitted:
            if rng.random() < cfg.observed_fraction:
                payments.append(PaymentRecord(block_id=plan.face.id,
                                              start=_EPOCH + timedelta(seconds=start),
                                              duration_s=duration))

    # meter-level surveys, some with missing timestamps
    surveys: list[SurveyRecord] = []
    survey_truth: dict[str, dict[str, int]] = {}
    for plan in plans:
        face = plan.face
        if face.meter_count == 0:
            continue
        seen_windows: set[datetime] = set()
        for visit in range(cfg.surveys_per_block):
            morning = visit < cfg.surveys_per_block // 2
            for _ in range(100):
                day = int(rng.integers(0, cfg.days))
                hour = int(rng.integers(9, 12)) if morning else int(rng.integers(13, 17))
                minute = int(rng.integers(0, 60))
                ts = datetime.combine(cfg.start_date + timedelta(days=day),
                                      time(hour, minute))
                window = _window_start(ts)
                if window not in seen_windows:
                    seen_windows.add(window)
                    break
            else:
                raise DataError("could not place survey visit in a fresh window")
            active = int(feature_matrix(sessions, graph, [face.id], [ts])[0, 0])
            missing = rng.random() < cfg.survey_missing_fraction
            for i in range(face.meter_count):
                surveys.append(SurveyRecord(
                    meter_id=f"{face.id}:m{i}", block_id=face.id,
                    timestamp=None if missing else ts,
                    free=i >= active))
            if not missing:
                truth = survey_truth.setdefault(face.id, {})
                truth[window.isoformat()] = int(active < face.meter_count)

    # ground truth availability at half past each hour, averaged over days
    hourly: dict[str, list[float]] = {}
    times = [datetime.combine(cfg.start_date + timedelta(days=d), time(h, 30))
             for h in range(24) for d in range(cfg.days)]
    for plan in plans:
        face = plan.face
        if face.meter_count == 0:
            hourly[face.id] = [0.0] * 24
            continue
        active = feature_matrix(sessions, graph, [face.id] * len(times), times)[:, 0]
        free_days = (active < face.meter_count).reshape(24, cfg.days).sum(axis=1)
        hourly[face.id] = [int(n) / cfg.days for n in free_days]

    # lots and their hourly entry records
    lot_nodes = cfg.lot_nodes or (f"n{(cfg.grid_n - 1) // 2}_{(cfg.grid_n - 1) // 2}",)
    lots = tuple(LotSpec(id=f"lot{i + 1}", node=node, capacity=cfg.lot_capacity)
                 for i, node in enumerate(lot_nodes))
    for lot in lots:
        if lot.node not in graph.nodes:
            raise DataError(f"lot node {lot.node!r} not in the generated grid")

    duration_choices = [3600.0, 7200.0, 10800.0, 14400.0]
    duration_weights = [0.35, 0.30, 0.20, 0.15]
    events: list[list] = []
    for lot in lots:
        scale = lot.capacity / 3.0
        for day in range(cfg.days):
            weekend = (cfg.start_date + timedelta(days=day)).weekday() >= 5
            for h in range(24):
                mean_entries = scale * (0.04 + _lot_shape(h)) * (0.55 if weekend else 1.0)
                entries = int(rng.poisson(mean_entries))
                recorded = int(rng.binomial(entries, 0.95)) if entries else 0
                durations = []
                for _ in range(recorded):
                    if h < cfg.flat_rate_end_hour and rng.random() < 0.30:
                        durations.append((cfg.flat_rate_end_hour - h) * 3600.0)
                    else:
                        durations.append(duration_choices[
                            int(rng.choice(4, p=duration_weights))])
                hour = datetime.combine(cfg.start_date + timedelta(days=day), time(h, 0))
                events.append([lot.id, hour.isoformat(), entries,
                               ";".join(str(int(d)) for d in durations)])

    ground_truth = {
        "format_version": 1,
        "hourly_availability": {k: hourly[k] for k in sorted(hourly)},
        "survey_truth": {k: dict(sorted(survey_truth[k].items()))
                         for k in sorted(survey_truth)},
    }

    save_graph(graph, out / "graph.json")
    write_payments(payments, out / "payments.csv")
    write_surveys(surveys, out / "surveys.csv")
    write_lots(list(lots), out / "lots.json")
    write_table(out / "lot_events.csv", LOT_EVENT_COLUMNS, sorted(events))
    _atomic_write(out / "ground_truth.json", json.dumps(ground_truth, sort_keys=True))

    return SynthBundle(out_dir=out, graph=graph, payments=tuple(payments),
                       surveys=tuple(surveys), lots=lots, ground_truth=ground_truth)
