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

Every CSV file is read by one column reader, ``read_columns``, in chunks
of CHUNK_ROWS rows, so a read never holds more than a chunk of text rows.
Each reader parses a chunk a column at a time, with one numpy call where
the column is large; the first faulty row is still named by file and
line. Payment starts accept exactly ``datetime.fromisoformat``'s formats.
A session ends ``timedelta(seconds=duration_s)`` after its start: the
whole seconds exactly, plus the fraction times 1e6 rounded half to even
(not ``rint(duration_s * 1e6)``, which is 1 us less for 3.0000005 s), and
no later than ``datetime.max``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import statistics
import warnings
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from functools import partial
from itertools import islice
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
# Data rows parsed at once: a read holds one chunk of text rows, not the file.
CHUNK_ROWS = 1024
# What a cell parser raises for a cell it rejects.
_CELL_ERRORS = (DataError, ValueError, OverflowError)
_MAX_US = micros(datetime.max)
# Longer than the whole datetime range, and short enough for int64 microseconds.
_LONGEST_S = 1e12
T = TypeVar("T")


def write_table(path: str | os.PathLike, columns: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Write ``columns`` as the header, then ``rows``, as one CSV file."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


class _BadRow(DataError):
    """A fault in data row ``row`` of a chunk."""

    def __init__(self, row: int, fault: Exception | str):
        super().__init__(str(fault))
        self.row = row


@dataclass(frozen=True)
class Chunk:
    """Consecutive data rows of a CSV file, as one tuple of cells per column."""

    path: str | os.PathLike
    columns: dict[str, tuple[str, ...]]

    def parse(self, name: str, cell: Callable[[str], T],
              whole: Callable[[Sequence[str]], np.ndarray] | None = None) -> list[T] | np.ndarray:
        """Column ``name`` parsed by ``whole`` as one array or, without
        ``whole``, into a list by ``cell`` on each cell.

        ``whole`` must accept exactly the columns whose every cell ``cell``
        accepts. When the parse fails, the first cell that ``cell`` rejects
        is raised as a fault of its row.
        """
        cells = self.columns[name]
        try:
            return list(map(cell, cells)) if whole is None else whole(cells)
        except _CELL_ERRORS as exc:
            for row, raw in enumerate(cells):
                try:
                    cell(raw)
                except _CELL_ERRORS as bad:
                    raise self.error(row, bad) from bad
            raise DataError(f"{self.path}: {exc}") from exc  # ``whole`` is stricter than ``cell``

    def reject(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        """Raise ``message(row)`` as a fault of the first row where ``bad``
        holds, if any does."""
        if bad.any():
            row = int(np.argmax(bad))
            raise self.error(row, message(row))

    def error(self, row: int, exc: Exception | str) -> DataError:
        """A fault of row ``row``, for ``read_columns`` to name by its line."""
        return _BadRow(row, exc)


def read_columns(path: str | os.PathLike, columns: Sequence[str],
                 parse: Callable[[Chunk], T]) -> Iterator[T]:
    """Yield ``parse(chunk)`` for the data rows of a CSV file in chunks of up
    to CHUNK_ROWS rows, each read when the one before it has been parsed.

    The header must be exactly ``columns`` and every row must hold one field
    per column; blank rows are skipped. An unreadable file, a wrong header or
    field count, malformed CSV and a fault that ``parse`` raises through
    ``Chunk`` raise a DataError that names the file and the line. The first
    faulty row of a file is named, as a row-by-row reader would: a chunk
    with a fault at some row is parsed again up to that row until the rows
    before the fault parse. So ``parse`` may read, but must not change,
    anything outside its chunk.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != list(columns):
                raise DataError(f"{path}, line {reader.line_num}: expected header "
                                f"{','.join(columns)}, got {','.join(header or ())}")
            done = 0
            while text := list(islice(reader, CHUNK_ROWS)):
                rows = list(filter(None, text))
                if not rows:
                    continue
                n = next((i for i, r in enumerate(rows) if len(r) != len(columns)), len(rows))
                fault = _BadRow(n, f"expected {len(columns)} fields") if n < len(rows) else None
                while n:
                    try:
                        parsed = parse(Chunk(path, dict(zip(columns, zip(*rows[:n])))))
                        break
                    except _BadRow as exc:
                        n, fault = exc.row, exc
                if fault:
                    raise DataError(f"{path}, line {_line_of(path, done + fault.row)}: "
                                    f"{fault}") from fault
                yield parsed
                done += len(rows)
        except csv.Error as exc:
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from exc


def _line_of(path: str | os.PathLike, row: int) -> int:
    """The line on which data row ``row`` of a CSV file ends, counting rows
    from 0 as ``read_columns`` does. Read again, for error messages only."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        next(islice(filter(None, reader), row, None))
        return reader.line_num


def _real(raw: str | float, positive: bool = False) -> float:
    value = float(raw)
    if not math.isfinite(value) or (positive and value <= 0):
        raise ValueError(f"expected a finite{' positive' * positive} number, got {raw!r}")
    return value


def _reals(cells: Sequence[str], positive: bool = False) -> np.ndarray:
    """``_real`` of every cell, as one array."""
    values = np.fromiter(map(float, cells), float, len(cells))
    ok = np.isfinite(values)
    if positive:
        ok &= values > 0
    if not ok.all():
        raise ValueError("a number out of range")
    return values


def _naive(raw: str) -> datetime:
    value = datetime.fromisoformat(raw)
    if value.tzinfo is not None:
        raise ValueError(f"expected a local time without a UTC offset, got {raw!r}")
    return value


def _naive_micros(cells: Sequence[str]) -> np.ndarray:
    """``micros(_naive(raw))`` of every cell, as one int64 array. numpy's
    parse gives the microseconds when it yields fromisoformat's times
    without a warning (it reads some suffixes as time zones); otherwise
    ``micros`` does, in about twice the time."""
    times = list(map(datetime.fromisoformat, cells))
    if any(t.tzinfo is not None for t in times):
        raise ValueError("a time with a UTC offset")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = np.array(cells, dtype="datetime64[us]")
        if parsed.tolist() == times:
            return parsed.view(np.int64)
    except (ValueError, Warning):
        pass
    return np.fromiter(map(micros, times), np.int64, len(times))


def _micros_of_seconds(seconds: np.ndarray) -> np.ndarray:
    """``timedelta(seconds=s) // timedelta(microseconds=1)`` of each ``s`` in
    [0, _LONGEST_S]: the whole seconds exactly, plus the fraction times 1e6
    rounded half to even, as ``timedelta`` rounds it."""
    whole = np.trunc(seconds)
    return (whole.astype(np.int64) * 1_000_000
            + np.rint((seconds - whole) * 1e6).astype(np.int64))


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
    """Each block's paid sessions, as ``occupancy_model.session_arrays``. A
    session lasts ``timedelta(seconds=duration_s)`` (see
    ``_micros_of_seconds``) and must end by ``datetime.max``."""
    def parse(chunk: Chunk) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        start = chunk.parse("start_iso8601", _naive, _naive_micros)
        seconds = chunk.parse("duration_s", partial(_real, positive=True),
                              partial(_reals, positive=True))
        end = start + _micros_of_seconds(np.minimum(seconds, _LONGEST_S))
        chunk.reject(end > _MAX_US, lambda row: (
            f"a session of {chunk.columns['duration_s'][row]} s ends after {datetime.max}"))
        return chunk.columns["block_id"], start, end

    codes: dict[str, int] = {}  # block id -> index, in order of first appearance
    parts = [(np.empty(0, np.intp), np.empty(0, np.int64), np.empty(0, np.int64))]
    for blocks, start, end in read_columns(path, PAYMENT_COLUMNS, parse):
        for block_id in dict.fromkeys(blocks):
            codes.setdefault(block_id, len(codes))
        parts.append((np.fromiter(map(codes.__getitem__, blocks), np.intp, len(blocks)),
                      start, end))
    return session_arrays(list(codes), *map(np.concatenate, zip(*parts)))


def write_payments(records: Sequence[PaymentRecord], path: str | os.PathLike) -> None:
    write_table(path, PAYMENT_COLUMNS,
                ([r.block_id, r.start.isoformat(), int(r.duration_s)] for r in
                 sorted(records, key=lambda r: (r.block_id, r.start, r.duration_s))))


def _survey_time(raw: str) -> datetime | None:
    raw = raw.strip()
    return _naive(raw) if raw else None


def read_surveys(path: str | os.PathLike) -> list[SurveyRecord]:
    def parse(chunk: Chunk) -> list[SurveyRecord]:
        times = chunk.parse("timestamp_iso8601", _survey_time)
        free = [n > 0 for n in chunk.parse("free_spots", _count)]
        return list(map(SurveyRecord, chunk.columns["meter_id"], chunk.columns["block_id"],
                        times, free))
    return [r for records in read_columns(path, SURVEY_COLUMNS, parse) for r in records]


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


def _hour_index(raw: str) -> int:
    """Hours from the epoch to a time on the hour."""
    hour = _naive(raw)
    if hour.minute or hour.second or hour.microsecond:
        raise ValueError(f"hour {raw!r} is not on the hour")
    return (hour - _EPOCH) // HOUR


def _expiry_hours(raw: str) -> list[int]:
    """Whole hours from a car's entry hour to the expiry of each paid duration."""
    blob = raw.strip()
    paid = [_real(x) for x in blob.split(";")] if blob else []
    if min(paid, default=0.0) < 0:
        raise ValueError("paid durations must not be negative")
    return [timedelta(seconds=s) // HOUR for s in paid]


def read_lot_events(path: str | os.PathLike) -> LotFlows:
    """Each lot's entries and naive departures in every hour of its span.

    Each car with a paid duration departs in the hour its paid time
    expires; a car without one is counted as an entry only. Rows for the
    same (lot, hour) add up. Each lot must have a row for every hour from
    its first to its last, whole weeks of them, and every lot the same
    number of weeks.
    """
    def parse(chunk: Chunk) -> Iterator[tuple[str, int, float, list[int]]]:
        hours = chunk.parse("hour_iso8601", _hour_index)
        entries = chunk.parse("entries", lambda raw: float(_count(raw)))
        expiries = chunk.parse("paid_durations_s", _expiry_hours)
        chunk.reject(np.array([len(e) > n for e, n in zip(expiries, entries)]), lambda row: (
            f"{len(expiries[row])} paid durations for {chunk.columns['entries'][row]} entries"))
        return zip(chunk.columns["lot_id"], hours, entries, expiries)

    by_lot: dict[str, list[tuple[int, float, list[int]]]] = {}
    for events in read_columns(path, LOT_EVENT_COLUMNS, parse):
        for lot_id, h, n, expiry in events:
            by_lot.setdefault(lot_id, []).append((h, n, [h + e for e in expiry]))
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


def _day(raw: str) -> int:
    day = int(raw)
    if not 0 <= day < DAYS_PER_WEEK:
        raise ValueError(f"day_of_week must be in 0..6, got {day}")
    return day


def _rate(raw: str) -> float:
    rate = _real(raw)
    if rate < 0:
        raise ValueError(f"rates must be non-negative, got {raw!r}")
    return rate


def read_rates_csv(path: str | os.PathLike) -> LotRates:
    """Each lot's rates; the file needs a row for every (day, hour) of a lot."""
    def parse(chunk: Chunk) -> dict[tuple[str, int, int], tuple[float, float]]:
        keys = zip(chunk.columns["lot_id"], chunk.parse("day_of_week", _day),
                   chunk.parse("hour", lambda raw: _check_hour(int(raw))))
        lams = zip(chunk.parse("lambda_a_per_hour", _rate),
                   chunk.parse("lambda_d_per_hour", _rate))
        fresh = {}
        for row, (key, lam) in enumerate(zip(keys, lams)):
            if key in rates or key in fresh:
                raise chunk.error(row, f"duplicate rate row for {key}")
            fresh[key] = lam
        return fresh

    rates: dict[tuple[str, int, int], tuple[float, float]] = {}
    for fresh in read_columns(path, RATE_COLUMNS, parse):
        rates.update(fresh)
    rows = Counter(lot_id for lot_id, _, _ in rates)
    partial_lots = sorted(lot_id for lot_id, n in rows.items() if n < WEEK_H)
    if partial_lots:
        raise DataError(f"{path} lacks (day of week, hour) rows of lots {partial_lots[:5]}")
    arrays = np.array([lams for _, lams in sorted(rates.items())])  # lot, day, hour order
    return dict(zip(sorted(rows), arrays.reshape(-1, DAYS_PER_WEEK, 24, 2)))


def write_rates_csv(rates: LotRates, path: str | os.PathLike) -> None:
    write_table(path, RATE_COLUMNS,
                ([lot_id, *divmod(slot, 24), *map(repr, lams)] for lot_id in sorted(rates)
                 for slot, lams in enumerate(rates[lot_id].reshape(WEEK_H, 2).tolist())))


def read_samples_csv(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray]:
    """The feature matrix and label vector of a samples file, in file order."""
    def parse(chunk: Chunk) -> tuple[np.ndarray, np.ndarray]:
        labels = np.array(chunk.parse("available", _label), dtype=np.int64)
        return np.stack([chunk.parse(name, _real, _reals) for name in FEATURE_NAMES],
                        axis=1), labels

    parts = [(np.empty((0, N_FEATURES)), np.empty(0, np.int64))]
    parts += read_columns(path, SAMPLE_COLUMNS, parse)
    return tuple(map(np.concatenate, zip(*parts)))


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
