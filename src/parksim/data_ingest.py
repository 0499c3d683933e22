"""Raw-data ingestion.

Covers three jobs: collapsing meter-level occupancy surveys into
block-level samples; reading lot entry records into dense hourly arrays,
``LotFlows``; and averaging those into hourly Poisson rates per day of
week, ``LotRates``, after smoothing the artificial departure spikes that
flat-rate boundaries create. Surveys are columns from file to
``samples.csv``: each check's block, its time in int64 microseconds from
the naive epoch (MISSING_TIME where the cell is blank or whitespace) and
whether a spot was free. A lot's arrays hold its entries and departures in
every hour of its span, the whole weeks of consecutive hours from its first
record. A car departs in the hour its paid time expires; one whose paid
time expires at or after its span's end departs outside the span, and is
counted, not binned.

Timestamps are naive local time throughout; CSV columns carry ISO 8601,
and a timestamp with a UTC offset is malformed.

Every CSV file is read by one column reader, ``read_columns``, in chunks
of CHUNK_ROWS rows, so a read never holds more than a chunk of text rows.
Each reader parses a chunk a column at a time, each column by one column
parser, which maps a sequence of cells to an array: numbers by
``_numbers`` (one dtype, finite, within a range) or one of its partials,
times by ``_naive_micros``. A column fails exactly when one of its cells
does. A chunk that fails is read again row by row, and the first faulty
row is named by file and line. Its rows are parsed twice, so a reader's
parse must change nothing outside its chunk. Time cells take exactly
``datetime.fromisoformat``'s formats (survey times once stripped). A
session ends ``timedelta(seconds=duration_s)`` after its start: the whole
seconds exactly, plus the fraction times 1e6 rounded half to even (not
``rint(duration_s * 1e6)``, 1 us less for 3.0000005 s), and no later than
``datetime.max``. Paid lot durations round the same way and must be
shorter than ``timedelta.max``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import statistics
import warnings
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import partial
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import ConfigError, DataError, check_fields
from .occupancy_model import (_EPOCH, FEATURE_NAMES, HOUR_US, N_FEATURES, Samples,
                              SessionIndex, micros, session_arrays)
from .offstreet_sim import DAYS_PER_WEEK, MAX_RATE, LotRates, LotSpec
from .road_graph import _atomic_write, _field, _read_index, _write_index

WEEK_H = 7 * 24
SURVEY_WINDOW_US = HOUR_US // 2
# The check time of a survey row whose time cell is blank.
MISSING_TIME = np.iinfo(np.int64).min


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
        var = 2.0 * self.sigma_h * self.sigma_h  # the weights' denominator, as computed
        if not (var and math.exp(-1 / var)):  # the largest weight
            raise DataError(f"sigma_h {self.sigma_h!r} gives every Gaussian weight 0")
        if not all(0 <= h <= 23 for h in self.peak_hours):
            raise DataError("peak_hours must be hours of day")


# -- surveys -------------------------------------------------------------------

def combine_surveys(block_ids: Sequence[str], times: np.ndarray,
                    free: np.ndarray) -> tuple[Samples, int]:
    """One availability sample per (block, half-hour window) of meter
    checks, sorted by block id, then window; and the number of checks at
    MISSING_TIME, which are unusable and only counted. A block is available
    in a window if any surveyed meter had a free spot; the sample time is
    the window midpoint. The epoch is a midnight, so windows start on the
    hour and half hour."""
    times = np.asarray(times, dtype=np.int64)
    usable = times != MISSING_TIME
    names, block = np.unique(np.asarray(block_ids, dtype=object)[usable], return_inverse=True)
    window = times[usable] // SURVEY_WINDOW_US
    order = np.lexsort((window, block))
    block, window = block[order], window[order]
    # the first check of each (block, window) group; block ids count from 0
    first = np.flatnonzero((np.diff(block, prepend=-1) != 0) | (np.diff(window, prepend=0) != 0))
    labels = np.maximum.reduceat(np.asarray(free, dtype=bool)[usable][order], first)
    midpoints = window[first] * SURVEY_WINDOW_US + SURVEY_WINDOW_US // 2
    return (Samples(names[block[first]], midpoints, labels.astype(np.int64)),
            int(np.count_nonzero(~usable)))


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
    peaks = [i for i in range(len(values)) if (first_hour + i) % 24 in cfg.peak_hours]
    if not peaks:
        return values
    if peaks[0] < cfg.span_h:  # checked before a weight is built
        raise DataError(f"series too short: need {cfg.span_h} hours before "
                        f"the peak at hour {peaks[0]} of the span")
    raw = [math.exp(-(d * d) / (2.0 * cfg.sigma_h * cfg.sigma_h))
           for d in range(1, cfg.span_h + 1)]
    weights = (np.array(raw) / sum(raw))[::-1]  # of the hours span_h, ..., 1 before a peak
    for i in peaks:
        neighborhood = values[max(0, i - 3):i].tolist() + values[i + 1:i + 4].tolist()
        excess = max(0.0, values[i] - statistics.median(neighborhood))
        values[i] -= excess
        values[i - cfg.span_h:i] += excess * weights
    return values


def estimate_rates(flows: LotFlows, smoothing: SmoothingConfig) -> LotRates:
    """Average hourly flows into each lot's (day of week, hour) Poisson rates.

    Departures are smoothed first. Every slot is then the mean of the
    ``flows.weeks`` hours that fall on it, added in time order, at most MAX_RATE.
    """
    rates = {}
    for lot_id, start, entries, departures in zip(
            flows.lot_ids, flows.starts, flows.entries, flows.departures):
        slot = (start.weekday() * 24 + start.hour + np.arange(entries.size)) % WEEK_H
        departures = smooth_departures(departures, start.hour, smoothing)
        lams = np.stack([np.bincount(slot, weights=x, minlength=WEEK_H) / flows.weeks
                         for x in (entries, departures)], axis=-1)
        if not (lams <= MAX_RATE).all():  # NaN or inf too, where counts overflow
            raise DataError(f"lot {lot_id!r} has a rate above {MAX_RATE:g} cars per hour")
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
# What a column parser raises for a cell it rejects.
_CELL_ERRORS = (DataError, ValueError, OverflowError)
# The largest float: a number within +-_FLOAT_MAX is finite.
_FLOAT_MAX = float(np.finfo(np.float64).max)
_MAX_US = micros(datetime.max)
# Longer than the whole datetime range, and short enough for int64 microseconds.
_LONGEST_S = 1e12
# The layout of the session index file; an index of another version is not used.
SESSION_INDEX_VERSION = 3
# Paid durations must be shorter: as a float this is 1e9 days, past timedelta.max.
_TIMEDELTA_MAX_S = timedelta.max.total_seconds()
T = TypeVar("T")


def write_table(path: str | os.PathLike, columns: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Write ``columns`` as the header, then ``rows``, as one CSV file."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


@dataclass(frozen=True)
class Chunk:
    """Consecutive data rows of a CSV file, as one tuple of cells per column."""

    columns: dict[str, tuple[str, ...]]

    def parse(self, name: str, parse: Callable[[Sequence[str]], T]) -> T:
        """Column ``name`` parsed by the column parser ``parse``."""
        return parse(self.columns[name])

    def reject(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        """Raise ``message(row)`` as a DataError for the first row where
        ``bad`` holds, if any does."""
        if bad.any():
            raise DataError(message(int(np.argmax(bad))))


def read_columns(path: str | os.PathLike, columns: Sequence[str],
                 parse: Callable[[Chunk], T]) -> Iterator[T]:
    """Yield ``parse(chunk)`` for the data rows of a CSV file in chunks of up
    to CHUNK_ROWS rows, each read when the one before it has been parsed.

    The header must be exactly ``columns`` and every row must hold one field
    per column; blank rows are skipped. An unreadable file, a wrong header
    and malformed CSV raise a DataError that names the file and the line.
    A chunk with a row of the wrong field count, or whose ``parse`` raises
    one of _CELL_ERRORS, is read again row by row: each row is parsed as a
    chunk of its own and its result yielded before the next row is parsed,
    and the first row that fails raises a DataError naming the file and its
    line. So ``parse`` may read, but must not change, anything outside its
    chunk; a consumer that records each result as it comes finds a repeat
    within a failed chunk at the repeated row.
    """
    def parse_rows(rows: list[list[str]]) -> T:
        if set(map(len, rows)) != {len(columns)}:
            raise DataError(f"expected {len(columns)} fields")
        return parse(Chunk(dict(zip(columns, zip(*rows)))))

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
                if not (rows := list(filter(None, text))):
                    continue
                try:
                    parsed = parse_rows(rows)
                except _CELL_ERRORS:
                    for i, row in enumerate(rows):
                        try:
                            parsed = parse_rows([row])
                        except _CELL_ERRORS as exc:
                            raise DataError(f"{path}, line {_line_of(path, done + i)}: "
                                            f"{exc}") from exc
                        yield parsed
                else:
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


def _numbers(cells: Sequence, kind: type = float, lo: float = -_FLOAT_MAX,
             hi: float = _FLOAT_MAX, what: str = "a finite number") -> np.ndarray:
    """Every cell parsed by ``kind``, ``int`` or ``float``, as one int64 or
    float64 array; each value must lie in [lo, hi], which NaN never does."""
    try:
        values = np.fromiter(map(kind, cells), np.int64 if kind is int else np.float64, len(cells))
    except OverflowError:  # an integer beyond int64
        raw = next(raw for raw in cells if not -2**63 <= kind(raw) < 2**63)
        raise ValueError(f"expected {what}, got {raw!r}") from None
    bad = ~((values >= lo) & (values <= hi))
    if bad.any():
        raise ValueError(f"expected {what}, got {cells[int(np.argmax(bad))]!r}")
    return values


# math.ulp(0.0) is the least positive float.
_positive_reals = partial(_numbers, lo=math.ulp(0.0), what="a finite positive number")
_counts = partial(_numbers, kind=int, lo=0, what="a count")
_labels = partial(_numbers, kind=int, lo=0, hi=1, what="available to be 0 or 1")
_days = partial(_numbers, kind=int, lo=0, hi=DAYS_PER_WEEK - 1, what="day_of_week in 0..6")
_hours = partial(_numbers, kind=int, lo=0, hi=23, what="an hour in 0..23")
_rates = partial(_numbers, lo=0, hi=MAX_RATE, what=f"a rate in [0, {MAX_RATE:g}] per hour")


def _naive_micros(cells: Sequence[str]) -> np.ndarray:
    """Every cell's ``datetime.fromisoformat`` time, which must have no UTC
    offset, in int64 microseconds from the naive epoch. Only fromisoformat
    accepts exactly its own formats, and numpy's parse of the cells is the
    fastest way to the microseconds: it is taken when it yields the same
    times without a warning (it reads some suffixes as time zones), and
    ``micros`` of each time otherwise. On the 40,030 session starts of the
    city10-3h benchmark city (2-vCPU host, Python 3.11, numpy 2.4, min of
    7) the two parses took 18 ms, fromisoformat and ``micros`` 34 ms, and
    fromisoformat and ``np.array`` of the datetimes 107 ms or more."""
    times = list(map(datetime.fromisoformat, cells))
    if any(map(attrgetter("tzinfo"), times)):
        raw = next(raw for raw, t in zip(cells, times) if t.tzinfo)
        raise ValueError(f"expected a local time without a UTC offset, got {raw!r}")
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


def read_payments(path: str | os.PathLike) -> SessionIndex:
    """Every paid session of a payments file, indexed by block in order of
    first appearance by ``occupancy_model.session_arrays``. A session lasts
    ``timedelta(seconds=duration_s)`` (see ``_micros_of_seconds``) and must
    end by ``datetime.max``. Only ingest reads the file; later stages read
    the session index it writes."""
    def parse(chunk: Chunk) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        start = chunk.parse("start_iso8601", _naive_micros)
        seconds = chunk.parse("duration_s", _positive_reals)
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


def file_sha256(path: str | os.PathLike) -> str:
    """The sha256 of a file's bytes, read 1 MiB at a time."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while block := fh.read(1 << 20):
                digest.update(block)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


def write_session_index(sessions: SessionIndex, key: str, path: str | os.PathLike) -> None:
    """Write ``sessions`` by ``_write_index``: ``block_ids``, the int64
    ``bounds``, ``starts`` and ``ends``, and two 0-d arrays: ``key``, the
    sha256 of the payment bytes the sessions were parsed from, as
    ``payments_sha256``, and SESSION_INDEX_VERSION as ``format_version``."""
    _write_index(path, {"format_version": np.array(SESSION_INDEX_VERSION, np.int64),
                        "payments_sha256": np.array(key),
                        "block_ids": list(sessions.block_ids), "bounds": sessions.bounds,
                        "starts": sessions.starts, "ends": sessions.ends})


def read_session_index(path: str | os.PathLike, key: str) -> SessionIndex:
    """The sessions of the index at ``path``, which must have been written
    in this format from the payments whose sha256 is ``key``; an index of
    another format or of other payments is a ConfigError (run ingest first).

    An index that cannot be read, or whose key matches but whose arrays do
    not form a ``SessionIndex`` (a wrong dtype or shape, bounds that do not
    delimit the sessions, a repeated block, times unsorted within a block),
    is a DataError. Nothing in it is unpickled.
    """
    with _read_index(path, "session index") as member:
        version = int(member("format_version", 0, np.int64))
        if version != SESSION_INDEX_VERSION:
            raise ConfigError(f"session index {path} has format version {version}, not "
                              f"{SESSION_INDEX_VERSION} (run ingest first)")
        if str(member("payments_sha256", 0)) != key:
            raise ConfigError(f"session index {path} was made from other payments "
                              "(run ingest first)")
        block_ids = member("block_ids", 1, np.uint8)
        bounds, starts, ends = (member(name, 1, np.int64) for name in ("bounds", "starts", "ends"))
    if not isinstance(block_ids, list) or not all(isinstance(b, str) for b in block_ids):
        raise DataError(f"malformed session index {path}: block ids are not strings")
    for fault, what in (
            (len(bounds) != len(block_ids) + 1 or bounds[0] != 0 or (np.diff(bounds) < 0).any()
             or not bounds[-1] == len(starts) == len(ends),
             "bounds do not delimit the sessions of each block"),
            (len(set(block_ids)) < len(block_ids), "a block id is repeated"),
            (not _sorted_within(starts, bounds), "starts are unsorted within a block"),
            (not _sorted_within(ends, bounds), "ends are unsorted within a block")):
        if fault:
            raise DataError(f"malformed session index {path}: {what}")
    return SessionIndex(tuple(block_ids), bounds, starts, ends)


def _sorted_within(times: np.ndarray, bounds: np.ndarray) -> bool:
    """Whether ``times`` only decrease where a block's rows begin."""
    return bool(np.isin(np.flatnonzero(np.diff(times) < 0) + 1, bounds).all())


def write_payments(payments: Mapping[str, tuple[np.ndarray, np.ndarray]],
                   path: str | os.PathLike) -> None:
    """One row per session, by block id, then start, then duration: each
    block's session starts, in whole seconds from the epoch, and paid whole
    seconds, as two int64 arrays."""
    rows: list[tuple[str, str, int]] = []
    for block_id in sorted(payments):
        start_s, paid_s = payments[block_id]
        order = np.lexsort((paid_s, start_s))
        starts = np.datetime_as_string(start_s[order].astype("datetime64[s]"), unit="s")
        rows += zip([block_id] * order.size, starts.tolist(), paid_s[order].tolist())
    write_table(path, PAYMENT_COLUMNS, rows)


def _survey_micros(cells: Sequence[str]) -> np.ndarray:
    """``_naive_micros`` of every cell once stripped; MISSING_TIME where it
    is blank."""
    cells = [raw.strip() for raw in cells]
    times = np.full(len(cells), MISSING_TIME)
    times[[bool(raw) for raw in cells]] = _naive_micros(list(filter(None, cells)))
    return times


def read_surveys(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every check's block id, time (int64 microseconds, MISSING_TIME where
    the cell is blank) and whether a spot was free, in file order."""
    def parse(chunk: Chunk) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        times = chunk.parse("timestamp_iso8601", _survey_micros)
        free = chunk.parse("free_spots", _counts) > 0
        return np.array(chunk.columns["block_id"], dtype=object), times, free

    parts = [(np.empty(0, object), np.empty(0, np.int64), np.empty(0, bool))]
    parts += read_columns(path, SURVEY_COLUMNS, parse)
    return tuple(map(np.concatenate, zip(*parts)))


def read_lots(path: str | os.PathLike) -> list[LotSpec]:
    """Lots from a JSON list of {id, node, capacity}: each id once, ids and
    nodes JSON strings, each capacity a JSON integer in 1..MAX_CAPACITY."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read lots file {path}: {exc}") from exc
    try:
        ids = _field(raw, "id", str, "lot id")
        lots = list(map(LotSpec, ids, _field(raw, "node", str, "lot node"),
                        _field(raw, "capacity", int, "lot capacity")))
        if len(set(ids)) < len(ids):
            raise ValueError(f"repeated lot ids {sorted({i for i in ids if ids.count(i) > 1})}")
    except (DataError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed lots file {path}: {exc}") from exc
    return lots


def write_lots(lots: Sequence[LotSpec], path: str | os.PathLike) -> None:
    payload = [{"id": l.id, "node": l.node, "capacity": l.capacity}
               for l in sorted(lots, key=lambda l: l.id)]
    _atomic_write(path, json.dumps(payload, sort_keys=True))


def _paid(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """How many ';'-separated paid durations each cell holds, and all of them
    in one array: finite, non-negative seconds shorter than _TIMEDELTA_MAX_S."""
    split = [blob.split(";") if (blob := raw.strip()) else [] for raw in cells]
    tokens = [x for durations in split for x in durations]
    seconds = _numbers(tokens, lo=0, hi=math.nextafter(_TIMEDELTA_MAX_S, 0),
                       what=f"a paid duration in [0, {_TIMEDELTA_MAX_S:g}) s")
    return np.fromiter(map(len, split), np.intp, len(split)), seconds


def read_lot_events(path: str | os.PathLike) -> LotFlows:
    """Each lot's entries and naive departures in every hour of its span.

    Each car with a paid duration departs in the hour its paid time
    expires; a car without one is counted as an entry only. Rows for the
    same (lot, hour) add up. Each lot must have a row for every hour from
    its first to its last, whole weeks of them, and every lot the same
    number of weeks.
    """
    def parse(chunk: Chunk) -> tuple[np.ndarray, ...]:
        hours, off = np.divmod(chunk.parse("hour_iso8601", _naive_micros), HOUR_US)
        chunk.reject(off != 0, lambda row: (
            f"hour {chunk.columns['hour_iso8601'][row]!r} is not on the hour"))
        entries = chunk.parse("entries", _counts).astype(np.float64)
        n_paid, seconds = chunk.parse("paid_durations_s", _paid)
        chunk.reject(n_paid > entries, lambda row: (
            f"{n_paid[row]} paid durations for {chunk.columns['entries'][row]} entries"))
        # whole hours from each car's entry hour to the expiry of its paid time
        expiry = np.repeat(hours, n_paid) + _micros_of_seconds(
            np.minimum(seconds, _LONGEST_S)) // HOUR_US
        return (np.array(chunk.columns["lot_id"], dtype=object), hours, entries, n_paid, expiry)

    parts = list(read_columns(path, LOT_EVENT_COLUMNS, parse))
    if not parts:
        raise DataError(f"no lot event records in {path}")
    lot_of_row, hours, entered, n_paid, expiries = map(np.concatenate, zip(*parts))
    names, lot = np.unique(lot_of_row, return_inverse=True)
    lot_ids = tuple(names.tolist())
    weeks, starts, entries, departures, outside = {}, [], [], [], 0
    for i, lot_id in enumerate(lot_ids):
        rows = lot == i
        seen = np.unique(hours[rows])
        gaps = seen[:-1][np.diff(seen) > 1] + 1  # the first missing hour of each gap
        if gaps.size:
            shown = [(_EPOCH + timedelta(hours=h)).isoformat() for h in gaps[:8].tolist()]
            raise DataError(f"{path}: lot {lot_id!r} hourly series incomplete; gaps at {shown}")
        if seen.size % WEEK_H:
            raise DataError(f"{path}: lot {lot_id!r} entry series does not span whole weeks")
        first, n = int(seen[0]), seen.size
        expiry = expiries[np.repeat(rows, n_paid)] - first
        weeks[lot_id] = n // WEEK_H
        starts.append(_EPOCH + timedelta(hours=first))
        entries.append(np.bincount(hours[rows] - first, weights=entered[rows], minlength=n))
        departures.append(np.bincount(expiry[expiry < n], minlength=n).astype(float))
        outside += int(np.count_nonzero(expiry >= n))
    if len(set(weeks.values())) > 1:
        raise DataError(f"{path}: lots cover different week counts: {weeks}")
    return LotFlows(lot_ids, tuple(starts), np.array(entries), np.array(departures),
                    outside)


def read_rates_csv(path: str | os.PathLike) -> LotRates:
    """Each lot's rates, in [0, MAX_RATE]; a lot needs a row for every (day, hour)."""
    def parse(chunk: Chunk) -> dict[tuple[str, int, int], tuple[float, float]]:
        keys = zip(chunk.columns["lot_id"], chunk.parse("day_of_week", _days).tolist(),
                   chunk.parse("hour", _hours).tolist())
        lams = zip(*(chunk.parse(name, _rates).tolist()
                     for name in ("lambda_a_per_hour", "lambda_d_per_hour")))
        fresh = {}
        for key, lam in zip(keys, lams):
            if key in rates or key in fresh:
                raise DataError(f"duplicate rate row for {key}")
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
        return (np.stack([chunk.parse(name, _numbers) for name in FEATURE_NAMES], axis=1),
                chunk.parse("available", _labels))

    parts = [(np.empty((0, N_FEATURES)), np.empty(0, np.int64))]
    parts += read_columns(path, SAMPLE_COLUMNS, parse)
    return tuple(map(np.concatenate, zip(*parts)))


def write_samples_csv(samples: Samples, features: np.ndarray, path: str | os.PathLike) -> None:
    """One row per sample, in order: its block, time to the second, label
    and features."""
    times = np.datetime_as_string(samples.times.astype("datetime64[us]"), unit="s")
    write_table(path, SAMPLE_COLUMNS,
                ([block_id, t, label, *map(repr, x)] for block_id, t, label, x in zip(
                    samples.block_ids, times.tolist(), samples.labels.tolist(),
                    features.tolist(), strict=True)))
