"""Survey combining, departure smoothing, rate estimation, synthetic city."""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
import os
import runpy
import subprocess
import sys
from collections import Counter
from datetime import date, datetime, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parksim import data_ingest
from parksim.data_ingest import (
    CHUNK_ROWS,
    LOT_EVENT_COLUMNS,
    MISSING_TIME,
    PAYMENT_COLUMNS,
    SURVEY_COLUMNS,
    LotFlows,
    SmoothingConfig,
    combine_surveys,
    estimate_rates,
    read_columns,
    read_lot_events,
    read_lots,
    read_payments,
    read_rates_csv,
    read_samples_csv,
    read_session_index,
    read_surveys,
    smooth_departures,
    write_rates_csv,
    write_samples_csv,
    write_session_index,
    write_table,
)
from parksim.data_ingest import _read_payments_csv, _read_payments_plain
from parksim.errors import DataError
from parksim.occupancy_model import SessionIndex, build_dataset, micros, session_arrays
from parksim.road_graph import load_graph
from parksim.synth import (_PAID_HOURS_CDF, BUNDLE_FILES, METERS_PER_BLOCK, SynthConfig,
                           _generate_sessions, _grid_faces, _hour_shape, _integer_source,
                           synth_generate)

from conftest import PaymentRecord, block_sessions, sessions_of
from oracles import left_gaussian_weights, lot_rates, sessions_v1, survey_samples

D = date(2026, 3, 2)  # a Monday
HOUR = timedelta(hours=1)


def dt(day_offset=0, hour=0, minute=0):
    return datetime(2026, 3, 2 + day_offset, hour, minute)


def write_lot_events(path, events):
    """Write (lot_id, hour, entries, paid_durations_s) rows as a lot events
    file, durations in ``repr``."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOT_EVENT_COLUMNS)
        for lot_id, hour, entries, paid in events:
            writer.writerow([lot_id, hour.isoformat(), entries, ";".join(map(repr, paid))])
    return path


def week_of(events, weeks=1, start=dt(0, 0), lot_id="lot1"):
    """``events`` after an empty row for each hour of ``weeks`` weeks from
    ``start``; rows for the same hour add up, so the events keep their
    counts and the file spans whole weeks."""
    empty = [(lot_id, start + h * HOUR, 0, ()) for h in range(weeks * 7 * 24)]
    return empty + list(events)


def departures_by_hour(flows, lot=0):
    return {flows.starts[lot] + i * HOUR: x
            for i, x in enumerate(flows.departures[lot].tolist()) if x}


def combine(checks):
    """``combine_surveys`` of (block_id, timestamp or None, free) checks."""
    blocks, times, free = zip(*checks)
    return combine_surveys(
        blocks, np.array([MISSING_TIME if t is None else micros(t) for t in times]), free)


class TestCombineSurveys:
    def test_any_free_meter_marks_block_available(self):
        samples, _ = combine([("b1", dt(0, 10, 5), False), ("b1", dt(0, 10, 10), False),
                              ("b1", dt(0, 10, 20), True)])
        assert samples.labels.tolist() == [1]
        assert samples.times.tolist() == [micros(dt(0, 10, 15))]  # window midpoint

    def test_missing_timestamps_discarded_and_counted(self):
        samples, discarded = combine([("b1", None, True), ("b1", dt(0, 9, 40), False)])
        assert discarded == 1
        assert samples.labels.tolist() == [0]

    def test_windows_split_on_half_hours(self):
        samples, _ = combine([("b1", dt(0, 10, 20), True), ("b1", dt(0, 10, 40), False)])
        assert samples.labels.tolist() == [1, 0]

    def test_one_sample_per_block_window(self):
        rng = np.random.default_rng(4)
        samples, _ = combine([(f"b{rng.integers(4)}",
                               dt(0, int(rng.integers(8, 18)), int(rng.integers(60))),
                               bool(rng.integers(2))) for _ in range(500)])
        keys = list(zip(samples.block_ids.tolist(), samples.times.tolist()))
        assert len(keys) == len(set(keys)) == samples.labels.size


EPOCH = datetime(1970, 1, 1)
# Check times on and next to window bounds, on dates before, at and after
# the epoch.
SURVEY_TIMES = st.builds(
    lambda day, hour, at: datetime.combine(day, datetime.min.time()).replace(hour=hour, **at),
    st.sampled_from([date(1, 1, 1), date(1969, 12, 31), date(1970, 1, 1), date(2026, 3, 2)]),
    st.integers(0, 23),
    st.one_of(st.sampled_from([{"minute": 29, "second": 59, "microsecond": 999_999},
                               {"minute": 30}, {"minute": 0},
                               {"minute": 59, "second": 59, "microsecond": 999_999}]),
              st.fixed_dictionaries({"minute": st.integers(0, 59),
                                     "second": st.integers(0, 59)})))
# A time cell: blank, spaces only, or a time, maybe padded with spaces.
TIME_CELLS = st.one_of(
    st.sampled_from(["", " ", "   "]),
    st.builds(lambda pad, t, sep: f"{pad}{t.isoformat(sep)}{pad[::-1]}",
              st.sampled_from(["", " ", " \t"]), SURVEY_TIMES, st.sampled_from("T ")))


@st.composite
def survey_files(draw):
    """Survey rows, (meter, block, time cell, free spots), shuffled: some
    windows repeated, and sometimes more than a chunk of them."""
    rows = draw(st.lists(st.tuples(st.sampled_from(["a", "b", "b2", "é"]), TIME_CELLS,
                                   st.integers(0, 2)), min_size=1, max_size=30))
    copies = CHUNK_ROWS // len(rows) + 1 if draw(st.booleans()) else 1
    rows = [(f"m{i}", block, cell, spots) for i, (block, cell, spots) in enumerate(rows * copies)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [rows[i] for i in rng.permutation(len(rows))]


@settings(max_examples=60)
@given(rows=survey_files())
def test_read_and_combined_surveys_equal_the_grouping_oracle(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "property_surveys.csv"
    write_table(path, SURVEY_COLUMNS, rows)
    samples, discarded = combine_surveys(*read_surveys(path))
    expected, expected_discarded = survey_samples(
        (block, datetime.fromisoformat(cell.strip()) if cell.strip() else None, spots > 0)
        for _, block, cell, spots in rows)
    assert discarded == expected_discarded
    assert samples.block_ids.tolist() == [block for block, _, _ in expected]
    assert samples.times.tolist() == [(t - EPOCH) // timedelta(microseconds=1)
                                      for _, t, _ in expected]
    assert samples.labels.tolist() == [available for _, _, available in expected]


class TestDeriveDepartures:
    def test_expiry_hour(self, tmp_path):
        events = [("lot1", dt(0, 9), 1, (7200.0,))]
        flows = read_lot_events(write_lot_events(tmp_path / "e.csv", week_of(events)))
        assert departures_by_hour(flows) == {dt(0, 11): 1.0}

    def test_empty_input(self, tmp_path):
        flows = read_lot_events(write_lot_events(tmp_path / "e.csv", week_of([])))
        assert departures_by_hour(flows) == {}
        assert flows.departures_outside_span == 0

    def test_conservation(self, tmp_path):
        rng = np.random.default_rng(8)
        events = []
        total = 0
        for day in range(3):
            for h in range(24):
                n = int(rng.integers(0, 6))
                durations = tuple(float(rng.integers(1, 30) * 600) for _ in range(n))
                total += n
                events.append(("lot1", dt(day, h), n, durations))
        flows = read_lot_events(write_lot_events(tmp_path / "e.csv", week_of(events)))
        assert flows.departures.sum() == total

    def test_negative_duration_rejected(self, tmp_path):
        path = write_lot_events(tmp_path / "e.csv", [("lot1", dt(0, 9), 1, (-60.0,))])
        with pytest.raises(DataError, match="e.csv, line 2: "):
            read_lot_events(path)


class TestReadLotEvents:
    def test_departures_at_or_after_the_span_end_are_counted_outside(self, tmp_path):
        # the span ends at Monday 00:00 of the second week
        # 5e13 s is beyond the datetime range, and shorter than timedelta.max
        events = [("lot1", dt(6, 23), 5, (3599.0, 3600.0, 7200.0, 86400.0 * 30, 5e13))]
        flows = read_lot_events(write_lot_events(tmp_path / "e.csv", week_of(events)))
        assert departures_by_hour(flows) == {dt(6, 23): 1.0}
        assert flows.departures_outside_span == 4
        assert (flows.weeks, flows.starts) == (1, (dt(0, 0),))

    @pytest.mark.parametrize("seconds", [math.nextafter(86400e9, 0), 86400e9, 1e300])
    def test_durations_are_those_timedelta_holds(self, tmp_path, seconds):
        path = write_lot_events(tmp_path / "e.csv", week_of([("lot1", dt(0, 9), 1, (seconds,))]))
        try:
            timedelta(seconds=seconds)
        except OverflowError:
            with pytest.raises(DataError, match=f"e.csv, line {7 * 24 + 2}: "):
                read_lot_events(path)
        else:
            assert read_lot_events(path).departures_outside_span == 1

    def test_span_of_whole_weeks_required(self, tmp_path):
        path = write_lot_events(tmp_path / "e.csv", week_of([])[:-1])
        with pytest.raises(DataError, match="e.csv: lot 'lot1' .* whole weeks"):
            read_lot_events(path)

    def test_equal_week_counts_required(self, tmp_path):
        events = week_of([]) + week_of([], weeks=2, lot_id="lot2")
        path = write_lot_events(tmp_path / "e.csv", events)
        with pytest.raises(DataError, match="different week counts"):
            read_lot_events(path)


class TestSmoothDepartures:
    def flat_series(self, value=10.0, hours=24):
        return np.full(hours, value)

    def test_no_peak_unchanged(self):
        series = self.flat_series()
        out = smooth_departures(series, 0, SmoothingConfig())
        assert np.array_equal(out, series)

    def test_spike_redistributed_with_left_gaussian_weights(self):
        series = self.flat_series()
        series[18] = 110.0
        cfg = SmoothingConfig(peak_hours=(18,), sigma_h=3.5, span_h=12)
        out = smooth_departures(series, 0, cfg)
        weights = left_gaussian_weights(3.5, 12)
        assert out[18] == pytest.approx(10.0, abs=1e-12)
        for d, w in enumerate(weights, start=1):
            assert out[18 - d] == pytest.approx(10.0 + 100.0 * w, abs=1e-9)
        assert out.sum() == pytest.approx(series.sum(), abs=1e-6)

    def test_redistribution_decays_with_distance(self):
        series = self.flat_series()
        series[18] = 200.0
        out = smooth_departures(series, 0, SmoothingConfig())
        gains = [out[18 - d] - 10.0 for d in range(1, 13)]
        assert all(a > b for a, b in zip(gains, gains[1:]))
        assert all(g > 0 for g in gains)

    def test_series_too_short_rejected(self):
        series = self.flat_series(5.0, hours=10)  # from 10:00
        series[8] = 80.0  # 18:00
        with pytest.raises(DataError, match="too short"):
            smooth_departures(series, 10, SmoothingConfig())

    def test_random_series_conserve_totals_and_stay_nonnegative(self):
        rng = np.random.default_rng(123)
        cfg = SmoothingConfig(peak_hours=(18,))
        for _ in range(40):
            hours = int(rng.integers(48, 96))
            series = np.array([float(rng.uniform(0, 20)) for h in range(hours)])
            spike_day = int(rng.integers(0, hours // 24))
            series[spike_day * 24 + 18] += float(rng.uniform(50, 500))
            out = smooth_departures(series, 0, cfg)
            assert out.sum() == pytest.approx(series.sum(), abs=1e-6)
            assert out.min() >= 0.0


class TestEstimateRates:
    def constant_series(self, value, weeks=1):
        return np.full(weeks * 7 * 24, float(value))

    def flows(self, entries, departures):
        """One lot's flows over a span from Monday 00:00."""
        return LotFlows(("lot1",), (dt(0, 0),), np.array([entries]), np.array([departures]),
                        departures_outside_span=0)

    def test_constant_entries(self):
        flows = self.flows(self.constant_series(6.0), self.constant_series(5.0))
        rates = estimate_rates(flows, SmoothingConfig())
        assert list(rates) == ["lot1"] and rates["lot1"].shape == (7, 24, 2)
        assert (rates["lot1"] == (6.0, 5.0)).all()

    def test_two_week_mean(self):
        entries = self.constant_series(0.0, weeks=2)
        entries[9] = 4.0            # Monday 09:00, week one
        entries[7 * 24 + 9] = 8.0   # Monday 09:00, week two
        rates = estimate_rates(self.flows(entries, self.constant_series(0.0, weeks=2)),
                               SmoothingConfig())
        assert rates["lot1"][0, 9, 0] == 6.0

    def test_conservation_of_totals(self):
        rng = np.random.default_rng(2)
        entries = np.array([float(rng.integers(0, 12)) for _ in range(2 * 7 * 24)])
        rates = estimate_rates(self.flows(entries, self.constant_series(1.0, weeks=2)),
                               SmoothingConfig())
        slot_total = sum(rates["lot1"][:, :, 0].ravel().tolist()) * 2
        assert slot_total == pytest.approx(entries.sum(), abs=1e-9)

    def test_entries_beyond_the_largest_float_are_a_data_error(self):
        entries = self.constant_series(0.0, weeks=2)
        entries[9] = entries[7 * 24 + 9] = 1e308  # Monday 09:00 sums to inf
        with pytest.raises(DataError, match="lot1"):
            estimate_rates(self.flows(entries, self.constant_series(0.0, weeks=2)),
                           SmoothingConfig())

    def test_missing_slots_listed(self, tmp_path):
        events = [e for e in week_of([]) if e[1] != dt(2, 13)]
        path = write_lot_events(tmp_path / "e.csv", events)
        with pytest.raises(DataError, match=r"gaps at \['2026-03-04T13:00:00'\]"):
            read_lot_events(path)


# Durations whose expiry hour needs care: a half second, a microsecond
# rounding up to the next hour, and no paid time at all.
FRACTIONAL_S = (1800.5, 3599.9999996, 5400.25, 0.0)


@st.composite
def lot_event_files(draw):
    """A smoothing config and shuffled lot event rows over whole weeks, with
    flat-rate spikes at a peak hour, fractional durations, cars that stay
    past the span, and (lot, hour) rows split in two."""
    cfg = SmoothingConfig(
        peak_hours=tuple(sorted(draw(st.sets(st.integers(0, 23), min_size=1, max_size=2)))),
        sigma_h=draw(st.floats(0.5, 6.0)), span_h=draw(st.integers(1, 12)))
    weeks = draw(st.integers(1, 3))
    start = dt(0, 0) + draw(st.integers(0, 7 * 24 - 1)) * HOUR
    n_lots = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for lot in range(n_lots):
        for h in range(weeks * 7 * 24):
            t = start + h * HOUR
            n = int(rng.poisson(3.0))
            paid = []
            later_peaks = [p for p in cfg.peak_hours if p > t.hour]
            for _ in range(int(rng.binomial(n, 0.9))):
                u = rng.random()
                if u < 0.3 and later_peaks:  # paid up to a flat-rate boundary
                    paid.append((later_peaks[0] - t.hour) * 3600.0)
                elif u < 0.5:
                    paid.append(FRACTIONAL_S[int(rng.integers(len(FRACTIONAL_S)))])
                elif u < 0.55:
                    paid.append(2 * 86400.0)
                else:
                    paid.append(float(rng.integers(1, 5)) * 3600.0)
            if n and rng.random() < 0.1:
                k = int(rng.integers(0, n + 1))
                rows.append((f"lot{lot + 1}", t, k, tuple(paid[:k])))
                rows.append((f"lot{lot + 1}", t, n - k, tuple(paid[k:])))
            else:
                rows.append((f"lot{lot + 1}", t, n, tuple(paid)))
    return cfg, [rows[i] for i in rng.permutation(len(rows))]


@settings(max_examples=50)
@given(case=lot_event_files())
def test_estimate_rates_equals_the_scanning_oracle(tmp_path_factory, case):
    cfg, events = case
    path = write_lot_events(tmp_path_factory.getbasetemp() / "property_lot_events.csv", events)
    flows = read_lot_events(path)
    try:
        expected, outside = lot_rates(events, cfg.peak_hours, cfg.sigma_h, cfg.span_h)
    except DataError:
        with pytest.raises(DataError, match="too short"):
            estimate_rates(flows, cfg)
        return
    assert flows.departures_outside_span == outside
    rates = estimate_rates(flows, cfg)
    assert {(lot_id, day, hour): tuple(map(float.hex, lams))
            for lot_id, array in rates.items()
            for day, hours in enumerate(array.tolist())
            for hour, lams in enumerate(hours)} == \
        {k: tuple(map(float.hex, v)) for k, v in expected.items()}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """The directory of a 4x4 city's bundle."""
    out = tmp_path_factory.mktemp("city")
    synth_generate(SynthConfig(grid_n=4, days=7, demand_scale=0.9), seed=505, out_dir=out)
    return out


def payment_records(path):
    """The rows of a payments file, as records."""
    with open(path, newline="") as fh:
        return [PaymentRecord(row["block_id"], datetime.fromisoformat(row["start_iso8601"]),
                              float(row["duration_s"])) for row in csv.DictReader(fh)]


def ground_truth(out):
    return json.loads((out / "ground_truth.json").read_text())


# sha256 of each file of a city's bundle, by the numpy version that made it:
# numpy does not promise the same Generator streams across versions (NEP 19).
# "grid-3" is the grid-3, 7-day city at seed 77. "busy" adds two lots and
# demand_scale 3, so that its central faces draw their arrivals by numpy's
# Poisson rejection branch (rates of 10 and more) and its lot cars draw
# paid hours.
STREAM_V1_CITIES = {
    "grid-3": SynthConfig(grid_n=3, days=7),
    "busy": SynthConfig(grid_n=3, days=7, demand_scale=3.0, lot_nodes=("n0_0", "n2_2")),
}
STREAM_V1_SHA256 = {"2.4": {"grid-3": {
    "graph.json": "893119c92acca9ee5ac351aec644f571d0db2995ee9366407208dad909883130",
    "payments.csv": "31150953311bae141fed1ae1185660ee98fe51d91c1d25402fded171da338456",
    "surveys.csv": "d2b021f86b8564e48e0bb06f569291bb87a95a692db1f7afd98fd604a24fe75c",
    "lots.json": "711424c3e63a41acec089bbcae691834cd761806e6e656c9f9c1d6f519aabf4e",
    "lot_events.csv": "8762605e5bfbb10b0c575815e8c9e6e8f826515eba8c3d74d2f69a670995dd84",
    "ground_truth.json": "46cabc30f3ec9bfe7ab763436c78d7207574d9f2f3eb753637a43b95a4003802",
}, "busy": {
    "graph.json": "893119c92acca9ee5ac351aec644f571d0db2995ee9366407208dad909883130",
    "payments.csv": "5ae4fff8e11a921b26483551dfa6b9086897fa4bdfb67274097591ad343c4892",
    "surveys.csv": "9a39d1e2cabf4ee93cbca59df0d552a72f7abffd8d80050de40ebd29bd3a85da",
    "lots.json": "04071ac30038c5fd0d7691953ff898e586fabb0cd3ec59c2ba70ab1b2e3a2bb8",
    "lot_events.csv": "4210d907bb3a4bd273712224a423fbf30d47c00e01aa44f77e8ec4f8e111250b",
    "ground_truth.json": "993b5154aa8cc89cbe8a16a9edcd133a34e94ac38b1c84b99794f59cf68df4f3",
}}}


def assert_stream_v1_pinned(out: Path, city: str):
    """The bundle in ``out`` has the pinned hashes of ``city`` at seed 77,
    or the test skips under a numpy that pinned none."""
    version = ".".join(np.__version__.split(".")[:2])
    if version not in STREAM_V1_SHA256:
        pytest.skip(f"stream hashes recorded under numpy {sorted(STREAM_V1_SHA256)}, "
                    f"not {version}")
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in BUNDLE_FILES} == STREAM_V1_SHA256[version][city]


class TestSynthGenerate:
    def test_bundle_files_load_through_public_readers(self, bundle):
        g = load_graph(bundle / "graph.json")
        assert len(g.node_ids) == 16
        assert len(g.block_ids) == 4 * 4 * 3  # grid edge count, both directions
        assert read_payments(bundle / "payments.csv").block_ids
        assert read_surveys(bundle / "surveys.csv")
        assert read_lots(bundle / "lots.json")
        assert read_lot_events(bundle / "lot_events.csv").lot_ids == ("lot1",)

    def test_ten_by_ten_grid_counts(self, tmp_path):
        cfg = SynthConfig(grid_n=10, days=7, demand_scale=0.05)
        synth_generate(cfg, seed=1, out_dir=tmp_path / "big")
        g = load_graph(tmp_path / "big" / "graph.json")
        assert len(g.node_ids) == 100
        assert len(g.block_ids) == 360

    def test_fixed_seed_byte_identical(self, tmp_path):
        cfg = STREAM_V1_CITIES["grid-3"]
        synth_generate(cfg, seed=77, out_dir=tmp_path / "a")
        synth_generate(cfg, seed=77, out_dir=tmp_path / "b")
        for name in BUNDLE_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), \
                name
        # synth stream version 1, pinned
        assert_stream_v1_pinned(tmp_path / "a", "grid-3")

    def test_busy_city_pinned(self, tmp_path):
        synth_generate(STREAM_V1_CITIES["busy"], seed=77, out_dir=tmp_path)
        assert_stream_v1_pinned(tmp_path, "busy")

    def test_bundle_independent_of_time_zone(self, tmp_path):
        # the default 14-day window crosses the 2026-03-08 DST switch
        import parksim
        script = ("import sys, time\n"
                  "from parksim.synth import SynthConfig, synth_generate\n"
                  "synth_generate(SynthConfig(grid_n=3), 1, sys.argv[1])\n"
                  "print(time.timezone)\n")
        src = str(Path(parksim.__file__).resolve().parents[1])
        offsets = []
        for tz in ("UTC", "America/Vancouver"):
            env = {**os.environ, "TZ": tz, "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-c", script, str(tmp_path / tz)],
                                  env=env, capture_output=True, text=True, check=True)
            offsets.append(done.stdout.strip())
        if offsets[0] == offsets[1]:
            pytest.skip("no time zone database for America/Vancouver")
        for name in BUNDLE_FILES:
            assert ((tmp_path / "UTC" / name).read_bytes()
                    == (tmp_path / "America/Vancouver" / name).read_bytes()), name

    def test_full_observation_is_superset_of_partial(self, tmp_path):
        for name, fraction in (("p", 0.6), ("f", 1.0)):
            synth_generate(SynthConfig(grid_n=3, days=7, observed_fraction=fraction),
                           seed=9, out_dir=tmp_path / name)
        partial = payment_records(tmp_path / "p" / "payments.csv")
        full = payment_records(tmp_path / "f" / "payments.csv")
        assert set(partial) <= set(full)
        assert len(full) > len(partial)

    def test_surveys_agree_with_recorded_ground_truth(self, bundle):
        truth = ground_truth(bundle)["survey_truth"]
        samples, _ = combine_surveys(*read_surveys(bundle / "surveys.csv"))
        assert samples.labels.size
        for block_id, t, available in zip(samples.block_ids, samples.times.tolist(),
                                          samples.labels.tolist()):
            window = EPOCH + timedelta(microseconds=t) - timedelta(minutes=15)
            assert truth[block_id][window.isoformat()] == available
        assert samples.labels.size == sum(len(v) for v in truth.values())

    def test_survey_missingness_visit_level(self, bundle):
        # a visit either keeps all its meter rows or loses all timestamps
        block_ids, times, _ = read_surveys(bundle / "surveys.csv")
        blank_runs = Counter(block_ids[times == MISSING_TIME].tolist())
        assert blank_runs
        assert all(count % METERS_PER_BLOCK == 0 for count in blank_runs.values())

    def test_center_busier_than_corner(self, bundle):
        hourly = ground_truth(bundle)["hourly_availability"]
        g = load_graph(bundle / "graph.json")
        mids = {}
        for eid, a, b in zip(g.block_ids, g.block_from, g.block_to):
            mids[eid] = ((g.lat[a] + g.lat[b]) / 2, (g.lon[a] + g.lon[b]) / 2)
        center = (sum(m[0] for m in mids.values()) / len(mids),
                  sum(m[1] for m in mids.values()) / len(mids))
        metered = [eid for eid, meters in zip(g.block_ids, g.meter_count) if meters > 0]
        ranked = sorted(metered, key=lambda eid: math.hypot(
            mids[eid][0] - center[0], (mids[eid][1] - center[1]) * 0.69))
        midday = lambda eid: np.mean(hourly[eid][11:16])
        central_avail = np.mean([midday(eid) for eid in ranked[:6]])
        corner_avail = np.mean([midday(eid) for eid in ranked[-6:]])
        assert central_avail < corner_avail

    def test_rates_pipeline_round_trip(self, bundle, tmp_path):
        flows = read_lot_events(bundle / "lot_events.csv")
        rates = estimate_rates(flows, SmoothingConfig(peak_hours=(18,)))
        path = tmp_path / "rates.csv"
        write_rates_csv(rates, path)
        again = read_rates_csv(path)
        assert {k: v.tolist() for k, v in again.items()} == \
            {k: v.tolist() for k, v in rates.items()}

    def test_samples_csv_round_trip(self, bundle, tmp_path):
        samples, _ = combine_surveys(*read_surveys(bundle / "surveys.csv"))
        g = load_graph(bundle / "graph.json")
        X, y = build_dataset(samples, read_payments(bundle / "payments.csv"), g)
        path = tmp_path / "samples.csv"
        write_samples_csv(samples, X, path)
        X2, y2 = read_samples_csv(path)
        assert np.array_equal(X2, X) and np.array_equal(y2, y)
        assert y.tolist() == samples.labels.tolist()


# spans of the integer draws checked against Generator.integers: 1 draws
# nothing, 2**31 + 1 rejects about half its words, 3 * 2**30 a quarter, and
# 2**32 is numpy's unbounded 32-bit path
INTEGER_SPANS = (1, 3, 7, 60, 3600, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32)


class TestStreamV1Exactness:
    """Synth stream version 1 draws what numpy's own calls draw, under any
    numpy: each side runs on its own default_rng of the same seed."""

    def test_sessions_equal_the_scalar_reference(self):
        cfg = SynthConfig(grid_n=5, days=7, demand_scale=3.0)
        rng, ref = np.random.default_rng(2024), np.random.default_rng(2024)
        _, faces, centrality = _grid_faces(cfg, rng)
        _grid_faces(cfg, ref)
        draw = _integer_source(rng)
        metered = [(face, c) for face, c in zip(faces, centrality) if face["meter_count"]]
        # the central faces draw by numpy's Poisson rejection branch
        assert max(face["meter_count"] * (0.25 + 1.15 * c) * (0.10 + 1.15 * _hour_shape(13))
                   * cfg.demand_scale for face, c in metered) >= 10
        total = 0
        for face, c in metered:
            got, want = _generate_sessions(face, c, cfg, rng, draw), sessions_v1(face, c, cfg, ref)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == np.int64 and a.tolist() == b.tolist(), face["id"]
            # synth_generate's observed draw between faces
            assert rng.random(got[0].size).tolist() == ref.random(want[0].size).tolist()
            total += got[0].size
        assert total > 10_000
        assert draw(0, 2 ** 32) == ref.integers(0, 2 ** 32)
        # the same raw outputs drawn; only ref's bit generator keeps a half
        assert rng.bit_generator.state["state"] == ref.bit_generator.state["state"]

    @pytest.mark.parametrize("seed", [0, 1, 77])
    def test_integers_equal_numpy_with_other_draws_between(self, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = _integer_source(rng)
        plan = np.random.default_rng(seed + 1000)
        for span, low, other in zip(plan.choice(INTEGER_SPANS, 4000).tolist(),
                                    plan.choice([0, 9, -7], 4000).tolist(),
                                    plan.integers(0, 4, 4000).tolist()):
            assert draw(low, low + span) == ref.integers(low, low + span), (span, low)
            if other == 1:
                assert rng.standard_normal() == ref.standard_normal()
            elif other == 2:
                assert rng.poisson(14.5) == ref.poisson(14.5)
            elif other == 3:
                assert rng.random() == ref.random()
        for span in INTEGER_SPANS:  # each span again, at either half of a raw output
            assert [draw(0, span) for _ in range(3)] == ref.integers(0, span, 3).tolist()
        assert draw(0, 2 ** 32) == ref.integers(0, 2 ** 32)
        # the same raw outputs drawn; only ref's bit generator keeps a half
        assert rng.bit_generator.state["state"] == ref.bit_generator.state["state"]

    def test_exp_of_a_normal_equals_lognormal(self):
        mean = math.log(3300.0)
        z = np.random.default_rng(5).standard_normal(300_000).tolist()
        want = np.random.default_rng(5).lognormal(mean, 0.55, 300_000).tolist()
        assert [math.exp(mean + 0.55 * v) for v in z] == want

    def test_paid_hours_search_equals_choice(self):
        u = np.random.default_rng(6).random(100_000).tolist()
        want = np.random.default_rng(6).choice(4, 100_000, p=[0.35, 0.30, 0.20, 0.15])
        assert [bisect.bisect_right(_PAID_HOURS_CDF, x) for x in u] == want.tolist()
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(2000):  # one-car calls, as choice was called per car
            assert (bisect.bisect_right(_PAID_HOURS_CDF, rng.random())
                    == ref.choice(4, p=[0.35, 0.30, 0.20, 0.15]))


def write_payment_rows(path, rows):
    """Write (block_id, start text, duration text) rows as a payments file."""
    write_table(path, PAYMENT_COLUMNS, rows)
    return path


def session_ends(path):
    """Each session's end in a one-block payments file, in microseconds."""
    return block_sessions(read_payments(path), "b")[1].tolist()


def test_session_index_keeps_nul_ended_block_ids(tmp_path):
    # numpy str arrays drop trailing NULs, which would make these one block
    block_ids = ["b\x00", "b", "\x00", "c\x00\x00"]
    sessions = session_arrays(block_ids, np.array([0, 1, 2, 3, 3]), np.arange(5) * 10,
                              np.arange(5) * 10 + 5)
    write_session_index(sessions, "k" * 64, tmp_path / "sessions.npz")
    back = read_session_index(tmp_path / "sessions.npz", "k" * 64)
    assert back.block_ids == tuple(block_ids)
    for name in ("bounds", "starts", "ends"):
        assert np.array_equal(getattr(back, name), getattr(sessions, name)), name


class TestReadPayments:
    def test_shuffled_rows_over_many_chunks_equal_the_record_oracle(self, bundle, tmp_path):
        records = payment_records(bundle / "payments.csv")
        np.random.default_rng(3).shuffle(records)
        assert len(records) > 2 * CHUNK_ROWS
        path = write_payment_rows(tmp_path / "p.csv", (
            [r.block_id, r.start.isoformat(), repr(r.duration_s)] for r in records))
        sessions, expected = read_payments(path), sessions_of(records)
        assert sessions.block_ids == expected.block_ids
        for block_id in expected.block_ids:
            starts, ends = block_sessions(expected, block_id)
            assert block_sessions(sessions, block_id)[0].tolist() == starts.tolist()
            assert block_sessions(sessions, block_id)[1].tolist() == ends.tolist()

    # The fraction's microseconds round half to even, as timedelta rounds
    # them: 3.0000005 s ends at 3,000,001 us, where rint(d * 1e6) gives
    # 3,000,000.
    @pytest.mark.parametrize("seconds", [1.5e-06, 2.5e-06, 5e-07, 1e-07, 1234.5678915,
                                         3.0000005, 0.1 + 0.2, 86399.9999995])
    def test_duration_ends_as_timedelta_rounds_it(self, tmp_path, seconds):
        start = datetime(2026, 3, 2, 9, 0, 0, 1)
        path = write_payment_rows(tmp_path / "p.csv", [["b", start.isoformat(), repr(seconds)]])
        assert session_ends(path) == [micros(start + timedelta(seconds=seconds))]

    @settings(max_examples=300)
    @given(st.lists(st.floats(1e-9, 1e11, allow_nan=False), min_size=1, max_size=20))
    def test_any_duration_ends_as_timedelta_rounds_it(self, tmp_path_factory, durations):
        start = datetime(2026, 3, 2, 9, 0, 0, 1)
        path = write_payment_rows(tmp_path_factory.getbasetemp() / "durations.csv",
                                  (["b", start.isoformat(), repr(d)] for d in durations))
        assert session_ends(path) == sorted(micros(start + timedelta(seconds=d))
                                            for d in durations)

    def test_session_may_end_at_the_last_datetime_and_not_after(self, tmp_path):
        start = datetime.max - timedelta(seconds=1)
        ok = write_payment_rows(tmp_path / "ok.csv", [["b", start.isoformat(), "1"]])
        assert session_ends(ok) == [micros(datetime.max)]
        late = write_payment_rows(tmp_path / "late.csv", [["b", start.isoformat(), "1"],
                                                          ["b", start.isoformat(), "1.000001"]])
        with pytest.raises(DataError, match="late.csv, line 3: "):
            read_payments(late)

    # Texts numpy's parse reads otherwise than datetime.fromisoformat (a
    # comma fraction it takes for a time zone, more than six fraction
    # digits, a leading sign or space) or not at all (basic format, week
    # dates, a lower-case t). Which of them fromisoformat accepts depends on
    # the Python version; read_payments accepts the same ones.
    @pytest.mark.parametrize("text", [
        "2026-03-02T09:00:00,5", "2026-03-02T09:00:00.1234567", "20260302T090000",
        "2026-W10-1T09:00", "2026-03-02t09:00", "2026-03-02 09:00:00", "2026-03-02",
        " 2026-03-02T09:00", "+2026-03-02T09:00", "2026-03-02T9:00", "NaT",
        "2026-03-02T09:00:00-00:00"])
    def test_start_formats_are_those_of_fromisoformat(self, tmp_path, text):
        rows = [["b", "2026-03-02T08:00:00", "60"]] * (CHUNK_ROWS - 1) + [["b", text, "60"]]
        path = write_payment_rows(tmp_path / "p.csv", rows)
        try:
            start = datetime.fromisoformat(text)
        except ValueError:
            start = None
        if start is None or start.tzinfo is not None:
            with pytest.raises(DataError, match=f"p.csv, line {CHUNK_ROWS + 1}: "):
                read_payments(path)
        else:
            assert block_sessions(read_payments(path), "b")[0].tolist() == sorted(
                [micros(datetime(2026, 3, 2, 8))] * (CHUNK_ROWS - 1) + [micros(start)])


# A start one second before the last datetime, and a good payment row.
LAST_START = (datetime.max - timedelta(seconds=1)).isoformat()
GOOD = ["b", "2026-03-02T08:00:00", "60"]


class TestFirstFaultyRow:
    """A chunk is checked a column at a time; the earliest faulty row is
    named all the same, whatever check finds it."""

    @pytest.mark.parametrize("rows,fault", [
        ([GOOD, ["b", "2026-03-02T08:00:00", "x"], GOOD, ["b", "nope", "60"]], "'x'"),
        ([GOOD, ["b", LAST_START, "2"], GOOD, ["b", "nope", "60"]], "a session of 2 s"),
        ([GOOD, ["b", "2026-03-02T08:00:00", "x"], GOOD, ["b", "2026-03-02T08:00:00"]],
         "'x'"),
        ([GOOD, ["b", "nope", "x"], GOOD, ["b", "nope", "60"]], "'nope'"),
    ], ids=["bad_duration_before_bad_start", "late_end_before_bad_start",
            "bad_duration_before_short_row", "two_bad_cells_in_one_row"])
    def test_payments(self, tmp_path, rows, fault):
        path = write_payment_rows(tmp_path / "p.csv", rows)
        with pytest.raises(DataError, match=f"p.csv, line 3: .*{fault}"):
            read_payments(path)

    def test_faults_far_apart_in_a_later_chunk(self, tmp_path):
        rows = [GOOD] * (CHUNK_ROWS + 5)
        rows[CHUNK_ROWS + 3] = ["b", "nope", "60"]
        rows[CHUNK_ROWS + 1] = ["b", "2026-03-02T08:00:00", "-1"]
        path = write_payment_rows(tmp_path / "p.csv", rows)
        with pytest.raises(DataError, match=f"p.csv, line {CHUNK_ROWS + 3}: "):
            read_payments(path)

    def test_rate_duplicate_before_bad_cell(self, tmp_path):
        path = tmp_path / "rates.csv"
        write_rates_csv({"lot1": np.ones((7, 24, 2))}, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[2]
        lines[6] = lines[6].rsplit(",", 1)[0] + ",-1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="rates.csv, line 4: duplicate rate row"):
            read_rates_csv(path)

    def test_rate_duplicate_in_a_later_chunk(self, tmp_path):
        # seven lots' rows fill more than one chunk; data row 1100 repeats row 0
        path = tmp_path / "rates.csv"
        write_rates_csv({f"lot{i}": np.ones((7, 24, 2)) for i in range(7)}, path)
        lines = path.read_text().splitlines()
        assert len(lines) > CHUNK_ROWS + 1
        lines[1101] = lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="rates.csv, line 1102: duplicate rate row "
                                            r"for \('lot0', 0, 0\)"):
            read_rates_csv(path)


@pytest.fixture(params=[1, 2])
def small_chunks(request, monkeypatch):
    """Chunks of one or two rows, so that every fault lies at or next to a
    chunk boundary."""
    monkeypatch.setattr(data_ingest, "CHUNK_ROWS", request.param)


@pytest.mark.usefixtures("small_chunks")
class TestFirstFaultyRowInSmallChunks(TestFirstFaultyRow):
    """Each fault is named at the line named with the default chunk size."""


class TestTable:
    COLUMNS = ("name", "count")

    def read(self, path):
        """The (name, count) rows of a file, read a column at a time."""
        return [row for rows in read_columns(path, self.COLUMNS, lambda cells: list(
                    zip(cells["name"], [*map(int, cells["count"])])))
                for row in rows]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, self.COLUMNS, [["a", 1], ["b,c", 2]])
        assert self.read(path) == [("a", 1), ("b,c", 2)]

    def test_rows_span_chunks_in_file_order(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[f"r{i}", i] for i in range(2 * CHUNK_ROWS + 3)]
        write_table(path, self.COLUMNS, rows)
        assert self.read(path) == [tuple(row) for row in rows]

    @pytest.mark.parametrize("text,line", [
        ("name,counts\na,1\n", 1),
        ("", 0),
        ("name,count\na,1\nb\n", 3),
        ("name,count\na,1,2\n", 2),
        ("name,count\na,x\n", 2),
        ('name,count\n"a,1\n', 2),
        ("name,count\n" + "a,1\n" * (CHUNK_ROWS + 4) + "a,x\n", CHUNK_ROWS + 6),
        ('name,count\n"a\nb",1\nc,x\n', 4),
        ("name,count\na,1\n\nb,x\n", 4),
        ("name,count\na,x\nb\n", 2),
    ], ids=["header", "empty", "short_row", "long_row", "bad_cell", "open_quote",
            "bad_cell_in_second_chunk", "bad_cell_after_quoted_newline",
            "bad_cell_after_blank_line", "bad_cell_before_short_row"])
    def test_malformed_file_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"t.csv, line {line}: "):
            self.read(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            self.read(tmp_path / "none.csv")


@pytest.mark.usefixtures("small_chunks")
class TestTableInSmallChunks(TestTable):
    """Rows, and each fault's line, as with the default chunk size."""


# -- the plain payments reader against the csv one --------------------------------

def read_either(read, path):
    """``read(path)``, or the message of the DataError it raises."""
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


def assert_same_sessions(got, want):
    """Equal session indexes, dtypes included, or equal error messages."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, str):
        assert got == want
        return
    assert got.block_ids == want.block_ids
    for name in ("bounds", "starts", "ends"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


PLAIN_IDS = st.sampled_from(["b", "h0_0E", "c", "x y", "a" * 64, "\t~"])
PLAIN_STAMPS = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(
    lambda t: t.isoformat(timespec="seconds"))
PLAIN_DURATIONS = st.one_of(st.integers(1, 10 ** 6), st.integers(1, 10 ** 15 - 1)).map(str)
PLAIN_ROWS = st.lists(st.tuples(PLAIN_IDS, PLAIN_STAMPS, PLAIN_DURATIONS,
                                st.sampled_from(["\n", "\r\n"])), min_size=1, max_size=40)
CELLS = ("id", "start", "duration")
# What the plain reader must hand over to the csv one, or parse as the csv
# one does: (where it goes, its text, whether a row with it is still plain).
ODD_CASES = [
    *(("id", text, False) for text in ['"b"', '"b,c"', "b\u00e9", "b\x00", "b\rc", "a" * 65, ""]),
    ("start", "2024-02-29T08:00:00", True), ("start", "9999-12-31T23:59:59", True),
    *(("start", text, False) for text in [
        "0000-01-01T00:00:00", "2026-02-29T08:00:00", "2026-03-02T24:00:00",
        "2026-03-02T23:59:60", "2026-03-02 08:00:00", "2026-03-02T08:00:00.5"]),
    ("duration", "0003360", True), ("duration", "999999999999999", True),
    *(("duration", text, False) for text in ["0", "3_360", " 3360", "1e3", "1234567890123456",
                                             "inf"]),
    ("line end", "\r", False), ("blank line", "\n", False), ("blank line", "\r\n", False),
    ("no final line end", "", False)]


def ends_by_the_last_datetime(stamp, duration):
    """Whether the session of a start and a duration ends by ``datetime.max``;
    False for cells of no such session."""
    try:
        return datetime.fromisoformat(stamp) + timedelta(seconds=int(duration)) <= datetime.max
    except (OverflowError, ValueError):
        return False


@pytest.mark.parametrize("odd", [None, *ODD_CASES],
                         ids=lambda odd: "plain" if odd is None else f"{odd[0]}:{odd[1]!r}")
@settings(max_examples=15)
@given(rows=PLAIN_ROWS, at=st.integers(0, 39), header_end=st.sampled_from(["\n", "\r\n"]),
       block_bytes=st.sampled_from([103, 160, 257, 1 << 17]))
def test_plain_payments_read_as_the_csv_reader_reads_them(tmp_path_factory, odd, rows, at,
                                                          header_end, block_bytes):
    # plain rows and one odd thing put in at row ``at``; small blocks put it
    # in a later block, after plain blocks parsed
    rows = [list(row) for row in rows]
    row, plain = rows[at % len(rows)], True
    if odd is not None:
        where, text, plain = odd
        if where in CELLS:
            row[CELLS.index(where)] = text
        elif where == "no final line end":
            rows[-1][3] = ""
        else:  # a lone CR, or a blank line after the row
            row[3] = text if where == "line end" else row[3] + text
    plain &= all(ends_by_the_last_datetime(stamp, duration) for _, stamp, duration, _ in rows)
    path = tmp_path_factory.getbasetemp() / "mixed_payments.csv"
    path.write_bytes((",".join(PAYMENT_COLUMNS) + header_end
                      + "".join(",".join(row[:3]) + row[3] for row in rows)).encode())
    with mock.patch.object(data_ingest, "PLAIN_BLOCK_BYTES", block_bytes):
        got = read_either(read_payments, path)
        assert plain == (_read_payments_plain(path) is not None)
    assert_same_sessions(got, read_either(_read_payments_csv, path))


def test_plain_payment_faults_are_named_by_the_csv_reader(tmp_path):
    # a date numpy's parse of bytes may crash on, in a block of many rows
    rows = [GOOD] * (CHUNK_ROWS + 5)
    rows[CHUNK_ROWS + 3] = ["b", "2026-02-29T08:00:00", "60"]
    path = write_payment_rows(tmp_path / "p.csv", rows)
    with pytest.raises(DataError, match=f"p.csv, line {CHUNK_ROWS + 5}: day is out of range"):
        read_payments(path)


def benchmark_synth_configs():
    """The synth config and seed of each workload of the benchmark."""
    workloads = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "workloads.py"))
    return {name: (SynthConfig(**{k: tuple(v) if isinstance(v, list) else v
                                  for k, v in w.synth.items()}), workloads["FIXTURE_SEED"])
            for name, w in workloads["WORKLOADS"].items() if name != "smoke"}


@pytest.mark.parametrize("name", ["city6-8h", "city10-3h", "peak-lots", "quick-start"])
def test_synth_payments_take_the_plain_path(tmp_path, monkeypatch, name):
    # the README quick start's city: the default config at seed 7
    cfg, seed = {**benchmark_synth_configs(), "quick-start": (SynthConfig(), 7)}[name]
    synth_generate(cfg, seed, tmp_path)
    path = tmp_path / "payments.csv"
    want = _read_payments_csv(path)

    def no_csv(*args):
        raise AssertionError("the payments took the csv path")

    monkeypatch.setattr(data_ingest, "read_columns", no_csv)
    assert_same_sessions(read_payments(path), want)


# -- session_arrays against a lexsort ------------------------------------------------

@pytest.mark.parametrize("n_blocks", [0, 1, 256, 65_536, 65_537])
@pytest.mark.parametrize("order", ["random", "by_time", "by_block"])
def test_session_arrays_equal_a_lexsort_of_block_and_time(n_blocks, order):
    rng = np.random.default_rng(n_blocks)
    n = 0 if n_blocks == 0 else 3 * n_blocks + 1000
    block = rng.integers(0, max(n_blocks, 1), n).astype(np.intp)
    starts = rng.integers(-50, 50, n) * 10 ** 12  # many repeated times
    ends = starts + rng.integers(0, 5, n)
    if order != "random":
        keep = np.lexsort((starts, block)) if order == "by_block" else np.argsort(starts)
        block, starts, ends = block[keep], starts[keep], ends[keep]
    block_ids = [f"b{i}" for i in range(n_blocks)]
    got = session_arrays(block_ids, block, starts, ends)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(block, minlength=n_blocks))))
    want = SessionIndex(tuple(block_ids), bounds, starts[np.lexsort((starts, block))],
                        ends[np.lexsort((ends, block))])
    assert_same_sessions(got, want)
