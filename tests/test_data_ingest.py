"""Survey combining, departure smoothing, rate estimation, synthetic city."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    read_surveys,
    smooth_departures,
    write_rates_csv,
    write_samples_csv,
    write_table,
)
from parksim.errors import DataError
from parksim.occupancy_model import build_dataset, micros
from parksim.road_graph import load_graph
from parksim.synth import BUNDLE_FILES, METERS_PER_BLOCK, SynthConfig, synth_generate

from conftest import PaymentRecord, block_sessions, sessions_of
from oracles import left_gaussian_weights, lot_rates, survey_samples

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


# sha256 of each file of the grid-3, 7-day city at seed 77, by the numpy
# version that made it: numpy does not promise the same Generator streams
# across versions (NEP 19).
STREAM_V1_SHA256 = {"2.4": {
    "graph.json": "893119c92acca9ee5ac351aec644f571d0db2995ee9366407208dad909883130",
    "payments.csv": "31150953311bae141fed1ae1185660ee98fe51d91c1d25402fded171da338456",
    "surveys.csv": "d2b021f86b8564e48e0bb06f569291bb87a95a692db1f7afd98fd604a24fe75c",
    "lots.json": "711424c3e63a41acec089bbcae691834cd761806e6e656c9f9c1d6f519aabf4e",
    "lot_events.csv": "8762605e5bfbb10b0c575815e8c9e6e8f826515eba8c3d74d2f69a670995dd84",
    "ground_truth.json": "46cabc30f3ec9bfe7ab763436c78d7207574d9f2f3eb753637a43b95a4003802",
}}


class TestSynthGenerate:
    def test_bundle_files_load_through_public_readers(self, bundle):
        g = load_graph(bundle / "graph.json")
        assert len(g.nodes) == 16
        assert len(g.edges) == 4 * 4 * 3  # grid edge count, both directions
        assert read_payments(bundle / "payments.csv").block_ids
        assert read_surveys(bundle / "surveys.csv")
        assert read_lots(bundle / "lots.json")
        assert read_lot_events(bundle / "lot_events.csv").lot_ids == ("lot1",)

    def test_ten_by_ten_grid_counts(self, tmp_path):
        cfg = SynthConfig(grid_n=10, days=7, demand_scale=0.05)
        synth_generate(cfg, seed=1, out_dir=tmp_path / "big")
        g = load_graph(tmp_path / "big" / "graph.json")
        assert len(g.nodes) == 100
        assert len(g.edges) == 360

    def test_fixed_seed_byte_identical(self, tmp_path):
        cfg = SynthConfig(grid_n=3, days=7)
        synth_generate(cfg, seed=77, out_dir=tmp_path / "a")
        synth_generate(cfg, seed=77, out_dir=tmp_path / "b")
        for name in BUNDLE_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), \
                name
        # synth stream version 1, pinned
        version = ".".join(np.__version__.split(".")[:2])
        if version not in STREAM_V1_SHA256:
            pytest.skip(f"stream hashes recorded under numpy {sorted(STREAM_V1_SHA256)}, "
                        f"not {version}")
        assert {name: hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
                for name in BUNDLE_FILES} == STREAM_V1_SHA256[version]

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
        for eid, e in g.edges.items():
            a, b = g.nodes[e.from_node], g.nodes[e.to_node]
            mids[eid] = ((a.lat + b.lat) / 2, (a.lon + b.lon) / 2)
        center = (sum(m[0] for m in mids.values()) / len(mids),
                  sum(m[1] for m in mids.values()) / len(mids))
        metered = [eid for eid, e in g.edges.items() if e.meter_count > 0]
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


def write_payment_rows(path, rows):
    """Write (block_id, start text, duration text) rows as a payments file."""
    write_table(path, PAYMENT_COLUMNS, rows)
    return path


def session_ends(path):
    """Each session's end in a one-block payments file, in microseconds."""
    return block_sessions(read_payments(path), "b")[1].tolist()


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


class TestTable:
    COLUMNS = ("name", "count")

    def read(self, path):
        """The (name, count) rows of a file, read a column at a time."""
        return [row for rows in read_columns(path, self.COLUMNS, lambda chunk: list(
                    zip(chunk.columns["name"], chunk.parse("count", lambda c: [*map(int, c)]))))
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
