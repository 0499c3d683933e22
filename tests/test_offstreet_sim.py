"""Lot queueing simulator: ticks, wait times, end-to-end estimates."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from parksim.errors import DataError
from parksim.offstreet_sim import (
    LotHourStats,
    LotRateTable,
    LotSimConfig,
    LotSpec,
    LotState,
    arrival_wait_time,
    estimate_offstreet_time,
    initial_occupancy,
    sample_tick,
    simulate_lot_hour,
)
from parksim.road_graph import Intersection, build_graph

from conftest import grid_graph, make_edge
from oracles import brute_drive_time_to_node, brute_walk_time_from_node, lot_wait_time

CFG = LotSimConfig()


class StubRng:
    """Forces the Poisson draws; arrivals are drawn before departures."""

    def __init__(self, values):
        self.values = list(values)

    def poisson(self, mu):
        return self.values.pop(0)

    def choice(self, pool, size, replace):
        return pool[:size]


def flat_rates(lot_id, lam_a, lam_d):
    return LotRateTable({(lot_id, d, h): (lam_a, lam_d)
                         for d in range(7) for h in range(24)})


class TestSampleTick:
    def test_zero_rates_leave_state_unchanged(self):
        state = LotState.fresh(6, 3)
        before = state.occupied.copy()
        result = sample_tick(state, 0.0, 0.0, CFG, np.random.default_rng(0))
        assert result.arrivals == 0 and result.departures == 0
        assert np.array_equal(state.occupied, before)

    def test_three_arrivals_take_first_stalls(self):
        state = LotState.fresh(10)
        result = sample_tick(state, 1.0, 1.0, CFG, StubRng([3, 0]))
        assert result.stall_indices == (0, 1, 2)
        assert state.count == 3
        assert np.array_equal(np.flatnonzero(state.occupied), [0, 1, 2])

    def test_arrivals_fill_gaps_nearest_entrance_first(self):
        state = LotState.fresh(6, 6)
        state.occupied[[1, 4]] = False
        result = sample_tick(state, 1.0, 0.0, CFG, StubRng([2, 0]))
        assert result.stall_indices == (1, 4)

    def test_overflow_counted_not_dropped(self):
        state = LotState.fresh(4, 3)
        result = sample_tick(state, 1.0, 0.0, CFG, StubRng([5, 0]))
        assert result.overflow == 4
        assert result.stall_indices == (3,)
        assert state.count == 4

    def test_departures_bounded_by_occupancy(self):
        state = LotState.fresh(5, 2)
        result = sample_tick(state, 0.0, 1.0, CFG, StubRng([0, 9]))
        assert result.departed == 2
        assert state.count == 0

    def test_poisson_mean_matches_rate(self):
        rng = np.random.default_rng(77)
        state = LotState.fresh(10_000)
        mu = 0.5
        ticks = [sample_tick(state, mu * 3600.0 / CFG.tick_s, 0.0, CFG, rng)
                 for _ in range(10_000)]
        assert all(t.overflow == 0 for t in ticks)  # the lot never binds
        draws = [t.arrivals for t in ticks]
        sigma = math.sqrt(mu / 10_000)
        assert abs(np.mean(draws) - mu) <= 3 * sigma

    def test_conservation_and_bounds_over_random_ticks(self):
        rng = np.random.default_rng(13)
        state = LotState.fresh(12, 5)
        for _ in range(2_000):
            before = state.count
            lam_a = float(rng.uniform(0, 400))
            lam_d = float(rng.uniform(0, 400))
            result = sample_tick(state, lam_a, lam_d, CFG, rng)
            after = state.count
            assert 0 <= after <= 12
            assert after == before - result.departed + len(result.stall_indices)


class TestArrivalWaitTime:
    def test_first_arrival_no_traffic(self):
        assert arrival_wait_time(1, 0, 0, CFG) == 60.0

    def test_hand_case_third_arrival(self):
        # 60 + 10*0.54 + (2/2)*30 + (1/2 + 1/4)*60
        assert arrival_wait_time(3, 2, 10, CFG) == pytest.approx(140.4, abs=1e-9)

    def test_queue_term_limit_doubles_minimum(self):
        assert arrival_wait_time(60, 0, 0, CFG) == pytest.approx(120.0, abs=1e-9)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1, 12))
            n_d = int(rng.integers(0, 8))
            s = int(rng.integers(0, 40))
            assert arrival_wait_time(k, n_d, s, CFG) == lot_wait_time(
                k, n_d, s, CFG.min_park_s, CFG.per_stall_drive_s, CFG.vacate_wait_s)

    def test_monotone_in_every_argument(self):
        for k in range(1, 6):
            for n_d in range(4):
                for s in range(0, 30, 7):
                    t = arrival_wait_time(k, n_d, s, CFG)
                    assert arrival_wait_time(k + 1, n_d, s, CFG) >= t
                    assert arrival_wait_time(k, n_d + 1, s, CFG) >= t
                    assert arrival_wait_time(k, n_d, s + 1, CFG) >= t

    def test_bad_index_rejected(self):
        with pytest.raises(DataError):
            arrival_wait_time(0, 0, 0, CFG)


class TestSimulateLotHour:
    def test_no_arrivals_no_samples(self):
        lot = LotSpec("lot1", "n0_0", 10)
        stats = simulate_lot_hour(lot, flat_rates("lot1", 0.0, 5.0), 2, 9, CFG,
                                  5, np.random.default_rng(0))
        assert stats == LotHourStats(mean_s=None, std_s=None, arrivals=0, overflow=0)

    def test_fixed_seed_bit_identical(self):
        lot = LotSpec("lot1", "n0_0", 30)
        rates = flat_rates("lot1", 40.0, 30.0)
        a = simulate_lot_hour(lot, rates, 1, 12, CFG, 10, np.random.default_rng(5))
        b = simulate_lot_hour(lot, rates, 1, 12, CFG, 10, np.random.default_rng(5))
        assert a == b

    def test_collision_free_regime_matches_independent_resimulation(self):
        # big empty lot, no departures: stalls fill consecutively, so the
        # process reduces to counting arrivals; re-simulate it straight-line
        lot = LotSpec("lot1", "n0_0", 100_000)
        lam_a = 30.0
        cfg = LotSimConfig(reps=40, seed=1)
        stats = simulate_lot_hour(lot, flat_rates("lot1", lam_a, 0.0), 0, 8,
                                  cfg, 0, np.random.default_rng(42))

        oracle_rng = np.random.default_rng(777)  # independent stream
        samples = []
        for _ in range(cfg.reps):
            parked = 0
            for _ in range(60):
                n = oracle_rng.poisson(lam_a / 60.0)
                for k in range(1, n + 1):
                    samples.append(lot_wait_time(k, 0, parked, cfg.min_park_s,
                                                 cfg.per_stall_drive_s,
                                                 cfg.vacate_wait_s))
                    parked += 1
        se = math.hypot(stats.std_s / math.sqrt(stats.arrivals),
                        np.std(samples, ddof=1) / math.sqrt(len(samples)))
        assert abs(stats.mean_s - np.mean(samples)) <= 3 * se

    def test_mean_at_least_minimum(self):
        lot = LotSpec("lot1", "n0_0", 25)
        rng = np.random.default_rng(9)
        for lam_a, lam_d in ((5.0, 5.0), (60.0, 45.0), (200.0, 180.0)):
            stats = simulate_lot_hour(lot, flat_rates("lot1", lam_a, lam_d),
                                      3, 14, CFG, 12, rng)
            assert stats.mean_s >= CFG.min_park_s

    def test_bad_initial_occupancy_rejected(self):
        lot = LotSpec("lot1", "n0_0", 5)
        with pytest.raises(DataError):
            simulate_lot_hour(lot, flat_rates("lot1", 1.0, 1.0), 0, 0, CFG, 6,
                              np.random.default_rng(0))


class TestInitialOccupancy:
    def rates(self, entries, departures, day=2):
        return LotRateTable({("lot1", day, h): flows
                             for h, flows in enumerate(zip(entries, departures))})

    def test_cumulative_balance(self):
        occ = initial_occupancy(self.rates([5.0, 3.0], [0.0, 2.0]),
                                LotSpec("lot1", "n0", 20), 2, 2)
        assert occ == 6

    def test_zero_history(self):
        occ = initial_occupancy(self.rates([0.0] * 12, [0.0] * 12),
                                LotSpec("lot1", "n0", 10), 2, 12)
        assert occ == 0

    def test_clamped_to_capacity_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            occ = initial_occupancy(self.rates([9.0, 9.0], [0.0, 0.0]),
                                    LotSpec("lot1", "n0", 10), 2, 2)
        assert occ == 10
        assert any("clamp" in r.message for r in caplog.records)

    def test_missing_hours_listed(self):
        with pytest.raises(DataError, match=r"\(day 2, hour 1\)"):
            initial_occupancy(self.rates([5.0], [5.0]), LotSpec("lot1", "n0", 10), 2, 3)


class TestEstimateOffstreet:
    def lots_on(self, g, *nodes, capacity=20):
        return [LotSpec(f"lot{i}", node, capacity) for i, node in enumerate(nodes)]

    def test_quiet_adjacent_lot_decomposes(self):
        g = grid_graph(3)
        lots = self.lots_on(g, "n0_1")
        rates = flat_rates("lot0", 0.0, 0.0)
        est = estimate_offstreet_time(g, lots, rates, "h1_1E", 4, 12, CFG)
        drive = brute_drive_time_to_node(g, "h1_1E", "n0_1", 12)
        walk = brute_walk_time_from_node(g, "n0_1", "h1_1E")
        assert est.total_s == drive + 60.0 + walk
        assert est.lot_s == 60.0
        assert est.drive_s == drive and est.walk_s == walk

    def test_closer_lot_always_chosen(self):
        g = grid_graph(4)
        lots = self.lots_on(g, "n0_0", "n3_3")
        rates = LotRateTable({**flat_rates("lot0", 10.0, 8.0).rates,
                              **flat_rates("lot1", 10.0, 8.0).rates})
        est = estimate_offstreet_time(g, lots, rates, "h0_0E", 1, 10, CFG)
        assert est.lot_id == "lot0"
        far = estimate_offstreet_time(g, lots, rates, "h3_2E", 1, 10, CFG)
        assert far.lot_id == "lot1"

    def test_fixed_seed_deterministic(self):
        g = grid_graph(3)
        lots = self.lots_on(g, "n1_1")
        rates = flat_rates("lot0", 25.0, 20.0)
        a = estimate_offstreet_time(g, lots, rates, "h0_0E", 2, 9, CFG,
                                    occupancy_by_lot={"lot0": 5})
        b = estimate_offstreet_time(g, lots, rates, "h0_0E", 2, 9, CFG,
                                    occupancy_by_lot={"lot0": 5})
        assert a == b

    def test_lot_stats_shared_across_destinations(self):
        g = grid_graph(3)
        lots = self.lots_on(g, "n1_1")
        rates = flat_rates("lot0", 25.0, 20.0)
        a = estimate_offstreet_time(g, lots, rates, "h0_0E", 2, 9, CFG)
        b = estimate_offstreet_time(g, lots, rates, "v1_1S", 2, 9, CFG)
        assert a.lot_s == b.lot_s  # same derived stream per (lot, day, hour)

    def test_exact_tie_goes_to_smallest_lot_id(self):
        # integer drive times: both lots sit exactly 6 + 12 s from h1_0E
        g = grid_graph(3)
        lots = [LotSpec("lotB", "n1_2", 20), LotSpec("lotA", "n0_1", 20)]
        rates = LotRateTable({**flat_rates("lotA", 0.0, 0.0).rates,
                              **flat_rates("lotB", 0.0, 0.0).rates})
        for order in (lots, lots[::-1]):
            est = estimate_offstreet_time(g, order, rates, "h1_0E", 4, 12, CFG)
            assert est.lot_id == "lotA" and est.drive_s == 18.0

    def test_unreachable_lot_rejected(self):
        # one-way A -> B into the sink cycle B <-> C: nothing drives back to A
        nodes = [Intersection(n, 49.0, -123.0 + i * 1e-3)
                 for i, n in enumerate("ABC")]
        g = build_graph(nodes, [make_edge("ab", "A", "B"), make_edge("bc", "B", "C"),
                                make_edge("cb", "C", "B")])
        lots = [LotSpec("lot0", "A", 20)]
        rates = flat_rates("lot0", 1.0, 1.0)
        cache: dict = {}
        for dest in ("ab", "bc", "cb", "bc"):  # the repeat reads the cached table
            with pytest.raises(DataError, match=f"no drive path from '{dest}' to node 'A'"):
                estimate_offstreet_time(g, lots, rates, dest, 0, 8, CFG, _cache=cache)

    def test_no_lots_rejected(self):
        g = grid_graph(3)
        with pytest.raises(DataError):
            estimate_offstreet_time(g, [], flat_rates("x", 1, 1), "h0_0E", 0, 0, CFG)
