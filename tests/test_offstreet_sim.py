"""Lot queueing simulator: ticks, wait times, end-to-end estimates."""

from __future__ import annotations

import dataclasses
import logging
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from parksim import offstreet_sim
from parksim.errors import DataError
from parksim.offstreet_sim import (
    LotHourStats,
    LotSimConfig,
    LotSpec,
    advance_tick,
    departure_uniforms,
    estimate_offstreet_time,
    initial_occupancy,
    lot_wait_times,
    simulate_lot_hour,
    simulate_lot_hours,
)
from parksim.road_graph import build_graph
from parksim.seeding import derived_stream

from conftest import grid_graph, make_edge, make_node
from oracles import (LotState, brute_drive_time_to_node, brute_walk_time_from_node,
                     lot_hours_scalar, lot_wait_time, sample_tick, simulate_lot_hour_scalar)

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
    return {lot_id: np.full((7, 24, 2), (lam_a, lam_d))}


def lots_flat_rates(lots, lam_a, lam_d):
    return {lot.id: flat_rates(lot.id, lam_a, lam_d)[lot.id] for lot in lots}


class TestSampleTick:
    """The scalar reference's tick, here with its own draws."""

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


def lot_rows(capacity, *initially_occupied):
    """``occupied[rep, stall]`` with each repetition's first stalls taken."""
    occupied = np.zeros((len(initially_occupied), capacity), dtype=bool)
    for rep, n in enumerate(initially_occupied):
        occupied[rep, :n] = True
    return occupied


def tick(occupied, n_arrive, n_depart, u=()):
    """One ``advance_tick`` with the given draws, ``u[rep]`` the uniforms of
    a repetition's ``n_depart[rep]`` cars: the stalls vacated and, per
    repetition, the (stall, k) of each car that parked. The count it keeps
    must match the stalls left occupied."""
    u = np.concatenate([np.empty(0), *u])
    count = occupied.sum(axis=1)
    departed, rep, stall, k = advance_tick(occupied, count, np.array(n_arrive),
                                           np.array(n_depart), u)
    assert np.array_equal(count, occupied.sum(axis=1))
    parked = [list(zip(stall[rep == r].tolist(), k[rep == r].tolist()))
              for r in range(len(occupied))]
    return departed.tolist(), parked


class TestAdvanceTick:
    """The lockstep tick with fixed draws; the cases of ``TestSampleTick``."""

    def test_zero_rates_leave_state_unchanged(self):
        occupied = lot_rows(6, 3)
        before = occupied.copy()
        assert tick(occupied, [0], [0]) == ([0], [[]])
        assert np.array_equal(occupied, before)

    def test_three_arrivals_take_first_stalls(self):
        occupied = lot_rows(10, 0)
        assert tick(occupied, [3], [0]) == ([0], [[(0, 1), (1, 2), (2, 3)]])
        assert np.array_equal(np.flatnonzero(occupied[0]), [0, 1, 2])

    def test_arrivals_fill_gaps_nearest_entrance_first(self):
        occupied = lot_rows(6, 6)
        occupied[0, [1, 4]] = False
        assert tick(occupied, [2], [0]) == ([0], [[(1, 1), (4, 2)]])

    def test_overflow_counted_not_dropped(self):
        occupied = lot_rows(4, 3)
        _, parked = tick(occupied, [5], [0])
        assert 5 - len(parked[0]) == 4
        assert parked == [[(3, 1)]]
        assert occupied.sum() == 4

    def test_departures_bounded_by_occupancy(self):
        occupied = lot_rows(5, 2)
        assert tick(occupied, [0], [9], np.random.default_rng(0).random((1, 9)))[0] == [2]
        assert occupied.sum() == 0

    def test_uniforms_pick_among_occupied_stalls(self):
        # stall 1 is free: the first car takes index floor(0.5 x 4) = 2 of
        # the occupied stalls [0, 2, 3, 4], the second index 0 of [0, 2, 4];
        # the arrival then parks in stall 0
        occupied = lot_rows(5, 5)
        occupied[0, 1] = False
        assert tick(occupied, [1], [2], [[0.5, 0.0]]) == ([2], [[(0, 1)]])
        assert np.flatnonzero(occupied[0]).tolist() == [0, 2, 4]

    def test_largest_uniform_takes_the_last_occupied_stall(self):
        # (1 - 2^-53) x n rounds to n - 1 or below, never to n
        top = 1.0 - 2.0 ** -53
        n = np.concatenate([np.arange(1, 2 ** 16), 2 ** np.arange(16, 53)])
        n = np.concatenate([n - 1, n, n + 1])[1:]
        assert ((top * n).astype(np.int64) == n - 1).all()
        occupied = lot_rows(6, 3, 3)
        assert tick(occupied, [0, 0], [1, 1], [[top], [0.999]]) == ([1, 1], [[], []])
        assert occupied.tolist() == [[True, True, False, False, False, False]] * 2

    def test_capacity_one(self):
        occupied = np.array([[True], [False], [True]])
        assert tick(occupied, [2, 2, 1], [1, 1, 0], [[0.3], [0.6], []]) == (
            [1, 0, 0], [[(0, 1)], [(0, 1)], []])
        assert occupied.all()

    def test_repetitions_advance_independently(self):
        rng = np.random.default_rng(21)
        occupied = rng.random((6, 15)) < 0.6
        n_arrive, n_depart = rng.poisson(3.0, 6), rng.poisson(2.0, 6)
        u = [rng.random(d) for d in n_depart]
        alone = [occupied[[r]].copy() for r in range(6)]
        together = tick(occupied, n_arrive, n_depart, u)
        for r in range(6):
            one = tick(alone[r], n_arrive[[r]], n_depart[[r]], [u[r]])
            assert one == ([together[0][r]], [together[1][r]])
            assert np.array_equal(alone[r][0], occupied[r])

    def test_conservation_and_bounds_over_random_ticks(self):
        rng = np.random.default_rng(13)
        occupied = lot_rows(12, 5, 5, 5)
        scale = CFG.tick_s / 3600.0
        for _ in range(2_000):
            before = occupied.sum(axis=1)
            lam_a = float(rng.uniform(0, 400))
            lam_d = float(rng.uniform(0, 400))
            n_arrive = rng.poisson(lam_a * scale, 3)
            n_depart = rng.poisson(lam_d * scale, 3)
            departed, parked = tick(occupied, n_arrive, n_depart,
                                    [rng.random(d) for d in n_depart])
            after = occupied.sum(axis=1)
            for r in range(3):
                assert 0 <= after[r] <= 12
                assert departed[r] == min(n_depart[r], before[r])
                assert after[r] == before[r] - departed[r] + len(parked[r])
                assert len(parked[r]) == min(n_arrive[r], 12 - before[r] + departed[r])
                assert [k for _, k in parked[r]] == list(range(1, len(parked[r]) + 1))


class TestLotWaitTimes:
    def test_equals_arrival_wait_time(self):
        # a grid of arrivals waits what each arrival waits on its own
        k, n_d, s = np.meshgrid(np.arange(1, 61), np.arange(0, 9), np.arange(0, 130, 7))
        waits = lot_wait_times(k, n_d, s, CFG)
        for ki, di, si, w in zip(k.ravel(), n_d.ravel(), s.ravel(), waits.ravel()):
            assert w == pytest.approx(lot_wait_times(int(ki), int(di), int(si), CFG),
                                      abs=1e-9)


class TestArrivalWaitTime:
    """The wait of one arrival, ``lot_wait_times`` at scalar arguments."""

    def test_first_arrival_no_traffic(self):
        assert lot_wait_times(1, 0, 0, CFG) == 60.0

    def test_hand_case_third_arrival(self):
        # 60 + 10*0.54 + (2/2)*30 + (1/2 + 1/4)*60
        assert lot_wait_times(3, 2, 10, CFG) == pytest.approx(140.4, abs=1e-9)

    def test_queue_term_limit_doubles_minimum(self):
        assert lot_wait_times(60, 0, 0, CFG) == pytest.approx(120.0, abs=1e-9)

    def test_matches_straight_line_oracle(self):
        # the closed-form queue sum against the oracle's loop
        k, n_d, s = np.meshgrid(np.arange(1, 61), np.arange(0, 9), np.arange(0, 130, 7))
        waits = lot_wait_times(k, n_d, s, CFG)
        for ki, di, si, w in zip(k.ravel(), n_d.ravel(), s.ravel(), waits.ravel()):
            assert w == pytest.approx(lot_wait_time(int(ki), int(di), int(si), CFG.min_park_s,
                                                    CFG.per_stall_drive_s, CFG.vacate_wait_s),
                                      abs=1e-9)

    def test_monotone_in_every_argument(self):
        k, n_d, s = np.meshgrid(np.arange(1, 7), np.arange(5), np.arange(30), indexing="ij")
        waits = lot_wait_times(k, n_d, s, CFG)
        for axis in range(3):
            assert (np.diff(waits, axis=axis) >= 0).all()


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

    def test_poisson_mean_matches_rate(self):
        # one repetition of 10,000 ticks on a lot too big to bind
        mu = 0.5
        cfg = LotSimConfig(tick_s=0.36, reps=1)
        lot = LotSpec("lot1", "n0_0", 10_000)
        stats = simulate_lot_hour(lot, flat_rates("lot1", mu * 3600.0 / cfg.tick_s, 0.0),
                                  0, 8, cfg, 0, np.random.default_rng(77))
        assert stats.overflow == 0  # the lot never binds
        sigma = math.sqrt(mu / 10_000)
        assert abs(stats.arrivals / 10_000 - mu) <= 3 * sigma

    @pytest.mark.parametrize("tick_s", [60.0, 1000.0, 2400.0, 7200.0])
    def test_simulated_hour_draws_the_hourly_rate_for_any_tick(self, tick_s):
        # 1000 s and 2400 s do not divide the hour; 7200 s is a single tick
        cfg = LotSimConfig(tick_s=tick_s, reps=2_000)
        lot = LotSpec("lot1", "n0_0", 200)  # never fills
        stats = simulate_lot_hour(lot, flat_rates("lot1", 60.0, 0.0), 0, 8, cfg, 0,
                                  np.random.default_rng(31))
        assert stats.overflow == 0
        mean = (stats.arrivals + stats.overflow) / cfg.reps
        assert abs(mean - 60.0) <= 3 * math.sqrt(60.0 / cfg.reps)

    def test_zero_rates_give_no_mean_and_no_overflow(self):
        lot = LotSpec("lot1", "n0_0", 8)
        stats = simulate_lot_hour(lot, flat_rates("lot1", 0.0, 0.0), 3, 10, CFG, 8,
                                  np.random.default_rng(4))
        assert stats == LotHourStats(mean_s=None, std_s=None, arrivals=0, overflow=0)

    def test_full_lot_without_departures_parks_nobody(self):
        cfg = LotSimConfig(reps=7)
        lot = LotSpec("lot1", "n0_0", 10)
        stats = simulate_lot_hour(lot, flat_rates("lot1", 30.0, 0.0), 1, 9, cfg, 10,
                                  np.random.default_rng(3))
        # lot stream version 3 draws every arrival first
        draws = np.random.default_rng(3).poisson(30.0 / 60.0, size=(60, cfg.reps))
        assert stats.mean_s is None and stats.arrivals == 0
        assert stats.overflow == draws.sum() > 0

    def test_capacity_one(self):
        # every car parks at stall 0 as the first arrival of its tick
        cfg = LotSimConfig(reps=30)
        lot = LotSpec("lot1", "n0_0", 1)
        stats = simulate_lot_hour(lot, flat_rates("lot1", 40.0, 40.0), 2, 16, cfg, 1,
                                  np.random.default_rng(8))
        draws = np.random.default_rng(8).poisson(40.0 / 60.0, size=(60, cfg.reps))
        assert stats.arrivals > 0 and stats.overflow > 0
        assert stats.arrivals + stats.overflow == draws.sum()
        assert CFG.min_park_s <= stats.mean_s <= CFG.min_park_s + CFG.vacate_wait_s / 2.0

    def test_negative_rate_names_lot_and_slot(self):
        lot = LotSpec("lot1", "n0_0", 5)
        rates = flat_rates("lot1", 1.0, 1.0)
        rates["lot1"][2, 3, 1] = -1.0
        with pytest.raises(DataError, match=r"lot 'lot1' at \(day 2, hour 3\)"):
            simulate_lot_hour(lot, rates, 2, 3, CFG, 0, np.random.default_rng(0))

    def test_missing_lot_is_named(self):
        lot = LotSpec("lot1", "n0_0", 5)
        with pytest.raises(DataError, match="no rates for lot 'lot1'"):
            simulate_lot_hour(lot, flat_rates("lot2", 1.0, 1.0), 2, 4, CFG,
                              0, np.random.default_rng(0))

    @pytest.mark.parametrize("capacity,lam_a,lam_d,occupancy", [
        (30, 3.0, 2.0, 0),        # quiet
        (60, 90.0, 80.0, 30),     # busy
        (15, 120.0, 40.0, 10),    # overflowing
        (40, 20.0, 25.0, 35),     # nearly full at the start
    ], ids=["quiet", "busy", "overflowing", "occupied"])
    def test_mean_matches_scalar_reference(self, capacity, lam_a, lam_d, occupancy):
        cfg = LotSimConfig(reps=200)
        lot = LotSpec("lot1", "n0_0", capacity)
        stats = simulate_lot_hour(lot, flat_rates("lot1", lam_a, lam_d), 4, 12, cfg,
                                  occupancy, np.random.default_rng(11))
        # the scalar reference on an independent stream
        cars, overflow = simulate_lot_hour_scalar(capacity, lam_a, lam_d, cfg, occupancy,
                                                  np.random.default_rng(12))
        samples = [lot_wait_time(k, departed, stall, cfg.min_park_s, cfg.per_stall_drive_s,
                                 cfg.vacate_wait_s) for k, departed, stall in cars]
        se = math.hypot(stats.std_s / math.sqrt(stats.arrivals),
                        np.std(samples, ddof=1) / math.sqrt(len(samples)))
        assert abs(stats.mean_s - np.mean(samples)) <= 4 * se
        assert (stats.overflow > 0) == (overflow > 0)


# (lot, rates, initial occupancy): capacities 1, 7 and 40, lots that start
# empty and full, a lot without traffic and one that no car leaves
MIXED = [
    (LotSpec("one", "n0_0", 1), (40.0, 40.0), 1),
    (LotSpec("small", "n0_0", 7), (30.0, 20.0), 0),
    (LotSpec("full", "n0_0", 40), (50.0, 45.0), 40),
    (LotSpec("quiet", "n0_0", 40), (0.0, 0.0), 12),
    (LotSpec("filling", "n0_0", 7), (25.0, 0.0), 3),
    (LotSpec("empty", "n0_0", 40), (90.0, 10.0), 0),
]


def mixed_tasks(hour, cfg):
    rates = {lot.id: flat_rates(lot.id, *lam)[lot.id] for lot, lam, _ in MIXED}
    tasks = [(lot, hour, occupancy, derived_stream(cfg.seed, lot.id, 2, hour))
             for lot, _, occupancy in MIXED]
    return tasks, rates


def lockstep_cars(monkeypatch, tasks, rates, day, cfg):
    """``simulate_lot_hours``'s statistics and, per task, the (k, departed,
    stall) of each parked car in the order its waits are reduced."""
    cars = []
    waits = offstreet_sim.lot_wait_times

    def recorded(k, departed, stall, cfg):
        cars.append(np.column_stack([k, departed, stall]))
        return waits(k, departed, stall, cfg)

    monkeypatch.setattr(offstreet_sim, "lot_wait_times", recorded)
    stats = simulate_lot_hours(tasks, rates, day, cfg)
    monkeypatch.undo()
    bounds = np.cumsum([s.arrivals for s in stats])[:-1]
    return stats, [c.tolist() for c in np.split(np.concatenate(cars), bounds)]


class TestSimulateLotHours:
    """The lockstep over many lot-hours against one lot-hour at a time."""

    CFG = LotSimConfig(reps=30, seed=4)

    def test_every_sample_equals_the_scalar_oracle(self, monkeypatch):
        # one padded chunk: capacity 1, a lot that starts full, a lot
        # without traffic, ticks where 2+ cars leave
        tasks, rates = mixed_tasks(9, self.CFG)
        stats, cars = lockstep_cars(monkeypatch, tasks, rates, 2, self.CFG)
        tasks, rates = mixed_tasks(9, self.CFG)
        for (lot, hour, occupancy, rng), s, got in zip(tasks, stats, cars):
            expected, overflow = simulate_lot_hour_scalar(
                lot.capacity, *rates[lot.id][2, hour].tolist(), self.CFG, occupancy, rng)
            assert got == [list(car) for car in expected]
            assert (s.arrivals, s.overflow) == (len(expected), overflow)
        assert max(departed for car in cars for _, departed, _ in car) >= 2
        tasks, rates = mixed_tasks(9, self.CFG)
        assert stats == lot_hours_scalar(tasks, rates, 2, self.CFG)

    @settings(max_examples=25)
    @given(lots=st.lists(st.tuples(st.integers(1, 12), st.integers(0, 12),
                                   st.floats(0.0, 300.0), st.floats(0.0, 300.0)),
                         min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32), tick_s=st.sampled_from([300.0, 900.0, 3600.0]))
    def test_random_chunks_equal_the_scalar_oracle(self, lots, seed, tick_s):
        cfg = LotSimConfig(reps=4, seed=seed, tick_s=tick_s)
        specs = [(LotSpec(f"lot{i}", "n0_0", capacity), min(occupancy, capacity))
                 for i, (capacity, occupancy, _, _) in enumerate(lots)]
        rates = {spec.id: flat_rates(spec.id, lam_a, lam_d)[spec.id]
                 for (spec, _), (_, _, lam_a, lam_d) in zip(specs, lots)}

        def tasks():
            return [(spec, 10, occupancy, derived_stream(seed, spec.id, 1, 10))
                    for spec, occupancy in specs]
        assert simulate_lot_hours(tasks(), rates, 1, cfg) == lot_hours_scalar(tasks(), rates,
                                                                              1, cfg)

    def test_each_task_equals_its_one_task_call(self):
        tasks, rates = mixed_tasks(9, self.CFG)
        together = simulate_lot_hours(tasks, rates, 2, self.CFG)
        alone = [simulate_lot_hour(lot, rates, 2, 9, self.CFG, occupancy,
                                   derived_stream(self.CFG.seed, lot.id, 2, 9))
                 for lot, _, occupancy, _ in tasks]
        assert together == alone
        assert together[3] == LotHourStats(mean_s=None, std_s=None, arrivals=0, overflow=0)
        assert together[0].overflow > 0 and together[2].overflow > 0
        assert all(s.mean_s >= CFG.min_park_s for s in together if s.mean_s is not None)

    @pytest.mark.parametrize("budget", [1, 3 * 30 * (40 + 60)], ids=["alone", "threes"])
    def test_results_do_not_depend_on_the_chunk_budget(self, monkeypatch, budget):
        tasks, rates = mixed_tasks(14, self.CFG)
        expected = simulate_lot_hours(tasks, rates, 2, self.CFG)
        monkeypatch.setattr(offstreet_sim, "SCRATCH_ENTRIES", budget)
        tasks, rates = mixed_tasks(14, self.CFG)
        assert simulate_lot_hours(tasks, rates, 2, self.CFG) == expected

    def test_bad_task_rejected_before_any_draw(self):
        tasks, rates = mixed_tasks(9, self.CFG)
        lot, hour, _, rng = tasks[-1]
        tasks[-1] = lot, hour, lot.capacity + 1, rng
        with pytest.raises(DataError, match="initial occupancy"):
            simulate_lot_hours(tasks, rates, 2, self.CFG)
        assert rng.random() == derived_stream(self.CFG.seed, lot.id, 2, hour).random()

    def test_peak_memory_bounded_by_the_scratch_budget(self):
        # 24 hours of 4 lots at 400 repetitions: one lockstep over all 96
        # lot-hours peaks near 100 MiB, a chunk of 6 under 7 MiB
        g = grid_graph(4)
        lots = [LotSpec(f"lot{i}", node, 40)
                for i, node in enumerate(["n0_0", "n0_3", "n3_0", "n3_3"])]
        rates = lots_flat_rates(lots, 10.0, 9.0)
        cfg = LotSimConfig(reps=400)
        tracemalloc.start()
        try:
            est = estimate_offstreet_time(g, lots, rates, 1, list(range(24)), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(set(est.lot_id.ravel())) == len(lots)
        # 16 bytes of draws per (tick, task x rep) entry, 1 of occupancy
        # per (task x rep, stall) entry and the departure uniforms with
        # their hash's temporaries, plus the samples
        assert peak < 40 * offstreet_sim.SCRATCH_ENTRIES


def test_departure_uniforms_equal_the_integer_oracle():
    # task keys at and above 2^63, tick labels past 2^16 and a row of 3,000
    # cars: under numpy 1.x's value-based casting too, no label may turn
    # the uint64 hash into float64
    keys = np.array([2 ** 64 - 1, 2 ** 63, 12345], dtype=np.uint64)
    reps, ticks = 2, 70_000
    cars = np.zeros((ticks, keys.size * reps), dtype=np.int64)
    cars[0, 0], cars[40_000, 1], cars[65_536, 2], cars[69_999, 5] = 2, 4, 1, 3_000
    cars[69_999, 0] = 7
    u = departure_uniforms(keys, reps, cars)
    assert u.dtype == np.float64
    assert u.tolist() == [oracles.counter_uniform(int(keys[row // reps]),
                                                  (int(row % reps), int(t)), j)
                          for t, row in zip(*np.nonzero(cars)) for j in range(cars[t, row])]


class TestInitialOccupancy:
    def rates(self, entries, departures, day=2):
        """Rates of lot1 whose first hours of ``day`` are given, all others 0."""
        rates = flat_rates("lot1", 0.0, 0.0)
        rates["lot1"][day, :len(entries)] = list(zip(entries, departures))
        return rates

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

    def test_missing_lot_is_named(self):
        with pytest.raises(DataError, match="no rates for lot 'lot2'"):
            initial_occupancy(self.rates([5.0], [5.0]), LotSpec("lot2", "n0", 10), 2, 3)

    def test_balance_reads_only_earlier_hours_of_the_day(self):
        rates = self.rates([5.0, 3.0, 100.0], [0.0, 2.0, 0.0])
        rates["lot1"][1] = rates["lot1"][3] = 50.0, 0.0  # the days before and after
        assert initial_occupancy(rates, LotSpec("lot1", "n0", 20), 2, 2) == 6


def estimate(g, lots, rates, block, day, hour):
    """One block's cells at one hour from the estimator's one call."""
    est = estimate_offstreet_time(g, lots, rates, day, [hour], CFG)
    return SimpleNamespace(**{f.name: getattr(est, f.name)[0, g.position[block]]
                              for f in dataclasses.fields(est)})


def lot_hour(lot, rates, day, hour):
    """The lot-hour the estimator simulates: from the initial occupancy, on
    the (seed, lot, day, hour) stream."""
    return simulate_lot_hour(lot, rates, day, hour, CFG,
                             initial_occupancy(rates, lot, day, hour),
                             derived_stream(CFG.seed, lot.id, day, hour))


class TestEstimateOffstreet:
    def lots_on(self, g, *nodes, capacity=20):
        return [LotSpec(f"lot{i}", node, capacity) for i, node in enumerate(nodes)]

    def test_quiet_adjacent_lot_decomposes(self):
        g = grid_graph(3)
        lots = self.lots_on(g, "n0_1")
        rates = flat_rates("lot0", 0.0, 0.0)
        est = estimate(g, lots, rates, "h1_1E", 4, 12)
        drive = brute_drive_time_to_node(g, "h1_1E", "n0_1", 12)
        walk = brute_walk_time_from_node(g, "n0_1", "h1_1E")
        assert est.total_s == drive + 60.0 + walk
        assert est.lot_s == 60.0
        assert est.drive_s == drive and est.walk_s == walk

    def test_closer_lot_always_chosen(self):
        g = grid_graph(4)
        lots = self.lots_on(g, "n0_0", "n3_3")
        rates = lots_flat_rates(lots, 10.0, 8.0)
        est = estimate(g, lots, rates, "h0_0E", 1, 10)
        assert est.lot_id == "lot0"
        far = estimate(g, lots, rates, "h3_2E", 1, 10)
        assert far.lot_id == "lot1"

    def test_fixed_seed_deterministic(self):
        g = grid_graph(3)
        lots = self.lots_on(g, "n1_1")
        rates = flat_rates("lot0", 25.0, 20.0)
        a = estimate(g, lots, rates, "h0_0E", 2, 9)
        b = estimate(g, lots, rates, "h0_0E", 2, 9)
        assert a == b
        stats = lot_hour(lots[0], rates, 2, 9)
        assert (a.lot_s, a.std_s) == (stats.mean_s, stats.std_s)

    def test_lot_stats_shared_across_destinations(self):
        g = grid_graph(3)
        lots = self.lots_on(g, "n1_1")
        rates = flat_rates("lot0", 25.0, 20.0)
        a = estimate(g, lots, rates, "h0_0E", 2, 9)
        b = estimate(g, lots, rates, "v1_1S", 2, 9)
        assert a.lot_s == b.lot_s  # same derived stream per (lot, day, hour)

    def test_exact_tie_goes_to_smallest_lot_id(self):
        # integer drive times: both lots sit exactly 6 + 12 s from h1_0E
        g = grid_graph(3)
        lots = [LotSpec("lotB", "n1_2", 20), LotSpec("lotA", "n0_1", 20)]
        rates = lots_flat_rates(lots, 0.0, 0.0)
        for order in (lots, lots[::-1]):
            est = estimate(g, order, rates, "h1_0E", 4, 12)
            assert est.lot_id == "lotA" and est.drive_s == 18.0

    def test_unreachable_lot_rejected(self):
        # one-way A -> B into the sink cycle B <-> C: nothing drives back to A
        nodes = [make_node(n, 49.0, -123.0 + i * 1e-3) for i, n in enumerate("ABC")]
        g = build_graph({"nodes": nodes, "edges": [
            make_edge("ab", "A", "B"), make_edge("bc", "B", "C"), make_edge("cb", "C", "B")]})
        lots = [LotSpec("lot0", "A", 20)]
        rates = flat_rates("lot0", 1.0, 1.0)
        with pytest.raises(DataError, match="no drive path from 'ab' to node 'A'"):
            estimate_offstreet_time(g, lots, rates, 0, [8], CFG)

    def test_first_unreachable_block_and_lot_named(self):
        # A <-> B -> C <-> D: blocks ab and ba reach A, blocks from bc on do not;
        # every block reaches C
        nodes = [make_node(n, 49.0, -123.0 + i * 1e-3) for i, n in enumerate("ABCD")]
        g = build_graph({"nodes": nodes, "edges": [
            make_edge("ab", "A", "B"), make_edge("ba", "B", "A"), make_edge("bc", "B", "C"),
            make_edge("cd", "C", "D"), make_edge("dc", "D", "C")]})
        lots = [LotSpec("lot2", "A", 20), LotSpec("lot0", "C", 20), LotSpec("lot1", "A", 20)]
        rates = lots_flat_rates(lots, 1.0, 1.0)
        with pytest.raises(DataError, match="no drive path from 'bc' to node 'A'"):
            estimate_offstreet_time(g, lots, rates, 0, [8], CFG)

    def test_lot_counts_reported(self):
        g = grid_graph(3)
        lots = [LotSpec("lot0", "n1_1", 4)]
        rates = flat_rates("lot0", 60.0, 10.0)
        est = estimate(g, lots, rates, "h0_0E", 2, 9)
        stats = lot_hour(lots[0], rates, 2, 9)
        assert (est.arrivals, est.overflow) == (stats.arrivals, stats.overflow)
        assert est.overflow > 0

    def test_each_chosen_lot_hour_simulated_once(self, monkeypatch):
        # lot2 shares lot0's entrance, so every tie goes to lot0 and no
        # block chooses lot2
        g = grid_graph(4)
        lots = self.lots_on(g, "n0_0", "n3_3", "n0_0")
        rates = lots_flat_rates(lots, 30.0, 20.0)
        simulated = []
        simulate = offstreet_sim.simulate_lot_hours

        def recorded(tasks, rates, day, cfg):
            simulated.append([(lot.id, hour) for lot, hour, _, _ in tasks])
            return simulate(tasks, rates, day, cfg)

        monkeypatch.setattr(offstreet_sim, "simulate_lot_hours", recorded)
        est = estimate_offstreet_time(g, lots, rates, 3, [8, 17], CFG)
        assert simulated == [[("lot0", 8), ("lot1", 8), ("lot0", 17), ("lot1", 17)]]
        for lot_ids in est.lot_id:
            assert len(lot_ids) == len(g.block_ids)
            assert set(lot_ids) == {"lot0", "lot1"}

    def test_each_hour_row_equals_a_one_hour_call(self):
        g = grid_graph(4)
        lots = self.lots_on(g, "n0_0", "n3_3", "n1_2")
        rates = lots_flat_rates(lots, 30.0, 20.0)
        hours = [17, 8, 0]
        est = estimate_offstreet_time(g, lots, rates, 3, hours, CFG)
        for i, hour in enumerate(hours):
            one = estimate_offstreet_time(g, lots, rates, 3, [hour], CFG)
            for f in dataclasses.fields(est):
                assert np.array_equal(getattr(est, f.name)[i], getattr(one, f.name)[0])

    def test_no_lots_rejected(self):
        g = grid_graph(3)
        with pytest.raises(DataError):
            estimate_offstreet_time(g, [], flat_rates("x", 1, 1), 0, [0], CFG)

    @pytest.mark.parametrize("day", [-1, 7])
    def test_day_outside_week_rejected(self, day):
        g = grid_graph(3)
        lots = self.lots_on(g, "n1_1")
        with pytest.raises(DataError, match="day must be in 0..6"):
            estimate_offstreet_time(g, lots, flat_rates("lot0", 1.0, 1.0), day, [8], CFG)
