"""On-street search simulator: choice policy, traces, time estimates."""

from __future__ import annotations

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from parksim.cli import AVAILABILITY_COLUMNS, _read_cells
from parksim.data_ingest import write_table
from parksim.errors import DataError, NumericError
from parksim import onstreet_sim
from parksim.onstreet_sim import OnstreetConfig, PolicyWeights, estimate_onstreet_time
from parksim.road_graph import build_graph
from parksim.seeding import counter_uniform, stream_key

from conftest import grid_graph, line_graph, ring_graph
from oracles import (
    SearchDraws,
    SearchState,
    block_records,
    block_scores,
    cell_labels,
    choose_block,
    estimate_cells,
    graph_file_records,
    midpoint_table,
    out_blocks,
    simulate_single,
    softmax_probabilities,
    trace_total_time,
)

W = PolicyWeights()


def availability(g, *probs_by_hour):
    """One row per hour of availability dicts, blocks in ``g.block_ids`` order."""
    return np.array([[probs[block] for block in g.block_ids] for probs in probs_by_hour])


class TestBlockScores:
    def test_unvisited_adjacent_full_probability(self):
        state = SearchState(current_node="n1")
        cfg = OnstreetConfig()
        scores = block_scores(state, ["e0"], {"e0": 1.0}, W, cfg,
                              distances_m={"e0": 0.0})
        # 0 distance, 0 visits, full elapsed credit (30 min), 1/P = 1
        assert scores == [15.0 * 30.0 - 1.0]
        assert scores == [449.0]

    def test_identical_candidates_identical_scores(self):
        g = grid_graph(3)
        state = SearchState(current_node="n1_1")
        cfg = OnstreetConfig()
        probs = {eid: 0.4 for eid in g.block_ids}
        dist = {eid: 250.0 for eid in g.block_ids}
        scores = block_scores(state, ["h1_1E", "v1_1S"], probs, W, cfg,
                              distances_m=dist)
        assert scores[0] == scores[1]

    def test_each_visit_costs_revisit_weight(self):
        cfg = OnstreetConfig()
        base = SearchState(current_node="n1")
        once = SearchState(current_node="n1", visits={"e0": 1},
                           last_check_s={"e0": 0.0}, elapsed_s=0.0)
        d = {"e0": 0.0}
        p = {"e0": 1.0}
        s0 = block_scores(base, ["e0"], p, W, cfg, distances_m=d)[0]
        s1 = block_scores(once, ["e0"], p, W, cfg, distances_m=d)[0]
        # one extra visit and zero elapsed-since-check both apply
        assert s1 == s0 - 15.0 - 15.0 * 30.0

    def test_probability_floor_bounds_scarcity_term(self):
        cfg = OnstreetConfig(p_floor=0.05)
        state = SearchState(current_node="n1")
        s = block_scores(state, ["e0"], {"e0": 0.0}, W, cfg,
                         distances_m={"e0": 0.0})[0]
        assert s == 15.0 * 30.0 - 1.0 / 0.05


class TestChooseBlock:
    def test_equal_scores_uniform(self):
        rng = np.random.default_rng(42)
        counts = np.zeros(4)
        for _ in range(10_000):
            counts[choose_block([3.0, 3.0, 3.0, 3.0], rng)] += 1
        freq = counts / 10_000
        sigma = math.sqrt(0.25 * 0.75 / 10_000)
        assert np.all(np.abs(freq - 0.25) <= 3 * sigma)

    def test_log_three_gap(self):
        p = softmax_probabilities([0.0, math.log(3.0)])
        assert p[0] == pytest.approx(0.25, abs=1e-12)
        assert p[1] == pytest.approx(0.75, abs=1e-12)

    def test_translation_invariance_exact(self):
        # power-of-two shift keeps score + c exactly representable, so the
        # max-shifted softmax must agree bit for bit
        scores = [1.0, -2.0, 0.5, 7.0]
        shifted = [s + 128.0 for s in scores]
        assert np.array_equal(softmax_probabilities(scores),
                              softmax_probabilities(shifted))
        r1 = np.random.default_rng(7)
        r2 = np.random.default_rng(7)
        draws1 = [choose_block(scores, r1) for _ in range(100)]
        draws2 = [choose_block(shifted, r2) for _ in range(100)]
        assert draws1 == draws2

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            scores = rng.normal(0, 50, size=rng.integers(1, 9))
            assert abs(softmax_probabilities(scores).sum() - 1.0) <= 1e-9

    def test_non_finite_score_rejected(self):
        with pytest.raises(NumericError):
            choose_block([1.0, math.inf], np.random.default_rng(0))

    def test_empty_scores_rejected(self):
        with pytest.raises(DataError):
            choose_block([], np.random.default_rng(0))


class TestSimulateSingle:
    def test_park_on_destination_block_exact_minimum(self):
        g = grid_graph(3)
        probs = {eid: 1.0 for eid in g.block_ids}
        out = simulate_single(g, probs, "h0_0E", OnstreetConfig(), W, 12,
                              np.random.default_rng(0))
        assert out.total_s == 210.0
        assert out.drive_s == 0.0 and out.walk_s == 0.0
        assert out.parked_block == "h0_0E"
        assert not out.censored
        assert out.trace == ("h0_0E",)

    def test_two_block_trace_matches_straight_line_formula(self):
        g = line_graph(drive_times=(10.0, 20.0, 30.0), walk_times=(30.0, 30.0, 30.0))
        probs = {eid: 0.0 for eid in g.block_ids}
        probs["e1"] = 1.0
        out = simulate_single(g, probs, "e0", OnstreetConfig(), W, 12,
                              np.random.default_rng(3))
        assert out.trace == ("e0", "e1")
        # drive 10/2 + 20 - 20/2, walk 30/2 + 30/2
        assert out.total_s == trace_total_time(210.0, [10.0, 20.0], [30.0, 30.0])
        assert out.total_s == 255.0

    def test_random_traces_match_straight_line_formula(self):
        g = grid_graph(3)
        rng = np.random.default_rng(17)
        probs = {eid: float(p) for eid, p in
                 zip(g.block_ids, rng.uniform(0.1, 0.9, len(g.block_ids)))}
        for trial in range(30):
            out = simulate_single(g, probs, "h1_1E", OnstreetConfig(), W, 9, rng)
            if out.censored:
                continue
            drive = [g.drive_s[9, g.position[e]] for e in out.trace]
            expected_drive = trace_total_time(0.0, drive, [])
            assert out.drive_s == pytest.approx(expected_drive, abs=1e-9)
            assert out.total_s == pytest.approx(210.0 + out.drive_s + out.walk_s, abs=1e-9)

    def test_censoring_at_search_cap(self):
        g = grid_graph(3)
        probs = {eid: 0.0 for eid in g.block_ids}
        cfg = OnstreetConfig(max_search_s=60.0)
        out = simulate_single(g, probs, "h0_0E", cfg, W, 12, np.random.default_rng(1))
        assert out.censored
        assert out.drive_s == 60.0
        assert out.total_s == 210.0 + 60.0 + out.walk_s
        walk_table = {eid: 0.0 for eid in g.block_ids}
        assert out.walk_s >= 0.0

    def test_trace_blocks_are_adjacent(self):
        g = grid_graph(4)
        rng = np.random.default_rng(5)
        probs = {eid: 0.15 for eid in g.block_ids}
        for _ in range(10):
            out = simulate_single(g, probs, "h2_1E", OnstreetConfig(), W, 8, rng)
            for a, b in zip(out.trace, out.trace[1:]):
                assert g.block_from[g.position[b]] == g.block_to[g.position[a]]

    def test_no_revisit_while_unvisited_candidates_exist(self):
        g = grid_graph(4)
        rng = np.random.default_rng(11)
        probs = {eid: 0.01 for eid in g.block_ids}
        avoid_revisit = PolicyWeights(revisit_weight=-1e6)
        out = simulate_single(g, probs, "h0_0E", OnstreetConfig(max_search_s=600.0),
                              avoid_revisit, 12, rng)
        outs = out_blocks(g)
        visited: set[str] = set()
        for a, b in zip(out.trace, out.trace[1:]):
            visited.add(a)
            candidates = outs[block_records(g)[a].to_node]
            unvisited = [c for c in candidates if c not in visited]
            if unvisited:
                assert b in unvisited

    def test_total_never_below_minimum(self):
        g = grid_graph(3)
        rng = np.random.default_rng(2)
        probs = {eid: float(p) for eid, p in
                 zip(g.block_ids, rng.uniform(0.0, 1.0, len(g.block_ids)))}
        for _ in range(50):
            out = simulate_single(g, probs, "v0_2S", OnstreetConfig(), W, 15, rng)
            assert out.total_s >= 210.0


class TestEstimate:
    def test_certain_parking_mean_exact(self):
        g = grid_graph(3)
        probs = {eid: 1.0 for eid in g.block_ids}
        est = estimate_onstreet_time(g, availability(g, probs), (12,),
                                     OnstreetConfig(n_samples=64), W)
        j = g.position["h0_0E"]
        assert est.mean_s[0, j] == 210.0
        assert est.std_s[0, j] == 0.0
        assert est.censored_fraction[0, j] == 0.0

    def test_fixed_seed_reproducible(self):
        g = grid_graph(3)
        p = availability(g, {eid: 0.3 for eid in g.block_ids})
        cfg = OnstreetConfig(n_samples=40, seed=9)
        a = estimate_onstreet_time(g, p, (10,), cfg, W)
        b = estimate_onstreet_time(g, p, (10,), cfg, W)
        for name in ("mean_s", "std_s", "censored_fraction"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_single_street_geometric_expectation(self):
        # one physical street, both faces at P = 0.5: checks are Bernoulli
        # trials alternating between the two faces. With drive d and walk w:
        #   E[total] = min_park + d * (E[checks] - 1) + w * P(even checks)
        #            = 210 + 10 * 1 + 30 / 3 = 230
        g = line_graph(drive_times=(10.0,), walk_times=(30.0,))
        probs = {"e0": 0.5, "r0": 0.5}
        cfg = OnstreetConfig(n_samples=4000, seed=21, max_search_s=1e6)
        est = estimate_onstreet_time(g, availability(g, probs), (12,), cfg, W)
        j = g.position["e0"]
        se = est.std_s[0, j] / math.sqrt(cfg.n_samples)
        assert abs(est.mean_s[0, j] - 230.0) <= 3 * se

    def test_scaling_probabilities_up_never_slower(self):
        g = grid_graph(3)
        rng = np.random.default_rng(8)
        base = {eid: float(p) for eid, p in
                zip(g.block_ids, rng.uniform(0.05, 0.5, len(g.block_ids)))}
        boosted = {eid: min(1.0, p * 1.5) for eid, p in base.items()}
        cfg = OnstreetConfig(n_samples=10_000, seed=4)
        slow = estimate_onstreet_time(g, availability(g, base), (12,), cfg, W)
        fast = estimate_onstreet_time(g, availability(g, boosted), (12,), cfg, W)
        j = g.position["h1_1E"]
        se = math.hypot(slow.std_s[0, j], fast.std_s[0, j]) / math.sqrt(cfg.n_samples)
        assert fast.mean_s[0, j] <= slow.mean_s[0, j] + 3 * se


class TestLockstep:
    def test_single_parkable_neighbour_every_sample_exact(self):
        g = line_graph(drive_times=(10.0, 20.0, 30.0), walk_times=(30.0, 30.0, 30.0))
        probs = {eid: 0.0 for eid in g.block_ids}
        probs["e1"] = 1.0
        est = estimate_onstreet_time(g, availability(g, probs), (12,),
                                     OnstreetConfig(n_samples=200), W)
        j = g.position["e0"]
        # every search drives 10/2 + 20/2 and walks 30/2 + 30/2
        assert est.mean_s[0, j] == 255.0
        assert est.std_s[0, j] == 0.0
        assert est.censored_fraction[0, j] == 0.0

    def test_never_available_is_all_censored(self):
        g = grid_graph(3)
        probs = {eid: 0.0 for eid in g.block_ids}
        est = estimate_onstreet_time(g, availability(g, probs), (12,),
                                     OnstreetConfig(n_samples=50, max_search_s=60.0), W)
        j = g.position["h0_0E"]
        assert est.censored_fraction[0, j] == 1.0
        assert est.mean_s[0, j] >= 210.0 + 60.0

    def test_order_independent(self):
        g = grid_graph(3)
        rng = np.random.default_rng(3)
        probs = {eid: float(p) for eid, p in
                 zip(g.block_ids, rng.uniform(0.1, 0.7, len(g.block_ids)))}
        cfg = OnstreetConfig(n_samples=60, seed=11)
        p = availability(g, probs)
        both = estimate_onstreet_time(g, availability(g, probs, probs), (8, 9), cfg, W)
        for i, hour in enumerate((8, 9)):
            alone = estimate_onstreet_time(g, p, (hour,), cfg, W)
            for name in ("mean_s", "std_s", "censored_fraction"):
                assert np.array_equal(getattr(both, name)[i], getattr(alone, name)[0]), \
                    (hour, name)

    def test_matches_scalar_reference(self):
        # every block at two hours: lockstep and one-search-at-a-time means
        # agree within 4 combined standard errors
        g = grid_graph(3, drive=tuple(float(t) for t in range(10, 34)))
        rng = np.random.default_rng(23)
        n = 300
        cfg = OnstreetConfig(n_samples=n, seed=2)
        hours = (8, 17)
        probs_by_hour, refs = [], {}
        for hour in hours:
            probs = {eid: float(p) for eid, p in
                     zip(g.block_ids, rng.uniform(0.05, 0.6, len(g.block_ids)))}
            probs_by_hour.append(probs)
            for dest in g.block_ids:
                walk = midpoint_table(g, dest, lambda e: e.walk_time_s)
                dist = midpoint_table(g, dest, lambda e: e.length_m)
                refs[hour, dest] = np.array([
                    simulate_single(g, probs, dest, cfg, W, hour, rng,
                                    walk_s=walk, dist_m=dist).total_s
                    for _ in range(n)])
        est = estimate_onstreet_time(g, availability(g, *probs_by_hour), hours, cfg, W)
        for i, hour in enumerate(hours):
            for dest in g.block_ids:
                j, ref = g.position[dest], refs[hour, dest]
                se = math.hypot(est.std_s[i, j], ref.std(ddof=1)) / math.sqrt(n)
                assert abs(est.mean_s[i, j] - ref.mean()) <= 4 * se, (dest, hour)

    @pytest.mark.parametrize("weights", [
        PolicyWeights(0.0, 0.0, 15.0, 0.0),    # since-last-check term alone
        PolicyWeights(0.0, -30.0, 0.0, 0.0),   # visit-count term alone
    ], ids=["elapsed_only", "revisit_only"])
    def test_policy_term_avoids_checked_block(self, weights):
        # Parking only on r0, starting on e1: the driver turns at n2 either
        # way (a fair coin), and each term alone makes it leave n1 by the
        # unchecked r0 instead of the checked e1. Drive plus walk back:
        #   e1 r1 r0        210 + (10 + 20 + 5) + 70 = 315
        #   e1 e2 r2 r1 r0  210 + (10 + 30 + 30 + 20 + 5) + 70 = 375
        g = line_graph(drive_times=(10.0, 20.0, 30.0), walk_times=(60.0, 80.0, 100.0))
        probs = {eid: 0.0 for eid in g.block_ids}
        probs["r0"] = 1.0
        p, j = availability(g, probs), g.position["e1"]
        totals = {estimate_onstreet_time(g, p, (12,), OnstreetConfig(n_samples=1, seed=s),
                                         weights).mean_s[0, j] for s in range(200)}
        assert totals == {315.0, 375.0}

    def test_non_finite_score_rejected(self):
        g = grid_graph(3)
        probs = {eid: 0.0 for eid in g.block_ids}
        with pytest.raises(NumericError):
            estimate_onstreet_time(g, availability(g, probs), (12,),
                                   OnstreetConfig(n_samples=5),
                                   PolicyWeights(distance_weight=-1e308))

    def test_unknown_destination_and_hour_rejected(self):
        g = grid_graph(3)
        p = availability(g, {eid: 0.5 for eid in g.block_ids})
        for hour in (24, -1):
            with pytest.raises(DataError):
                estimate_onstreet_time(g, p, (hour,), OnstreetConfig(), W)

    @pytest.mark.parametrize("shape", [(1,), (2, 24), (1, 23), (1, 25)])
    def test_wrong_availability_shape_rejected(self, shape):
        g = grid_graph(3)
        assert len(g.block_ids) == 24
        with pytest.raises(DataError, match="shape"):
            estimate_onstreet_time(g, np.full(shape, 0.5), (12,), OnstreetConfig(), W)

    def test_node_without_out_block_rejected(self):
        # without r2 the search would strand at n3 after e2
        records = graph_file_records(line_graph())
        records["edges"] = [e for e in records["edges"] if e["id"] != "r2"]
        with pytest.raises(DataError, match="dead end"):
            build_graph(records)


class TestChunkedLockstep:
    """One lockstep runs a table chunk's cells: the first checks of a batch
    of cells with no scratch, then the survivors through a pool of scratch
    rows, where a search that ends frees its row for the next survivor in
    the queue. ``estimate_cells`` runs the same searches one cell at a
    time. Every cell agrees exactly."""

    HOURS = (8, 17)

    @staticmethod
    def graph(name):
        if name == "grid":
            return grid_graph(3, drive=tuple(float(t) for t in range(10, 34)))
        return ring_graph()

    def assert_cells_equal(self, g, p, cfg, weights=W):
        est = estimate_onstreet_time(g, p, self.HOURS, cfg, weights)
        ref = estimate_cells(g, p, self.HOURS, cfg, weights)
        for name, expected in zip(("mean_s", "std_s", "censored_fraction"), ref):
            assert np.array_equal(getattr(est, name), expected), name
        return est

    @pytest.mark.parametrize("graph", ["grid", "one_way_ring"])
    @pytest.mark.parametrize("kind", ["mixed", "never", "always"])
    @pytest.mark.parametrize("cells,table_chunk", [(1, 7), (3, 5), (None, 64)],
                             ids=["1_cell", "3_cells", "all_cells"])
    def test_matches_cell_by_cell(self, monkeypatch, graph, kind, cells, table_chunk):
        g = self.graph(graph)
        cfg = OnstreetConfig(n_samples=20, seed=5)
        blocks = len(g.block_ids)
        monkeypatch.setattr(onstreet_sim, "TABLE_CHUNK", table_chunk)
        monkeypatch.setattr(onstreet_sim, "SCRATCH_ENTRIES",
                            (cells or blocks * len(self.HOURS)) * cfg.n_samples * blocks)
        shape = (len(self.HOURS), blocks)
        p = {"mixed": np.random.default_rng(9).uniform(0.05, 0.6, shape),
             "never": np.zeros(shape), "always": np.ones(shape)}[kind]
        est = self.assert_cells_equal(g, p, cfg)
        # never: every search runs to the cap; always: every search parks at once
        assert (est.censored_fraction == 1.0).all() == (kind == "never")
        assert (est.mean_s == cfg.min_park_s).all() == (kind == "always")

    @pytest.mark.parametrize("graph", ["grid", "one_way_ring"])
    def test_single_sample_has_zero_spread(self, graph):
        g = self.graph(graph)
        p = np.random.default_rng(4).uniform(0.05, 0.6, (len(self.HOURS), len(g.block_ids)))
        est = self.assert_cells_equal(g, p, OnstreetConfig(n_samples=1, seed=3))
        assert (est.std_s == 0.0).all()

    @pytest.mark.parametrize("graph", ["grid", "one_way_ring"])
    def test_censored_on_first_check(self, monkeypatch, graph):
        # The cap falls between the destinations' own drive times: grid
        # blocks take 18 s at 8:00 and 27 s at 17:00, ring blocks 10 to
        # 22 s. A search that does not park on its destination is censored
        # there when its destination takes longer than the cap.
        g = self.graph(graph)
        cfg = OnstreetConfig(n_samples=20, seed=8, max_search_s=20.0 if graph == "grid" else 15.0)
        monkeypatch.setattr(onstreet_sim, "SCRATCH_ENTRIES", cfg.n_samples * len(g.block_ids))
        p = np.random.default_rng(10).uniform(0.05, 0.6, (len(self.HOURS), len(g.block_ids)))
        est = self.assert_cells_equal(g, p, cfg)
        first = g.drive_s[list(self.HOURS)] > cfg.max_search_s
        assert first.any() and not first.all()
        assert (est.censored_fraction[first] > 0).all()
        # every search there ends on its destination, parked or censored
        assert est.mean_s[first] == pytest.approx(
            cfg.min_park_s + cfg.max_search_s * est.censored_fraction[first], abs=1e-9)

    @pytest.mark.parametrize("graph", ["grid", "one_way_ring"])
    def test_scalar_search_matches_lockstep_exactly(self, monkeypatch, graph):
        # Search s of a cell draws the same uniforms in simulate_single,
        # through the integer reference, as in the lockstep; the graphs'
        # times are integers, so the totals agree bit for bit. With 7
        # scratch rows for 12 searches a cell, a row serves several cells.
        g = self.graph(graph)
        cfg = OnstreetConfig(n_samples=12, seed=6)
        monkeypatch.setattr(onstreet_sim, "SCRATCH_ENTRIES", 7 * len(g.block_ids))
        totals = {}
        lockstep = onstreet_sim._lockstep

        def spy(g, hour_of, dest_of, *args):
            for i, j, *result in lockstep(g, hour_of, dest_of, *args):
                for c, (at, dest) in enumerate(zip(i.tolist(), j.tolist())):
                    totals[g.block_ids[dest], self.HOURS[at]] = result[0][c].tolist()
                yield i, j, *result

        monkeypatch.setattr(onstreet_sim, "_lockstep", spy)
        p = np.random.default_rng(14).uniform(0.05, 0.6, (len(self.HOURS), len(g.block_ids)))
        estimate_onstreet_time(g, p, self.HOURS, cfg, W)
        assert len(totals) == p.size
        for i, hour in enumerate(self.HOURS):
            probs = dict(zip(g.block_ids, p[i].tolist()))
            for dest in g.block_ids:
                walk = midpoint_table(g, dest, lambda e: e.walk_time_s)
                dist = midpoint_table(g, dest, lambda e: e.length_m)
                scalar = [simulate_single(g, probs, dest, cfg, W, hour,
                                          SearchDraws(cfg.seed, dest, hour, sample),
                                          walk_s=walk, dist_m=dist).total_s
                          for sample in range(cfg.n_samples)]
                assert scalar == totals[dest, hour], (dest, hour)

    @staticmethod
    def spy_draws(monkeypatch):
        """Record every draw call of the lockstep as {search key: draw
        number}. A batch's first checks are draw 0; each step of the pool
        then makes a choice call (odd numbers) and a check call over the
        searches that hold rows, each at its own step."""
        calls = []

        def spy(keys, counter):
            calls.append(dict(zip(keys.tolist(), np.broadcast_to(counter, keys.shape).tolist())))
            return counter_uniform(keys, counter)

        monkeypatch.setattr(onstreet_sim, "counter_uniform", spy)
        return calls

    def cell_of(self, g, cfg):
        """The (destination, hour) cell of every search key."""
        cell_keys = {}
        for dest, hour in itertools.product(g.block_ids, self.HOURS):
            cell_key = stream_key(cfg.seed, *cell_labels(dest, hour))
            cell_keys.update(dict.fromkeys(stream_key(cell_key, np.arange(cfg.n_samples)).tolist(),
                                           (dest, hour)))
        return cell_keys

    def admitted_over_steps(self, g, cfg, calls):
        """The cells whose searches drew their first choice (draw 1), and so
        took a scratch row, in more than one step."""
        cell, steps = self.cell_of(g, cfg), {}
        for k, call in enumerate(calls):
            for key in (key for key, counter in call.items() if counter == 1):
                steps.setdefault(cell[key], set()).add(k)
        return [c for c, ks in steps.items() if len(ks) > 1]

    def row_passed_between_cells(self, g, cfg, rows, calls):
        """Whether, between two steps while other searches went on, a search
        of one cell must have taken a row that a search of another cell
        freed: more searches took rows than were free before the step's
        searches ended, by more than the searches that ended and took rows
        could pair within their cells. Asserts that no step has more
        searches than rows."""
        cell = self.cell_of(g, cfg)
        steps = [call for call in calls if call and min(call.values()) % 2]   # choice calls
        assert max(map(len, steps)) <= rows
        for before, after in zip(steps, steps[1:]):
            admitted = collections.Counter(cell[key] for key, n in after.items() if n == 1)
            ended = collections.Counter(cell[key] for key in before.keys() - after.keys())
            recycled = sum(admitted.values()) - (rows - len(before))
            if before.keys() & after.keys() and recycled > sum((admitted & ended).values()):
                return True
        return False

    @pytest.mark.parametrize("graph", ["grid", "one_way_ring"])
    @pytest.mark.parametrize("weights", [W, PolicyWeights(0.0, -30.0, 0.0, 0.0)],
                             ids=["default", "revisit_only"])
    def test_few_survivors_split_into_groups(self, monkeypatch, graph, weights):
        # Scratch rows for one cell's searches and a batch of four cells.
        # At availability 0.55 to 0.75 a cell keeps about a third of its
        # searches after the first check, so a batch's survivors outnumber
        # the rows: they queue, a cell's survivors take rows over several
        # steps, and a row freed by one cell's search goes to another's.
        # With the visit term alone, a row's seeded visit to its
        # destination steers the choices.
        g = self.graph(graph)
        cfg = OnstreetConfig(n_samples=30, seed=12)
        monkeypatch.setattr(onstreet_sim, "SCRATCH_ENTRIES", cfg.n_samples * len(g.block_ids))
        calls = self.spy_draws(monkeypatch)
        p = np.random.default_rng(11).uniform(0.55, 0.75, (len(self.HOURS), len(g.block_ids)))
        self.assert_cells_equal(g, p, cfg, weights)
        assert self.admitted_over_steps(g, cfg, calls)
        assert self.row_passed_between_cells(g, cfg, cfg.n_samples, calls)

    @pytest.mark.parametrize("table_chunk", [1, 5, 64])
    @pytest.mark.parametrize("rows", [None, 7], ids=["default_scratch", "7_rows"])
    def test_outputs_do_not_depend_on_chunking(self, monkeypatch, table_chunk, rows):
        # 7 scratch rows for 20 searches a cell: a cell's survivors take
        # rows over several steps, freed by searches of other cells. With
        # the default scratch every survivor of a batch takes a row at once.
        g = self.graph("grid")
        cfg = OnstreetConfig(n_samples=20, seed=5)
        p = np.random.default_rng(9).uniform(0.05, 0.6, (len(self.HOURS), len(g.block_ids)))
        default = estimate_onstreet_time(g, p, self.HOURS, cfg, W)
        monkeypatch.setattr(onstreet_sim, "TABLE_CHUNK", table_chunk)
        if rows:
            monkeypatch.setattr(onstreet_sim, "SCRATCH_ENTRIES", rows * len(g.block_ids))
        calls = self.spy_draws(monkeypatch)
        est = estimate_onstreet_time(g, p, self.HOURS, cfg, W)
        for name in ("mean_s", "std_s", "censored_fraction"):
            assert np.array_equal(getattr(est, name), getattr(default, name)), name
        assert bool(self.admitted_over_steps(g, cfg, calls)) == bool(rows)
        if rows:
            assert self.row_passed_between_cells(g, cfg, rows, calls)

    @pytest.mark.parametrize("graph", ["grid", "one_way_ring"])
    def test_three_rows_serve_every_cell(self, monkeypatch, graph):
        # 3 scratch rows for 20 searches a cell at availability 0.05 to
        # 0.3, and a cap that censors some searches but not all: every row
        # serves many searches of many cells, some parked, some censored
        g = self.graph(graph)
        cfg = OnstreetConfig(n_samples=20, seed=15, max_search_s=150.0)
        monkeypatch.setattr(onstreet_sim, "SCRATCH_ENTRIES", 3 * len(g.block_ids))
        calls = self.spy_draws(monkeypatch)
        p = np.random.default_rng(16).uniform(0.05, 0.3, (len(self.HOURS), len(g.block_ids)))
        est = self.assert_cells_equal(g, p, cfg)
        assert 0 < est.censored_fraction.mean() < 1
        assert self.row_passed_between_cells(g, cfg, 3, calls)

    @pytest.mark.parametrize("graph", ["grid", "one_way_ring"])
    def test_later_batch_does_not_wait_for_the_slowest_search(self, monkeypatch, graph):
        # One destination a table chunk and 9 rows for 20 searches a cell:
        # a batch is one cell, first the destination at 8:00, where no block
        # is ever available, so all its searches run to the cap. Rows freed
        # as they end take the next batch's searches, the destination at
        # 17:00, before the last of them ends.
        g = self.graph(graph)
        cfg = OnstreetConfig(n_samples=20, seed=17)
        monkeypatch.setattr(onstreet_sim, "TABLE_CHUNK", 1)
        monkeypatch.setattr(onstreet_sim, "SCRATCH_ENTRIES", 9 * len(g.block_ids))
        calls = self.spy_draws(monkeypatch)
        p = np.random.default_rng(18).uniform(0.05, 0.6, (len(self.HOURS), len(g.block_ids)))
        p[0] = 0.0
        est = self.assert_cells_equal(g, p, cfg)
        assert (est.censored_fraction[0] == 1.0).all() and (est.censored_fraction[1] < 1.0).all()
        cell, dest = self.cell_of(g, cfg), g.block_ids[0]
        drew = [{cell[key] for key in call} for call in calls]
        slow_last = max(k for k, cells in enumerate(drew) if (dest, self.HOURS[0]) in cells)
        assert min(k for k, cells in enumerate(drew) if (dest, self.HOURS[1]) in cells) < slow_last

    @staticmethod
    def peak_bytes(g, p, cfg, hours=(12,)):
        tracemalloc.start()
        try:
            estimate_onstreet_time(g, p, hours, cfg, W)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_allocation_bounded_by_scratch_budget(self):
        # 12 bytes per scratch entry (int32 visits, float64 last-check
        # times) for SCRATCH_ENTRIES entries, plus 1 MiB for one table
        # chunk's relaxation and a first-check batch. 546 rows of 360
        # blocks fit the budget, so the scratch holds one cell's 400
        # searches and 146 more.
        g = grid_graph(10)
        n = 400
        assert n * len(g.block_ids) <= onstreet_sim.SCRATCH_ENTRIES < 2 * n * len(g.block_ids)
        p = np.random.default_rng(6).uniform(0.6, 1.0, (1, len(g.block_ids)))
        peak = self.peak_bytes(g, p, OnstreetConfig(n_samples=n))
        assert peak < 12 * onstreet_sim.SCRATCH_ENTRIES + 2 ** 20

    def test_peak_allocation_does_not_grow_with_cells(self):
        # 360 destinations at 1 hour and at 24: a first-check batch spans
        # as many searches in both, so 24 times the cells add only the
        # (hour, block) inputs and outputs
        g = grid_graph(10)
        cfg = OnstreetConfig(n_samples=50)
        p = np.random.default_rng(13).uniform(0.6, 1.0, (24, len(g.block_ids)))
        one, every = (self.peak_bytes(g, p[:len(hours)], cfg, hours)
                      for hours in ((12,), tuple(range(24))))
        assert every < one + 2 ** 20

    def test_long_searches_do_not_grow_memory(self):
        # 600 searches that never park, about 50 steps each and then about
        # 1,000: a record of every scratch entry they touch would grow by
        # 4.8 MB
        g = line_graph()
        p = np.zeros((1, len(g.block_ids)))
        short, long = (self.peak_bytes(g, p, OnstreetConfig(n_samples=100, max_search_s=cap))
                       for cap in (1e3, 2e4))
        assert long < short + 2 ** 16


class TestProbabilityVector:
    """The availability input sim-on reads: one (hour, block) array whose
    column ``j`` is block ``g.block_ids[j]``, from a checked CSV."""

    @staticmethod
    def read(tmp_path, g, probs, hour=8):
        path = tmp_path / "availability.csv"
        write_table(path, AVAILABILITY_COLUMNS,
                    [[block, hour, repr(p)] for block, p in probs.items()])
        return _read_cells(path, AVAILABILITY_COLUMNS, "p_available", g, (hour,))

    def test_index_order(self, tmp_path):
        g = line_graph()
        probs = {eid: i / 10.0 for i, eid in enumerate(["r2", "e0", "r0", "e2", "e1", "r1"])}
        assert g.block_ids == ("e0", "e1", "e2", "r0", "r1", "r2")
        assert list(self.read(tmp_path, g, probs)[0]) == [0.1, 0.4, 0.3, 0.2, 0.5, 0.0]

    @pytest.mark.parametrize("edit", [
        lambda probs: probs.pop("e1"),
        lambda probs: probs.update(x=0.5),
        lambda probs: probs.update(e1=1.5),
        lambda probs: probs.update(e1=-0.1),
        lambda probs: probs.update(e1=math.nan),
    ], ids=["missing", "unknown", "above_one", "negative", "nan"])
    def test_rejected(self, tmp_path, edit):
        g = line_graph()
        probs = {eid: 0.5 for eid in g.block_ids}
        edit(probs)
        with pytest.raises(DataError):
            self.read(tmp_path, g, probs)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_samples": 0}, {"n_samples": 2.5}, {"n_samples": True},
        {"max_search_s": math.inf}, {"max_search_s": 0.0},
        {"elapsed_cap_s": math.nan}, {"p_floor": 0.0}, {"p_floor": 1.5},
        {"min_park_s": "x"}, {"seed": 1.5},
    ])
    def test_onstreet_config_rejected(self, kwargs):
        with pytest.raises(DataError):
            OnstreetConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"distance_weight": "x"}, {"revisit_weight": math.inf},
        {"elapsed_weight": math.nan}, {"scarcity_weight": True},
    ])
    def test_policy_weights_rejected(self, kwargs):
        with pytest.raises(DataError):
            PolicyWeights(**kwargs)
