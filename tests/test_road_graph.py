"""Road graph loading, validation, and midpoint-convention path queries."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import tracemalloc
import zipfile

import numpy as np
import pytest

from parksim import road_graph
from parksim.errors import ConfigError, DataError
from parksim.road_graph import (
    GRAPH_INDEX_VERSION,
    RoadGraph,
    _atomic_write,
    block_distances_to_block,
    build_graph,
    drive_tables_to_nodes,
    drive_time_to_node,
    drive_times_to_node,
    load_graph,
    tables_to_blocks,
    walk_tables_from_nodes,
    walk_time_from_node,
    walk_times_from_node,
    walk_times_to_block,
)
from parksim.synth import SynthConfig, _grid_faces

from conftest import grid_graph, line_graph, make_edge, make_node, random_graph, ring_graph
from oracles import (block_records, brute_distance_m, brute_drive_time_to_node, brute_walk_time,
                     brute_walk_time_from_node, graph_file_records, midpoint_table, node_records,
                     out_blocks)


def write_graph_file(g, path):
    """Write ``g`` as a graph file of its records."""
    path.write_text(json.dumps(graph_file_records(g), sort_keys=True))


def reversed_graph(g):
    """``g`` built again from its records in reverse order."""
    records = graph_file_records(g)
    return build_graph({part: items[::-1] for part, items in records.items()})


def graph_file_payload(g=None):
    nodes = [
        {"id": "a", "lat": 49.0, "lon": -123.0},
        {"id": "b", "lat": 49.001, "lon": -123.0},
        {"id": "c", "lat": 49.001, "lon": -122.999},
        {"id": "d", "lat": 49.0, "lon": -122.999},
    ]
    square = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    edges = []
    for i, (u, v) in enumerate(square):
        for tag, (x, y) in (("f", (u, v)), ("r", (v, u))):
            edges.append({
                "id": f"e{i}{tag}", "from": x, "to": y, "length_m": 100.0,
                "meter_count": 3, "walk_time_s": 70.0,
                "drive_time_s": [12.0] * 24,
            })
    return {"nodes": nodes, "edges": edges}


class TestLoadGraph:
    def test_square_grid_counts(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_file_payload()))
        g = load_graph(path)
        assert len(g.node_ids) == 4
        assert len(g.block_ids) == 8

    def test_unknown_node_rejected(self, tmp_path):
        payload = graph_file_payload()
        payload["edges"][0]["to"] = "nope"
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_graph(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_graph(path)

    @pytest.mark.parametrize("record,field", [("nodes", "id"), ("edges", "id"),
                                              ("edges", "to")])
    def test_id_with_a_lone_surrogate_is_a_data_error(self, tmp_path, record, field):
        # a JSON escape of a lone surrogate: no UTF-8 file could hold the id
        payload = graph_file_payload()
        payload[record][0][field] += "\udc80"
        path, index = tmp_path / "g.json", tmp_path / "g.npz"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert "\\udc80" in path.read_text(encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{payload[record][0][field]!r} is not UTF-8")):
            load_graph(path, index)
        assert not index.exists()

    def test_index_of_a_version_2_graph_with_a_surrogate_id_is_not_reused(self, tmp_path,
                                                                          monkeypatch):
        # Version 2 took ids holding a lone surrogate and indexed them, with
        # the JSON escape in its labels. Such an index names the very bytes
        # of the file, so only its version keeps it from standing for them.
        payload = graph_file_payload()
        payload["edges"][0]["id"] += "\ud800"
        path, index = tmp_path / "g.json", tmp_path / "g.npz"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with monkeypatch.context() as patch:
            patch.setattr(road_graph, "GRAPH_INDEX_VERSION", 2)
            patch.setattr(road_graph, "_utf8", lambda text: True)
            assert payload["edges"][0]["id"] in load_graph(path, index).block_ids
        with np.load(index) as npz:
            assert npz["format_version"] == 2
        with pytest.raises(DataError, match="'.*\\\\ud800' is not UTF-8"):
            load_graph(path, index)

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le", "utf-32", "utf-32-be",
                                          "utf-8-sig"])
    def test_file_that_is_not_utf8_is_a_data_error(self, tmp_path, encoding):
        # json.loads of the bytes would detect each of these; a BOM is no
        # part of UTF-8 JSON either
        path, index = tmp_path / "g.json", tmp_path / "g.npz"
        path.write_bytes(json.dumps(graph_file_payload()).encode(encoding))
        with pytest.raises(DataError, match="malformed graph file"):
            load_graph(path, index)
        assert not index.exists()

    def test_non_ascii_ids_load(self, tmp_path):
        payload = graph_file_payload()
        payload["edges"][0]["id"] = "\u00e9\U0001f697"
        path = tmp_path / "g.json"
        path.write_bytes(json.dumps(payload, ensure_ascii=False).encode("utf-8"))
        assert "\u00e9\U0001f697" in load_graph(path).block_ids

    def test_meter_count_beyond_int64_loads(self, tmp_path):
        payload = graph_file_payload()
        payload["edges"][0]["meter_count"] = 10**30
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        g = load_graph(path)
        assert g.meter_count[g.position["e0f"]] == 10**30

    def test_save_then_load_round_trip(self, tmp_path):
        g = grid_graph(3)
        path = tmp_path / "g.json"
        write_graph_file(g, path)
        g2 = load_graph(path)
        assert block_records(g2) == block_records(g)
        assert node_records(g2) == node_records(g)


class TestValidation:
    def nodes(self, k=3):
        return [make_node(f"n{i}", 49.0, -123.0 + i * 1e-3) for i in range(k)]

    def ring(self, k=3):
        return [make_edge(f"e{i}", f"n{i}", f"n{(i + 1) % k}") for i in range(k)]

    def test_valid_ring_accepted(self):
        g = build_graph({"nodes": self.nodes(), "edges": self.ring()})
        assert g.node_ids == ("n0", "n1", "n2")
        assert g.block_ids == ("e0", "e1", "e2")

    def test_disconnected_rejected(self):
        nodes = self.nodes(3) + [make_node("x0", 50.0, -120.0), make_node("x1", 50.0, -119.9)]
        edges = self.ring() + [make_edge("ex", "x0", "x1"), make_edge("ex2", "x1", "x0")]
        with pytest.raises(DataError, match="connected"):
            build_graph({"nodes": nodes, "edges": edges})

    def test_dead_end_rejected(self):
        edges = self.ring() + [make_edge("dead", "n0", "n3")]
        with pytest.raises(DataError, match="dead end"):
            build_graph({"nodes": self.nodes(3) + [make_node("n3", 49.1, -123.0)],
                         "edges": edges})

    @pytest.mark.parametrize("field,value", [
        ("length_m", 0.0), ("length_m", -5.0),
        ("walk_time_s", 0.0), ("meter_count", -1),
    ])
    def test_bad_edge_values_rejected(self, field, value):
        edges = self.ring()
        edges[0] = edges[0] | {field: value}
        with pytest.raises(DataError):
            build_graph({"nodes": self.nodes(), "edges": edges})

    def test_self_loop_rejected(self):
        edges = self.ring() + [make_edge("loop", "n1", "n1")]
        with pytest.raises(DataError, match="edge 'loop' is a self-loop"):
            build_graph({"nodes": self.nodes(), "edges": edges})

    @pytest.mark.parametrize("lat", [math.nan, math.inf])
    def test_non_finite_coordinates_rejected(self, lat):
        nodes = self.nodes()
        nodes[1] = make_node("n1", lat, -123.0)
        with pytest.raises(DataError, match="node 'n1' has non-finite coordinates"):
            build_graph({"nodes": nodes, "edges": self.ring()})

    @pytest.mark.parametrize("field,value,message", [
        ("length_m", math.inf, "nonpositive length"),
        ("length_m", math.nan, "nonpositive length"),
        ("walk_time_s", math.inf, "nonpositive walk time"),
        ("walk_time_s", math.nan, "nonpositive walk time"),
        ("drive_time_s", [10.0] * 23 + [math.inf], "nonpositive or non-finite drive time"),
        ("drive_time_s", [math.nan] + [10.0] * 23, "nonpositive or non-finite drive time"),
    ])
    def test_non_finite_edge_values_rejected(self, field, value, message):
        edges = self.ring()
        edges[1] = edges[1] | {field: value}
        with pytest.raises(DataError, match=f"edge 'e1' has {message}"):
            build_graph({"nodes": self.nodes(), "edges": edges})

    def test_duplicate_node_id_rejected(self):
        nodes = self.nodes() + [make_node("n1", 49.5, -123.0)]
        with pytest.raises(DataError, match="duplicate node id: 'n1'"):
            build_graph({"nodes": nodes, "edges": self.ring()})

    def test_nul_ended_ids_are_no_duplicates(self, tmp_path, monkeypatch):
        # numpy str arrays drop trailing NULs, so they must not compare ids
        nodes = [make_node(nid, 49.0, -123.0 + k * 1e-3)
                 for k, nid in enumerate(["n", "n\x00", "m"])]
        edges = [make_edge("a", "n", "n\x00"), make_edge("a\x00", "n\x00", "m"),
                 make_edge("b", "m", "n")]
        g = build_graph({"nodes": nodes, "edges": edges})
        assert (g.node_ids, g.block_ids) == (("m", "n", "n\x00"), ("a", "a\x00", "b"))
        write_graph_file(g, tmp_path / "g.json")
        hit = load_miss_then_hit(tmp_path / "g.json", tmp_path / "g.npz", monkeypatch)
        assert_same_graph(hit, g)
        with pytest.raises(DataError, match="duplicate node id: 'n'"):
            build_graph({"nodes": nodes + [make_node("n", 49.5, -123.0)], "edges": edges})
        with pytest.raises(DataError, match="duplicate edge id: 'a'"):
            build_graph({"nodes": nodes, "edges": edges + [make_edge("a", "m", "n")]})

    @pytest.mark.parametrize("nodes,edges,message", [
        (0, 0, "graph needs at least one node and one edge"),
        (3, 0, "graph needs at least one node and one edge"),
        (0, 3, "edge 'e0' references unknown node"),
    ])
    def test_empty_node_or_edge_list_rejected(self, nodes, edges, message):
        with pytest.raises(DataError, match=message):
            build_graph({"nodes": self.nodes(nodes), "edges": self.ring(edges)})

    def test_wrong_drive_table_length_rejected(self):
        edges = self.ring()
        edges[0] = edges[0] | {"drive_time_s": [10.0] * 23}
        with pytest.raises(DataError):
            build_graph({"nodes": self.nodes(), "edges": edges})

    def test_mutated_valid_graphs_rejected(self):
        # validator property check: every mutation of a good input fails
        rng = np.random.default_rng(7)
        for trial in range(20):
            records = graph_file_records(random_graph(rng))
            nodes, edges = records["nodes"], records["edges"]
            kind = trial % 4
            if kind == 0:  # dangle an edge
                edges[0] = edges[0] | {"to": "ghost"}
            elif kind == 1:  # negative drive time somewhere
                edges[0] = edges[0] | {"drive_time_s": [-1.0] + [10.0] * 23}
            elif kind == 2:  # duplicate an edge id
                edges.append(edges[0])
            else:  # strand an isolated node
                nodes.append(make_node("lonely", 1.0, 1.0))
            with pytest.raises(DataError):
                build_graph(records)


class TestDenseIndex:
    def test_blocks_in_sorted_id_order(self):
        g = line_graph()
        assert g.block_ids == ("e0", "e1", "e2", "r0", "r1", "r2")
        assert [g.position[b] for b in g.block_ids] == list(range(6))
        assert g.drive_s.shape == (24, 6)

    def test_out_block_table_follows_adjacency(self, small_grid):
        g = small_grid
        outs = out_blocks(g)
        for i, block in enumerate(g.block_ids):
            out = [g.block_ids[k] for k in g.next_blocks[:, i][g.next_valid[:, i]]]
            assert tuple(out) == outs[g.node_ids[g.block_to[i]]]
            assert g.out_degree[i] == len(out)

    def test_input_order_irrelevant_to_every_column(self):
        g1 = line_graph()
        assert_same_graph(reversed_graph(g1), g1)


class TestDriveTime:
    """``drive_times_to_node``: reverse tables, checked against paths
    enumerated back from the node."""

    def test_three_edge_line(self):
        g = line_graph(drive_times=(10.0, 20.0, 30.0))
        # half of the first block, then every block to the node in full
        assert drive_times_to_node(g, "n3", 9)[g.position["e0"]] == 10.0 / 2 + 20.0 + 30.0

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            g = random_graph(rng, n_nodes=int(rng.integers(4, 8)), fractional=trial % 2 == 1)
            node = g.node_ids[int(rng.integers(len(g.node_ids)))]
            hour = int(rng.integers(24))
            table = drive_times_to_node(g, node, hour)
            assert table.shape == (len(g.block_ids),)
            for block in g.block_ids:
                assert table[g.position[block]] == brute_drive_time_to_node(g, block, node, hour)

    def test_unreachable_block_is_inf(self):
        # one-way A -> B into the sink cycle B <-> C: nothing drives back to A
        nodes = [make_node(n, 49.0, -123.0 + i * 1e-3) for i, n in enumerate("ABC")]
        g = build_graph({"nodes": nodes, "edges": [
            make_edge("ab", "A", "B"), make_edge("bc", "B", "C"), make_edge("cb", "C", "B")]})
        assert list(drive_times_to_node(g, "A", 8)) == [np.inf] * 3
        assert drive_times_to_node(g, "C", 8)[g.position["ab"]] == 6.0 + 12.0

    def test_unknown_block_raises(self, small_grid):
        with pytest.raises(DataError):
            drive_time_to_node(small_grid, "missing", "n1_1", 9)
        with pytest.raises(DataError):
            drive_times_to_node(small_grid, "missing", 9)

    def test_bad_hour_raises(self, small_grid):
        with pytest.raises(DataError):
            drive_times_to_node(small_grid, "n1_1", 24)

    def test_triangle_inequality_with_midblock_correction(self):
        # via any block b: drive to b's from-node, along b, then on to the node
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_graph(rng, n_nodes=6)
            hour = 10
            nodes = g.node_ids
            for _ in range(20):
                a, b = (g.block_ids[int(rng.integers(len(g.block_ids)))] for _ in range(2))
                node = nodes[int(rng.integers(len(nodes)))]
                to_node = drive_times_to_node(g, node, hour)
                to_b = drive_times_to_node(g, g.node_ids[g.block_from[g.position[b]]], hour)
                i, j = g.position[a], g.position[b]
                assert to_node[i] <= to_b[i] + g.drive_s[hour, j] / 2 + to_node[j] + 1e-9

    def test_insertion_order_irrelevant(self):
        g1 = line_graph()
        g2 = reversed_graph(g1)
        for hour in (0, 12):
            assert np.array_equal(drive_times_to_node(g1, "n3", hour),
                                  drive_times_to_node(g2, "n3", hour))


class TestWalkTime:
    def test_same_block_is_zero(self, small_grid):
        assert walk_times_to_block(small_grid, "v0_0S")[small_grid.position["v0_0S"]] == 0.0

    def test_three_edge_line(self):
        g = line_graph(walk_times=(60.0, 80.0, 100.0))
        assert walk_times_to_block(g, "e2")[g.position["e0"]] == 60.0 / 2 + 80.0 + 100.0 / 2

    def test_walk_uses_contraflow_shortcut_drive_does_not(self):
        # square a->b->c->d->a (one-way ring) plus a lone reverse edge c->b;
        # walking from the c->d face to the b->c face may cross any edge
        # freely, driving must keep to edge directions.
        nodes = [make_node(x, 49.0, -123.0 + i * 1e-3) for i, x in enumerate("abcd")]
        edges = [
            make_edge("ab", "a", "b", drive=10.0, walk=10.0),
            make_edge("bc", "b", "c", drive=10.0, walk=10.0),
            make_edge("cd", "c", "d", drive=10.0, walk=10.0),
            make_edge("da", "d", "a", drive=10.0, walk=10.0),
            make_edge("cb", "c", "b", drive=10.0, walk=10.0),
        ]
        g = build_graph({"nodes": nodes, "edges": edges})
        # drive cd -> b (where bc starts) must loop via d -> a: 5 + 10 + 10
        assert drive_times_to_node(g, "b", 9)[g.position["cd"]] == 25.0
        # walking can go straight back across cd's own from-node: 5 + 5
        assert walk_times_to_block(g, "bc")[g.position["cd"]] == 10.0

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_graph(rng, n_nodes=int(rng.integers(4, 8)))
            ids = g.block_ids
            src = ids[int(rng.integers(len(ids)))]
            dst = ids[int(rng.integers(len(ids)))]
            assert walk_times_to_block(g, dst)[g.position[src]] == brute_walk_time(g, src, dst)

    def test_bulk_table_matches_single_queries(self, small_grid):
        dest = "h1_0E"
        table = walk_times_to_block(small_grid, dest)
        assert table.shape == (len(small_grid.block_ids),)
        for eid in small_grid.block_ids:
            assert table[small_grid.position[eid]] == brute_walk_time(small_grid, eid, dest)


class TestBlockDistance:
    def test_same_block_zero(self, small_grid):
        assert block_distances_to_block(small_grid, "h0_0E")[small_grid.position["h0_0E"]] == 0.0

    def test_line_of_three_blocks(self):
        g = line_graph(lengths=(100.0, 100.0, 100.0))
        assert block_distances_to_block(g, "e2")[g.position["e0"]] == 200.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            g = random_graph(rng, n_nodes=6)
            ids = g.block_ids
            src = ids[int(rng.integers(len(ids)))]
            dst = ids[int(rng.integers(len(ids)))]
            table = block_distances_to_block(g, dst)
            assert table[g.position[src]] == brute_distance_m(g, src, dst)

    def test_bulk_table(self, small_grid):
        table = block_distances_to_block(small_grid, "h0_0E")
        assert table.shape == (len(small_grid.block_ids),)
        for eid in small_grid.block_ids:
            assert table[small_grid.position[eid]] == brute_distance_m(small_grid, eid, "h0_0E")


class TestNodeAnchoredQueries:
    def test_drive_to_adjacent_node_is_half_block(self, small_grid):
        e = block_records(small_grid)["h0_0E"]
        assert drive_time_to_node(small_grid, "h0_0E", e.to_node, 9) == e.drive_time_s[9] / 2

    def test_bulk_drive_table_matches_single(self, small_grid):
        node = "n1_1"
        table = drive_times_to_node(small_grid, node, 9)
        for eid in small_grid.block_ids:
            assert table[small_grid.position[eid]] == brute_drive_time_to_node(
                small_grid, eid, node, 9)

    def test_walk_table_from_node_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_graph(rng, n_nodes=int(rng.integers(4, 7)))
            node = g.node_ids[int(rng.integers(len(g.node_ids)))]
            table = walk_times_from_node(g, node)
            for eid in g.block_ids:
                assert table[g.position[eid]] == brute_walk_time_from_node(g, node, eid)

    def test_walk_from_node_half_term_on_block_side_only(self, small_grid):
        e = block_records(small_grid)["h0_0E"]
        assert walk_time_from_node(small_grid, e.from_node, "h0_0E") == e.walk_time_s / 2

    @pytest.mark.parametrize("graph", ["grid", "one_way_ring"])
    def test_node_tables_share_one_relaxation(self, graph):
        # every column, a repeated node's too, is its node's one-column table;
        # on the ring, whose paths can be enumerated, also the exact path sums
        g = grid_graph(4) if graph == "grid" else ring_graph()
        nodes = g.node_ids[::3] + g.node_ids[:1]
        walk = walk_tables_from_nodes(g, nodes)
        assert walk.shape == (len(g.block_ids), len(nodes))
        for c, node in enumerate(nodes):
            assert np.array_equal(walk[:, c], walk_times_from_node(g, node))
            if graph != "grid":
                assert walk[:, c].tolist() == [brute_walk_time_from_node(g, node, block)
                                               for block in g.block_ids]
        for hour in (0, 8, 17):
            drive = drive_tables_to_nodes(g, nodes, hour)
            assert drive.shape == walk.shape
            for c, node in enumerate(nodes):
                assert np.array_equal(drive[:, c], drive_times_to_node(g, node, hour))
                if graph != "grid":
                    assert drive[:, c].tolist() == [
                        brute_drive_time_to_node(g, block, node, hour) for block in g.block_ids]


class TestTablesToBlocks:
    """Tables of several destinations share one relaxation; each column is
    the same whichever other destinations share its matrix."""

    @pytest.mark.parametrize("graph", ["grid", "one_way_ring"])
    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["1", "7", "all"])
    def test_columns_independent_of_chunk_size(self, graph, chunk):
        g = grid_graph(4) if graph == "grid" else ring_graph()
        dests = np.arange(len(g.block_ids))
        size = chunk or dests.size
        for weight, one_column, edge_weight, brute in (
                (g.walk_s, walk_times_to_block, lambda e: e.walk_time_s, brute_walk_time),
                (g.length_m, block_distances_to_block, lambda e: e.length_m, brute_distance_m)):
            table = np.hstack([tables_to_blocks(g, dests[lo:lo + size], weight)
                               for lo in range(0, dests.size, size)])
            assert table.shape == (dests.size, dests.size)
            for j, dest in enumerate(g.block_ids):
                assert np.array_equal(table[:, j], one_column(g, dest)), dest
                if graph == "grid":
                    # enumerating the 4 x 4 grid's simple paths takes about
                    # 10 s a pair; Floyd-Warshall is exact on its integer weights
                    expected = midpoint_table(g, dest, edge_weight)
                    column = [expected[src] for src in g.block_ids]
                else:
                    column = [brute(g, src, dest) for src in g.block_ids]
                assert table[:, j].tolist() == column, dest

    def test_peak_allocation_is_one_gather_of_the_chunk(self):
        # a relaxation holds the seeded, the current and the relaxed
        # (node, chunk) matrices and one gather of k of them; one more
        # matrix covers the small per-call arrays. Adding into the gather
        # and into the block table in place keeps the peak there: a second
        # gather-sized temporary would need 2k + 3 matrices.
        g = grid_graph(10)
        k, nodes = g.walk_nbr.shape
        dests = np.arange(64)
        for weight in (g.walk_s, g.length_m):
            tracemalloc.start()
            try:
                tables_to_blocks(g, dests, weight)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < (k + 4) * nodes * dests.size * 8


def assert_same_graph(got: RoadGraph, want: RoadGraph):
    """Every field equal: values, and for arrays also dtype, shape and layout."""
    for f in dataclasses.fields(RoadGraph):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.flags.c_contiguous, a.flags.f_contiguous) == (
                b.dtype, b.shape, b.flags.c_contiguous, b.flags.f_contiguous), f.name
            assert np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name
            if isinstance(b, tuple):
                assert list(map(type, a)) == list(map(type, b)), f.name


def assert_columns_only(g: RoadGraph):
    """No field holds a record: only ids, ints and arrays of numbers."""
    for f in dataclasses.fields(RoadGraph):
        value = getattr(g, f.name)
        if isinstance(value, np.ndarray):
            assert value.dtype.kind in "bif", f.name
        else:
            items = value.items() if isinstance(value, dict) else enumerate(value)
            assert {(type(k), type(v)) for k, v in items} <= {(int, str), (int, int),
                                                                 (str, int)}, f.name


def no_parse(*args):
    raise AssertionError("the graph file was parsed beside a matching index")


def load_miss_then_hit(path, index, monkeypatch):
    """The graph loaded with no index, then beside a missing index, which
    writes it, then beside that index, which must not parse the file or
    check a record; all three must be the same, and hold columns only."""
    parsed = load_graph(path)
    if index.exists():
        index.unlink()
    missed = load_graph(path, index)
    assert index.exists()
    with monkeypatch.context() as patch:
        for name in ("build_graph", "_field", "_json_column"):
            patch.setattr(road_graph, name, no_parse)
        hit = load_graph(path, index)
    assert_same_graph(missed, parsed)
    assert_same_graph(hit, parsed)
    assert_columns_only(hit)
    return hit


# The seed-7 graphs of the benchmark workloads city6-8h, city10-3h and peak-lots.
WORKLOAD_SYNTH = {"city6-8h": SynthConfig(), "city10-3h": SynthConfig(grid_n=10, days=7),
                  "peak-lots": SynthConfig(grid_n=6, demand_scale=3.0, lot_capacity=120,
                                           lot_nodes=("n1_1", "n1_4", "n4_1", "n4_4"))}


class TestGraphIndex:
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_SYNTH))
    def test_hit_equals_parse_on_workload_graphs(self, tmp_path, monkeypatch, workload):
        nodes, faces, _ = _grid_faces(WORKLOAD_SYNTH[workload], np.random.default_rng(7))
        write_graph_file(build_graph({"nodes": nodes, "edges": faces}), tmp_path / "graph.json")
        load_miss_then_hit(tmp_path / "graph.json", tmp_path / "graph.npz", monkeypatch)

    def test_hit_equals_parse_on_random_graphs(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(11)
        for trial in range(12):
            g = random_graph(rng, n_nodes=int(rng.integers(2, 9)), fractional=trial % 2 == 1)
            write_graph_file(g, tmp_path / "graph.json")
            hit = load_miss_then_hit(tmp_path / "graph.json", tmp_path / "graph.npz", monkeypatch)
            assert_same_graph(hit, g)

    def test_meter_count_beyond_int64_survives_miss_and_hit(self, tmp_path, monkeypatch):
        payload = graph_file_payload()
        payload["edges"][0]["meter_count"] = 10**30
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        hit = load_miss_then_hit(path, tmp_path / "g.npz", monkeypatch)
        assert hit.meter_count[hit.position["e0f"]] == 10**30

    def test_nul_ended_ids_survive_miss_and_hit(self, tmp_path, monkeypatch):
        payload = graph_file_payload()
        for node in payload["nodes"]:
            node["id"] += "\x00"
        for edge in payload["edges"]:
            edge["from"] += "\x00"
            edge["to"] += "\x00"
        payload["edges"][0]["id"] = "e0f\x00"
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        hit = load_miss_then_hit(path, tmp_path / "g.npz", monkeypatch)
        assert hit.node_ids == ("a\x00", "b\x00", "c\x00", "d\x00")
        assert hit.block_ids[0] == "e0f\x00"
        assert hit.node_ids[hit.block_from[0]] == "a\x00"

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "member_not_npy",
                                        "other_version", "other_key"])
    def test_unusable_index_is_rebuilt(self, tmp_path, monkeypatch, damage):
        path, index = tmp_path / "g.json", tmp_path / "g.npz"
        path.write_text(json.dumps(graph_file_payload()))
        load_graph(path, index)
        good = index.read_bytes()
        if damage == "truncated":
            index.write_bytes(good[:len(good) // 2])
        elif damage == "garbage":
            index.write_bytes(b"not an index")
        elif damage == "member_not_npy":
            with zipfile.ZipFile(index, "w") as archive:
                archive.writestr("format_version.npy", b"")
        elif damage == "other_key":
            other = graph_file_payload()
            other["edges"][0]["walk_time_s"] = 71.0
            (tmp_path / "other.json").write_text(json.dumps(other))
            load_graph(tmp_path / "other.json", index)
        else:
            monkeypatch.setattr(road_graph, "GRAPH_INDEX_VERSION", GRAPH_INDEX_VERSION + 1)
        assert_same_graph(load_graph(path, index), load_graph(path))
        if damage == "other_version":
            with np.load(index) as npz:
                assert npz["format_version"] == GRAPH_INDEX_VERSION + 1
        else:
            assert index.read_bytes() == good

    def test_unwritable_index_is_a_config_error(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_file_payload()))
        (tmp_path / "g.npz").mkdir()
        with pytest.raises(ConfigError, match="cannot write .*g.npz"):
            load_graph(path, tmp_path / "g.npz")
        assert not list(tmp_path.glob("*.tmp"))


class TestAtomicWrite:
    def test_text_that_cannot_be_utf8_is_a_config_error_and_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old")
        with pytest.raises(ConfigError, match="cannot write .*out.csv.*surrogates"):
            _atomic_write(path, "block \ud800")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert path.read_text() == "old"

    def test_text_is_written_as_utf8(self, tmp_path):
        _atomic_write(tmp_path / "out.csv", "m\u00e9ter")
        assert (tmp_path / "out.csv").read_bytes() == "m\u00e9ter".encode("utf-8")

    def test_writers_of_one_path_do_not_share_a_file(self, tmp_path):
        # the inner writer renames its file over the path while the outer
        # one still writes; each needs a file of its own
        path = tmp_path / "out.bin"

        def outer(fh):
            fh.write(b"outer ")
            _atomic_write(path, "inner")
            fh.write(b"done")

        _atomic_write(path, outer)
        assert path.read_bytes() == b"outer done"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
