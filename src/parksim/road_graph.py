"""City road network: intersections, directed block faces, travel-time queries.

Blocks are directed edges between intersections. All block-to-block times
and distances use a midpoint convention: half of the first block, interior
blocks in full, half of the last block. Destinations and parked cars are
assumed to sit mid-block, so the first/last halves are what a driver or
pedestrian actually covers.

Driving respects edge direction; walking does not (pedestrians ignore
one-way restrictions). Drive times vary by hour of day, walk times are
constant.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path
from typing import Callable, Iterable

from .errors import DataError

HOURS = 24


@dataclass(frozen=True)
class Intersection:
    id: str
    lat: float
    lon: float


@dataclass(frozen=True)
class BlockFace:
    """One directed side of a street segment between two intersections."""

    id: str
    from_node: str
    to_node: str
    length_m: float
    meter_count: int
    walk_time_s: float
    drive_time_s: tuple[float, ...]  # exactly 24 entries, one per hour


@dataclass(frozen=True)
class RoadGraph:
    """Validated, immutable road network.

    ``adjacency`` maps each node to its outgoing block-face ids sorted by
    id; ``walk_adjacency`` ignores direction and maps each node to
    (edge id, opposite node) pairs. Both are derived, never supplied.
    """

    nodes: dict[str, Intersection]
    edges: dict[str, BlockFace]
    adjacency: dict[str, tuple[str, ...]]
    walk_adjacency: dict[str, tuple[tuple[str, str], ...]]

    def edge(self, edge_id: str) -> BlockFace:
        try:
            return self.edges[edge_id]
        except KeyError:
            raise DataError(f"unknown block id: {edge_id!r}") from None


def build_graph(nodes: Iterable[Intersection], edges: Iterable[BlockFace]) -> RoadGraph:
    """Assemble and validate a graph from parts.

    Rejects duplicate ids, dangling or self-loop edges, nonpositive lengths
    or times, drive tables that do not cover 24 hours, weakly disconnected
    inputs, and nodes a driver could enter but never leave.
    """
    node_map: dict[str, Intersection] = {}
    for n in nodes:
        if n.id in node_map:
            raise DataError(f"duplicate node id: {n.id!r}")
        if not (math.isfinite(n.lat) and math.isfinite(n.lon)):
            raise DataError(f"node {n.id!r} has non-finite coordinates")
        node_map[n.id] = n

    edge_map: dict[str, BlockFace] = {}
    for e in edges:
        if e.id in edge_map:
            raise DataError(f"duplicate edge id: {e.id!r}")
        if e.from_node not in node_map or e.to_node not in node_map:
            raise DataError(f"edge {e.id!r} references unknown node")
        if e.from_node == e.to_node:
            raise DataError(f"edge {e.id!r} is a self-loop")
        if not (math.isfinite(e.length_m) and e.length_m > 0):
            raise DataError(f"edge {e.id!r} has nonpositive length")
        if e.meter_count < 0:
            raise DataError(f"edge {e.id!r} has negative meter count")
        if not (math.isfinite(e.walk_time_s) and e.walk_time_s > 0):
            raise DataError(f"edge {e.id!r} has nonpositive walk time")
        if len(e.drive_time_s) != HOURS:
            raise DataError(
                f"edge {e.id!r} needs {HOURS} hourly drive times, got {len(e.drive_time_s)}"
            )
        if not all(math.isfinite(t) and t > 0 for t in e.drive_time_s):
            raise DataError(f"edge {e.id!r} has nonpositive or non-finite drive time")
        edge_map[e.id] = e

    if not node_map or not edge_map:
        raise DataError("graph needs at least one node and one edge")

    out_lists: dict[str, list[str]] = {nid: [] for nid in node_map}
    walk_lists: dict[str, list[tuple[str, str]]] = {nid: [] for nid in node_map}
    for e in edge_map.values():
        out_lists[e.from_node].append(e.id)
        walk_lists[e.from_node].append((e.id, e.to_node))
        walk_lists[e.to_node].append((e.id, e.from_node))

    # A node that can be entered but not left would strand the search
    # simulator; the U-turn back edge must exist in the input.
    for e in edge_map.values():
        if not out_lists[e.to_node]:
            raise DataError(
                f"node {e.to_node!r} is a dead end for drivers (no outgoing block)"
            )

    _check_weakly_connected(node_map, walk_lists)

    adjacency = {nid: tuple(sorted(ids)) for nid, ids in out_lists.items()}
    walk_adjacency = {nid: tuple(sorted(pairs)) for nid, pairs in walk_lists.items()}
    return RoadGraph(nodes=node_map, edges=edge_map, adjacency=adjacency,
                     walk_adjacency=walk_adjacency)


def _check_weakly_connected(nodes: dict[str, Intersection],
                            walk_lists: dict[str, list[tuple[str, str]]]) -> None:
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        current = stack.pop()
        for _, other in walk_lists[current]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    if len(seen) != len(nodes):
        missing = sorted(set(nodes) - seen)[:5]
        raise DataError(f"graph is not weakly connected; unreachable nodes include {missing}")


def load_graph(path: str | os.PathLike) -> RoadGraph:
    """Load and validate a graph file (JSON with `nodes` and `edges`)."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read graph file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed graph file {path}: {exc}") from exc
    if not isinstance(raw, dict) or "nodes" not in raw or "edges" not in raw:
        raise DataError("graph file must be an object with 'nodes' and 'edges'")

    try:
        nodes = [Intersection(id=str(n["id"]), lat=float(n["lat"]), lon=float(n["lon"]))
                 for n in raw["nodes"]]
        edges = [
            BlockFace(
                id=str(e["id"]),
                from_node=str(e["from"]),
                to_node=str(e["to"]),
                length_m=float(e["length_m"]),
                meter_count=int(e["meter_count"]),
                walk_time_s=float(e["walk_time_s"]),
                drive_time_s=tuple(float(t) for t in e["drive_time_s"]),
            )
            for e in raw["edges"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed graph record: {exc}") from exc
    return build_graph(nodes, edges)


def save_graph(g: RoadGraph, path: str | os.PathLike) -> None:
    """Write a graph in the same JSON format accepted by load_graph."""
    payload = {
        "nodes": [{"id": n.id, "lat": n.lat, "lon": n.lon}
                  for n in sorted(g.nodes.values(), key=lambda n: n.id)],
        "edges": [
            {
                "id": e.id,
                "from": e.from_node,
                "to": e.to_node,
                "length_m": e.length_m,
                "meter_count": e.meter_count,
                "walk_time_s": e.walk_time_s,
                "drive_time_s": list(e.drive_time_s),
            }
            for e in sorted(g.edges.values(), key=lambda e: e.id)
        ],
    }
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


def _check_hour(hour: int) -> int:
    if not isinstance(hour, int) or not 0 <= hour < HOURS:
        raise DataError(f"hour must be an integer in 0..23, got {hour!r}")
    return hour


def _dijkstra(init: dict[str, float],
              neighbors: Callable[[str], Iterable[tuple[str, float]]]) -> dict[str, float]:
    dist = dict(init)
    heap: list[tuple[float, str]] = []
    for node, d in sorted(init.items()):
        heappush(heap, (d, node))
    done: set[str] = set()
    while heap:
        d, node = heappop(heap)
        if node in done:
            continue
        done.add(node)
        for other, w in neighbors(node):
            nd = d + w
            if nd < dist.get(other, math.inf):
                dist[other] = nd
                heappush(heap, (nd, other))
    return dist


def _drive_neighbors(g: RoadGraph, hour: int) -> Callable[[str], Iterable[tuple[str, float]]]:
    def neighbors(node: str) -> Iterable[tuple[str, float]]:
        for eid in g.adjacency[node]:
            e = g.edges[eid]
            yield e.to_node, e.drive_time_s[hour]
    return neighbors


def _walk_neighbors(g: RoadGraph, weight: Callable[[BlockFace], float]):
    def neighbors(node: str) -> Iterable[tuple[str, float]]:
        for eid, other in g.walk_adjacency[node]:
            yield other, weight(g.edges[eid])
    return neighbors


def shortest_drive_time(g: RoadGraph, src_block: str, dst_block: str, hour: int) -> float:
    """Minimal midpoint-to-midpoint drive seconds from src to dst at an hour."""
    _check_hour(hour)
    src = g.edge(src_block)
    dst = g.edge(dst_block)
    if src_block == dst_block:
        return 0.0
    dist = _dijkstra({src.to_node: src.drive_time_s[hour] / 2.0},
                     _drive_neighbors(g, hour))
    if dst.from_node not in dist:
        raise DataError(f"no drive path from {src_block!r} to {dst_block!r}")
    return dist[dst.from_node] + dst.drive_time_s[hour] / 2.0


def walk_times_to_block(g: RoadGraph, dest_block: str) -> dict[str, float]:
    """Walk seconds from every block midpoint to the destination midpoint."""
    return _to_block_table(g, dest_block, lambda e: e.walk_time_s)


def block_distances_to_block(g: RoadGraph, dest_block: str) -> dict[str, float]:
    """Walking-network meters from every block midpoint to the destination."""
    return _to_block_table(g, dest_block, lambda e: e.length_m)


def _to_block_table(g: RoadGraph, dest_block: str,
                    weight: Callable[[BlockFace], float]) -> dict[str, float]:
    dest = g.edge(dest_block)
    half = weight(dest) / 2.0
    dist = _dijkstra({dest.from_node: half, dest.to_node: half},
                     _walk_neighbors(g, weight))
    table: dict[str, float] = {}
    for eid, e in g.edges.items():
        if eid == dest_block:
            table[eid] = 0.0
        else:
            table[eid] = weight(e) / 2.0 + min(dist[e.from_node], dist[e.to_node])
    return table


def drive_time_to_node(g: RoadGraph, src_block: str, node: str, hour: int) -> float:
    """Drive seconds from a block midpoint to an intersection (no half term
    on the node side; used for point destinations such as lot entrances)."""
    _check_hour(hour)
    src = g.edge(src_block)
    if node not in g.nodes:
        raise DataError(f"unknown node id: {node!r}")
    dist = _dijkstra({src.to_node: src.drive_time_s[hour] / 2.0},
                     _drive_neighbors(g, hour))
    if node not in dist:
        raise DataError(f"no drive path from {src_block!r} to node {node!r}")
    return dist[node]


def drive_times_to_node(g: RoadGraph, node: str, hour: int) -> dict[str, float]:
    """Drive seconds from every block midpoint to one intersection.

    Single reverse-graph search. Each entry equals drive_time_to_node for
    that block up to float summation order: the reverse search adds the
    same edge times starting from the node end, so the last digits can
    differ. Blocks that cannot reach the node are left out of the table.
    """
    _check_hour(hour)
    if node not in g.nodes:
        raise DataError(f"unknown node id: {node!r}")
    reverse: dict[str, list[tuple[str, float]]] = {nid: [] for nid in g.nodes}
    for e in g.edges.values():
        reverse[e.to_node].append((e.from_node, e.drive_time_s[hour]))
    for lst in reverse.values():
        lst.sort()
    dist = _dijkstra({node: 0.0}, lambda n: reverse[n])
    table: dict[str, float] = {}
    for eid, e in g.edges.items():
        if e.to_node in dist:
            table[eid] = e.drive_time_s[hour] / 2.0 + dist[e.to_node]
    return table


def walk_time_from_node(g: RoadGraph, node: str, dst_block: str) -> float:
    """Walk seconds from an intersection to a block midpoint."""
    return walk_times_from_node(g, node)[dst_block]


def walk_times_from_node(g: RoadGraph, node: str) -> dict[str, float]:
    """Walk seconds from one intersection to every block midpoint."""
    if node not in g.nodes:
        raise DataError(f"unknown node id: {node!r}")
    dist = _dijkstra({node: 0.0}, _walk_neighbors(g, lambda e: e.walk_time_s))
    return {
        eid: e.walk_time_s / 2.0 + min(dist[e.from_node], dist[e.to_node])
        for eid, e in g.edges.items()
    }
