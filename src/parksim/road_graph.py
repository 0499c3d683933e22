"""City road network: intersections, directed block faces, travel-time tables.

Blocks are directed edges between intersections. All block-to-block times
and distances use a midpoint convention: half of the first block, interior
blocks in full, half of the last block. Destinations and parked cars are
assumed to sit mid-block, so the first/last halves are what a driver or
pedestrian actually covers.

Driving respects edge direction; walking does not (pedestrians ignore
one-way restrictions). Drive times vary by hour of day, walk times are
constant.

Every table is a float vector over the blocks in ``block_ids`` order, the
block ids sorted, so block ``i`` is ``block_ids[i]`` and ``position``
inverts that. Each table comes from one kernel over integer arrays: a
(node, column) matrix of path lengths, each column seeded at one table's
origin, iterated as ``dist = min(dist, min_k(dist[nbr[k]] + w[k]))`` until
nothing changes, where ``nbr[k, v]`` is the ``k``-th neighbour that ``v``
is reached from and ``w[k, v]`` the block joining them. Each relaxation
adds one block at the far end of a path, so every length is the left fold
of its path's weights from the origin, the same sums a heap Dijkstra
forms. Float addition of a positive weight is monotone and never shrinks
a sum, so both converge to the least such fold over all paths, bit for
bit. A converged column is a fixed point that the iterations other
columns still need leave unchanged, so no column depends on its neighbours.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable

import numpy as np

from .errors import ConfigError, DataError

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


def _derived():
    return field(compare=False, repr=False)


@dataclass(frozen=True)
class RoadGraph:
    """Validated, immutable road network.

    The fields after ``edges`` are dense integer views that ``build_graph``
    derives and that stay out of ``==`` and ``repr``. Blocks are numbered
    in ``block_ids`` order and nodes in sorted id order (``node_position``).

    - ``next_blocks[:, i]`` holds the out-blocks at block ``i``'s to-node in
      id order, padded by repeating the first; ``next_valid`` masks the
      padding and ``out_degree`` counts the real ones. Candidates run along
      axis 0, which numpy reduces several times faster than a short axis 1.
    - ``drive_s[hour, i]``, ``walk_s[i]`` and ``length_m[i]`` weigh block ``i``.
    - Node ``walk_nbr[k, v]`` reaches node ``v`` on foot along block
      ``walk_via[k, v]``, and in the reversed drive graph the to-node of
      ``v``'s out-block ``drive_via[k, v]`` reaches ``v``. Padding repeats
      the first entry, which leaves a minimum unchanged.
    """

    nodes: dict[str, Intersection]
    edges: dict[str, BlockFace]
    block_ids: tuple[str, ...] = _derived()
    position: dict[str, int] = _derived()
    node_position: dict[str, int] = _derived()
    block_from: np.ndarray = _derived()
    block_to: np.ndarray = _derived()
    next_blocks: np.ndarray = _derived()
    next_valid: np.ndarray = _derived()
    out_degree: np.ndarray = _derived()
    drive_s: np.ndarray = _derived()
    walk_s: np.ndarray = _derived()
    length_m: np.ndarray = _derived()
    walk_nbr: np.ndarray = _derived()
    walk_via: np.ndarray = _derived()
    drive_via: np.ndarray = _derived()

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

    block_ids = tuple(sorted(edge_map))
    position = {block: i for i, block in enumerate(block_ids)}
    node_position = {nid: j for j, nid in enumerate(sorted(node_map))}
    blocks = [edge_map[b] for b in block_ids]
    node_of = [node_position[e.to_node] for e in blocks]
    outs = [sorted(position[b] for b in out_lists[nid]) for nid in sorted(node_map)]
    next_blocks = _padded([outs[j] for j in node_of])
    out_degree = np.array([len(outs[j]) for j in node_of])
    walk = [sorted((position[eid], node_position[other]) for eid, other in walk_lists[nid])
            for nid in sorted(node_map)]
    return RoadGraph(
        nodes=node_map, edges=edge_map,
        block_ids=block_ids, position=position, node_position=node_position,
        block_from=np.array([node_position[e.from_node] for e in blocks]),
        block_to=np.array(node_of),
        next_blocks=next_blocks,
        next_valid=np.arange(len(next_blocks))[:, None] < out_degree,
        out_degree=out_degree,
        drive_s=np.array([e.drive_time_s for e in blocks]).T.copy(),
        walk_s=np.array([e.walk_time_s for e in blocks]),
        length_m=np.array([e.length_m for e in blocks]),
        walk_nbr=_padded([[j for _, j in arcs] for arcs in walk]),
        walk_via=_padded([[i for i, _ in arcs] for arcs in walk]),
        drive_via=_padded(outs))


def _padded(rows: list[list[int]]) -> np.ndarray:
    """Rows of unequal length as the columns of one integer array, each
    padded to the longest by repeating its first entry."""
    height = max(len(row) for row in rows)
    return np.array([row + row[:1] * (height - len(row)) for row in rows]).T.copy()


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
        raise DataError(f"graph file {path} must be an object with 'nodes' and 'edges'")

    try:
        nodes = [Intersection(id=str(n["id"]), lat=float(n["lat"]), lon=float(n["lon"]))
                 for n in raw["nodes"]]
        edges = [
            BlockFace(
                id=str(e["id"]),
                from_node=str(e["from"]),
                to_node=str(e["to"]),
                length_m=float(e["length_m"]),
                meter_count=_json_int(e["meter_count"], "meter_count"),
                walk_time_s=float(e["walk_time_s"]),
                drive_time_s=tuple(float(t) for t in e["drive_time_s"]),
            )
            for e in raw["edges"]
        ]
        return build_graph(nodes, edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed graph record in {path}: {exc}") from exc
    except DataError as exc:
        raise DataError(f"graph file {path}: {exc}") from exc


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
    _atomic_write(path, json.dumps(payload, sort_keys=True))


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer: ``2.5`` and ``true`` are not."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def _atomic_write(path: str | os.PathLike, content: str | Callable[[BinaryIO], None]) -> None:
    """Write ``content``, a text or a function that writes a binary file it
    is given, beside ``path``, creating its directory, then rename the file
    over ``path``, so no reader sees half a file. Every file the package
    writes comes here; a path that cannot be written is a ConfigError."""
    tmp = Path(str(path) + ".tmp")
    try:
        tmp.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, str):
            tmp.write_text(content)
        else:
            with open(tmp, "wb") as fh:
                content(fh)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _check_hour(hour: int) -> int:
    if not isinstance(hour, int) or not 0 <= hour < HOURS:
        raise DataError(f"hour must be an integer in 0..23, got {hour!r}")
    return hour


def _block(g: RoadGraph, block_id: str) -> int:
    return g.position[g.edge(block_id).id]


def _node(g: RoadGraph, node_id: str) -> int:
    if node_id not in g.node_position:
        raise DataError(f"unknown node id: {node_id!r}")
    return g.node_position[node_id]


def _relax(dist: np.ndarray, nbr: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Path lengths over the nodes from the seeded (node, column) ``dist``:
    iterate ``dist = min(dist, min_k(dist[nbr[k]] + w[k]))`` to its fixed
    point in every column."""
    w = w[:, :, None]
    while True:
        candidates = dist[nbr]
        candidates += w
        relaxed = candidates.min(axis=0)
        # the only (k, node, column) array: freed before the next gather
        del candidates
        np.minimum(dist, relaxed, out=relaxed)
        if np.array_equal(relaxed, dist):
            return dist
        dist = relaxed


def _walk_from(g: RoadGraph, weight: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """``weight``-path lengths from each column's seed nodes to every block
    midpoint, as a (block, column) matrix."""
    dist = _relax(dist, g.walk_nbr, weight[g.walk_via])
    table = dist[g.block_from]
    np.minimum(table, dist[g.block_to], out=table)
    table += weight[:, None] / 2.0  # float addition commutes, bit for bit
    return table


def tables_to_blocks(g: RoadGraph, dests: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Walking-network ``weight`` from every block midpoint to the midpoint
    of each block position in ``dests``, as a (block, destination) matrix."""
    columns = np.arange(len(dests))
    dist = np.full((len(g.node_position), len(dests)), math.inf)
    dist[g.block_from[dests], columns] = dist[g.block_to[dests], columns] = weight[dests] / 2.0
    table = _walk_from(g, weight, dist)
    table[dests, columns] = 0.0
    return table


def walk_times_to_block(g: RoadGraph, dest_block: str) -> np.ndarray:
    """Walk seconds from every block midpoint to the destination midpoint."""
    return tables_to_blocks(g, [_block(g, dest_block)], g.walk_s)[:, 0]


def block_distances_to_block(g: RoadGraph, dest_block: str) -> np.ndarray:
    """Walking-network meters from every block midpoint to the destination."""
    return tables_to_blocks(g, [_block(g, dest_block)], g.length_m)[:, 0]


def _seeded_at(g: RoadGraph, nodes: list[str]) -> np.ndarray:
    """A (node, column) matrix with column ``c`` seeded at ``nodes[c]``."""
    dist = np.full((len(g.node_position), len(nodes)), math.inf)
    dist[[_node(g, node) for node in nodes], np.arange(len(nodes))] = 0.0
    return dist


def walk_tables_from_nodes(g: RoadGraph, nodes: list[str]) -> np.ndarray:
    """Walk seconds from each intersection in ``nodes`` to every block
    midpoint, as a (block, node) matrix."""
    return _walk_from(g, g.walk_s, _seeded_at(g, nodes))


def walk_times_from_node(g: RoadGraph, node: str) -> np.ndarray:
    """Walk seconds from one intersection to every block midpoint."""
    return walk_tables_from_nodes(g, [node])[:, 0]


def drive_tables_to_nodes(g: RoadGraph, nodes: list[str], hour: int) -> np.ndarray:
    """Drive seconds from every block midpoint to each intersection in
    ``nodes`` at an hour, as a (block, node) matrix, with no half term on
    the node side (for point destinations such as lot entrances); ``inf``
    for a block that cannot reach the node.

    The search runs backwards from each node over reversed blocks, so each
    sum starts at the node end.
    """
    _check_hour(hour)
    drive_s = g.drive_s[hour]
    dist = _relax(_seeded_at(g, nodes), g.block_to[g.drive_via], drive_s[g.drive_via])
    return drive_s[:, None] / 2.0 + dist[g.block_to]


def drive_times_to_node(g: RoadGraph, node: str, hour: int) -> np.ndarray:
    """Drive seconds from every block midpoint to one intersection at an
    hour: one column of ``drive_tables_to_nodes``."""
    return drive_tables_to_nodes(g, [node], hour)[:, 0]


def drive_time_to_node(g: RoadGraph, src_block: str, node: str, hour: int) -> float:
    """Drive seconds from one block midpoint to an intersection."""
    return float(drive_times_to_node(g, node, hour)[_block(g, src_block)])


def walk_time_from_node(g: RoadGraph, node: str, dst_block: str) -> float:
    """Walk seconds from an intersection to one block midpoint."""
    return float(walk_times_from_node(g, node)[_block(g, dst_block)])
