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

A ``RoadGraph`` is its columns: node ids and coordinates, block ids, ends,
meter counts, lengths and times, and the adjacency derived from the ends.
``build_graph`` takes the graph file's own records, as ``json.loads`` gives
them: it checks their fields' JSON kinds as columns, then each rule once
over the columns, names the least id breaking the first rule broken, and
checks connectivity with this kernel. It and a graph index hit share one
derivation of the adjacency, ``_derived``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import operator
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError

HOURS = 24
# The layout of the graph index file; an index of another version is rebuilt.
GRAPH_INDEX_VERSION = 2


@dataclass(frozen=True, eq=False, repr=False)
class RoadGraph:
    """Validated, immutable road network, held as columns only. Nodes are
    numbered in ``node_ids`` order and blocks in ``block_ids`` order, both
    ids sorted; ``node_position`` and ``position`` invert them.

    - Node ``j`` lies at ``lat[j]``, ``lon[j]``. Block ``i`` runs from node
      ``block_from[i]`` to node ``block_to[i]``, has ``meter_count[i]``
      meters, a Python int of any size, and weighs ``drive_s[hour, i]``,
      ``walk_s[i]`` and ``length_m[i]``.
    - The fields after ``drive_s`` are the adjacency that ``_derived``
      builds from the block ends. ``next_blocks[:, i]`` holds the out-blocks
      at block ``i``'s to-node in id order, padded by repeating the first;
      ``next_valid`` masks the padding and ``out_degree`` counts the real
      ones. Candidates run along axis 0, which numpy reduces several times
      faster than a short axis 1.
    - Node ``walk_nbr[k, v]`` reaches node ``v`` on foot along block
      ``walk_via[k, v]``, and in the reversed drive graph the to-node of
      ``v``'s out-block ``drive_via[k, v]`` reaches ``v``. Padding repeats
      the first entry, which leaves a minimum unchanged.
    """

    node_ids: tuple[str, ...]
    node_position: dict[str, int]
    lat: np.ndarray
    lon: np.ndarray
    block_ids: tuple[str, ...]
    position: dict[str, int]
    block_from: np.ndarray
    block_to: np.ndarray
    meter_count: tuple[int, ...]
    length_m: np.ndarray
    walk_s: np.ndarray
    drive_s: np.ndarray
    next_blocks: np.ndarray
    next_valid: np.ndarray
    out_degree: np.ndarray
    walk_nbr: np.ndarray
    walk_via: np.ndarray
    drive_via: np.ndarray


def build_graph(graph: dict) -> RoadGraph:
    """The graph of a graph file's object as ``json.loads`` gives it:
    ``{"nodes": [{id, lat, lon}], "edges": [{id, from, to, length_m,
    meter_count, walk_time_s, drive_time_s}]}``.

    Each field's JSON kinds are checked first, as one column, field by field:
    ids and node references strings, coordinates, lengths and times numbers,
    ``meter_count`` an integer and ``drive_time_s`` an array. The first
    faulty field is named at its first record, as a KeyError, TypeError or
    ValueError. Then duplicate ids, non-finite coordinates, dangling or
    self-loop edges, empty graphs, nonpositive or non-finite lengths and
    times, negative meter counts, drive tables that do not cover 24 hours,
    nodes a driver could enter but never leave, and weakly disconnected
    inputs are DataErrors. Each rule is checked once over the columns in
    sorted id order, in the order below, so a faulty input is named by the
    first rule it breaks, at the least id that breaks it. Connectivity is one
    ``_relax`` over ``walk_nbr``.
    """
    nodes, edges = graph["nodes"], graph["edges"]
    ids = _field(nodes, "id", str, "node id")
    coords = [_field(nodes, "lat", float), _field(nodes, "lon", float)]
    edge_ids = _field(edges, "id", str, "edge id")
    froms, tos = _field(edges, "from", str), _field(edges, "to", str)
    length_m, meters = _field(edges, "length_m", float), _field(edges, "meter_count", int)
    walk_s, drives = _field(edges, "walk_time_s", float), _field(edges, "drive_time_s", list)
    drive_s = _json_column([t for times in drives for t in times], float, "drive time")

    # sorted, so a repeated id equals the next one; compared as Python
    # strings, since numpy str arrays drop trailing NULs
    node_order = sorted(range(len(ids)), key=ids.__getitem__)
    node_ids = [ids[j] for j in node_order]
    _reject(np.fromiter(map(operator.eq, node_ids[1:], node_ids), bool),
            "duplicate node id: {!r}", node_ids)
    coords = np.array([[column[j] for j in node_order] for column in coords], dtype=float)
    _reject(~np.isfinite(coords).all(axis=0), "node {!r} has non-finite coordinates", node_ids)

    order = sorted(range(len(edge_ids)), key=edge_ids.__getitem__)
    block_ids = [edge_ids[i] for i in order]
    _reject(np.fromiter(map(operator.eq, block_ids[1:], block_ids), bool),
            "duplicate edge id: {!r}", block_ids)
    node_position = {nid: j for j, nid in enumerate(node_ids)}
    block_from, block_to = (np.array([node_position.get(ends[i], -1) for i in order], dtype=int)
                            for ends in (froms, tos))
    _reject((block_from < 0) | (block_to < 0), "edge {!r} references unknown node", block_ids)
    if not ids or not edge_ids:
        raise DataError("graph needs at least one node and one edge")
    _reject(block_from == block_to, "edge {!r} is a self-loop", block_ids)
    length_m = np.array(length_m, dtype=float)[order]
    _reject(~_positive(length_m), "edge {!r} has nonpositive length", block_ids)
    meter_count = tuple(meters[i] for i in order)
    # a Python int of any size, which numpy compares as an object
    _reject(np.array(meter_count) < 0, "edge {!r} has negative meter count", block_ids)
    walk_s = np.array(walk_s, dtype=float)[order]
    _reject(~_positive(walk_s), "edge {!r} has nonpositive walk time", block_ids)
    hours = np.array([len(drives[i]) for i in order])
    _reject(hours != HOURS, f"edge {{!r}} needs {HOURS} hourly drive times, got {{}}",
            block_ids, hours)
    drive_s = np.array(drive_s, dtype=float).reshape(-1, HOURS)[order]
    _reject(~_positive(drive_s).all(axis=1), "edge {!r} has nonpositive or non-finite drive time",
            block_ids)

    # A node that can be entered but not left would strand the search
    # simulator; the U-turn back edge must exist in the input.
    n = len(node_ids)
    _reject((np.bincount(block_from, minlength=n) == 0) & (np.bincount(block_to, minlength=n) > 0),
            "node {!r} is a dead end for drivers (no outgoing block)", node_ids)

    g = _derived(node_ids, *coords, block_ids, block_from, block_to, meter_count, length_m,
                 walk_s, drive_s.T.copy())
    dist = np.full((n, 1), math.inf)
    dist[node_position[ids[0]]] = 0.0
    unreached = np.flatnonzero(_relax(dist, g.walk_nbr, np.zeros(g.walk_nbr.shape)) > 0)
    if len(unreached):
        missing = [node_ids[j] for j in unreached[:5]]
        raise DataError(f"graph is not weakly connected; unreachable nodes include {missing}")
    return g


def _derived(node_ids: Sequence[str], lat: np.ndarray, lon: np.ndarray, block_ids: Sequence[str],
             block_from: np.ndarray, block_to: np.ndarray, meter_count: Sequence[int],
             length_m: np.ndarray, walk_s: np.ndarray, drive_s: np.ndarray) -> RoadGraph:
    """The graph of checked columns, nodes and blocks in sorted id order,
    with its adjacency derived from the block ends."""
    n, blocks_at = len(node_ids), np.arange(len(block_ids))
    out_count, (drive_via,) = _padded(block_from, n, blocks_at)
    _, (walk_via, walk_nbr) = _padded(np.concatenate([block_from, block_to]), n,
                                      np.concatenate([blocks_at, blocks_at]),
                                      np.concatenate([block_to, block_from]))
    out_degree = out_count[block_to]
    next_blocks = drive_via[:out_degree.max()].take(block_to, axis=1)
    return RoadGraph(
        node_ids=tuple(node_ids), node_position={nid: j for j, nid in enumerate(node_ids)},
        lat=lat, lon=lon, block_ids=tuple(block_ids),
        position={block: i for i, block in enumerate(block_ids)}, block_from=block_from,
        block_to=block_to, meter_count=tuple(meter_count), length_m=length_m, walk_s=walk_s,
        drive_s=drive_s, next_blocks=next_blocks,
        next_valid=np.arange(len(next_blocks))[:, None] < out_degree, out_degree=out_degree,
        walk_nbr=walk_nbr, walk_via=walk_via, drive_via=drive_via)


def _reject(bad: np.ndarray, message: str, *columns: Sequence) -> None:
    """Raise ``message`` formatted with entry ``i`` of each column, at the
    first ``i`` where ``bad`` holds, if any does."""
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(message.format(*(column[i] for column in columns)))


def _positive(values: np.ndarray) -> np.ndarray:
    return np.isfinite(values) & (values > 0)


def _padded(group: np.ndarray, n: int, *values: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each group's entry count, and each of ``values`` as a (k, group) array
    whose column ``j`` lists group ``j``'s entries by ascending ``values[0]``,
    padded by repeating its first entry, or if it has none by ``j``."""
    order = np.lexsort((values[0], group))
    count = np.bincount(group, minlength=n)
    k = np.arange(count.max())[:, None]
    at = order[np.minimum(np.cumsum(count) - count + np.where(k < count, k, 0), len(group) - 1)]
    return count, [np.where(count > 0, value[at], np.arange(n)) for value in values]


def load_graph(path: str | os.PathLike, index: str | os.PathLike | None = None) -> RoadGraph:
    """Load and validate a graph file: ``build_graph`` of its JSON object. An
    ``index`` holding the file bytes' sha256 and GRAPH_INDEX_VERSION gives
    the graph with no parse or checks; any other is written anew after them."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read graph file {path}: {exc}") from exc
    if index is not None:
        key = hashlib.sha256(data).hexdigest()
        with contextlib.suppress(DataError, ValueError, TypeError, IndexError):
            return _read_graph_index(index, key)
    try:
        raw = json.loads(data)
    except ValueError as exc:
        raise DataError(f"malformed graph file {path}: {exc}") from exc
    if not isinstance(raw, dict) or "nodes" not in raw or "edges" not in raw:
        raise DataError(f"graph file {path} must be an object with 'nodes' and 'edges'")

    try:
        g = build_graph(raw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed graph record in {path}: {exc}") from exc
    except DataError as exc:
        raise DataError(f"graph file {path}: {exc}") from exc
    if index is not None:
        _write_index(index, {
            "format_version": np.array(GRAPH_INDEX_VERSION, np.int64),
            "graph_sha256": np.array(key),
            "labels": [g.node_ids, g.block_ids, g.meter_count],
            "coords": np.stack([g.lat, g.lon]),
            "ends": np.stack([g.block_from, g.block_to]),
            "times": np.vstack([g.length_m, g.walk_s, g.drive_s])})
    return g


def _read_graph_index(path: str | os.PathLike, key: str) -> RoadGraph:
    """The graph of the index at ``path`` if it holds ``key`` in this version;
    else a DataError, or another error if its columns do not fit together."""
    with _read_index(path, "graph index") as member:
        if (int(member("format_version", 0, np.int64)), str(member("graph_sha256", 0))) != (
                GRAPH_INDEX_VERSION, key):
            raise DataError(f"graph index {path} is of another graph or version")
        node_ids, block_ids, meter_count = member("labels", 1, np.uint8)
        lat, lon = member("coords", 2, np.float64)
        (block_from, block_to), times = member("ends", 2, np.int64), member("times", 2, np.float64)
    return _derived(node_ids, lat, lon, block_ids, block_from, block_to, meter_count, times[0],
                    times[1], times[2:])


# The Python types json.loads gives a JSON value of each kind; bool is no int.
_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), list: ((list,), "an array")}


def _json_column(column: list, kind: type, what: str) -> list:
    """``column`` as ``kind``s if its types, checked as one set, are JSON
    kinds of ``kind``: ``2.5`` is no integer, ``"1"`` no number, ``true``
    neither, ``["a"]`` no string. The first value that is not is named."""
    types, name = _JSON_KINDS[kind]
    if not set(map(type, column)).issubset(types):
        bad = next(value for value in column if type(value) not in types)
        raise ValueError(f"{what} {bad!r} is not {name}")
    return list(map(float, column)) if kind is float else column


def _field(records: Iterable[dict], key: str, kind: type, what: str | None = None) -> list:
    """``_json_column`` of field ``key``, named ``what`` (by default ``key``)."""
    return _json_column([record[key] for record in records], kind, what or key)


def _atomic_write(path: str | os.PathLike, content: str | Callable[[BinaryIO], None]) -> None:
    """Write ``content``, a text or a function that writes a binary file it
    is given, into a new file beside ``path``, creating its directory, then
    rename it over ``path``: no reader sees half a file, even of racing
    writers. Every file the package writes comes here; a path that cannot
    be written, or a text that is not UTF-8 (a lone surrogate), is a
    ConfigError."""
    tmp = Path(f"{path}.{os.urandom(8).hex()}.tmp")
    text = isinstance(content, str)
    try:
        tmp.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "x" if text else "xb", encoding="utf-8" if text else None) as fh:
            fh.write(content) if text else content(fh)
        os.replace(tmp, path)
    except (OSError, UnicodeEncodeError) as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_index(path: str | os.PathLike, arrays: dict[str, np.ndarray | list]) -> None:
    """Write ``arrays`` straight into an uncompressed ``.npz`` archive whose
    members have one fixed time, so the file depends on the arrays alone. A
    list is stored as its JSON text in uint8, since str arrays drop trailing
    NULs."""
    def write(fh) -> None:
        with zipfile.ZipFile(fh, "w") as archive:
            for name, array in arrays.items():
                if isinstance(array, list):
                    array = np.frombuffer(json.dumps(array).encode(), np.uint8)
                info = zipfile.ZipInfo(f"{name}.npy", (1980, 1, 1, 0, 0, 0))
                with archive.open(info, "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, array, allow_pickle=False)

    _atomic_write(path, write)


@contextlib.contextmanager
def _read_index(path: str | os.PathLike, what: str) -> Iterator[Callable[..., np.ndarray]]:
    """Yield ``member(name, ndim, dtype)`` of the ``.npz`` archive at ``path``,
    a ``what``: its array ``name``, unpickling nothing, and a uint8 one
    decoded as JSON. An archive that cannot be read, or an array not
    ``ndim``-d and of ``dtype`` (str if None), is a DataError."""
    try:
        npz = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise DataError(f"{what} {path} is not an .npz archive")

    def member(name: str, ndim: int, dtype: type | None = None) -> np.ndarray:
        try:
            array = np.asarray(npz[name])  # a member that is no .npy is bytes
            if array.ndim != ndim or (array.dtype != dtype if dtype else array.dtype.kind != "U"):
                raise ValueError(f"a {array.ndim}-d {array.dtype} array")
            return json.loads(array.tobytes()) if dtype is np.uint8 else array
        except (KeyError, OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise DataError(f"malformed {what} {path}: {name}: {exc}") from exc

    with npz:
        yield member


def _check_hour(hour: int) -> int:
    if not isinstance(hour, int) or not 0 <= hour < HOURS:
        raise DataError(f"hour must be an integer in 0..23, got {hour!r}")
    return hour


def _position(positions: dict[str, int], key: str, kind: str) -> int:
    if key not in positions:
        raise DataError(f"unknown {kind} id: {key!r}")
    return positions[key]


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
    return tables_to_blocks(g, [_position(g.position, dest_block, "block")], g.walk_s)[:, 0]


def block_distances_to_block(g: RoadGraph, dest_block: str) -> np.ndarray:
    """Walking-network meters from every block midpoint to the destination."""
    return tables_to_blocks(g, [_position(g.position, dest_block, "block")], g.length_m)[:, 0]


def _seeded_at(g: RoadGraph, nodes: list[str]) -> np.ndarray:
    """A (node, column) matrix with column ``c`` seeded at ``nodes[c]``."""
    dist = np.full((len(g.node_position), len(nodes)), math.inf)
    dist[[_position(g.node_position, node, "node") for node in nodes], np.arange(len(nodes))] = 0.0
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
    return float(drive_times_to_node(g, node, hour)[_position(g.position, src_block, "block")])


def walk_time_from_node(g: RoadGraph, node: str, dst_block: str) -> float:
    """Walk seconds from an intersection to one block midpoint."""
    return float(walk_times_from_node(g, node)[_position(g.position, dst_block, "block")])
