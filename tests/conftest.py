"""Shared graph builders, payment records, session arrays and hypothesis
settings for the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import settings

from parksim.occupancy_model import micros, session_arrays
from parksim.road_graph import BlockFace, Intersection, RoadGraph, build_graph

# Every property test draws the same examples on every run and never
# times out, so the suite's result does not vary between runs.
settings.register_profile("parksim", derandomize=True, database=None, deadline=None)
settings.load_profile("parksim")


@dataclass(frozen=True)
class PaymentRecord:
    """One paid session, as the scanning oracles take it."""

    block_id: str
    start: datetime
    duration_s: float


def sessions_of(payments):
    """Session arrays of payment records: each ends at ``start +
    timedelta(seconds=duration_s)``, as ``read_payments`` defines it."""
    block_ids = list(dict.fromkeys(p.block_id for p in payments))
    return session_arrays(
        block_ids, np.array([block_ids.index(p.block_id) for p in payments], dtype=np.intp),
        np.array([micros(p.start) for p in payments], dtype=np.int64),
        np.array([micros(p.start + timedelta(seconds=p.duration_s)) for p in payments],
                 dtype=np.int64))


def block_sessions(sessions, block_id):
    """Block ``block_id``'s (starts, ends) in a ``SessionIndex``: its rows
    ``bounds[i]:bounds[i + 1]`` of both arrays."""
    i = sessions.block_ids.index(block_id)
    lo, hi = sessions.bounds[i], sessions.bounds[i + 1]
    return sessions.starts[lo:hi], sessions.ends[lo:hi]


def flat24(value: float) -> tuple[float, ...]:
    return tuple([float(value)] * 24)


def make_edge(eid, a, b, *, length=100.0, meters=4, walk=70.0, drive=12.0):
    drive_t = flat24(drive) if isinstance(drive, (int, float)) else tuple(drive)
    return BlockFace(id=eid, from_node=a, to_node=b, length_m=length,
                     meter_count=meters, walk_time_s=walk, drive_time_s=drive_t)


def line_graph(drive_times=(10.0, 20.0, 30.0), walk_times=(60.0, 80.0, 100.0),
               lengths=(100.0, 100.0, 100.0)) -> RoadGraph:
    """Chain a -> b -> c -> d with reverse edges so nothing dead-ends.

    Forward edges are e0, e1, e2 with the given attributes; reverse edges
    r0, r1, r2 mirror them.
    """
    n = len(drive_times)
    nodes = [Intersection(f"n{i}", 49.0 + i * 1e-3, -123.0) for i in range(n + 1)]
    edges = []
    for i in range(n):
        edges.append(make_edge(f"e{i}", f"n{i}", f"n{i+1}", length=lengths[i],
                               walk=walk_times[i], drive=drive_times[i]))
        edges.append(make_edge(f"r{i}", f"n{i+1}", f"n{i}", length=lengths[i],
                               walk=walk_times[i], drive=drive_times[i]))
    return build_graph(nodes, edges)


def grid_graph(n=3, *, length=100.0, walk=70.0, drive=12.0, meters=4) -> RoadGraph:
    """n x n intersection grid with both directions on every segment."""
    nodes = [Intersection(f"n{r}_{c}", 49.0 + r * 9e-4, -123.0 + c * 1.3e-3)
             for r in range(n) for c in range(n)]
    edges = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                edges.append(make_edge(f"h{r}_{c}E", f"n{r}_{c}", f"n{r}_{c+1}",
                                       length=length, walk=walk, drive=drive, meters=meters))
                edges.append(make_edge(f"h{r}_{c}W", f"n{r}_{c+1}", f"n{r}_{c}",
                                       length=length, walk=walk, drive=drive, meters=meters))
            if r + 1 < n:
                edges.append(make_edge(f"v{r}_{c}S", f"n{r}_{c}", f"n{r+1}_{c}",
                                       length=length, walk=walk, drive=drive, meters=meters))
                edges.append(make_edge(f"v{r}_{c}N", f"n{r+1}_{c}", f"n{r}_{c}",
                                       length=length, walk=walk, drive=drive, meters=meters))
    return build_graph(nodes, edges)


def ring_graph(n=5) -> RoadGraph:
    """One-way ring n0 -> n1 -> ... -> n0: block ``e{i}`` leaves ``n{i}``,
    with drive, walk and length distinct per block."""
    nodes = [Intersection(f"n{i}", 49.0 + i * 1e-3, -123.0) for i in range(n)]
    edges = [make_edge(f"e{i}", f"n{i}", f"n{(i + 1) % n}", length=100.0 + 20 * i,
                       walk=60.0 + 10 * i, drive=10.0 + 3 * i) for i in range(n)]
    return build_graph(nodes, edges)


def random_graph(rng: np.random.Generator, n_nodes=6, fractional=False) -> RoadGraph:
    """Random strongly-traversable graph with integer-valued times.

    Built from a random cycle (so every node can be exited) plus extra
    random directed edges, each paired with its reverse so walking and
    driving see the same segments. Integer weights keep half-plus-sum
    arithmetic exact for bit-level oracle comparison; ``fractional``
    draws non-integer drive times instead, whose sums round, so only an
    oracle that adds them in the same order agrees bit for bit.
    """
    nodes = [Intersection(f"n{i}", 49.0 + i * 1e-3, -123.0 + i * 1e-3)
             for i in range(n_nodes)]
    order = rng.permutation(n_nodes)
    pairs = set()
    for i in range(n_nodes):
        a, b = int(order[i]), int(order[(i + 1) % n_nodes])
        pairs.add((a, b))
    extra = rng.integers(1, n_nodes + 2)
    for _ in range(int(extra)):
        a, b = int(rng.integers(0, n_nodes)), int(rng.integers(0, n_nodes))
        if a != b:
            pairs.add((a, b))
    edges = []
    for a, b in sorted(pairs):
        if (b, a) in pairs and (b, a) < (a, b):
            continue  # reverse added together with the forward edge
        drive = float(rng.uniform(4, 60) if fractional else rng.integers(4, 60))
        walk = float(rng.integers(20, 200))
        length = float(rng.integers(40, 300))
        edges.append(make_edge(f"e{a}_{b}", f"n{a}", f"n{b}",
                               length=length, walk=walk, drive=drive))
        edges.append(make_edge(f"e{b}_{a}", f"n{b}", f"n{a}",
                               length=length, walk=walk, drive=drive))
    return build_graph(nodes, edges)


@pytest.fixture
def small_grid() -> RoadGraph:
    return grid_graph(3)
