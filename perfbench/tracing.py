"""In-memory spans and counters around the public functions of parksim.

Nothing in parksim is edited: ``traced`` replaces each function by a
wrapper under every module name that refers to it (the caller's own
import, such as ``onstreet_sim.walk_times_to_block``) and restores the
originals on exit. Spans nest by call order; a call made while a span of
the same name is open is not recorded, so only the outermost of nested
pairs such as ``walk_time_from_node`` -> ``walk_times_from_node`` counts.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from parksim import (cli, data_ingest, occupancy_model, offstreet_sim,
                     onstreet_sim, road_graph)

MODULES = (cli, data_ingest, occupancy_model, offstreet_sim, onstreet_sim,
           road_graph)

# (defining module, function) -> span name
SPANNED = {
    (road_graph, "load_graph"): "road_graph.load",
    # hour-independent walk and distance tables, single-query and table forms
    (road_graph, "walk_times_to_block"): "road_graph.walk_table",
    (road_graph, "block_distances_to_block"): "road_graph.walk_table",
    (road_graph, "walk_time_from_node"): "road_graph.walk_table",
    (road_graph, "walk_times_from_node"): "road_graph.walk_table",
    # hour-dependent drive searches
    (road_graph, "drive_time_to_node"): "road_graph.drive_table",
    (road_graph, "drive_times_to_node"): "road_graph.drive_table",
    (onstreet_sim, "estimate_onstreet_time"): "onstreet_sim.estimate",
    (offstreet_sim, "estimate_offstreet_time"): "offstreet_sim.estimate",
    (offstreet_sim, "simulate_lot_hour"): "offstreet_sim.lot_sim",
    (occupancy_model, "build_dataset"): "occupancy_model.dataset",
    (occupancy_model, "train"): "occupancy_model.fit",
    (occupancy_model, "train_baseline"): "occupancy_model.fit",
    (occupancy_model, "predict_block_probabilities"): "occupancy_model.predict",
    (data_ingest, "read_payments"): "data_ingest.read",
    (data_ingest, "read_surveys"): "data_ingest.read",
    (data_ingest, "read_lots"): "data_ingest.read",
    (data_ingest, "read_lot_events"): "data_ingest.read",
    (data_ingest, "read_rates_csv"): "data_ingest.read",
    (data_ingest, "read_samples_csv"): "data_ingest.read",
    (data_ingest, "_atomic_write"): "cli.write",
    (occupancy_model, "save_model"): "cli.write",
}

# Called per SGD step or per block; counted without a span to keep the
# tracing overhead small.
COUNTED = {
    (occupancy_model, "gradient"): "occupancy_model.sgd_steps",
    (occupancy_model, "forward"): "occupancy_model.forward_calls",
}

# Position of the path argument of the functions spanned as "cli.write".
_WRITE_PATH_ARG = {"_atomic_write": 0, "save_model": 1}
# Functions whose first argument after the graph names a table's origin.
_TABLE_KEY_ARG = {"walk_times_to_block": "to_block",
                  "block_distances_to_block": "dist_to_block",
                  "walk_time_from_node": "from_node",
                  "walk_times_from_node": "from_node"}


@dataclass
class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 is a root."""

    spans: list[list] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    keys: dict[str, set] = field(default_factory=lambda: defaultdict(set))
    _stack: list[int] = field(default_factory=list)

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _spanned(tracer: Tracer, name: str, fn):
    fname = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.current() == name:
            return fn(*args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if fname in _TABLE_KEY_ARG:
            tracer.keys[name].add((_TABLE_KEY_ARG[fname], args[1]))
        elif fname == "estimate_onstreet_time":
            tracer.counts["onstreet_sim.searches"] += result.n_samples
        elif fname == "simulate_lot_hour":
            cfg = args[4]
            tracer.counts["offstreet_sim.ticks"] += (
                cfg.reps * max(1, int(round(3600.0 / cfg.tick_s))))
        elif fname in _WRITE_PATH_ARG:
            path = args[_WRITE_PATH_ARG[fname]]
            tracer.counts["cli.bytes_written"] += os.stat(path).st_size
        return result
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install wrappers for the duration of the block, then restore."""
    patched = []
    try:
        for table, make in ((SPANNED, _spanned), (COUNTED, _counted)):
            for (home, fname), name in table.items():
                original = getattr(home, fname)
                wrapper = make(tracer, name, original)
                for module in MODULES:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapper)
                        patched.append((module, fname, original))
        yield tracer
    finally:
        for module, fname, original in reversed(patched):
            setattr(module, fname, original)
