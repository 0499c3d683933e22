"""Child process of the benchmark: set-up or measurement of one workload.

    python3 perfbench/harness.py {setup,measure} --workload NAME --seed N
        --seconds S --trace {0,1} --work DIR --result FILE

``run.py`` starts it with ``src`` on PYTHONPATH, TZ pinned and the BLAS
thread count fixed, and reads the JSON it writes to ``--result``.

setup    generates the workload's synthetic city with ``parksim synth``
         (seeded with FIXTURE_SEED) into DIR/city, repeated as SETUP_CALLS
         says, and records each wall time.
measure  runs ingest, train, predict, sim-on, sim-off, diff and eval through
         ``parksim.cli.main``, a short stage repeated as STAGE_CALLS says,
         as a pass. The first pass is a warm-up; passes repeat while one
         more of average length fits in --seconds, and at least one
         follows the warm-up. The outputs of every pass are checked and
         hashed. With --trace 1 each untraced pass is followed by a traced
         one.

A host-speed probe is timed before and during every call; see
``timed_call``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from tracing import Tracer, traced  # noqa: E402
from workloads import FIXTURE_SEED, WORKLOADS  # noqa: E402

from parksim import cli  # noqa: E402

# (fewest calls, seconds the calls must add up to, most calls): synth, and
# a short stage within a timed untraced pass, are repeated so that they
# yield more calls. The warm-up pass and traced passes call each stage once.
SETUP_CALLS = (3, 3.0, 5)
STAGE_CALLS = (1, 0.4, 2)
ONE_CALL = (1, 0.0, 1)
STAGES = ("ingest", "train", "predict", "sim-on", "sim-off", "diff", "eval")
# Host-speed probe: a fixed pure-Python loop of about a millisecond, timed
# PRE_PROBES times before every call and then every PROBE_EVERY_S of wall
# time during it, from a SIGALRM handler. run.py scales each call's wall
# time, less the probes run inside it, by PROBE_REF_S over the mean probe
# time of that call. PROBE_REF_S is roughly the probe's time on the faster
# of the two speeds a shared 2-vCPU Intel Xeon VM alternates between.
PROBE_LOOPS = 5_000
PROBE_REF_S = 0.00075
PROBE_EVERY_S = 0.02
PRE_PROBES = 5


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def probe_s() -> float:
    """Wall time of the fixed host-speed probe."""
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(PROBE_LOOPS):
        table[i & 1023] = acc
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - start


def call_cli(argv: list[str]) -> int:
    """Exit code of one parksim command; a traceback counts as failure."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


class Probing:
    """Time the probe every PROBE_EVERY_S of wall time inside the block."""

    def __init__(self):
        self.probes: list[float] = []

    def _probe(self, signum, frame):
        self.probes.append(probe_s())

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self.previous)


def timed_call(argv: list[str], tracer=None) -> tuple[float, int, dict]:
    """Wall time, exit code and host speed of one parksim command.

    The host speed is the time and count of the probes run inside the call
    and the mean time of those and the PRE_PROBES before it. Traced, the
    command runs inside a root span named after it, and no probe runs
    inside it, so that spans hold parksim's work alone.
    """
    probes = [probe_s() for _ in range(PRE_PROBES)]
    sampler = Probing()
    if tracer is None:
        with sampler:
            start = time.perf_counter()
            code = call_cli(argv)
            elapsed = time.perf_counter() - start
    else:
        start = time.perf_counter()
        with tracer.span("cli." + argv[0]):
            code = call_cli(argv)
        elapsed = time.perf_counter() - start
    probes += sampler.probes
    host = {"probed_s": sum(sampler.probes), "probes": len(probes),
            "mean_probe_s": sum(probes) / len(probes)}
    return elapsed, code, host


def timed_calls(argv: list[str], calls: tuple[int, float, int],
                tracer=None) -> tuple[list[float], list[int], list[dict]]:
    """``timed_call`` repeated as ``calls`` says."""
    fewest, min_s, most = calls
    times: list[float] = []
    codes: list[int] = []
    hosts: list[dict] = []
    while True:
        t, code, host = timed_call(argv, tracer)
        times.append(t)
        codes.append(code)
        hosts.append(host)
        if code != 0 or len(times) >= most or (
                len(times) >= fewest and sum(times) >= min_s):
            return times, codes, hosts


def setup(workload, seed: int, work: Path) -> dict:
    config = work / "config.json"
    config.write_text(json.dumps(workload.run_config(seed, "city"), indent=1))
    times, codes, hosts = timed_calls(["synth", "--config", str(config),
                                       "--seed", str(FIXTURE_SEED),
                                       "--out", str(work / "city")], SETUP_CALLS)
    return {"setup_s": times, "exit_codes": codes, "host": hosts,
            "probe_ref_s": PROBE_REF_S}


def run_stages(config: Path, out_dir: Path, calls: tuple[int, float, int],
               tracer=None) -> dict:
    """One pass of the stage sequence: wall time, exit code and host speed
    of each call, by stage.

    Every stage rewrites the same outputs from the same inputs, so a
    repeated call repeats identical work. A failed call ends the
    repetition.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    times: dict[str, list[float]] = {}
    codes: dict[str, list[int]] = {}
    hosts: dict[str, list[dict]] = {}
    for stage in STAGES:
        times[stage], codes[stage], hosts[stage] = timed_calls(
            [stage, "--config", str(config), "--out", str(out_dir)], calls, tracer)
    return {"stage_s": times, "exit_codes": codes, "host": hosts}


def inspect_outputs(workload, work: Path, out_dir: Path) -> dict:
    """Checks, hashes and quality figures of one pass's outputs."""
    cfg = cli.load_run_config(str(work / "config.json"))
    try:
        results = checks.check_outputs(out_dir, work / "city", workload.hours,
                                       cfg.onstreet.min_park_s)
        quality = {"avail_brier": checks.avail_brier(out_dir, work / "city"),
                   "onstreet_se_s": checks.onstreet_se_s(out_dir)}
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError):
        traceback.print_exc()
        results, quality = {"outputs_readable": False}, {}
    return {"checks": results, "quality": quality,
            "hashes": checks.output_hashes(out_dir)}


def layer_metrics(tracer, stage_s: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and self time by stage and span."""
    own = tracer.self_times()
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    by_stage: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    root: list[int] = []
    for i, (name, _, _, parent) in enumerate(tracer.spans):
        root.append(i if parent < 0 else root[parent])
        total[name] += own[i]
        calls[name] += 1
        by_stage[tracer.spans[root[i]][0]][name] += own[i]
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "road_graph.load_s": total["road_graph.load"],
        "road_graph.load_calls": calls["road_graph.load"],
        "road_graph.walk_table_s": total["road_graph.walk_table"],
        "road_graph.walk_table_calls": calls["road_graph.walk_table"],
        "road_graph.walk_table_distinct_ratio": ratio(
            len(tracer.keys["road_graph.walk_table"]), calls["road_graph.walk_table"]),
        "road_graph.drive_table_s": total["road_graph.drive_table"],
        "road_graph.drive_table_calls": calls["road_graph.drive_table"],
        "onstreet_sim.estimates": calls["onstreet_sim.estimate"],
        "onstreet_sim.searches": counts["onstreet_sim.searches"],
        "onstreet_sim.search_s": total["onstreet_sim.estimate"],
        "onstreet_sim.us_per_search": 1e6 * ratio(total["onstreet_sim.estimate"],
                                                  counts["onstreet_sim.searches"]),
        "offstreet_sim.estimates": calls["offstreet_sim.estimate"],
        "offstreet_sim.lot_sims": calls["offstreet_sim.lot_sim"],
        "offstreet_sim.lot_sim_s": total["offstreet_sim.lot_sim"],
        "offstreet_sim.ticks": counts["offstreet_sim.ticks"],
        "offstreet_sim.us_per_tick": 1e6 * ratio(total["offstreet_sim.lot_sim"],
                                                 counts["offstreet_sim.ticks"]),
        "offstreet_sim.lot_cache_hit_ratio": 1.0 - ratio(calls["offstreet_sim.lot_sim"],
                                                         calls["offstreet_sim.estimate"]),
        "occupancy_model.dataset_s": total["occupancy_model.dataset"],
        "occupancy_model.dataset_calls": calls["occupancy_model.dataset"],
        "occupancy_model.fit_s": total["occupancy_model.fit"],
        "occupancy_model.fit_calls": calls["occupancy_model.fit"],
        "occupancy_model.sgd_steps": counts["occupancy_model.sgd_steps"],
        "occupancy_model.us_per_sgd_step": 1e6 * ratio(total["occupancy_model.fit"],
                                                       counts["occupancy_model.sgd_steps"]),
        "occupancy_model.predict_s": total["occupancy_model.predict"],
        "occupancy_model.forward_calls": counts["occupancy_model.forward_calls"],
        "data_ingest.read_s": total["data_ingest.read"],
        "data_ingest.read_calls": calls["data_ingest.read"],
        "cli.ingest_s": stage_s["ingest"][0],
        "cli.diff_s": stage_s["diff"][0],
        "cli.write_s": total["cli.write"],
        "cli.files_written": calls["cli.write"],
        "cli.bytes_written": counts["cli.bytes_written"],
    }
    return m, {stage: dict(spans) for stage, spans in by_stage.items()}


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    config = work / "config.json"
    out_dir = work / "out"
    start = time.perf_counter()
    warmup = run_stages(config, out_dir, ONE_CALL)
    warmup.update(inspect_outputs(workload, work, out_dir), warmup=True)
    passes = [warmup]
    reps = 0
    timed_start = time.perf_counter()
    while True:
        run = run_stages(config, out_dir, STAGE_CALLS)
        run.update(inspect_outputs(workload, work, out_dir))
        passes.append(run)
        if trace:
            tracer = Tracer()
            with traced(tracer):
                run = run_stages(config, out_dir, ONE_CALL, tracer)
            run["traced"] = True
            run["layers"], run["stage_self_s"] = layer_metrics(tracer, run["stage_s"])
            run.update(inspect_outputs(workload, work, out_dir))
            passes.append(run)
        reps += 1
        per_rep = (time.perf_counter() - timed_start) / reps
        if time.perf_counter() - start + per_rep > seconds:
            break
    return {
        "passes": passes,
        "probe_ref_s": PROBE_REF_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "blas_threads": blas_threads(), "tz": os.environ.get("TZ")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(workload, args.seed, args.work)
    else:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), args.work)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
