"""Benchmark of the parksim pipeline on named synthetic-city workloads.

Run from the root of a parksim checkout:

    python3 perfbench/run.py --tz UTC --workload city6-8h --seed 7 \\
        --seconds 30 --trace 0

Each run starts two fresh child processes (``harness.py``) with ``src`` on
PYTHONPATH, TZ pinned and one BLAS thread. The first
generates the synthetic city (set-up); the second runs the stages
repeatedly for --seconds and checks every output. End-to-end times are
medians of wall times scaled by a host-speed probe (see ``scaled``). The
last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json
with --trace 0, its ``per_layer`` metrics with --trace 1. The full record
(every pass, output hashes, versions) goes to
``.perfbench/results/<workload>-seed<seed>-trace<trace>-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170.0
E2E_STAGES = {"train_s": "train", "eval_s": "eval", "predict_s": "predict",
              "sim_on_s": "sim-on", "sim_off_s": "sim-off"}
PIPELINE_STAGES = ("ingest", "train", "predict", "sim-on", "sim-off", "diff")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env(root: Path, tz: str) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TZ"] = tz
    # One BLAS thread: after a multi-threaded call, OpenBLAS's second thread
    # spins on the other vCPU and slowed the Python thread by up to 80 % on a
    # 2-vCPU VM. parksim's matrices are at most a few thousand by 30.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"  # set iteration order must not vary between runs
    return env


def run_child(mode: str, child_args: list[str], work: Path, env: dict,
              deadline: float) -> dict:
    result = work / f"{mode}.json"
    cmd = [sys.executable, str(HERE / "harness.py"), mode, *child_args,
           "--work", str(work), "--result", str(result)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(result.read_text())


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, suffixed "-dirty" if the tree has changes."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def median(values) -> float:
    return float(statistics.median(values))


def scaled(times: list[float], hosts: list[dict], ref_s: float) -> list[float]:
    """Wall times at the reference host speed.

    The host's speed drifts by half within seconds and between runs
    minutes apart. A call's wall time, less the probes run inside it, is
    scaled by the reference probe time over the mean probe time of that
    call, which follows the drift while the call runs.
    """
    return [(t - h["probed_s"]) * ref_s / h["mean_probe_s"] for t, h in zip(times, hosts)]


def pass_times(p: dict, ref_s: float | None) -> dict[str, list[float]]:
    """Call times of one pass by stage, less the probes inside them, at the
    reference speed (unscaled if ``ref_s`` is None), plus the pass's
    pipeline time: the sum of each pipeline stage's median call."""
    times = {}
    for stage, t in p["stage_s"].items():
        hosts = p["host"][stage]
        times[stage] = ([c - h["probed_s"] for c, h in zip(t, hosts)] if ref_s is None
                        else scaled(t, hosts, ref_s))
    times["pipeline"] = [sum(median(times[stage]) for stage in PIPELINE_STAGES)]
    return times


def stage_medians(passes: list[dict], ref_s: float | None) -> dict[str, float]:
    """Median over the calls of every pass of each stage's time and of the
    pipeline time; unscaled wall times if ``ref_s`` is None."""
    per_pass = [pass_times(p, ref_s) for p in passes]
    return {stage: median(t for times in per_pass for t in times[stage])
            for stage in per_pass[0]}


def summarise(setup: dict, measured: dict, trace: bool) -> tuple[dict, dict, int, int, bool]:
    """Metric values, unscaled wall times, attempted and failed counts, and
    output stability."""
    passes = measured["passes"]
    attempted = len(setup["exit_codes"])
    failed = sum(code != 0 for code in setup["exit_codes"])
    for p in passes:
        codes = [c for stage_codes in p["exit_codes"].values() for c in stage_codes]
        attempted += len(codes) + len(p["checks"])
        failed += sum(code != 0 for code in codes)
        failed += sum(not ok for ok in p["checks"].values())
    stable = all(p["hashes"] == passes[0]["hashes"] for p in passes)
    attempted += 1
    failed += not stable

    ref_s = measured["probe_ref_s"]
    plain = [p for p in passes if not p.get("traced") and not p.get("warmup")]
    times = stage_medians(plain, ref_s)
    wall = stage_medians(plain, None)
    wall["setup"] = median(setup["setup_s"])
    setup_s = median(scaled(setup["setup_s"], setup["host"], setup["probe_ref_s"]))
    if trace:
        traced = [p for p in passes if p.get("traced")]
        values = {name: median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_ratio"] = (stage_medians(traced, ref_s)["pipeline"]
                                          / times["pipeline"])
    else:
        values = {metric: times[stage] for metric, stage in E2E_STAGES.items()}
        values["pipeline_s"] = times["pipeline"]
        values["setup_s"] = setup_s
        values.update(passes[0]["quality"])
        values["peak_rss_mb"] = measured["peak_rss_mb"]
        values["ok_frac"] = 1.0 - failed / attempted
    return values, wall, attempted, failed, stable


def bench(workload: str, seed: int, seconds: float, trace: int, tz: str,
          root: Path, state: Path) -> dict:
    """Run one workload; return the full record including the result line."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    child_args = ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    work = (state / "work" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}").resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root, tz)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setup = run_child("setup", child_args, work, env, deadline)
        measured = run_child("measure", child_args, work, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values, wall, attempted, failed, stable = summarise(setup, measured, bool(trace))
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(root), "nproc": os.cpu_count(),
        "env": measured["env"], "outputs_stable": stable,
        "output_sha256": measured["passes"][0]["hashes"],
        "setup": setup, "passes": measured["passes"],
        "peak_rss_mb": measured["peak_rss_mb"], "wall_s": wall, "result": result,
    }
    out = state / "results" / f"{workload}-seed{seed}-trace{trace}-{stamp}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the parksim pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tz", required=True,
                        help="time zone for the children; synth reads local time")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "parksim" / "cli.py").is_file():
        print("run.py: no parksim sources under ./src; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        record = bench(args.workload, args.seed, args.seconds, args.trace, args.tz,
                       root, root / ".perfbench")
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
