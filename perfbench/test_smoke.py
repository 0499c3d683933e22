"""Smoke test of the benchmark on a 3x3 city over two hours.

Runs the untraced and the traced path of ``run.bench`` once each, with the
same child processes the benchmark command uses: a warm-up pass and one
timed pass, untraced then traced.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    state = tmp_path_factory.mktemp("perfbench")
    return {trace: run.bench("smoke", 3, 0.0, trace, "UTC", ROOT, state)
            for trace in (0, 1)}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(records, trace, section):
    result = records[trace]["result"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert math.isfinite(emitted["value"])


def test_traced_outputs_match_untraced(records):
    passes = records[1]["passes"]
    assert [p.get("traced", False) for p in passes] == [False, False, True]
    assert all(p["hashes"] == passes[0]["hashes"] for p in passes)
    assert records[0]["output_sha256"] == records[1]["output_sha256"]


def test_self_times_are_non_negative_and_fit_in_their_stage(records):
    traced = [p for p in records[1]["passes"] if p.get("traced")]
    for p in traced:
        assert set(p["stage_self_s"]) == {"cli." + s for s in p["stage_s"]}
        for root, spans in p["stage_self_s"].items():
            assert all(v >= 0.0 for v in spans.values()), spans
            layers = sum(v for name, v in spans.items() if name != root)
            assert layers <= p["stage_s"][root.removeprefix("cli.")][0]
