"""End-to-end CLI runs on a tiny synthetic city."""

from __future__ import annotations

import codecs
import csv
import dataclasses
import functools
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import shutil
import string
import subprocess
import sys
import tempfile
import types
import warnings
import zipfile
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parksim import cli, data_ingest, occupancy_model, offstreet_sim
from parksim.cli import main
from parksim.data_ingest import SmoothingConfig, read_lots
from parksim.errors import ConfigError
from parksim.occupancy_model import FEATURE_NAMES, N_FEATURES, TrainConfig
from parksim.offstreet_sim import LotSimConfig
from parksim.onstreet_sim import OnstreetConfig, PolicyWeights, estimate_onstreet_time
from parksim.road_graph import load_graph
from parksim.synth import MAX_DEMAND_SCALE, MAX_LOT_CAPACITY, SynthConfig, synth_generate

from conftest import grid_graph
from oracles import (brute_drive_time_to_node, brute_walk_time_from_node, estimate_cells,
                     lot_departures_v2, lot_hours_scalar, lot_rates, stream_v2)

SEED = 5
HOURS = (8, 13)
N_SAMPLES = 10
PER_CELL_FILES = ("availability.csv", "onstreet.csv", "offstreet.csv", "diff.csv")


def write_config(path, city):
    raw = {
        "seed": SEED,
        "hours": list(HOURS),
        "graph": f"{city}/graph.json",
        "payments": f"{city}/payments.csv",
        "surveys": f"{city}/surveys.csv",
        "lots": f"{city}/lots.json",
        "lot_events": f"{city}/lot_events.csv",
        "out_dir": "out",
        "train": {"splits": 1, "epochs": 2},
        "onstreet": {"n_samples": N_SAMPLES},
        "offstreet": {"reps": 2},
    }
    path.write_text(json.dumps(raw))
    return path


def read_rows(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A 3x3 city put through the whole pipeline once."""
    root = tmp_path_factory.mktemp("cli")
    synth_generate(SynthConfig(grid_n=3, days=7), SEED, root / "city")
    config = write_config(root / "config.json", "city")
    code = main(["pipeline", "--config", str(config)])
    return {"code": code, "city": root / "city", "out": root / "out", "config": config,
            "graph": load_graph(root / "city" / "graph.json")}


class TestPipeline:
    def test_exit_code_and_files(self, run):
        assert run["code"] == 0
        geojson = {f"diff_h{hour:02d}.geojson" for hour in HOURS}
        expected = {"samples.csv", "rates.csv", "ingest.json", "sessions.npz", "graph.npz",
                    "model.json", "train_report.json", *PER_CELL_FILES, *geojson}
        assert {p.name for p in run["out"].iterdir()} == expected

    def test_one_row_per_block_and_hour(self, run):
        cells = [(block, str(hour)) for hour in HOURS for block in run["graph"].block_ids]
        for name in PER_CELL_FILES:
            rows = read_rows(run["out"] / name)
            assert [(r["block_id"], r["hour"]) for r in rows] == cells, name

    def test_onstreet_time_at_least_parking_minimum(self, run):
        floor = OnstreetConfig().min_park_s
        for row in read_rows(run["out"] / "onstreet.csv"):
            assert float(row["mean_onstreet_s"]) >= floor

    def test_onstreet_equals_hour_outer_direct_calls(self, run):
        # one direct call per hour, blocks in sorted id order, gives onstreet.csv
        g = run["graph"]
        probs: dict[int, dict[str, float]] = {}
        for row in read_rows(run["out"] / "availability.csv"):
            probs.setdefault(int(row["hour"]), {})[row["block_id"]] = float(row["p_available"])
        cfg = OnstreetConfig(n_samples=N_SAMPLES, seed=SEED)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["block_id", "hour", "mean_onstreet_s", "std_onstreet_s",
                         "censored_fraction", "n_samples"])
        for hour in HOURS:
            p = [[probs[hour][block] for block in g.block_ids]]
            est = estimate_onstreet_time(g, np.array(p), (hour,), cfg, PolicyWeights())
            for block in g.block_ids:
                j = g.position[block]
                writer.writerow([block, hour, repr(float(est.mean_s[0, j])),
                                 repr(float(est.std_s[0, j])),
                                 repr(float(est.censored_fraction[0, j])), est.n_samples])
        assert (run["out"] / "onstreet.csv").read_bytes() == buf.getvalue().encode()

    def test_offstreet_matches_forward_search_reference(self, run):
        # the legs against the path-enumerating oracles, exactly
        g = run["graph"]
        lots = {lot.id: lot for lot in read_lots(run["city"] / "lots.json")}
        for row in read_rows(run["out"] / "offstreet.csv"):
            block, hour = row["block_id"], int(row["hour"])
            # smallest drive time first, then smallest lot id
            drive, lot_id = min((brute_drive_time_to_node(g, block, lot.node, hour), lot.id)
                                for lot in lots.values())
            walk = brute_walk_time_from_node(g, lots[lot_id].node, block)
            assert row["lot_id"] == lot_id
            assert float(row["drive_s"]) == drive
            assert float(row["walk_s"]) == walk
            assert float(row["mean_offstreet_s"]) == drive + float(row["lot_s"]) + walk


def test_header_only_lot_events_is_a_data_error(tmp_path, capsys):
    synth_generate(SynthConfig(grid_n=3, days=7), SEED, tmp_path / "city")
    events = tmp_path / "city" / "lot_events.csv"
    events.write_text(events.read_text().splitlines()[0] + "\n")
    config = write_config(tmp_path / "config.json", "city")
    assert main(["ingest", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "lot event" in err and "Traceback" not in err


def test_eval_reuses_the_train_report(run, tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("eval must not train the network again")

    monkeypatch.setattr(occupancy_model, "train", no_training)
    monkeypatch.setattr(cli, "train", no_training)
    out = tmp_path / "out"
    shutil.copytree(run["out"], out)
    assert main(["eval", "--config", str(run["config"]), "--out", str(out)]) == 0
    report = json.loads((out / "eval.json").read_text())
    assert report["network"] == json.loads((out / "train_report.json").read_text())
    assert report["cross_entropy_improvement"] == (
        report["baseline"]["mean_val_cross_entropy"]
        - report["network"]["mean_val_cross_entropy"])


def test_eval_without_train_report_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path / "config.json", "city")
    code = main(["eval", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "run train first" in err


@pytest.mark.parametrize("raw", [
    {"hours": 5},
    {"seed": "abc"},
    {"seed": 1e400},
    {"hours": ["x"]},
    {"day_of_week": "x"},
    {"train": [1]},
    {"synth": {"lot_nodes": 5}},
    {"smoothing": {"peak_hours": ["x"]}},
    {"onstreet": {"n_samples": 2.5}},
    {"onstreet": {"n_samples": True}},
    {"onstreet": {"n_samples": 0}},
    {"onstreet": {"seed": "x"}},
    {"onstreet": {"max_search_s": 1e400}},
    {"onstreet": {"elapsed_cap_s": -1.0}},
    {"onstreet": {"p_floor": 0.0}},
    {"onstreet": {"p_floor": 2.0}},
    {"policy": {"distance_weight": "x"}},
    {"policy": {"revisit_weight": 1e400}},
    {"policy": {"scarcity_weight": None}},
    {"seed": -1},
    {"offstreet": {"seed": -1}},
    {"train": {"seed": -1}},
    {"onstreet": {"seed": -1}},
    {"offstreet": {"seed": "x"}},
    {"train": {"seed": "x"}},
    {"offstreet": {"tick_s": 1e400}},
    {"offstreet": {"reps": 2.5}},
    {"offstreet": {"reps": True}},
    {"train": {"epochs": 2.5}},
    {"train": {"batch_size": 1.5}},
    {"train": {"learning_rate": 1e400}},
    {"smoothing": {"span_h": 2.5}},
    {"synth": {"grid_n": 2.5}},
    {"synth": {"days": 7.0}},
    {"synth": {"grid_n": 3, "lot_nodes": ["n5_5"]}},
], ids=["hours_int", "seed_string", "seed_inf", "hours_string", "day_string",
        "train_list", "lot_nodes_int", "peak_hours_string", "n_samples_float",
        "n_samples_bool", "n_samples_zero", "onstreet_seed_string", "max_search_inf", "elapsed_cap_negative",
        "p_floor_zero", "p_floor_above_one", "distance_weight_string",
        "revisit_weight_inf", "scarcity_weight_null", "seed_negative",
        "offstreet_seed_negative", "train_seed_negative", "onstreet_seed_negative",
        "offstreet_seed_string", "train_seed_string", "tick_inf", "reps_float",
        "reps_bool", "epochs_float", "batch_size_float", "learning_rate_inf",
        "span_float", "grid_n_float", "days_float", "lot_node_outside_grid"])
def test_ill_typed_config_value_is_a_config_error(tmp_path, capsys, raw):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["predict", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    # rejected while loading the config, not for the missing graph key
    assert "required for this stage" not in err


@pytest.mark.parametrize("value", [[["epochs", 2]], None, 5, "x"],
                         ids=["pairs", "null", "number", "string"])
@pytest.mark.parametrize("section", ["train", "onstreet", "offstreet", "policy", "smoothing",
                                     "synth"])
def test_section_that_is_no_object_is_a_config_error(tmp_path, capsys, section, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: value}))
    assert main(["predict", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert f"config section '{section}' must be a JSON object" in err


@pytest.mark.parametrize("key, value", [
    ("block_length_m", 100.0), ("meters_per_block", 5), ("unmetered_fraction", 0.12),
    ("drive_speed_mps", 8.0), ("walk_speed_mps", 1.4), ("start_date", "2026-03-02"),
    ("surveys_per_block", 8), ("survey_missing_fraction", 0.15), ("flat_rate_end_hour", 18),
])
def test_removed_synth_key_is_a_config_error(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {key: value}}))
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "city")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err and "Traceback" not in err
    assert not (tmp_path / "city").exists()


@pytest.mark.parametrize("key, value", [
    ("demand_scale", 1e300), ("demand_scale", 1e9), ("demand_scale", MAX_DEMAND_SCALE * 1.01),
    ("lot_capacity", MAX_LOT_CAPACITY + 1), ("lot_capacity", offstreet_sim.MAX_CAPACITY),
    ("lot_capacity", 10 ** 30),
], ids=["demand_scale_1e300", "demand_scale_1e9", "demand_scale_above_max",
        "lot_capacity_above_max", "lot_capacity_at_lot_file_max", "lot_capacity_beyond_int64"])
def test_synth_size_knob_above_its_max_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                         key, value):
    # rejected with the config, before any draw
    monkeypatch.setattr(np.random, "default_rng", None)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"grid_n": 2, "days": 7, key: value}}))
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "city")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{key} must be at most" in err and "Traceback" not in err
    assert not (tmp_path / "city").exists()


def test_synth_size_knobs_at_their_max_are_accepted():
    # synth draws each recorded lot car's paid hours one at a time: a 2 x 2,
    # 7-day city at the lot bound takes seconds, at the lot file's bound hours
    cfg = SynthConfig(demand_scale=MAX_DEMAND_SCALE, lot_capacity=MAX_LOT_CAPACITY)
    assert (cfg.demand_scale, cfg.lot_capacity) == (100.0, 100_000)
    assert MAX_LOT_CAPACITY < offstreet_sim.MAX_CAPACITY


@pytest.mark.parametrize("argv", [[], ["--config", "config.json"],
                                  ["bogus", "--config", "config.json"], ["sim_on", "--config", "x"],
                                  ["sim-on", "--config", "x", "--hours", "8"]],
                         ids=["nothing", "no_stage", "unknown_stage", "misspelt_stage",
                              "hours_flag"])
def test_missing_or_unknown_stage_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "usage: parksim" in capsys.readouterr().err


SECTIONS = {"train": TrainConfig, "onstreet": OnstreetConfig, "offstreet": LotSimConfig,
            "policy": PolicyWeights, "smoothing": SmoothingConfig, "synth": SynthConfig}
CONFIG_FIELDS = [(None, name) for name in ("seed", "day_of_week", "hours")] + [
    (section, f.name) for section, cls in SECTIONS.items() for f in dataclasses.fields(cls)]
CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-3, 30),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([1e400, -1e400]),
    st.text(max_size=4), st.lists(st.integers(-3, 30) | st.text(max_size=3), max_size=3))


def assert_fields_typed(config):
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type == "int":
            assert type(value) is int, f.name
        elif f.type == "float":
            assert type(value) in (int, float) and math.isfinite(value), f.name
        elif f.type == "tuple[int, ...]":
            assert all(type(v) is int for v in value), f.name


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(CONFIG_FIELDS), CONFIG_VALUES),
                min_size=1, max_size=3))
def test_any_config_value_loads_typed_or_is_a_config_error(tmp_path, edits):
    raw: dict = {}
    for (section, name), value in edits:
        (raw if section is None else raw.setdefault(section, {}))[name] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    try:
        cfg = cli.load_run_config(str(config))
    except ConfigError:
        return
    assert_fields_typed(cfg)
    for section in SECTIONS:
        assert_fields_typed(getattr(cfg, section))


def test_seed_override_is_the_seed_of_every_section_without_its_own(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "train": {"seed": 7}}))
    cfg = cli.load_run_config(str(config), seed_override=99)
    assert (cfg.seed, cfg.train.seed, cfg.onstreet.seed, cfg.offstreet.seed) == (99, 7, 99, 99)


def test_eval_under_another_train_config_is_a_config_error(run, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(run["out"], out)
    config = write_config(tmp_path / "config.json", run["city"])
    raw = json.loads(config.read_text())
    raw["train"]["splits"] = 2
    config.write_text(json.dumps(raw))
    assert main(["eval", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "run train first" in err


@pytest.mark.parametrize("stale", ["resurveyed", "unkeyed"])
def test_eval_beside_a_report_of_other_samples_is_a_config_error(copied, capsys, stale):
    config = write_config(copied / "config.json", "city")
    if stale == "resurveyed":
        # ingest again from the first 60 % of the survey rows, leaving the
        # network's report and model as they were
        surveys = copied / "city" / "surveys.csv"
        lines = surveys.read_text().splitlines(keepends=True)
        surveys.write_text("".join(lines[:1 + (len(lines) - 1) * 3 // 5]))
        assert main(["ingest", "--config", str(config)]) == 0
        assert json.loads((copied / "out" / "ingest.json").read_text())["samples"] >= 50
    else:
        path = copied / "out" / "train_report.json"
        report = json.loads(path.read_text())
        del report["samples_sha256"]
        path.write_text(json.dumps(report))
    assert main(["eval", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "train_report.json" in err and "run train first" in err
    assert not (copied / "out" / "eval.json").exists()


# the logistic baseline's weights grow only linearly with the learning rate:
# its validation cross-entropy is a finite 7e298 at 1e300, so eval needs more
@pytest.mark.parametrize("stage,learning_rate", [("train", 1e300), ("eval", 1.7e308)])
def test_diverged_training_is_a_numeric_error(copied, capsys, stage, learning_rate):
    config = write_config(copied / "config.json", "city")
    raw = json.loads(config.read_text())
    raw["train"]["learning_rate"] = learning_rate
    config.write_text(json.dumps(raw))
    # eval trains the baseline only, under the config its report was made with
    report = json.loads((copied / "out" / "train_report.json").read_text())
    report["train_config"]["learning_rate"] = learning_rate
    (copied / "out" / "train_report.json").write_text(json.dumps(report))
    assert main([stage, "--config", str(config)]) == 4
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "training diverged: split 0 " in err


@pytest.mark.parametrize("stage,outputs", [("train", ("model.json", "train_report.json")),
                                           ("eval", ("eval.json",))])
def test_overflowing_feature_is_a_numeric_error(copied, capsys, stage, outputs):
    def set_features(rows):
        column = rows[0].index("popularity_3h")
        rows[1][column], rows[2][column] = "1e308", "-1e308"

    edit_csv(copied / "out" / "samples.csv", set_features)
    # eval fits the baseline only on the samples that the network trained on
    report_path = copied / "out" / "train_report.json"
    report_path.write_text(json.dumps({**json.loads(report_path.read_text()),
                                       "samples_sha256": sha256(copied / "out" / "samples.csv")}))
    for name in outputs:
        (copied / "out" / name).unlink(missing_ok=True)
    assert main([stage, "--config", str(write_config(copied / "config.json", "city"))]) == 4
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "feature overflows its mean or standard deviation" in err
    assert not any((copied / "out" / name).exists() for name in outputs)


@pytest.mark.parametrize("score", [float("nan"), "inf", 10**400],
                         ids=["nan_token", "inf_string", "integer_beyond_float"])
def test_non_finite_training_score_is_a_data_error(copied, capsys, score):
    path = copied / "out" / "train_report.json"
    path.write_text(json.dumps({**json.loads(path.read_text()),
                                "mean_val_cross_entropy": score}))
    assert main(["eval", "--config", str(write_config(copied / "config.json", "city"))]) == 3
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "malformed training report" in err and "train_report.json" in err
    assert not (copied / "out" / "eval.json").exists()


@pytest.mark.parametrize("score", [float("nan"), "inf"], ids=["nan_token", "inf_string"])
@pytest.mark.parametrize("name", ["cross_entropy", "accuracy"])
def test_non_finite_per_split_score_is_a_data_error(copied, capsys, name, score):
    path = copied / "out" / "train_report.json"
    report = json.loads(path.read_text())
    report["per_split"][0][name] = score
    path.write_text(json.dumps(report))
    assert main(["eval", "--config", str(write_config(copied / "config.json", "city"))]) == 3
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "malformed training report" in err and "train_report.json" in err
    assert not (copied / "out" / "eval.json").exists()


# -- the CLI contract on stage files: exit 2 or 3 and one line, never a traceback

# Each CSV a stage reads: the stage, where the file lives, and its columns.
STAGE_CSVS = {
    "payments.csv": ("ingest", "city", ("block_id", "start_iso8601", "duration_s")),
    "surveys.csv": ("ingest", "city",
                    ("meter_id", "block_id", "timestamp_iso8601", "free_spots")),
    "lot_events.csv": ("ingest", "city",
                       ("lot_id", "hour_iso8601", "entries", "paid_durations_s")),
    "samples.csv": ("train", "out", ("block_id", "time_iso8601", "available",
                                     *FEATURE_NAMES)),
    "rates.csv": ("sim-off", "out", ("lot_id", "day_of_week", "hour",
                                     "lambda_a_per_hour", "lambda_d_per_hour")),
    "availability.csv": ("sim-on", "out", ("block_id", "hour", "p_available")),
    "onstreet.csv": ("diff", "out", ("block_id", "hour", "mean_onstreet_s",
                                     "std_onstreet_s", "censored_fraction", "n_samples")),
    "offstreet.csv": ("diff", "out", ("block_id", "hour", "mean_offstreet_s",
                                      "std_offstreet_s", "lot_id", "drive_s", "lot_s",
                                      "walk_s", "arrivals", "overflow")),
}


@pytest.fixture
def copied(run, tmp_path):
    """A private copy of the pipeline's city and outputs, and its config."""
    shutil.copytree(run["city"], tmp_path / "city")
    shutil.copytree(run["out"], tmp_path / "out")
    return tmp_path


def edit_csv(path, edit):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def run_stage(root, name, capsys):
    """Run the stage that reads ``name``; return its exit code and stderr."""
    stage = STAGE_CSVS[name][0]
    code = main([stage, "--config", str(write_config(root / "config.json", "city"))])
    return code, capsys.readouterr().err


def assert_one_line(err):
    assert err.count("\n") == 1 and "Traceback" not in err, err


@pytest.mark.parametrize("name,column", [
    (name, column) for name, (_, _, columns) in STAGE_CSVS.items() for column in columns])
def test_bad_cell_exits_0_or_3_with_one_line(copied, capsys, name, column):
    def set_cell(rows):
        rows[1][rows[0].index(column)] = "x"

    edit_csv(copied / STAGE_CSVS[name][1] / name, set_cell)
    code, err = run_stage(copied, name, capsys)
    assert code in (0, 3)
    if code:
        assert_one_line(err)
    else:
        assert err == ""


@pytest.mark.parametrize("name,column,value", [
    *[("onstreet.csv", column, "x")
      for column in ("std_onstreet_s", "censored_fraction", "n_samples")],
    *[("offstreet.csv", column, "x")
      for column in ("std_offstreet_s", "drive_s", "lot_s", "walk_s", "arrivals", "overflow")],
    ("onstreet.csv", "n_samples", "2.5"),
    ("offstreet.csv", "arrivals", "-1"),
    ("offstreet.csv", "walk_s", "nan"),
    ("offstreet.csv", "arrivals", "9" * 20),
])
def test_bad_cell_read_by_diff_is_a_data_error(copied, capsys, name, column, value):
    def set_cell(rows):
        rows[1][rows[0].index(column)] = value

    edit_csv(copied / "out" / name, set_cell)
    code, err = run_stage(copied, name, capsys)
    assert code == 3
    assert_one_line(err)
    assert f"{name}, line 2: " in err
    if value.lstrip("-").isdigit():  # a whole number, so rejected as no count
        assert f"expected a count, got {value!r}" in err


@pytest.mark.parametrize("name", STAGE_CSVS)
def test_renamed_header_is_a_data_error(copied, capsys, name):
    def rename(rows):
        rows[0][-1] += "_renamed"

    edit_csv(copied / STAGE_CSVS[name][1] / name, rename)
    code, err = run_stage(copied, name, capsys)
    assert code == 3
    assert_one_line(err)
    assert name in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_sample_feature_is_a_data_error(copied, capsys, value):
    def set_feature(rows):
        rows[1][rows[0].index("popularity_3h")] = value

    edit_csv(copied / "out" / "samples.csv", set_feature)
    code, err = run_stage(copied, "samples.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert "samples.csv, line 2" in err and "finite" in err


def test_train_and_eval_read_neither_graph_nor_payments(copied):
    config = write_config(copied / "config.json", "city")
    assert main(["eval", "--config", str(config)]) == 0
    before = {name: (copied / "out" / name).read_bytes() for name in ("model.json", "eval.json")}
    (copied / "city" / "payments.csv").unlink()
    (copied / "city" / "graph.json").unlink()
    for stage in ("train", "eval"):
        assert main([stage, "--config", str(config)]) == 0, stage
    assert {name: (copied / "out" / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("n_samples", [10**15, 10**20], ids=["1e15", "1e20"])
def test_unallocatable_search_count_is_a_config_error(copied, capsys, n_samples):
    # 10**15 searches need 7 PiB at once, beyond any address space, so the
    # allocation fails immediately rather than after overcommitted paging;
    # numpy refuses 10**20, past its size limit, before it tries
    config = write_config(copied / "config.json", "city")
    raw = json.loads(config.read_text())
    raw["onstreet"]["n_samples"] = n_samples
    config.write_text(json.dumps(raw))
    assert main(["sim-on", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "out of memory" in err


@pytest.mark.parametrize("offstreet", [
    {"reps": 10**15}, {"tick_s": 1e-12}, {"reps": 10**30}, {"reps": 2**63 - 1},
    {"tick_s": 1e-300},
], ids=["reps", "tick_s", "reps_1e30", "reps_int64_max", "tick_s_1e-300"])
def test_unallocatable_lot_simulation_is_a_config_error(copied, capsys, offstreet):
    # every tick's draws of every repetition are allocated before any tick
    # runs; past numpy's size limit the shape is refused before it is tried
    config = write_config(copied / "config.json", "city")
    raw = json.loads(config.read_text())
    raw["offstreet"].update(offstreet)
    config.write_text(json.dumps(raw))
    assert main(["sim-off", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "out of memory" in err


def test_tick_with_no_finite_count_per_hour_is_a_config_error(copied, capsys):
    # 3600 / 1e-310 overflows to inf, which no tick count rounds from
    config = write_config(copied / "config.json", "city")
    raw = json.loads(config.read_text())
    raw["offstreet"]["tick_s"] = 1e-310
    config.write_text(json.dumps(raw))
    assert main(["sim-off", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "tick_s 1e-310 leaves no finite tick count per hour" in err


@pytest.mark.parametrize("stage, section, key, name, column", [
    ("sim-on", "onstreet", "min_park_s", "onstreet.csv", "mean_onstreet_s"),
    ("sim-off", "offstreet", "per_stall_drive_s", "offstreet.csv", "mean_offstreet_s"),
    ("sim-off", "offstreet", "min_park_s", "offstreet.csv", "mean_offstreet_s"),
], ids=["onstreet_min_park_s", "offstreet_per_stall_drive_s", "offstreet_min_park_s"])
def test_infinite_time_is_a_numeric_error_and_writes_nothing(copied, capsys, stage, section,
                                                             key, name, column):
    # the largest finite time overflows to inf in the simulation's sums; the
    # suite turns a RuntimeWarning into an error, so none may reach stderr
    config = write_config(copied / "config.json", "city")
    raw = json.loads(config.read_text())
    raw[section][key] = 1e308
    config.write_text(json.dumps(raw))
    (copied / "out" / name).unlink()
    assert main([stage, "--config", str(config)]) == 4
    err = capsys.readouterr().err
    assert_one_line(err)
    assert f"{name}: {column} would hold a non-finite value" in err
    assert not (copied / "out" / name).exists()
    assert not list((copied / "out").glob("*.tmp"))


@pytest.mark.parametrize("smoothing, code, message", [
    ({"sigma_h": 1e-200}, 2, "sigma_h 1e-200 gives every Gaussian weight 0"),
    ({"sigma_h": 0.01}, 2, "sigma_h 0.01 gives every Gaussian weight 0"),
    ({"span_h": 10**12}, 3, "series too short: need 1000000000000 hours before the peak"),
], ids=["sigma_h_1e-200", "sigma_h_0.01", "span_h_1e12"])
def test_unusable_smoothing_is_named_in_one_line(copied, capsys, monkeypatch, smoothing, code,
                                                message):
    # a 1e-200 h sigma divides by 0 and a 0.01 h one sums its weights to 0;
    # 10**12 weights would not fit, so none may be built before the span is
    # checked: past the config check's one call, exp fails
    calls = itertools.count()

    def exp(x):
        assert next(calls) < 1, "a weight was built before the span was checked"
        return math.exp(x)

    monkeypatch.setattr(data_ingest, "math", types.SimpleNamespace(**vars(math) | {"exp": exp}))
    config = write_config(copied / "config.json", "city")
    raw = json.loads(config.read_text())
    raw["smoothing"] = smoothing
    config.write_text(json.dumps(raw))
    assert main(["ingest", "--config", str(config)]) == code
    err = capsys.readouterr().err
    assert_one_line(err)
    assert message in err


def add_lot_without_events(city):
    lots = json.loads((city / "lots.json").read_text())
    lots.append({"id": "lot9", "node": lots[0]["node"], "capacity": 10})
    (city / "lots.json").write_text(json.dumps(lots))


def test_lot_without_lot_events_is_a_data_error(copied, capsys):
    add_lot_without_events(copied / "city")
    code, err = run_stage(copied, "lot_events.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert "lots.json" in err and "lot_events.csv" in err and "['lot9']" in err


def test_lot_without_rates_is_a_data_error(copied, capsys):
    add_lot_without_events(copied / "city")
    code, err = run_stage(copied, "rates.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert "rates.csv" in err and "'lot9'" in err


@pytest.mark.parametrize("stage", ["ingest", "sim-off"])
@pytest.mark.parametrize("edit", [
    lambda lots: lots.append(dict(lots[0], capacity=lots[0]["capacity"] + 1)),
    lambda lots: lots.append(dict(lots[0], node="n0_0")),
    lambda lots: lots[0].update(capacity=2.5),
    lambda lots: lots[0].update(capacity=True),
    lambda lots: lots[0].update(node="zz"),
    lambda lots: lots[0].update(id=[lots[0]["id"]]),
    lambda lots: lots[0].update(node=[lots[0]["node"]]),
    lambda lots: lots[0].update(capacity=2**62),
    lambda lots: lots[0].update(capacity=2**63),
], ids=["repeated_id_capacity", "repeated_id_node", "fractional_capacity", "bool_capacity",
        "unknown_node", "list_id", "list_node", "capacity_2_62", "capacity_2_63"])
def test_malformed_lots_file_is_a_data_error(copied, capsys, stage, edit):
    lots = json.loads((copied / "city" / "lots.json").read_text())
    edit(lots)
    (copied / "city" / "lots.json").write_text(json.dumps(lots))
    assert main([stage, "--config", str(write_config(copied / "config.json", "city"))]) == 3
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "lots.json" in err


def test_saturated_lot_reports_overflow(copied, capsys):
    lots = json.loads((copied / "city" / "lots.json").read_text())
    for lot in lots:
        lot["capacity"] = 1
    (copied / "city" / "lots.json").write_text(json.dumps(lots))
    code, _ = run_stage(copied, "rates.csv", capsys)
    assert code == 0
    rows = read_rows(copied / "out" / "offstreet.csv")
    assert any(int(r["overflow"]) > 0 for r in rows)
    assert all(int(r["arrivals"]) >= 0 for r in rows)


def test_sample_label_outside_0_1_is_a_data_error(copied, capsys):
    def set_label(rows):
        rows[1][rows[0].index("available")] = "2"

    edit_csv(copied / "out" / "samples.csv", set_label)
    code, err = run_stage(copied, "samples.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert "samples.csv, line 2" in err


STAGE_OUTPUTS = [
    ("train", "samples.csv", "ingest"),
    ("eval", "train_report.json", "train"),
    ("eval", "samples.csv", "ingest"),
    ("predict", "model.json", "train"),
    ("predict", "sessions.npz", "ingest"),
    ("sim-on", "availability.csv", "predict"),
    ("sim-off", "rates.csv", "ingest"),
    ("diff", "onstreet.csv", "sim-on"),
    ("diff", "offstreet.csv", "sim-off"),
]


@pytest.mark.parametrize("stage,name,producer", STAGE_OUTPUTS)
def test_missing_stage_output_is_a_config_error(copied, capsys, stage, name, producer):
    (copied / "out" / name).unlink()
    config = write_config(copied / "config.json", "city")
    assert main([stage, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert name in err and f"run {producer} first" in err


@pytest.mark.parametrize("stage,name,producer", STAGE_OUTPUTS)
def test_stage_output_that_is_a_directory_is_missing(copied, capsys, stage, name, producer):
    (copied / "out" / name).unlink()
    (copied / "out" / name).mkdir()
    config = write_config(copied / "config.json", "city")
    assert main([stage, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert name in err and f"run {producer} first" in err


@pytest.mark.parametrize("edit,where", [
    (lambda rows: rows.pop(1), "availability.csv"),
    (lambda rows: rows.append(["x", str(HOURS[0]), "0.5"]), "availability.csv, line"),
    (lambda rows: rows[1].__setitem__(2, "1.5"), "availability.csv, line"),
    (lambda rows: rows[1].__setitem__(2, "-0.1"), "availability.csv, line"),
    (lambda rows: rows[1].__setitem__(2, "nan"), "availability.csv, line"),
], ids=["missing_row", "unknown_block", "above_one", "negative", "nan"])
def test_bad_availability_table_is_a_data_error(copied, capsys, edit, where):
    edit_csv(copied / "out" / "availability.csv", edit)
    code, err = run_stage(copied, "availability.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert where in err


@pytest.mark.parametrize("name,block,hour", [
    ("onstreet.csv", "x", HOURS[0]),
    ("offstreet.csv", "x", HOURS[0]),
    ("availability.csv", "x", 5),
    ("availability.csv", None, 24),
], ids=["onstreet_unknown_block", "offstreet_unknown_block",
        "availability_unknown_block_outside_run", "availability_hour_24"])
def test_per_cell_row_outside_graph_or_day_is_a_data_error(copied, capsys, name, block,
                                                           hour):
    # every row is checked, also one for an hour the run does not cover
    path = copied / "out" / name
    edit_csv(path, lambda rows: rows.append([block or rows[1][0], str(hour), *rows[1][2:]]))
    code, err = run_stage(copied, name, capsys)
    assert code == 3
    assert_one_line(err)
    assert f"{name}, line {len(path.read_text().splitlines())}: " in err


def test_onstreet_cells_do_not_depend_on_run_shape(copied):
    config = str(write_config(copied / "config.json", "city"))
    onstreet = copied / "out" / "onstreet.csv"
    expected = onstreet.read_bytes()

    def shuffle(rows):
        body = rows[1:]
        random.Random(SEED).shuffle(body)
        rows[1:] = body

    edit_csv(copied / "out" / "availability.csv", shuffle)
    assert main(["sim-on", "--config", config]) == 0
    assert onstreet.read_bytes() == expected
    header, body = expected.split(b"\n", 1)
    bodies = []
    for hour in HOURS:
        one_hour = copied / f"config_h{hour}.json"
        one_hour.write_text(json.dumps({**json.loads(Path(config).read_text()), "hours": [hour]}))
        assert main(["sim-on", "--config", str(one_hour)]) == 0
        one_header, one_body = onstreet.read_bytes().split(b"\n", 1)
        assert one_header == header
        bodies.append(one_body)
    assert b"".join(bodies) == body


# sha256 of the onstreet.csv that sim-on writes for the grid-4 city of
# seed SEED, at HOURS, from availability drawn by default_rng(SEED), by the
# numpy version that made it: numpy does not promise the same Generator
# streams across versions (NEP 19), and the city and availability come from
# Generators. Version 2 drew each cell from its own derived_stream; the
# oracle lockstep still makes it.
ONSTREET_V2_SHA256 = {
    "2.4": "547b230ecf4e819ada3c3abdc2014d557e9eb14ad484ff4161fb6dd6c06c7ba3",
}
ONSTREET_V3_SHA256 = {
    "2.4": "3deee004483f464ebbe6e0282081bf0f4fe594c45a2ae44d5c236758f97437f2",
}


def grid4_onstreet(tmp_path):
    """The grid-4 city of seed SEED and its availability table, written for
    sim-on; returns the config path, the graph and the (hour, block) table."""
    synth_generate(SynthConfig(grid_n=4, days=7), SEED, tmp_path / "city")
    config = write_config(tmp_path / "config.json", "city")
    g = load_graph(tmp_path / "city" / "graph.json")
    p = np.random.default_rng(SEED).uniform(0.05, 0.95, (len(HOURS), len(g.block_ids)))
    cli._write_cells(tmp_path / "out" / "availability.csv", cli.AVAILABILITY_COLUMNS, g,
                     HOURS, p)
    return config, g, p


def numpy_version(hashes):
    version = ".".join(np.__version__.split(".")[:2])
    if version not in hashes:
        pytest.skip(f"stream hashes recorded under numpy {sorted(hashes)}, not {version}")
    return version


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_onstreet_stream_version_3_pinned(tmp_path):
    config, _, _ = grid4_onstreet(tmp_path)
    assert main(["sim-on", "--config", str(config)]) == 0
    version = numpy_version(ONSTREET_V3_SHA256)
    assert sha256(tmp_path / "out" / "onstreet.csv") == ONSTREET_V3_SHA256[version]


def test_onstreet_stream_version_2_kept_by_oracle(tmp_path):
    config, g, p = grid4_onstreet(tmp_path)
    cfg = cli.load_run_config(str(config))
    est = estimate_cells(g, p, HOURS, cfg.onstreet, cfg.policy, stream=stream_v2)
    path = tmp_path / "out" / "onstreet.csv"
    cli._write_cells(path, cli.ONSTREET_COLUMNS, g, HOURS, *est, cfg.onstreet.n_samples)
    version = numpy_version(ONSTREET_V2_SHA256)
    assert sha256(path) == ONSTREET_V2_SHA256[version]


def test_onstreet_stream_version_3_agrees_with_version_2(tmp_path):
    # every cell of the grid-4 city, 200 searches a cell: the version 3
    # mean within 4 combined standard errors of version 2's
    config, g, p = grid4_onstreet(tmp_path)
    cfg = cli.load_run_config(str(config))
    onstreet = dataclasses.replace(cfg.onstreet, n_samples=200)
    v3 = estimate_onstreet_time(g, p, HOURS, onstreet, cfg.policy)
    v2_mean, v2_std, _ = estimate_cells(g, p, HOURS, onstreet, cfg.policy, stream=stream_v2)
    se = np.hypot(v3.std_s, v2_std) / math.sqrt(onstreet.n_samples)
    assert (se > 0).all()
    assert (np.abs(v3.mean_s - v2_mean) <= 4 * se).all()


# sha256 of the offstreet.csv that sim-off writes for the grid-4 city of
# seed SEED with three lots of 12 stalls, at HOURS and 20 repetitions, by
# the numpy version that made it (see ONSTREET_V2_SHA256). Version 2 drew a
# (rep, stall) array of keys in each tick with a departure; the scalar lot
# oracle still makes it.
OFFSTREET_V2_SHA256 = {
    "2.4": "3beff7efb625ba94cc394a48b5ecedc162b8280e4ed9da807f2303a9cd0c9cc3",
}
OFFSTREET_V3_SHA256 = {
    "2.4": "4d6ab56c972734b85f95b809863d707c620aa6ce2287e7d1a8d705a037e5a980",
}


def grid4_offstreet(tmp_path, reps=20):
    """The grid-4 city of seed SEED with three lots of 12 stalls, ingested,
    and a config for sim-off at ``reps`` repetitions."""
    synth_generate(SynthConfig(grid_n=4, days=7, lot_capacity=12,
                               lot_nodes=("n0_0", "n1_2", "n3_3")), SEED, tmp_path / "city")
    config = write_config(tmp_path / "config.json", "city")
    raw = json.loads(config.read_text())
    raw["offstreet"]["reps"] = reps
    config.write_text(json.dumps(raw))
    assert main(["ingest", "--config", str(config)]) == 0
    return config


def test_offstreet_stream_version_3_pinned(tmp_path):
    config = grid4_offstreet(tmp_path)
    assert main(["sim-off", "--config", str(config)]) == 0
    version = numpy_version(OFFSTREET_V3_SHA256)
    assert sha256(tmp_path / "out" / "offstreet.csv") == OFFSTREET_V3_SHA256[version]


def test_offstreet_stream_version_2_kept_by_oracle(tmp_path, monkeypatch):
    config = grid4_offstreet(tmp_path)
    monkeypatch.setattr(offstreet_sim, "simulate_lot_hours",
                        functools.partial(lot_hours_scalar, departures=lot_departures_v2))
    assert main(["sim-off", "--config", str(config)]) == 0
    version = numpy_version(OFFSTREET_V2_SHA256)
    assert sha256(tmp_path / "out" / "offstreet.csv") == OFFSTREET_V2_SHA256[version]


def test_offstreet_stream_version_3_agrees_with_version_2(tmp_path, monkeypatch):
    # every chosen lot-hour of the grid-4 three-lot city, 100 repetitions:
    # the same Poisson draws, so the same arrivals and overflow, and the
    # version 3 mean within 4 combined standard errors of version 2's
    config = grid4_offstreet(tmp_path, reps=100)
    runs = {}
    for version, simulate in (
            (3, offstreet_sim.simulate_lot_hours),
            (2, functools.partial(lot_hours_scalar, departures=lot_departures_v2))):
        def recorded(*args, version=version, simulate=simulate):
            runs[version] = simulate(*args)
            return runs[version]
        monkeypatch.setattr(offstreet_sim, "simulate_lot_hours", recorded)
        assert main(["sim-off", "--config", str(config)]) == 0
    assert len(runs[3]) == len(runs[2])
    assert sum(s.arrivals > 1 for s in runs[3]) >= 5
    for v3, v2 in zip(runs[3], runs[2]):
        assert (v3.arrivals, v3.overflow) == (v2.arrivals, v2.overflow)
        if not v3.arrivals:
            assert v3 == v2
            continue
        se = math.hypot(v3.std_s, v2.std_s) / math.sqrt(v3.arrivals)
        assert abs(v3.mean_s - v2.mean_s) <= 4 * se


# sha256 of what train and eval make of the grid-4 city of seed SEED with
# three splits over six epochs, by the numpy version that made it (see
# ONSTREET_V2_SHA256): the bytes of model.json, then the sorted-key JSON of
# the network's scores and of the baseline's. They pin training bit for bit,
# which the one-split-at-a-time oracle cannot, as it shares the gradient.
TRAINING_SHA256 = {
    "2.4": ("a4da40bc22c4b8a909206cf2aac9aebf02482a73d8d868094ffc466ef4460453",
            "00348af7604d79c0f7f2efecd036215618b848b6ec3d002d2dbe66f61a4389a3",
            "7d49759c537c6eb029fde815a179ea3e565d2d35d97ed250c6e75964b7660ab3"),
}


def test_training_pinned(tmp_path):
    synth_generate(SynthConfig(grid_n=4, days=7), SEED, tmp_path / "city")
    config = write_config(tmp_path / "config.json", "city")
    raw = json.loads(config.read_text())
    raw["train"] = {"splits": 3, "epochs": 6}
    config.write_text(json.dumps(raw))
    for stage in ("ingest", "train", "eval"):
        assert main([stage, "--config", str(config)]) == 0
    out = tmp_path / "out"
    network = json.loads((out / "train_report.json").read_text())
    scores = {name: network[name]
              for name in ("mean_val_cross_entropy", "mean_val_accuracy", "per_split")}
    baseline = json.loads((out / "eval.json").read_text())["baseline"]
    version = numpy_version(TRAINING_SHA256)
    assert (sha256(out / "model.json"),
            *(hashlib.sha256(json.dumps(s, sort_keys=True).encode()).hexdigest()
              for s in (scores, baseline))) == TRAINING_SHA256[version]


# sha256 of every file in out/ after ingest, train, eval, predict, sim-on,
# sim-off and diff on the grid-4 city of seed SEED, by the numpy version that
# made it (see ONSTREET_V2_SHA256). Beyond the files pinned above, they pin
# the reports, availability.csv, diff.csv, the maps and both indexes.
WHOLE_RUN_SHA256 = {
    "2.4": {
        "availability.csv": "817b6ba9e119132ff58eae6b0844de653057d282f55cbc76adf9bed2094b6133",
        "diff.csv": "436807593c437830d0b9c6fc5f332cd8f5887c7ff3389d14e88ce0e1f7b115e7",
        "diff_h08.geojson": "25488801d7df69db0ee8c2864321b17505efc60b366e78627dbf4b8154b478d7",
        "diff_h13.geojson": "771a811a2e44f1e66b227df625bd4693e6b637e35d215a6bf5efb6f4398fc3e6",
        "eval.json": "54ce3e945f63e2dbcf870ad7ef4c0a224ffb3f82fb0423bd31a96630d9262ae8",
        "graph.npz": "1e58dc9a5ab14701e7d6aa1da3f06cad84610dbdbecbabae312cecd5bf4f6367",
        "ingest.json": "c974602ea99962dc59969e7b3649a88320941420ed5c3270b50981a7ee80bad4",
        "model.json": "9a13251ff835cf109a4f7588a613c7acbba3aebb898a3963818ad233e07a70b7",
        "offstreet.csv": "56f0856be4a6fb67d84681e1d33cbda42344c6956ac1860a2e952c5a441a2719",
        "onstreet.csv": "2fc01957fe91770c0881120832589f6bbf94c818f87a8f87f604b7e67f41e6e4",
        "rates.csv": "a2d682b09a66fdf1d49a0e84b9b8ff5d7c74c4ad91755cf146d2df79fe8e9f61",
        "samples.csv": "69e5f36c888b3382c09758e83c28affca8a53fb8f5866d303f60461f4cce02f5",
        "sessions.npz": "21de6fe4b33eabca2e32a08167a801d652354deb057abe83a3746bc0d9dacb1f",
        "train_report.json": "ab3a35173ab051a0dd39ea36bbfd7421248df2a81bc1e7bb894bfb04239349d0",
    },
}


def test_whole_run_pinned(tmp_path):
    synth_generate(SynthConfig(grid_n=4, days=7), SEED, tmp_path / "city")
    config = write_config(tmp_path / "config.json", "city")
    for stage in ("ingest", "train", "eval", "predict", "sim-on", "sim-off", "diff"):
        assert main([stage, "--config", str(config)]) == 0
    version = numpy_version(WHOLE_RUN_SHA256)
    assert {path.name: sha256(path) for path in sorted((tmp_path / "out").iterdir())} == (
        WHOLE_RUN_SHA256[version])


@pytest.mark.parametrize("name", ["availability.csv", "onstreet.csv", "offstreet.csv"])
def test_duplicate_block_hour_row_is_a_data_error(copied, capsys, name):
    edit_csv(copied / "out" / name, lambda rows: rows.append(list(rows[1])))
    code, err = run_stage(copied, name, capsys)
    assert code == 3
    assert_one_line(err)
    assert name in err and "duplicate" in err


def test_duplicate_row_before_bad_cell_is_named(copied, capsys):
    def edit(rows):
        rows.insert(2, list(rows[1]))
        rows[-1][2] = "x"
    edit_csv(copied / "out" / "availability.csv", edit)
    code, err = run_stage(copied, "availability.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert "availability.csv, line 3: duplicate" in err


def bad_probability(rows):
    rows[1][2] = "x"


def short_row(rows):
    rows[3].pop()


def adjacent_duplicate(rows):
    rows.insert(2, list(rows[1]))


def duplicate_two_rows_on(rows):
    rows.insert(3, list(rows[1]))


def duplicate_before_bad_cell(rows):
    rows.insert(2, list(rows[1]))
    rows[-1][2] = "x"


@pytest.mark.parametrize("chunk_rows", [1, 2, data_ingest.CHUNK_ROWS])
@pytest.mark.parametrize("edit,fault", [
    (bad_probability, "line 2: could not convert string to float: 'x'"),
    (short_row, "line 4: expected 3 fields"),
    (adjacent_duplicate, "line 3: duplicate (block, hour) row"),
    (duplicate_two_rows_on, "line 4: duplicate (block, hour) row"),
    (duplicate_before_bad_cell, "line 3: duplicate (block, hour) row"),
], ids=["bad_probability", "short_row", "adjacent_duplicate", "duplicate_two_rows_on",
        "duplicate_before_bad_cell"])
def test_availability_fault_named_at_its_line_in_any_chunk_size(copied, capsys, monkeypatch,
                                                                 chunk_rows, edit, fault):
    monkeypatch.setattr(data_ingest, "CHUNK_ROWS", chunk_rows)
    edit_csv(copied / "out" / "availability.csv", edit)
    code, err = run_stage(copied, "availability.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert f"availability.csv, {fault}" in err


def run_on_edited_payments(root, capsys, stage):
    """Run ``stage`` after payments.csv was edited. Return ingest's one-line
    message of the fault it must find (exit 3), or None for predict, which
    reads no payments and refuses the session index that ingest made from
    the bytes before the edit (exit 2)."""
    code = main([stage, "--config", str(write_config(root / "config.json", "city"))])
    err = capsys.readouterr().err
    assert_one_line(err)
    if stage == "predict":
        assert code == 2, err
        assert "sessions.npz was made from other payments (run ingest first)" in err
        return None
    assert code == 3
    return err


@pytest.mark.parametrize("stage", ["ingest", "predict"])
def test_payment_on_unknown_block_is_a_data_error(copied, capsys, stage):
    edit_csv(copied / "city" / "payments.csv", lambda rows: rows[1].__setitem__(0, "x"))
    err = run_on_edited_payments(copied, capsys, stage)
    assert err is None or "payments.csv references unknown blocks: ['x']" in err


def test_session_on_a_block_renamed_after_ingest_is_a_data_error(copied, capsys):
    block = read_rows(copied / "city" / "payments.csv")[0]["block_id"]
    edit_graph(lambda graph: next(e for e in graph["edges"] if e["id"] == block).update(
        id="renamed"))(copied / "city")
    assert main(["predict", "--config", str(write_config(copied / "config.json", "city"))]) == 3
    err = capsys.readouterr().err
    assert_one_line(err)
    assert f"sessions.npz references unknown blocks: [{block!r}]" in err


@pytest.mark.parametrize("duration", ["inf", "1e300"])
@pytest.mark.parametrize("stage", ["ingest", "predict"])
def test_unrepresentable_payment_duration_is_a_data_error(copied, capsys, stage, duration):
    # no session end exists for these: timedelta overflows
    edit_csv(copied / "city" / "payments.csv", lambda rows: rows[1].__setitem__(2, duration))
    err = run_on_edited_payments(copied, capsys, stage)
    assert err is None or "payments.csv, line 2" in err


@pytest.mark.parametrize("stage", ["ingest", "predict"])
def test_payment_ending_after_the_last_datetime_is_a_data_error(copied, capsys, stage):
    # int64 microseconds hold this end; a datetime does not
    edit_csv(copied / "city" / "payments.csv", lambda rows: rows[3].__setitem__(2, "1e12"))
    err = run_on_edited_payments(copied, capsys, stage)
    assert err is None or "payments.csv, line 4: " in err


@pytest.mark.parametrize("suffix", ["+00:00", "Z"])
@pytest.mark.parametrize("rows_with_offset", [slice(2, 3), slice(1, None)],
                         ids=["one_row", "every_row"])
@pytest.mark.parametrize("stage", ["ingest", "predict"])
def test_payment_start_with_utc_offset_is_a_data_error(copied, capsys, stage,
                                                       rows_with_offset, suffix):
    def add_offset(rows):
        for row in rows[rows_with_offset]:
            row[1] += suffix

    edit_csv(copied / "city" / "payments.csv", add_offset)
    err = run_on_edited_payments(copied, capsys, stage)
    if err is None:
        return
    line = 3 if rows_with_offset.stop else 2
    assert f"payments.csv, line {line}: " in err
    try:
        datetime.fromisoformat("2026-03-02T09:00:00" + suffix)
    except ValueError:  # Python 3.10 reads no "Z": not a time at all
        return
    assert "UTC offset" in err


def test_ingest_records_the_payments_it_read(run):
    payments = run["city"] / "payments.csv"
    report = json.loads((run["out"] / "ingest.json").read_text())
    assert report["payments_sha256"] == hashlib.sha256(payments.read_bytes()).hexdigest()
    starts = [datetime.fromisoformat(r["start_iso8601"]).date() for r in read_rows(payments)]
    assert report["payment_dates"] == [min(starts).isoformat(), max(starts).isoformat()]
    with np.load(run["out"] / "sessions.npz", allow_pickle=False) as index:
        assert str(index["payments_sha256"]) == report["payments_sha256"]


def test_session_index_depends_on_the_payments_alone(run, copied):
    config = write_config(copied / "config.json", "city")
    assert main(["ingest", "--config", str(config)]) == 0
    index = "sessions.npz"
    assert (copied / "out" / index).read_bytes() == (run["out"] / index).read_bytes()


def test_predict_loads_a_matching_session_index(copied, monkeypatch):
    def no_parse(path):
        raise AssertionError("predict parsed payments.csv beside a matching index")

    monkeypatch.setattr(cli, "read_payments", no_parse)
    availability = copied / "out" / "availability.csv"
    made_by_pipeline = availability.read_bytes()
    availability.unlink()
    assert main(["predict", "--config", str(write_config(copied / "config.json", "city"))]) == 0
    assert availability.read_bytes() == made_by_pipeline


def test_predict_beside_an_index_of_other_payments_is_a_config_error(copied, capsys):
    # sessions moved onto the predicted date change the map; the index that
    # ingest made from the old file must not hide them
    def onto_predict_date(rows):
        for row in rows[1:]:
            row[1] = "2026-03-13T08:10:00"

    config = write_config(copied / "config.json", "city")
    availability = copied / "out" / "availability.csv"
    before = availability.read_bytes()
    edit_csv(copied / "city" / "payments.csv", onto_predict_date)
    assert run_on_edited_payments(copied, capsys, "predict") is None
    assert availability.read_bytes() == before
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["predict", "--config", str(config)]) == 0
    assert availability.read_bytes() != before

PATH_KEYS = ("graph", "payments", "surveys", "lots", "lot_events")


@pytest.mark.parametrize("key, value", [
    *((key, value) for key in ("out_dir", *PATH_KEYS) for value in (["x", 1], 5)),
    ("out_dir", None), ("graph", True), ("surveys", {"a": "b"}),
])
def test_config_path_that_is_no_string_is_a_config_error(copied, capsys, key, value):
    config = write_config(copied / "config.json", "city")
    config.write_text(json.dumps({**json.loads(config.read_text()), key: value}))
    before = sorted(copied.rglob("*"))
    assert main(["ingest", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert f"'{key}' must be a string" in err
    assert sorted(copied.rglob("*")) == before


@pytest.mark.parametrize("key", PATH_KEYS)
def test_null_input_path_is_an_unset_key(copied, capsys, key):
    config = write_config(copied / "config.json", "city")
    config.write_text(json.dumps({**json.loads(config.read_text()), key: None}))
    assert main(["ingest", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert f"config key '{key}' is required for this stage" in err


@pytest.mark.parametrize("value", ["", "a_directory"], ids=["config_directory", "directory"])
@pytest.mark.parametrize("stage,key", [*(("ingest", key) for key in PATH_KEYS),
                                       ("sim-on", "graph"), ("sim-off", "lots")])
def test_input_path_that_is_no_file_is_missing(copied, capsys, stage, key, value):
    (copied / "a_directory").mkdir()
    config = write_config(copied / "config.json", "city")
    config.write_text(json.dumps({**json.loads(config.read_text()), key: value}))
    assert main([stage, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert f"file for '{key}' not found" in err


@pytest.mark.parametrize("value", [20260313, "20260313", "2026-W11-5"],
                         ids=["number", "basic_format", "week_date"])
def test_predict_date_not_written_yyyy_mm_dd_is_a_config_error(tmp_path, capsys, value):
    # Python 3.11's date.fromisoformat takes each of these as 2026-03-13
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"predict_date": value, "synth": {"grid_n": 2, "days": 7}}))
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "city")]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "predict_date" in err
    assert not (tmp_path / "city").exists()


def test_ingest_and_predict_without_payments(copied):
    payments = copied / "city" / "payments.csv"
    payments.write_text(payments.read_text().splitlines()[0] + "\n")
    config = write_config(copied / "config.json", "city")
    assert main(["ingest", "--config", str(config)]) == 0
    assert json.loads((copied / "out" / "ingest.json").read_text())["payment_dates"] is None
    assert main(["predict", "--config", str(config)]) == 0


def rewrite_index(index, edit):
    """Replace the arrays of a session index by ``edit`` of them."""
    with np.load(index, allow_pickle=False) as npz:
        arrays = edit({name: npz[name] for name in npz.files})
    with index.open("wb") as fh:
        np.savez(fh, **arrays)


def test_predict_beside_an_index_of_another_format_is_a_config_error(copied, capsys):
    # the starts would be malformed, but an index of another format is not read
    rewrite_index(copied / "out" / "sessions.npz", lambda a: {
        **a, "format_version": np.array(2), "starts": a["starts"].astype(float)})
    assert main(["predict", "--config", str(write_config(copied / "config.json", "city"))]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "sessions.npz has format version 2" in err and "run ingest first" in err


UNPICKLED = []


def _unpickle():
    UNPICKLED.append(True)


class _Tripwire:
    """An object that records being unpickled."""

    def __reduce__(self):
        return _unpickle, ()


def _unsorted_starts(a):
    """The starts of the first block with two distinct starts, reversed."""
    starts, bounds = a["starts"].copy(), a["bounds"]
    lo, hi = next((lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
                  if len(set(starts[lo:hi])) > 1)
    starts[lo:hi] = starts[lo:hi][::-1]
    return {**a, "starts": starts}


@pytest.mark.parametrize("edit", [
    None,
    lambda a: {**a, "starts": a["starts"].astype(float)},
    lambda a: {**a, "bounds": a["bounds"].astype(np.int32)},
    lambda a: {**a, "block_ids": np.array([_Tripwire()] * len(a["block_ids"]), dtype=object)},
    lambda a: {**a, "ends": a["ends"][:, None]},
    _unsorted_starts,
    lambda a: {**a, "ends": a["ends"][::-1].copy()},
    lambda a: {**a, "bounds": np.append(a["bounds"][:-1], a["bounds"][-1] - 1)},
    lambda a: {**a, "bounds": a["bounds"][1:]},
    lambda a: {**a, "block_ids": np.repeat(a["block_ids"][:1], len(a["block_ids"]))},
    lambda a: {name: a[name] for name in a if name != "ends"},
], ids=["truncated", "float_starts", "int32_bounds", "object_block_ids", "2d_ends",
        "unsorted_starts", "unsorted_ends", "bounds_short_of_n", "bounds_without_0",
        "repeated_block", "no_ends"])
def test_malformed_session_index_with_matching_key_is_a_data_error(copied, capsys, edit):
    index = copied / "out" / "sessions.npz"
    if edit is None:
        index.write_bytes(index.read_bytes()[:index.stat().st_size // 2])
    else:
        rewrite_index(index, edit)
    config = write_config(copied / "config.json", "city")
    assert main(["predict", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "session index" in err and "sessions.npz" in err, err
    assert not UNPICKLED


def test_session_index_member_that_is_no_npy_is_a_data_error(copied, capsys):
    # numpy gives such a member as bytes, not as an array
    with zipfile.ZipFile(copied / "out" / "sessions.npz", "w") as archive:
        archive.writestr("format_version.npy", b"")
    assert main(["predict", "--config", str(write_config(copied / "config.json", "city"))]) == 3
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "malformed session index" in err and "format_version" in err


def test_rate_for_unknown_lot_is_a_data_error(copied, capsys):
    def relabel(rows):
        for row in rows:
            if row[0] == "lot1":
                row[0] = "x"

    edit_csv(copied / "out" / "rates.csv", relabel)
    code, err = run_stage(copied, "rates.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert "rates.csv references unknown lots: ['x']" in err


def test_rates_without_a_whole_week_are_a_data_error(copied, capsys):
    # the run's day_of_week is 4, so sim-off reads no rate of day 0
    edit_csv(copied / "out" / "rates.csv",
             lambda rows: rows.remove(next(row for row in rows if row[1] == "0")))
    code, err = run_stage(copied, "rates.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert "rates.csv lacks (day of week, hour) rows of lots ['lot1']" in err


def test_departures_outside_span_counts_every_late_car(run):
    # at this seed the smoothed departures do not sum to a whole number, so
    # subtracting sums would truncate the count
    events = [(r["lot_id"], datetime.fromisoformat(r["hour_iso8601"]), int(r["entries"]),
               [float(x) for x in r["paid_durations_s"].split(";") if x])
              for r in read_rows(run["city"] / "lot_events.csv")]
    smoothing = SmoothingConfig()
    _, outside = lot_rates(events, smoothing.peak_hours, smoothing.sigma_h, smoothing.span_h)
    report = json.loads((run["out"] / "ingest.json").read_text())
    assert outside > 0
    assert report["departures_outside_span"] == outside


@pytest.mark.parametrize("every_row", [False, True], ids=["one_row", "every_row"])
def test_survey_time_with_utc_offset_is_a_data_error(copied, capsys, every_row):
    lines = []

    def add_offset(rows):
        column = rows[0].index("timestamp_iso8601")
        timed = [i for i, row in enumerate(rows) if i and row[column]]
        # one row: the last timed row, after hundreds of good ones
        for i in timed if every_row else timed[-1:]:
            rows[i][column] += "+00:00"
        lines.append((timed if every_row else timed[-1:])[0] + 1)

    edit_csv(copied / "city" / "surveys.csv", add_offset)
    code, err = run_stage(copied, "surveys.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert f"surveys.csv, line {lines[0]}: " in err and "UTC offset" in err


def test_survey_times_padded_with_spaces_read_as_unpadded(copied, capsys):
    config = str(write_config(copied / "config.json", "city"))
    assert main(["ingest", "--config", config]) == 0
    expected = {name: (copied / "out" / name).read_bytes()
                for name in ("samples.csv", "ingest.json")}

    def pad(rows):
        column = rows[0].index("timestamp_iso8601")
        for row in rows[1:]:
            row[column] = f"  {row[column]} " if row[column] else "   "

    edit_csv(copied / "city" / "surveys.csv", pad)
    assert main(["ingest", "--config", config]) == 0
    assert capsys.readouterr().err == ""
    for name, data in expected.items():
        assert (copied / "out" / name).read_bytes() == data, name
    assert json.loads(expected["ingest.json"])["surveys_discarded"] > 0


@pytest.mark.parametrize("rows_with_offset", [slice(1, 2), slice(1, None)],
                         ids=["one_row", "every_row"])
def test_lot_event_hour_with_utc_offset_is_a_data_error(copied, capsys, rows_with_offset):
    def add_offset(rows):
        for row in rows[rows_with_offset]:
            row[1] += "+00:00"

    edit_csv(copied / "city" / "lot_events.csv", add_offset)
    code, err = run_stage(copied, "lot_events.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert "lot_events.csv, line 2: " in err and "UTC offset" in err


@pytest.mark.parametrize("cells", [
    {"paid_durations_s": "nan"},
    {"paid_durations_s": "inf"},
    {"paid_durations_s": "1e300"},
    {"paid_durations_s": "-60"},
    {"entries": "-1", "paid_durations_s": ""},
    {"entries": "1", "paid_durations_s": "3600;3600"},
    {"hour_iso8601": "2026-03-02T09:30:00"},
], ids=["nan_duration", "inf_duration", "huge_duration", "negative_duration",
        "negative_entries", "more_durations_than_entries", "off_the_hour"])
def test_malformed_lot_event_is_a_data_error(copied, capsys, cells):
    edited = []

    def edit(rows):
        # the first row that records a paid duration
        line = next(i for i, row in enumerate(rows) if i and row[3])
        for column, value in cells.items():
            rows[line][rows[0].index(column)] = value
        edited.append(line + 1)

    edit_csv(copied / "city" / "lot_events.csv", edit)
    code, err = run_stage(copied, "lot_events.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert f"lot_events.csv, line {edited[0]}: " in err


@pytest.mark.parametrize("row", ["lot1,9,3,1.0,1.0", "lot1,0,30,1.0,1.0", "lot1,-1,3,1.0,1.0"],
                         ids=["day_9", "hour_30", "day_minus_1"])
def test_rate_outside_week_or_day_is_a_data_error(copied, capsys, row):
    path = copied / "out" / "rates.csv"
    path.write_text(path.read_text() + row + "\n")
    code, err = run_stage(copied, "rates.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert f"rates.csv, line {len(path.read_text().splitlines())}: " in err


@pytest.mark.parametrize("row", ["lot9,0,3,-1.0,1.0", "lot9,0,3,1.0,nan", "lot9,0,3,inf,1.0"],
                         ids=["negative", "nan", "inf"])
def test_rate_that_is_no_rate_is_a_data_error(copied, capsys, row):
    path = copied / "out" / "rates.csv"
    path.write_text(path.read_text() + row + "\n")
    code, err = run_stage(copied, "rates.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert f"rates.csv, line {len(path.read_text().splitlines())}: " in err


@pytest.mark.parametrize("rates", [{13: "1e300"}, {11: "1.7e308", 12: "1.7e308"}],
                         ids=["sampled_rate", "rates_before_the_hour"])
def test_rate_above_max_rate_is_a_data_error(copied, capsys, rates):
    # day 4 is the run's day; hour 13's rate is sampled, and the rates of the
    # hours before it sum to the lot's occupancy at 13:00
    lines = []

    def edit(rows):
        for i, row in enumerate(rows):
            if row[0] == "lot1" and row[1] == "4" and int(row[2]) in rates:
                row[3] = rates[int(row[2])]
                lines.append(i + 1)

    edit_csv(copied / "out" / "rates.csv", edit)
    code, err = run_stage(copied, "rates.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert (f"rates.csv, line {lines[0]}: expected a rate in [0, 1e+12] per hour, "
            f"got '{rates[min(rates)]}'") in err


def test_lot_entries_above_max_rate_are_a_data_error(copied, capsys):
    # a week of records: one hour's 10**13 entries average to 1e13 an hour
    rates = (copied / "out" / "rates.csv").read_bytes()
    lot = []

    def edit(rows):
        rows[1][rows[0].index("entries")] = str(10**13)
        lot.append(rows[1][0])

    edit_csv(copied / "city" / "lot_events.csv", edit)
    code, err = run_stage(copied, "lot_events.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert f"lot {lot[0]!r} has a rate above 1e+12 cars per hour" in err
    assert (copied / "out" / "rates.csv").read_bytes() == rates


def huge_first_layer(model):
    # every feature is at least 0, so each standardizes to far above 0 and
    # every first-layer unit overflows to inf
    model["weights"]["w1"] = [1e308] * len(model["weights"]["w1"])
    model["feature_norm"]["mean"] = [-1e6] * N_FEATURES


def tiny_feature_std(model):
    model["feature_norm"]["std"] = [1e-320] * N_FEATURES


@pytest.mark.parametrize("edit", [huge_first_layer, tiny_feature_std],
                         ids=["huge_first_layer", "tiny_feature_std"])
def test_extreme_model_is_a_numeric_error(copied, capsys, edit):
    path = copied / "out" / "model.json"
    model = json.loads(path.read_text())
    edit(model)
    path.write_text(json.dumps(model))
    availability = (copied / "out" / "availability.csv").read_bytes()
    assert main(["predict", "--config", str(write_config(copied / "config.json", "city"))]) == 4
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "non-finite probability" in err
    assert (copied / "out" / "availability.csv").read_bytes() == availability


def edit_graph(edit):
    def edit_city(city):
        graph = json.loads((city / "graph.json").read_text())
        edit(graph)
        (city / "graph.json").write_text(json.dumps(graph))
    return edit_city


def set_first_edge(**fields):
    return edit_graph(lambda graph: graph["edges"][0].update(fields))


def set_free_spots(value):
    def edit(city):
        edit_csv(city / "surveys.csv", lambda rows: rows[1].__setitem__(3, value))
    return edit


@pytest.mark.parametrize("edit,where", [
    (set_free_spots("-3"), "surveys.csv, line 2: "),
    (set_first_edge(meter_count=2.5), "graph.json"),
    (set_first_edge(meter_count=True), "graph.json"),
    (set_free_spots("9" * 20), "surveys.csv, line 2: expected a count, got '9999"),
], ids=["negative_free_spots", "fractional_meter_count", "bool_meter_count",
        "free_spots_beyond_int64"])
def test_count_that_is_no_count_is_a_data_error(copied, capsys, edit, where):
    edit(copied / "city")
    assert main(["ingest", "--config", str(write_config(copied / "config.json", "city"))]) == 3
    err = capsys.readouterr().err
    assert_one_line(err)
    assert where in err


@pytest.mark.parametrize("edit", [
    set_first_edge(meter_count=-1), set_first_edge(length_m=0),
    edit_graph(lambda graph: graph["edges"].append(graph["edges"][0])),
    lambda city: (city / "graph.json").write_text("[]"),
    set_first_edge(drive_time_s="1" * 24), set_first_edge(length_m="100"),
    set_first_edge(length_m=True), edit_graph(lambda graph: graph["nodes"][0].update(lat="49.2")),
    edit_graph(lambda graph: graph["edges"][0].update(id=[graph["edges"][0]["id"]])),
    edit_graph(lambda graph: graph["edges"][0].update(to=[graph["edges"][0]["to"]])),
    set_first_edge(length_m=10**400),
    edit_graph(lambda graph: graph["nodes"][0].update(lat=10**400)),
    edit_graph(lambda graph: graph["edges"][0].update(to=graph["edges"][0]["from"])),
    edit_graph(lambda graph: graph["nodes"][0].update(lat=math.nan)),
    set_first_edge(walk_time_s=math.inf), set_first_edge(drive_time_s=[math.nan] * 24),
    edit_graph(lambda graph: graph["nodes"].append(graph["nodes"][0])),
    edit_graph(lambda graph: graph.update(edges=[])),
], ids=["negative_meter_count", "zero_length", "repeated_edge_id", "not_an_object",
        "string_drive_times", "string_length", "bool_length", "string_lat", "list_edge_id",
        "list_to_node", "length_beyond_float", "lat_beyond_float", "self_loop", "nan_lat",
        "inf_walk_time", "nan_drive_times", "repeated_node_id", "no_edges"])
def test_invalid_graph_is_a_data_error_naming_the_file(copied, capsys, edit):
    edit(copied / "city")
    assert main(["ingest", "--config", str(write_config(copied / "config.json", "city"))]) == 3
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "graph.json" in err


def block_out_dir(root):
    """An --out that is a file: (the --out, the path that cannot be made)."""
    (root / "blocked").write_text("")
    return root / "blocked", root / "blocked"


def block_samples_file(root):
    """An output file that is a directory."""
    (root / "out" / "samples.csv").unlink()
    (root / "out" / "samples.csv").mkdir()
    return root / "out", root / "out" / "samples.csv"


def block_session_index(root):
    """The session index, the one binary output, made a directory."""
    (root / "out" / "sessions.npz").unlink()
    (root / "out" / "sessions.npz").mkdir()
    return root / "out", root / "out" / "sessions.npz"


@pytest.mark.parametrize("stage,block", [
    ("synth", block_out_dir), ("ingest", block_out_dir), ("ingest", block_samples_file),
    ("ingest", block_session_index),
], ids=["synth_out_is_a_file", "ingest_out_is_a_file", "ingest_output_is_a_directory",
        "session_index_is_a_directory"])
def test_unusable_output_path_is_a_config_error(copied, capsys, stage, block):
    out, blocked = block(copied)
    config = write_config(copied / "config.json", "city")
    assert main([stage, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert str(blocked) in err
    assert not list(copied.rglob("*.tmp"))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SECONDS = st.floats(min_value=0.0, allow_infinity=False)
CELL_VALUES = {"p_available": st.floats(0.0, 1.0), "n_samples": st.integers(0, 2**40),
               "arrivals": st.integers(0, 2**40), "overflow": st.integers(0, 2**40),
               "lot_id": st.text(string.ascii_letters + string.digits + ' ,"_', max_size=6),
               "censored_fraction": st.floats(0.0, 1.0), "delta_s": FINITE}


@settings(max_examples=60)
@given(st.data())
def test_written_cells_read_back_exactly(data):
    g = grid_graph(2)
    columns = data.draw(st.sampled_from([cli.AVAILABILITY_COLUMNS, cli.ONSTREET_COLUMNS,
                                         cli.OFFSTREET_COLUMNS, cli.DIFF_COLUMNS]))
    hours = tuple(data.draw(st.lists(st.integers(0, 23), min_size=1, max_size=4,
                                     unique=True)))
    read_hours = tuple(data.draw(st.permutations(hours)))
    shape = len(hours), len(g.block_ids)
    arrays = {name: np.array(data.draw(st.lists(CELL_VALUES.get(name, SECONDS),
                                                min_size=math.prod(shape),
                                                max_size=math.prod(shape)))).reshape(shape)
              for name in columns[2:]}
    row_of = [hours.index(hour) for hour in read_hours]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cells.csv"
        cli._write_cells(path, columns, g, hours, *arrays.values())
        for name, written in arrays.items():
            if name == "lot_id":
                ids = {(r["block_id"], int(r["hour"])): r["lot_id"] for r in read_rows(path)}
                assert ids == {(block, hour): written[i, j] for i, hour in enumerate(hours)
                               for j, block in enumerate(g.block_ids)}
                continue
            back = cli._read_cells(path, columns, name, g, read_hours)
            expected = written[row_of].astype(float)
            # bit for bit: -0.0 stays negative, every float keeps its last bit
            assert np.array_equal(back.view(np.int64), expected.view(np.int64)), name


def set_first_cells(root, edits):
    """Set, for each (file, column, value) of ``edits``, that column of the
    first row of that stage output to that value."""
    for name, column, value in edits:
        edit_csv(root / "out" / name,
                 lambda rows: rows[1].__setitem__(rows[0].index(column), value))


@pytest.mark.parametrize("edits,where", [
    ([("onstreet.csv", "mean_onstreet_s", "-5")],
     "onstreet.csv, line 2: expected a finite time >= 0 s, got '-5'"),
    ([("onstreet.csv", "mean_onstreet_s", "1.7e308"),
      ("offstreet.csv", "mean_offstreet_s", "-1.7e308")],
     "offstreet.csv, line 2: expected a finite time >= 0 s, got '-1.7e308'"),
    ([("offstreet.csv", "walk_s", "-0.5")],
     "offstreet.csv, line 2: expected a finite time >= 0 s, got '-0.5'"),
    ([("onstreet.csv", "censored_fraction", "1.5")],
     "onstreet.csv, line 2: expected a fraction in [0, 1], got '1.5'"),
], ids=["negative_onstreet", "opposite_extremes", "negative_walk", "censored_above_1"])
def test_negative_time_or_fraction_above_1_read_by_diff_is_a_data_error(copied, capsys, edits,
                                                                         where):
    set_first_cells(copied, edits)
    code, err = run_stage(copied, "onstreet.csv", capsys)
    assert code == 3
    assert_one_line(err)
    assert where in err


def test_largest_onstreet_time_against_zero_gives_finite_outputs(copied, capsys):
    set_first_cells(copied, [("onstreet.csv", "mean_onstreet_s", "1.7e308"),
                             ("offstreet.csv", "mean_offstreet_s", "0")])
    code, err = run_stage(copied, "onstreet.csv", capsys)
    assert code == 0, err
    first = read_rows(copied / "out" / "diff.csv")[0]
    assert float(first["delta_s"]) == -1.7e308
    for path in copied.glob("out/diff_h*.geojson"):
        json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(name))


OUTPUT_GLOBS = ("*.csv", "*.geojson", "*.json")


def outputs(out):
    return {p.name: p.read_bytes() for pattern in OUTPUT_GLOBS for p in out.glob(pattern)}


def test_edited_graph_gives_the_outputs_of_a_fresh_run(run, copied):
    # copied/out holds the graph index of the graph before the edit
    def slower_at_8(graph):
        graph["edges"][0]["drive_time_s"][8] *= 1.5

    index = copied / "out" / "graph.npz"
    before = index.read_bytes()
    edit_graph(slower_at_8)(copied / "city")
    config = write_config(copied / "config.json", "city")
    assert main(["pipeline", "--config", str(config)]) == 0
    assert main(["pipeline", "--config", str(config), "--out", str(copied / "fresh")]) == 0
    assert outputs(copied / "out") == outputs(copied / "fresh")
    assert outputs(copied / "out")["offstreet.csv"] != outputs(run["out"])["offstreet.csv"]
    assert index.read_bytes() != before
    assert index.read_bytes() == (copied / "fresh" / "graph.npz").read_bytes()


def damage_graph_index(index, damage):
    if damage == "truncated":
        index.write_bytes(index.read_bytes()[:index.stat().st_size // 2])
    elif damage == "garbage":
        index.write_bytes(b"PK garbage")
    else:
        with np.load(index) as npz:
            arrays = {name: npz[name] for name in npz.files}
        if damage == "other_version":
            arrays["format_version"] = arrays["format_version"] + 1
        else:
            arrays["graph_sha256"] = np.array("0" * 64)
        np.savez(index, **arrays)


@pytest.mark.parametrize("stage,name", [("predict", "availability.csv"),
                                        ("sim-off", "offstreet.csv")])
@pytest.mark.parametrize("damage", ["truncated", "garbage", "other_version", "other_key"])
def test_unusable_graph_index_is_rebuilt(copied, capsys, stage, name, damage):
    index = copied / "out" / "graph.npz"
    made_by_pipeline, good = (copied / "out" / name).read_bytes(), index.read_bytes()
    damage_graph_index(index, damage)
    assert main([stage, "--config", str(write_config(copied / "config.json", "city"))]) == 0
    assert capsys.readouterr().err == ""
    assert (copied / "out" / name).read_bytes() == made_by_pipeline
    assert index.read_bytes() == good


@pytest.mark.parametrize("stage,name,code", [("predict", "sessions.npz", 3),
                                             ("sim-off", "graph.npz", 0)])
def test_truncated_index_leaves_no_file_open(copied, stage, name, code):
    index = copied / "out" / name
    index.write_bytes(index.read_bytes()[:index.stat().st_size // 2])
    config = write_config(copied / "config.json", "city")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([stage, "--config", str(config)]) == code
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_invalid_graph_beside_an_index_of_a_valid_one_is_a_data_error(copied, capsys):
    set_first_edge(length_m=0)(copied / "city")
    block = json.loads((copied / "city" / "graph.json").read_text())["edges"][0]["id"]
    assert main(["predict", "--config", str(write_config(copied / "config.json", "city"))]) == 3
    err = capsys.readouterr().err
    assert_one_line(err)
    assert f"graph.json: edge {block!r} has nonpositive length" in err


def test_graph_that_is_no_utf8_is_a_data_error(copied, capsys):
    graph = copied / "city" / "graph.json"
    graph.write_bytes(graph.read_bytes().replace(b'"id": "', b'"id": "\xff', 1))
    assert main(["ingest", "--config", str(write_config(copied / "config.json", "city"))]) == 3
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "malformed graph file" in err and "graph.json" in err


@pytest.mark.skipif(sys.version_info < (3, 11), reason="csv reads NUL from Python 3.11 on")
def test_nul_ended_block_id_goes_through_the_pipeline(copied):
    block = read_rows(copied / "city" / "payments.csv")[0]["block_id"]

    def rename(rows):
        for row in rows:
            row[:] = [block + "\x00" if cell == block else cell for cell in row]

    def rename_edge(graph):
        next(edge for edge in graph["edges"] if edge["id"] == block)["id"] += "\x00"

    for name in ("payments.csv", "surveys.csv"):
        edit_csv(copied / "city" / name, rename)
    edit_graph(rename_edge)(copied / "city")
    config = write_config(copied / "config.json", "city")
    assert main(["pipeline", "--config", str(config)]) == 0
    rows = read_rows(copied / "out" / "availability.csv")
    assert block + "\x00" in {row["block_id"] for row in rows}


def test_meter_count_beyond_int64_predicts_as_any_count(copied):
    # the count only marks a block as metered, so 10**30 predicts as 5 does,
    # whether predict parses the graph or reads its index
    def set_count(count):
        def edit(graph):
            next(edge for edge in graph["edges"] if edge["meter_count"])["meter_count"] = count
        return edit

    availability = {}
    for count in (5, 10**30):
        city = copied / f"city_{count}"
        shutil.copytree(copied / "city", city)
        edit_graph(set_count(count))(city)
        config, out = write_config(copied / f"{count}.json", city.name), copied / f"out_{count}"
        for stage in ("ingest", "train", "predict"):
            assert main([stage, "--config", str(config), "--out", str(out)]) == 0, stage
        availability[count, "hit"] = (out / "availability.csv").read_bytes()
        (out / "graph.npz").unlink()
        assert main(["predict", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "graph.npz").exists()
        availability[count, "miss"] = (out / "availability.csv").read_bytes()
    assert len(set(availability.values())) == 1


# -- every text file is UTF-8, whatever the locale -----------------------------------

@pytest.mark.parametrize("name,where,stage", [
    *[(name, where, stage) for name, (stage, where, _) in STAGE_CSVS.items()],
    ("lots.json", "city", "sim-off"), ("config.json", ".", "ingest")])
def test_text_that_is_not_utf8_exits_with_one_line(copied, capsys, name, where, stage):
    config = write_config(copied / "config.json", "city")
    path = copied / where / name
    data = path.read_bytes()
    if name.endswith(".csv"):  # at the start of the second data row
        at = data.index(b"\n", data.index(b"\n") + 1) + 1
    else:  # into the first lot's "id" key, or the config's "seed" key
        at = data.index(b'"id"' if name == "lots.json" else b'"seed"') + 2
    path.write_bytes(data[:at] + b"\xe9" + data[at:])  # no UTF-8 byte
    code = main([stage, "--config", str(config)])
    err = capsys.readouterr().err
    assert code == (2 if name == "config.json" else 3)
    assert_one_line(err)
    assert name in err
    if name.endswith(".csv"):
        assert f"{name}, line 3: not UTF-8" in err
    assert not list(copied.rglob("*.tmp"))


@pytest.mark.parametrize("name,stage", [("graph.json", "ingest"), ("lots.json", "sim-off")])
def test_id_with_a_lone_surrogate_exits_3_naming_it(copied, capsys, name, stage):
    # a JSON escape of a lone surrogate ends the first block or lot id; the
    # input is named, not an output that cannot hold the id, and the graph
    # index is not rewritten
    config = write_config(copied / "config.json", "city")
    path, index = copied / "city" / name, copied / "out" / "graph.npz"
    raw, before = json.loads(path.read_text(encoding="utf-8")), index.read_bytes()
    (raw["edges"] if name == "graph.json" else raw)[0]["id"] += "\ud800"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main([stage, "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert_one_line(err)
    assert name in err and "\\ud800' is not UTF-8" in err
    assert index.read_bytes() == before


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_ingest_under_an_ascii_locale_writes_the_bytes_of_utf8(copied):
    probe = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        capture_output=True, text=True, check=True, env={**os.environ, **ASCII_LOCALE})
    assert codecs.lookup(probe.stdout.strip()).name == "ascii"  # the locale is ASCII
    # a meter id and a lot id that are not ASCII; rates.csv repeats the lot id
    city = copied / "city"
    surveys = city / "surveys.csv"
    lines = surveys.read_text(encoding="utf-8").split("\n")
    lines[1] = "m\u00e9ter" + lines[1][lines[1].index(","):]
    surveys.write_text("\n".join(lines), encoding="utf-8")
    lots = json.loads((city / "lots.json").read_text(encoding="utf-8"))
    old, new = lots[0]["id"], lots[0]["id"] + "\u00f6"
    lots[0]["id"] = new
    (city / "lots.json").write_text(json.dumps(lots, ensure_ascii=False), encoding="utf-8")
    events = city / "lot_events.csv"
    events.write_text(events.read_text(encoding="utf-8").replace(f"\n{old},", f"\n{new},"),
                      encoding="utf-8")
    config = write_config(copied / "config.json", "city")
    src = Path(cli.__file__).parents[1]
    for out, env in (("utf8", {"PYTHONUTF8": "1"}), ("ascii", ASCII_LOCALE)):
        done = subprocess.run(
            [sys.executable, "-m", "parksim.cli", "ingest", "--config", str(config),
             "--out", str(copied / out)],
            capture_output=True, env={**os.environ, "PYTHONPATH": str(src), **env}, check=False)
        assert done.returncode == 0, done.stderr
    names = sorted(p.name for p in (copied / "utf8").iterdir())
    assert names == sorted(p.name for p in (copied / "ascii").iterdir())
    for name in names:
        assert (copied / "ascii" / name).read_bytes() == (copied / "utf8" / name).read_bytes()
    assert f"\r\n{new},".encode() in (copied / "ascii" / "rates.csv").read_bytes()
