"""Correctness checks, quality figures and hashes of one pipeline's outputs."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

OUTPUT_CSVS = ("samples.csv", "rates.csv", "availability.csv", "onstreet.csv",
               "offstreet.csv", "diff.csv")
PER_CELL_CSVS = ("availability.csv", "onstreet.csv", "offstreet.csv", "diff.csv")
TEXT_COLUMNS = {"block_id", "lot_id"}


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def output_hashes(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in OUTPUT_CSVS if (out_dir / name).exists()}


def check_outputs(out_dir: Path, city_dir: Path, hours: tuple[int, ...],
                  min_park_s: float) -> dict[str, bool]:
    """Named pass/fail checks on the per-(block, hour) outputs."""
    blocks = {e["id"] for e in json.loads((city_dir / "graph.json").read_text())["edges"]}
    lot_ids = {lot["id"] for lot in json.loads((city_dir / "lots.json").read_text())}
    expected = len(blocks) * len(hours)
    tables = {name: _rows(out_dir / name) if (out_dir / name).exists() else None
              for name in PER_CELL_CSVS}
    present = all(rows is not None for rows in tables.values())
    result = {"outputs_present": present}
    if not present:
        return result
    result["row_counts"] = all(len(rows) == expected for rows in tables.values())
    finite = True
    for rows in tables.values():
        for row in rows:
            for column, value in row.items():
                if column not in TEXT_COLUMNS and not math.isfinite(float(value)):
                    finite = False
    result["finite"] = finite
    result["p_available_in_unit_interval"] = all(
        0.0 <= float(r["p_available"]) <= 1.0 for r in tables["availability.csv"])
    result["onstreet_at_least_min_park"] = all(
        float(r["mean_onstreet_s"]) >= min_park_s for r in tables["onstreet.csv"])
    result["lot_ids_configured"] = all(
        r["lot_id"] in lot_ids for r in tables["offstreet.csv"])
    return result


def avail_brier(out_dir: Path, city_dir: Path) -> float:
    """Mean squared error of p_available against the synthetic truth."""
    truth = json.loads((city_dir / "ground_truth.json").read_text())["hourly_availability"]
    errors = [(float(r["p_available"]) - truth[r["block_id"]][int(r["hour"])]) ** 2
              for r in _rows(out_dir / "availability.csv")]
    return sum(errors) / len(errors)


def onstreet_se_s(out_dir: Path) -> float:
    """Mean Monte Carlo standard error of the on-street time estimates."""
    ses = [float(r["std_onstreet_s"]) / math.sqrt(int(r["n_samples"]))
           for r in _rows(out_dir / "onstreet.csv")]
    return sum(ses) / len(ses)
