"""Command-line pipeline: ingest, train, predict, simulate, map export.

One JSON config fully specifies a run; --seed, --hours, and --out override
it for quick experiments (--seed sets the seed of every section without its
own). Stages communicate through files in the output directory, so each
subcommand can also be run alone against intermediate results.

Only ingest parses ``payments.csv``: it combines the survey checks, read
as columns, into one sample per (block, half-hour window), computes the
four availability features of every sample and writes them into
``samples.csv``, from which train and eval read their whole dataset, with
no graph and no payments. It also writes the parsed sessions once, as the
session index ``sessions.npz``, keyed by the sha256 of the payment bytes
they came from; ``ingest.json`` records that sha256 and the first and last
session start date. Predict reads its sessions from that index alone: it
hashes ``payments.csv`` and exits 2 (run ingest first) when the index is
missing, was made from other bytes or is in another format, so a stale
index is never used. Every session must lie on a block of the graph.
Ingest also reads ``lot_events.csv`` into dense hourly arrays of each
lot's entries and departures and averages them into the hourly Poisson
rates of ``rates.csv``, a row for every (day of week, hour) of every lot,
which sim-off samples. Eval exits 2 (run train first) unless the train
report holds its train config and the sha256 of ``samples.csv``. The
graph's columns, once checked, are cached in ``graph.npz`` (layout version
3) under the sha256 of the graph bytes: node ids and coordinates, block
ids, ends, meter counts, lengths and times. A stage that finds no such
cache there, or one of another version, parses the graph and writes it.

The per-cell files ``availability.csv``, ``onstreet.csv``,
``offstreet.csv`` and ``diff.csv`` hold one row per (block, hour) of the
run: hour-major in the run's hour order, and blocks in ``g.block_ids``
order within an hour. Stages hand them over as (hour, block) arrays:
``_write_cells`` writes such arrays in that order, floats as their exact
``repr``, and ``_read_cells`` reads a column back. It rejects, naming the
file and line, a cell that does not parse, a probability outside [0, 1],
a block the graph does not have, an hour outside 0..23 and a repeated
(block, hour). Rows for hours outside the run are checked and skipped; a
(block, hour) of the run with no row is rejected once the whole file is read.

Exit codes, with a one-line message on stderr for every failure:
0 success; 2 when a config key, an input file or an earlier stage's output
is missing, an earlier stage's output was made from other inputs, the
config itself is invalid, an output cannot be written, or the config asks
for more memory than can be allocated; 3 when a file is present but
malformed; 4 on a numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from datetime import date, timedelta
from functools import partial
from pathlib import Path

import numpy as np

from .data_ingest import (
    Cells,
    SmoothingConfig,
    _atomic_write,
    _counts,
    _hours,
    _numbers,
    combine_surveys,
    estimate_rates,
    file_sha256,
    read_columns,
    read_lot_events,
    read_lots,
    read_payments,
    read_rates_csv,
    read_samples_csv,
    read_session_index,
    read_surveys,
    write_rates_csv,
    write_samples_csv,
    write_session_index,
    write_table,
)
from .errors import ConfigError, DataError, NumericError, ParksimError, check_fields
from .occupancy_model import (
    _EPOCH,
    TrainConfig,
    build_dataset,
    load_model,
    predict_block_probabilities,
    save_model,
    train,
    train_baseline,
)
from .offstreet_sim import LotSimConfig, LotSpec, estimate_offstreet_time
from .onstreet_sim import OnstreetConfig, PolicyWeights, estimate_onstreet_time
from .road_graph import RoadGraph, load_graph
from .synth import SynthConfig, synth_generate

SAMPLES_FILE = "samples.csv"
RATES_FILE = "rates.csv"
INGEST_REPORT_FILE = "ingest.json"
SESSION_INDEX_FILE = "sessions.npz"
GRAPH_INDEX_FILE = "graph.npz"
MODEL_FILE = "model.json"
TRAIN_REPORT_FILE = "train_report.json"
EVAL_FILE = "eval.json"
AVAILABILITY_FILE = "availability.csv"
ONSTREET_FILE = "onstreet.csv"
OFFSTREET_FILE = "offstreet.csv"
DIFF_FILE = "diff.csv"
AVAILABILITY_COLUMNS = ("block_id", "hour", "p_available")
ONSTREET_COLUMNS = ("block_id", "hour", "mean_onstreet_s", "std_onstreet_s",
                    "censored_fraction", "n_samples")
OFFSTREET_COLUMNS = ("block_id", "hour", "mean_offstreet_s", "std_offstreet_s",
                     "lot_id", "drive_s", "lot_s", "walk_s", "arrivals", "overflow")
DIFF_COLUMNS = ("block_id", "hour", "mean_onstreet_s", "mean_offstreet_s", "delta_s")
# The config keys of the input files, each a path relative to the config file.
PATH_KEYS = ("graph", "payments", "surveys", "lots", "lot_events")
# Each config section and the dataclass it builds. A JSON list in a section
# stands for a tuple; the dataclass rejects one where no tuple is wanted.
SECTIONS = {"train": TrainConfig, "onstreet": OnstreetConfig, "offstreet": LotSimConfig,
            "policy": PolicyWeights, "smoothing": SmoothingConfig, "synth": SynthConfig}


@dataclass(frozen=True)
class RunConfig:
    out_dir: Path
    graph: Path | None
    payments: Path | None
    surveys: Path | None
    lots: Path | None
    lot_events: Path | None
    hours: tuple[int, ...]
    day_of_week: int
    predict_date: date
    seed: int
    train: TrainConfig
    onstreet: OnstreetConfig
    offstreet: LotSimConfig
    policy: PolicyWeights
    smoothing: SmoothingConfig
    synth: SynthConfig

    def __post_init__(self):
        check_fields(self, at_least={"seed": 0, "day_of_week": 0})
        if not self.hours or any(not 0 <= h <= 23 for h in self.hours):
            raise ConfigError(f"hours must be within 0..23, got {self.hours}")
        if self.day_of_week > 6:
            raise ConfigError(f"day_of_week must be in 0..6, got {self.day_of_week}")


def _build_section(section: str, raw, seed: int):
    """The dataclass of config section ``section`` from its JSON value ``raw``;
    the run ``seed`` is the default of its ``seed`` field, if it has one."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section '{section}' must be a JSON object")
    cls = SECTIONS[section]
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {sorted(unknown)}")
    merged = {"seed": seed} if "seed" in cls.__dataclass_fields__ else {}
    merged.update((key, tuple(v) if isinstance(v, list) else v) for key, v in raw.items())
    try:
        return cls(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad '{section}' section: {exc}") from exc


def load_run_config(path: str, *, seed_override: int | None = None,
                    hours_override: tuple[int, ...] | None = None,
                    out_override: str | None = None) -> RunConfig:
    cfg_path = Path(path)
    try:
        raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    base = cfg_path.parent

    def path_of(key: str, default: str | None = None) -> Path | None:
        value = raw.get(key, default)
        if value is None and default is None:  # an input path not set
            return None
        if not isinstance(value, str):
            raise ConfigError(f"config key '{key}' must be a string, got {value!r}")
        return base / value

    try:
        seed = raw.get("seed", 0) if seed_override is None else seed_override
        hours = raw.get("hours", range(24)) if hours_override is None else hours_override

        try:
            predict_date = date.fromisoformat(str(raw.get("predict_date", "2026-03-13")))
        except ValueError as exc:
            raise ConfigError(f"bad predict_date: {exc}") from exc

        out_dir = path_of("out_dir", "out")
        return RunConfig(
            out_dir=out_dir if out_override is None else Path(out_override),
            **{key: path_of(key) for key in PATH_KEYS},
            hours=tuple(dict.fromkeys(hours)),
            day_of_week=raw.get("day_of_week", 4),
            predict_date=predict_date,
            seed=seed,
            **{section: _build_section(section, raw.get(section, {}), seed)
               for section in SECTIONS},
        )
    except DataError as exc:
        # section validation failures are configuration mistakes here
        raise ConfigError(str(exc)) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        # a value of the wrong type for its key
        raise ConfigError(f"bad config value: {exc}") from exc


def _graph(cfg: RunConfig) -> RoadGraph:
    """The run's graph, by way of the graph index in the output directory."""
    return load_graph(_require(cfg.graph, "graph"), cfg.out_dir / GRAPH_INDEX_FILE)


def _require(value: Path | None, key: str) -> Path:
    if value is None:
        raise ConfigError(f"config key '{key}' is required for this stage")
    if not value.exists():
        raise ConfigError(f"file for '{key}' not found: {value}")
    return value


def _stage_file(cfg: RunConfig, name: str, producer: str) -> Path:
    """An earlier stage's output; missing is a config error, like an input."""
    path = cfg.out_dir / name
    if not path.exists():
        raise ConfigError(f"{path} not found (run {producer} first)")
    return path


def _check_known(path: Path, kind: str, ids, known) -> None:
    """Reject a file whose records name a block or lot the run does not have."""
    unknown = sorted(set(ids) - set(known))
    if unknown:
        raise DataError(f"{path} references unknown {kind}: {unknown[:5]}")


def _read_known_lots(cfg: RunConfig, g: RoadGraph, path: Path, ids) -> list[LotSpec]:
    """The lots file's lots: at nodes of ``g``, and the lots ``ids`` of ``path``."""
    lots_path = _require(cfg.lots, "lots")
    lots = read_lots(lots_path)
    _check_known(lots_path, "nodes", (lot.node for lot in lots), g.node_position)
    _check_known(path, "lots", ids, (lot.id for lot in lots))
    no_rows = sorted({lot.id for lot in lots} - set(ids))
    if no_rows:
        raise DataError(f"{lots_path} lists lots with no rows in {path}: {no_rows}")
    return lots


def _first_and_last_date(times: np.ndarray) -> list[str] | None:
    """The ISO dates of the earliest and latest of int64 microsecond
    ``times``; None when there are none."""
    if not times.size:
        return None
    return [(_EPOCH + timedelta(microseconds=int(t))).date().isoformat()
            for t in (times.min(), times.max())]


# -- stages ----------------------------------------------------------------------

def stage_synth(cfg: RunConfig) -> None:
    synth_generate(cfg.synth, cfg.seed, cfg.out_dir)


def stage_ingest(cfg: RunConfig) -> None:
    g = _graph(cfg)
    surveys_path = _require(cfg.surveys, "surveys")
    block_ids, times, free = read_surveys(surveys_path)
    _check_known(surveys_path, "blocks", block_ids, g.position)
    samples, discarded = combine_surveys(block_ids, times, free)
    payments_path = _require(cfg.payments, "payments")
    payments_sha256 = file_sha256(payments_path)
    sessions = read_payments(payments_path)
    _check_known(payments_path, "blocks", sessions.block_ids, g.position)
    features, _ = build_dataset(samples, sessions, g)

    flows = read_lot_events(_require(cfg.lot_events, "lot_events"))
    _read_known_lots(cfg, g, cfg.lot_events, flows.lot_ids)
    rates = estimate_rates(flows, cfg.smoothing)

    write_samples_csv(samples, features, cfg.out_dir / SAMPLES_FILE)
    write_rates_csv(rates, cfg.out_dir / RATES_FILE)
    write_session_index(sessions, payments_sha256, cfg.out_dir / SESSION_INDEX_FILE)
    _atomic_write(cfg.out_dir / INGEST_REPORT_FILE, json.dumps({
        "payments_sha256": payments_sha256,
        "payment_dates": _first_and_last_date(sessions.starts),
        "samples": samples.labels.size,
        "surveys_discarded": discarded,
        "lots": list(flows.lot_ids),
        "weeks": flows.weeks,
        "departures_outside_span": flows.departures_outside_span,
    }, sort_keys=True))


def stage_train(cfg: RunConfig) -> None:
    samples = _stage_file(cfg, SAMPLES_FILE, "ingest")
    samples_sha256, (X, y) = file_sha256(samples), read_samples_csv(samples)
    model, report = train(X, y, cfg.train)
    save_model(model, cfg.out_dir / MODEL_FILE)
    _atomic_write(cfg.out_dir / TRAIN_REPORT_FILE, json.dumps(
        {**asdict(report), "train_config": asdict(cfg.train),
         "samples_sha256": samples_sha256}, sort_keys=True))


def stage_eval(cfg: RunConfig) -> None:
    """Compare the trained network's report with a freshly fitted baseline."""
    report_path = _stage_file(cfg, TRAIN_REPORT_FILE, "train")
    try:
        network = json.loads(report_path.read_text(encoding="utf-8"))
        network_ce = float(_numbers([
            network["mean_val_cross_entropy"], network["mean_val_accuracy"],
            *(split[name] for split in network["per_split"]
              for name in ("cross_entropy", "accuracy"))])[0])
        trained_on = network.get("train_config"), network.get("samples_sha256")
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise DataError(f"malformed training report {report_path}: {exc!r}") from exc
    samples = _stage_file(cfg, SAMPLES_FILE, "ingest")
    if trained_on != (asdict(cfg.train), file_sha256(samples)):
        raise ConfigError(f"{report_path} was made under another train config or from "
                          f"another {samples.name} (run train first)")
    X, y = read_samples_csv(samples)
    _, base_report = train_baseline(X, y, cfg.train)
    _atomic_write(cfg.out_dir / EVAL_FILE, json.dumps({
        "network": network,
        "baseline": asdict(base_report),
        "cross_entropy_improvement": base_report.mean_val_cross_entropy - network_ce,
    }, sort_keys=True))


def stage_predict(cfg: RunConfig) -> None:
    g = _graph(cfg)
    model = load_model(_stage_file(cfg, MODEL_FILE, "train"))
    index = _stage_file(cfg, SESSION_INDEX_FILE, "ingest")
    sessions = read_session_index(index, file_sha256(_require(cfg.payments, "payments")))
    _check_known(index, "blocks", sessions.block_ids, g.position)
    p = predict_block_probabilities(model, sessions, g, cfg.hours, cfg.predict_date)
    _write_cells(cfg.out_dir / AVAILABILITY_FILE, AVAILABILITY_COLUMNS, g, cfg.hours, p)


# The column parser of each stage CSV column; any other column holds finite
# seconds >= 0, so diff's off - on is finite. Lot ids stay unchecked: diff
# reads no lots file to check them against.
_COLUMN_PARSERS = {"block_id": list, "lot_id": list, "hour": _hours, "delta_s": _numbers,
                   "p_available": partial(_numbers, lo=0, hi=1, what="a probability in [0, 1]"),
                   "censored_fraction": partial(_numbers, lo=0, hi=1, what="a fraction in [0, 1]"),
                   "n_samples": _counts, "arrivals": _counts, "overflow": _counts}
_seconds = partial(_numbers, lo=0, what="a finite time >= 0 s")


def _read_cells(path: Path, columns: tuple[str, ...], value: str, g: RoadGraph,
                hours: tuple[int, ...]) -> np.ndarray:
    """Column ``value`` of a per-cell stage CSV as a (len(hours), blocks)
    array, with block ``g.block_ids[j]`` in column ``j``."""
    seen: set[tuple[str, int]] = set()

    def parse(cells: Cells) -> tuple[list[tuple[str, int]], np.ndarray]:
        parsed = {name: _COLUMN_PARSERS.get(name, _seconds)(cells[name]) for name in columns}
        keys = list(zip(parsed["block_id"], parsed["hour"].tolist()))
        fresh: set[tuple[str, int]] = set()
        for key in keys:
            if key[0] not in g.position:
                raise DataError(f"block {key[0]!r} is not in the graph")
            if key in seen or key in fresh:
                raise DataError(f"duplicate (block, hour) row {key}")
            fresh.add(key)
        return keys, parsed[value]

    row_of = {hour: i for i, hour in enumerate(hours)}
    # every parsed value is finite, so NaN marks a cell no row has filled
    table = np.full((len(hours), len(g.block_ids)), np.nan)
    for keys, values in read_columns(path, columns, parse):
        seen.update(keys)
        for (block, hour), x in zip(keys, values):
            if hour in row_of:
                table[row_of[hour], g.position[block]] = x
    missing = np.argwhere(np.isnan(table))
    if len(missing):
        cells = [(g.block_ids[j], hours[i]) for i, j in missing[:3]]
        raise DataError(f"{path} is missing {len(missing)} (block, hour) rows "
                        f"of this run, e.g. {cells}")
    return table


def _write_cells(path: Path, columns: tuple[str, ...], g: RoadGraph,
                 hours: tuple[int, ...], *arrays) -> None:
    """Write a per-cell stage CSV whose columns after ``block_id`` and
    ``hour`` hold ``arrays``, each (len(hours), blocks) or one value for all.
    A non-finite float is a NumericError, and nothing is written."""
    for column, a in zip(columns[2:], arrays):
        if np.asarray(a).dtype.kind == "f" and not np.isfinite(a).all():
            raise NumericError(f"{path}: {column} would hold a non-finite value")
    shape = len(hours), len(g.block_ids)
    cells = zip(*(np.broadcast_to(a, shape).ravel().tolist() for a in arrays))
    keys = ((block_id, hour) for hour in hours for block_id in g.block_ids)
    write_table(path, columns, (key + cell for key, cell in zip(keys, cells)))


def stage_sim_on(cfg: RunConfig) -> None:
    g = _graph(cfg)
    p = _read_cells(_stage_file(cfg, AVAILABILITY_FILE, "predict"), AVAILABILITY_COLUMNS,
                    "p_available", g, cfg.hours)
    est = estimate_onstreet_time(g, p, cfg.hours, cfg.onstreet, cfg.policy)
    _write_cells(cfg.out_dir / ONSTREET_FILE, ONSTREET_COLUMNS, g, cfg.hours, est.mean_s,
                 est.std_s, est.censored_fraction, est.n_samples)


def stage_sim_off(cfg: RunConfig) -> None:
    g = _graph(cfg)
    rates_path = _stage_file(cfg, RATES_FILE, "ingest")
    rates = read_rates_csv(rates_path)
    lots = _read_known_lots(cfg, g, rates_path, rates)
    est = estimate_offstreet_time(g, lots, rates, cfg.day_of_week, cfg.hours, cfg.offstreet)
    _write_cells(cfg.out_dir / OFFSTREET_FILE, OFFSTREET_COLUMNS, g, cfg.hours, est.total_s,
                 est.std_s, est.lot_id, est.drive_s, est.lot_s, est.walk_s, est.arrivals,
                 est.overflow)


def stage_diff(cfg: RunConfig) -> None:
    g = _graph(cfg)
    on, off = (_read_cells(_stage_file(cfg, name, producer), columns, mean, g, cfg.hours)
               for name, producer, columns, mean in (
                   (ONSTREET_FILE, "sim-on", ONSTREET_COLUMNS, "mean_onstreet_s"),
                   (OFFSTREET_FILE, "sim-off", OFFSTREET_COLUMNS, "mean_offstreet_s")))
    delta = off - on
    lon, lat = g.lon.tolist(), g.lat.tolist()
    lines = [{"type": "LineString", "coordinates": [[lon[a], lat[a]], [lon[b], lat[b]]]}
             for a, b in zip(g.block_from.tolist(), g.block_to.tolist())]

    for i, hour in enumerate(cfg.hours):
        features = [{"type": "Feature", "geometry": line,
                     "properties": {"block_id": block_id, "hour": hour, "t_on_s": t_on,
                                    "t_off_s": t_off, "delta_s": delta_s}}
                    for block_id, line, t_on, t_off, delta_s in zip(
                        g.block_ids, lines, on[i].tolist(), off[i].tolist(), delta[i].tolist())]
        collection = {"type": "FeatureCollection", "features": features}
        _atomic_write(cfg.out_dir / f"diff_h{hour:02d}.geojson",
                      json.dumps(collection, sort_keys=True))
    _write_cells(cfg.out_dir / DIFF_FILE, DIFF_COLUMNS, g, cfg.hours, on, off, delta)


PIPELINE = (("ingest", stage_ingest), ("train", stage_train),
            ("predict", stage_predict), ("sim-on", stage_sim_on),
            ("sim-off", stage_sim_off), ("diff", stage_diff))


def cmd_pipeline(cfg: RunConfig) -> None:
    for name, fn in PIPELINE:
        try:
            fn(cfg)
        except ParksimError as exc:
            raise type(exc)(f"{name}: {exc}") from exc


STAGES = {"synth": stage_synth, **dict(PIPELINE), "eval": stage_eval, "pipeline": cmd_pipeline}


def parse_hours(spec: str) -> tuple[int, ...]:
    """Parse an hours argument like '8-18' or '8,12,17' or '6-9,15'."""
    hours: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, _, hi = part.partition("-")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError as exc:
                raise ConfigError(f"bad hours range {part!r}") from exc
            if lo_i > hi_i:
                raise ConfigError(f"bad hours range {part!r}")
            hours.extend(range(lo_i, hi_i + 1))
        else:
            try:
                hours.append(int(part))
            except ValueError as exc:
                raise ConfigError(f"bad hour {part!r}") from exc
    if not hours:
        raise ConfigError(f"no hours in {spec!r}")
    return tuple(hours)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="parksim",
        description="Estimate per-block on-street vs off-street parking times.")
    parser.add_argument("command", choices=STAGES, help="the stage to run")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="set the seed of every config section without its own")
    parser.add_argument("--hours", default=None, help="hours to process, e.g. 8-18 or 8,12,17")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)
    try:
        hours = parse_hours(args.hours) if args.hours is not None else None
        cfg = load_run_config(args.config, seed_override=args.seed,
                              hours_override=hours, out_override=args.out)
        STAGES[args.command](cfg)
    except ConfigError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"{args.command}: out of memory: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
