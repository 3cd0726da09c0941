"""Command-line interface: single runs, parameter sweeps, and figure-data
emission.

Verbs:

``run``
    execute one experiment and write ``records.json`` + ``results.csv`` +
    ``MANIFEST`` into the output directory.
``sweep``
    execute the Cartesian product of the configured grids; points land in
    per-point staging files and are merged, ordered by point index.
``plotdata``
    post-process one or more ``records.json`` files into per-figure CSVs.

Configuration comes from an INI file with sections ``[experiment]``,
``[reservoir]``, ``[task]``, ``[sweep]``; command-line flags override file
values.  Relative output directories are resolved under the
``SWAPQRN_OUTPUT_ROOT`` environment variable when it is set.
"""

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from contextlib import contextmanager, suppress
from dataclasses import dataclass, asdict, fields, replace
from itertools import product
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import __version__
from .reservoir import BACKENDS, ReservoirConfig, check_memory
from .tasks import (
    StmcSpec, NarmaSpec, EsnConfig, check_esn_memory, run_stmc, run_narma,
    run_esn_narma,
)

TASKS = ("stmc", "narma5", "esn-baseline")

RANDOM_GUESS_U01 = float(np.sqrt(1.0 / 12.0))

DEFAULT_GAMMA_GRID = tuple(round(0.05 * k, 10) for k in range(1, 21))
DEFAULT_NQUBITS_GRID = tuple(range(2, 17, 2))
DEFAULT_NREPEATS_GRID = (1, 3)

# task defaults that differ from the ReservoirConfig field defaults
_NARMA_RESERVOIR = dict(n_qubits=12, gamma=0.75, n_repeats=3, c=5, n_shots=60000)
_RESERVOIR_DEFAULTS = {
    "stmc": dict(n_qubits=16, gamma=0.55, n_shots=30000),
    "narma5": _NARMA_RESERVOIR,
    "esn-baseline": _NARMA_RESERVOIR,
}


def _schema(cls, skip=()):
    """INI schema of a config dataclass: field name -> annotated type."""
    return {f.name: f.type for f in fields(cls) if f.name not in skip}


_RESERVOIR_SCHEMA = _schema(ReservoirConfig)
# the ESN takes its size from the reservoir and its seed from the task
_ESN_SCHEMA = _schema(EsnConfig, skip=("n_nodes", "seed"))
_TASK_SCHEMA = {
    "stmc": _schema(StmcSpec),
    "narma5": _schema(NarmaSpec),
    "esn-baseline": {**_schema(NarmaSpec), **_ESN_SCHEMA, "n_esn_seeds": int},
}
_SWEEP_SCHEMA = {"gamma": tuple[float, ...], "n_qubits": tuple[int, ...],
                 "n_repeats": tuple[int, ...]}
_EXPERIMENT_SCHEMA = {"task": str, "outdir": str}


class ConfigError(ValueError):
    """Invalid, unknown, or out-of-range configuration input."""


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    reservoir: ReservoirConfig
    task_spec: object
    esn: EsnConfig | None
    n_esn_seeds: int
    sweep: dict | None
    outdir: Path


@dataclass(frozen=True)
class SweepPoint:
    index: int
    n_qubits: int
    gamma: float
    n_repeats: int


def _coerce(raw, kind, path):
    """Parse one INI value as ``kind``: a scalar type, ``T | None`` (read as
    ``T``), or ``tuple[T, ...]`` (a comma-separated list)."""
    item = next((a for a in get_args(kind) if a is not type(None)), kind)
    try:
        if get_origin(kind) is not tuple:
            return item(raw)
        items = [x.strip() for x in str(raw).split(",") if x.strip()]
        if not items:
            raise ValueError("empty list")
        return tuple(item(x) for x in items)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {path}: {raw!r} ({exc})") from exc


def _read_sections(config_path):
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(config_path):
        raise ConfigError(f"cannot read config file {config_path}")
    known = {"experiment", "reservoir", "task", "sweep"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(
                f"unknown section [{section}] (expected one of {sorted(known)})")
    return parser


def _section_values(parser, section, schema):
    values = {}
    if parser is None or not parser.has_section(section):
        return values
    for key, raw in parser.items(section):
        if key not in schema:
            raise ConfigError(
                f"unknown key '{section}.{key}' "
                f"(expected one of {sorted(schema)})")
        values[key] = _coerce(raw, schema[key], f"{section}.{key}")
    return values


def _check_fits(reservoir, task_spec, esn, n_esn_seeds):
    """Refuse a point whose reservoir run, or ESN given ``esn``, cannot fit."""
    if esn is None:
        check_memory(reservoir, task_spec.n_total)
    else:
        check_esn_memory(task_spec, replace(esn, n_nodes=reservoir.n_mem),
                         n_esn_seeds)


def _validate_grids(sweep, reservoir, task_spec, esn, n_esn_seeds):
    """Each grid value must make a valid config with the base reservoir, and
    one that fits in memory; the ESN baseline sweeps its size alone."""
    for axis, values in sweep.items():
        if esn is not None and axis != "n_qubits":
            raise ConfigError(f"sweep.{axis}: the esn-baseline task sweeps "
                              f"n_qubits only; drop the {axis} grid")
        for value in values:
            try:
                _check_fits(replace(reservoir, **{axis: value}), task_spec,
                            esn, n_esn_seeds)
            except ValueError as exc:
                raise ConfigError(f"sweep.{axis}: {exc}") from exc


def parse_config(task=None, config_path=None, flag_overrides=None):
    """Merge defaults, config-file sections, and flag overrides into a
    validated :class:`ExperimentConfig`.  Flags win over file values."""
    flags = dict(flag_overrides or {})
    parser = _read_sections(config_path) if config_path else None

    experiment = _section_values(parser, "experiment", _EXPERIMENT_SCHEMA)
    task = task or flags.pop("task", None) or experiment.get("task", "stmc")
    if task not in TASKS:
        raise ConfigError(f"experiment.task must be one of {TASKS}, got {task!r}")

    reservoir_values = dict(_RESERVOIR_DEFAULTS[task])
    reservoir_values.update(_section_values(parser, "reservoir", _RESERVOIR_SCHEMA))
    task_values = _section_values(parser, "task", _TASK_SCHEMA[task])
    sweep_values = _section_values(parser, "sweep", _SWEEP_SCHEMA)

    for values, schema in ((reservoir_values, _RESERVOIR_SCHEMA),
                           (task_values, _TASK_SCHEMA[task])):
        values.update((k, flags[k]) for k in schema if flags.get(k) is not None)
    foreign = [k for schema in _TASK_SCHEMA.values() for k in schema
               if k not in _TASK_SCHEMA[task] and flags.get(k) is not None]
    if foreign:
        raise ConfigError(f"--{foreign[0].replace('_', '-')} does not apply to {task}")
    for axis, kind in _SWEEP_SCHEMA.items():
        raw = flags.get(f"{axis}_grid")
        if raw is not None:
            sweep_values[axis] = _coerce(raw, kind, f"sweep.{axis}")

    try:
        reservoir = ReservoirConfig(**reservoir_values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config error in [reservoir]: {exc}") from exc

    n_esn_seeds = task_values.pop("n_esn_seeds", 200)
    if n_esn_seeds < 1:
        raise ConfigError(f"task.n_esn_seeds must be >= 1, got {n_esn_seeds}")
    esn_kwargs = {k: task_values.pop(k) for k in _ESN_SCHEMA if k in task_values}
    spec_cls = StmcSpec if task == "stmc" else NarmaSpec
    try:
        task_spec = spec_cls(**task_values)
        esn = (EsnConfig(n_nodes=reservoir.n_mem, seed=task_spec.seed, **esn_kwargs)
               if task == "esn-baseline" else None)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config error in [task]: {exc}") from exc
    try:
        _check_fits(reservoir, task_spec, esn, n_esn_seeds)
    except ValueError as exc:
        raise ConfigError(f"config error in [reservoir]: {exc}") from exc

    sweep = sweep_values or None
    if sweep:
        _validate_grids(sweep, reservoir, task_spec, esn, n_esn_seeds)

    outdir = (flags.get("outdir") or experiment.get("outdir")
              or os.path.join("results", task))
    if not os.path.isabs(outdir):
        outdir = os.path.join(os.environ.get("SWAPQRN_OUTPUT_ROOT", "."), outdir)
    return ExperimentConfig(task=task, reservoir=reservoir, task_spec=task_spec,
                            esn=esn, n_esn_seeds=n_esn_seeds, sweep=sweep,
                            outdir=Path(outdir))


def sweep_points(cfg):
    """Enumerate the sweep grid in deterministic order (index = position)."""
    sweep, rc = cfg.sweep or {}, cfg.reservoir
    esn = cfg.task == "esn-baseline"
    sizes = sweep.get("n_qubits", (rc.n_qubits,) if cfg.task == "narma5"
                      else DEFAULT_NQUBITS_GRID)
    gammas = sweep.get("gamma", (rc.gamma,) if esn else DEFAULT_GAMMA_GRID)
    repeats = sweep.get("n_repeats",
                        (rc.n_repeats,) if esn else DEFAULT_NREPEATS_GRID)
    return [SweepPoint(i, n, g, r)
            for i, (n, g, r) in enumerate(product(sizes, gammas, repeats))]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _run_stmc_point(cfg, rc, rng):
    result = run_stmc(cfg.task_spec, rc, rng=rng)
    return {
        "r2": {str(tau): result.metrics[tau].r2 for tau in cfg.task_spec.delays},
        "rmse": {str(tau): result.metrics[tau].rmse
                 for tau in cfg.task_spec.delays},
        "mean_rmse_short": result.mean_rmse_short,
    }


def _run_narma_point(cfg, rc, rng):
    result = run_narma(cfg.task_spec, rc, rng=rng)
    return {"rmse": result.metrics.rmse, "r2": result.metrics.r2,
            "target_std": result.target_std}


def _run_esn_point(cfg, rc, rng):
    esn_cfg = replace(cfg.esn, n_nodes=rc.n_qubits // 2)
    summary = run_esn_narma(cfg.task_spec, esn_cfg, cfg.n_esn_seeds)
    return {"n_nodes": esn_cfg.n_nodes, "median": summary.median,
            "q1": summary.q1, "q3": summary.q3,
            "rmse_per_seed": summary.rmse.tolist()}


TASK_RUNNERS = {
    "stmc": _run_stmc_point,
    "narma5": _run_narma_point,
    "esn-baseline": _run_esn_point,
}


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, np.integer):
        return int(value)
    return value


def _point_config(cfg, point):
    return replace(cfg.reservoir, n_qubits=point.n_qubits, gamma=point.gamma,
                   n_repeats=point.n_repeats)


def _point_record(cfg, point):
    """The point's reservoir config and the record fields every outcome has."""
    rc = _point_config(cfg, point)
    record_cfg = asdict(rc)
    if cfg.task == "esn-baseline":
        record_cfg["n_nodes"] = rc.n_qubits // 2
    return rc, {"point_index": point.index, "task": cfg.task,
                "config": record_cfg, "version": __version__, "seed": rc.seed}


def _execute_point(cfg, point):
    """Run one grid point; failures become error records, not crashes."""
    start = time.perf_counter()
    rc, record = _point_record(cfg, point)
    try:
        rng = (np.random.default_rng([cfg.reservoir.seed, point.index])
               if rc.backend != "exact" else None)
        record["metrics"] = _json_safe(TASK_RUNNERS[cfg.task](cfg, rc, rng))
        record["status"] = "ok"
    except Exception as exc:  # per-point failures recorded, sweep continues
        record.update(metrics={}, status="error",
                      error=f"{type(exc).__name__}: {exc}")
    record["wall_time_s"] = time.perf_counter() - start
    return record


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

@contextmanager
def _atomic_open(path):
    """Write to a temp file beside ``path``; rename it over ``path`` once done.

    If the write raises, the temp file is removed and ``path`` left as it was.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _fmt(value):
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "nan"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _config_payload(cfg):
    return {
        "task": cfg.task,
        "reservoir": asdict(cfg.reservoir),
        "task_spec": _json_safe(asdict(cfg.task_spec)),
        "esn": asdict(cfg.esn) if cfg.esn is not None else None,
        "n_esn_seeds": cfg.n_esn_seeds if cfg.task == "esn-baseline" else None,
        "sweep": ({k: list(v) for k, v in cfg.sweep.items()}
                  if cfg.sweep else None),
    }


def _metric_rows(record):
    """Tidy rows (metric, delay, value) for one successful record."""
    metrics = record["metrics"]
    if record["task"] == "stmc":
        for name in ("r2", "rmse"):
            for tau in sorted(metrics[name], key=int, reverse=True):
                yield name, tau, metrics[name][tau]
        yield "mean_rmse_short", "", metrics["mean_rmse_short"]
    elif record["task"] == "narma5":
        for name in ("rmse", "r2", "target_std"):
            yield name, "", metrics[name]
    else:
        for name in ("median", "q1", "q3"):
            yield name, "", metrics[name]


def write_results_csv(path, records):
    header = ["point_index", "task", "n_qubits", "n_nodes", "gamma",
              "n_repeats", "c", "n_shots", "backend", "seed",
              "metric", "delay", "value"]
    with _atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for record in records:
            if record["status"] != "ok":
                continue
            c = record["config"]
            base = [record["point_index"], record["task"], c["n_qubits"],
                    c.get("n_nodes", ""), _fmt(c["gamma"]), c["n_repeats"],
                    c["c"], c["n_shots"] if c["n_shots"] is not None else "",
                    c["backend"], c["seed"]]
            for metric, delay, value in _metric_rows(record):
                writer.writerow(base + [metric, delay, _fmt(value)])


def _write_manifest(outdir, cfg, filenames):
    payload = json.dumps(_config_payload(cfg), sort_keys=True,
                         separators=(",", ":"))
    digest = hashlib.sha256(payload.encode()).hexdigest()
    lines = [f"artifact swapqrn {__version__}", f"config_sha256 {digest}"]
    lines += [f"file {name}" for name in filenames]
    with _atomic_open(Path(outdir) / "MANIFEST") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_json(path, payload):
    with _atomic_open(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _environment():
    """numpy version, BLAS build and thread settings of this process.

    They describe the host, not the result, so only ``records.json`` carries
    them, never the files that must rerun byte-identical.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
            "cpu_count": os.cpu_count()}


def write_outputs(cfg, records):
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {"version": __version__, "task": cfg.task,
               "config": _config_payload(cfg), "environment": _environment(),
               "records": records}
    _write_json(outdir / "records.json", payload)
    write_results_csv(outdir / "results.csv", records)
    _write_manifest(outdir, cfg, ["records.json", "results.csv"])
    return outdir


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def _write_fig_csv(path, header, rows):
    with _atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_GRID = ["n_qubits", "n_repeats", "gamma"]


def _grid_row(r, *values):
    c = r["config"]
    return [c["n_qubits"], c["n_repeats"], *map(_fmt, (c["gamma"], *values))]


# (task, file, header, rows of one record and its metrics), in writing order
_FIGURES = (
    ("stmc", "fig_stmc_r2_vs_tau.csv", [*_GRID, "tau", "r2"],
     lambda r, m: [_grid_row(r, tau, m["r2"][tau])
                   for tau in sorted(m["r2"], key=int, reverse=True)]),
    ("stmc", "fig_stmc_rmse_vs_gamma.csv",
     [*_GRID, "mean_rmse_short", "random_guess"],
     lambda r, m: [_grid_row(r, m["mean_rmse_short"], RANDOM_GUESS_U01)]),
    ("narma5", "fig_narma_rmse_vs_gamma.csv", [*_GRID, "rmse", "random_guess"],
     lambda r, m: [_grid_row(r, m["rmse"], m["target_std"])]),
    ("esn-baseline", "fig_esn_comparison.csv", ["n_nodes", "median", "q1", "q3"],
     lambda r, m: [[m["n_nodes"], *map(_fmt, (m["median"], m["q1"], m["q3"]))]]),
)


def emit_plotdata(payloads, outdir):
    """Per-figure CSVs from one or more records.json payloads."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    records = [r for p in payloads for r in p["records"] if r["status"] == "ok"]
    written = []
    for task, name, header, rows_of in _FIGURES:
        selected = [r for r in records if r["task"] == task]
        if selected:
            _write_fig_csv(outdir / name, header,
                           [row for r in selected
                            for row in rows_of(r, r["metrics"])])
            written.append(name)
    return written


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_run(cfg):
    point = SweepPoint(0, cfg.reservoir.n_qubits, cfg.reservoir.gamma,
                       cfg.reservoir.n_repeats)
    record = _execute_point(cfg, point)
    outdir = write_outputs(cfg, [record])
    if record["status"] != "ok":
        print(f"run failed: {record['error']}", file=sys.stderr)
        return 1
    summary = ", ".join(f"{m}={_fmt(v)}" for m, d, v in _metric_rows(record)
                        if d == "")
    print(f"task={cfg.task} point 0 ok ({summary}) -> {outdir}")
    return 0


def cmd_sweep(cfg, workers):
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    cpus = os.cpu_count() or 1
    if workers > cpus:
        print(f"note: --workers {workers} capped at os.cpu_count() = {cpus}",
              file=sys.stderr)
        workers = cpus
    points = sweep_points(cfg)
    for point in points:  # parse_config checked each given grid axis alone
        try:
            _check_fits(_point_config(cfg, point), cfg.task_spec, cfg.esn,
                        cfg.n_esn_seeds)
        except ValueError as exc:
            raise ConfigError(f"sweep point {point.index} ({point.n_qubits} "
                              f"qubits, gamma={point.gamma}, n_repeats="
                              f"{point.n_repeats}): {exc}") from exc
    outdir = Path(cfg.outdir)
    staging = outdir / "points"
    staging.mkdir(parents=True, exist_ok=True)
    records = []

    def stage(record):
        _write_json(staging / f"point_{record['point_index']:04d}.json", record)
        records.append(record)

    if workers > 1:
        # longest first (an estimate of each point's work), so that no long
        # point starts last; records are merged by index, not by finish
        longest = sorted(points, reverse=True, key=lambda p: (
            4 ** (p.n_qubits // 2) * p.n_repeats * cfg.task_spec.n_total))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_execute_point, cfg, p): p for p in longest}
            for future in as_completed(futures):
                try:
                    record = future.result()
                except BrokenExecutor as exc:  # its worker process died
                    _, record = _point_record(cfg, futures[future])
                    record.update(metrics={}, status="error",
                                  error=f"{type(exc).__name__}: {exc}",
                                  wall_time_s=None)
                stage(record)
    else:
        for point in points:
            stage(_execute_point(cfg, point))

    records.sort(key=lambda r: r["point_index"])
    write_outputs(cfg, records)
    n_ok = sum(r["status"] == "ok" for r in records)
    print(f"task={cfg.task} sweep: {n_ok} ok, {len(records) - n_ok} failed, "
          f"{len(records)} points -> {outdir}")
    for record in records:
        if record["status"] != "ok":
            print(f"  point {record['point_index']} failed: {record['error']}",
                  file=sys.stderr)
    return 0 if n_ok > 0 else 1


def cmd_plotdata(records_paths, outdir):
    payloads = []
    for path in records_paths:
        with open(path) as handle:
            payloads.append(json.load(handle))
    if outdir is None:
        outdir = os.path.dirname(os.path.abspath(records_paths[0]))
    written = emit_plotdata(payloads, outdir)
    print(f"wrote {len(written)} figure files -> {outdir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="INI config file")
    shared.add_argument("--task", choices=TASKS)
    shared.add_argument("--outdir")
    shared.add_argument("--n-qubits", type=int, dest="n_qubits")
    shared.add_argument("--gamma", type=float)
    shared.add_argument("--n-repeats", type=int, dest="n_repeats")
    shared.add_argument("--n-shots", type=int, dest="n_shots")
    shared.add_argument("--context", type=int, dest="c",
                        help="input context window length")
    shared.add_argument("--alpha", type=float, help="ridge regularization")
    shared.add_argument("--seed", type=int,
                        help="sets both the weight seed and the data seed")
    shared.add_argument("--backend", choices=BACKENDS)
    shared.add_argument("--n-esn-seeds", type=int, dest="n_esn_seeds")

    parser = argparse.ArgumentParser(
        prog="swapqrn",
        description="Reservoir-computing benchmarks on a measured quantum "
                    "register with tunable partial-SWAP readout coupling.")
    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("run", parents=[shared], help="execute one experiment")
    sweep = sub.add_parser("sweep", parents=[shared],
                           help="execute a parameter grid")
    for axis in _SWEEP_SCHEMA:
        sweep.add_argument(f"--{axis.replace('_', '-')}-grid",
                           dest=f"{axis}_grid", help="comma-separated list")
    sweep.add_argument("--workers", type=int, default=1)
    plot = sub.add_parser("plotdata", help="emit per-figure CSVs from records")
    plot.add_argument("--records", nargs="+", required=True)
    plot.add_argument("--outdir")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "plotdata":
            return cmd_plotdata(args.records, args.outdir)
        cfg = parse_config(config_path=args.config, flag_overrides=vars(args))
        if args.verb == "run":
            return cmd_run(cfg)
        return cmd_sweep(cfg, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
