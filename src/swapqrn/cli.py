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
from collections.abc import Callable
from dataclasses import dataclass, asdict, fields, replace
from itertools import product
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import __version__
from .readout import SCORING_THREADS, blas_thread_count, set_blas_threads
from .reservoir import (BACKENDS, ReservoirConfig, atomic_open, check_count,
                        check_memory)
from .tasks import (
    StmcSpec, NarmaSpec, EsnConfig, check_esn_alpha, check_esn_memory,
    run_stmc, run_narma, run_esn_narma,
)

RANDOM_GUESS_U01 = float(np.sqrt(1.0 / 12.0))

# the default grid of each sweep axis
_GRIDS = {"n_qubits": tuple(range(2, 17, 2)),
          "gamma": tuple(round(0.05 * k, 10) for k in range(1, 21)),
          "n_repeats": (1, 3)}


def _schema(cls, skip=()):
    """INI schema of a config dataclass: field name -> annotated type."""
    return {f.name: f.type for f in fields(cls) if f.name not in skip}


_RESERVOIR_SCHEMA = _schema(ReservoirConfig)
# the ESN takes its size from the reservoir and its seed from the task
_ESN_SCHEMA = _schema(EsnConfig, skip=("n_nodes", "seed"))
_SWEEP_SCHEMA = {axis: tuple[_RESERVOIR_SCHEMA[axis], ...]
                 for axis in ("gamma", "n_qubits", "n_repeats")}
_EXPERIMENT_SCHEMA = {"task": str, "outdir": str}
# the [reservoir] and [task] keys that flags set, in --help order, with help
_FLAGS = {**dict.fromkeys((*_RESERVOIR_SCHEMA, "alpha", "n_esn_seeds")),
          "c": "input context window length",
          "seed": "sets both the weight seed and the data seed",
          "backend": f"one of {', '.join(BACKENDS)}",
          "alpha": "ridge regularization"}


def _flag(key):
    """The command-line spelling of the flag that sets ``key``."""
    return "--context" if key == "c" else f"--{key.replace('_', '-')}"


class ConfigError(ValueError):
    """Invalid, unknown, or out-of-range configuration input."""


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    reservoir: ReservoirConfig
    task_spec: object
    esn: EsnConfig | None
    n_esn_seeds: int | None  # None: the task runs no ESN
    sweep: dict | None
    outdir: Path


def _coerce(raw, kind, path):
    """Parse INI value or flag ``path`` as ``kind``: a type, ``T | None`` (as ``T``)
    or ``tuple[T, ...]`` (a comma-separated list); a non-string passes unchanged."""
    if not isinstance(raw, str):
        return raw
    item = next((a for a in get_args(kind) if a is not type(None)), kind)
    try:
        if get_origin(kind) is not tuple:
            return item(raw)
        items = [x.strip() for x in raw.split(",") if x.strip()]
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


def parse_config(config_path=None, flag_overrides=None):
    """Merge defaults, config-file sections, and flag overrides into a
    validated :class:`ExperimentConfig`.  Flags win over file values.  Only
    values are checked here; each verb checks the points it runs."""
    flags = dict(flag_overrides or {})
    parser = _read_sections(config_path) if config_path else None

    experiment = _section_values(parser, "experiment", _EXPERIMENT_SCHEMA)
    task, path = flags.pop("task", None), "--task"
    if task is None:
        task, path = experiment.get("task", next(iter(TASKS))), "experiment.task"
    if task not in TASKS:
        raise ConfigError(f"invalid value for {path}: {task!r} "
                          f"(expected one of {', '.join(TASKS)})")
    entry = TASKS[task]

    reservoir_values = dict(entry.reservoir)
    reservoir_values.update(_section_values(parser, "reservoir", _RESERVOIR_SCHEMA))
    task_values = _section_values(parser, "task", entry.schema)
    sweep = _section_values(parser, "sweep", _SWEEP_SCHEMA)

    for values, schema in ((reservoir_values, _RESERVOIR_SCHEMA),
                           (task_values, entry.schema)):
        values.update((k, _coerce(flags[k], schema[k], _flag(k)))
                      for k in schema if flags.get(k) is not None)
    foreign = [k for other in TASKS.values() for k in other.schema
               if k not in entry.schema and flags.get(k) is not None]
    if foreign:
        raise ConfigError(f"{_flag(foreign[0])} does not apply to {task}")

    try:
        reservoir = ReservoirConfig(**reservoir_values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config error in [reservoir]: {exc}") from exc

    n_esn_seeds = task_values.pop("n_esn_seeds", 200)
    check_count("task.n_esn_seeds", n_esn_seeds, error=ConfigError)
    esn_kwargs = {k: task_values.pop(k) for k in _ESN_SCHEMA if k in task_values}
    try:
        task_spec = entry.spec(**task_values)
        # a task whose [task] section configures an ESN runs one per point
        esn = (EsnConfig(n_nodes=reservoir.n_mem, seed=task_spec.seed, **esn_kwargs)
               if _ESN_SCHEMA.keys() <= entry.schema.keys() else None)
        if esn is None and task_spec.alpha == 0:  # quantum rows sum to 1
            raise ValueError(f"alpha must be > 0 for {task}, got 0.0")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config error in [task]: {exc}") from exc

    # each grid value must make a valid config with the base reservoir
    for axis, kind in _SWEEP_SCHEMA.items():
        if flags.get(f"{axis}_grid") is not None:
            sweep[axis] = _coerce(flags[f"{axis}_grid"], kind,
                                  _flag(f"{axis}_grid"))
        if axis in sweep and axis not in entry.grids:
            raise ConfigError(f"sweep.{axis}: the {task} task sweeps "
                              f"{', '.join(entry.grids)} only; drop the {axis} grid")
        for value in sweep.get(axis, ()):
            try:
                replace(reservoir, **{axis: value})
            except ValueError as exc:
                raise ConfigError(f"sweep.{axis}: {exc}") from exc

    outdir = (flags.get("outdir") or experiment.get("outdir")
              or os.path.join("results", task))
    if not os.path.isabs(outdir):
        outdir = os.path.join(os.environ.get("SWAPQRN_OUTPUT_ROOT", "."), outdir)
    return ExperimentConfig(task=task, reservoir=reservoir, task_spec=task_spec,
                            esn=esn, n_esn_seeds=n_esn_seeds if esn else None,
                            sweep=sweep or None, outdir=Path(outdir))


def sweep_points(cfg):
    """The grid's reservoir configs in deterministic order (index = position);
    an axis takes its [sweep] grid, else the task's, else the base value."""
    sweep, grids = cfg.sweep or {}, TASKS[cfg.task].grids
    axes = [sweep.get(axis) or grids.get(axis) or (getattr(cfg.reservoir, axis),)
            for axis in ("n_qubits", "gamma", "n_repeats")]
    return [replace(cfg.reservoir, n_qubits=q, gamma=g, n_repeats=r)
            for q, g, r in product(*axes)]


# ---------------------------------------------------------------------------
# tasks and their execution
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
    esn_cfg = replace(cfg.esn, n_nodes=rc.n_mem)
    summary = run_esn_narma(cfg.task_spec, esn_cfg, cfg.n_esn_seeds)
    return {"n_nodes": esn_cfg.n_nodes, "median": summary.median,
            "q1": summary.q1, "q3": summary.q3,
            "rmse_per_seed": summary.rmse.tolist()}


def _check_reservoir(cfg, rc):
    """The quantum tasks' memory check, on the point's reservoir."""
    return check_memory(rc, cfg.task_spec.n_total)


def _check_esn(cfg, rc):
    """The ESN baseline's checks, on the point's node count."""
    esn = replace(cfg.esn, n_nodes=rc.n_mem)
    check_esn_alpha(cfg.task_spec, esn)
    return check_esn_memory(cfg.task_spec, esn, cfg.n_esn_seeds)


_GRID = ["n_qubits", "n_repeats", "gamma"]


def _grid_row(r, *values):
    c = r["config"]
    return [c["n_qubits"], c["n_repeats"], *map(_fmt, (c["gamma"], *values))]


@dataclass(frozen=True)
class Task:
    """Everything the CLI knows of one task."""

    spec: type            # the [task] spec class
    schema: dict          # [task] key -> type
    reservoir: dict       # reservoir defaults that differ from ReservoirConfig's
    grids: dict           # sweepable axis -> default grid (None: the base value)
    run: Callable         # (cfg, rc, rng) -> metrics of one point
    check: Callable       # (cfg, rc): ValueError if the point cannot run
    metrics: tuple        # (per-delay metric names, scalar metric names)
    figures: tuple        # (file, header, rows of a record and its metrics)


_NARMA_RESERVOIR = dict(n_qubits=12, gamma=0.75, n_repeats=3, c=5, n_shots=60000)

TASKS = {  # the first task is the default
    "stmc": Task(
        spec=StmcSpec, schema=_schema(StmcSpec),
        reservoir=dict(n_qubits=16, gamma=0.55, n_shots=30000),
        grids=_GRIDS, run=_run_stmc_point, check=_check_reservoir,
        metrics=(("r2", "rmse"), ("mean_rmse_short",)),
        figures=(
            ("fig_stmc_r2_vs_tau.csv", [*_GRID, "tau", "r2"],
             lambda r, m: [_grid_row(r, tau, m["r2"][tau])
                           for tau in sorted(m["r2"], key=int, reverse=True)]),
            ("fig_stmc_rmse_vs_gamma.csv",
             [*_GRID, "mean_rmse_short", "random_guess"],
             lambda r, m: [_grid_row(r, m["mean_rmse_short"], RANDOM_GUESS_U01)]))),
    "narma5": Task(
        spec=NarmaSpec, schema=_schema(NarmaSpec), reservoir=_NARMA_RESERVOIR,
        grids={**_GRIDS, "n_qubits": None},
        run=_run_narma_point, check=_check_reservoir,
        metrics=((), ("rmse", "r2", "target_std")),
        figures=(("fig_narma_rmse_vs_gamma.csv", [*_GRID, "rmse", "random_guess"],
                  lambda r, m: [_grid_row(r, m["rmse"], m["target_std"])]),)),
    "esn-baseline": Task(
        spec=NarmaSpec,
        schema={**_schema(NarmaSpec), **_ESN_SCHEMA, "n_esn_seeds": int},
        reservoir=_NARMA_RESERVOIR, grids={"n_qubits": _GRIDS["n_qubits"]},
        run=_run_esn_point, check=_check_esn,
        metrics=((), ("median", "q1", "q3")),
        figures=(("fig_esn_comparison.csv", ["n_nodes", "median", "q1", "q3"],
                  lambda r, m: [[m["n_nodes"],
                                 *map(_fmt, (m["median"], m["q1"], m["q3"]))]]),)),
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


def _check_points(cfg, points):
    """Refuse, before anything is written, any point that cannot fit in
    physical memory or, for the ESN, cannot be fitted."""
    for index, rc in enumerate(points):
        try:
            TASKS[cfg.task].check(cfg, rc)
        except ValueError as exc:
            raise ConfigError(f"point {index} ({rc.n_qubits} qubits, "
                              f"gamma={rc.gamma}, n_repeats="
                              f"{rc.n_repeats}): {exc}") from exc


def _point_record(cfg, index, rc):
    """The fields that every record of point ``index``, config ``rc``, has."""
    record_cfg = asdict(rc)
    if cfg.esn is not None:
        record_cfg["n_nodes"] = rc.n_mem
    return _json_safe({"point_index": index, "task": cfg.task,
                       "config": record_cfg, "version": __version__,
                       "seed": rc.seed})


def _execute_point(cfg, index, rc):
    """Run one grid point; failures become error records, not crashes."""
    start = time.perf_counter()
    record = _point_record(cfg, index, rc)
    try:
        rng = (np.random.default_rng([rc.seed, index])
               if rc.backend != "exact" else None)
        record["metrics"] = _json_safe(TASKS[cfg.task].run(cfg, rc, rng))
        record["status"] = "ok"
    except Exception as exc:  # per-point failures recorded, sweep continues
        record.update(metrics={}, status="error",
                      error=f"{type(exc).__name__}: {exc}")
    record["wall_time_s"] = time.perf_counter() - start
    return record


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _fmt(value):
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "nan"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _config_payload(cfg):
    """Every field of ``cfg`` but its output directory, as JSON values."""
    return _json_safe({k: v for k, v in asdict(cfg).items() if k != "outdir"})


def _metric_rows(record):
    """Tidy rows (metric, delay, value) for one successful record."""
    metrics = record["metrics"]
    per_delay, scalars = TASKS[record["task"]].metrics
    for name in per_delay:
        for tau in sorted(metrics[name], key=int, reverse=True):
            yield name, tau, metrics[name][tau]
    for name in scalars:
        yield name, "", metrics[name]


def _write_csv(path, header, rows):
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(path, records):
    header = ["point_index", "task", "n_qubits", "n_nodes", "gamma",
              "n_repeats", "c", "n_shots", "backend", "seed",
              "metric", "delay", "value"]
    rows = []
    for record in (r for r in records if r["status"] == "ok"):
        c = record["config"]
        base = [record["point_index"], record["task"], c["n_qubits"],
                c.get("n_nodes", ""), _fmt(c["gamma"]), c["n_repeats"],
                c["c"], c["n_shots"] if c["n_shots"] is not None else "",
                c["backend"], c["seed"]]
        rows += [base + [metric, delay, _fmt(value)]
                 for metric, delay, value in _metric_rows(record)]
    _write_csv(path, header, rows)


def _write_manifest(outdir, cfg, filenames):
    payload = json.dumps(_config_payload(cfg), sort_keys=True,
                         separators=(",", ":"))
    digest = hashlib.sha256(payload.encode()).hexdigest()
    lines = [f"artifact swapqrn {__version__}", f"config_sha256 {digest}"]
    lines += [f"file {name}" for name in filenames]
    with atomic_open(Path(outdir) / "MANIFEST") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_json(path, payload):
    with atomic_open(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _environment():
    """numpy version, BLAS build and thread settings of this process.

    They describe the host, not the result, so only ``records.json`` carries
    them, never the files that must rerun byte-identical.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_thread_count()
    return {"numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
            # what ridge scoring ran at, and this process's own count
            "blas_threads": "unpinned" if threads is None else {
                "scoring": SCORING_THREADS, "process": threads},
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
# verbs
# ---------------------------------------------------------------------------

def cmd_run(cfg):
    _check_points(cfg, [cfg.reservoir])
    record = _execute_point(cfg, 0, cfg.reservoir)
    outdir = write_outputs(cfg, [record])
    if record["status"] != "ok":
        print(f"run failed: {record['error']}", file=sys.stderr)
        return 1
    summary = ", ".join(f"{m}={_fmt(v)}" for m, d, v in _metric_rows(record)
                        if d == "")
    print(f"task={cfg.task} point 0 ok ({summary}) -> {outdir}")
    return 0


def cmd_sweep(cfg, workers):
    workers = _coerce(workers, int, "--workers")
    check_count("--workers", workers, error=ConfigError)
    cpus = os.cpu_count() or 1
    if workers > cpus:
        print(f"note: --workers {workers} capped at os.cpu_count() = {cpus}",
              file=sys.stderr)
        workers = cpus
    points = sweep_points(cfg)
    _check_points(cfg, points)
    outdir = Path(cfg.outdir)
    staging = outdir / "points"
    staging.mkdir(parents=True, exist_ok=True)
    records = []

    def stage(record):
        _write_json(staging / f"point_{record['point_index']:04d}.json", record)
        records.append(record)

    if workers > 1:
        # imported here, so that a serial sweep never loads multiprocessing
        from concurrent.futures import (BrokenExecutor, ProcessPoolExecutor,
                                        as_completed)
        # longest first (an estimate of each point's work), so that no long
        # point starts last; records are merged by index, not by finish
        longest = sorted(enumerate(points), reverse=True, key=lambda p: (
            4 ** p[1].n_mem * p[1].n_repeats * cfg.task_spec.n_total))
        # each worker runs its points at one BLAS thread: workers that
        # inherit the host's threads oversubscribe the cores
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=set_blas_threads,
                                 initargs=(1,)) as pool:
            futures = {pool.submit(_execute_point, cfg, *p): p for p in longest}
            for future in as_completed(futures):
                try:
                    record = future.result()
                except BrokenExecutor as exc:  # its worker process died
                    record = _point_record(cfg, *futures[future])
                    record.update(metrics={}, status="error",
                                  error=f"{type(exc).__name__}: {exc}",
                                  wall_time_s=None)
                stage(record)
    else:
        for index, rc in enumerate(points):
            stage(_execute_point(cfg, index, rc))

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
    """Per-figure CSVs from records.json files into ``outdir``, by default
    beside the first; a file that is unreadable, malformed or holds an ``ok``
    record of an unknown task is named in a ConfigError, and nothing written."""
    figures = {}  # file name -> (header, rows), rows in record order
    for path in records_paths:
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:  # ValueError: not JSON text
            raise ConfigError(f"cannot read records {path}: {exc}") from exc
        try:
            for r in payload["records"]:
                if r["status"] != "ok":
                    continue
                if r["task"] not in TASKS:
                    raise LookupError(f"unknown task {r['task']!r}")
                for name, header, rows_of in TASKS[r["task"]].figures:
                    figures.setdefault(name, (header, []))[1].extend(
                        rows_of(r, r["metrics"]))
        except (LookupError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed records {path}: "
                              f"{type(exc).__name__}: {exc}") from exc
    if outdir is None:
        outdir = os.path.dirname(os.path.abspath(records_paths[0]))
    Path(outdir).mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in figures.items():
        _write_csv(Path(outdir) / name, header, rows)
    print(f"wrote {len(figures)} figure files -> {outdir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="INI config file")
    shared.add_argument("--task", help=f"one of {', '.join(TASKS)}")
    shared.add_argument("--outdir")
    for key, text in _FLAGS.items():
        shared.add_argument(_flag(key), dest=key, help=text)

    parser = argparse.ArgumentParser(
        prog="swapqrn",
        description="Reservoir-computing benchmarks on a measured quantum "
                    "register with tunable partial-SWAP readout coupling.")
    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("run", parents=[shared], help="execute one experiment")
    sweep = sub.add_parser("sweep", parents=[shared],
                           help="execute a parameter grid")
    for axis in _SWEEP_SCHEMA:
        sweep.add_argument(_flag(f"{axis}_grid"), dest=f"{axis}_grid",
                           help="comma-separated list")
    sweep.add_argument("--workers", default=1)
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
