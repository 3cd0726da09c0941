"""swapqrn benchmark runner.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stmc16 --seed 42 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all     # every workload, both modes

Each pass of a workload runs in a fresh interpreter (``child.py``) that
imports the package from ``src`` and drives it through its public functions.
Passes repeat until ``--seconds`` is spent (at least three), and every
timing is a median over them.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer split from a separate traced run.  Metric names
and units come from ``BENCHMARK.json``.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Thread
environment variables are inherited, never set, and are reported.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 3
RUN_LIMIT_S = 150  # stop starting passes past this, whatever --seconds says


class BenchError(RuntimeError):
    """A pass crashed or the checkout cannot be benchmarked."""


def run_child(job, timeout):
    """Start one pass in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    job = dict(job, t_spawn=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{job['mode']} pass of {job.get('workload')} "
                         f"timed out after {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{job['mode']} pass of {job.get('workload')} failed "
                         f"(exit {proc.returncode}):\n{err[-3000:]}")
    return json.loads(lines[-1])


def write_task_config(w, path):
    """The [task] section that shortens a CLI workload's series."""
    lines = ["[task]"] + [f"{k} = {v}" for k, v in w["spec"].items()]
    path.write_text("\n".join(lines) + "\n")


def measure(name, seed, seconds, trace, smoke):
    """Run passes of one workload; returns (machine, pass results)."""
    if not (ROOT / "src" / "swapqrn" / "__init__.py").is_file():
        raise BenchError(f"no swapqrn sources under {ROOT / 'src'}")
    w = workloads.resolve(name, smoke)
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        machine = run_child({"mode": "probe"}, timeout=120)
        if not Path(machine["swapqrn"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"imported swapqrn from {machine['swapqrn']}, "
                             f"not from this checkout")
        config = work / "task.ini"
        write_task_config(w, config)
        start = time.monotonic()
        results, durations = [], []
        minimum = 1 if trace else MIN_PASSES
        while True:
            outdir = work / f"pass{len(results)}"
            job = {"mode": "trace" if trace else "pass", "workload": name,
                   "seed": seed, "smoke": smoke, "config": str(config),
                   "outdir": str(outdir)}
            began = time.monotonic()
            results.append(run_child(job, timeout=max(170 - (began - start), 10)))
            durations.append(time.monotonic() - began)
            shutil.rmtree(outdir, ignore_errors=True)
            elapsed = time.monotonic() - start
            upcoming = elapsed + statistics.median(durations)
            if len(results) >= minimum and (upcoming > seconds
                                            or upcoming > RUN_LIMIT_S):
                break
        return machine, results
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()


def tally(results):
    """(attempted, failed, notes): every reservoir point is one operation.
    A pass whose outputs fail a check, or differ from the first pass's,
    fails all its points."""
    attempted = failed = 0
    notes = []
    first = results[0]["digest"]
    for k, r in enumerate(results):
        attempted += r["points"]
        problems = list(r["problems"])
        if r["digest"] != first:
            problems.append("outputs differ from pass 0 (byte identity)")
        failed += r["points"] if problems else r["points_failed"]
        notes += [f"pass {k}: {p}" for p in problems + r["errors"]]
    return attempted, failed, notes


def quartile3(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(results, attempted, failed):
    # point percentiles are taken within each pass (p75 of a 40-point sweep
    # has 10 points beyond it), then the median over passes
    points = sum(len(r["point_s"]) for r in results)
    median = statistics.median
    return {
        "wall_s": median(r["wall_s"] for r in results),
        "point_s_p50": median(median(r["point_s"]) for r in results),
        "point_s_p75": median(quartile3(r["point_s"]) for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "ok_rate": (attempted - failed) / attempted,
    }, {"wall_s": f"median of {len(results)} passes",
        "point_s_p50": f"{points} points in {len(results)} passes",
        "point_s_p75": f"{points} points in {len(results)} passes",
        "setup_s": f"median of {len(results)} set-ups",
        "peak_rss_mb": "median over passes; own peak + largest child's peak",
        "ok_rate": f"1 - error_rate; error_rate = {failed}/{attempted}"}


def per_layer(results):
    names = results[0]["trace"]
    values = {n: statistics.median(r["trace"][n] for r in results)
              for n in names}
    return values, {n: f"median of {len(results)} traced runs" for n in names}


def reference_note(results, seed, smoke):
    status = {r["reference"] for r in results}
    if status == {"none"}:
        size = "smoke size" if smoke else f"seed {seed}"
        return f"no stored reference for {size}: ran the self-consistency checks only"
    return f"seed {seed}: stored reference {'/'.join(sorted(status))}"


def run_one(spec, name, seed, seconds, trace, smoke):
    """Measure one workload in one mode; returns (result dict, report lines)."""
    machine, results = measure(name, seed, seconds, trace, smoke)
    attempted, failed, notes = tally(results)
    if trace:
        values, how = per_layer(results)
        wanted = spec["per_layer"]
    else:
        values, how = end_to_end(results, attempted, failed)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    lines = [f"# {name} seed={seed} trace={int(trace)} "
             f"size={'smoke' if smoke else 'full'} passes={len(results)}",
             f"# machine {json.dumps(machine, sort_keys=True)}"]
    for metric, entry in metrics.items():
        lines.append(f"{name:14s} {metric:26s} {entry['value']:>16.6g} "
                     f"{entry['unit']:6s} {how[metric]}")
    lines.append(f"{name:14s} {'error_rate':26s} "
                 f"{failed / attempted:>16.6g} ratio  "
                 f"{failed} failed / {attempted} attempted")
    if trace and values.get("trace.split_void"):
        lines.append(f"{name:14s} layer split VOID: replay differs from the "
                     f"kernel by {values['trace.replay_max_err']:.3e}")
    lines.append(f"{name:14s} check: {reference_note(results, seed, smoke)}")
    lines += [f"{name:14s} FAILED {note}" for note in notes]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to 4 qubits, 60 steps")
    args = parser.parse_args(argv)
    every = args.workload == "all"
    names = list(workloads.WORKLOADS) if every else [args.workload]
    modes = (False, True) if every else (bool(args.trace),)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds or spec["run_seconds"]
        for name in names:
            for trace in modes:
                one, lines = run_one(spec, name, args.seed, seconds, trace,
                                     args.smoke)
                print("\n".join(lines), flush=True)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                prefix = f"{name}/" if every else ""
                result["metrics"].update(
                    {prefix + k: v for k, v in one["metrics"].items()})
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
