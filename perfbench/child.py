"""One pass of a benchmark workload, run in a fresh interpreter.

The runner starts this file as ``python3 perfbench/child.py '<job json>'``
with ``PYTHONPATH`` pointing at the checkout's ``src``; the job names the
workload, seed, size and mode, and carries the monotonic time at which the
runner spawned the process, so set-up time covers interpreter start.  The
last line on stdout is one JSON object.

Modes:

``probe``
    import the package and describe the machine; also warms the file cache
    before the first timed pass.
``pass``
    set up, run the workload once through public functions, time it, and
    check its outputs against the stored reference when there is one.
``trace``
    a ``pass`` followed by the layer split: every reservoir point is run
    again through the kernel (untraced) and through a replay of
    ``reservoir.step``'s body with a timer around each public call (traced).
"""

import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import workloads

REFS = Path(__file__).resolve().parent / "refs"
ROW_STRIDE = 25            # reference keeps every 25th feature row in full
FEATURE_ATOL = 1e-12       # exact features, absolute
METRIC_RTOL = 1e-9         # task metrics and results.csv values, relative
REPLAY_ATOL = 1e-12        # above this the layer split no longer mirrors the kernel
TRAJECTORY_CHUNK = 4096    # run_trajectories' default shot batch
POOL_WORKERS = 2


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _peak_rss_mb():
    # largest resident set of this process plus that of its largest child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def probe():
    import numpy
    import scipy
    import swapqrn

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "swapqrn": os.path.dirname(swapqrn.__file__),
    }


# ---------------------------------------------------------------------------
# workload set-up and scoring, through the package's public functions
# ---------------------------------------------------------------------------

def _series(task, spec):
    import swapqrn
    # the input ranges tasks.run_stmc and tasks.run_narma draw from
    hi = 1.0 if task == "stmc" else 0.5
    return swapqrn.gen_uniform(spec.seed, spec.n_total, 0.0, hi)


def _score(task, features, u, spec):
    import swapqrn
    if task == "stmc":
        result = swapqrn.score_stmc_features(features, u, spec)
        return {"r2": {str(t): m.r2 for t, m in result.metrics.items()},
                "rmse": {str(t): m.rmse for t, m in result.metrics.items()},
                "mean_rmse_short": result.mean_rmse_short}
    result = swapqrn.score_narma_features(features, u, spec)
    return {"rmse": result.metrics.rmse, "r2": result.metrics.r2,
            "target_std": result.target_std}


def setup_library(w, seed):
    """The set-up half of ``tasks.run_stmc``: spec, config, inputs, weights."""
    import swapqrn
    spec = swapqrn.StmcSpec(seed=seed, **w["spec"])
    rc = swapqrn.ReservoirConfig(seed=seed, **w["reservoir"])
    u = _series(w["task"], spec)
    weights = swapqrn.init_weights(rc.seed, rc.c, rc.n_mem)
    return {"spec": spec, "rc": rc, "u": u, "weights": weights}


def setup_cli(w, job):
    """Parse the sweep command line exactly as ``cli.main`` does."""
    from swapqrn import cli
    argv = w["argv"] + ["--config", job["config"], "--outdir", job["outdir"],
                        "--seed", str(job["seed"])]
    start = time.perf_counter()
    args = cli.build_parser().parse_args(argv)
    cfg = cli.parse_config(config_path=args.config, flag_overrides=vars(args))
    return {"cfg": cfg, "workers": args.workers,
            "parse_s": time.perf_counter() - start}


def run_library(w, state):
    """The run half of ``tasks.run_stmc``: features, then ridge scores."""
    import swapqrn
    start = time.perf_counter()
    features = swapqrn.run_features(state["u"], state["weights"], state["rc"])
    metrics = _score(w["task"], features, state["u"], state["spec"])
    wall = time.perf_counter() - start
    digest = _sha256(features.tobytes())
    outputs = {"metrics": metrics}
    if w["reservoir"]["backend"] == "exact":
        outputs["rows"] = features[::ROW_STRIDE].tolist()
        outputs["colsum"] = features.sum(axis=0).tolist()
    else:
        outputs["sha256"] = digest
    sums = features.sum(axis=1)
    problems = []
    if abs(sums - 1.0).max() > 1e-9 or features.min() < -1e-12:
        problems.append("feature rows are not probability distributions")
    return {"wall_s": wall, "point_s": [wall], "points": 1,
            "points_failed": 0, "errors": [], "digest": digest,
            "outputs": outputs, "problems": problems}


def _read_sweep(outdir):
    outdir = Path(outdir)
    with open(outdir / "records.json") as handle:
        records = json.load(handle)["records"]
    csv_bytes = (outdir / "results.csv").read_bytes()
    manifest = (outdir / "MANIFEST").read_bytes()
    rows = list(csv.DictReader(csv_bytes.decode().splitlines()))
    results = [[int(r["point_index"]), r["metric"], r["delay"], r["value"]]
               for r in rows]
    return records, results, _sha256(csv_bytes) + ":" + _sha256(manifest)


def run_cli(w, state):
    from swapqrn import cli
    cfg = state["cfg"]
    start = time.perf_counter()
    cli.cmd_sweep(cfg, state["workers"])
    wall = time.perf_counter() - start
    records, results, digest = _read_sweep(cfg.outdir)
    errors = [f"point {r['point_index']}: {r['error']}" for r in records
              if r["status"] != "ok"]
    state["results"] = results
    return {"wall_s": wall, "point_s": [r["wall_time_s"] for r in records],
            "points": len(records), "points_failed": len(errors),
            "errors": errors, "digest": digest,
            "outputs": {"results": results}, "problems": []}


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

def _signature(w):
    keys = ("steps", "spec", "reservoir", "argv")
    return {k: w[k] for k in keys if k in w}


def _ref_path(w, seed):
    return REFS / f"{w['name']}-seed{seed}.json"


def _close(a, b, rtol):
    if a is None or b is None:
        return a is b
    a, b = float(a), float(b)
    if a != a or b != b:  # nan
        return a != a and b != b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _compare_metrics(got, ref, path, problems):
    if isinstance(ref, dict):
        if set(got) != set(ref):
            problems.append(f"{path}: keys differ")
            return
        for key in ref:
            _compare_metrics(got[key], ref[key], f"{path}.{key}", problems)
    elif not _close(got, ref, METRIC_RTOL):
        problems.append(f"{path}: {got!r} != reference {ref!r}")


def compare_to_reference(w, outputs, ref):
    """Mismatches between this pass's outputs and a stored reference."""
    if ref["signature"] != _signature(w):
        return ["reference was recorded for other workload sizes"]
    problems = []
    if "metrics" in ref:
        _compare_metrics(outputs["metrics"], ref["metrics"], "metrics",
                         problems)
    if "rows" in ref:
        import numpy as np
        rows_err = np.max(np.abs(np.asarray(outputs["rows"])
                                 - np.asarray(ref["rows"])))
        sum_err = np.max(np.abs(np.asarray(outputs["colsum"])
                                - np.asarray(ref["colsum"])))
        if rows_err > FEATURE_ATOL or sum_err > FEATURE_ATOL * w["steps"]:
            problems.append(f"exact features differ from the reference by "
                            f"{rows_err:.3e} (rows), {sum_err:.3e} (column sums)")
    if "sha256" in ref and outputs["sha256"] != ref["sha256"]:
        problems.append("trajectory features are not bit-identical")
    if "results" in ref:
        got = {tuple(r[:3]): r[3] for r in outputs["results"]}
        want = {tuple(r[:3]): r[3] for r in ref["results"]}
        if set(got) != set(want):
            problems.append("results.csv rows differ from the reference")
        else:
            problems += [f"results.csv {k}: {got[k]} != reference {want[k]}"
                         for k in want if not _close(got[k], want[k], METRIC_RTOL)]
    return problems


def check_or_record(w, job, result):
    path = _ref_path(w, job["seed"])
    if job.get("record"):
        if result["problems"] or result["points_failed"]:
            raise SystemExit("refusing to record a reference from a pass "
                             "that failed its own checks")
        payload = dict(result["outputs"], signature=_signature(w))
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n")
        result["reference"] = "recorded"
    elif w["size"] == "full" and path.exists():
        problems = compare_to_reference(w, result["outputs"],
                                        json.loads(path.read_text()))
        result["problems"] += problems
        result["reference"] = "mismatch" if problems else "match"
    else:
        result["reference"] = "none"


# ---------------------------------------------------------------------------
# traced layer split
# ---------------------------------------------------------------------------

def replay_exact(u, weights, rc, spent):
    """``reservoir.run_exact`` with ``reservoir.step`` inlined and a timer
    around each public call.  It performs the kernel's operations in the
    kernel's order, so its features match ``run_exact`` bit for bit while the
    kernel is unchanged."""
    import numpy as np
    from swapqrn import (context_window, compute_angles, damping_channel,
                         embedding_unitary, ground_state, outcome_distribution)
    from swapqrn.channel import rehermitize
    clock = time.perf_counter
    rho = ground_state(rc.n_mem)
    features = np.empty((len(u), 2 ** rc.n_mem))
    angles = unitary_s = conj = outcome = damping = reherm = 0.0
    for t in range(len(u)):
        t0 = clock()
        theta = compute_angles(context_window(u, t, rc.c), weights)
        t1 = clock()
        unitary = embedding_unitary(theta, weights.w_hidden, rc.n_repeats)
        t2 = clock()
        rho_emb = unitary @ rho @ unitary.conj().T
        t3 = clock()
        features[t] = outcome_distribution(rho_emb, rc.gamma)
        t4 = clock()
        rho = damping_channel(rho_emb, rc.gamma)
        t5 = clock()
        rho = rehermitize(rho)
        t6 = clock()
        angles += t1 - t0
        unitary_s += t2 - t1
        conj += t3 - t2
        outcome += t4 - t3
        damping += t5 - t4
        reherm += t6 - t5
    for name, value in (("embedding.angles_s", angles),
                        ("embedding.unitary_s", unitary_s),
                        ("reservoir.conj_s", conj),
                        ("channel.outcome_s", outcome),
                        ("channel.damping_s", damping),
                        ("channel.rehermitize_s", reherm)):
        spent[name] += value
    return features


def replay_unitaries(u, weights, rc, spent):
    """The T embedding unitaries ``run_trajectories`` builds before it
    collapses any shot."""
    from swapqrn import context_window, compute_angles, embedding_unitary
    clock = time.perf_counter
    for t in range(len(u)):
        t0 = clock()
        theta = compute_angles(context_window(u, t, rc.c), weights)
        t1 = clock()
        embedding_unitary(theta, weights.w_hidden, rc.n_repeats)
        t2 = clock()
        spent["embedding.angles_s"] += t1 - t0
        spent["embedding.unitary_s"] += t2 - t1


def trace_point(task, spec, rc, u, weights, spent):
    """Untraced kernel pass, then the traced pass; returns
    (untraced seconds, traced seconds, max |traced - untraced| feature)."""
    import numpy as np
    import swapqrn
    clock = time.perf_counter
    start = clock()
    kernel = swapqrn.run_features(u, weights, rc)
    _score(task, kernel, u, spec)
    untraced = clock() - start

    start = clock()
    if rc.backend == "exact":
        traced = replay_exact(u, weights, rc, spent)
    else:
        traced = swapqrn.run_features(u, weights, rc)
        spent["reservoir.trajectory_s"] += clock() - start
        replay_unitaries(u, weights, rc, spent)
    mid = clock()
    _score(task, traced, u, spec)
    end = clock()
    spent["readout.score_s"] += end - mid

    steps, n_mem, dim = len(u), rc.n_mem, 2 ** rc.n_mem
    counts = {"reservoir.steps": steps, "embedding.unitary_calls": steps,
              "readout.fits": len(spec.delays) if task == "stmc" else 1}
    if rc.backend == "exact":
        counts["reservoir.conj_flops"] = steps * 2 * 8 * dim ** 3
        counts["channel.damping_bytes"] = steps * n_mem * 2 * 16 * dim * dim
        state_bytes = 16 * dim * dim
    else:
        shots = min(TRAJECTORY_CHUNK, rc.n_shots)
        counts["reservoir.shot_steps"] = rc.n_shots * steps
        # all T unitaries, the (chunk, T, n_mem) uniform block, the shot states
        state_bytes = (steps * 16 * dim * dim + shots * steps * n_mem * 8
                       + shots * dim * 16)
    for name, value in counts.items():
        spent[name] += value
    spent["reservoir.state_bytes"] = max(spent["reservoir.state_bytes"],
                                         state_bytes)
    err = float(np.max(np.abs(traced - kernel)))
    return untraced, end - start, err


PER_LAYER = (
    "embedding.unitary_s", "embedding.unitary_calls", "embedding.angles_s",
    "reservoir.conj_s", "reservoir.conj_flops", "reservoir.steps",
    "reservoir.state_bytes", "channel.damping_s", "channel.damping_bytes",
    "channel.outcome_s", "channel.rehermitize_s", "reservoir.trajectory_s",
    "reservoir.shot_steps", "reservoir.collapse_s", "readout.score_s",
    "readout.fits", "cli.parse_s", "cli.point_s_sum", "cli.io_s",
    "cli.points", "cli.points_failed", "cli.pool_point_inflation",
    "trace.overhead_s", "trace.replay_max_err", "trace.split_void",
)
SPLIT = ("embedding.unitary_s", "embedding.angles_s", "reservoir.conj_s",
         "channel.damping_s", "channel.outcome_s", "channel.rehermitize_s",
         "reservoir.collapse_s")


def trace(w, job, state, result):
    """Per-layer metrics; every name in PER_LAYER, 0 where the workload does
    not run the layer."""
    import swapqrn
    spent = dict.fromkeys(PER_LAYER, 0)
    points = []
    if w["kind"] == "library":
        points.append((state["spec"], state["rc"], state["u"], state["weights"]))
    else:
        from swapqrn import cli
        cfg = state["cfg"]
        point_s = result["point_s"]
        spent["cli.parse_s"] = state["parse_s"]
        spent["cli.point_s_sum"] = sum(point_s)
        spent["cli.io_s"] = result["wall_s"] - sum(point_s)
        spent["cli.points"] = result["points"]
        spent["cli.points_failed"] = result["points_failed"]
        # the same grid again on the process pool, the only path through
        # cmd_sweep's pool branch
        pooled = replace(cfg, outdir=Path(job["outdir"]) / "pool")
        cli.cmd_sweep(pooled, POOL_WORKERS)
        records, results, _ = _read_sweep(pooled.outdir)
        result["problems"] += [f"pool point {r['point_index']}: {r['error']}"
                               for r in records if r["status"] != "ok"]
        spent["cli.pool_point_inflation"] = (
            statistics.median(r["wall_time_s"] for r in records)
            / statistics.median(point_s))
        serial = {tuple(r[:3]): r[3] for r in state["results"]}
        pool = {tuple(r[:3]): r[3] for r in results}
        if set(pool) != set(serial) or any(
                not _close(pool[k], serial[k], METRIC_RTOL) for k in pool):
            result["problems"].append("pool and serial results.csv differ")
        for point in cli.sweep_points(cfg):
            rc = replace(cfg.reservoir, n_qubits=point.n_qubits,
                         gamma=point.gamma, n_repeats=point.n_repeats)
            weights = swapqrn.init_weights(rc.seed, rc.c, rc.n_mem)
            points.append((cfg.task_spec, rc,
                           _series(cfg.task, cfg.task_spec), weights))

    untraced = traced = err = 0.0
    for spec, rc, u, weights in points:
        a, b, e = trace_point(w["task"], spec, rc, u, weights, spent)
        untraced, traced, err = untraced + a, traced + b, max(err, e)
    if spent["reservoir.shot_steps"]:
        # derived: the trajectory kernel minus its unitary build
        spent["reservoir.collapse_s"] = (
            spent["reservoir.trajectory_s"] - spent["embedding.angles_s"]
            - spent["embedding.unitary_s"])
    spent["trace.overhead_s"] = traced - untraced
    spent["trace.replay_max_err"] = err
    if err > REPLAY_ATOL:
        spent["trace.split_void"] = 1
        for name in SPLIT:
            spent[name] = 0
    return spent


def main():
    job = json.loads(sys.argv[1])
    if job["mode"] == "probe":
        print(json.dumps(probe()))
        return
    w = workloads.resolve(job["workload"], job["smoke"])
    if w["kind"] == "library":
        state = setup_library(w, job["seed"])
    else:
        state = setup_cli(w, job)
    setup_s = time.monotonic() - job["t_spawn"]
    result = (run_library if w["kind"] == "library" else run_cli)(w, state)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = _peak_rss_mb()
    check_or_record(w, job, result)
    if job["mode"] == "trace":
        result["trace"] = trace(w, job, state, result)
    del result["outputs"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
