"""Workload definitions shared by the runner (``run.py``) and the per-pass
child (``child.py``).  Pure standard library: the runner never imports the
package under test.

Sizes.  The paper-scale passes (1,000 steps each) take 7 to 41 s, too long to
repeat inside one timed run.  Every workload keeps the register size, gamma,
re-uploading count, context length, shot count and grid shape of its
paper-scale original and shortens only the input series, so a pass exercises
the same per-step kernel on the same state size.  ``smoke`` shrinks every
workload to 4 qubits and 60 steps for the benchmark's own test.
"""

REF_SEEDS = (42, 7)
DEFAULT_SEED = 42

# How each workload is driven, and its sizes; BENCHMARK.json says why each
# was chosen.
WORKLOADS = {
    "stmc16": {
        "kind": "library",
        "task": "stmc",
        "reservoir": {"n_qubits": 16, "gamma": 0.55, "n_repeats": 1, "c": 1,
                      "backend": "exact"},
        "steps": 150,
    },
    "narma12-sweep": {
        "kind": "cli",
        "task": "narma5",
        "argv": ["sweep", "--task", "narma5", "--workers", "1"],
        "steps": 80,
    },
    "stmc8-traj": {
        "kind": "library",
        "task": "stmc",
        "reservoir": {"n_qubits": 8, "gamma": 0.55, "n_repeats": 1, "c": 1,
                      "backend": "trajectory", "n_shots": 4000},
        "steps": 150,
    },
}

SMOKE_QUBITS = 4
SMOKE_STEPS = 60


def task_spec(task, steps):
    """Series split for a shortened task: train, test and washout scale with
    ``steps``; the ridge alpha and STMC delays keep their package defaults."""
    washout = steps // 10
    if task == "stmc":
        # the longest delay (-10) and the washout come off the front
        usable = steps - 10 - washout
        n_test = max(usable // 5, 1)
        return {"n_total": steps, "n_train": usable - n_test,
                "n_test": n_test, "n_washout": washout}
    usable = steps - 5  # narma5 drops its first five targets
    n_test = usable // 4
    return {"n_total": steps, "n_train": usable - n_test, "n_test": n_test,
            "n_washout": washout}


def resolve(name, smoke=False):
    """Concrete sizes of workload ``name``: a dict the child can run."""
    w = dict(WORKLOADS[name])
    steps = SMOKE_STEPS if smoke else w["steps"]
    w["name"] = name
    w["steps"] = steps
    w["spec"] = task_spec(w["task"], steps)
    w["size"] = "smoke" if smoke else "full"
    if w["kind"] == "library":
        w["reservoir"] = dict(w["reservoir"])
        if smoke:
            w["reservoir"]["n_qubits"] = SMOKE_QUBITS
    else:
        argv = list(w["argv"])
        if smoke:
            if "--n-qubits-grid" in argv:
                argv[argv.index("--n-qubits-grid") + 1] = str(SMOKE_QUBITS)
            else:
                argv += ["--n-qubits", str(SMOKE_QUBITS)]
        w["argv"] = argv
    return w
