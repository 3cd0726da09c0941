"""Record the reference outputs the benchmark checks every pass against.

    python3 perfbench/record_refs.py

Runs one full-size pass of every workload at each seed in
``workloads.REF_SEEDS`` and writes ``perfbench/refs/<workload>-seed<s>.json``.
Re-record only when a change is meant to alter the outputs, or when the
workload sizes change.
"""

import shutil

import run
import workloads


def main():
    for name in workloads.WORKLOADS:
        w = workloads.resolve(name)
        work = run.WORK / name
        work.mkdir(parents=True, exist_ok=True)
        config = work / "task.ini"
        run.write_task_config(w, config)
        try:
            for seed in workloads.REF_SEEDS:
                job = {"mode": "pass", "workload": name, "seed": seed,
                       "smoke": False, "config": str(config),
                       "outdir": str(work / "pass"), "record": True}
                result = run.run_child(job, timeout=170)
                print(f"{name} seed {seed}: {result['reference']}")
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
