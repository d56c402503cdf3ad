"""Time-to-tolerance benchmark for sfista.

    python3 perfbench/run.py --workload desk-boxqp --seed 0 --seconds 30 --trace 0

Runs one workload (see workloads.py) serially in this process and prints
one line per metric, then, as the last line, a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
end-to-end metrics; `--trace 1` runs a separate traced pass, reports the
per-layer metrics and writes the spans to perfbench/out/.

`--workload all` runs every workload, untraced and then traced, each in a
fresh process of its own (so `peak_rss_mb` is per workload).

The package is imported from the checkout's own `src/`; the run fails
(exit code 2) when it is missing.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: iteration counts repeat exactly
# only at a fixed thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def environment(seed: int, instance_seed: int) -> dict:
    """What a run's numbers depend on besides the code under test."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "instance_seed": instance_seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles the order the jobs run in")
    parser.add_argument("--instance-seed", type=int, default=42,
                        help="seed of the problem instances (42 is the development seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sfista" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}/sfista", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS, make_workload

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            for trace in (0, 1):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--instance-seed", str(args.instance_seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
                print(f"== {name} trace {trace}", flush=True)
                status = max(status, subprocess.run(cmd).returncode)
        return status
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = make_workload(args.workload, args.seed, args.instance_seed)
    env = environment(args.seed, args.instance_seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    result = harness.run_workload(workload, args.seconds, traced=bool(args.trace))
    if args.trace:
        values, units = harness.per_layer_metrics(result), harness.PER_LAYER
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload.name}-i{args.instance_seed}-s{args.seed}.csv.gz"
        result.trace.write(path, json.dumps(env, sort_keys=True))
        print(f"trace {path.relative_to(ROOT)} ({len(result.trace.spans)} spans)")
    else:
        values, units = harness.end_to_end_metrics(result), harness.END_TO_END

    attempted = len(result.executions)
    failed = len(result.failures)
    runs = len(result.untraced)
    print(f"workload {workload.name}: {len(workload.jobs)} jobs, {runs} untraced runs"
          + (f", {len(result.traced)} traced runs" if args.trace else ""))
    for name, value in values.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(f"  fail_frac = {failed / attempted!r} (jobs failed / jobs attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
