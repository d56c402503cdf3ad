"""Compare two checkouts job by job: the CPU time of each benchmark job, interleaved.

    python3 scripts/ab_jobs.py --base ../parent --workload desk-mixed --reps 5

where ../parent is a checkout of the commit to compare with.  This checkout
is the change; the ratios are change / base.

One worker process per checkout imports that checkout's own `src/` and
`perfbench/` (read-only: no bytecode is written), builds the workload's
instances once, and runs one job per request.  The jobs run one at a time,
alternating between the workers, and the worker that goes first swaps on each
rep, so both meet the same load on the host.  This cancels the run-to-run
drift that two separate `perfbench/run.py` runs see, which can exceed a
10-15% change.  BLAS is pinned to one thread before numpy loads.

Each job's CPU time (`time.process_time` around the solve) is kept per rep.
The report gives, per method and in total, the ratio of the sums over jobs
of the per-job minimum and of the per-job median, the total iterations of
each checkout (for A-REG, the sum of its inner solves' iterations), so that a
change of iterates shows whether its saving comes from fewer iterations, and
counts the jobs whose outputs have the same bytes in both checkouts.  Every answer goes through
the benchmark's own checks (`harness.check_answer`); a failed job makes the
exit status 1.  The last line is a JSON object with the same numbers.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def worker(root: Path, workload_name: str, instance_seed: int) -> int:
    """Serve job indices read from stdin, one JSON line out per job."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import hashlib
    import time

    import numpy as np

    import harness
    from workloads import METHODS, WORKLOADS

    workload = WORKLOADS[workload_name](instance_seed)
    built = []
    for inst in workload.instances:
        problem, z0 = inst.build()
        built.append(harness.Built(problem, z0, 1.0 + float(np.linalg.norm(problem.f_grad(z0)))))
    jobs = [f"{workload.instances[job.instance].name} {job.method} {job.eps:g}"
            for job in workload.jobs]
    print(json.dumps({"jobs": jobs, "numpy": np.__version__}), flush=True)
    for line in sys.stdin:
        job = workload.jobs[int(line)]
        b = built[job.instance]
        out, error = None, None
        cpu = time.process_time()
        try:
            out = METHODS[job.method].run(b.problem, b.z0, job.eps)
        except Exception as exc:  # a failed job is reported; the comparison goes on
            error = f"{type(exc).__name__}: {exc}"
        reply = {"cpu": time.process_time() - cpu, "ok": False, "error": error}
        if out is not None:
            reply["ok"], _, reply["error"] = harness.check_answer(job, b, out)
            if job.method == "a-reg":
                reply["iters"] = sum(inner.total_iters for inner in out.inner_outputs)
                answer = out.w
            else:
                reply["iters"] = out.total_iters
                answer = out.y
            reply["sha"] = hashlib.sha256(np.ascontiguousarray(answer).tobytes()).hexdigest()[:16]
        print(json.dumps(reply), flush=True)
    return 0


class Worker:
    def __init__(self, root: Path, workload: str, instance_seed: int):
        if not (root / "src" / "sfista" / "__init__.py").is_file():
            raise SystemExit(f"error: package source not found at {root}/src/sfista")
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(root), "--workload", workload,
             "--instance-seed", str(instance_seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def run(self, j: int) -> dict:
        self.proc.stdin.write(f"{j}\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _ratio(change: float, base: float) -> float:
    return change / base if base > 0 else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="checkout to compare with")
    parser.add_argument("--workload", default="desk-mixed")
    parser.add_argument("--reps", type=int, default=5, help="runs of every job per checkout")
    parser.add_argument("--instance-seed", type=int, default=42)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        return worker(args.worker, args.workload, args.instance_seed)
    if args.base is None:
        parser.error("--base is required")
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    workers = {}
    try:
        for name, root in (("base", args.base.resolve()), ("change", ROOT)):
            workers[name] = Worker(root, args.workload, args.instance_seed)
        jobs = workers["change"].hello["jobs"]
        if workers["base"].hello["jobs"] != jobs:
            print("error: the two checkouts define different jobs", file=sys.stderr)
            return 1
        print(f"env python {sys.version.split()[0]}, numpy {workers['change'].hello['numpy']}, "
              f"nproc {os.cpu_count()}, BLAS threads 1; base {args.base.resolve()}, "
              f"change {ROOT}", flush=True)
        cpu = {name: defaultdict(list) for name in workers}
        sha = {name: {} for name in workers}
        iters = {name: {} for name in workers}
        failures = []
        for rep in range(args.reps):
            order = ("base", "change") if rep % 2 == 0 else ("change", "base")
            for j in range(len(jobs)):
                for name in order:
                    reply = workers[name].run(j)
                    cpu[name][j].append(reply["cpu"])
                    sha[name][j] = reply.get("sha")
                    iters[name][j] = reply.get("iters", 0)
                    if not reply["ok"]:
                        failures.append(f"{name} {jobs[j]}: {reply['error']}")
    finally:
        for w in workers.values():
            w.close()

    # per method, then in total: sums over jobs of the per-job min and median
    groups = defaultdict(list)
    for j, job in enumerate(jobs):
        groups[job.split()[1]].append(j)
    groups["total"] = list(range(len(jobs)))
    report = {}
    print(f"{args.workload}: {len(jobs)} jobs x {args.reps} reps per checkout; "
          "ratios are change / base")
    print(f"  {'method':<12}{'jobs':>5}{'base min s':>12}{'min ratio':>11}"
          f"{'base med s':>12}{'med ratio':>11}{'base iters':>12}{'change iters':>14}")
    for group, js in groups.items():
        row = {}
        for stat, fn in (("min", min), ("median", statistics.median)):
            base = sum(fn(cpu["base"][j]) for j in js)
            row[f"{stat}_base_s"] = base
            row[f"{stat}_ratio"] = _ratio(sum(fn(cpu["change"][j]) for j in js), base)
        for name in workers:
            row[f"iters_{name}"] = sum(iters[name][j] for j in js)
        report[group] = row
        print(f"  {group:<12}{len(js):>5}{row['min_base_s']:>12.4f}{row['min_ratio']:>11.3f}"
              f"{row['median_base_s']:>12.4f}{row['median_ratio']:>11.3f}"
              f"{row['iters_base']:>12}{row['iters_change']:>14}")
    same = sum(sha["base"][j] is not None and sha["base"][j] == sha["change"][j]
               for j in range(len(jobs)))
    print(f"  outputs with the same bytes: {same}/{len(jobs)} jobs")
    for line in failures:
        print(f"  failed: {line}")
    print(json.dumps({"workload": args.workload, "reps": args.reps, "jobs": len(jobs),
                      "same_bytes": same, "failed": len(failures), "ratios": report}))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
