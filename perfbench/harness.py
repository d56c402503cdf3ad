"""Run one workload as a closed loop, check every answer, and reduce the
timings (and, in a traced run, the spans) to the benchmark's metrics.

One caller runs one solve at a time; the next solve starts when the last
one returns.  Jobs run round-robin until the measuring window has passed and
every job has run at least once.  The end-to-end times are CPU seconds of
this process (BLAS runs on one thread, so on an unshared machine they equal
wall time), and a job's time is the median over its runs.  On a shared
virtual machine the wall time also counts the time the host takes the vCPU
away (steal), 15% of some desk-boxqp solves.  Over 30 s windows of one
300 s desk-boxqp series on a 2-vCPU VM, the sum of per-job CPU medians
spread 0.046 (quartile distance over median), the sum of per-job CPU
minima 0.077 and the sum of per-job wall minima 0.115.

A traced run swaps each problem's oracles for timed wrappers from outside
the program (`dataclasses.replace` on the `CompositeProblem`) and records a
span per call.  Each job then runs once untraced and once traced, in
alternating order, so the same run also measures what tracing costs.
"""

from __future__ import annotations

import csv
import gzip
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from sfista import compute_atr

from workloads import JOB_TIME_LIMIT, METHODS, Job, Workload

# metric name -> unit, in the order they are printed
END_TO_END = {
    "solve_s": "s",
    "rpf_solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "prox_ops.prox_calls": "count",
    "prox_ops.prox_s": "s",
    "prox_ops.prox_us_per_call": "us",
    "prox_ops.h_calls": "count",
    "prox_ops.h_s": "s",
    "prox_ops.share": "frac",
    "problems.f_calls": "count",
    "problems.f_s": "s",
    "problems.grad_calls": "count",
    "problems.grad_s": "s",
    "problems.f_grad_share": "frac",
    "rpf_sfista.s": "s",
    "rpf_sfista.self_s": "s",
    "rpf_sfista.iters": "count",
    "rpf_sfista.cycles": "count",
    "rpf_sfista.f_per_iter": "calls/iter",
    "rpf_sfista.grad_per_iter": "calls/iter",
    "rpf_sfista.ls_accept_ratio": "ratio",
    "baselines.s": "s",
    "baselines.self_s": "s",
    "baselines.iters": "count",
    "baselines.f_per_iter": "calls/iter",
    "baselines.grad_per_iter": "calls/iter",
    "baselines.ls_accept_ratio": "ratio",
    "a_reg.s": "s",
    "a_reg.self_s": "s",
    "a_reg.outer_iters": "count",
    "a_reg.inner_iters": "count",
    "bench.atr_vs_best": "ratio",
    "bench.atr_vs_fista-r": "ratio",
    "trace.overhead_frac": "frac",
}

# oracle field of CompositeProblem -> span name of the layer that serves it
ORACLE_SPANS = {
    "f_eval": "problems.f",
    "f_grad": "problems.grad",
    "h_prox": "prox_ops.prox",
    "h_eval": "prox_ops.h",
}


class Trace:
    """Spans kept in memory as (name, start, end, parent, job) tuples; the
    index in `spans` is the span id.  Written out once, when the run ends."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int, Optional[int]]] = []

    def add(self, name, start, end, parent=-1, job=None) -> int:
        self.spans.append((name, start, end, parent, job))
        return len(self.spans) - 1

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {}
        for i, span in enumerate(self.spans):
            kids.setdefault(span[3], []).append(i)
        return kids

    def self_time(self, span_id: int, kids: Dict[int, List[int]]) -> float:
        """Span duration minus the time its (disjoint) child spans cover."""
        name, start, end, _, _ = self.spans[span_id]
        covered = sum(self.spans[k][2] - self.spans[k][1] for k in kids.get(span_id, ()))
        return (end - start) - covered

    def write(self, path, header: str) -> None:
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write(f"# {header}\n")
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "job"])
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent, "" if job is None else job])


def traced_problem(problem, sink: list):
    """Copy of `problem` whose four oracles append (span name, start, end)
    to `sink` on every call."""

    def timed(name, fn):
        clock = time.perf_counter

        def call(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                sink.append((name, start, clock()))
        return call

    return replace(problem, **{field_name: timed(span, getattr(problem, field_name))
                               for field_name, span in ORACLE_SPANS.items()})


@dataclass
class Built:
    """An instance after set-up, with the reference quantities the answer
    checks use (computed from the raw oracles, outside any timed window)."""

    problem: object
    z0: np.ndarray
    denom: float  # 1 + ||grad f(z0)||


@dataclass
class Execution:
    """One run of one job."""

    job: int
    seconds: float  # wall time, which the spans of a traced run share
    cpu_seconds: float  # CPU time of this process
    output: object
    error: Optional[str]
    phi: float = math.nan
    ok: bool = False
    span: Optional[int] = None  # solve span id, traced runs only


def check_answer(job: Job, built: Built, out) -> Tuple[bool, float, str]:
    """Feasibility and residual checks on one returned answer.

    Returns (ok, phi(answer), reason).  The stationarity measure is recomputed
    from the returned certificate and the raw oracle: ||v|| / (1 + ||grad
    f(z0)||) <= eps for the single-level solvers, ||r|| <= eps for A-REG.
    """
    problem = built.problem
    if job.method == "a-reg":
        answer, residual = out.w, float(np.linalg.norm(out.r))
    else:
        answer, residual = out.y, float(np.linalg.norm(out.v)) / built.denom
    h = float(problem.h_eval(answer))
    phi = float(problem.f_eval(answer)) + h if h == 0.0 else math.inf
    if out.status != "converged":
        return False, phi, f"status {out.status}"
    if h != 0.0:
        return False, phi, "answer infeasible"
    if not residual <= job.eps:
        return False, phi, f"residual {residual:.3e} > {job.eps:g}"
    if not math.isfinite(phi):
        return False, phi, "objective not finite"
    return True, phi, ""


@dataclass
class RunResult:
    workload: Workload
    setup_seconds: List[float]  # CPU seconds of each round of set-up
    untraced: List[Execution]
    traced: List[Execution]
    trace: Optional[Trace]
    failures: List[str] = field(default_factory=list)

    @property
    def executions(self) -> List[Execution]:
        return self.untraced + self.traced


def run_workload(workload: Workload, seconds: float, traced: bool) -> RunResult:
    """Set the workload up, then run its jobs round-robin for `seconds`."""
    trace = Trace() if traced else None
    clock = time.perf_counter
    root = trace.add("workload:" + workload.name, clock(), math.nan) if trace else -1

    setup_seconds: List[float] = []
    instances: List[Tuple] = []
    for _ in range(1 if traced else workload.setup_repeats):
        instances = []  # drop the previous round before building the next
        total = 0.0
        for inst in workload.instances:
            cpu = time.process_time()
            start = clock()
            instances.append(inst.build())
            end = clock()
            total += time.process_time() - cpu
            if trace:
                trace.add(f"problems.setup:{inst.name}", start, end, root)
        setup_seconds.append(total)

    built = [Built(p, z0, 1.0 + float(np.linalg.norm(p.f_grad(z0)))) for p, z0 in instances]

    untraced: List[Execution] = []
    traced_runs: List[Execution] = []
    n = len(workload.jobs)
    start = clock()
    step = 0
    while step < n or clock() - start < seconds:
        j = step % n
        order = (False, True) if (step // n) % 2 == 0 else (True, False)
        for with_trace in (order if traced else (False,)):
            ex = _execute(workload, j, built, trace if with_trace else None, root)
            (traced_runs if with_trace else untraced).append(ex)
        step += 1
    if trace:
        name, t0, _, parent, job = trace.spans[root]
        trace.spans[root] = (name, t0, clock(), parent, job)

    result = RunResult(workload, setup_seconds, untraced, traced_runs, trace)
    _check_all(result)
    return result


def _execute(workload: Workload, j: int, built: List[Built], trace: Optional[Trace],
             root: int) -> Execution:
    job = workload.jobs[j]
    b = built[job.instance]
    method = METHODS[job.method]
    sink: list = []
    problem = traced_problem(b.problem, sink) if trace else b.problem
    clock = time.perf_counter
    error = None
    out = None
    cpu = time.process_time()
    start = clock()
    try:
        out = method.run(problem, b.z0, job.eps)
    except Exception as exc:  # a failed solve is a failed job; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    end = clock()
    ex = Execution(j, end - start, time.process_time() - cpu, out, error)
    if error is None:
        try:
            ex.ok, ex.phi, ex.error = check_answer(job, b, out)
        except Exception as exc:  # a malformed answer is a failed job too
            ex.error = f"answer check raised {type(exc).__name__}: {exc}"
    if trace:
        # spans of one job run share the job span's id as their job id
        job_id = len(trace.spans)
        trace.add(f"job:{workload.instances[job.instance].name}/{job.method}",
                  start, clock(), root, job_id)
        ex.span = trace.add(f"{method.layer}.solve", start, end, job_id, job_id)
        for name, t0, t1 in sink:
            trace.add(name, t0, t1, ex.span, job_id)
    return ex


def _check_all(result: RunResult) -> None:
    """Cross-method check: on each instance, every job's objective value must
    agree with the median of the first runs within the workload's phi_rtol."""
    wl = result.workload
    first: Dict[int, Execution] = {}
    for ex in result.executions:
        first.setdefault(ex.job, ex)
    ref: Dict[int, float] = {}
    for i in range(len(wl.instances)):
        phis = [ex.phi for j, ex in first.items()
                if wl.jobs[j].instance == i and ex.ok]
        if phis:
            ref[i] = statistics.median(phis)
    for ex in result.executions:
        job = wl.jobs[ex.job]
        if ex.ok and job.instance in ref:
            phi_ref = ref[job.instance]
            if abs(ex.phi - phi_ref) > wl.phi_rtol * (1.0 + abs(phi_ref)):
                ex.ok = False
                ex.error = f"phi {ex.phi!r} disagrees with {phi_ref!r}"
        if not ex.ok:
            msg = (f"job {wl.instances[job.instance].name}/{job.method} "
                   f"failed: {ex.error}")
            result.failures.append(msg)
            print(msg, file=sys.stderr, flush=True)


def _fastest(runs: List[Execution]) -> Dict[int, Execution]:
    """Each job's fastest run."""
    best: Dict[int, Execution] = {}
    for ex in runs:
        if ex.job not in best or ex.seconds < best[ex.job].seconds:
            best[ex.job] = ex
    return best


def _median_cpu(runs: List[Execution]) -> Dict[int, float]:
    """Each job's median CPU time over its runs."""
    by_job: Dict[int, List[float]] = {}
    for ex in runs:
        by_job.setdefault(ex.job, []).append(ex.cpu_seconds)
    return {j: statistics.median(t) for j, t in by_job.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(result: RunResult) -> Dict[str, float]:
    wl = result.workload
    job_s = _median_cpu(result.untraced)
    return {
        "solve_s": sum(job_s.values()),
        "rpf_solve_s": sum(t for j, t in job_s.items()
                           if METHODS[wl.jobs[j].method].paper),
        "setup_s": statistics.median(result.setup_seconds),
        "peak_rss_mb": peak_rss_mb(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_times(trace: Trace, kids: Dict[int, List[int]], ex: Execution) -> Dict[str, float]:
    """Oracle time and call count per span name, and the solve's total and
    self time, of one traced run."""
    out: Dict[str, float] = {"solve": ex.seconds, "self": trace.self_time(ex.span, kids)}
    for name in ORACLE_SPANS.values():
        out[name] = 0.0
        out[name + ".calls"] = 0
    for k in kids.get(ex.span, ()):
        name, t0, t1, _, _ = trace.spans[k]
        out[name] += t1 - t0
        out[name + ".calls"] += 1
    return out


def _solver_count(out, key: str) -> int:
    """A count the solver reports: total_iters or cycles, or for A-REG
    outer_iters or inner_iters; 0 when the solve raised."""
    if out is None:
        return 0
    if key == "inner_iters":
        return sum(o.total_iters for o in out.inner_outputs)
    return getattr(out, key)


def per_layer_metrics(result: RunResult) -> Dict[str, float]:
    """Layer totals over the workload, each job represented by its fastest
    traced run, so that oracle time plus self time adds up to solve time."""
    wl = result.workload
    best = _fastest(result.traced)
    kids = result.trace.children()
    times = {j: _layer_times(result.trace, kids, ex) for j, ex in best.items()}

    def total(key: str, layer: Optional[str] = None) -> float:
        return sum(times[j][key] for j, job in enumerate(wl.jobs)
                   if layer is None or METHODS[job.method].layer == layer)

    def solver_total(key: str, layer: str) -> int:
        return sum(_solver_count(best[j].output, key)
                   for j, job in enumerate(wl.jobs) if METHODS[job.method].layer == layer)

    solve_s = total("solve")
    m = {
        "prox_ops.prox_calls": total("prox_ops.prox.calls"),
        "prox_ops.prox_s": total("prox_ops.prox"),
        "prox_ops.h_calls": total("prox_ops.h.calls"),
        "prox_ops.h_s": total("prox_ops.h"),
        "problems.f_calls": total("problems.f.calls"),
        "problems.f_s": total("problems.f"),
        "problems.grad_calls": total("problems.grad.calls"),
        "problems.grad_s": total("problems.grad"),
    }
    m["prox_ops.prox_us_per_call"] = 1e6 * _ratio(m["prox_ops.prox_s"], m["prox_ops.prox_calls"])
    m["prox_ops.share"] = _ratio(m["prox_ops.prox_s"] + m["prox_ops.h_s"], solve_s)
    m["problems.f_grad_share"] = _ratio(m["problems.f_s"] + m["problems.grad_s"], solve_s)

    for layer in ("rpf_sfista", "baselines"):
        iters = solver_total("total_iters", layer)
        m[f"{layer}.s"] = total("solve", layer)
        m[f"{layer}.self_s"] = total("self", layer)
        m[f"{layer}.iters"] = iters
        if layer == "rpf_sfista":
            m[f"{layer}.cycles"] = solver_total("cycles", layer)
        m[f"{layer}.f_per_iter"] = _ratio(total("problems.f.calls", layer), iters)
        m[f"{layer}.grad_per_iter"] = _ratio(total("problems.grad.calls", layer), iters)
        m[f"{layer}.ls_accept_ratio"] = _ratio(iters, total("prox_ops.prox.calls", layer))
    m["a_reg.s"] = total("solve", "a_reg")
    m["a_reg.self_s"] = total("self", "a_reg")
    m["a_reg.outer_iters"] = solver_total("outer_iters", "a_reg")
    m["a_reg.inner_iters"] = solver_total("inner_iters", "a_reg")

    m["bench.atr_vs_best"], m["bench.atr_vs_fista-r"] = _atr(result)
    untraced_s = sum(ex.seconds for ex in _fastest(result.untraced).values())
    m["trace.overhead_frac"] = _ratio(solve_s, untraced_s) - 1.0
    return {name: m[name] for name in PER_LAYER}


def _atr(result: RunResult) -> Tuple[float, float]:
    """Average time ratio of rpf-sfista against the best baseline and
    against fista-r, from untraced job times as `solve_s` counts them; a
    failed job counts as the job time limit."""
    wl = result.workload
    job_s = _median_cpu(result.untraced)
    failed = {ex.job for ex in result.untraced if not ex.ok}
    times: Dict[int, Dict[str, float]] = {}
    for j, job in enumerate(wl.jobs):
        t = JOB_TIME_LIMIT if j in failed else job_s[j]
        times.setdefault(job.instance, {})[job.method] = t
    rpf, best_other, fista_r = [], [], []
    for by_method in times.values():
        others = [t for name, t in by_method.items() if METHODS[name].layer == "baselines"]
        if "rpf-sfista" in by_method and others:
            rpf.append(by_method["rpf-sfista"])
            best_other.append(min(others))
            fista_r.append(by_method.get("fista-r", JOB_TIME_LIMIT))
    if not rpf:
        return 0.0, 0.0
    return (compute_atr(best_other, rpf, JOB_TIME_LIMIT),
            compute_atr(fista_r, rpf, JOB_TIME_LIMIT))
