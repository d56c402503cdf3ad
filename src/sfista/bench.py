"""Benchmark harness: run method x instance grids, record counts and times,
compute the average time ratio (ATR), and emit csv/markdown tables.

Time limiting is cooperative (each solver checks elapsed time once per
iteration), which keeps iterate sequences deterministic.  Rows run one at a
time, in suite order, so each runtime is that solve's own wall time and
output files are byte-reproducible apart from the runtime column.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, get_type_hints

from .baselines import (
    BaselineConfig,
    solve_fista_bt,
    solve_fista_restart,
    solve_greedy_fista,
    solve_rada_fista,
)
from .problems import InstanceSpec, make_instance
from .rpf_sfista import SfistaConfig, solve_sfista

__all__ = [
    "RunRecord",
    "METHODS",
    "compute_atr",
    "run_benchmark",
    "emit_table",
    "parse_csv",
    "atr_from_records",
    "desk_suite",
]

_MIN_TICK = 1e-9  # one timer tick: floor for recorded runtimes


@dataclass
class RunRecord:
    """One benchmark row: one method on one instance; its fields are the csv columns."""

    instance_id: str
    family: str
    m: int
    n: int
    param: str
    method: str
    status: str  # 'converged' | 'iter_cap' | 'time_cap' | 'error:<ExceptionName>'
    iters: int
    prox_evals: int
    grad_evals: int
    runtime_s: float
    rel_residual: float
    seed: int


CSV_COLUMNS = [f.name for f in fields(RunRecord)]
_CSV_TYPES = [get_type_hints(RunRecord)[name] for name in CSV_COLUMNS]  # int, float or str


def compute_atr(
    best_other_times: Sequence[float],
    rpf_times: Sequence[float],
    time_limit: float,
) -> float:
    """Average time ratio (1/N) sum b_i/r_i.

    Times that exceed the limit (timeouts) are clamped to the limit before
    taking ratios; every time is floored at one timer tick so the ratio is
    always finite.  A NaN or negative time is a ValueError, and so is a
    limit that is not positive and finite.
    """
    if not 0 < time_limit < math.inf:  # written so that NaN fails too
        # an infinite limit would charge a failed run inf, and inf / inf is NaN
        what = "finite" if time_limit == math.inf else "positive"
        raise ValueError(f"time_limit must be {what}, got {time_limit}")
    if len(best_other_times) == 0 or len(rpf_times) == 0:
        raise ValueError("ATR needs at least one paired run")
    if len(best_other_times) != len(rpf_times):
        raise ValueError("ATR inputs must have equal length")
    total = 0.0
    for b, r in zip(best_other_times, rpf_times):
        if not (b >= 0 and r >= 0):  # written so that NaN fails too
            raise ValueError(f"run times must be nonnegative, got {b} and {r}")
        b = min(b, time_limit)
        r = min(r, time_limit)
        total += max(b, _MIN_TICK) / max(r, _MIN_TICK)
    return total / len(rpf_times)


def _solve_rpf(problem, z0, eps_hat, time_limit):
    # mu_shrink 0.1 is the practical restart schedule that `bench run` and
    # `solve` both use; the 0.5 default in SfistaConfig is the conservative
    # theory value
    cfg = SfistaConfig(eps_hat=eps_hat, residual_mode="relative",
                       time_limit=time_limit, mu_shrink=0.1)
    return solve_sfista(problem, cfg, z0)


def _make_baseline_runner(fn):
    def run(problem, z0, eps_hat, time_limit):
        cfg = BaselineConfig(eps_hat=eps_hat, time_limit=time_limit)
        return fn(problem, cfg, z0)
    return run


METHODS: Dict[str, Callable] = {
    "rpf-sfista": _solve_rpf,
    "fista-bt": _make_baseline_runner(solve_fista_bt),
    "fista-r": _make_baseline_runner(solve_fista_restart),
    "rada": _make_baseline_runner(solve_rada_fista),
    "greedy": _make_baseline_runner(solve_greedy_fista),
}


def _run_one(spec: InstanceSpec, instance, method: str, eps_hat: float,
             time_limit: float) -> RunRecord:
    """One row; `instance` is the (problem, z0) pair or the exception its build raised."""
    run = dict(instance_id=spec.instance_id, family=spec.family, m=spec.m, n=spec.n,
               param=spec.param, method=method, seed=spec.seed)
    try:
        if isinstance(instance, Exception):  # a failed build fails each of its rows
            raise instance
        out = METHODS[method](*instance, eps_hat, time_limit)
    except Exception as exc:  # per-row capture: one bad run must not kill the suite
        return RunRecord(**run, status=f"error:{type(exc).__name__}", iters=0,
                         prox_evals=0, grad_evals=0, runtime_s=0.0, rel_residual=math.inf)
    return RunRecord(
        **run, status=out.status, iters=out.total_iters,
        prox_evals=out.counters.prox_evals, grad_evals=out.counters.grad_evals,
        runtime_s=max(out.runtime_s, _MIN_TICK), rel_residual=out.residual,
    )


def run_benchmark(
    suite: Sequence[InstanceSpec],
    methods: Sequence[str],
    eps_hat: float,
    time_limit: float,
) -> List[RunRecord]:
    """Run every method on every instance, one solve at a time.

    Each instance is built once and its methods share it: a problem holds
    no per-solve state.  Its known_L is read with the build, so that rada
    or greedy, which read it, does not time its computation.  Records come
    in suite order, and each runtime is that solve's own wall time.
    """
    if len(suite) == 0:
        raise ValueError("suite must be nonempty")
    if len(methods) == 0:
        raise ValueError("methods must be nonempty")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods: {unknown}; choose from {sorted(METHODS)}")
    if not eps_hat > 0:
        raise ValueError("eps_hat must be positive")
    if not time_limit >= 0:
        raise ValueError("time_limit must be nonnegative")

    records = []
    for spec in suite:
        try:
            instance = make_instance(spec)
            instance[0].known_L  # computed on first read: outside every row's runtime
        except Exception as exc:
            instance = exc
        records += [_run_one(spec, instance, method, eps_hat, time_limit) for method in methods]
    return records


def emit_table(records: Sequence[RunRecord], format: str = "csv") -> str:
    """Render records as csv (RunRecord's fields) or a grouped markdown table.

    Markdown groups rows per instance, bolds the best iteration count and
    runtime within each group (ties: all bolded), and renders non-converged
    entries as "*/<achieved residual>".
    """
    if len(records) == 0:
        raise ValueError("no records to emit")
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([getattr(rec, name) for name in CSV_COLUMNS])
        return buf.getvalue()
    if format != "markdown":
        raise ValueError(f"unknown format {format!r}")

    groups: Dict[str, List[RunRecord]] = {}  # in order of first appearance
    for rec in records:
        groups.setdefault(rec.instance_id, []).append(rec)

    lines = ["| instance | method | iters | runtime (s) |",
             "| --- | --- | --- | --- |"]
    for iid, rows in groups.items():
        converged = [r for r in rows if r.status == "converged"]
        best_iters = min((r.iters for r in converged), default=None)
        best_time = min((r.runtime_s for r in converged), default=None)
        for rec in rows:
            if rec.status == "converged":
                it_cell = str(rec.iters)
                rt_cell = f"{rec.runtime_s:.3g}"
                if rec.iters == best_iters:
                    it_cell = f"**{it_cell}**"
                if rec.runtime_s == best_time:
                    rt_cell = f"**{rt_cell}**"
            else:
                it_cell = f"*/{rec.rel_residual:.1e}"
                rt_cell = f"*/{rec.rel_residual:.1e}"
            lines.append(f"| {iid} | {rec.method} | {it_cell} | {rt_cell} |")
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> List[RunRecord]:
    """Inverse of emit_table(..., 'csv'): field-for-field round-trip."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected csv header: {header}")
    records = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
        records.append(RunRecord(*(parse(cell) for parse, cell in zip(_CSV_TYPES, row))))
    return records


def atr_from_records(
    records: Sequence[RunRecord],
    subject: str = "rpf-sfista",
    time_limit: float = 7200.0,
    baseline: Optional[str] = None,
) -> float:
    """Suite-level ATR of the subject method versus the best other method
    (or one named baseline) per instance."""
    by_instance: Dict[str, Dict[str, RunRecord]] = {}
    for rec in records:
        by_instance.setdefault(rec.instance_id, {})[rec.method] = rec

    def effective_time(rec: RunRecord) -> float:
        if rec.status != "converged":
            return time_limit
        return rec.runtime_s

    subject_times, other_times = [], []
    for iid, methods in by_instance.items():
        if subject not in methods:
            continue
        if baseline is not None:
            pool = [methods[baseline]] if baseline in methods else []
        else:
            pool = [r for m, r in methods.items() if m != subject]
        if not pool:
            continue
        subject_times.append(effective_time(methods[subject]))
        other_times.append(min(effective_time(r) for r in pool))
    return compute_atr(other_times, subject_times, time_limit)


# each family's four (m, n) and shared settings.  qp_box's m = n/2 keeps the least-squares
# block rank deficient, where the adaptive solvers separate from the fixed-step ones
_DESK_GRIDS = {
    "logistic": ([(60, 40), (80, 50), (100, 60), (120, 80)], dict(C=1.0)),
    "lasso": ([(60, 120), (80, 160), (100, 200), (120, 240)], dict(C=5.0)),
    "qp_simplex": ([(n, n) for n in (40, 60, 80, 100)],
                   dict(alpha=100.0, mu_target=1e-4, L_target=1e2)),
    "qp_box": ([(n // 2, n) for n in (80, 100, 120, 160)],
               dict(alpha=1000.0, mu_target=1e-4, L_target=1e2, a_pattern="last1")),
}


def desk_suite(family: str, seed: int = 42, count: int = 4) -> List[InstanceSpec]:
    """The first `count` (1 to 4) of a family's desk instances, at seeds seed, seed + 1, ..."""
    if family not in _DESK_GRIDS:
        raise ValueError(f"unknown family {family!r}")
    if not 1 <= count <= 4:
        raise ValueError(f"count must be 1 to 4, got {count}")
    shapes, settings = _DESK_GRIDS[family]
    return [InstanceSpec(family, m, n, seed + i, **settings)
            for i, (m, n) in enumerate(shapes[:count])]
