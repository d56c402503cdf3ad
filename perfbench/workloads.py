"""The benchmark's workloads: which instances are built and which solver
jobs run on them.

Method settings are pinned here rather than taken from `sfista.bench` or
`sfista.cli`, so that a later change to either registry shows up as a
measured change instead of silently moving the benchmark.

Every workload builds its instances from one instance seed: 42 is the
development seed, and another is kept back for checking claims.  The run
seed only shuffles the order the jobs run in.  Instances do not follow the
run seed because their difficulty is heavy-tailed across seeds: over seeds
11-15, desk-mixed took 5.1 to 18.2 s of solve (fista-r needs 59,833
iterations on one lasso instance at seed 14), and desk-boxqp with both
its n=80 and n=160 instances 13.7 to 16.2 s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

from sfista import (
    ARegConfig,
    BaselineConfig,
    SfistaConfig,
    desk_suite,
    gen_lasso_random,
    make_instance,
    solve_areg,
    solve_fista_bt,
    solve_fista_restart,
    solve_greedy_fista,
    solve_rada_fista,
    solve_sfista,
)

# A solve that passes this many seconds is stopped by the solver's own
# cooperative time cap and counted as a failed job; it never changes iterates.
JOB_TIME_LIMIT = 60.0

# The practical restart schedule `bench run` uses (the `solve` CLI uses 0.5).
RPF_CONFIG = SfistaConfig(mu_shrink=0.1, residual_mode="relative",
                          time_limit=JOB_TIME_LIMIT)
BASELINE_CONFIG = BaselineConfig(time_limit=JOB_TIME_LIMIT)


@dataclass(frozen=True)
class Method:
    """One solver as the benchmark calls it.

    `layer` is the module the solve is attributed to in per-layer metrics;
    `paper` marks the paper's own solvers, which `rpf_solve_s` counts.
    """

    name: str
    layer: str
    paper: bool
    run: Callable  # (problem, z0, eps) -> solver output


def _baseline(fn):
    return lambda problem, z0, eps: fn(problem, replace(BASELINE_CONFIG, eps_hat=eps), z0)


METHODS: Dict[str, Method] = {m.name: m for m in [
    Method("rpf-sfista", "rpf_sfista", True,
           lambda problem, z0, eps: solve_sfista(problem, replace(RPF_CONFIG, eps_hat=eps), z0)),
    Method("fista-bt", "baselines", False, _baseline(solve_fista_bt)),
    Method("fista-r", "baselines", False, _baseline(solve_fista_restart)),
    Method("rada", "baselines", False, _baseline(solve_rada_fista)),
    Method("greedy", "baselines", False, _baseline(solve_greedy_fista)),
    Method("a-reg", "a_reg", True,
           lambda problem, z0, eps: solve_areg(
               problem, ARegConfig(eps=eps, time_limit=JOB_TIME_LIMIT), z0)),
]}


@dataclass(frozen=True)
class Instance:
    """A named problem builder; `build()` returns (problem, z0)."""

    name: str
    build: Callable[[], Tuple]


@dataclass(frozen=True)
class Job:
    """One method run to tolerance `eps` on one instance (by index)."""

    instance: int
    method: str
    eps: float


@dataclass(frozen=True)
class Workload:
    """Instances, the jobs run on them, and how often set-up is repeated.

    phi_rtol is the stated tolerance for the objective values of all jobs on
    one instance to agree: |phi - phi_ref| <= phi_rtol * (1 + |phi_ref|).
    Each is at least 1000 times the largest disagreement seen at instance seeds 1-3
    (1.1e-9 on desk-boxqp at eps 1e-8, 4.4e-16 on the other two).
    """

    name: str
    instances: Sequence[Instance]
    jobs: Sequence[Job]
    phi_rtol: float
    setup_repeats: int


def _spec_instance(spec) -> Instance:
    return Instance(spec.instance_id, lambda: make_instance(spec))


def _jobs(instances: range, methods: Sequence[str], eps: float) -> List[Job]:
    return [Job(i, m, eps) for i in instances for m in methods]


def desk_boxqp(seed: int) -> Workload:
    """Projection-bound: bisection in `project_box_hyperplane`; holds the
    documented fista-r deviation.

    Only the n=80 instance of the desk grid runs.  With the n=160 one as
    well, a job ran only two or three times per window.  One round of
    set-up takes about 0.05 s, so it is repeated 41 times.
    """
    suite = desk_suite("qp_box", seed)
    return Workload("desk-boxqp", [_spec_instance(suite[0])],
                    _jobs(range(1), ["rpf-sfista", "fista-r"], 1e-8),
                    phi_rtol=1e-6, setup_repeats=41)


def desk_mixed(seed: int) -> Workload:
    """Many small solves: interpreter overhead, sort-based simplex and l1
    projections, and warm-started A-REG inner solves."""
    specs = desk_suite("logistic", seed) + desk_suite("lasso", seed) + desk_suite("qp_simplex", seed)
    instances = [_spec_instance(s) for s in specs]
    methods = ["rpf-sfista", "fista-bt", "fista-r", "rada", "greedy"]
    jobs = _jobs(range(len(specs)), methods, 1e-13)
    jobs += [Job(i, "a-reg", 1e-10) for i, s in enumerate(specs) if s.family != "qp_simplex"]
    return Workload("desk-mixed", instances, jobs, phi_rtol=1e-12, setup_repeats=11)


def scale_smooth(seed: int) -> Workload:
    """Matvec-bound f and grad at n in the thousands, with a heavy set-up
    (a 500-step power method for the Lipschitz constant).

    The 2000x1000 logistic instance first planned here was left out: fista-r
    needs 1,178 iterations on it at instance seed 42, but more than 3,000 at
    five of the seeds 1-6 and 12,194 (74 s, past the job time limit) at
    seed 1, so no claim could be checked on a held-back seed.  The 1500x3000
    lasso needs 82-100 iterations at every seed in 1-8.
    """
    instances = [Instance(f"lasso-m1500-n3000-s{seed}",
                          lambda: gen_lasso_random(1500, 3000, 5.0, seed))]
    return Workload("scale-smooth", instances,
                    _jobs(range(1), ["rpf-sfista", "fista-r"], 1e-10),
                    phi_rtol=1e-12, setup_repeats=3)


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "desk-boxqp": desk_boxqp,
    "desk-mixed": desk_mixed,
    "scale-smooth": scale_smooth,
}


def make_workload(name: str, seed: int, instance_seed: int = 42) -> Workload:
    """The named workload on instances from `instance_seed`, with its jobs in
    an order shuffled by `seed`."""
    workload = WORKLOADS[name](instance_seed)
    jobs = list(workload.jobs)
    random.Random(seed).shuffle(jobs)
    return replace(workload, jobs=jobs)
