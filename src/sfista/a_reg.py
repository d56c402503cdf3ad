"""Aggressive dynamic regularization (A-REG) for merely convex problems.

Each outer iteration adds a proximal term (delta/2)||. - theta||^2 to the
smooth part, making the subproblem delta-strongly convex, and solves it with
the restarted solver using the aggressive initial estimate mu0 = B * delta.
If the outer residual is still too large, delta is halved and the prox
center moves to the subproblem's best point.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from .core import (
    CompositeProblem,
    OracleCounters,
    SmoothFunction,
    SolveOutput,
    check_start,
    norm,
    smooth_of,
)
from .rpf_sfista import SfistaConfig, solve_sfista

_MAX_OUTER_ITERS = 100
# the inner solver's initial strong-convexity estimate is _B times the
# certified modulus delta of the regularized subproblem; delta starts at _DELTA0
_B = 10.0
_DELTA0 = 1.0

__all__ = [
    "ARegConfig",
    "ARegOutput",
    "ARegTraceRow",
    "build_subproblem",
    "outer_residual",
    "solve_areg",
]


@dataclass
class ARegConfig:
    """Outer-loop inputs.

    The inner solves start from mu0 = _B * delta and otherwise use
    SfistaConfig's defaults: each measures its own L and floor from its
    first step, and no L carries between them.
    """

    eps: float = 1e-8
    time_limit: float = 7200.0

    def __post_init__(self):
        # written as `not x > 0` so that NaN fails too
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.time_limit >= 0:
            raise ValueError("time_limit must be nonnegative")


@dataclass
class ARegTraceRow:
    """delta and ||r|| of outer iteration k, whose inner solve is inner_outputs[k - 1]."""

    delta: float
    r_norm: float


@dataclass
class ARegOutput:
    w: np.ndarray
    r: np.ndarray
    outer_iters: int
    counters: OracleCounters
    status: str  # 'converged' | 'iter_cap' | 'time_cap'
    inner_outputs: List[SolveOutput]
    trace: List[ARegTraceRow]
    runtime_s: float = 0.0


def build_subproblem(
    problem: CompositeProblem, delta: float, theta: np.ndarray
) -> CompositeProblem:
    """Strongly convex subproblem: smooth part plus (delta/2)||z - theta||^2.

    Its image is the base problem's (`smooth_of`); value and grad add the
    proximal term at the point itself.  Its known_L, the base's plus delta,
    is computed on first read, so building it never reads the base's.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    theta = problem.check_dim(theta)
    base = smooth_of(problem)

    def value(z, k):
        d = z - theta
        return base.value(z, k) + 0.5 * delta * float(d @ d)

    def grad(z, k):
        # the sum would broadcast a gradient of the wrong shape past
        # CountingOracle's check, so it is checked here
        g = np.asarray(base.grad(z, k), dtype=float)
        if g.shape != z.shape:
            raise ValueError(f"the grad oracle returned shape {g.shape}, expected {z.shape}")
        return g + delta * (z - theta)

    smooth = SmoothFunction(base.image, value, grad)
    return CompositeProblem(
        dim=problem.dim,
        f_eval=smooth.f_eval,
        f_grad=smooth.f_grad,
        h_prox=problem.h_prox,
        h_eval=problem.h_eval,
        known_L=lambda: None if problem.known_L is None else problem.known_L + delta,
        known_mu_f=delta + (problem.known_mu_f or 0.0),
    )


def outer_residual(
    u_k: np.ndarray, delta: float, theta_prev: np.ndarray, w_k: np.ndarray
) -> np.ndarray:
    """Stationarity residual of the original problem: u + delta (theta - w)."""
    return np.asarray(u_k, dtype=float) + delta * (
        np.asarray(theta_prev, dtype=float) - np.asarray(w_k, dtype=float)
    )


def solve_areg(
    problem: CompositeProblem, config: ARegConfig, theta0: np.ndarray
) -> ARegOutput:
    """Run the regularization outer loop from theta0 in dom h."""
    theta0 = check_start(problem, theta0, "theta0")

    start = time.monotonic()
    counters = OracleCounters()
    inner_outputs: List[SolveOutput] = []
    trace: List[ARegTraceRow] = []

    delta = _DELTA0
    theta = theta0
    status = "iter_cap"
    w = theta0
    r = np.full(problem.dim, math.inf)

    for _ in range(_MAX_OUTER_ITERS):
        elapsed = time.monotonic() - start
        if elapsed > config.time_limit:
            status = "time_cap"
            break

        sub = build_subproblem(problem, delta, theta)
        inner_cfg = SfistaConfig(
            mu0=_B * delta,
            eps_hat=config.eps / 6.0,
            residual_mode="absolute",
            time_limit=max(config.time_limit - elapsed, 0.0),
        )
        out = solve_sfista(sub, inner_cfg, theta)
        inner_outputs.append(out)
        counters.merge(out.counters)

        w = out.y
        r = outer_residual(out.v, delta, theta, w)
        theta = out.xi
        trace.append(ARegTraceRow(delta=delta, r_norm=norm(r)))

        if out.status != "converged":
            status = out.status
            break
        if trace[-1].r_norm <= config.eps:
            status = "converged"
            break
        delta = delta / 2.0

    return ARegOutput(
        w=w, r=r, outer_iters=len(trace), counters=counters, status=status,
        inner_outputs=inner_outputs, trace=trace,
        runtime_s=time.monotonic() - start,
    )
