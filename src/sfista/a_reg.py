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
    check_start,
    smooth_of,
)
from .rpf_sfista import SfistaConfig, SfistaOutput, _clamp_m_lower, solve_sfista

# first L of the first subproblem, and its floor in every later one
_N0 = 10.0
_MAX_OUTER_ITERS = 100

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

    B scales the inner solver's initial strong-convexity estimate above the
    certified modulus delta of the regularized subproblem (B >= 1).  The
    inner solves otherwise use SfistaConfig's defaults.
    """

    B: float = 10.0
    delta0: float = 1.0
    eps: float = 1e-8
    time_limit: float = 7200.0

    def __post_init__(self):
        if self.B < 1:
            raise ValueError("B must be at least 1")
        if self.delta0 <= 0:
            raise ValueError("delta0 must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


@dataclass
class ARegTraceRow:
    k: int
    delta: float
    u_norm: float
    r_norm: float
    inner_cycles: int
    inner_iters: int


@dataclass
class ARegOutput:
    w: np.ndarray
    r: np.ndarray
    outer_iters: int
    counters: OracleCounters
    status: str  # 'converged' | 'iter_cap' | 'time_cap'
    inner_outputs: List[SfistaOutput]
    trace: List[ARegTraceRow]
    runtime_s: float = 0.0


def build_subproblem(
    problem: CompositeProblem, delta: float, theta: np.ndarray
) -> CompositeProblem:
    """Strongly convex subproblem: smooth part plus (delta/2)||z - theta||^2.

    Its image pairs z - theta with the base problem's image (`smooth_of`),
    so f and grad f share one image whenever the base problem's do.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    theta = np.asarray(theta, dtype=float)
    base = smooth_of(problem)

    def image(z):
        return z - theta, base.image(z)

    def value(k):
        d, base_image = k
        return base.value(base_image) + 0.5 * delta * float(d @ d)

    def grad(k):
        d, base_image = k
        return np.asarray(base.grad(base_image), dtype=float) + delta * d

    smooth = SmoothFunction(image, value, grad)
    return CompositeProblem(
        dim=problem.dim,
        f_eval=smooth.f_eval,
        f_grad=smooth.f_grad,
        h_prox=problem.h_prox,
        h_eval=problem.h_eval,
        known_L=None if problem.known_L is None else problem.known_L + delta,
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
    inner_outputs: List[SfistaOutput] = []
    trace: List[ARegTraceRow] = []

    delta = config.delta0
    theta = theta0
    N_bar_prev = _N0
    status = "iter_cap"
    w = theta0
    r = np.full(problem.dim, math.inf)

    for k in range(1, _MAX_OUTER_ITERS + 1):
        elapsed = time.monotonic() - start
        if elapsed > config.time_limit:
            status = "time_cap"
            break

        # N_bar_prev = N0 at k = 1, where the clamp returns exactly N0
        N_lower = _clamp_m_lower(N_bar_prev, _N0)
        sub = build_subproblem(problem, delta, theta)
        inner_cfg = SfistaConfig(
            mu0=config.B * delta,
            M_lower_init=N_lower,
            eps_hat=config.eps / 6.0,
            residual_mode="absolute",
            time_limit=max(config.time_limit - elapsed, 0.0),
        )
        out = solve_sfista(sub, inner_cfg, theta)
        inner_outputs.append(out)
        counters.merge(out.counters)

        w, u = out.y, out.v
        r = outer_residual(u, delta, theta, w)
        theta = out.xi
        trace.append(ARegTraceRow(
            k=k, delta=delta, u_norm=float(np.linalg.norm(u)),
            r_norm=float(np.linalg.norm(r)),
            inner_cycles=out.cycles, inner_iters=out.total_iters,
        ))

        if out.status != "converged":
            status = out.status
            break
        if float(np.linalg.norm(r)) <= config.eps:
            status = "converged"
            break

        N_bar_prev = out.L_final
        delta = delta / 2.0

    return ARegOutput(
        w=w, r=r, outer_iters=len(trace), counters=counters, status=status,
        inner_outputs=inner_outputs, trace=trace,
        runtime_s=time.monotonic() - start,
    )
