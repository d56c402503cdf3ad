"""Baseline accelerated proximal gradient methods for comparison runs.

All four methods share the problem abstraction, the oracle-counting rules
(one prox per line-search attempt), and the termination rule of the
benchmark, and the two backtracking variants run the restarted solver's own
line search (`core.line_search`, with doubling in place of beta), so
iteration and runtime comparisons against the restarted solver are
apples-to-apples.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    CompositeProblem,
    CountingOracle,
    check_start,
    line_search,
    nan_message,
    residual_denominator,
)
from .rpf_sfista import SfistaOutput

__all__ = [
    "BaselineConfig",
    "solve_fista_bt",
    "solve_fista_restart",
    "solve_rada_fista",
    "solve_greedy_fista",
    "gradient_restart_fires",
]


@dataclass
class BaselineConfig:
    """Knobs for the four comparison methods.

    L0 seeds the doubling line search of the backtracking variants.  The
    fixed-step variants need the global Lipschitz constant: gamma defaults to
    1/L for the adaptive-momentum method and 1.3/L for the greedy one.
    rada_p, rada_q, rada_r parameterize the adaptive momentum sequence.
    """

    L0: float = 10.0
    chi: float = 0.001
    rada_p: float = 0.5
    rada_q: float = 0.5
    rada_r: float = 4.0
    greedy_gamma_scale: float = 1.3
    greedy_safeguard: bool = False
    eps_hat: float = 1e-8
    residual_mode: str = "relative"
    max_total_iters: int = 10**6
    time_limit: float = 7200.0


def gradient_restart_fires(y_prev: np.ndarray, y: np.ndarray, x_tilde: np.ndarray) -> bool:
    """Heuristic gradient restart predicate: <y_prev - y, y - x_tilde> > 0."""
    return float((y_prev - y) @ (y - x_tilde)) > 0.0


def _run_fista_bt(problem, config, z0, restart_on_value):
    z0 = check_start(problem, z0)
    start = time.monotonic()
    oracle = CountingOracle(problem)
    pt = oracle.pt

    L = config.L0
    t = 1.0
    # lifted points (CountingOracle.lift); a carried x_tilde image combines
    # the fresh ones of y and y_prev, so it cannot drift
    Y_prev = X_tilde = Y = oracle.lift(z0)
    denom = None
    phi_prev = math.inf
    restarts = 0
    v = np.zeros(problem.dim)
    residual = math.inf
    status = "iter_cap"
    j = 0
    while j < config.max_total_iters:
        if time.monotonic() - start > config.time_limit:
            status = "time_cap"
            break
        j += 1
        # doubling line search from a fixed x_tilde
        f_xt = oracle.f(X_tilde)
        point = (X_tilde, oracle.grad(X_tilde), f_xt)
        L, _, g_xt, Y, f_y, _ = line_search(oracle, lambda L: point, L, 2.0, config.chi)
        if denom is None:  # the first x_tilde is z0
            denom = residual_denominator(config.residual_mode, g_xt)
        g_y = oracle.grad(Y)
        y = Y[pt]
        v = g_y - g_xt + L * (X_tilde[pt] - y)
        residual = float(np.linalg.norm(v)) / denom
        if math.isnan(residual):  # grad f(y) is not part of the line-search test
            raise RuntimeError(nan_message(
                "backtracking FISTA", "the residual", (("grad", g_xt), ("prox", y), ("grad", g_y)),
            ))
        if residual <= config.eps_hat:
            status = "converged"
            break

        restarted = False
        if restart_on_value:
            phi_y = f_y + oracle.h(y)
            if phi_y > phi_prev:
                t = 1.0
                X_tilde = Y
                restarts += 1
                restarted = True
            phi_prev = phi_y
        if not restarted:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            X_tilde = Y + ((t - 1.0) / t_next) * (Y - Y_prev)
            t = t_next
        Y_prev = Y

    y = Y[pt].copy()  # holds no lifted point's image alive
    return SfistaOutput(
        y=y, v=v, xi=y, L_final=L, cycles=restarts + 1, total_iters=j,
        counters=oracle.counters, status=status, residual=residual,
        runtime_s=time.monotonic() - start,
    )


def solve_fista_bt(problem: CompositeProblem, config: BaselineConfig, z0: np.ndarray) -> SfistaOutput:
    """FISTA with a doubling backtracking line search for L."""
    return _run_fista_bt(problem, config, z0, restart_on_value=False)


def solve_fista_restart(problem: CompositeProblem, config: BaselineConfig, z0: np.ndarray) -> SfistaOutput:
    """FISTA-BT plus a function-value restart: reset momentum when the
    objective at the new iterate worsens."""
    return _run_fista_bt(problem, config, z0, restart_on_value=True)


def _require_L(problem: CompositeProblem) -> float:
    if problem.known_L is None or problem.known_L <= 0:
        raise ValueError("fixed-step baselines need problem.known_L")
    return problem.known_L


def _run_fixed_step(problem, config, z0, greedy):
    z0 = check_start(problem, z0)
    start = time.monotonic()
    L_bar = _require_L(problem)
    gamma = (config.greedy_gamma_scale if greedy else 1.0) / L_bar
    oracle = CountingOracle(problem)
    pt = oracle.pt

    t = 1.0
    # lifted points, as in _run_fista_bt
    Y_prev = X_tilde = Y = oracle.lift(z0)
    denom = None
    restarts = 0
    grow_streak = 0
    step_prev = math.inf
    v = np.zeros(problem.dim)
    residual = math.inf
    status = "iter_cap"
    j = 0
    while j < config.max_total_iters:
        if time.monotonic() - start > config.time_limit:
            status = "time_cap"
            break
        j += 1
        g_xt = oracle.grad(X_tilde)
        if denom is None:  # the first x_tilde is z0
            denom = residual_denominator(config.residual_mode, g_xt)
        x_tilde = X_tilde[pt]
        y = oracle.prox(x_tilde - gamma * g_xt, gamma)
        Y = oracle.lift(y)
        g_y = oracle.grad(Y)
        v = g_y - g_xt + (x_tilde - y) / gamma
        residual = float(np.linalg.norm(v)) / denom
        if math.isnan(residual):  # no line search here to catch it
            raise RuntimeError(nan_message(
                "fixed-step FISTA", "the residual", (("grad", g_xt), ("prox", y), ("grad", g_y)),
            ))
        if residual <= config.eps_hat:
            status = "converged"
            break

        y_prev = Y_prev[pt]
        if config.greedy_safeguard:
            step = float(np.linalg.norm(y - y_prev))
            grow_streak = grow_streak + 1 if step > step_prev else 0
            step_prev = step
            if grow_streak >= 10:
                gamma *= 0.5
                grow_streak = 0

        if gradient_restart_fires(y_prev, y, x_tilde):
            t = 1.0
            X_tilde = Y
            restarts += 1
        elif greedy:
            X_tilde = Y + (Y - Y_prev)
        else:
            t_next = (config.rada_p + math.sqrt(config.rada_q + config.rada_r * t * t)) / 2.0
            X_tilde = Y + ((t - 1.0) / t_next) * (Y - Y_prev)
            t = t_next
        Y_prev = Y

    y = Y[pt].copy()  # holds no lifted point's image alive
    return SfistaOutput(
        y=y, v=v, xi=y, L_final=1.0 / gamma, cycles=restarts + 1, total_iters=j,
        counters=oracle.counters, status=status, residual=residual,
        runtime_s=time.monotonic() - start,
    )


def solve_rada_fista(problem: CompositeProblem, config: BaselineConfig, z0: np.ndarray) -> SfistaOutput:
    """Fixed-step FISTA with the (p, q, r) momentum sequence and gradient
    restarts; stepsize 1/L."""
    return _run_fixed_step(problem, config, z0, greedy=False)


def solve_greedy_fista(problem: CompositeProblem, config: BaselineConfig, z0: np.ndarray) -> SfistaOutput:
    """Fixed-step FISTA with unit momentum, stepsize 1.3/L, gradient restarts,
    and an optional stepsize-halving safeguard (off by default)."""
    return _run_fixed_step(problem, config, z0, greedy=True)
