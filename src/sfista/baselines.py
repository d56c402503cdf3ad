"""Baseline accelerated proximal gradient methods for comparison runs.

The four methods are one FISTA loop with three rules (`_RULES`): the step,
the restart and the momentum.  The backtracking variants run the restarted
solver's own line search (`core.line_search`, doubling in place of beta),
and all four share its oracle-counting and termination rules, so iteration
and runtime comparisons against it are apples-to-apples.
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
    fixed-step variants need the global Lipschitz constant: gamma is 1/L for
    the adaptive-momentum method and 1.3/L for the greedy one (`_RULES`).
    """

    L0: float = 10.0
    chi: float = 0.001
    eps_hat: float = 1e-8
    residual_mode: str = "relative"
    max_total_iters: int = 10**6
    time_limit: float = 7200.0

    def __post_init__(self):
        for name in ("L0", "eps_hat"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.chi < 1:
            raise ValueError("chi must lie in (0, 1)")
        if self.residual_mode not in ("absolute", "relative"):
            raise ValueError(f"unknown residual_mode {self.residual_mode!r}")


def gradient_restart_fires(y_prev: np.ndarray, y: np.ndarray, x_tilde: np.ndarray) -> bool:
    """Heuristic gradient restart predicate: <y_prev - y, y - x_tilde> > 0."""
    return float((y_prev - y) @ (y - x_tilde)) > 0.0


# (step, restart, momentum) of each method.  step: None for the doubling
# line search from L0, else the fixed step gamma times known_L.  restart:
# None, "value" (phi(y) increased) or "gradient" (O'Donoghue and Candes,
# 2015).  momentum: the (p, q, r) of t_next = (p + sqrt(q + r t^2)) / 2, or
# None for theta = 1 (Greedy FISTA, Liang, Luo and Schoenlieb, 2022).
_RULES = {
    "fista-bt": (None, None, (1.0, 1.0, 4.0)),
    "fista-r": (None, "value", (1.0, 1.0, 4.0)),
    "rada": (1.0, "gradient", (0.5, 0.5, 4.0)),
    "greedy": (1.3, "gradient", None),
}


def _run(method: str, problem: CompositeProblem, config: BaselineConfig, z0: np.ndarray) -> SfistaOutput:
    step, restart, momentum = _RULES[method]
    z0 = check_start(problem, z0)
    start = time.monotonic()
    L, gamma = config.L0, None
    if step is not None:
        if problem.known_L is None or problem.known_L <= 0:
            raise ValueError("fixed-step baselines need problem.known_L")
        gamma = step / problem.known_L
        L = 1.0 / gamma  # reported as L_final
    oracle = CountingOracle(problem)
    pt = oracle.pt

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
        x_tilde = X_tilde[pt]
        if gamma is None:  # doubling line search from a fixed x_tilde
            point = (X_tilde, oracle.grad(X_tilde), oracle.f(X_tilde))
            L, _, g_xt, Y, f_y, _ = line_search(oracle, lambda L: point, L, 2.0, config.chi)
            y = Y[pt]
            s = L * (x_tilde - y)
        else:
            g_xt = oracle.grad(X_tilde)
            y = oracle.prox(x_tilde - gamma * g_xt, gamma)
            Y = oracle.lift(y)
            s = (x_tilde - y) / gamma
        if denom is None:  # the first x_tilde is z0
            denom = residual_denominator(config.residual_mode, g_xt)
        g_y = oracle.grad(Y)
        v = g_y - g_xt + s
        residual = float(np.linalg.norm(v)) / denom
        if math.isnan(residual):  # grad f(y) is not part of a line-search test
            raise RuntimeError(nan_message(
                method, "the residual", (("grad", g_xt), ("prox", y), ("grad", g_y)),
            ))
        if residual <= config.eps_hat:
            status = "converged"
            break

        if restart == "value":
            phi_y = f_y + oracle.h(y)
            restarted, phi_prev = phi_y > phi_prev, phi_y
        else:
            restarted = restart == "gradient" and gradient_restart_fires(Y_prev[pt], y, x_tilde)
        if restarted:
            t = 1.0
            X_tilde = Y
            restarts += 1
        elif momentum is None:
            X_tilde = Y + (Y - Y_prev)
        else:
            p, q, r = momentum
            t_next = (p + math.sqrt(q + r * t * t)) / 2.0
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
    return _run("fista-bt", problem, config, z0)


def solve_fista_restart(problem: CompositeProblem, config: BaselineConfig, z0: np.ndarray) -> SfistaOutput:
    """FISTA-BT plus a function-value restart: reset momentum when the
    objective at the new iterate worsens."""
    return _run("fista-r", problem, config, z0)


def solve_rada_fista(problem: CompositeProblem, config: BaselineConfig, z0: np.ndarray) -> SfistaOutput:
    """Fixed-step FISTA with the (p, q, r) momentum sequence and gradient
    restarts; stepsize 1/L."""
    return _run("rada", problem, config, z0)


def solve_greedy_fista(problem: CompositeProblem, config: BaselineConfig, z0: np.ndarray) -> SfistaOutput:
    """Fixed-step FISTA with unit momentum, stepsize 1.3/L and gradient
    restarts."""
    return _run("greedy", problem, config, z0)
