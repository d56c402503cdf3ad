"""Baseline accelerated proximal gradient methods for comparison runs.

The four methods are one FISTA loop with three rules (`_RULES`): the step,
the restart and the momentum.  The backtracking variants run the restarted
solver's own line search (`core.line_search`, doubling L in place of
`rpf_sfista._BETA` = 1.25), and all four share its oracle-counting and
termination rules, so iteration and runtime comparisons against it are
apples-to-apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _L_FIRST,
    CompositeProblem,
    Run,
    SolveOutput,
    StopConfig,
    line_search,
)

__all__ = [
    "BaselineConfig",
    "solve_fista_bt",
    "solve_fista_restart",
    "solve_rada_fista",
    "solve_greedy_fista",
    "gradient_restart_fires",
]


@dataclass
class BaselineConfig(StopConfig):
    """Settings of the four comparison methods: `core.StopConfig`'s stop settings alone.

    The backtracking variants start their doubling line search at
    `core._L_FIRST`.  The fixed-step variants need the global Lipschitz
    constant: gamma is 1/L for the adaptive-momentum method and 1.3/L for
    the greedy one (`_RULES`).
    All four stop on the relative residual ||v|| / (1 + ||grad f(z0)||) <= eps_hat.
    """


def gradient_restart_fires(y_prev: np.ndarray, y: np.ndarray, x_tilde: np.ndarray) -> bool:
    """Heuristic gradient restart predicate: <y_prev - y, y - x_tilde> > 0."""
    return float((y_prev - y) @ (y - x_tilde)) > 0.0


# fista-r restarts when phi rises by more than this many ulps of phi: a rise
# of 1-3 ulps is roundoff near the optimum, not a lost descent
_PHI_RISE_ULPS = 4

# (step, restart, momentum) of each method.  step: None for the doubling
# line search from _L_FIRST, else the fixed step gamma times known_L.  restart:
# None, "value" (phi(y) rose past _PHI_RISE_ULPS) or "gradient" (O'Donoghue
# and Candes, 2015).  momentum: the (p, q, r) of t_next = (p + sqrt(q + r t^2)) / 2, or
# None for theta = 1 (Greedy FISTA, Liang, Luo and Schoenlieb, 2022).
_RULES = {
    "fista-bt": (None, None, (1.0, 1.0, 4.0)),
    "fista-r": (None, "value", (1.0, 1.0, 4.0)),
    "rada": (1.0, "gradient", (0.5, 0.5, 4.0)),
    "greedy": (1.3, "gradient", None),
}


def _run(method: str, problem: CompositeProblem, config: BaselineConfig, z0: np.ndarray) -> SolveOutput:
    step, restart, momentum = _RULES[method]
    run = Run(method, problem, z0, config, "relative")
    L, gamma = _L_FIRST, None
    if step is not None:
        if problem.known_L is None or problem.known_L <= 0:
            raise ValueError("fixed-step baselines need problem.known_L")
        gamma = step / problem.known_L
        L = 1.0 / gamma  # reported as L_final
    pt = run.pt

    t = 1.0
    # lifted points (`Run.lift`); a carried x_tilde image combines the fresh
    # ones of y and y_prev, so it cannot drift
    Y_prev = X_tilde = Y = run.lift(run.z0)
    phi_prev = math.inf
    restarts = 0
    v = np.zeros(problem.dim)
    j = 0
    running, certify = run.running, run.certify
    while running(j):
        j += 1
        x_tilde = X_tilde[pt]
        if gamma is None:  # doubling line search from a fixed x_tilde
            point = (X_tilde, run.grad(X_tilde), run.f(X_tilde))
            L, _, g_xt, Y, f_y, _, _ = line_search(run, lambda L: point, L, 2.0)
            y = Y[pt]
            s = L * (x_tilde - y)
        else:
            g_xt = run.grad(X_tilde)
            y = run.prox(x_tilde - gamma * g_xt, gamma)
            Y = run.lift(y)
            s = (x_tilde - y) / gamma
        v, converged = certify(Y, g_xt, s)
        if converged:
            break

        if restart == "value":
            phi_y = f_y + run.h_at_prox(y)
            restarted = phi_y > phi_prev + _PHI_RISE_ULPS * math.ulp(phi_prev)
            phi_prev = phi_y
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

    return run.output(Y, v, L_final=L, cycles=restarts + 1, total_iters=j)


def solve_fista_bt(problem: CompositeProblem, config: BaselineConfig, z0: np.ndarray) -> SolveOutput:
    """FISTA with a doubling backtracking line search for L."""
    return _run("fista-bt", problem, config, z0)


def solve_fista_restart(problem: CompositeProblem, config: BaselineConfig, z0: np.ndarray) -> SolveOutput:
    """FISTA-BT plus a function-value restart: reset momentum when the
    objective at the new iterate worsens."""
    return _run("fista-r", problem, config, z0)


def solve_rada_fista(problem: CompositeProblem, config: BaselineConfig, z0: np.ndarray) -> SolveOutput:
    """Fixed-step FISTA with the (p, q, r) momentum sequence and gradient
    restarts; stepsize 1/L."""
    return _run("rada", problem, config, z0)


def solve_greedy_fista(problem: CompositeProblem, config: BaselineConfig, z0: np.ndarray) -> SolveOutput:
    """Fixed-step FISTA with unit momentum, stepsize 1.3/L and gradient
    restarts."""
    return _run("greedy", problem, config, z0)
