"""Restarted parameter-free strongly-convex FISTA (RPF-SFISTA).

The solver runs cycles of an accelerated composite gradient iteration with a
backtracking line search for the local smoothness constant L and an aggressive
estimate mu of the strong convexity modulus of the full composite objective.
A checkable inequality is tested every iteration; when it fails the cycle
restarts from the best point found so far with a smaller mu (warm restart).
No knowledge of the true Lipschitz or strong convexity constants is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import (
    _CHI,
    _L_FIRST,
    _LS_SLACK,
    CompositeProblem,
    Run,
    SolveOutput,
    StopConfig,
    line_search,
    norm,
)

__all__ = [
    "SfistaConfig",
    "SfistaTraceRow",
    "solve_sfista",
    "restart_fires",
]

# Guard below which ||y - x_tilde|| is treated as zero (relative to iterate
# scale): the restart test's right-hand side vanishes and v is near-exact.
_STATIONARY_RTOL = 1e-14
# growth factor of L in the line search
_BETA = 1.25


@dataclass
class SfistaConfig(StopConfig):
    """Tuning knobs of the restarted solver, after `core.StopConfig`'s stop settings.

    No L is supplied: the first step starts at `core._L_FIRST`, and from
    j = 2 on L and every cycle's floor are the curvature along the first
    accepted step (`_step_curvature`; `_L_FIRST` where it has none).
    mu0=None selects the bootstrap estimate computed from the first prox step
    of the first cycle; a positive float fixes the initial estimate.
    mu_shrink=0.5 matches the theory and stays the library default; 0.1 is
    the aggressive practical schedule that the `bench run` and `solve`
    commands use (`bench.METHODS`).  residual_mode 'absolute' tests
    ||v|| <= eps_hat, 'relative' tests ||v|| / (1 + ||grad f(z0)||) <= eps_hat.
    """

    mu0: Optional[float] = None
    mu_shrink: float = 0.5
    residual_mode: str = "absolute"
    trace: bool = False

    def __post_init__(self):
        super().__post_init__()
        # written as `not 0 < x < inf` so that NaN fails too
        if self.mu0 is not None and not 0 < self.mu0 < math.inf:
            raise ValueError("fixed mu0 must be positive and finite")
        if not 0 < self.mu_shrink < 1:
            raise ValueError("mu_shrink must lie in (0, 1)")
        if self.residual_mode not in ("absolute", "relative"):
            raise ValueError(f"unknown residual_mode {self.residual_mode!r}")


@dataclass
class SfistaTraceRow:
    cycle: int
    j: int
    L: float
    A: float
    tau: float
    a: float
    tau_prev: float
    v_norm: float
    phi_xi: float
    restarted: bool
    # the estimate-sequence minorant gamma, from the solver's own f(y),
    # ell_f(y; x_tilde) and h(y): gamma_y = phi(y) + 2 [ell_f(y; x_tilde) - f(y)]
    y: np.ndarray
    s: np.ndarray
    mu: float
    gamma_y: float

    def gamma(self, x: np.ndarray) -> float:
        """gamma(x) = gamma_y + <s, x - y> + (mu / 4) ||x - y||^2.

        Lower-bounds phi everywhere whenever mu does not exceed the true
        strong convexity modulus of phi.  Diagnostic only.
        """
        d = np.asarray(x, dtype=float) - self.y
        return self.gamma_y + float(self.s @ d) + self.mu / 4.0 * float(d @ d)


def _step_curvature(
    f_y: float, ell_y: float, d: np.ndarray, x_tilde: np.ndarray, fallback: float
) -> float:
    """4 [f(y) - ell_f(y; x_tilde)] / ((1-chi) ||d||^2), the curvature of f
    along d = y - x_tilde and the least L the line-search test accepts for
    it: the bootstrap mu and the floor.  The fallback where y is
    numerically x_tilde or the gap is within the line-search slack (a
    stationary start, a linear f, roundoff)."""
    nd2 = float(d @ d)
    gap = f_y - ell_y
    if (math.sqrt(nd2) <= _STATIONARY_RTOL * (1.0 + norm(x_tilde))
            or gap <= _LS_SLACK * (1.0 + abs(f_y))):
        return fallback
    return 4.0 * gap / ((1.0 - _CHI) * nd2)


def restart_fires(
    xi: np.ndarray, x0: np.ndarray, d: np.ndarray, x_tilde: np.ndarray, A: float, L: float
) -> bool:
    """Restart predicate: ||xi - x0||^2 < chi A L ||d||^2 for d = y - x_tilde.

    A near-stationary y (||d|| at roundoff scale) makes the right-hand side
    vanish, so a restart would be spurious: it never fires.
    """
    nd = norm(d)
    if nd <= _STATIONARY_RTOL * (1.0 + norm(x_tilde)):
        return False
    return norm(xi - x0) ** 2 < _CHI * A * L * nd * nd


def solve_sfista(
    problem: CompositeProblem, config: SfistaConfig, z0: np.ndarray
) -> SolveOutput:
    """Run RPF-SFISTA from z0 until the residual test, or a cap, is met.

    Each iteration takes an accelerated prox step with a line search that
    multiplies L by beta until ell_f(y; x_tilde) + (1-chi) L ||y - x_tilde||^2 / 4
    >= f(y) holds, updates the momentum point x, A and tau, and tests the
    restart inequality.  A restart starts a new cycle from the best point xi
    with a smaller mu.  At a cap the output holds the last prox output y and
    its certificate v; xi stays the best point.  Raises RuntimeError when the
    step weight overflows, which a long enough cycle reaches through the
    growth of A and tau, and when h is inf or NaN at the returned y.
    """
    run = Run("RPF-SFISTA", problem, z0, config, config.residual_mode)
    oracle = run.oracle
    pt = oracle.pt

    trace: Optional[List[SfistaTraceRow]] = [] if config.trace else None
    mu = config.mu0  # None until bootstrapped
    cycle, j, total_iters = 1, 1, 0
    A, tau, L, a = 0.0, 1.0, _L_FIRST, 0.0
    # lifted points (CountingOracle.lift): the momentum point x, the previous
    # y, the best point xi and the cycle's start x0; Y is the last prox output
    X = Y_prev = XI = X0 = Y = oracle.lift(run.z0)
    phi_xi = oracle.f(X) + oracle.h(run.z0)
    # whether xi has left the cycle's start point (always true in exact
    # arithmetic after j = 1, by strict descent of the first prox step)
    xi_moved = False
    v = np.zeros(problem.dim)

    def trial_point(L):
        # x_tilde moves with L through the step weight a; the last trial's a
        # is the accepted one
        nonlocal a
        a = (tau + math.sqrt(tau * tau + 4.0 * tau * A * L)) / (2.0 * L)
        if math.isinf(A + a):
            raise RuntimeError(
                f"RPF-SFISTA: the step weight overflowed in cycle {cycle} at "
                f"j = {j} (A = {A:.3g}, tau = {tau:.3g}, L = {L:.3g})"
            )
        X_tilde = (A * Y_prev + a * X) / (A + a)
        f_xt = oracle.f(X_tilde)
        return X_tilde, oracle.grad(X_tilde), f_xt

    running, certify = run.running, run.certify
    while running(total_iters):
        total_iters += 1

        L, X_tilde, g_xt, Y, f_y, ell_y, d = line_search(oracle, trial_point, L, _BETA)
        x_tilde, y = X_tilde[pt], Y[pt]
        if total_iters == 1:
            # the curvature along the first step: mu's bootstrap (a0 and y1
            # never depend on mu, as A0 = 0) and every cycle's floor
            floor = _step_curvature(f_y, ell_y, d, x_tilde, _L_FIRST)
            mu = floor if mu is None else mu

        # the best-point tie (phi(y) equal to the incumbent) keeps y
        phi_y = f_y + oracle.h_at_prox(y)
        if phi_y <= phi_xi:
            XI, phi_xi, xi_moved = Y, phi_y, True
        # An image carried in x does not drift, so it needs no refresh.
        # x = ((mu a / 2 + a L) y + tau_prev x - a L x_tilde) / tau and
        # x_tilde = (A y + a x) / (A + a), so an error e in the image of the
        # old x enters the new one with weight
        # tau_prev / tau - (a L / tau) a / (A + a), which is exactly 0 because
        # a solves L a^2 = tau_prev (A + a).  y's image is fresh, so each x
        # image holds one step's rounding error.  The certificate v stays
        # exact whatever x_tilde's image is: grad f(y) is fresh, and v lies in
        # grad f(y) + dh(y) for the gradient the prox step used.
        tau_prev = tau
        A = A + a
        tau = tau_prev + a * mu / 2.0
        S = L * (X_tilde - Y)
        X = ((mu * a / 2.0) * Y + tau_prev * X - a * S) / tau
        s = S[pt]
        v, converged = certify(Y, g_xt, s)
        Y_prev = Y

        # If xi never left the cycle's start point, the first prox step failed
        # to decrease phi -- impossible in exact arithmetic -- so the iterates
        # are at the numerical optimum and a restart would re-enter the same
        # cycle forever.
        restart = xi_moved and restart_fires(XI[pt], X0[pt], d, x_tilde, A, L)
        if trace is not None:
            trace.append(SfistaTraceRow(
                cycle=cycle, j=j, L=L, A=A, tau=tau, a=a, tau_prev=tau_prev,
                v_norm=norm(v), phi_xi=phi_xi, restarted=restart,
                y=y.copy(), s=s.copy(), mu=mu, gamma_y=phi_y + 2.0 * (ell_y - f_y),
            ))
        if total_iters == 1:  # from j = 2 on; this step kept the L it was taken with
            L = floor
        if restart:
            cycle += 1
            j, A, tau, xi_moved = 1, 0.0, 1.0, False
            # L >= floor: from j = 2 on, L starts at the floor and the line
            # search only raises it, so the new L lies in [max(L / 4, floor), L]
            L = max(0.4 * L, floor)
            mu = config.mu_shrink * mu
            X = Y_prev = X0 = XI
            continue

        if converged:
            break

        j += 1

    return run.output(Y, v, xi=XI[pt].copy(), L_final=L, cycles=cycle,
                      total_iters=total_iters, trace=trace)
