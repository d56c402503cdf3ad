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
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import (
    CompositeProblem,
    CountingOracle,
    OracleCounters,
    check_start,
    line_search,
    nan_message,
    residual_denominator,
)

__all__ = [
    "SfistaConfig",
    "SfistaState",
    "SfistaOutput",
    "SfistaTraceRow",
    "solve_sfista",
    "backtracking_step",
    "momentum_update",
    "restart_check",
    "bootstrap_mu0",
    "eval_gamma",
    "GammaSnapshot",
]

# Guard below which ||y - x_tilde|| is treated as zero (relative to iterate
# scale): the restart test's right-hand side vanishes and v is near-exact.
_STATIONARY_RTOL = 1e-14


@dataclass
class SfistaConfig:
    """Inputs and tuning knobs of the restarted solver.

    mu0=None selects the bootstrap estimate computed from the first prox step
    of the first cycle; a positive float fixes the initial estimate.
    mu_shrink=0.5 matches the theory and stays the library default; 0.1 is
    the aggressive practical schedule that the `bench run` and `solve`
    commands use (`bench.METHODS`).  residual_mode 'absolute' tests
    ||v|| <= eps_hat, 'relative' tests ||v|| / (1 + ||grad f(z0)||) <= eps_hat.
    """

    beta: float = 1.25
    chi: float = 0.001
    M_lower_init: float = 10.0
    mu0: Optional[float] = None
    mu_shrink: float = 0.5
    eps_hat: float = 1e-8
    residual_mode: str = "absolute"
    max_total_iters: int = 10**6
    time_limit: float = 7200.0
    trace: bool = False

    def __post_init__(self):
        if self.beta <= 1:
            raise ValueError("beta must exceed 1")
        if not 0 < self.chi < 1:
            raise ValueError("chi must lie in (0, 1)")
        if self.M_lower_init <= 0:
            raise ValueError("M_lower_init must be positive")
        if self.mu0 is not None and self.mu0 <= 0:
            raise ValueError("fixed mu0 must be positive")
        if not 0 < self.mu_shrink < 1:
            raise ValueError("mu_shrink must lie in (0, 1)")
        if self.eps_hat <= 0:
            raise ValueError("eps_hat must be positive")
        if self.residual_mode not in ("absolute", "relative"):
            raise ValueError(f"unknown residual_mode {self.residual_mode!r}")

    @property
    def kappa(self) -> float:
        """Worst-case line-search overshoot factor 2*beta/(1-chi)."""
        return 2.0 * self.beta / (1.0 - self.chi)


@dataclass
class SfistaState:
    """All per-iteration quantities of one cycle.

    x, y, xi, x0_cycle and x_tilde are lifted points (CountingOracle.lift):
    the point is their first `dim` entries, or all of them when dim is None.
    """

    cycle: int
    j: int
    A: float
    tau: float
    L: float
    mu: float
    x: np.ndarray
    y: np.ndarray
    xi: np.ndarray
    x0_cycle: np.ndarray
    phi_xi: float
    dim: Optional[int] = None
    # whether xi has left the cycle's start point (always true in exact
    # arithmetic after j = 1, by strict descent of the first prox step)
    xi_moved: bool = False
    # step-2/3 outputs of the current iteration
    a: float = 0.0
    x_tilde: Optional[np.ndarray] = None
    s: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    grad_x_tilde: Optional[np.ndarray] = None
    f_y: float = math.nan
    ell_y: float = math.nan


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
    # vector snapshot for estimate-sequence diagnostics
    y: np.ndarray
    x_tilde: np.ndarray
    s: np.ndarray
    mu: float


@dataclass
class SfistaOutput:
    y: np.ndarray
    v: np.ndarray
    xi: np.ndarray
    L_final: float
    cycles: int
    total_iters: int
    counters: OracleCounters
    status: str  # 'converged' | 'iter_cap' | 'time_cap'
    residual: float
    trace: Optional[List[SfistaTraceRow]] = None
    runtime_s: float = 0.0


def backtracking_step(state: SfistaState, oracle: CountingOracle, config: SfistaConfig):
    """One accelerated prox step with line search on L.

    Multiplies L by beta until the local descent inequality
    ell_f(y; x_tilde) + (1-chi) L ||y - x_tilde||^2 / 4 >= f(y) holds, then
    records (a, x_tilde, y, L) and the quantities needed downstream in the
    state.  Every rejected L consumed one prox evaluation.  x_tilde and y
    are returned lifted (CountingOracle.lift).  Raises RuntimeError when the
    step weight overflows, which a long enough cycle reaches through the
    growth of A and tau.
    """
    A, tau = state.A, state.tau
    x_prev, y_prev = state.x, state.y

    def trial_point(L):
        # x_tilde moves with L through the step weight a; the last trial's a
        # is the accepted one
        a = (tau + math.sqrt(tau * tau + 4.0 * tau * A * L)) / (2.0 * L)
        if math.isinf(A + a):
            raise RuntimeError(
                f"RPF-SFISTA: the step weight overflowed in cycle {state.cycle} at "
                f"j = {state.j} (A = {A:.3g}, tau = {tau:.3g}, L = {L:.3g})"
            )
        state.a = a
        x_tilde = (A * y_prev + a * x_prev) / (A + a)
        f_xt = oracle.f(x_tilde)
        return x_tilde, oracle.grad(x_tilde), f_xt

    (state.L, state.x_tilde, state.grad_x_tilde, y, state.f_y,
     state.ell_y) = line_search(oracle, trial_point, state.L, config.beta, config.chi)
    return state.a, state.x_tilde, y, state.L


def _bootstrap_mu(
    f_y: float, ell_y: float, d: np.ndarray, x_tilde: np.ndarray, chi: float, fallback: float
) -> float:
    """bootstrap_mu0 on values the caller holds, for d = y - x_tilde."""
    nd2 = float(d @ d)
    gap = f_y - ell_y
    if math.sqrt(nd2) <= _STATIONARY_RTOL * (1.0 + float(np.linalg.norm(x_tilde))) or gap <= 0.0:
        return fallback
    return 4.0 * gap / ((1.0 - chi) * nd2)


def bootstrap_mu0(
    y1: np.ndarray,
    x0: np.ndarray,
    problem: CompositeProblem,
    chi: float = 0.001,
    fallback: float = 10.0,
) -> float:
    """Data-driven initial strong-convexity estimate from the first prox step.

    Returns 4 [f(y1) - ell_f(y1; x0)] / ((1-chi) ||y1 - x0||^2).  When y1 is
    numerically indistinguishable from x0, or the curvature gap is zero
    (linear f), falls back to the given constant.
    """
    y1 = np.asarray(y1, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    d = y1 - x0
    ell = float(problem.f_eval(x0)) + float(np.asarray(problem.f_grad(x0)) @ d)
    return _bootstrap_mu(float(problem.f_eval(y1)), ell, d, x0, chi, fallback)


def momentum_update(
    state: SfistaState, y_j: np.ndarray, L_j: float, a_prev: float, oracle: CountingOracle
) -> SfistaState:
    """Step-3 updates: best-point, A, tau, s, x, and the residual vector v.

    The best-point tie (phi(y_j) equal to the incumbent) keeps y_j.  y_j is
    lifted, and x is updated as a lifted point.

    An image carried in x does not drift, so it needs no refresh.
    x = ((mu a / 2 + a L) y + tau_prev x - a L x_tilde) / tau and
    x_tilde = (A y + a x) / (A + a), so an error e in the image of the old x
    enters the new one with weight tau_prev / tau - (a L / tau) a / (A + a),
    which is exactly 0 because a solves L a^2 = tau_prev (A + a).  y's image
    is fresh, so each x image holds one step's rounding error.  The
    certificate v stays exact whatever x_tilde's image is: grad f(y) is
    fresh, and v lies in grad f(y) + dh(y) for the gradient the prox step
    used.
    """
    pt = slice(state.dim)
    phi_y = state.f_y + oracle.h(y_j[pt])
    if phi_y <= state.phi_xi:
        state.xi = y_j
        state.phi_xi = phi_y
        state.xi_moved = True
    tau_prev = state.tau
    state.A = state.A + a_prev
    state.tau = tau_prev + a_prev * state.mu / 2.0
    S = L_j * (state.x_tilde - y_j)
    state.x = (state.mu * a_prev * y_j / 2.0 + tau_prev * state.x - a_prev * S) / state.tau
    state.s = S[pt]
    state.v = oracle.grad(y_j) - state.grad_x_tilde + state.s
    state.y = y_j
    return state


def restart_check(state: SfistaState, config: SfistaConfig) -> str:
    """'continue' iff ||xi - x0||^2 >= chi A L ||y - x_tilde||^2, else 'restart'.

    Two roundoff guards skip the check.  A near-stationary y (||y - x_tilde||
    at roundoff scale) makes the right-hand side vanish, so a restart would be
    spurious.  And if xi never left the cycle's start point, the first prox
    step failed to decrease phi -- impossible in exact arithmetic -- so the
    iterates are at the numerical optimum and a restart would re-enter the
    same cycle forever.
    """
    if not state.xi_moved:
        return "continue"
    pt = slice(state.dim)
    x_tilde = state.x_tilde[pt]
    nd = float(np.linalg.norm(state.y[pt] - x_tilde))
    if nd <= _STATIONARY_RTOL * (1.0 + float(np.linalg.norm(x_tilde))):
        return "continue"
    lhs = float(np.linalg.norm(state.xi[pt] - state.x0_cycle[pt])) ** 2
    rhs = config.chi * state.A * state.L * nd * nd
    return "continue" if lhs >= rhs else "restart"


@dataclass
class GammaSnapshot:
    """Per-iteration quantities needed to evaluate the quadratic minorant."""

    y: np.ndarray
    x_tilde: np.ndarray
    s: np.ndarray
    mu: float


def eval_gamma(snapshot: GammaSnapshot, problem: CompositeProblem, x: np.ndarray) -> float:
    """Quadratic under-estimator of the composite objective at x.

    gamma(x) = phi(y) + 2 [ell_f(y; x_tilde) - f(y)] + <s, x - y>
               + (mu / 4) ||x - y||^2.
    Lower-bounds phi everywhere whenever mu does not exceed the true strong
    convexity modulus of phi.  Diagnostic only.
    """
    y, xt, s, mu = snapshot.y, snapshot.x_tilde, snapshot.s, snapshot.mu
    f_y = float(problem.f_eval(y))
    ell = float(problem.f_eval(xt)) + float(np.asarray(problem.f_grad(xt)) @ (y - xt))
    phi_y = f_y + float(problem.h_eval(y))
    d = np.asarray(x, dtype=float) - y
    return phi_y + 2.0 * (ell - f_y) + float(s @ d) + mu / 4.0 * float(d @ d)


def _clamp_m_lower(prev: float, floor: float) -> float:
    """First L of a new cycle (or A-REG subproblem) after one that exited
    with L = prev: 0.4 prev, clamped to [max(prev / 4, floor), prev]."""
    lo = max(0.25 * prev, floor)
    if lo > prev:
        # floor exceeds the previous exit L; the legal interval degenerates
        # to its upper end.
        return prev
    return min(max(0.4 * prev, lo), prev)


def _cycle_start(
    cycle: int, L: float, mu: float, z: np.ndarray, phi_z: float, dim: Optional[int]
) -> SfistaState:
    """State at j = 1 of a cycle that starts from the lifted point z with
    estimates L and mu."""
    return SfistaState(cycle=cycle, j=1, A=0.0, tau=1.0, L=L, mu=mu,
                       x=z, y=z, xi=z, x0_cycle=z, phi_xi=phi_z, dim=dim)


def solve_sfista(
    problem: CompositeProblem, config: SfistaConfig, z0: np.ndarray
) -> SfistaOutput:
    """Run RPF-SFISTA from z0 until the residual test, or a cap, is met."""
    z0 = check_start(problem, z0)

    start = time.monotonic()
    oracle = CountingOracle(problem)
    Z0 = oracle.lift(z0)
    pt = oracle.pt
    denom = None

    trace: Optional[List[SfistaTraceRow]] = [] if config.trace else None
    M_bar0 = config.M_lower_init
    mu = config.mu0  # None until bootstrapped
    cycle = 1
    total_iters = 0
    state = _cycle_start(cycle, M_bar0, math.nan if mu is None else mu, Z0,
                         oracle.f(Z0) + oracle.h(z0), pt.stop)

    while True:
        if total_iters >= config.max_total_iters:
            status = "iter_cap"
            break
        if time.monotonic() - start > config.time_limit:
            status = "time_cap"
            break
        total_iters += 1

        a, X_tilde, Y, L = backtracking_step(state, oracle, config)
        if denom is None:
            # the first x_tilde is z0 (A = 0), up to rounding
            denom = residual_denominator(config.residual_mode, state.grad_x_tilde)

        if mu is None:
            # a0 and y1 never depend on mu (A0 = 0), so the bootstrap value
            # can be installed right before the first tau/x update.
            x_tilde = X_tilde[pt]
            mu = _bootstrap_mu(state.f_y, state.ell_y, Y[pt] - x_tilde, x_tilde,
                               config.chi, config.M_lower_init)
            state.mu = mu

        tau_prev = state.tau
        momentum_update(state, Y, L, a, oracle)

        if trace is not None:
            trace.append(SfistaTraceRow(
                cycle=state.cycle, j=state.j, L=state.L, A=state.A, tau=state.tau,
                a=a, tau_prev=tau_prev,
                v_norm=float(np.linalg.norm(state.v)), phi_xi=state.phi_xi,
                restarted=False,
                y=Y[pt].copy(), x_tilde=X_tilde[pt].copy(), s=state.s.copy(),
                mu=state.mu,
            ))

        if restart_check(state, config) == "restart":
            if trace is not None:
                trace[-1].restarted = True
            M_bar = state.L
            mu = config.mu_shrink * mu
            cycle += 1
            M_lower = _clamp_m_lower(M_bar, M_bar0)
            state = _cycle_start(cycle, M_lower, mu, state.xi, state.phi_xi, pt.stop)
            continue

        residual = float(np.linalg.norm(state.v)) / denom
        if math.isnan(residual):
            # grad f(y) is not part of the line-search test; with x_tilde and
            # y finite, v is NaN only through it
            raise RuntimeError(nan_message(
                "RPF-SFISTA", "the residual",
                (("grad", state.grad_x_tilde), ("prox", Y[pt]), ("grad", state.v)),
            ))
        if residual <= config.eps_hat:
            status = "converged"
            break

        state.j += 1

    residual = float(np.linalg.norm(state.v)) / denom if state.v is not None else math.inf
    # copies, so that an output holds no lifted point's image alive
    y = state.y[pt].copy()
    return SfistaOutput(
        y=y, v=state.v if state.v is not None else np.zeros(problem.dim),
        xi=y if state.xi is state.y else state.xi[pt].copy(), L_final=state.L,
        cycles=cycle, total_iters=total_iters, counters=oracle.counters, status=status,
        residual=residual, trace=trace, runtime_s=time.monotonic() - start,
    )
