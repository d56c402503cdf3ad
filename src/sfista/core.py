"""Composite problem abstraction and shared numerical utilities.

A composite problem is min f(z) + h(z) with f smooth convex and h closed
proper convex (typically the indicator of a constraint set).  Problems are
immutable oracle bundles; all mutable per-solve state (iterates, counters)
lives in the solver and its `Run`, the frame all five methods share.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .prox_ops import Box, BoxHyperplane, L1Ball, Simplex

__all__ = [
    "SmoothFunction",
    "CompositeProblem",
    "OracleCounters",
    "SolveOutput",
    "CountingOracle",
    "smooth_of",
    "eval_phi",
    "grad_fd_check",
]

# Slack in the line-search acceptance: the two sides cancel to roundoff when
# the iterates are nearly stationary.
_LS_SLACK = 1e-12
# chi, the line-search slack of all five methods: a step is accepted when f(y)
# lies below its model with curvature (1 - chi) L / 2.  rpf-sfista's restart
# test and bootstrap mu use the same chi.
_CHI = 0.001
# the first L of every line search: the baselines', and that of rpf-sfista's
# first step, A-REG's inner solves included (their floor comes from that step)
_L_FIRST = 10.0
_L_OVERFLOW = 1e30
_FLOAT = np.dtype(float)
_NO_IMAGE = np.empty(0)  # the image of plain-callable oracles
# the library's constraint sets: each of their projections passes `contains`
_LIBRARY_SETS = (Simplex, L1Ball, Box, BoxHyperplane)


def norm(x: np.ndarray) -> float:
    """float(np.linalg.norm(x)) of a 1-D float vector, bit for bit: its sqrt(x.dot(x))
    of x.ravel("K") without its Python-level wrapper (x @ x differs on strided views)."""
    x = x.ravel("K")
    return math.sqrt(x.dot(x))


class SmoothFunction:
    """A smooth f = value(z, image(z)) with grad f(z) = grad(z, image(z)).

    image(z) holds what f and grad f at z have in common -- for f = g(Kz),
    the image Kz -- so f and grad f at one point share one image (the
    smooth-function form of TFOCS; Becker, Candes and Grant, 2011).  The
    contract is that image returns one flat ndarray, possibly empty, that
    is affine in z: image(w z1 + (1 - w) z2) = w image(z1) + (1 - w)
    image(z2).  A quadratic's gradient is affine too: its image holds it,
    and its grad returns that block.  Bind a CompositeProblem's f_eval and
    f_grad to this object's `f_eval` and `f_grad`: while both stay bound to
    the same SmoothFunction, CountingOracle carries the image through the
    solvers' affine combinations, so only prox outputs get a fresh one.
    """

    __slots__ = ("image", "value", "grad")

    def __init__(
        self, image: Callable[[np.ndarray], np.ndarray], value: Callable[..., float],
        grad: Callable[..., np.ndarray],
    ):
        self.image = image
        self.value = value
        self.grad = grad

    def f_eval(self, z: np.ndarray) -> float:
        return self.value(z, self.image(z))

    def f_grad(self, z: np.ndarray) -> np.ndarray:
        return self.grad(z, self.image(z))


class _OnFirstRead:
    """A dataclass field that may be given as a zero-argument callable: its
    first read calls it and keeps the result.  A concurrent first read may
    call it twice."""

    def __set_name__(self, owner, name):
        self._slot = "_" + name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return None  # the field's default
        value = obj.__dict__[self._slot]
        if callable(value):
            value = obj.__dict__[self._slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self._slot] = value


@dataclass(frozen=True)
class CompositeProblem:
    """Oracle bundle for min f(z) + h(z).

    h_eval may return +inf (infeasible point of an indicator).  h_prox(p, lam)
    returns argmin_u h(u) + ||u - p||^2 / (2 lam); for indicator h this is the
    Euclidean projection and is independent of lam.  f_eval and f_grad may be
    plain callables or the `f_eval` and `f_grad` of one SmoothFunction.

    known_L may be given as a zero-argument callable, which the first read of
    `problem.known_L` calls; the attribute then reads as its float (or None).
    The logistic and lasso generators pass their Lanczos estimate of ||A||^2
    this way, so that a solve that finds L by line search never runs it;
    rada, greedy and `bench run` read it.
    """

    dim: int
    f_eval: Callable[[np.ndarray], float]
    f_grad: Callable[[np.ndarray], np.ndarray]
    h_prox: Callable[[np.ndarray, float], np.ndarray]
    h_eval: Callable[[np.ndarray], float]
    known_L: Optional[float] = _OnFirstRead()
    known_mu_f: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")

    def check_dim(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got shape {z.shape}")
        return z


@dataclass
class OracleCounters:
    """Counts of oracle calls made during one solve.

    prox_evals counts every prox execution, including line-search repeats.
    """

    grad_evals: int = 0
    f_evals: int = 0
    prox_evals: int = 0

    def merge(self, other: "OracleCounters") -> None:
        self.grad_evals += other.grad_evals
        self.f_evals += other.f_evals
        self.prox_evals += other.prox_evals


@dataclass
class SolveOutput:
    """What rpf-sfista and each comparison method return.

    y is the last iterate, v in grad f(y) + dh(y) its certificate, and
    residual is ||v|| over the residual test's denominator.  cycles counts
    momentum restarts + 1.  xi (the best-value iterate) and trace (a list of
    `rpf_sfista.SfistaTraceRow`) are filled by rpf-sfista only.
    """

    y: np.ndarray
    v: np.ndarray
    L_final: float
    cycles: int
    total_iters: int
    counters: OracleCounters
    status: str  # 'converged' | 'iter_cap' | 'time_cap'
    residual: float
    runtime_s: float = 0.0
    xi: Optional[np.ndarray] = None
    trace: Optional[list] = None


def smooth_of(problem: CompositeProblem) -> SmoothFunction:
    """problem's f as a SmoothFunction.

    This is the SmoothFunction that problem.f_eval and problem.f_grad are
    both bound to, if there is one.  Otherwise -- plain callables, or one of
    the two replaced, e.g. by `dataclasses.replace` -- it has an empty image
    and calls the problem's own f_eval and f_grad at z.
    """
    f_eval, f_grad = problem.f_eval, problem.f_grad
    smooth = getattr(f_eval, "__self__", None)
    if isinstance(smooth, SmoothFunction) and f_eval == smooth.f_eval and f_grad == smooth.f_grad:
        return smooth
    return SmoothFunction(lambda z: _NO_IMAGE, lambda z, k: f_eval(z), lambda z, k: f_grad(z))


def _projects_into_set(problem: CompositeProblem) -> bool:
    """Whether problem.h_prox and problem.h_eval are the bound `prox` and
    `indicator` of one library constraint set, so that h is 0 at every prox
    output.  Plain callables, a replaced oracle or a ConvexSet subclass
    defined elsewhere give False."""
    s = getattr(problem.h_prox, "__self__", None)
    return type(s) in _LIBRARY_SETS and problem.h_prox == s.prox and problem.h_eval == s.indicator


class CountingOracle:
    """Wraps a CompositeProblem, incrementing counters on each oracle call.

    One instance per solve; the underlying problem stays immutable and
    shareable across concurrent solves.  grad and prox outputs whose shape is
    not (dim,) raise a ValueError naming the oracle.

    The solvers hold each point z as a lifted point P = lift(z): z followed
    by its image (`smooth_of`).  The image is affine in z, so an affine
    combination of lifted points is the lifted point of the same combination
    of points, and one numpy expression moves a point with its image.  f and
    grad are `value` and `grad` at the point and its carried image, and
    count one evaluation each, whether the image was computed or carried.
    For plain-callable or replaced oracles the image is empty and P is a
    copy of z, so f and grad are the problem's own oracles.

    `h_at_prox` is h at a prox output: 0.0, with no call, where h_prox and
    h_eval are one library set's projection and indicator; h_eval otherwise.
    """

    def __init__(self, problem: CompositeProblem):
        self.problem = problem
        self.counters = OracleCounters()
        self._shape = (problem.dim,)
        self._h_prox = problem.h_prox
        self._prox_in_set = _projects_into_set(problem)
        smooth = smooth_of(problem)
        self._image, self._value, self._grad = smooth.image, smooth.value, smooth.grad
        self.pt = slice(problem.dim)  # P[pt] is the point of the lifted point P
        self._img = slice(problem.dim, None)

    def lift(self, z: np.ndarray) -> np.ndarray:
        """The lifted point of z: z followed by its image."""
        return np.concatenate((z, self._image(z)))

    def f(self, P: np.ndarray) -> float:
        """f at the lifted point P."""
        self.counters.f_evals += 1
        return float(self._value(P[self.pt], P[self._img]))

    def grad(self, P: np.ndarray) -> np.ndarray:
        """grad f at the lifted point P."""
        self.counters.grad_evals += 1
        return self._vector("grad", self._grad(P[self.pt], P[self._img]))

    def prox(self, p: np.ndarray, lam: float) -> np.ndarray:
        self.counters.prox_evals += 1
        return self._vector("prox", self._h_prox(p, lam))

    def _vector(self, name: str, out) -> np.ndarray:
        if type(out) is not np.ndarray or out.dtype is not _FLOAT:
            out = np.asarray(out, dtype=float)
        if out.shape != self._shape:
            raise ValueError(
                f"the {name} oracle returned shape {out.shape}, expected {self._shape}"
            )
        return out

    def h(self, z: np.ndarray) -> float:
        return float(self.problem.h_eval(z))

    def h_at_prox(self, y: np.ndarray) -> float:
        """h at y, an output of `prox`."""
        return 0.0 if self._prox_in_set else float(self.problem.h_eval(y))


def eval_phi(problem: CompositeProblem, z: np.ndarray) -> float:
    """Value of the composite objective f(z) + h(z); +inf iff h(z) = +inf."""
    z = problem.check_dim(z)
    hz = float(problem.h_eval(z))
    if math.isinf(hz):
        return math.inf
    return float(problem.f_eval(z)) + hz


def grad_fd_check(problem: CompositeProblem, z: np.ndarray, step: float) -> float:
    """Max coordinate-wise gap between f_grad and a central finite difference.

    Returns the discrepancy; the caller decides what counts as a failure.
    """
    z = problem.check_dim(z)
    if step <= 0:
        raise ValueError("step must be positive")
    g = np.asarray(problem.f_grad(z), dtype=float)
    worst = 0.0
    for i in range(problem.dim):
        e = np.zeros(problem.dim)
        e[i] = step
        fd = (problem.f_eval(z + e) - problem.f_eval(z - e)) / (2.0 * step)
        worst = max(worst, abs(fd - g[i]))
    return worst


def check_start(problem: CompositeProblem, z0: np.ndarray, name: str = "z0") -> np.ndarray:
    """z0 as a float vector of the problem's dimension, checked to lie in dom h."""
    z0 = problem.check_dim(z0)
    h0 = float(problem.h_eval(z0))
    if not h0 < math.inf:  # written so that NaN fails too
        if math.isnan(h0):
            raise ValueError(f"the h oracle returned NaN at {name}")
        raise ValueError(f"{name} is infeasible: h({name}) = +inf")
    return z0


@dataclass
class StopConfig:
    """The stop settings of rpf-sfista and the four comparison methods: the
    residual tolerance, the iteration cap and the time cap in seconds."""

    eps_hat: float = 1e-8
    max_total_iters: int = 10**6
    time_limit: float = 7200.0

    def __post_init__(self):
        # written as `not x > 0` so that NaN fails too
        if not self.eps_hat > 0:
            raise ValueError("eps_hat must be positive")
        if not self.max_total_iters >= 0:
            raise ValueError("max_total_iters must be nonnegative")
        if not self.time_limit >= 0:
            raise ValueError("time_limit must be nonnegative")


class Run:
    """The frame of one solve that rpf-sfista and the four comparison methods
    share, so that all five stop by one rule: the start check, the oracle
    count, the caps, the certificate and the output.  A loop runs `while
    run.running(iters)` and leaves by a break once `certify` reports
    convergence, or at a cap.  `where` names the solver in errors; `mode` is
    the residual test's: 'relative' divides ||v|| by 1 + ||grad f(z0)||,
    'absolute' by 1.
    """

    def __init__(self, where: str, problem: CompositeProblem, z0: np.ndarray,
                 config: StopConfig, mode: str):
        self.z0 = check_start(problem, z0)
        self.start = time.monotonic()
        self.oracle = CountingOracle(problem)
        self.where, self.mode, self.config = where, mode, config
        self.status = "converged"  # unless `running` stops the loop at a cap
        self.residual = math.inf
        self.denom = None

    def running(self, iters: int) -> bool:
        """Whether another iteration may start after `iters`: not at the
        iteration cap, nor past the time cap, which sets the status."""
        if iters >= self.config.max_total_iters:
            self.status = "iter_cap"
            return False
        if time.monotonic() - self.start > self.config.time_limit:
            self.status = "time_cap"
            return False
        return True

    def certify(self, Y: np.ndarray, g_xt: np.ndarray, s: np.ndarray):
        """(v, converged): v = grad f(y) - g_xt + s in grad f(y) + dh(y) for
        the lifted prox output Y of the step from x_tilde, and whether
        ||v|| / denominator <= eps_hat.  The denominator is taken from the
        first call's g_xt, the gradient at the first x_tilde: z0, for
        rpf-sfista up to rounding.  grad f(y) enters no line-search test, so
        its NaN shows here, as a RuntimeError naming the oracle."""
        g_y = self.oracle.grad(Y)
        if self.denom is None:
            self.denom = 1.0 + norm(g_xt) if self.mode == "relative" else 1.0
        v = g_y - g_xt + s
        self.residual = norm(v) / self.denom
        if math.isnan(self.residual):
            raise RuntimeError(nan_message(
                self.where, "the residual",
                (("grad", g_xt), ("prox", Y[self.oracle.pt]), ("grad", g_y)),
            ))
        return v, self.residual <= self.config.eps_hat

    def output(self, Y: np.ndarray, v: np.ndarray, **fields) -> SolveOutput:
        """The SolveOutput of the lifted last prox output Y, with a copy of y
        that holds no image alive.  Raises unless h(y) < inf: a NaN is the h
        oracle's, an inf that of the prox oracle that returned y."""
        y = Y[self.oracle.pt].copy()
        h = self.oracle.h(y)
        if not h < math.inf:
            if math.isnan(h):
                raise RuntimeError(f"{self.where}: the h oracle returned NaN at the returned y")
            raise RuntimeError(f"{self.where}: the prox oracle returned a point where h is inf")
        return SolveOutput(
            y=y, v=v, counters=self.oracle.counters, status=self.status,
            residual=self.residual, runtime_s=time.monotonic() - self.start, **fields,
        )


def line_search(
    oracle: CountingOracle,
    trial_point: Callable[[float], tuple],
    L: float,
    growth: float,
):
    """Multiply L by `growth` until y = prox(x_tilde - grad f(x_tilde) / L)
    satisfies ell_f(y; x_tilde) + (1-chi) L ||y - x_tilde||^2 / 4 >= f(y).

    trial_point(L) returns (x_tilde, grad f(x_tilde), f(x_tilde)) for the
    current L, with x_tilde lifted (CountingOracle.lift).  Each trial y is
    lifted, which computes its image afresh.  Returns (L, x_tilde, grad, y,
    f(y), ell_f(y; x_tilde), y - x_tilde) for the accepted L, x_tilde and y lifted.
    Raises RuntimeError at the first NaN test value, naming the oracle that
    produced it, and when L passes 1e30.
    """
    while True:
        X_tilde, g, f_xt = trial_point(L)
        x_tilde = X_tilde[oracle.pt]
        y = oracle.prox(x_tilde - g / L, 1.0 / L)
        Y = oracle.lift(y)
        f_y = oracle.f(Y)
        d = y - x_tilde
        ell = f_xt + float(g @ d)
        test = ell - f_y + (1.0 - _CHI) * L * float(d @ d) / 4.0
        if test >= -_LS_SLACK * (1.0 + abs(f_y)):
            return L, X_tilde, g, Y, f_y, ell, d
        if math.isnan(test):
            raise RuntimeError(nan_message(
                "line search", "the acceptance test",
                (("grad", g), ("f", f_xt), ("prox", y), ("f", f_y)),
            ))
        L *= growth
        if L > _L_OVERFLOW:
            raise RuntimeError(
                "line search exceeded L = 1e30; f is not smooth or the oracle is broken"
            )


def nan_message(where: str, what: str, outputs) -> str:
    """Error message for a NaN `what` seen in `where`, naming the oracle.

    outputs are (oracle name, output) pairs in call order, so a NaN is blamed
    on the first oracle that produced it rather than on one that merely
    received it.  Call it on the error path only.
    """
    for name, value in outputs:
        if np.isnan(value).any():
            return f"{where}: the {name} oracle returned NaN"
    return f"{where}: {what} is NaN (an oracle returned inf)"
