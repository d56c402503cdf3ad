"""Composite problem abstraction and shared numerical utilities.

A composite problem is min f(z) + h(z) with f smooth convex and h closed
proper convex (typically the indicator of a constraint set).  Problems are
immutable oracle bundles; all mutable per-solve state (iterates, counters)
lives in the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "SmoothFunction",
    "CompositeProblem",
    "OracleCounters",
    "CountingOracle",
    "smooth_of",
    "eval_phi",
    "grad_fd_check",
]

# Slack in the line-search acceptance: the two sides cancel to roundoff when
# the iterates are nearly stationary.
_LS_SLACK = 1e-12
_L_OVERFLOW = 1e30


class SmoothFunction:
    """A smooth f = value(image(z)) with grad f(z) = grad(image(z)).

    image(z) holds what f and grad f at z have in common -- for f = g(Kz),
    the image Kz -- so f and grad f at one point share one image (the
    smooth-function form of TFOCS; Becker, Candes and Grant, 2011).  Bind a
    CompositeProblem's f_eval and f_grad to this object's `f_eval` and
    `f_grad`: while both stay bound to the same SmoothFunction,
    CountingOracle.f_and_grad computes the image once per point.
    """

    __slots__ = ("image", "value", "grad")

    def __init__(
        self, image: Callable, value: Callable[..., float], grad: Callable[..., np.ndarray]
    ):
        self.image = image
        self.value = value
        self.grad = grad

    def f_eval(self, z: np.ndarray) -> float:
        return self.value(self.image(z))

    def f_grad(self, z: np.ndarray) -> np.ndarray:
        return self.grad(self.image(z))


@dataclass(frozen=True)
class CompositeProblem:
    """Oracle bundle for min f(z) + h(z).

    h_eval may return +inf (infeasible point of an indicator).  h_prox(p, lam)
    returns argmin_u h(u) + ||u - p||^2 / (2 lam); for indicator h this is the
    Euclidean projection and is independent of lam.  f_eval and f_grad may be
    plain callables or the `f_eval` and `f_grad` of one SmoothFunction.
    """

    dim: int
    f_eval: Callable[[np.ndarray], float]
    f_grad: Callable[[np.ndarray], np.ndarray]
    h_prox: Callable[[np.ndarray, float], np.ndarray]
    h_eval: Callable[[np.ndarray], float]
    known_L: Optional[float] = None
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


def smooth_of(problem: CompositeProblem) -> SmoothFunction:
    """problem's f as a SmoothFunction.

    This is the SmoothFunction that problem.f_eval and problem.f_grad are
    both bound to, if there is one.  Otherwise -- plain callables, or one of
    the two replaced, e.g. by `dataclasses.replace` -- it has the identity as
    image and f_eval and f_grad as value and grad, so it calls exactly the
    problem's own oracles.
    """
    f_eval, f_grad = problem.f_eval, problem.f_grad
    smooth = getattr(f_eval, "__self__", None)
    if isinstance(smooth, SmoothFunction) and f_eval == smooth.f_eval and f_grad == smooth.f_grad:
        return smooth
    return SmoothFunction(lambda z: z, f_eval, f_grad)


class CountingOracle:
    """Wraps a CompositeProblem, incrementing counters on each oracle call.

    One instance per solve; the underlying problem stays immutable and
    shareable across concurrent solves.  grad and prox outputs whose shape is
    not (dim,) raise a ValueError naming the oracle.
    """

    def __init__(self, problem: CompositeProblem, counters: OracleCounters | None = None):
        self.problem = problem
        self.counters = counters if counters is not None else OracleCounters()
        self._shape = (problem.dim,)
        self._smooth = smooth_of(problem)

    def f(self, z: np.ndarray) -> float:
        self.counters.f_evals += 1
        return float(self.problem.f_eval(z))

    def grad(self, z: np.ndarray) -> np.ndarray:
        self.counters.grad_evals += 1
        return self._vector("grad", self.problem.f_grad(z))

    def f_and_grad(self, z: np.ndarray) -> Tuple[float, Callable[[], np.ndarray]]:
        """(f(z), grad) where grad() returns grad f(z) from the same image.

        Counts one f evaluation now and one grad evaluation when grad runs, so
        the counters mean what they mean for f and grad called apart.
        """
        self.counters.f_evals += 1
        image = self._smooth.image(z)
        return float(self._smooth.value(image)), partial(self._grad_from_image, image)

    def _grad_from_image(self, image) -> np.ndarray:
        self.counters.grad_evals += 1
        return self._vector("grad", self._smooth.grad(image))

    def prox(self, p: np.ndarray, lam: float) -> np.ndarray:
        self.counters.prox_evals += 1
        return self._vector("prox", self.problem.h_prox(p, lam))

    def _vector(self, name: str, out) -> np.ndarray:
        out = np.asarray(out, dtype=float)
        if out.shape != self._shape:
            raise ValueError(
                f"the {name} oracle returned shape {out.shape}, expected {self._shape}"
            )
        return out

    def h(self, z: np.ndarray) -> float:
        return float(self.problem.h_eval(z))

    def phi(self, z: np.ndarray) -> float:
        hz = self.h(z)
        if math.isinf(hz):
            return math.inf
        return self.f(z) + hz


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
    if math.isinf(float(problem.h_eval(z0))):
        raise ValueError(f"{name} is infeasible: h({name}) = +inf")
    return z0


def relative_denominator(grad_f_z0: np.ndarray) -> float:
    """1 + ||grad f(z0)||, the scale of the relative residual test."""
    return 1.0 + float(np.linalg.norm(grad_f_z0))


def residual_denominator(problem: CompositeProblem, z0: np.ndarray, mode: str) -> float:
    """Denominator of the residual test: relative_denominator in 'relative' mode, else 1."""
    if mode == "relative":
        return relative_denominator(problem.f_grad(z0))
    return 1.0


def line_search(
    oracle: CountingOracle,
    trial_point: Callable[[float], tuple],
    L: float,
    growth: float,
    chi: float,
):
    """Multiply L by `growth` until y = prox(x_tilde - grad f(x_tilde) / L)
    satisfies ell_f(y; x_tilde) + (1-chi) L ||y - x_tilde||^2 / 4 >= f(y).

    trial_point(L) returns (x_tilde, grad f(x_tilde), f(x_tilde)) for the
    current L.  Each trial y is evaluated with oracle.f_and_grad.  Returns
    (L, x_tilde, grad, y, f(y), ell_f(y; x_tilde), grad_y) for the accepted
    L, where grad_y() finishes grad f(y) from the image f(y) was computed
    from.  Raises RuntimeError at the first NaN test value, naming the oracle
    that produced it, and when L passes 1e30.
    """
    while True:
        x_tilde, g, f_xt = trial_point(L)
        y = oracle.prox(x_tilde - g / L, 1.0 / L)
        f_y, grad_y = oracle.f_and_grad(y)
        d = y - x_tilde
        ell = f_xt + float(g @ d)
        test = ell - f_y + (1.0 - chi) * L * float(d @ d) / 4.0
        if test >= -_LS_SLACK * (1.0 + abs(f_y)):
            return L, x_tilde, g, y, f_y, ell, grad_y
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
