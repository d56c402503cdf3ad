"""Benchmark problem generators and loaders.

Four families: l1-ball constrained logistic regression, l1-ball constrained
least squares (lasso), and dense quadratics over the simplex or a
box-with-hyperplane set, with curvature calibrated to requested extreme
eigenvalues.  All generation is seeded and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .core import CompositeProblem, SmoothFunction
from .prox_ops import BoxHyperplane, ConvexSet, L1Ball, Simplex

__all__ = [
    "InstanceSpec",
    "gen_logistic",
    "gen_lasso",
    "gen_lasso_random",
    "gen_qp_simplex",
    "gen_qp_box",
    "load_matrix_market",
    "load_csv_matrix",
    "opnorm_sq",
    "make_instance",
]

# a QP draw tries seeds seed, ..., seed + _QP_DRAWS - 1 before it gives up;
# opnorm_sq stops after _LANCZOS_STEPS steps or at the residual bound _LANCZOS_TOL
_QP_DRAWS = 10
_LANCZOS_STEPS = 500
_LANCZOS_TOL = 1e-10


@dataclass(frozen=True)
class InstanceSpec:
    """Declarative description of one benchmark instance."""

    family: str  # 'logistic' | 'lasso' | 'qp_simplex' | 'qp_box'
    m: int
    n: int
    seed: int
    C: float = 1.0                 # logistic / lasso radius
    alpha: float = 1000.0          # upper bound of the diagonal scaling draw
    mu_target: float = 1e-4        # qp families
    L_target: float = 1e2
    a_pattern: str = "last1"       # qp_box: 'last1' | 'last10'
    r: float = 5.0
    b: float = 0.0

    def __post_init__(self):
        # numpy's generators reject a negative seed only when the instance is built
        if self.seed < 0:
            raise ValueError(f"instance seed must be nonnegative, got {self.seed}")

    @property
    def instance_id(self) -> str:
        return f"{self.family}-m{self.m}-n{self.n}-s{self.seed}"

    @property
    def param(self) -> str:
        if self.family in ("logistic", "lasso"):
            return f"C={self.C:g}"
        return f"mu={self.mu_target:g},L={self.L_target:g}"


def _random_l1_point(rng: np.random.Generator, n: int, C: float) -> np.ndarray:
    z = rng.uniform(-1.0, 1.0, size=n)
    s = np.abs(z).sum()
    if s > 0:
        z *= rng.uniform(0.0, 1.0) * C / s
    return z


def gen_logistic(m: int, n: int, C: float, seed: int) -> Tuple[CompositeProblem, np.ndarray]:
    """Sparse logistic regression over the l1 ball of radius C.

    f(z) = sum_i log(1 + exp(-b_i <a_i, z>)) with features drawn U[0,1] and
    labels given by the sign of a random hyperplane.  The gradient Lipschitz
    constant is 0.25 * lambda_max(D'D) with D_ij = -a_i^j b_i; known_L, its
    Lanczos estimate, is computed on first read.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    ball = L1Ball(C)
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(m, n))
    w_true = rng.standard_normal(n)
    labels = np.sign(A @ w_true - np.median(A @ w_true))
    labels[labels == 0] = 1.0
    D = -A * labels[:, None]

    smooth = SmoothFunction(
        image=lambda z: D @ z,
        value=lambda z, t: float(np.add.reduce(np.logaddexp(0.0, t))),
        grad=lambda z, t: D.T @ (1.0 / (1.0 + np.exp(-t))),
    )
    problem = CompositeProblem(
        dim=n, f_eval=smooth.f_eval, f_grad=smooth.f_grad,
        h_prox=ball.prox, h_eval=ball.indicator, known_mu_f=0.0,
        known_L=lambda: 0.25 * opnorm_sq(lambda v: D @ v, lambda v: D.T @ v, n),
    )
    z0 = _random_l1_point(rng, n, C)
    return problem, z0


def gen_lasso(
    A, b: np.ndarray, C: float, seed: int = 0
) -> Tuple[CompositeProblem, np.ndarray]:
    """Least squares f(z) = ||Az - b||^2 / 2 over the l1 ball of radius C.

    Accepts a dense array or a scipy sparse matrix.  The image of z is the
    residual r = Az - b followed by the gradient A'r.  known_L, the Lanczos
    estimate of ||A||^2, is computed on first read.
    """
    ball = L1Ball(C)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"shape mismatch: A is {A.shape}, b is {b.shape}")
    At = A.T

    def image(z):
        r = A @ z - b
        return np.concatenate((r, At @ r))

    smooth = SmoothFunction(
        image,
        value=lambda z, k: 0.5 * float(k[:m] @ k[:m]),
        grad=lambda z, k: k[m:],
    )
    problem = CompositeProblem(
        dim=n, f_eval=smooth.f_eval, f_grad=smooth.f_grad,
        h_prox=ball.prox, h_eval=ball.indicator, known_mu_f=0.0,
        known_L=lambda: opnorm_sq(lambda v: A @ v, lambda v: At @ v, n),
    )
    rng = np.random.default_rng(seed)
    z0 = _random_l1_point(rng, n, C)
    return problem, z0


def gen_lasso_random(m: int, n: int, C: float, seed: int) -> Tuple[CompositeProblem, np.ndarray]:
    """Seeded random dense lasso instance (stand-in for external LP matrices)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n)) / math.sqrt(m)
    x_sparse = np.zeros(n)
    support = rng.choice(n, size=max(1, n // 20), replace=False)
    x_sparse[support] = rng.standard_normal(support.size)
    b = A @ x_sparse + 0.01 * rng.standard_normal(m)
    return gen_lasso(A, b, C, seed=seed + 1)


def _calibrate_quadratic(H1: np.ndarray, H2: np.ndarray, mu_target: float, L_target: float):
    """Find (tau1, tau2) >= 0 with extreme eigenvalues of tau1 H1 + tau2 H2
    equal to the targets.

    The condition ratio lambda_min / lambda_max of rho H1 + H2 rises from its
    rho -> 0 limit to one peak and falls to its rho -> inf limit (mixing can
    only condition the sum up to a point).  That holds where the ratio is
    well above roundoff; far out in the tails the computed ratio is noise (at
    qp_box-m40-n80-s42 it rises at log10 rho = 8.75 and 9.5, at 3.55e-10).
    A scan of one point per decade over rho in [1e-14, 1e10] locates the
    peak; only when the peak falls short of the target is the scan refined
    to quarter decades about it.  On whichever branch crosses the target,
    the increasing one first, the Illinois method (a bracketed secant step on
    log ratio against log rho) solves ratio(rho) = mu_target / L_target and
    stops when its next step would move rho by at most 1e-10 relative.  The
    rho it returns lies on the ratio >= target side, and a global scaling of
    that rho's eigenvalues hits L_target exactly.  Returns None when the
    target ratio exceeds the peak or no scanned point lies below it.  A
    calibration takes about 30 eigenvalue decompositions, 25 of them the scan.
    """
    target = mu_target / L_target
    decade = math.log(10.0)
    evals = {}  # log rho -> eigenvalues of rho H1 + H2

    def gap(u: float) -> float:
        # log(ratio / target) at rho = exp(u), with the ratio floored at
        # 1e-300 where lambda_min <= 0
        w = evals[u] = np.linalg.eigvalsh(math.exp(u) * H1 + H2)
        return math.log(max(w[0] / w[-1], 1e-300) / target)

    gaps = {k * decade: gap(k * decade) for k in range(-14, 11)}
    peak = max(gaps, key=gaps.get)
    if gaps[peak] < 0:
        for k in (-3, -2, -1, 1, 2, 3):
            u = peak + k * decade / 4
            if -14 * decade < u < 10 * decade:
                gaps[u] = gap(u)
        peak = max(gaps, key=gaps.get)
        if gaps[peak] < 0:
            return None

    # the scan's ends are close to the limiting ratios of H2 (rho -> 0) and
    # H1 (rho -> inf); bracket the crossing by its scanned neighbours
    us = sorted(gaps)
    i = us.index(peak)
    left = [j for j in range(i) if gaps[us[j]] < 0]
    right = [j for j in range(i + 1, len(us)) if gaps[us[j]] < 0]
    if left:
        acc, rej = us[left[-1] + 1], us[left[-1]]  # increasing branch
    elif right:
        acc, rej = us[right[0] - 1], us[right[0]]  # decreasing branch
    else:
        return None
    g_acc, g_rej = gaps[acc], gaps[rej]
    last = 0  # side of the previous new point: 1 accepted, -1 rejected
    for _ in range(100):  # the step test ends it; the cap bounds a roundoff stall
        step = g_acc * (acc - rej) / (g_acc - g_rej)  # the secant root is acc - step
        if abs(step) <= 1e-10:
            break
        u = acc - step
        g = gap(u)
        if g >= 0:
            acc, g_acc = u, g
            if last == 1:  # Illinois: halve the end kept twice
                g_rej *= 0.5
            last = 1
        else:
            rej, g_rej = u, g
            if last == -1:
                g_acc *= 0.5
            last = -1
    w = evals[acc]
    scale = L_target / w[-1]
    return math.exp(acc) * scale, scale, scale * w[0], L_target


def _gen_qp(
    m: int, n: int, alpha: float, mu_target: float, L_target: float, seed: int,
    constraint: ConvexSet,
    z0_rule: Callable[[np.random.Generator], np.ndarray],
):
    if mu_target <= 0 or L_target <= 0 or mu_target > L_target:
        raise ValueError("need 0 < mu_target <= L_target")
    last_seed = seed
    for attempt in range(_QP_DRAWS):
        last_seed = seed + attempt
        rng = np.random.default_rng(last_seed)
        B = rng.uniform(0.0, 1.0, size=(n, n))
        Cm = rng.uniform(0.0, 1.0, size=(m, n))
        d = rng.uniform(0.0, 1.0, size=m)
        Ddiag = rng.uniform(1.0, alpha, size=n)
        M1 = Ddiag[:, None] * B  # D @ B
        H1 = M1.T @ M1
        H2 = Cm.T @ Cm
        cal = _calibrate_quadratic(H1, H2, mu_target, L_target)
        if cal is None:
            continue
        tau1, tau2, mu_actual, L_actual = cal

        # f(z) = tau1 ||M1 z||^2 / 2 + tau2 ||C z - d||^2 / 2 = z'Hz / 2 - c'z + k0;
        # the image of z is its gradient g = Hz - c, and f(z) = z'(g - c) / 2 + k0
        H = tau1 * H1 + tau2 * H2
        c = tau2 * (Cm.T @ d)
        k0 = 0.5 * tau2 * float(d @ d)
        smooth = SmoothFunction(
            image=lambda z: H @ z - c,
            value=lambda z, g: 0.5 * float(z @ (g - c)) + k0,
            grad=lambda z, g: g,
        )
        problem = CompositeProblem(
            dim=n, f_eval=smooth.f_eval, f_grad=smooth.f_grad,
            h_prox=constraint.prox, h_eval=constraint.indicator,
            known_L=L_actual, known_mu_f=mu_actual,
        )
        z0 = z0_rule(rng)
        return problem, z0
    raise RuntimeError(
        f"curvature calibration infeasible for targets ({mu_target:g}, {L_target:g}) "
        f"after {_QP_DRAWS} seeds ending at {last_seed}"
    )


def gen_qp_simplex(
    m: int, n: int, alpha: float, mu_target: float, L_target: float, seed: int
) -> Tuple[CompositeProblem, np.ndarray]:
    """Dense quadratic over the probability simplex, curvature-calibrated."""

    def z0_rule(rng):
        x_hat = rng.uniform(0.0, 1.0, size=n)
        return x_hat / x_hat.sum()

    return _gen_qp(m, n, alpha, mu_target, L_target, seed, Simplex(), z0_rule)


def gen_qp_box(
    m: int, n: int, a_pattern: str, r: float, b: float,
    mu_target: float, L_target: float, seed: int, alpha: float = 1000.0,
) -> Tuple[CompositeProblem, np.ndarray]:
    """Dense quadratic over {a'z = b, -r <= z <= r}, curvature-calibrated.

    a is all ones except for a trailing block of -1 entries (1 or 10 of
    them).  The sampled start point lands in the box; it is then projected
    onto the full constraint set so the solvers start feasible.
    """
    a = np.ones(n)
    if a_pattern == "last1":
        a[-1] = -1.0
    elif a_pattern == "last10":
        if n < 10:
            raise ValueError("last10 pattern needs n >= 10")
        a[-10:] = -1.0
    else:
        raise ValueError(f"unknown a_pattern {a_pattern!r}")

    constraint = BoxHyperplane(a, b, r)

    def z0_rule(rng):
        return constraint.project(rng.uniform(-r, r, size=n))

    return _gen_qp(m, n, alpha, mu_target, L_target, seed, constraint, z0_rule)


def opnorm_sq(
    apply: Callable[[np.ndarray], np.ndarray],
    apply_adjoint: Callable[[np.ndarray], np.ndarray],
    n: int,
) -> float:
    """Dominant eigenvalue of A'A (= ||A||^2) by Lanczos on v -> A'(Av).

    The three-term recurrence keeps three vectors and no reorthogonalisation:
    the extreme Ritz value still converges (Paige), in far fewer products
    than power iteration (Kuczynski and Wozniakowski, 1992).  Each step
    takes the top eigenpair (theta, s) of the k x k tridiagonal T_k and stops
    when the residual bound beta_k |s_k| is at most tol * max(1, theta), when
    beta_k = 0 (theta is then exact), or after min(_LANCZOS_STEPS, n)
    steps, with tol = _LANCZOS_TOL.  Returns 0 for the zero operator.
    """
    v = np.random.default_rng(0).standard_normal(n)  # a fixed start: bit-reproducible
    v /= np.linalg.norm(v)
    v_prev = np.zeros(n)
    alphas: list = []
    betas: list = []
    beta = theta = 0.0
    for _ in range(min(_LANCZOS_STEPS, n)):
        w = apply_adjoint(apply(v)) - beta * v_prev  # a new array: apply may return v
        alpha = float(v @ w)
        w -= alpha * v
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        evals, evecs = np.linalg.eigh(T)
        theta = float(evals[-1])
        if beta == 0.0 or beta * abs(evecs[-1, -1]) <= _LANCZOS_TOL * max(1.0, theta):
            break
        betas.append(beta)
        v_prev, v = v, w / beta
    return max(0.0, theta)


def load_matrix_market(path: str):
    """Read a MatrixMarket file (coordinate or array, real or integer,
    general or symmetric) into a float matrix, with scipy's reader.

    Returns a scipy CSR matrix for coordinate files and a dense ndarray for
    array files.  Raises ValueError, prefixed with the path, on other fields
    or symmetries and on malformed input; scipy's message names the line
    where it has one, and on NaN or infinite entries.  Comments may only
    precede the size line.
    """
    # imported here, not at module level: scipy.io loads scipy.sparse, which
    # `import sfista` would otherwise pay for on every run that reads no file
    import scipy.io

    try:
        field, symmetry = scipy.io.mminfo(path)[4:]
        if field not in ("real", "integer"):
            raise ValueError(f"unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise ValueError(f"unsupported symmetry {symmetry!r}")
        M = scipy.io.mmread(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if isinstance(M, np.ndarray):
        return _finite(path, np.asarray(M, dtype=float))
    return _finite(path, M.tocsr().astype(float, copy=False))


def load_csv_matrix(path: str) -> np.ndarray:
    """Dense CSV matrix loader; a non-numeric first row is treated as a header."""
    with open(path, "r") as fh:
        first = fh.readline()
    skip = 0
    try:
        [float(tok) for tok in first.strip().split(",") if tok]
    except ValueError:
        skip = 1
    return _finite(path, np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2))


def _finite(path: str, M):
    """M, read from path, unless an entry is NaN or infinite: a ValueError."""
    if not np.isfinite(M if isinstance(M, np.ndarray) else M.data).all():
        raise ValueError(f"{path}: the matrix has NaN or infinite entries")
    return M


def make_instance(spec: InstanceSpec) -> Tuple[CompositeProblem, np.ndarray]:
    """Instantiate a problem and its start point from a declarative spec."""
    if spec.family == "logistic":
        return gen_logistic(spec.m, spec.n, spec.C, spec.seed)
    if spec.family == "lasso":
        return gen_lasso_random(spec.m, spec.n, spec.C, spec.seed)
    if spec.family == "qp_simplex":
        return gen_qp_simplex(spec.m, spec.n, spec.alpha, spec.mu_target, spec.L_target, spec.seed)
    if spec.family == "qp_box":
        return gen_qp_box(
            spec.m, spec.n, spec.a_pattern, spec.r, spec.b,
            spec.mu_target, spec.L_target, spec.seed, alpha=spec.alpha,
        )
    raise ValueError(f"unknown family {spec.family!r}")
