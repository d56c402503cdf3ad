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
import scipy.sparse as sp

from .core import CompositeProblem, QuadraticFunction, SmoothFunction
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
    "power_method_opnorm_sq",
    "make_instance",
]


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
    constant is 0.25 * lambda_max(D'D) with D_ij = -a_i^j b_i.
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
    L = 0.25 * power_method_opnorm_sq(lambda v: D @ v, lambda v: D.T @ v, n)

    smooth = SmoothFunction(
        image=lambda z: D @ z,
        value=lambda t: float(np.logaddexp(0.0, t).sum()),
        grad=lambda t: D.T @ (1.0 / (1.0 + np.exp(-t))),
    )
    problem = CompositeProblem(
        dim=n, f_eval=smooth.f_eval, f_grad=smooth.f_grad,
        h_prox=ball.prox, h_eval=ball.indicator, known_L=L, known_mu_f=0.0,
    )
    z0 = _random_l1_point(rng, n, C)
    return problem, z0


def gen_lasso(
    A, b: np.ndarray, C: float, seed: int = 0
) -> Tuple[CompositeProblem, np.ndarray]:
    """Least squares f(z) = ||Az - b||^2 / 2 over the l1 ball of radius C.

    Accepts a dense array or a scipy sparse matrix.
    """
    ball = L1Ball(C)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"shape mismatch: A is {A.shape}, b is {b.shape}")
    At = A.T
    L = power_method_opnorm_sq(lambda v: A @ v, lambda v: At @ v, n)

    smooth = QuadraticFunction(
        image=lambda z: A @ z - b,
        value=lambda r: 0.5 * float(r @ r),
        grad=lambda r: At @ r,
    )
    problem = CompositeProblem(
        dim=n, f_eval=smooth.f_eval, f_grad=smooth.f_grad,
        h_prox=ball.prox, h_eval=ball.indicator, known_L=L, known_mu_f=0.0,
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

    The condition ratio lambda_min / lambda_max of rho H1 + H2 is unimodal in
    rho = tau1/tau2 (mixing can only condition the sum up to a point), so a
    log-grid scan locates the peak and a bisection on the increasing branch
    solves ratio(rho) = mu_target / L_target; a global scaling then hits
    L_target exactly.  Returns None when the target ratio exceeds the peak.
    """
    target = mu_target / L_target

    def ratio(rho: float) -> float:
        w = np.linalg.eigvalsh(rho * H1 + H2)
        return max(w[0], 0.0) / w[-1]

    grid = np.logspace(-14.0, 10.0, 97)
    ratios = np.array([ratio(rho) for rho in grid])
    peak = int(ratios.argmax())
    if ratios[peak] < target:
        return None

    # bisect whichever branch crosses the target; the grid endpoints are
    # close to the limiting ratios of H2 (rho -> 0) and H1 (rho -> inf)
    left = np.nonzero(ratios[: peak + 1] < target)[0]
    right = peak + np.nonzero(ratios[peak:] < target)[0]
    if left.size:
        lo, hi = grid[left[-1]], grid[peak]  # increasing branch
        take_hi = True
    elif right.size:
        lo, hi = grid[peak], grid[right[0]]  # decreasing branch
        take_hi = False
    else:
        return None
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        above = ratio(mid) >= target
        if above == take_hi:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.0 + 1e-12:
            break
    rho = hi if take_hi else lo
    w = np.linalg.eigvalsh(rho * H1 + H2)
    scale = L_target / w[-1]
    tau1, tau2 = rho * scale, scale
    return tau1, tau2, scale * max(w[0], 0.0), L_target


def _gen_qp(
    m: int, n: int, alpha: float, mu_target: float, L_target: float, seed: int,
    constraint: ConvexSet,
    z0_rule: Callable[[np.random.Generator], np.ndarray],
    max_redraws: int = 10,
):
    if mu_target <= 0 or L_target <= 0 or mu_target > L_target:
        raise ValueError("need 0 < mu_target <= L_target")
    last_seed = seed
    for attempt in range(max_redraws):
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

        def image(z, M1=M1, Cm=Cm, d=d):
            return M1 @ z, Cm @ z - d

        def value(r, tau1=tau1, tau2=tau2):
            r1, r2 = r
            return 0.5 * tau1 * float(r1 @ r1) + 0.5 * tau2 * float(r2 @ r2)

        def grad(r, M1t=M1.T, Cmt=Cm.T, tau1=tau1, tau2=tau2):
            r1, r2 = r
            return tau1 * (M1t @ r1) + tau2 * (Cmt @ r2)

        # quadratic, but not a QuadraticFunction: carrying its gradient
        # changes roundoff-decided iteration counts (README, "Smooth oracle")
        smooth = SmoothFunction(image, value, grad)
        problem = CompositeProblem(
            dim=n, f_eval=smooth.f_eval, f_grad=smooth.f_grad,
            h_prox=constraint.prox, h_eval=constraint.indicator,
            known_L=L_actual, known_mu_f=mu_actual,
        )
        z0 = z0_rule(rng)
        return problem, z0
    raise RuntimeError(
        f"curvature calibration infeasible for targets ({mu_target:g}, {L_target:g}) "
        f"after {max_redraws} seeds ending at {last_seed}"
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


def power_method_opnorm_sq(
    apply: Callable[[np.ndarray], np.ndarray],
    apply_adjoint: Callable[[np.ndarray], np.ndarray],
    n: int,
    iters: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
) -> float:
    """Dominant eigenvalue of A'A (= ||A||^2) by power iteration.

    Stops when the Rayleigh quotient is relatively stable to tol, or at the
    iteration cap.  Returns 0 for the zero operator.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    nv = np.linalg.norm(v)
    if nv == 0:
        return 0.0
    v /= nv
    lam = 0.0
    for _ in range(iters):
        w = apply_adjoint(apply(v))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        lam_new = float(v @ w)
        v = w / nw
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


def load_matrix_market(path: str):
    """Parse a MatrixMarket file (coordinate or array, real, general or
    symmetric) into a matrix.

    Returns a scipy CSR matrix for coordinate files and a dense ndarray for
    array files.  Raises ValueError with a line number on malformed input and
    on header/entry-count mismatches.
    """
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines:
        raise ValueError(f"{path}:1: empty file")
    banner = lines[0].split()
    if len(banner) < 5 or banner[0] != "%%MatrixMarket" or banner[1].lower() != "matrix":
        raise ValueError(f"{path}:1: not a MatrixMarket matrix banner")
    fmt, field_kind, symmetry = (tok.lower() for tok in banner[2:5])
    if fmt not in ("coordinate", "array"):
        raise ValueError(f"{path}:1: unsupported format {fmt!r}")
    if field_kind not in ("real", "integer"):
        raise ValueError(f"{path}:1: unsupported field {field_kind!r}")
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"{path}:1: unsupported symmetry {symmetry!r}")

    idx = 1
    while idx < len(lines) and lines[idx].lstrip().startswith("%"):
        idx += 1
    if idx >= len(lines):
        raise ValueError(f"{path}:{idx + 1}: missing size line")
    size_line = lines[idx].split()
    lineno = idx + 1

    if fmt == "coordinate":
        if len(size_line) != 3:
            raise ValueError(f"{path}:{lineno}: coordinate size line needs 3 fields")
        nrows, ncols, nnz = (int(tok) for tok in size_line)
        rows, cols, vals = [], [], []
        count = 0
        for off, raw in enumerate(lines[idx + 1:], start=lineno + 1):
            txt = raw.strip()
            if not txt or txt.startswith("%"):
                continue
            parts = txt.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{off}: expected 'row col value'")
            try:
                i, j, x = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{off}: {exc}") from None
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise ValueError(f"{path}:{off}: index ({i},{j}) outside {nrows}x{ncols}")
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(x)
            count += 1
        if count != nnz:
            raise ValueError(f"{path}: header declares {nnz} entries, found {count}")
        if symmetry == "symmetric":
            extra = [(j, i, x) for i, j, x in zip(rows, cols, vals) if i != j]
            rows += [e[0] for e in extra]
            cols += [e[1] for e in extra]
            vals += [e[2] for e in extra]
        return sp.csr_matrix((vals, (rows, cols)), shape=(nrows, ncols))

    if len(size_line) != 2:
        raise ValueError(f"{path}:{lineno}: array size line needs 2 fields")
    nrows, ncols = (int(tok) for tok in size_line)
    values = []
    for off, raw in enumerate(lines[idx + 1:], start=lineno + 1):
        txt = raw.strip()
        if not txt or txt.startswith("%"):
            continue
        try:
            values.append(float(txt.split()[0]))
        except ValueError as exc:
            raise ValueError(f"{path}:{off}: {exc}") from None
    if symmetry == "symmetric":
        expected = nrows * (nrows + 1) // 2
        if nrows != ncols or len(values) != expected:
            raise ValueError(
                f"{path}: symmetric array expects {expected} entries, found {len(values)}"
            )
        M = np.zeros((nrows, ncols))
        k = 0
        for j in range(ncols):
            for i in range(j, nrows):
                M[i, j] = values[k]
                M[j, i] = values[k]
                k += 1
        return M
    if len(values) != nrows * ncols:
        raise ValueError(
            f"{path}: header declares {nrows * ncols} entries, found {len(values)}"
        )
    return np.asarray(values).reshape((ncols, nrows)).T  # column-major


def load_csv_matrix(path: str) -> np.ndarray:
    """Dense CSV matrix loader; a non-numeric first row is treated as a header."""
    with open(path, "r") as fh:
        first = fh.readline()
    skip = 0
    try:
        [float(tok) for tok in first.strip().split(",") if tok]
    except ValueError:
        skip = 1
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=skip))


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
