"""Exact Euclidean projections used as prox operators for indicator h.

The prox of an indicator is the projection onto the set, independent of the
step size.  Supported sets: probability simplex, l1 ball, box intersected
with a hyperplane, plain box, and the whole space (h = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "ProjectionSpec",
    "project_simplex",
    "project_l1_ball",
    "project_box_hyperplane",
    "prox_of",
]

_BH_DEFAULT_TOL = 1e-12


def project_simplex(v: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {x >= 0 : sum x_i = radius}.

    Sort-and-threshold, O(n log n).  Ties are resolved by the largest prefix
    with a positive threshold, which is the standard deterministic rule.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    if radius <= 0:
        raise ValueError("simplex radius must be positive")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - radius
    ks = np.arange(1, v.size + 1)
    positive = np.flatnonzero(u - css / ks > 0)
    if positive.size == 0:
        # k = 1 always qualifies for a finite v of moderate scale
        raise ValueError("no positive threshold: v has NaN or infinite entries, or huge ones")
    rho = int(positive[-1])
    theta = css[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


def project_l1_ball(v: np.ndarray, C: float) -> np.ndarray:
    """Euclidean projection onto {z : ||z||_1 <= C}.

    Interior points are returned unchanged; otherwise reduce to a simplex
    projection of |v| with radius C and restore signs.
    """
    if C <= 0:
        raise ValueError(f"l1-ball radius must be positive, got {C}")
    v = np.asarray(v, dtype=float)
    if np.abs(v).sum() <= C:
        return v.copy()
    w = project_simplex(np.abs(v), radius=C)
    return np.sign(v) * w


def project_box_hyperplane(
    v: np.ndarray,
    a: np.ndarray,
    b: float,
    r: float,
    tol: float = _BH_DEFAULT_TOL,
) -> np.ndarray:
    """Euclidean projection onto {z : a'z = b, -r <= z_i <= r}.

    The projection is clip(v - lam*a, -r, r) for the multiplier lam at which
    g(lam) = a'clip(v - lam*a, -r, r) - b crosses zero.  g is piecewise linear
    and nonincreasing, so a bracketed bisection is robust to the kinks.
    """
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if r <= 0:
        raise ValueError("box half-width r must be positive")
    if not np.any(a):
        raise ValueError("hyperplane normal a must be nonzero")
    reach = r * np.abs(a).sum()
    if not (-reach <= b <= reach):
        raise ValueError("feasible set {a'z = b, -r <= z <= r} is empty")

    if not np.isfinite(v).all():
        raise ValueError("cannot project a vector with NaN or infinite entries")

    def g(lam: float) -> float:
        return float(a @ np.clip(v - lam * a, -r, r) - b)

    lo, hi = -1.0, 1.0
    # g decreases in lam: expand until g(lo) >= 0 >= g(hi)
    for _ in range(200):
        if g(lo) >= 0.0:
            break
        lo *= 2.0
    else:
        raise RuntimeError("bracket expansion failed (lower); projection invariant violated")
    for _ in range(200):
        if g(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("bracket expansion failed (upper); projection invariant violated")

    while hi - lo > tol * (1.0 + max(abs(lo), abs(hi))):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket at floating-point resolution
            break
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return np.clip(v - lam * a, -r, r)


@dataclass(frozen=True)
class ProjectionSpec:
    """Declarative description of the constraint set behind h = delta_C.

    kind is one of 'free', 'simplex', 'l1_ball', 'box_hyperplane', 'box'.
    """

    kind: str
    radius: Optional[float] = None            # l1_ball
    a: Optional[np.ndarray] = None            # box_hyperplane
    b: Optional[float] = None                 # box_hyperplane
    r: Optional[float] = None                 # box_hyperplane
    lo: Optional[np.ndarray] = None           # box
    hi: Optional[np.ndarray] = None           # box
    tol: float = _BH_DEFAULT_TOL

    def __post_init__(self):
        if self.kind == "free":
            pass
        elif self.kind == "simplex":
            pass
        elif self.kind == "l1_ball":
            if self.radius is None or self.radius <= 0:
                raise ValueError("l1_ball requires radius > 0")
        elif self.kind == "box_hyperplane":
            if self.a is None or self.b is None or self.r is None:
                raise ValueError("box_hyperplane requires a, b, r")
            a = np.asarray(self.a, dtype=float)
            if not np.any(a):
                raise ValueError("hyperplane normal a must be nonzero")
            if self.r <= 0:
                raise ValueError("box half-width r must be positive")
            reach = self.r * np.abs(a).sum()
            if not (-reach <= self.b <= reach):
                raise ValueError("feasible set {a'z = b, -r <= z <= r} is empty")
            object.__setattr__(self, "a", a)
        elif self.kind == "box":
            if self.lo is None or self.hi is None:
                raise ValueError("box requires lo and hi")
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
            if np.any(lo > hi):
                raise ValueError("box is empty: lo > hi somewhere")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        else:
            raise ValueError(f"unknown projection kind {self.kind!r}")

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.kind == "free":
            return v.copy()
        if self.kind == "simplex":
            return project_simplex(v)
        if self.kind == "l1_ball":
            return project_l1_ball(v, self.radius)
        if self.kind == "box_hyperplane":
            return project_box_hyperplane(v, self.a, self.b, self.r, self.tol)
        return np.clip(v, self.lo, self.hi)

    def contains(self, z: np.ndarray, tol: float = 1e-9) -> bool:
        z = np.asarray(z, dtype=float)
        if self.kind == "free":
            return True
        if self.kind == "simplex":
            return bool(np.all(z >= -tol) and abs(z.sum() - 1.0) <= tol * z.size)
        if self.kind == "l1_ball":
            return bool(np.abs(z).sum() <= self.radius * (1.0 + tol))
        if self.kind == "box_hyperplane":
            scale = 1.0 + abs(self.b) + np.linalg.norm(self.a) * self.r
            return bool(
                np.all(np.abs(z) <= self.r * (1.0 + tol))
                and abs(self.a @ z - self.b) <= tol * scale
            )
        return bool(np.all(z >= self.lo - tol) and np.all(z <= self.hi + tol))

    def indicator(self, z: np.ndarray) -> float:
        return 0.0 if self.contains(z) else float("inf")


def prox_of(spec: ProjectionSpec, v: np.ndarray, lam: float) -> np.ndarray:
    """Prox of the indicator of spec's set: the projection, for any lam > 0."""
    if lam <= 0:
        raise ValueError("prox step must be positive")
    return spec.project(v)
