"""Exact Euclidean projections used as prox operators for indicator h.

The prox of an indicator is the projection onto the set, independent of the
step size.  Supported sets: probability simplex, l1 ball, box intersected
with a hyperplane, plain box, and the whole space (h = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "ProjectionSpec",
    "project_simplex",
    "project_l1_ball",
    "project_box_hyperplane",
    "prox_of",
]

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
        # k = 1 always qualifies unless v is non-finite or so large that
        # u_1 - (u_1 - radius) rounds to 0; shifting v by a constant does not
        # move the projection and makes k = 1 qualify
        if not np.isfinite(v).all():
            raise ValueError("cannot project a vector with NaN or infinite entries")
        return project_simplex(v - v.max(), radius)
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


def project_box_hyperplane(v: np.ndarray, a: np.ndarray, b: float, r: float) -> np.ndarray:
    """Euclidean projection onto {z : a'z = b, -r <= z_i <= r}.

    The projection is clip(v - lam*a, -r, r) for a multiplier lam at which
    g(lam) = a'clip(v - lam*a, -r, r) - b is zero.  g is nonincreasing and
    piecewise linear: coordinate i (a_i != 0) is free, with slope -a_i^2, for
    lam between its two kinks (v_i -+ r sign(a_i)) / a_i and clipped outside.
    One sort of the 2n kinks and a cumsum of the slope changes give g at every
    kink (Kiwiel's breakpoint search, O(n log n)); on the segment where g
    first reaches zero, lam solves a'z = b in closed form from the free set F
    and the clipped values z_C: lam = (a_F'v_F + a_C'z_C - b) / ||a_F||^2.
    The result is exact up to roundoff; there is no tolerance.  Coordinates
    with a_i = 0 are clip(v_i, -r, r).
    """
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    if r <= 0:
        raise ValueError("box half-width r must be positive")
    if not np.any(a):
        raise ValueError("hyperplane normal a must be nonzero")
    reach = r * np.abs(a).sum()
    if not (-reach <= b <= reach):
        raise ValueError("feasible set {a'z = b, -r <= z <= r} is empty")

    if not np.isfinite(v).all():
        raise ValueError("cannot project a vector with NaN or infinite entries")

    nz = np.flatnonzero(a)
    an, vn, m = a[nz], v[nz], nz.size
    edge = r * np.sign(an)
    # coordinate i is free for lam in [enter_i, leave_i], at +r sign(a_i)
    # before and at -r sign(a_i) after
    enter, leave = (vn - edge) / an, (vn + edge) / an
    kinks = np.concatenate((enter, leave))
    order = np.argsort(kinks, kind="stable")
    kinks = kinks[order]
    a2 = an * an
    slope = np.cumsum(np.concatenate((-a2, a2))[order])
    # roundoff in the cumsum must not tilt a segment with no free coordinate
    n_free = np.cumsum(np.repeat([1, -1], m)[order])
    slope[n_free == 0] = 0.0
    g = reach - b + np.concatenate(([0.0], np.cumsum(slope[:-1] * np.diff(kinks))))
    g[-1] = -reach - b  # every coordinate is at its lower clip
    j = int(np.argmax(g <= 0.0))
    if j == 0:  # b = r||a||_1: the set is one point, reached at the first kink
        lam = kinks[0]
    else:
        free = (enter <= kinks[j - 1]) & (leave >= kinks[j])
        # a_i z_i of a clipped coordinate: r|a_i| before its kinks, -r|a_i| after
        clipped = np.where(enter >= kinks[j], r, -r) * np.abs(an)
        lam = (an[free] @ vn[free] + clipped[~free].sum() - b) / (a2[free].sum())
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
            return project_box_hyperplane(v, self.a, self.b, self.r)
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
