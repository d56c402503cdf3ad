"""Exact Euclidean projections used as prox operators for indicator h.

The prox of an indicator is the projection onto the set, independent of the
step size.  Each constraint set is one object: `Simplex()`, `L1Ball(radius)`,
`Box(lo, hi)` or `BoxHyperplane(a, b, r)`.  Its constructor validates the
parameters once and stores the constants every projection reuses, and its
bound methods `prox` and `indicator` are a CompositeProblem's h_prox and
h_eval.  The objects hold no per-solve state, so threads can share one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ConvexSet",
    "Simplex",
    "L1Ball",
    "Box",
    "BoxHyperplane",
    "project_simplex",
    "project_l1_ball",
]

# contains(z) admits constraint violations of this order, scaled to each set
_FEAS_TOL = 1e-9


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


class ConvexSet:
    """A nonempty closed convex set C, for h = delta_C.

    Subclasses define project(v), the Euclidean projection onto C, and
    contains(z), membership up to _FEAS_TOL.
    """

    def prox(self, p: np.ndarray, lam: float) -> np.ndarray:
        """Prox of delta_C: the projection of p, for any step lam > 0."""
        if not lam > 0:
            raise ValueError("prox step must be positive")
        return self.project(p)

    def indicator(self, z: np.ndarray) -> float:
        return 0.0 if self.contains(z) else float("inf")


class Simplex(ConvexSet):
    """The probability simplex {x >= 0 : sum x_i = 1}."""

    def project(self, v: np.ndarray) -> np.ndarray:
        return project_simplex(v)

    def contains(self, z: np.ndarray) -> bool:
        z = np.asarray(z, dtype=float)
        return bool(np.all(z >= -_FEAS_TOL) and abs(z.sum() - 1.0) <= _FEAS_TOL * z.size)


class L1Ball(ConvexSet):
    """The l1 ball {z : ||z||_1 <= radius}."""

    def __init__(self, radius: float):
        if not radius > 0:
            raise ValueError(f"l1-ball radius must be positive, got {radius}")
        self.radius = float(radius)
        self._limit = self.radius * (1.0 + _FEAS_TOL)

    def project(self, v: np.ndarray) -> np.ndarray:
        """Interior points are returned unchanged; otherwise reduce to a
        simplex projection of |v| with the ball's radius and restore signs."""
        v = np.asarray(v, dtype=float)
        if np.abs(v).sum() <= self.radius:
            return v.copy()
        return np.sign(v) * project_simplex(np.abs(v), radius=self.radius)

    def contains(self, z: np.ndarray) -> bool:
        return bool(np.abs(np.asarray(z, dtype=float)).sum() <= self._limit)


def project_l1_ball(v: np.ndarray, C: float) -> np.ndarray:
    """Euclidean projection onto {z : ||z||_1 <= C}."""
    return L1Ball(C).project(v)


class Box(ConvexSet):
    """The box {z : lo <= z <= hi}; lo and hi are scalars or arrays."""

    def __init__(self, lo, hi):
        lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        if not np.all(lo <= hi):
            raise ValueError("box is empty: lo > hi somewhere")
        self.lo, self.hi = lo, hi
        self._lo_tol, self._hi_tol = lo - _FEAS_TOL, hi + _FEAS_TOL

    def project(self, v: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(v, dtype=float), self.lo, self.hi)

    def contains(self, z: np.ndarray) -> bool:
        z = np.asarray(z, dtype=float)
        return bool(np.all(z >= self._lo_tol) and np.all(z <= self._hi_tol))


class BoxHyperplane(ConvexSet):
    """The set {z : a'z = b, -r <= z_i <= r}.

    The projection of v is clip(v - lam*a, -r, r) for a multiplier lam at
    which g(lam) = a'clip(v - lam*a, -r, r) - b is zero.  g is nonincreasing
    and piecewise linear: coordinate i (a_i != 0) is free, with slope -a_i^2,
    for lam between its two kinks (v_i -+ r sign(a_i)) / a_i and clipped
    outside.  One sort of the 2n kinks and a cumsum of the slope changes give
    g at every kink (Kiwiel's breakpoint search, O(n log n)); on the segment
    where g first reaches zero, lam solves a'z = b in closed form from the
    free set F and the clipped values z_C:
    lam = (a_F'v_F + a_C'z_C - b) / ||a_F||^2.  The result is exact up to
    roundoff; there is no tolerance.  Coordinates with a_i = 0 are
    clip(v_i, -r, r).
    """

    def __init__(self, a, b: float, r: float):
        a = np.array(a, dtype=float)
        if not r > 0:
            raise ValueError("box half-width r must be positive")
        if not np.any(a):
            raise ValueError("hyperplane normal a must be nonzero")
        reach = r * np.abs(a).sum()
        if not (-reach <= b <= reach):
            raise ValueError("feasible set {a'z = b, -r <= z <= r} is empty")
        self.a, self.b, self.r = a, float(b), float(r)
        self._reach = reach
        self._nz = np.flatnonzero(a)
        an = self._an = a[self._nz]
        self._edge = r * np.sign(an)
        self._a2 = an * an
        # a kink changes g's slope by -a_i^2 where coordinate i enters the
        # free set and by +a_i^2 where it leaves, and the free count by +-1
        self._slope_steps = np.concatenate((-self._a2, self._a2))
        self._free_steps = np.repeat([1, -1], an.size)
        # |a_i z_i| of a clipped coordinate
        self._r_abs_a = r * np.abs(an)
        self._r_tol = r * (1.0 + _FEAS_TOL)
        self._eq_tol = _FEAS_TOL * (1.0 + abs(b) + np.linalg.norm(a) * r)

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if not np.isfinite(v).all():
            raise ValueError("cannot project a vector with NaN or infinite entries")
        an, vn = self._an, v[self._nz]
        # coordinate i is free for lam in [enter_i, leave_i], at +r sign(a_i)
        # before and at -r sign(a_i) after
        enter, leave = (vn - self._edge) / an, (vn + self._edge) / an
        kinks = np.concatenate((enter, leave))
        order = np.argsort(kinks, kind="stable")
        kinks = kinks[order]
        slope = np.cumsum(self._slope_steps[order])
        # roundoff in the cumsum must not tilt a segment with no free coordinate
        slope[np.cumsum(self._free_steps[order]) == 0] = 0.0
        g = self._reach - self.b + np.concatenate(([0.0], np.cumsum(slope[:-1] * np.diff(kinks))))
        g[-1] = -self._reach - self.b  # every coordinate is at its lower clip
        j = int(np.argmax(g <= 0.0))
        if j == 0:  # b = r||a||_1: the set is one point, reached at the first kink
            lam = kinks[0]
        else:
            free = (enter <= kinks[j - 1]) & (leave >= kinks[j])
            # a_i z_i of a clipped coordinate: r|a_i| before its kinks, -r|a_i| after
            clipped = np.where(enter >= kinks[j], self._r_abs_a, -self._r_abs_a)
            lam = (an[free] @ vn[free] + clipped[~free].sum() - self.b) / self._a2[free].sum()
        return np.clip(v - lam * self.a, -self.r, self.r)

    def contains(self, z: np.ndarray) -> bool:
        z = np.asarray(z, dtype=float)
        return bool(np.all(np.abs(z) <= self._r_tol) and abs(self.a @ z - self.b) <= self._eq_tol)
