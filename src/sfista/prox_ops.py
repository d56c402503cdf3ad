"""Exact Euclidean projections used as prox operators for indicator h.

The prox of an indicator is the projection onto the set, independent of the
step size.  Each constraint set is one object: `Simplex()`, `L1Ball(radius)`,
`Box(lo, hi)` or `BoxHyperplane(a, b, r)`.  Its constructor validates the
parameters once and stores the constants every projection reuses, and its
bound methods `prox` and `indicator` are a CompositeProblem's h_prox and
h_eval.  A projection depends on its input alone: no set keeps state between
calls, so threads can share one.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ConvexSet",
    "Simplex",
    "L1Ball",
    "Box",
    "BoxHyperplane",
    "project_simplex",
]

# contains(z) admits constraint violations of this order, scaled to each set
_FEAS_TOL = 1e-9
# roundoff in the running sums to the threshold index rho, and in entries near
# the threshold, moves a simplex projection's sum off its radius by at most about
# eps ((rho + 1)^2 + n) max |v_i|.  Below this ratio of that product to the
# radius, that is a quarter of _FEAS_TOL times the radius or less
_SIMPLEX_EXACT = _FEAS_TOL / (4 * float(np.finfo(float).eps))


def project_simplex(v: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {x >= 0 : sum x_i = radius}.

    Sort-and-threshold, O(n log n).  Ties are resolved by the largest prefix
    with a positive threshold, which is the standard deterministic rule.
    Input so large that roundoff could move the sum off the radius by
    _FEAS_TOL times it is rescaled to sum to the radius, so that `contains`
    accepts every result; smaller input skips that step.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    if not 0 < radius < math.inf:
        raise ValueError("simplex radius must be positive and finite")
    # np.sort, np.cumsum and np.flatnonzero's own calls, without their wrappers
    u = v.copy()
    u.sort()
    u = u[::-1]
    # NaN sorts last, so first after the reversal, and an infinity sorts to
    # an end: two tests find either before the sums would warn on them
    if not (math.isfinite(u[0]) and math.isfinite(u[-1])):
        raise ValueError("cannot project a vector with NaN or infinite entries")
    # a Python float, whose products overflow to inf without numpy's warning
    v_max = float(max(u[0], -u[-1]))
    # n max|v_i| + radius bounds the running sums; one that overflows takes the shift below
    if v_max < (1e308 - radius) / v.size:
        css = np.add.accumulate(u) - radius
    else:
        with np.errstate(over="ignore"):
            css = np.add.accumulate(u) - radius
    ks = np.arange(1, v.size + 1)
    positive = (u - css / ks > 0).nonzero()[0]
    if positive.size == 0 or not math.isfinite(css[-1]):
        # k = 1 always qualifies unless v is so large that u_1 - (u_1 -
        # radius) rounds to 0 or a running sum overflows; shifting v by a
        # constant does not move the projection and makes k = 1 qualify.
        # Entries below -radius after the shift project to 0, so the floor
        # moves nothing and keeps an entry the shift overflows to -inf finite
        with np.errstate(over="ignore"):
            shifted = np.maximum(v - v.max(), -2.0 * radius)
        if np.array_equal(shifted, v):  # the sums overflow on the radius alone
            raise ValueError("simplex radius too large: the running sums overflow")
        return project_simplex(shifted, radius)
    rho = int(positive[-1])
    theta = css[rho] / (rho + 1)
    x = np.maximum(v - theta, 0.0)
    if v_max * ((rho + 1) ** 2 + v.size) > _SIMPLEX_EXACT * float(radius):
        x *= radius / np.add.reduce(x)
    return x


class ConvexSet:
    """A nonempty closed convex set C, for h = delta_C.

    Subclasses define project(v), the Euclidean projection onto C, and
    contains(z), membership up to _FEAS_TOL.  Every projection of the four
    sets below passes their `contains`, or raises.  So where a problem's
    h_prox and h_eval are one of their bound `prox` and `indicator`, the
    solvers take h = 0 at each prox output without calling `contains`, and
    evaluate h only at the start point and at the y they return.
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
        # members have z_i <= 1 + (2n - 1) tol < 2; entries below 2 keep the sum finite
        z = np.asarray(z, dtype=float)
        return bool(-_FEAS_TOL <= np.minimum.reduce(z) and np.maximum.reduce(z) <= 2.0
                    and abs(np.add.reduce(z) - 1.0) <= _FEAS_TOL * z.size)


class L1Ball(ConvexSet):
    """The l1 ball {z : ||z||_1 <= radius}."""

    def __init__(self, radius: float):
        if not 0 < radius < math.inf:
            raise ValueError(f"l1-ball radius must be positive and finite, got {radius}")
        self.radius = float(radius)
        self._limit = self.radius * (1.0 + _FEAS_TOL)

    def project(self, v: np.ndarray) -> np.ndarray:
        """Interior points are returned unchanged; otherwise reduce to a
        simplex projection of |v| with the ball's radius and restore signs."""
        v = np.asarray(v, dtype=float)
        a = np.abs(v)
        with np.errstate(over="ignore"):  # an overflowed ||v||_1 is inf: outside
            inside = np.add.reduce(a) <= self.radius
        if inside:
            return v.copy()
        return np.sign(v) * project_simplex(a, radius=self.radius)

    def contains(self, z: np.ndarray) -> bool:
        # members have |z_i| <= ||z||_1; the first test bounds the sum by n times the limit
        a = np.abs(z)
        return bool(np.maximum.reduce(a) <= self._limit and np.add.reduce(a) <= self._limit)


class Box(ConvexSet):
    """The box {z : lo <= z <= hi}; lo and hi are scalars or arrays."""

    def __init__(self, lo, hi):
        lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        for name, bound in (("lo", lo), ("hi", hi)):
            if np.isnan(bound).any():
                raise ValueError(f"box bound {name} is NaN somewhere")
        if not np.all(lo <= hi):
            raise ValueError("box is empty: lo > hi somewhere")
        self.lo, self.hi = lo, hi
        self._lo_tol, self._hi_tol = lo - _FEAS_TOL, hi + _FEAS_TOL

    def project(self, v: np.ndarray) -> np.ndarray:
        """The clip of v to the box; an infinite entry clips to its bound."""
        z = np.clip(np.asarray(v, dtype=float), self.lo, self.hi)
        if np.isnan(z).any():  # the clip passes NaN through
            raise ValueError("cannot project a vector with NaN entries")
        return z

    def contains(self, z: np.ndarray) -> bool:
        z = np.asarray(z, dtype=float)
        return bool(np.all(z >= self._lo_tol) and np.all(z <= self._hi_tol))


class BoxHyperplane(ConvexSet):
    """The set {z : a'z = b, -r <= z_i <= r}.

    The projection of v is clip(v - lam*a, -r, r) for a multiplier lam at
    which g(lam) = a'clip(v - lam*a, -r, r) - b is zero.  g is nonincreasing
    and piecewise linear: coordinate i (a_i != 0) is free, with slope -a_i^2,
    for lam between its two kinks (v_i -+ r sign(a_i)) / a_i and clipped
    outside.  On the segment where g reaches zero, lam solves a'z = b in
    closed form from the free set F and the clipped values z_C:
    lam = (a_F'v_F + a_C'z_C - b) / ||a_F||^2.  The result is exact up to
    roundoff; there is no tolerance.  Coordinates with a_i = 0 are
    clip(v_i, -r, r).

    Where every coordinate is free at lam = (a'v - b) / ||a||^2, as on a box
    that no coordinate of the solution reaches, that lam is the root, and
    the test is max enter < lam < min leave.  Otherwise Kiwiel's breakpoint
    search (2008) finds the root's segment: one sort of the 2n kinks and a
    cumsum of the slope changes give g at every kink, O(n log n).  Both give
    the same bytes where every coordinate is free.  On an active box the
    search takes about 40 us per projection at n = 80 (qp_box-m40-n80-s42 at
    r = 0.05, and at r = 0.02 with `last10`).

    Input with NaN or infinite entries raises a ValueError, and so does input
    so large that the multiplier overflows or v - lam*a rounds a'z = b away:
    past the size where roundoff could break a'z = b (for a of ones, about
    1e-9 r / (4 n^1.5 eps): 8e3 at n = 80, r = 5), each result is checked with
    `contains`, so every projection returns a member of the set or raises.
    A normal whose squares or kinks overflow is rejected.
    """

    def __init__(self, a, b: float, r: float):
        a = np.array(a, dtype=float)
        if not 0 < r < math.inf:
            raise ValueError(f"box half-width r must be positive and finite, got {r}")
        if not np.isfinite(a).all():
            raise ValueError("hyperplane normal a must be finite")
        if not np.any(a):
            raise ValueError("hyperplane normal a must be nonzero")
        nz = np.flatnonzero(a)
        a_abs = np.abs(a[nz])
        lo, hi = float(a_abs.min()), float(a_abs.max())
        # a_i^2 must be nonzero, and ||a||^2, r ||a||_1 and the kinks
        # (z_i -+ r) / a_i of every point of the box finite
        if not (lo * lo > 0 and a_abs.size * hi * max(hi, r) < math.inf and 2 * r / lo < math.inf):
            raise ValueError("hyperplane normal a is too large or too small for r: "
                             "its squares or its kinks overflow")
        reach = r * np.abs(a).sum()
        if not (-reach <= b <= reach):
            raise ValueError("feasible set {a'z = b, -r <= z <= r} is empty")
        self.a, self.b, self.r = a, float(b), float(r)
        self._reach = reach
        self._nz = nz
        an = self._an = a[nz]
        self._edge = r * np.sign(an)
        self._a2 = an * an
        # the multiplier with every coordinate free is a_free'v - b_free.
        # a_i v_i / ||a||^2 = (a_i^2 / ||a||^2) (v_i / a_i), so that sum
        # cannot overflow where the kinks do not
        a2_sum = self._a2_sum = float(np.add.reduce(self._a2))
        self._a_free, self._b_free = an / a2_sum, self.b / a2_sum
        # a kink changes g's slope by -a_i^2 where coordinate i enters the
        # free set and by +a_i^2 where it leaves, and the free count by +-1
        self._slope_steps = np.concatenate((-self._a2, self._a2))
        self._free_steps = np.repeat([1, -1], an.size)
        # |a_i z_i| of a clipped coordinate
        self._r_abs_a = r * a_abs
        self._r_tol = r * (1.0 + _FEAS_TOL)
        self._eq_tol = _FEAS_TOL * (1.0 + abs(b) + np.linalg.norm(a) * r)
        # below this max |v_i| no step of the search can overflow: each is at
        # most about n max(1, ||a||^2) / min(1, min |a_i|)^2 times max |v_i|.
        # Nor can roundoff break a'z = b past _eq_tol: z = clip(v - lam a)
        # misses it by at most about 4 n eps (||a||_1 (max |v_i| + r) + |b|)
        n_eps = 4 * an.size * np.finfo(float).eps
        self._v_safe = min(1e300 * min(1.0, lo) ** 2 / (an.size * max(1.0, a2_sum)),
                           (self._eq_tol / n_eps - abs(b)) / float(a_abs.sum()) - r)

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        # one reduction screens out NaN, inf and huge entries alike
        v_max = np.maximum.reduce(np.abs(v))
        if not v_max <= self._v_safe:
            if not np.isfinite(v).all():
                raise ValueError("cannot project a vector with NaN or infinite entries")
            # z = clip(v - lam a) with a'z = b is the projection; at this
            # size lam may overflow, or v - lam a round a'z = b away
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    z = self._project(v)
            except FloatingPointError:
                z = None
            if z is None or not self.contains(z):
                raise ValueError(f"cannot project a vector with max |v_i| = {v_max:.3g}: "
                                 "its multiplier overflows or rounds a'z = b away")
            return z
        return self._project(v)

    def _project(self, v: np.ndarray) -> np.ndarray:
        an, vn = self._an, v[self._nz]
        # coordinate i is free for lam in [enter_i, leave_i], at +r sign(a_i)
        # before and at -r sign(a_i) after
        enter, leave = (vn - self._edge) / an, (vn + self._edge) / an
        # all free at lam in its overflow-free form, then at lam summed as the
        # search's closed form sums it with every coordinate free (+ 0.0, the
        # sum of no clipped terms, turns a -0.0 into 0.0 as that sum does)
        e_max, l_min = np.maximum.reduce(enter), np.minimum.reduce(leave)
        lam = self._a_free.dot(vn) - self._b_free
        if e_max < lam < l_min:
            lam = (an @ vn + 0.0 - self.b) / self._a2_sum
        if not e_max < lam < l_min:
            lam = self._breakpoint(vn, enter, leave)
        # np.clip without its Python-level wrapper; v and lam are finite
        return np.minimum(np.maximum(v - lam * self.a, -self.r), self.r)

    def _breakpoint(self, vn: np.ndarray, enter: np.ndarray, leave: np.ndarray) -> float:
        """The multiplier by Kiwiel's breakpoint search."""
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
            return kinks[0]
        # the closed form on segment [kinks[j-1], kinks[j]]: a_i z_i of a
        # clipped coordinate is r|a_i| before its kinks, -r|a_i| after
        free = (enter <= kinks[j - 1]) & (leave >= kinks[j])
        clipped = np.where(enter >= kinks[j], self._r_abs_a, -self._r_abs_a)
        # np.add.reduce is ndarray.sum without its Python-level wrapper
        return ((self._an[free] @ vn[free] + np.add.reduce(clipped[~free]) - self.b)
                / np.add.reduce(self._a2[free]))

    def contains(self, z: np.ndarray) -> bool:
        z = np.asarray(z, dtype=float)
        return bool((np.abs(z) <= self._r_tol).all() and abs(self.a @ z - self.b) <= self._eq_tol)
