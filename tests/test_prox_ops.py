"""Projection operators against brute-force oracles and convex-analysis
properties.

The oracles solve each small projection by direct enumeration of the active
sets (simplex, l1 ball) or of the 3^n clip patterns (box with hyperplane),
independent of the implementations under test.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sfista.prox_ops import (
    Box,
    BoxHyperplane,
    L1Ball,
    Simplex,
    project_l1_ball,
    project_simplex,
)


# ---------------------------------------------------------------------------
# brute-force oracles


def oracle_simplex(v, radius=1.0):
    """Enumerate support sets: for each candidate support S, the KKT solution
    puts x_i = v_i - theta on S with theta = (sum_S v_i - radius)/|S|; keep the
    feasible candidate closest to v."""
    v = np.asarray(v, dtype=float)
    n = v.size
    best, best_d = None, np.inf
    for k in range(1, n + 1):
        for S in itertools.combinations(range(n), k):
            S = list(S)
            theta = (v[S].sum() - radius) / len(S)
            x = np.zeros(n)
            x[S] = v[S] - theta
            if np.any(x[S] < -1e-12):
                continue
            x = np.maximum(x, 0.0)
            d = float(((x - v) ** 2).sum())
            if d < best_d - 1e-15:
                best, best_d = x, d
    return best


def oracle_l1_ball(v, C):
    v = np.asarray(v, dtype=float)
    if np.abs(v).sum() <= C:
        return v.copy()
    w = oracle_simplex(np.abs(v), radius=C)
    return np.sign(v) * w


def oracle_box_hyperplane(v, a, b, r):
    """Enumerate clip patterns: each coordinate is at -r, at +r, or free.
    Free coordinates satisfy x_i = v_i - lam a_i with lam fixed by a'x = b.
    Return the first candidate that meets the KKT conditions (free
    coordinates inside the box, clipped ones on the side their multiplier
    sign demands, a'x = b), which are sufficient, so it is the projection.

    The arithmetic is exact: the inputs are floats, so all are integer
    multiples of 1/S for one power of two S.  lam = num/den is kept as a
    fraction, and each test is an integer comparison after multiplying
    through by S den > 0.  The answer is rounded to float once, at the end.
    """
    v = [Fraction(float(t)) for t in v]
    a = [Fraction(float(t)) for t in a]
    b, r = Fraction(float(b)), Fraction(float(r))
    n = len(v)
    S = max(t.denominator for t in v + a + [b, r])  # a power of two
    V, A = [int(t * S) for t in v], [int(t * S) for t in a]
    B, R = int(b * S * S), int(r * S)  # B at the scale of A'V
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        free = [i for i in range(n) if pattern[i] == 0]
        den = sum(A[i] ** 2 for i in free)
        num = sum(A[i] * V[i] for i in free) + sum(A[i] * R * pattern[i] for i in range(n)) - B
        if free and den == 0:
            continue  # lam is undetermined; another pattern frees a coordinate with a_i != 0
        if not free:
            if num != 0:  # a'x misses b
                continue
            den = 1
        # S * den * (v_i - lam a_i)
        inner = [V[i] * den - num * A[i] for i in range(n)]
        if all(abs(inner[i]) <= R * den if pattern[i] == 0 else
               pattern[i] * (inner[i] - pattern[i] * R * den) >= 0 for i in range(n)):
            return np.array([float(Fraction(inner[i], den * S)) if pattern[i] == 0
                             else float(pattern[i] * r) for i in range(n)])
    return None


# ---------------------------------------------------------------------------
# oracle equivalence


def test_simplex_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(80):
        n = int(rng.integers(1, 7))
        v = rng.uniform(-3, 3, size=n)
        np.testing.assert_allclose(project_simplex(v), oracle_simplex(v), atol=1e-8)


def test_l1_ball_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(80):
        n = int(rng.integers(1, 7))
        v = rng.uniform(-3, 3, size=n)
        C = float(rng.uniform(0.2, 4.0))
        np.testing.assert_allclose(project_l1_ball(v, C), oracle_l1_ball(v, C), atol=1e-8)


def test_box_hyperplane_matches_oracle():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 60:
        n = int(rng.integers(2, 6))
        a = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)
        r = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(-0.8, 0.8) * r * np.abs(a).sum())
        v = rng.uniform(-2 * r, 2 * r, size=n)
        got = BoxHyperplane(a, b, r).project(v)
        want = oracle_box_hyperplane(v, a, b, r)
        assert want is not None
        np.testing.assert_allclose(got, want, atol=1e-7)
        checked += 1


# ---------------------------------------------------------------------------
# known values


def test_simplex_known_values():
    np.testing.assert_allclose(project_simplex(np.array([0.2, 0.3])), [0.45, 0.55])
    np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
    np.testing.assert_allclose(project_simplex(np.array([5.0])), [1.0])
    out = project_simplex(np.array([0.5, 0.5, -10.0]))
    np.testing.assert_allclose(out, [0.5, 0.5, 0.0])


def test_simplex_output_feasible():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = project_simplex(rng.uniform(-5, 5, size=int(rng.integers(1, 30))))
        assert np.all(x >= 0)
        assert abs(x.sum() - 1.0) < 1e-12


def test_l1_interior_point_unchanged():
    v = np.array([0.1, -0.2, 0.3])
    np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)


def test_l1_ball_known_value():
    # projection of (2, 0) onto the unit l1 ball is (1, 0)
    np.testing.assert_allclose(project_l1_ball(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])
    # symmetric overshoot splits the shrinkage
    np.testing.assert_allclose(
        project_l1_ball(np.array([1.0, 1.0]), 1.0), [0.5, 0.5]
    )


def test_box_hyperplane_known_value():
    # free solution v - lam*a already in the box
    v = np.array([1.0, -1.0])
    a = np.array([1.0, 1.0])
    got = BoxHyperplane(a, 0.0, 5.0).project(v)
    np.testing.assert_allclose(got, [1.0, -1.0], atol=1e-10)
    # clipping active
    got = BoxHyperplane(a, 0.0, 1.0).project(np.array([10.0, 0.0]))
    np.testing.assert_allclose(got, [1.0, -1.0], atol=1e-9)


def test_box_hyperplane_oracle_is_exact():
    # the nearby box corner (-0.5, 0.5) misses a'x = b by only 2e-9
    v, a, b, r = np.array([0.0, 500.0]), np.array([-2.0, -2.0]), 2e-9, 0.5
    want = [-0.5, 0.499999999]
    assert oracle_box_hyperplane(v, a, b, r).tolist() == want
    np.testing.assert_allclose(BoxHyperplane(a, b, r).project(v), want, rtol=0,
                               atol=1e-14 * (1 + 500.0))


def test_box_hyperplane_infeasible_raises():
    with pytest.raises(ValueError):
        BoxHyperplane(np.ones(2), 100.0, 1.0)


def test_empty_vector_raises():
    with pytest.raises(ValueError):
        project_simplex(np.array([]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("project", [
    project_simplex,
    lambda v: project_l1_ball(v, 1.0),
    lambda v: BoxHyperplane(np.ones(3), 0.0, 1.0).project(v),
], ids=["simplex", "l1_ball", "box_hyperplane"])
def test_nonfinite_input_raises(project, bad):
    with pytest.raises(ValueError, match="NaN or infinite"):
        project(np.array([bad, 1.0, 2.0]))


def test_huge_finite_input_projects():
    # u_1 - (u_1 - 1) rounds to 0 at k = 1 for 1e20
    np.testing.assert_array_equal(project_simplex(np.array([1e20, 0.0, 0.0])), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(project_l1_ball(np.array([1e20, 0.0, 0.0]), 1.0), [1.0, 0.0, 0.0])


def test_bad_radius_raises():
    with pytest.raises(ValueError):
        project_l1_ball(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        project_simplex(np.ones(3), radius=-1.0)


# ---------------------------------------------------------------------------
# property suites (idempotence, nonexpansiveness, feasibility)

_vec = st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(_vec)
def test_simplex_idempotent(vals):
    v = np.asarray(vals)
    p = project_simplex(v)
    np.testing.assert_allclose(project_simplex(p), p, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(_vec, _vec)
def test_simplex_nonexpansive(u_vals, v_vals):
    n = min(len(u_vals), len(v_vals))
    u, v = np.asarray(u_vals[:n]), np.asarray(v_vals[:n])
    pu, pv = project_simplex(u), project_simplex(v)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9


@settings(max_examples=60, deadline=None)
@given(_vec, st.floats(0.1, 5.0))
def test_l1_idempotent_and_feasible(vals, C):
    v = np.asarray(vals)
    p = project_l1_ball(v, C)
    assert np.abs(p).sum() <= C * (1 + 1e-10)
    np.testing.assert_allclose(project_l1_ball(p, C), p, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=6),
       st.floats(0.5, 3.0))
def test_box_hyperplane_idempotent_and_feasible(vals, r):
    v = np.asarray(vals)
    a = np.ones(v.size)
    a[-1] = -1.0
    C = BoxHyperplane(a, 0.0, r)
    p = C.project(v)
    assert np.all(np.abs(p) <= r + 1e-10)
    assert abs(a @ p) <= 1e-9 * (1 + r * v.size)
    p2 = C.project(p)
    np.testing.assert_allclose(p2, p, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=6),
       st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=6))
def test_box_hyperplane_nonexpansive(u_vals, v_vals):
    n = min(len(u_vals), len(v_vals))
    u, v = np.asarray(u_vals[:n]), np.asarray(v_vals[:n])
    a = np.ones(n)
    a[-1] = -1.0
    C = BoxHyperplane(a, 0.0, 2.0)
    pu, pv = C.project(u), C.project(v)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-7


_coef = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _box_hyperplane_case(draw):
    """Zeros in a, single-point sets b = +-r||a||_1, repeated kinks (equal
    coordinates of a and v on a coarse grid), feasible v, and |v| up to 1e6."""
    n = draw(st.integers(1, 8))
    a = np.array(draw(st.lists(_coef, min_size=n, max_size=n)))
    assume(np.any(a))
    r = draw(st.sampled_from([0.5, 1.0, 3.0]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6]))
    grid = st.integers(-4, 4).map(lambda k: k * 0.5 * scale)
    v = np.array(draw(st.lists(grid | st.floats(-scale, scale), min_size=n, max_size=n)))
    reach = r * np.abs(a).sum()
    kind = draw(st.sampled_from(["upper", "lower", "feasible", "interior"]))
    if kind == "feasible":
        v = np.clip(v, -r, r)
        b = float(a @ v)
    elif kind == "interior":
        b = draw(st.floats(-1.0, 1.0)) * reach
    else:
        b = reach if kind == "upper" else -reach
    return v, a, b, r, kind


@settings(max_examples=300, deadline=None)
@given(_box_hyperplane_case())
def test_box_hyperplane_exact_on_edge_cases(case):
    v, a, b, r, kind = case
    z = BoxHyperplane(a, b, r).project(v)
    vmax = np.abs(v).max()
    assert np.all(np.abs(z) <= r)
    assert abs(a @ z - b) <= 1e-14 * (1 + abs(b) + np.abs(a).sum() * (r + vmax))
    if kind == "feasible":
        np.testing.assert_allclose(z, v, rtol=0, atol=1e-14 * (1 + np.abs(a).sum() * r))
    if v.size <= 6:  # the oracle is exact, so this bounds the solve's roundoff
        np.testing.assert_allclose(z, oracle_box_hyperplane(v, a, b, r), rtol=0,
                                   atol=1e-14 * (1 + vmax))


# ---------------------------------------------------------------------------
# constraint-set objects


@st.composite
def _set_and_point(draw):
    """One of the four sets with drawn parameters, and a v of its dimension
    with entries up to 1e6 times the set's size (1, the radius or r).

    contains() admits a violation of 1e-9 times the set's size, and roundoff
    in a projection is ~1e-16 |v|, so at |v| beyond ~1e7 times the size the
    indicator can reject a correct projection.
    """
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["simplex", "l1_ball", "box", "box_hyperplane"]))
    size = 1.0
    if kind == "simplex":
        C = Simplex()
    elif kind == "l1_ball":
        size = draw(st.floats(1e-3, 1e3))
        C = L1Ball(size)
    elif kind == "box":
        lo = np.array(draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
        width = np.array(draw(st.lists(st.floats(0, 10), min_size=n, max_size=n)))
        C = Box(lo, lo + width)
    else:
        a = np.array(draw(st.lists(_coef, min_size=n, max_size=n)))
        assume(np.any(a))
        size = draw(st.floats(0.1, 10.0))
        C = BoxHyperplane(a, draw(st.floats(-1.0, 1.0)) * size * np.abs(a).sum(), size)
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6])) * size
    v = np.array(draw(st.lists(st.floats(-scale, scale), min_size=n, max_size=n)))
    return C, v


@settings(max_examples=300, deadline=None)
@given(_set_and_point())
def test_projection_is_in_the_set(case):
    C, v = case
    assert C.indicator(C.project(v)) == 0.0


@settings(max_examples=100, deadline=None)
@given(_set_and_point(), st.floats(1e-12, 1e12), st.floats(max_value=0.0) | st.just(np.nan))
def test_prox_is_projection_for_positive_lam(case, lam, bad_lam):
    C, v = case
    assert C.prox(v, lam).tobytes() == C.project(v).tobytes()
    with pytest.raises(ValueError, match="prox step must be positive"):
        C.prox(v, bad_lam)


def test_spec_box():
    C = Box(-np.ones(2), np.ones(2))
    np.testing.assert_allclose(C.project(np.array([3.0, -0.5])), [1.0, -0.5])
    assert C.indicator(np.array([2.0, 0.0])) == np.inf


def test_spec_validation():
    for bad_radius in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="radius must be positive"):
            L1Ball(bad_radius)
    with pytest.raises(ValueError, match="box is empty"):
        Box(np.ones(2), -np.ones(2))
    with pytest.raises(ValueError, match="normal a must be nonzero"):
        BoxHyperplane(np.zeros(3), 0.0, 1.0)
    with pytest.raises(ValueError, match="half-width r must be positive"):
        BoxHyperplane(np.ones(3), 0.0, 0.0)
    with pytest.raises(ValueError, match="is empty"):
        BoxHyperplane(np.ones(3), 3.5, 1.0)
