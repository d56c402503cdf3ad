"""Projection operators against brute-force oracles and convex-analysis
properties.

The oracles solve each small projection by direct enumeration of the active
sets (simplex, l1 ball) or of the 3^n clip patterns (box with hyperplane),
independent of the implementations under test.
"""

import itertools
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sfista.bench import METHODS, desk_suite
from sfista.problems import gen_qp_box, make_instance
from sfista.prox_ops import (
    Box,
    BoxHyperplane,
    L1Ball,
    Simplex,
    _SIMPLEX_EXACT,
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
        np.testing.assert_allclose(L1Ball(C).project(v), oracle_l1_ball(v, C), atol=1e-8)


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
    np.testing.assert_array_equal(L1Ball(1.0).project(v), v)


def test_l1_ball_known_value():
    # projection of (2, 0) onto the unit l1 ball is (1, 0)
    np.testing.assert_allclose(L1Ball(1.0).project(np.array([2.0, 0.0])), [1.0, 0.0])
    # symmetric overshoot splits the shrinkage
    np.testing.assert_allclose(
        L1Ball(1.0).project(np.array([1.0, 1.0])), [0.5, 0.5]
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("project", [
    project_simplex,
    L1Ball(1.0).project,
    lambda v: BoxHyperplane(np.ones(3), 0.0, 1.0).project(v),
], ids=["simplex", "l1_ball", "box_hyperplane"])
def test_nonfinite_input_raises(project, bad):
    # the check comes before any arithmetic that would warn on the entry
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="NaN or infinite"):
            project(np.array([bad, 1.0, 2.0]))


def test_box_nan_input_raises():
    # a box has no NaN or infinite check to share: an infinite entry clips to
    # its bound, and only NaN, which the clip passes through, is rejected
    box = Box(0.0, 1.0)
    with pytest.raises(ValueError, match="NaN entries"):
        box.project(np.array([np.nan, 0.5]))
    np.testing.assert_array_equal(box.project(np.array([np.inf, -np.inf, 0.5])), [1.0, 0.0, 0.5])


@pytest.mark.parametrize("lo,hi,name", [(np.nan, 1.0, "lo"), (0.0, [1.0, np.nan], "hi")],
                         ids=["lo", "hi"])
def test_box_with_a_nan_bound_names_it(lo, hi, name):
    with pytest.raises(ValueError, match=f"box bound {name} is NaN"):
        Box(lo, hi)


def test_huge_finite_input_projects():
    # u_1 - (u_1 - 1) rounds to 0 at k = 1 for 1e20
    np.testing.assert_array_equal(project_simplex(np.array([1e20, 0.0, 0.0])), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(L1Ball(1.0).project(np.array([1e20, 0.0, 0.0])), [1.0, 0.0, 0.0])
    # the shift by the maximum overflows to -inf at the last entry
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        np.testing.assert_array_equal(project_simplex(np.array([1e308, 0.0, -1e308])),
                                      [1.0, 0.0, 0.0])
        # a'v overflows, but not the all-free multiplier (a'v - b) / ||a||^2
        np.testing.assert_array_equal(
            BoxHyperplane(np.ones(4), 0.0, 1.0).project(np.array([1e308, 1e308, 0.0, 0.0])),
            [1.0, 1.0, -1.0, -1.0])


@pytest.mark.parametrize("a,b,v", [
    ([1e-3, 2.0, -3.0], 0.5, [1e308, -1e308, 1e308]),  # the kinks v_i / a_i overflow
    ([1.0, 1.0, 1.0], 0.0, [1e308, 1e308, -1e308]),  # so does the spread of the kinks
    ([1.0, 1.0, 1.0], 0.0, [1e307, 1e307, -1e307]),  # v - lam*a rounds a'z = b away
], ids=["divide", "subtract", "roundoff"])
def test_box_hyperplane_rejects_input_too_large_to_project(a, b, v):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="cannot project a vector with max"):
            BoxHyperplane(np.array(a), b, 1.0).project(np.array(v))


@pytest.mark.parametrize("a", [[1e200, 1.0, 1.0], [1e-320, 1.0, 1.0]],
                         ids=["squares-overflow", "kinks-overflow"])
def test_box_hyperplane_rejects_a_normal_that_overflows(a):
    # a_i^2 = inf in the constructor, or kinks r / a_i = inf at every projection
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="squares or its kinks overflow"):
            BoxHyperplane(np.array(a), 0.0, 1.0)


_signed_magnitude = st.builds(lambda e, s: s * 10.0 ** e, st.floats(-3.0, 308.0),
                              st.sampled_from([-1.0, 1.0]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_signed_magnitude, min_size=1, max_size=8), st.data())
@example([1e16, 1e16, -1e16], None)  # v - lam*a loses the free coordinates
def test_box_hyperplane_returns_a_member_or_raises(vals, data):
    # entries log-uniform up to 1e308: the result passes contains, or the
    # projection raises a ValueError; a result has the bytes of the plain solve
    v = np.array(vals)
    if data is None:
        a, b, r = np.ones(v.size), 0.0, 1.0
    else:
        a = np.array(data.draw(st.lists(st.floats(0.01, 3.0) | st.floats(-3.0, -0.01),
                                        min_size=v.size, max_size=v.size)))
        r = data.draw(st.floats(0.01, 100.0))
        b = data.draw(st.floats(-1.0, 1.0)) * r * float(np.abs(a).sum())
    C = BoxHyperplane(a, b, r)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            z = C.project(v)
        except ValueError:
            return
    assert C.contains(z)
    with np.errstate(all="ignore"):
        assert z.tobytes() == C._project(v).tobytes()


def test_l1_projection_of_large_input_is_a_member():
    # the running sums round ||p||_1 to radius (1 + 4.75e-8) unless rescaled
    ball = L1Ball(1e-3)
    p = ball.project(np.array([262145.0, 262145.0]))
    assert ball.contains(p)
    np.testing.assert_allclose(p, [5e-4, 5e-4], rtol=1e-15)


@settings(max_examples=300, deadline=None)
@given(st.lists(_signed_magnitude, min_size=1, max_size=40), st.floats(1e-3, 1e3))
@example([262145.0, 262145.0], 1e-3)
def test_simplex_and_l1_projections_are_members(vals, radius):
    # entries log-uniform up to 1e308: every result passes contains
    v = np.array(vals)
    ball = L1Ball(radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert Simplex().contains(Simplex().project(v))
        assert ball.contains(ball.project(v))


def test_bad_radius_raises():
    with pytest.raises(ValueError):
        L1Ball(0.0).project(np.ones(3))
    with pytest.raises(ValueError):
        project_simplex(np.ones(3), radius=-1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        project_simplex(np.ones(3), radius=math.inf)


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
    p = L1Ball(C).project(v)
    assert np.abs(p).sum() <= C * (1 + 1e-10)
    np.testing.assert_allclose(L1Ball(C).project(p), p, atol=1e-10)


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


def _searched(C, v):
    """(projection of v, its multiplier) by C's breakpoint search alone."""
    vn = v[C._nz]
    enter, leave = (vn - C._edge) / C._an, (vn + C._edge) / C._an
    lam = C._breakpoint(vn, enter, leave)
    return np.minimum(np.maximum(v - lam * C.a, -C.r), C.r), lam


def _assert_exact(C, v, z, want=None):
    """z lies in C up to roundoff, and within roundoff of `want` where given."""
    vmax, a_l1 = np.abs(v).max(), np.abs(C.a).sum()
    assert np.all(np.abs(z) <= C.r)
    assert abs(C.a @ z - C.b) <= 1e-14 * (1 + abs(C.b) + a_l1 * (C.r + vmax))
    if want is not None:
        np.testing.assert_allclose(z, want, rtol=0, atol=1e-14 * (1 + vmax))


@settings(max_examples=300, deadline=None)
@given(_box_hyperplane_case())
def test_box_hyperplane_exact_on_edge_cases(case):
    """`project` and the breakpoint search meet the same bounds."""
    v, a, b, r, kind = case
    C = BoxHyperplane(a, b, r)
    # the oracle is exact, so this bounds the solve's roundoff
    want = oracle_box_hyperplane(v, a, b, r) if v.size <= 6 else None
    for z in (C.project(v), _searched(C, v)[0]):
        _assert_exact(C, v, z, want)
        if kind == "feasible":
            np.testing.assert_allclose(z, v, rtol=0, atol=1e-14 * (1 + np.abs(a).sum() * r))


def _recorded_solve(monkeypatch, problem, z0):
    """rpf-sfista at the bench settings and eps 1e-8, with each projection's
    (input, output) and the breakpoint searches recorded."""
    outputs, searches = [], []
    project, breakpoint = BoxHyperplane.project, BoxHyperplane._breakpoint

    def recorded(self, v):
        outputs.append((v, project(self, v)))
        return outputs[-1][1]

    def counted_breakpoint(self, *args):
        searches.append(len(outputs))
        return breakpoint(self, *args)

    monkeypatch.setattr(BoxHyperplane, "project", recorded)
    monkeypatch.setattr(BoxHyperplane, "_breakpoint", counted_breakpoint)
    out = METHODS["rpf-sfista"](problem, z0, 1e-8, 60.0)
    monkeypatch.undo()
    assert out.status == "converged"
    assert len(outputs) == out.counters.prox_evals
    return problem.h_prox.__self__, outputs, searches


def test_newton_prox_matches_breakpoint_bytes(monkeypatch):
    """Every prox output of an rpf-sfista solve on a small box QP equals the
    breakpoint search's projection byte for byte."""
    problem, z0 = gen_qp_box(8, 16, "last1", 5.0, 0.0, 1e-2, 1e2, 3)
    C, outputs, _ = _recorded_solve(monkeypatch, problem, z0)
    assert len(outputs) > 1000
    for p, z in outputs:
        assert z.tobytes() == _searched(C, p)[0].tobytes()


def test_desk_box_qp_searches_at_its_first_projection_only(monkeypatch):
    """The fact the projection's design rests on: at r = 5 no desk box QP's
    solution has a coordinate at the box bound, and the all-free multiplier
    settles every projection of an rpf-sfista solve of qp_box-m40-n80-s42
    but its first, whose input lies far from the solution."""
    spec = desk_suite("qp_box", 42, 1)[0]
    assert spec.instance_id == "qp_box-m40-n80-s42"
    _, outputs, searches = _recorded_solve(monkeypatch, *make_instance(spec))
    assert len(outputs) > 1000
    assert searches == [0]


@pytest.mark.parametrize("r, a_pattern", [(0.05, "last1"), (0.02, "last10")])
def test_active_box_qp_projections_match_the_search(monkeypatch, r, a_pattern):
    """With the box active (at r = 0.05, 70 of the 80 solution coordinates of
    qp_box-m40-n80-s42 sit at a bound), rpf-sfista converges, and every
    prox output is a member of the set with the breakpoint search's bytes."""
    spec = replace(desk_suite("qp_box", 42, 1)[0], r=r, a_pattern=a_pattern)
    C, outputs, searches = _recorded_solve(monkeypatch, *make_instance(spec))
    assert len(searches) > 0
    for p, z in outputs:
        assert C.contains(z)
        assert z.tobytes() == _searched(C, p)[0].tobytes()


@st.composite
def _all_free_case(draw):
    """(C, v, nudged): a box-hyperplane set and a v whose projection has every
    coordinate free.  With nudged, one kink of coordinate k is moved to the
    all-free multiplier and then a few ulps of v_k off it, so that e_max or
    l_min lies within ulps of lam0 and lam1."""
    n = draw(st.integers(2, 12))
    a = np.array(draw(st.lists(st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
                               min_size=n, max_size=n)))
    r = draw(st.floats(0.1, 10.0))
    z = np.array(draw(st.lists(st.floats(-0.9, 0.9), min_size=n, max_size=n))) * r
    v = z + draw(st.floats(-10.0, 10.0)) * a
    C = BoxHyperplane(a, float(a @ z), r)
    nudged = draw(st.booleans())
    if nudged:
        # v_k puts kink (v_k -+ r sign(a_k)) / a_k at (a'v - b) / ||a||^2
        k = draw(st.integers(0, n - 1))
        edge = draw(st.sampled_from([-1.0, 1.0])) * r * np.sign(a[k])
        s2, rest = a @ a, a @ v - a[k] * v[k] - C.b
        v[k] = (edge * s2 + a[k] * rest) / (s2 - a[k] ** 2)
        ulps = draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            v[k] = np.nextafter(v[k], math.copysign(math.inf, ulps))
    return C, v, nudged


@settings(max_examples=300, deadline=None)
@given(_all_free_case())
def test_all_free_newton_pass_keeps_the_masked_bytes(case):
    """Where every coordinate is free, the projection runs no breakpoint
    search and equals the search's byte for byte: both take the closed form
    with every coordinate free.  Where a kink lies within ulps of the
    all-free multiplier, the two paths may take the closed forms of the two
    neighbouring segments, and both meet the edge cases' exactness bounds."""
    C, v, nudged = case
    searches = []
    breakpoint = BoxHyperplane._breakpoint
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BoxHyperplane, "_breakpoint",
                   lambda self, *args: searches.append(1) or breakpoint(self, *args))
        z = C.project(v)
    want = _searched(C, v)[0]
    if nudged:
        _assert_exact(C, v, z, want)
        _assert_exact(C, v, want)
    else:
        assert searches == []
        assert z.tobytes() == want.tobytes()


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
    # a size must be finite, and the message names the parameter
    with pytest.raises(ValueError, match="radius must be positive and finite, got inf"):
        L1Ball(np.inf)
    for bad_r in (np.inf, np.nan):
        with pytest.raises(ValueError, match="half-width r must be positive and finite"):
            BoxHyperplane(np.ones(3), 0.0, bad_r)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="normal a must be finite"):
            BoxHyperplane(np.array([1.0, bad, 1.0]), 0.0, 1.0)
    # a box keeps infinite bounds
    np.testing.assert_array_equal(Box(-np.inf, np.inf).project(np.array([3.0])), [3.0])


# ---------------------------------------------------------------------------
# same bytes as the expressions with numpy's Python-level wrappers
#
# project_simplex and L1Ball.project call np.add.accumulate, ndarray.sort,
# ndarray.nonzero and np.add.reduce directly.  These references are the
# expressions they replaced (np.sort, np.cumsum, np.flatnonzero,
# ndarray.sum); a projection must return their bytes, or raise where they
# raise, wherever the running sums are finite.  Where one overflows, the
# simplex reference takes no fallback, and on an overflow to -inf it
# returns inf entries.


def _project_simplex_reference(v, radius=1.0):
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    if not (math.isfinite(u[0]) and math.isfinite(u[-1])):
        raise ValueError("cannot project a vector with NaN or infinite entries")
    css = np.cumsum(u) - radius
    ks = np.arange(1, v.size + 1)
    positive = np.flatnonzero(u - css / ks > 0)
    if positive.size == 0:
        with np.errstate(over="ignore"):
            shifted = np.maximum(v - v.max(), -2.0 * radius)
        return _project_simplex_reference(shifted, radius)
    rho = int(positive[-1])
    x = np.maximum(v - css[rho] / (rho + 1), 0.0)
    if float(max(u[0], -u[-1])) * ((rho + 1) ** 2 + v.size) > _SIMPLEX_EXACT * float(radius):
        x = x * (radius / x.sum())
    return x


def _l1_project_reference(v, radius):
    v = np.asarray(v, dtype=float)
    if np.abs(v).sum() <= radius:
        return v.copy()
    return np.sign(v) * _project_simplex_reference(np.abs(v), radius)


def _outcome(project, v):
    """The projection's bytes, or the type of the error it raised.  Entries
    near 1e308 overflow the running sums in both versions alike."""
    with np.errstate(all="ignore"):
        try:
            return project(v).tobytes()
        except ValueError as exc:
            return type(exc)


_BIG = 1.7976931348623157e308
# ties (a few repeated values), huge entries that send project_simplex to its
# shift fallback, and entries near +-1e308
_entry = (st.floats(-10, 10, allow_nan=False)
          | st.sampled_from([0.0, -0.0, 0.25, 1.0, -1.0, 3.0])
          | st.floats(1e16, 1e30) | st.floats(-1e30, -1e16)
          | st.floats(1e300, _BIG) | st.floats(-_BIG, -1e300))
_byte_vec = (st.lists(_entry, min_size=1, max_size=12)
             | st.lists(st.floats(-10, -1e-6), min_size=1, max_size=12))  # all negative


@settings(max_examples=400, deadline=None)
@given(_byte_vec, st.floats(1e-3, 1e3))
@example([0.5], 1.0)  # n = 1
@example([0.25, 0.25, 0.25, 0.25], 1.0)  # ties
@example([-3.0, -1.0, -2.0], 2.0)  # all negative
@example([1e20, 0.0, 0.0], 1.0)  # shift fallback
@example([1e308, 0.0, -1e308], 1.0)  # the shift overflows to -inf
@example([1e308, 1e308], 1.0)  # the running sum overflows
def test_simplex_projection_keeps_the_wrapper_bytes(vals, radius):
    v = np.array(vals)
    with np.errstate(over="ignore"):
        sums_finite = math.isfinite(np.cumsum(np.sort(v)[::-1])[-1] - radius)
    if sums_finite:
        assert (_outcome(lambda v: project_simplex(v, radius), v)
                == _outcome(lambda v: _project_simplex_reference(v, radius), v))
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = project_simplex(v, radius)
        assert (x >= 0).all() and abs(x.sum() - radius) <= 1e-12 * radius * x.size


def test_overflowing_sums_project_without_warning():
    # ||v||_1 and the running sums of the sorted entries overflow; an
    # overflowed sum takes the shift fallback, which keeps them finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        np.testing.assert_array_equal(project_simplex(np.array([1e308, 1e308])), [0.5, 0.5])
        np.testing.assert_array_equal(L1Ball(1.0).project(np.array([-1e308, 1e308])),
                                      [-0.5, 0.5])
        # an overflow to -inf, where the running sums once gave inf entries
        np.testing.assert_array_equal(project_simplex(np.array([1.0, -1e308, -1e308])),
                                      [1.0, 0.0, 0.0])
        # a radius so large that the shifted sums overflow too is an error,
        # not a shift repeated without end
        with pytest.raises(ValueError, match="radius too large"):
            project_simplex(np.array([1.0, -1e308]), radius=1e308)


@pytest.mark.parametrize("vals", [[1e308, 1e308], [-1e308, -1e308, 1.0], [1e308, -1e308]])
def test_contains_huge_finite_input_without_warning(vals):
    # the sums of these entries overflow; no such point is a member
    z = np.array(vals)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert Simplex().contains(z) is False
        assert L1Ball(1.0).contains(z) is False
        assert Simplex().indicator(z) == math.inf


@pytest.mark.parametrize("vals,member", [
    ([0.5, 0.5], True), ([1.0, 0.0, 0.0], True), ([1.0 + 1e-10, 0.0], True),
    ([2.0, -1.0], False), ([1.5, -0.5], False), ([0.5, 0.5 + 1e-8], False), ([2.5, 0.0], False),
    ([np.nan, 1.0], False), ([np.inf, 0.0], False), ([-np.inf, 1.0], False),
])
def test_simplex_contains_answers(vals, member):
    assert Simplex().contains(np.array(vals)) is member


@pytest.mark.parametrize("vals,member", [
    ([0.5, -0.5], True), ([1.0, 0.0], True), ([1.0 + 1e-10], True),
    ([0.5, 0.5 + 1e-8], False), ([2.0, 0.0], False), ([np.nan], False), ([np.inf], False),
])
def test_l1_ball_contains_answers(vals, member):
    assert L1Ball(1.0).contains(np.array(vals)) is member


@settings(max_examples=400, deadline=None)
@given(_byte_vec, st.floats(1e-3, 1e3))
def test_contains_keeps_the_answers_of_the_plain_sums(vals, radius):
    # the parent's tests, which warn where a sum overflows, on the inputs and
    # on their projections (members, up to roundoff)
    ball = L1Ball(radius)
    v = np.array(vals)
    for z in (v, project_simplex(v), ball.project(v)):
        with np.errstate(over="ignore"):
            in_simplex = bool((z >= -1e-9).all() and abs(np.add.reduce(z) - 1.0) <= 1e-9 * z.size)
            in_ball = bool(np.add.reduce(np.abs(z)) <= ball.radius * (1.0 + 1e-9))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert Simplex().contains(z) is in_simplex
            assert ball.contains(z) is in_ball


@settings(max_examples=400, deadline=None)
@given(_byte_vec, st.floats(1e-3, 1e3), st.sampled_from([1e-3, 0.1, 1.0]))
@example([0.5], 1.0, 1.0)  # n = 1, interior
@example([0.1, -0.2, 0.3], 1.0, 1.0)  # interior
@example([1.0, 1.0, -1.0, -1.0], 1.0, 1.0)  # ties of |v|
@example([-3.0, -1.0, -2.0], 2.0, 1.0)  # all negative
@example([1e20, 0.0, 0.0], 1.0, 1.0)  # shift fallback
@example([-1e308, 1e308], 1.0, 1.0)  # ||v||_1 overflows
def test_l1_projection_keeps_the_wrapper_bytes(vals, radius, shrink):
    # shrink scales v toward the ball, so many draws land inside it
    v = np.array(vals) * shrink
    ball = L1Ball(radius)
    assert _outcome(ball.project, v) == _outcome(lambda v: _l1_project_reference(v, radius), v)
