"""The smooth oracle: the solvers carry every smooth image, and with it a
quadratic's gradient.

Every generator family builds its f as a SmoothFunction whose image is one
flat ndarray, affine in z, and the solvers hold each point with its image
appended (CountingOracle.lift).  A quadratic's image holds its gradient
(the lasso's ends with it; a QP's is its gradient), and an A-REG subproblem
keeps its base image, so an affine combination of points carries both and
only prox outputs need a fresh image.
These tests pin the layout of a lifted point, that f and grad f from a fresh
image are exactly the separate calls, that images are affine, that carried
ones stay within roundoff of fresh ones over long runs, that replacing an
oracle (as timing wrappers do) falls back to the separate calls and reaches
the same answer to within the tolerance, that every raw oracle call is
counted, and how many images, gradients and matrix-vector products an
iteration costs.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfista.a_reg import ARegConfig, build_subproblem, solve_areg
from sfista.baselines import (
    BaselineConfig,
    solve_fista_bt,
    solve_fista_restart,
    solve_greedy_fista,
    solve_rada_fista,
)
from sfista.bench import METHODS, desk_suite
from sfista.core import (
    CountingOracle,
    SmoothFunction,
    eval_phi,
    smooth_of,
)
from sfista.problems import (
    gen_lasso,
    gen_lasso_random,
    gen_logistic,
    gen_qp_box,
    gen_qp_simplex,
    make_instance,
    opnorm_sq,
)
from sfista.rpf_sfista import SfistaConfig, solve_sfista

_EPS = np.finfo(float).eps

_GENERATORS = {
    "logistic": lambda: gen_logistic(30, 20, 1.0, 3),
    "lasso": lambda: gen_lasso_random(20, 40, 2.0, 3),
    "qp_simplex": lambda: gen_qp_simplex(10, 16, 100.0, 1e-2, 1e2, 3),
    "qp_box": lambda: gen_qp_box(8, 16, "last1", 5.0, 0.0, 1e-2, 1e2, 3),
}
_FAMILIES = sorted(_GENERATORS) + ["a-reg subproblem"]
_BUILT = {}


def _instance(family):
    if family not in _BUILT:
        if family == "a-reg subproblem":
            problem, z0 = _instance("lasso")
            _BUILT[family] = build_subproblem(problem, 0.25, z0), z0
        else:
            _BUILT[family] = _GENERATORS[family]()
    return _BUILT[family]


def _plain(problem):
    """problem with f_eval and f_grad replaced by plain wrappers, as the
    benchmark's timing wrappers do; this unbinds them from the SmoothFunction."""
    f_eval, f_grad = problem.f_eval, problem.f_grad
    return replace(problem, f_eval=lambda z: f_eval(z), f_grad=lambda z: f_grad(z))


def _scale(smooth, dim):
    """(||c||, ||K||) for the affine image(z) = K z + c.

    A fresh image holds roundoff of order eps (||c|| + ||K|| ||z||), the
    scale the bounds below are stated in.
    """
    c = smooth.image(np.zeros(dim))
    K = np.column_stack([smooth.image(e) - c for e in np.eye(dim)])
    return float(np.linalg.norm(c)), float(np.linalg.norm(K, 2))


# the image's length: logistic t = Dz (m = 30); lasso r = Az - b and A'r
# (m = 20, n = 40); a QP's is its gradient Hz - c (n = 16); an A-REG
# subproblem's is its base problem's, here the lasso's
_IMAGE_LENGTH = {"logistic": 30, "lasso": 20 + 40, "qp_simplex": 16, "qp_box": 16,
                 "a-reg subproblem": 20 + 40}


@pytest.mark.parametrize("family", _FAMILIES)
def test_lifted_point_layout(family):
    # z, then its image; for plain callables the image is empty, so the
    # lifted point is a copy of z
    problem, z0 = _instance(family)
    P = CountingOracle(problem).lift(z0)
    assert P.shape == (problem.dim + _IMAGE_LENGTH[family],)
    assert P[:problem.dim].tobytes() == z0.tobytes()
    P = CountingOracle(_plain(problem)).lift(z0)
    assert P.tobytes() == z0.tobytes() and not np.shares_memory(P, z0)


@pytest.mark.parametrize("family", _FAMILIES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fused_oracle_equals_separate_calls(family, data):
    problem, _ = _instance(family)
    assert isinstance(problem.f_eval.__self__, SmoothFunction)
    assert smooth_of(problem) is problem.f_eval.__self__
    z = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=problem.dim,
                                    max_size=problem.dim)))
    oracle = CountingOracle(problem)
    P = oracle.lift(z)
    assert P[oracle.pt].tobytes() == z.tobytes()
    f = oracle.f(P)
    assert (oracle.counters.f_evals, oracle.counters.grad_evals) == (1, 0)
    g = oracle.grad(P)
    assert (oracle.counters.f_evals, oracle.counters.grad_evals) == (1, 1)
    assert float(f).hex() == float(problem.f_eval(z)).hex()
    assert g.tobytes() == np.asarray(problem.f_grad(z), dtype=float).tobytes()


@pytest.mark.parametrize("family", _FAMILIES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_image_is_affine(family, data):
    # the contract of SmoothFunction, which carrying relies on:
    # image(w z1 + (1 - w) z2) = w image(z1) + (1 - w) image(z2), to roundoff.
    # A quadratic's grad returns a block of its image, so it is carried too
    problem, _ = _instance(family)
    smooth = smooth_of(problem)
    vectors = st.lists(st.floats(-3.0, 3.0), min_size=problem.dim, max_size=problem.dim)
    z1, z2 = np.array(data.draw(vectors)), np.array(data.draw(vectors))
    k1 = smooth.image(z1)
    quadratic = family in ("lasso", "qp_box", "qp_simplex")
    assert np.shares_memory(smooth.grad(z1, k1), k1) == quadratic
    w = data.draw(st.floats(-2.0, 3.0))
    z = w * z1 + (1.0 - w) * z2
    carried = w * k1 + (1.0 - w) * smooth.image(z2)
    k0, nK = _scale(smooth, problem.dim)
    weights = 1.0 + abs(w) + abs(1.0 - w)
    zmax = max(float(np.linalg.norm(z1)), float(np.linalg.norm(z2)))
    bound = 4.0 * _EPS * weights * (k0 + nK * zmax)
    assert float(np.max(np.abs(smooth.image(z) - carried))) <= bound


@pytest.mark.parametrize("family", ["qp_box", "qp_simplex"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_qp_value_agrees_with_its_gradient(family, data):
    # a QP's image is its gradient g = Hz - c, which grad returns as it is,
    # so the gradient is computed and counted with the image.  Its value
    # z'(g - c) / 2 + k0 reads that image, and for a quadratic
    # f(y) - f(x) = (grad f(x) + grad f(y)).(y - x) / 2 exactly.  A dot
    # product of n terms is accurate to n eps times the dot product of the
    # absolute values, so the two sides differ by at most
    # 2 n eps (k0 + sum over z = x, y of |c|.|z| + |z|.|g(z)|): a value that
    # drifts from its gradient fails.  On these instances the gap stayed
    # below eps times that sum, structured points (eigenvectors of H,
    # alternating signs) included
    problem, _ = _instance(family)
    smooth = smooth_of(problem)
    n = problem.dim
    zero = np.zeros(n)
    c = -smooth.image(zero)
    k0 = smooth.value(zero, -c)
    vectors = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
    x, y = np.array(data.draw(vectors)), np.array(data.draw(vectors))
    gx, gy = smooth.image(x), smooth.image(y)
    assert smooth.grad(x, gx) is gx and smooth.grad(y, gy) is gy
    gap = smooth.value(y, gy) - smooth.value(x, gx) - 0.5 * float((gx + gy) @ (y - x))
    scale = k0 + sum(float(np.abs(c) @ np.abs(z) + np.abs(z) @ np.abs(g))
                     for z, g in ((x, gx), (y, gy)))
    assert abs(gap) <= 2.0 * n * _EPS * scale


_METHODS = ["rpf-sfista", "fista-bt", "fista-r", "rada", "greedy"]


@pytest.mark.parametrize("family,method,eps", [
    *(pytest.param("lasso", m, 1e-13, id=m) for m in _METHODS),
    *(pytest.param("logistic", m, 1e-13, id=f"{m}-logistic") for m in _METHODS),
    *(pytest.param("qp_box", m, 1e-8, id=f"{m}-qp_box") for m in _METHODS),
])
def test_carried_images_stay_within_roundoff(family, method, eps, monkeypatch):
    # a carried image (a quadratic's gradient included) never drifts from the fresh
    # one of its point: at every point of a run on the smallest desk instance
    # (lasso at eps 1e-13: rpf-sfista, mu_shrink 0.5, takes 930 iterations in
    # 7 cycles, fista-bt 1,250; qp_box at eps 1e-8, where fista-bt takes
    # 30,971) the two differ by at most 4 eps (||c|| + ||K|| ||z||), in
    # absolute terms, since ||A z - b|| itself falls to roundoff near the
    # optimum
    problem, z0 = make_instance(desk_suite(family, seed=42)[0])
    smooth = smooth_of(problem)
    n = problem.dim
    c, nK = _scale(smooth, n)
    worst = []
    grad = CountingOracle.grad

    def checked_grad(self, P):
        z = P[:n]
        gap = float(np.max(np.abs(P[n:] - smooth.image(z))))
        worst.append(gap / (_EPS * (c + nK * float(np.linalg.norm(z)))))
        return grad(self, P)

    monkeypatch.setattr(CountingOracle, "grad", checked_grad)
    if method == "rpf-sfista":
        out = solve_sfista(problem, SfistaConfig(eps_hat=eps), z0)
    else:
        out = METHODS[method](problem, z0, eps, 7200.0)
    assert out.status == "converged"
    assert len(worst) == out.counters.grad_evals
    assert max(worst) <= 4.0


# the set diameter of each _GENERATORS instance: l1 balls of radius 1 and 2,
# the simplex, and the box [-5, 5]^16
_DIAMETER = {"logistic": 2.0, "lasso": 4.0, "qp_simplex": 2.0 ** 0.5, "qp_box": 40.0}


def _agree(family, problem, a, va, b, vb, best=None):
    """Answers a and b, with certificates va in dphi(a) and vb in dphi(b),
    agree as far as their certificates allow.

    phi(a) - phi* <= <va, a - x*> <= ||va|| diam, so phi(a) and phi(b) lie
    within max(||va||, ||vb||) diam of each other, and so do the phi of two
    best points, which lie between phi* and phi(a) or phi(b); where f is
    mu-strongly convex, ||a - b|| <= (||va|| + ||vb||) / mu.
    """
    na, nb = float(np.linalg.norm(va)), float(np.linalg.norm(vb))
    for p, q in [(a, b)] + ([] if best is None else [best]):
        phi_p, phi_q = eval_phi(problem, p), eval_phi(problem, q)
        roundoff = 4.0 * _EPS * (1.0 + abs(phi_q))
        assert abs(phi_p - phi_q) <= max(na, nb) * _DIAMETER[family] + roundoff
    if problem.known_mu_f:
        assert float(np.linalg.norm(a - b)) <= (na + nb) / problem.known_mu_f


@pytest.mark.parametrize("family", sorted(_GENERATORS))
@pytest.mark.parametrize("method", sorted(METHODS) + ["a-reg"])
def test_replaced_oracles_fall_back_with_identical_iterates(family, method):
    # the fallback evaluates f and grad f at every point from the problem's own
    # oracles, where the fused path carries images.  Equal counts need equal
    # arithmetic, which carrying gives up: a line-search, restart or
    # best-point decision settled at roundoff level can flip (on qp_box
    # rpf-sfista takes 1,619 iterations both ways).  Both converge, to answers
    # that agree as far as their certificates allow (A-REG's r lies in
    # dphi(w) too).
    problem, z0 = _instance(family)
    plain = _plain(problem)
    assert smooth_of(plain).image(z0).size == 0  # the unfused fallback
    if method == "a-reg":
        fused, unfused = (solve_areg(p, ARegConfig(eps=1e-6), z0) for p in (problem, plain))
        _agree(family, problem, fused.w, fused.r, unfused.w, unfused.r)
    else:
        fused, unfused = (METHODS[method](p, z0, 1e-8, 7200.0) for p in (problem, plain))
        # only rpf-sfista sets xi, the best-value iterate
        assert (fused.xi is None) == (unfused.xi is None) == (method != "rpf-sfista")
        best = None if fused.xi is None else (fused.xi, unfused.xi)
        _agree(family, problem, fused.y, fused.v, unfused.y, unfused.v, best)
    assert fused.status == unfused.status == "converged"


@pytest.mark.parametrize("family", sorted(_GENERATORS))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_every_raw_oracle_call_is_counted(family, method):
    # the relative residual's grad f(z0) included: it is the gradient at the
    # solver's first x_tilde, not a separate uncounted call
    problem, z0 = _instance(family)
    calls = {"f": 0, "grad": 0}

    def counted(name, fn):
        def call(z):
            calls[name] += 1
            return fn(z)
        return call

    counting = replace(problem, f_eval=counted("f", problem.f_eval),
                       f_grad=counted("grad", problem.f_grad))
    out = METHODS[method](counting, z0, 1e-8, 7200.0)
    assert out.status == "converged"
    assert (calls["f"], calls["grad"]) == (out.counters.f_evals, out.counters.grad_evals)


class _CountingMatrix:
    """A dense matrix that counts its products with vectors in counts["products"]."""

    def __init__(self, M, counts):
        self.M, self.counts, self.shape = M, counts, M.shape

    @property
    def T(self):
        return _CountingMatrix(self.M.T, self.counts)

    def __matmul__(self, x):
        self.counts["products"] += 1
        return self.M @ x


_SOLVERS = {
    "fista-bt": solve_fista_bt,
    "fista-r": solve_fista_restart,
    "rada": solve_rada_fista,
    "greedy": solve_greedy_fista,
}


def _capped_solve(method, problem, z0, iters):
    if method == "rpf-sfista":
        cfg = SfistaConfig(eps_hat=1e-300, max_total_iters=iters)
        out = solve_sfista(problem, cfg, z0)
    else:
        cfg = BaselineConfig(eps_hat=1e-300, max_total_iters=iters)
        out = _SOLVERS[method](problem, cfg, z0)
    assert out.total_iters == iters
    return out


def _per_iteration(method, problem, z0, counts, per_trial):
    """What an iteration whose first line-search trial is accepted adds to
    each entry of counts: the growth over the first 20 iterations, less
    per_trial[key] for each rejected trial.  Each trial is one prox call
    (prox_evals), so both rates hold whether or not a trial is rejected."""
    used = []
    for iters in (0, 20):
        for key in counts:
            counts[key] = 0
        out = _capped_solve(method, problem, z0, iters)
        used.append(dict(counts, trials=out.counters.prox_evals))
    rejected = used[1]["trials"] - used[0]["trials"] - 20
    assert rejected >= 0
    return {key: (used[1][key] - used[0][key] - per_trial[key] * rejected) / 20
            for key in counts}


@pytest.mark.parametrize("method,unfused", [
    ("rpf-sfista", 8), ("fista-bt", 8), ("fista-r", 8), ("rada", 4), ("greedy", 4),
])
def test_lasso_iteration_matvecs(method, unfused):
    # fused, only y's fresh image, r = Ay - b and the gradient A'r, costs
    # products: 2 per trial and none beyond; unfused, f and grad f each cost
    # both at each point taken.  An unfused trial evaluates f at y, and in
    # rpf-sfista f and grad f at x_tilde, which moves with L: 6 products a
    # trial there, 2 in fista-bt and fista-r, which evaluate x_tilde once
    # per iteration.  unfused is the cost of an iteration of one trial.
    # known_L is read first: its Lanczos estimate, which rada and greedy read,
    # is a one-time set-up, not a per-iteration cost
    rng = np.random.default_rng(5)
    counts = {"products": 0}
    A = rng.standard_normal((20, 40))
    problem, z0 = gen_lasso(_CountingMatrix(A, counts), rng.standard_normal(20), 2.0, seed=5)
    problem.known_L
    fused = {"products": 2}
    assert _per_iteration(method, problem, z0, counts, fused) == fused
    per_trial = {"products": {"rpf-sfista": 6, "fista-bt": 2, "fista-r": 2}.get(method, 0)}
    assert _per_iteration(method, _plain(problem), z0, counts, per_trial) == {"products": unfused}


def test_lasso_known_L_is_computed_on_first_read():
    # building a lasso runs no product: its known_L, the Lanczos estimate of
    # ||A||^2, runs at the first read and is kept.  rpf-sfista and fista-r
    # find L by line search and leave it unread, and an A-REG subproblem's
    # known_L, the base's plus delta, is computed only when read
    rng = np.random.default_rng(5)
    counts = {"products": 0}
    A, b = rng.standard_normal((20, 40)), rng.standard_normal(20)
    problem, z0 = gen_lasso(_CountingMatrix(A, counts), b, 2.0, seed=5)
    assert counts["products"] == 0
    for method in ("rpf-sfista", "fista-r"):
        assert METHODS[method](problem, z0, 1e-8, 7200.0).status == "converged"
    sub = build_subproblem(problem, 0.25, z0)
    counts["products"] = 0
    L_sub = sub.known_L
    lanczos = counts["products"]
    assert lanczos > 0 and lanczos % 2 == 0  # A'(Av) at each Lanczos step
    L = problem.known_L
    assert L_sub == L + 0.25 and sub.known_L == L_sub and problem.known_L == L
    assert counts["products"] == lanczos
    assert L.hex() == opnorm_sq(lambda v: A @ v, lambda v: A.T @ v, 40).hex()
    assert replace(problem, known_L=3.0).known_L == 3.0
    assert replace(problem, known_L=None).known_L is None
    assert counts["products"] == lanczos


def _counting(problem, z0, counts):
    """problem with its images and computed gradients counted in counts.

    A quadratic's grad returns a block of its image, so its gradient is
    computed, and counted, with the image; other grads count per call.
    """
    smooth = smooth_of(problem)
    k = smooth.image(z0)
    in_image = np.shares_memory(smooth.grad(z0, k), k)

    def image(z):
        counts["image"] += 1
        counts["grad"] += in_image
        return smooth.image(z)

    def grad(z, k):
        counts["grad"] += not in_image
        return smooth.grad(z, k)

    counting = SmoothFunction(image, smooth.value, grad)
    return replace(problem, f_eval=counting.f_eval, f_grad=counting.f_grad)


@pytest.mark.parametrize("family,image,grad", [
    ("lasso", 1, 1), ("qp_box", 1, 1), ("qp_simplex", 1, 1), ("a-reg subproblem", 1, 1),
    ("logistic", 1, 2),
])
@pytest.mark.parametrize("method", _METHODS)
def test_image_and_grad_calls_per_iteration(family, image, grad, method):
    # every image is carried, so only y gets a fresh one, at each
    # line-search trial; a quadratic's gradient is a block of its image, so
    # only y's is computed, where logistic computes grad f at x_tilde from its
    # carried image as well: at each trial in rpf-sfista, whose x_tilde moves
    # with L, once per iteration in the others.  image and grad are the
    # counts of an iteration of one trial.  The A-REG subproblem's grad adds
    # delta (z - theta) to its base's gradient block, which is counted on
    # the base
    counts = {"image": 0, "grad": 0}
    if family == "a-reg subproblem":
        base, z0 = _instance("lasso")
        problem = build_subproblem(_counting(base, z0, counts), 0.25, z0)
    else:
        problem, z0 = _instance(family)
        problem = _counting(problem, z0, counts)
    per_trial = {"image": 1, "grad": int(family != "logistic" or method == "rpf-sfista")}
    assert _per_iteration(method, problem, z0, counts, per_trial) == {"image": image, "grad": grad}
