"""The fused smooth oracle: f and grad f at one point share one image.

Every generator family builds its f as a SmoothFunction, and CountingOracle
evaluates f and grad f at a point from one image while the problem's f_eval
and f_grad are both still bound to it.  These tests pin that the fused path
computes exactly what the two separate calls compute, that replacing an
oracle (as timing wrappers do) falls back to the separate calls with the
same iterates, and that a lasso iteration costs four matrix-vector products.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfista.a_reg import ARegConfig, build_subproblem, solve_areg
from sfista.baselines import BaselineConfig, solve_fista_bt, solve_fista_restart
from sfista.bench import METHODS
from sfista.core import CountingOracle, SmoothFunction, smooth_of
from sfista.problems import gen_lasso, gen_lasso_random, gen_logistic, gen_qp_box, gen_qp_simplex
from sfista.rpf_sfista import SfistaConfig, solve_sfista

_GENERATORS = {
    "logistic": lambda: gen_logistic(30, 20, 1.0, 3),
    "lasso": lambda: gen_lasso_random(20, 40, 2.0, 3),
    "qp_simplex": lambda: gen_qp_simplex(10, 16, 100.0, 1e-2, 1e2, 3),
    "qp_box": lambda: gen_qp_box(8, 16, "last1", 5.0, 0.0, 1e-2, 1e2, 3),
}
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


@pytest.mark.parametrize("family", sorted(_GENERATORS) + ["a-reg subproblem"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fused_oracle_equals_separate_calls(family, data):
    problem, _ = _instance(family)
    assert isinstance(problem.f_eval.__self__, SmoothFunction)
    assert smooth_of(problem) is problem.f_eval.__self__
    z = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=problem.dim,
                                    max_size=problem.dim)))
    oracle = CountingOracle(problem)
    f, grad = oracle.f_and_grad(z)
    assert (oracle.counters.f_evals, oracle.counters.grad_evals) == (1, 0)
    g = grad()
    assert (oracle.counters.f_evals, oracle.counters.grad_evals) == (1, 1)
    assert float(f).hex() == float(problem.f_eval(z)).hex()
    assert g.tobytes() == np.asarray(problem.f_grad(z), dtype=float).tobytes()


def _signature(out):
    c = out.counters
    return (out.y.tobytes(), out.v.tobytes(), out.xi.tobytes(), out.total_iters,
            out.cycles, out.status, c.f_evals, c.grad_evals, c.prox_evals)


@pytest.mark.parametrize("family", sorted(_GENERATORS))
@pytest.mark.parametrize("method", sorted(METHODS) + ["a-reg"])
def test_replaced_oracles_fall_back_with_identical_iterates(family, method):
    problem, z0 = _instance(family)
    plain = _plain(problem)
    assert smooth_of(plain).image(z0) is z0  # the unfused fallback
    if method == "a-reg":
        fused, unfused = (solve_areg(p, ARegConfig(eps=1e-6), z0) for p in (problem, plain))
        assert fused.w.tobytes() == unfused.w.tobytes()
        assert fused.r.tobytes() == unfused.r.tobytes()
        assert fused.counters == unfused.counters
        assert ([_signature(o) for o in fused.inner_outputs]
                == [_signature(o) for o in unfused.inner_outputs])
    else:
        fused, unfused = (METHODS[method](p, z0, 1e-8, 7200.0) for p in (problem, plain))
        assert _signature(fused) == _signature(unfused)
    assert fused.status == "converged"


class _CountingMatrix:
    """A dense matrix that counts its products with vectors in counts[0]."""

    def __init__(self, M, counts):
        self.M, self.counts, self.shape = M, counts, M.shape

    @property
    def T(self):
        return _CountingMatrix(self.M.T, self.counts)

    def __matmul__(self, x):
        self.counts[0] += 1
        return self.M @ x


@pytest.mark.parametrize("method", ["rpf-sfista", "fista-bt", "fista-r"])
def test_lasso_iteration_costs_four_matvecs(method):
    rng = np.random.default_rng(5)
    counts = [0]
    A = rng.standard_normal((20, 40))
    problem, z0 = gen_lasso(_CountingMatrix(A, counts), rng.standard_normal(20), 2.0, seed=5)
    # an initial L above 2 L_f / (1 - chi) accepts every first trial, so each
    # iteration runs one line-search trial (checked through prox_evals)
    L0 = 4.0 * problem.known_L

    def solve(p, iters):
        if method == "rpf-sfista":
            cfg = SfistaConfig(M_lower_init=L0, eps_hat=1e-300, max_total_iters=iters)
            return solve_sfista(p, cfg, z0)
        cfg = BaselineConfig(L0=L0, eps_hat=1e-300, max_total_iters=iters)
        return (solve_fista_bt if method == "fista-bt" else solve_fista_restart)(p, cfg, z0)

    def products_per_iteration(p):
        used = []
        for iters in (10, 30):
            counts[0] = 0
            out = solve(p, iters)
            assert out.total_iters == out.counters.prox_evals == iters
            used.append(counts[0])
        return (used[1] - used[0]) / 20

    assert products_per_iteration(problem) == 4
    assert products_per_iteration(_plain(problem)) == 6  # f and grad f apart
