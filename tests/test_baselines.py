"""Baseline methods: restart predicates, convergence, counter parity."""

import numpy as np
import pytest

from sfista.baselines import (
    BaselineConfig,
    gradient_restart_fires,
    solve_fista_bt,
    solve_fista_restart,
    solve_greedy_fista,
    solve_rada_fista,
)
from sfista.core import CompositeProblem
from sfista.problems import gen_lasso_random


def _scalar_quadratic(c=1.0):
    return CompositeProblem(
        dim=1,
        f_eval=lambda z: 0.5 * c * float(z[0] ** 2),
        f_grad=lambda z: c * z,
        h_prox=lambda p, lam: p,
        h_eval=lambda z: 0.0,
        known_L=c, known_mu_f=c,
    )


def test_gradient_restart_predicate():
    # orthogonal displacement and step -> inner product 0 -> no restart
    assert not gradient_restart_fires(np.array([1.0, 0.0]), np.zeros(2),
                                      np.array([0.0, -1.0]))
    # moving back toward where we came from -> fires
    assert gradient_restart_fires(np.array([2.0]), np.array([1.0]), np.array([0.5]))
    # moving forward -> silent
    assert not gradient_restart_fires(np.array([0.0]), np.array([1.0]), np.array([0.5]))


@pytest.mark.parametrize("solver", [solve_fista_bt, solve_fista_restart,
                                    solve_rada_fista, solve_greedy_fista])
def test_converges_on_1d_quadratic(solver):
    prob = _scalar_quadratic()
    out = solver(prob, BaselineConfig(eps_hat=1e-10), np.array([1.0]))
    assert out.status == "converged"
    assert abs(out.y[0]) < 1e-8


@pytest.mark.parametrize("solver", [solve_fista_bt, solve_fista_restart,
                                    solve_rada_fista, solve_greedy_fista])
def test_stationary_start_stops_at_one(solver):
    prob = _scalar_quadratic()
    out = solver(prob, BaselineConfig(eps_hat=1e-10), np.array([0.0]))
    assert out.status == "converged"
    assert out.total_iters == 1


def test_bt_doubling_caps_L():
    # L stabilizes at most one doubling above what the inequality needs
    prob = _scalar_quadratic(c=100.0)
    out = solve_fista_bt(prob, BaselineConfig(L0=10.0, eps_hat=1e-10), np.array([1.0]))
    assert out.status == "converged"
    assert out.L_final <= 2.0 * 2.0 * 100.0 / (1.0 - 0.001)


def test_restart_variant_matches_bt_when_monotone():
    # before any momentum overshoot the objective decreases monotonically,
    # so the function-value restart never fires and the iterates coincide
    prob = _scalar_quadratic()
    cfg = BaselineConfig(eps_hat=1e-2)
    a = solve_fista_bt(prob, cfg, np.array([1.0]))
    b = solve_fista_restart(prob, cfg, np.array([1.0]))
    assert a.total_iters == b.total_iters
    np.testing.assert_array_equal(a.y, b.y)
    assert b.cycles == 1  # no restarts


def test_restart_fires_on_oscillating_quadratic():
    # badly conditioned 2-D quadratic makes plain FISTA overshoot
    H = np.diag([1.0, 400.0])
    prob = CompositeProblem(
        dim=2,
        f_eval=lambda z: 0.5 * float(z @ H @ z),
        f_grad=lambda z: H @ z,
        h_prox=lambda p, lam: p,
        h_eval=lambda z: 0.0,
        known_L=400.0,
    )
    out = solve_fista_restart(prob, BaselineConfig(eps_hat=1e-10),
                              np.array([1.0, 1.0]))
    assert out.status == "converged"
    assert out.cycles > 1  # at least one restart fired


def test_fixed_step_needs_known_L():
    prob = CompositeProblem(
        dim=1, f_eval=lambda z: 0.0, f_grad=lambda z: np.zeros(1),
        h_prox=lambda p, lam: p, h_eval=lambda z: 0.0,
    )
    with pytest.raises(ValueError):
        solve_rada_fista(prob, BaselineConfig(), np.array([1.0]))
    with pytest.raises(ValueError):
        solve_greedy_fista(prob, BaselineConfig(), np.array([1.0]))


def test_infeasible_start_raises():
    import math

    prob = CompositeProblem(
        dim=1, f_eval=lambda z: 0.0, f_grad=lambda z: np.zeros(1),
        h_prox=lambda p, lam: np.clip(p, 0, 1),
        h_eval=lambda z: 0.0 if 0 <= z[0] <= 1 else math.inf,
        known_L=1.0,
    )
    for solver in (solve_fista_bt, solve_fista_restart,
                   solve_rada_fista, solve_greedy_fista):
        with pytest.raises(ValueError):
            solver(prob, BaselineConfig(), np.array([5.0]))


@pytest.mark.parametrize("solver", [solve_rada_fista, solve_greedy_fista])
def test_fixed_step_high_accuracy_on_lasso(solver):
    prob, z0 = gen_lasso_random(80, 200, 5.0, seed=1)
    cfg = BaselineConfig(eps_hat=1e-13, residual_mode="relative",
                         max_total_iters=10**5)
    out = solver(prob, cfg, z0)
    assert out.status == "converged"
    assert out.total_iters <= 10**5


def test_counters_track_line_search():
    prob = _scalar_quadratic(c=100.0)
    out = solve_fista_bt(prob, BaselineConfig(L0=1.0, eps_hat=1e-8), np.array([1.0]))
    # rejected doublings consumed prox evaluations beyond one per iteration
    assert out.counters.prox_evals > out.total_iters


@pytest.mark.parametrize("bad", [
    {"L0": 0.0}, {"L0": -1.0}, {"chi": 0.0}, {"chi": 1.5}, {"eps_hat": -1.0},
    {"eps_hat": float("nan")}, {"residual_mode": "relativ"},
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        BaselineConfig(**bad)
