"""Unit and invariant tests for the restarted solver."""

import math

import numpy as np
import pytest

from sfista.core import CompositeProblem, CountingOracle, eval_phi
from sfista.problems import gen_lasso_random, gen_qp_simplex
from sfista.rpf_sfista import (
    SfistaConfig,
    SfistaState,
    backtracking_step,
    momentum_update,
    restart_check,
    solve_sfista,
)


def _free_problem(f_eval, f_grad, dim, **kw):
    return CompositeProblem(
        dim=dim, f_eval=f_eval, f_grad=f_grad,
        h_prox=lambda p, lam: p, h_eval=lambda z: 0.0, **kw,
    )


def _scalar_quadratic(c=1.0):
    return _free_problem(
        lambda z: 0.5 * c * float(z[0] ** 2),
        lambda z: c * z,
        dim=1, known_L=c, known_mu_f=c,
    )


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        SfistaConfig(beta=1.0)
    with pytest.raises(ValueError):
        SfistaConfig(chi=0.0)
    with pytest.raises(ValueError):
        SfistaConfig(mu0=-1.0)
    with pytest.raises(ValueError):
        SfistaConfig(mu_shrink=1.0)
    with pytest.raises(ValueError):
        SfistaConfig(eps_hat=0.0)
    with pytest.raises(ValueError):
        SfistaConfig(residual_mode="bogus")
    nan = float("nan")
    for bad in ({"eps_hat": nan}, {"M_lower_init": nan}, {"mu0": nan}, {"beta": nan},
                {"time_limit": nan}, {"time_limit": -1.0}):
        with pytest.raises(ValueError):
            SfistaConfig(**bad)
    SfistaConfig(time_limit=0.0)  # A-REG's inner solves may get no time left


def test_kappa():
    cfg = SfistaConfig()
    assert cfg.kappa == pytest.approx(2.0 * 1.25 / (1.0 - 0.001))


# ---------------------------------------------------------------------------
# step formulas


def test_a_formula_at_cycle_start():
    # tau=1, A=0, L=4 -> a = (1 + sqrt(1)) / 8 = 0.25
    prob = _scalar_quadratic(c=1.0)
    oracle = CountingOracle(prob)
    state = SfistaState(
        cycle=1, j=1, A=0.0, tau=1.0, L=4.0, mu=1.0,
        x=np.array([1.0]), y=np.array([1.0]), xi=np.array([1.0]),
        x0_cycle=np.array([1.0]), phi_xi=0.5,
    )
    backtracking_step(state, oracle, SfistaConfig())
    assert state.a == pytest.approx(0.25)
    assert state.L == pytest.approx(4.0)  # curvature 1, L=4 passes at first try
    np.testing.assert_allclose(state.x_tilde, [1.0])


def test_backtracking_increases_L_when_needed():
    # curvature 100 with entering L=1 forces several beta multiplications;
    # accepted L is the smallest beta-power for which the inequality holds
    prob = _scalar_quadratic(c=100.0)
    oracle = CountingOracle(prob)
    cfg = SfistaConfig()
    state = SfistaState(
        cycle=1, j=1, A=0.0, tau=1.0, L=1.0, mu=1.0,
        x=np.array([1.0]), y=np.array([1.0]), xi=np.array([1.0]),
        x0_cycle=np.array([1.0]), phi_xi=50.0,
    )
    backtracking_step(state, oracle, cfg)
    L = state.L
    assert L > 1.0
    assert L <= cfg.kappa * 100.0 * cfg.beta
    # the prior beta step must have failed: L/beta violates the inequality
    k = round(math.log(L) / math.log(cfg.beta))
    assert L == pytest.approx(cfg.beta ** k)
    # rejected line-search tries each consumed one prox evaluation
    assert oracle.counters.prox_evals == k + 1


def test_backtracking_counts_rejections():
    prob = _scalar_quadratic(c=10.0)
    oracle = CountingOracle(prob)
    state = SfistaState(
        cycle=1, j=1, A=0.0, tau=1.0, L=40.0, mu=1.0,
        x=np.array([1.0]), y=np.array([1.0]), xi=np.array([1.0]),
        x0_cycle=np.array([1.0]), phi_xi=5.0,
    )
    backtracking_step(state, oracle, SfistaConfig())
    assert oracle.counters.prox_evals == 1  # 4x curvature passes immediately


def test_line_search_overflow_raises():
    # broken oracle: the prox pins y away from x_tilde while f reports a value
    # far above what any L up to the overflow cap can absorb
    prob = CompositeProblem(
        dim=1,
        f_eval=lambda z: 0.0 if z[0] == 1.0 else 1e40,
        f_grad=lambda z: np.array([1.0]),
        h_prox=lambda p, lam: np.array([0.0]),
        h_eval=lambda z: 0.0,
    )
    oracle = CountingOracle(prob)
    state = SfistaState(
        cycle=1, j=1, A=0.0, tau=1.0, L=1.0, mu=1.0,
        x=np.array([1.0]), y=np.array([1.0]), xi=np.array([1.0]),
        x0_cycle=np.array([1.0]), phi_xi=1.0,
    )
    with pytest.raises(RuntimeError):
        backtracking_step(state, oracle, SfistaConfig())


def test_step_weight_overflow_raises():
    # A, tau and L where 4 tau A L overflows: the first inner cycle of A-REG
    # at eps 1e-13 on logistic-m120-n80-s45 reached them, and the inf step
    # weight made x_tilde NaN
    state = SfistaState(
        cycle=1, j=3158, A=5.3e153, tau=8.3e152, L=12.5, mu=1.0,
        x=np.array([1.0]), y=np.array([1.0]), xi=np.array([1.0]),
        x0_cycle=np.array([1.0]), phi_xi=0.5,
    )
    with pytest.raises(RuntimeError, match=r"RPF-SFISTA: the step weight overflowed in cycle 1 "
                       r"at j = 3158 \(A = 5.3e\+153, tau = 8.3e\+152, L = 12.5\)"):
        backtracking_step(state, CountingOracle(_scalar_quadratic()), SfistaConfig())


def test_momentum_update_worked_example():
    # 1-D hand-evaluated step: x_{j-1}=1, y_j=0.5, x_tilde=1, L=2, a=0.25,
    # mu=1, tau_{j-1}=1, A_{j-1}=0
    prob = _scalar_quadratic()
    oracle = CountingOracle(prob)
    state = SfistaState(
        cycle=1, j=1, A=0.0, tau=1.0, L=2.0, mu=1.0,
        x=np.array([1.0]), y=np.array([1.0]), xi=np.array([1.0]),
        x0_cycle=np.array([1.0]), phi_xi=0.5,
    )
    state.x_tilde = np.array([1.0])
    state.grad_x_tilde = np.array([1.0])
    state.a = 0.25
    state.f_y = 0.125
    momentum_update(state, np.array([0.5]), oracle)
    assert state.tau == pytest.approx(1.125)
    np.testing.assert_allclose(state.s, [1.0])  # L (x_tilde - y) = 2 * 0.5
    # x_j = (mu a y / 2 + tau x - a s) / tau_j = (0.0625 + 1 - 0.25) / 1.125
    np.testing.assert_allclose(state.x, [0.8125 / 1.125])
    assert state.A == pytest.approx(0.25)
    # xi updated: phi(y) = 0.125 < 0.5
    np.testing.assert_allclose(state.xi, [0.5])


def test_momentum_mu_zero_keeps_tau():
    prob = _scalar_quadratic()
    oracle = CountingOracle(prob)
    state = SfistaState(
        cycle=1, j=1, A=0.0, tau=1.0, L=2.0, mu=0.0,
        x=np.array([1.0]), y=np.array([1.0]), xi=np.array([1.0]),
        x0_cycle=np.array([1.0]), phi_xi=0.5,
    )
    state.x_tilde = np.array([1.0])
    state.grad_x_tilde = np.array([1.0])
    state.a = 0.25
    state.f_y = 0.125
    momentum_update(state, np.array([0.5]), oracle)
    assert state.tau == pytest.approx(1.0)


def test_momentum_fixed_point_gives_zero_residual():
    prob = _scalar_quadratic()
    oracle = CountingOracle(prob)
    state = SfistaState(
        cycle=1, j=1, A=0.0, tau=1.0, L=2.0, mu=1.0,
        x=np.array([0.0]), y=np.array([0.0]), xi=np.array([0.0]),
        x0_cycle=np.array([0.0]), phi_xi=0.0,
    )
    state.x_tilde = np.array([0.0])
    state.grad_x_tilde = np.array([0.0])
    state.a = 0.5
    state.f_y = 0.0
    momentum_update(state, np.array([0.0]), oracle)
    np.testing.assert_array_equal(state.s, [0.0])
    np.testing.assert_array_equal(state.v, [0.0])


# ---------------------------------------------------------------------------
# restart predicate


def _restart_state(xi, x0, y, x_tilde, A=1.0, L=1.0, xi_moved=True):
    state = SfistaState(
        cycle=1, j=2, A=A, tau=1.0, L=L, mu=1.0,
        x=np.asarray(x0, float), y=np.asarray(y, float),
        xi=np.asarray(xi, float), x0_cycle=np.asarray(x0, float),
        phi_xi=0.0, xi_moved=xi_moved,
    )
    state.x_tilde = np.asarray(x_tilde, float)
    return state


def test_restart_fires_when_xi_at_start():
    state = _restart_state(xi=[0.0], x0=[0.0], y=[1.0], x_tilde=[0.0],
                           A=10.0, L=10.0)
    assert restart_check(state, SfistaConfig()) == "restart"


def test_restart_skipped_for_zero_step():
    state = _restart_state(xi=[0.0], x0=[0.0], y=[1.0], x_tilde=[1.0])
    assert restart_check(state, SfistaConfig()) == "continue"


def test_restart_continue_when_xi_escapes():
    state = _restart_state(xi=[5.0], x0=[0.0], y=[1.0], x_tilde=[0.9])
    assert restart_check(state, SfistaConfig()) == "continue"


def test_restart_chi_scales_threshold():
    # borderline case flips with chi
    state = _restart_state(xi=[0.1], x0=[0.0], y=[1.0], x_tilde=[0.0],
                           A=100.0, L=100.0)
    assert restart_check(state, SfistaConfig(chi=0.5)) == "restart"
    assert restart_check(state, SfistaConfig(chi=1e-7)) == "continue"


# ---------------------------------------------------------------------------
# bootstrap: the mu the solver installs after its first prox step


def _bootstrapped_mu(prob, z0, **kw):
    cfg = SfistaConfig(max_total_iters=1, trace=True, **kw)
    return solve_sfista(prob, cfg, np.array(z0)).trace[0].mu


def test_bootstrap_quadratic():
    # in 1-D, f(y) - ell_f(y; x) = c (y - x)^2 / 2 whatever the step
    mu = _bootstrapped_mu(_scalar_quadratic(c=1.0), [1.0], chi=0.001)
    assert mu == pytest.approx(2.0 / 0.999)


def test_bootstrap_scales_with_curvature():
    c = 7.5
    mu = _bootstrapped_mu(_scalar_quadratic(c=c), [1.0], chi=0.001)
    assert mu == pytest.approx(2.0 * c / 0.999)


def test_bootstrap_linear_f_falls_back():
    prob = _free_problem(lambda z: float(z[0]), lambda z: np.ones(1), dim=1)
    mu = _bootstrapped_mu(prob, [1.0], M_lower_init=10.0)
    assert mu == 10.0


def test_bootstrap_stationary_start_falls_back():
    mu = _bootstrapped_mu(_scalar_quadratic(), [0.0], M_lower_init=3.0)
    assert mu == 3.0


# ---------------------------------------------------------------------------
# full solves


def test_solve_1d_quadratic():
    prob = _scalar_quadratic()
    out = solve_sfista(prob, SfistaConfig(eps_hat=1e-10, mu0=1.0), np.array([1.0]))
    assert out.status == "converged"
    assert abs(out.y[0]) <= 1e-10
    assert out.cycles == 1


def test_solve_eps_inf_converges_immediately():
    prob = _scalar_quadratic()
    out = solve_sfista(prob, SfistaConfig(eps_hat=float("inf")), np.array([1.0]))
    assert out.status == "converged"
    assert out.total_iters == 1
    assert out.cycles == 1


def test_solve_infeasible_start_raises():
    prob = CompositeProblem(
        dim=1, f_eval=lambda z: 0.0, f_grad=lambda z: np.zeros(1),
        h_prox=lambda p, lam: np.clip(p, 0, 1),
        h_eval=lambda z: 0.0 if 0 <= z[0] <= 1 else math.inf,
    )
    with pytest.raises(ValueError):
        solve_sfista(prob, SfistaConfig(), np.array([5.0]))


def test_solve_iter_cap():
    prob = _scalar_quadratic()
    out = solve_sfista(
        prob, SfistaConfig(eps_hat=1e-300, max_total_iters=5), np.array([1.0])
    )
    assert out.status == "iter_cap"
    assert out.total_iters == 5


def test_cycle_bound_with_fixed_mu0():
    # halving from mu0 = 2^10 mu_f must reach mu <= mu_bar within
    # ceil(log2(2 mu0 / mu_bar)) = 11 cycles
    prob, z0 = gen_qp_simplex(40, 40, 100.0, 1e-4, 1e2, seed=5)
    cfg = SfistaConfig(eps_hat=1e-9, residual_mode="absolute",
                       mu0=(2.0 ** 10) * prob.known_mu_f, mu_shrink=0.5)
    out = solve_sfista(prob, cfg, z0)
    assert out.status == "converged"
    assert out.cycles <= 11


def test_output_contract_phi_xi_best():
    prob, z0 = gen_lasso_random(40, 80, 2.0, seed=3)
    out = solve_sfista(
        prob, SfistaConfig(eps_hat=1e-10, residual_mode="relative"), z0
    )
    assert out.status == "converged"
    phi_xi = eval_phi(prob, out.xi)
    assert phi_xi <= eval_phi(prob, z0) + 1e-12
    assert phi_xi <= eval_phi(prob, out.y) + 1e-12


# ---------------------------------------------------------------------------
# trace invariants


def _traced_lasso(eps=1e-10):
    prob, z0 = gen_lasso_random(60, 120, 5.0, seed=11)
    cfg = SfistaConfig(eps_hat=eps, residual_mode="relative", trace=True)
    return prob, solve_sfista(prob, cfg, z0)


def test_invariant_tau_identity():
    _, out = _traced_lasso()
    for row in out.trace:
        # tau_j = tau_{j-1} + a mu / 2 and tau_{j-1} = 1 + mu A_{j-1} / 2
        # combine to tau_j = 1 + mu A_j / 2
        expected = 1.0 + row.mu * row.A / 2.0
        assert row.tau == pytest.approx(expected, rel=1e-9)


def test_invariant_tau_a_L_identity():
    _, out = _traced_lasso()
    for row in out.trace:
        lhs = row.tau_prev * row.A / (row.a ** 2)
        assert lhs == pytest.approx(row.L, rel=1e-9)


def test_invariant_AL_growth():
    _, out = _traced_lasso()
    for row in out.trace:
        assert row.A * row.L >= row.j ** 2 / 4.0 - 1e-9


def test_invariant_L_nondecreasing_within_cycle():
    _, out = _traced_lasso()
    prev_cycle, prev_L = None, None
    for row in out.trace:
        if row.cycle == prev_cycle:
            assert row.L >= prev_L - 1e-15
        prev_cycle, prev_L = row.cycle, row.L


def test_invariant_phi_xi_nonincreasing_across_everything():
    _, out = _traced_lasso()
    values = [row.phi_xi for row in out.trace]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_invariant_v_bound():
    prob, out = _traced_lasso()
    L_bar = prob.known_L
    for row in out.trace:
        step = float(np.linalg.norm(row.s)) / row.L  # s = L (x_tilde - y)
        assert row.v_norm <= (L_bar + row.L) * step + 1e-9


# ---------------------------------------------------------------------------
# estimate sequence


def test_trace_gamma_at_y_below_phi():
    # gamma(y) = phi(y) + 2 [ell_f(y; x_tilde) - f(y)] <= phi(y) by convexity
    # of f, and gamma - gamma(y) is <s, x - y> + (mu / 4) ||x - y||^2
    prob, out = _traced_lasso()
    for row in out.trace:
        assert row.gamma(row.y) == row.gamma_y
        phi_y = eval_phi(prob, row.y)
        assert row.gamma_y <= phi_y + 1e-12 * (1.0 + abs(phi_y))
        x = row.y + 1.0
        want = row.gamma_y + float(row.s.sum()) + row.mu / 4.0 * prob.dim
        assert row.gamma(x) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_gamma_minorant_when_mu_below_modulus():
    # fixed mu <= mu_f: gamma_j lower-bounds phi at random feasible points
    prob, z0 = gen_qp_simplex(30, 30, 100.0, 1e-4, 1e2, seed=9)
    cfg = SfistaConfig(eps_hat=1e-9, residual_mode="absolute",
                       mu0=prob.known_mu_f / 2.0, trace=True)
    out = solve_sfista(prob, cfg, z0)
    rng = np.random.default_rng(1)
    from sfista.prox_ops import project_simplex

    rows = out.trace[::5][:20]
    for row in rows:
        for _ in range(10):
            x = project_simplex(rng.uniform(0, 1, size=prob.dim))
            phi_x = eval_phi(prob, x)
            scale = 1.0 + abs(phi_x)
            assert row.gamma(x) <= phi_x + 1e-8 * scale
