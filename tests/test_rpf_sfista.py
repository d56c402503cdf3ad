"""Unit and invariant tests for the restarted solver."""

import math

import numpy as np
import pytest

from sfista.a_reg import ARegConfig, solve_areg
from sfista.core import _L_FIRST, CompositeProblem, eval_phi
from sfista.problems import InstanceSpec, gen_lasso_random, gen_qp_simplex, make_instance
from sfista.rpf_sfista import SfistaConfig, restart_fires, solve_sfista


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


def _steps(prob, z0, iters):
    """The first `iters` iterations of a solve with mu = 1; the first step
    enters with L = _L_FIRST = 10."""
    cfg = SfistaConfig(mu0=1.0, eps_hat=1e-300, max_total_iters=iters, trace=True)
    return solve_sfista(prob, cfg, np.array(z0, dtype=float))


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        SfistaConfig(mu0=-1.0)
    with pytest.raises(ValueError):
        SfistaConfig(mu_shrink=1.0)
    with pytest.raises(ValueError):
        SfistaConfig(eps_hat=0.0)
    with pytest.raises(ValueError):
        SfistaConfig(residual_mode="bogus")
    nan, inf = float("nan"), float("inf")
    for bad in ({"eps_hat": nan}, {"mu0": nan}, {"mu0": inf},
                {"time_limit": nan}, {"time_limit": -1.0}, {"max_total_iters": -5}):
        with pytest.raises(ValueError):
            SfistaConfig(**bad)
    SfistaConfig(time_limit=0.0)  # A-REG's inner solves may get no time left


# ---------------------------------------------------------------------------
# step formulas, read from the trace of short solves


def test_a_formula_at_cycle_start():
    # tau=1, A=0, L=10 -> a = (1 + sqrt(1)) / 20 = 0.1
    row = _steps(_scalar_quadratic(c=2.5), [1.0], 1).trace[0]
    assert row.a == pytest.approx(0.1)
    assert row.L == 10.0  # curvature 2.5, L=10 passes at first try
    np.testing.assert_allclose(row.y + row.s / row.L, [1.0])  # x_tilde = z0


def test_backtracking_increases_L_when_needed():
    # curvature 1000 with entering L=10 forces several beta multiplications;
    # accepted L is the smallest beta-power for which the inequality holds
    out = _steps(_scalar_quadratic(c=1000.0), [1.0], 1)
    L = out.trace[0].L
    assert L > 10.0
    # the worst-case overshoot 2 beta / (1 - chi) of the curvature, times beta
    assert L <= 2.0 * 1.25 / (1.0 - 0.001) * 1000.0 * 1.25
    # the prior beta step must have failed: L/beta violates the inequality
    k = round(math.log(L / 10.0) / math.log(1.25))
    assert L == pytest.approx(10.0 * 1.25 ** k)
    # rejected line-search tries each consumed one prox evaluation
    assert out.counters.prox_evals == k + 1


def test_backtracking_counts_rejections():
    out = _steps(_scalar_quadratic(c=2.5), [1.0], 1)
    assert out.counters.prox_evals == 1  # 4x curvature passes immediately


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
    with pytest.raises(RuntimeError, match="line search exceeded L = 1e30"):
        _steps(prob, [1.0], 1)


def test_step_weight_overflow_raises():
    # the second cycle of an inner solve of A-REG at eps 1e-14 on
    # logistic-m100-n60-s44 grows A and tau until 4 tau A L overflows; an inf
    # step weight would make x_tilde NaN
    prob, z0 = make_instance(InstanceSpec("logistic", 100, 60, 44))
    with pytest.raises(RuntimeError, match=r"RPF-SFISTA: the step weight overflowed in cycle 2 "
                       r"at j = 2054 \(A = 4.72e\+152, tau = 1.18e\+153, L = 84.1\)"):
        solve_areg(prob, ARegConfig(eps=1e-14), z0)


def test_momentum_update_worked_example():
    # 1-D hand-evaluated first step at curvature 2.5: x_0 = 1, L = 10,
    # mu = 1, tau_0 = 1, A_0 = 0, so a = 0.1, x_tilde = 1 and y = 1 - 2.5/10
    rows = _steps(_scalar_quadratic(c=2.5), [1.0], 3).trace
    first = rows[0]
    np.testing.assert_allclose(first.y, [0.75])
    assert first.tau == pytest.approx(1.05)  # tau_0 + a mu / 2
    np.testing.assert_allclose(first.s, [2.5])  # L (x_tilde - y) = 10 * 0.25
    assert first.A == pytest.approx(0.1)
    # xi updated: phi(y) = 1.25 * 0.5625 = 0.703125 < 1.25
    assert first.phi_xi == pytest.approx(0.703125)

    def x_from_next(row, nxt):
        # x_tilde = (A y + a x) / (A + a) at the next step, with x_tilde = y + s / L
        x_tilde = nxt.y + nxt.s / nxt.L
        return (nxt.A * x_tilde - row.A * row.y) / nxt.a

    # x_j = (mu a y / 2 + tau_prev x_prev - a s) / tau_j, where a L a = tau_prev
    # (A_prev + a) makes x_1 = y_1
    x_prev = np.array([1.0])
    for row, nxt in zip(rows, rows[1:]):
        x = (row.mu * row.a * row.y / 2.0 + row.tau_prev * x_prev - row.a * row.s) / row.tau
        np.testing.assert_allclose(x_from_next(row, nxt), x, rtol=1e-12)
        x_prev = x
    np.testing.assert_allclose(x_from_next(rows[0], rows[1]), [0.75], rtol=1e-12)


def test_momentum_fixed_point_gives_zero_residual():
    out = _steps(_scalar_quadratic(), [0.0], 1)
    np.testing.assert_array_equal(out.trace[0].s, [0.0])
    np.testing.assert_array_equal(out.v, [0.0])


# ---------------------------------------------------------------------------
# restart predicate


def _fires(xi, x0, y, x_tilde, A=1.0, L=1.0):
    xi, x0, y, x_tilde = (np.asarray(p, float) for p in (xi, x0, y, x_tilde))
    d = y - x_tilde
    return restart_fires(xi, x0, float(d @ d), x_tilde, A, L)


def test_restart_fires_when_xi_at_start():
    assert _fires(xi=[0.0], x0=[0.0], y=[1.0], x_tilde=[0.0], A=10.0, L=10.0)


def test_restart_skipped_for_zero_step():
    assert not _fires(xi=[0.0], x0=[0.0], y=[1.0], x_tilde=[1.0])


def test_restart_continue_when_xi_escapes():
    assert not _fires(xi=[5.0], x0=[0.0], y=[1.0], x_tilde=[0.9])


def test_restart_chi_scales_threshold():
    # ||xi - x0||^2 = 0.01 against chi A L = 1e-3 A L: the borderline flips
    # with A L
    assert _fires(xi=[0.1], x0=[0.0], y=[1.0], x_tilde=[0.0], A=100.0, L=100.0)
    assert not _fires(xi=[0.1], x0=[0.0], y=[1.0], x_tilde=[0.0], A=1.0, L=1.0)


# ---------------------------------------------------------------------------
# bootstrap: the mu the solver installs after its first prox step


def _bootstrapped_mu(prob, z0, **kw):
    cfg = SfistaConfig(max_total_iters=1, trace=True, **kw)
    return solve_sfista(prob, cfg, np.array(z0)).trace[0].mu


def test_bootstrap_quadratic():
    # in 1-D, f(y) - ell_f(y; x) = c (y - x)^2 / 2 whatever the step
    mu = _bootstrapped_mu(_scalar_quadratic(c=1.0), [1.0])
    assert mu == pytest.approx(2.0 / 0.999)


def test_bootstrap_scales_with_curvature():
    c = 7.5
    mu = _bootstrapped_mu(_scalar_quadratic(c=c), [1.0])
    assert mu == pytest.approx(2.0 * c / 0.999)


def test_bootstrap_linear_f_falls_back():
    prob = _free_problem(lambda z: float(z[0]), lambda z: np.ones(1), dim=1)
    mu = _bootstrapped_mu(prob, [1.0])
    assert mu == _L_FIRST


def test_bootstrap_stationary_start_falls_back():
    mu = _bootstrapped_mu(_scalar_quadratic(), [0.0])
    assert mu == _L_FIRST


def _rising_problem(ulps):
    # f rises by `ulps` ulps at every prox call, grad f = 0 and the prox steps
    # by 1, so f(y) - ell_f(y; x_tilde) is `ulps` ulps along every step
    calls = [0]

    def prox(p, lam):
        calls[0] += 1
        return p + 1.0

    return CompositeProblem(
        dim=1,
        f_eval=lambda z: 1.0 + ulps * calls[0] * np.finfo(float).eps,
        f_grad=lambda z: np.zeros(1),
        h_prox=prox,
        h_eval=lambda z: 0.0,
    )


@pytest.mark.parametrize("ulps", [1, 4, 5])
def test_bootstrap_a_rise_of_a_few_ulps_falls_back(ulps):
    # a gap within the line-search slack is roundoff, not curvature: mu is
    # the fallback, where the quotient would give ~1e-15
    mu = _bootstrapped_mu(_rising_problem(ulps), [0.0])
    assert mu == _L_FIRST


@pytest.mark.parametrize("ulps", [1, 4, 5])
def test_measured_floor_ignores_a_rise_of_a_few_ulps(ulps):
    # taken as curvature, the gap would set L to ~1e-15 and the residual
    # with it, and the solve would report `converged`.  Read as roundoff, it leaves the floor at the fallback _L_FIRST: every
    # step passes at its first trial and no restart fires
    out = solve_sfista(_rising_problem(ulps), SfistaConfig(max_total_iters=10), np.zeros(1))
    c = out.counters
    assert (out.status, out.total_iters, out.cycles) == ("iter_cap", 10, 1)
    assert (c.f_evals, c.grad_evals, c.prox_evals, out.L_final) == (21, 20, 10, _L_FIRST)


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


def test_iter_cap_right_after_a_restart():
    # the first restart fires at iteration 25: the output is the last prox
    # output and its certificate, not the next cycle's start point
    prob, z0 = make_instance(InstanceSpec("lasso", 60, 120, 42, C=5.0))
    cfg = SfistaConfig(eps_hat=1e-8, residual_mode="relative", mu_shrink=0.1,
                       max_total_iters=25, trace=True)
    out = solve_sfista(prob, cfg, z0)
    assert out.status == "iter_cap" and out.cycles == 2
    assert out.trace[-1].restarted and out.trace[-1].j == 25
    np.testing.assert_array_equal(out.y, out.trace[-1].y)
    denom = 1.0 + float(np.linalg.norm(prob.f_grad(z0)))
    assert math.isfinite(out.residual) and out.residual > 0.0
    assert out.residual == pytest.approx(float(np.linalg.norm(out.v)) / denom, rel=1e-12)
    assert out.trace[-1].v_norm == float(np.linalg.norm(out.v))


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


def _traced_lasso(eps=1e-10, **kw):
    prob, z0 = gen_lasso_random(60, 120, 5.0, seed=11)
    cfg = SfistaConfig(eps_hat=eps, residual_mode="relative", trace=True, **kw)
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
    # from j = 2 on, and never below the floor (the first step's curvature,
    # the L of row 2), which a restart's max(0.4 L, floor) relies on
    _, out = _traced_lasso()
    assert out.cycles > 1
    assert out.trace[0].L == _L_FIRST
    floor = out.trace[1].L
    prev_cycle, prev_L = None, None
    for row in out.trace[1:]:
        assert row.L >= floor
        if row.cycle == prev_cycle:
            assert row.L >= prev_L
        prev_cycle, prev_L = row.cycle, row.L


def test_first_step_curvature_is_the_next_L_and_the_floor():
    # the first L is _L_FIRST; from j = 2 on, L and every cycle's floor start
    # at c, the curvature along the first accepted step.  Within a cycle L
    # never falls, and never below c: a restart's max(0.4 L, floor) relies on it
    prob, z0 = make_instance(InstanceSpec("lasso", 60, 120, 42, C=5.0))
    cfg = SfistaConfig(eps_hat=1e-8, residual_mode="relative", mu_shrink=0.1, trace=True)
    out = solve_sfista(prob, cfg, z0)
    assert out.status == "converged" and out.cycles > 1
    first = out.trace[0]
    d = first.y - z0  # the first x_tilde is z0, up to rounding
    gap = prob.f_eval(first.y) - prob.f_eval(z0) - float(prob.f_grad(z0) @ d)
    c = 4.0 * gap / ((1.0 - 0.001) * float(d @ d))
    assert first.L == _L_FIRST and c < _L_FIRST
    # the bootstrap mu is the same curvature
    assert first.mu == pytest.approx(c, rel=1e-9)
    c = first.mu
    assert out.trace[1].L == c
    for prev, row in zip(out.trace[1:], out.trace[2:]):
        assert row.L >= c
        if row.cycle == prev.cycle:
            assert row.L >= prev.L


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
