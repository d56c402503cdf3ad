"""A-REG outer loop: subproblem wiring, residual algebra, contract checks."""

import math

import numpy as np
import pytest

from sfista import a_reg
from sfista.a_reg import (
    ARegConfig,
    build_subproblem,
    outer_residual,
    solve_areg,
)
from sfista.core import CompositeProblem, eval_phi, grad_fd_check
from sfista.prox_ops import Box


def _free(f_eval, f_grad, dim, **kw):
    return CompositeProblem(
        dim=dim, f_eval=f_eval, f_grad=f_grad,
        h_prox=lambda p, lam: p, h_eval=lambda z: 0.0, **kw,
    )


def _rank_deficient_box_qp(n=50, m=20, seed=0):
    """Merely convex: m < n least squares over the unit box."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    box = Box(-np.ones(n), np.ones(n))
    prob = CompositeProblem(
        dim=n,
        f_eval=lambda z: 0.5 * float(((A @ z - b) ** 2).sum()),
        f_grad=lambda z: A.T @ (A @ z - b),
        h_prox=box.prox,
        h_eval=box.indicator,
        known_L=float(np.linalg.eigvalsh(A.T @ A)[-1]),
        known_mu_f=0.0,
    )
    return prob, A, box


def test_config_validation():
    with pytest.raises(ValueError):
        ARegConfig(eps=-1.0)
    nan = float("nan")
    for bad in ({"eps": nan}, {"time_limit": nan}, {"time_limit": -1.0}):
        with pytest.raises(ValueError):
            ARegConfig(**bad)


# ---------------------------------------------------------------------------
# build_subproblem


def test_subproblem_pure_regularizer():
    base = _free(lambda z: 0.0, lambda z: np.zeros(2), dim=2)
    sub = build_subproblem(base, 2.0, np.zeros(2))
    z = np.ones(2)
    assert sub.f_eval(z) == pytest.approx(2.0)
    np.testing.assert_allclose(sub.f_grad(z), [2.0, 2.0])


def test_subproblem_vanishes_at_center():
    base = _free(lambda z: float(z @ z), lambda z: 2.0 * z, dim=3)
    theta = np.array([1.0, -2.0, 0.5])
    sub = build_subproblem(base, 5.0, theta)
    assert sub.f_eval(theta) == pytest.approx(base.f_eval(theta))
    np.testing.assert_allclose(sub.f_grad(theta), base.f_grad(theta))


def test_subproblem_gradient_sum():
    base = _free(lambda z: 0.5 * float(z @ z), lambda z: z, dim=3)
    sub = build_subproblem(base, 1.0, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(sub.f_grad(np.zeros(3)), [-1.0, 0.0, 0.0])


def test_subproblem_metadata():
    base = _free(lambda z: 0.0, lambda z: np.zeros(2), dim=2,
                 known_L=3.0, known_mu_f=0.0)
    sub = build_subproblem(base, 2.0, np.zeros(2))
    assert sub.known_L == pytest.approx(5.0)
    assert sub.known_mu_f == pytest.approx(2.0)


def test_subproblem_gradient_matches_fd():
    prob, _, _ = _rank_deficient_box_qp(n=8, m=4, seed=3)
    sub = build_subproblem(prob, 0.7, np.linspace(-0.5, 0.5, 8))
    assert grad_fd_check(sub, np.zeros(8), 1e-6) < 1e-5


def test_subproblem_rejects_bad_delta():
    base = _free(lambda z: 0.0, lambda z: np.zeros(2), dim=2)
    with pytest.raises(ValueError):
        build_subproblem(base, 0.0, np.zeros(2))


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 1), ()])
def test_subproblem_rejects_a_theta_of_the_wrong_shape(shape):
    # (delta/2)||z - theta||^2 would broadcast theta against z
    base = _free(lambda z: 0.0, lambda z: np.zeros(2), dim=2)
    with pytest.raises(ValueError, match="expected vector of length 2"):
        build_subproblem(base, 0.5, np.zeros(shape))


# ---------------------------------------------------------------------------
# outer_residual


def test_outer_residual_zero():
    np.testing.assert_array_equal(
        outer_residual(np.zeros(2), 1.0, np.ones(2), np.ones(2)), np.zeros(2)
    )


def test_outer_residual_arithmetic():
    r = outer_residual(np.array([1.0, 0.0]), 2.0,
                       np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    np.testing.assert_allclose(r, [1.0, 2.0])


def test_outer_residual_triangle():
    u = np.array([1e-3, 0.0])
    theta, w = np.array([1.0, 1.0]), np.array([0.9, 1.1])
    r = outer_residual(u, 2.0, theta, w)
    assert np.linalg.norm(r) <= np.linalg.norm(u) + 2.0 * np.linalg.norm(theta - w) + 1e-12


# ---------------------------------------------------------------------------
# solve_areg


def test_areg_strongly_convex_converges():
    base = _free(lambda z: 0.5 * float(z @ z), lambda z: z, dim=3,
                 known_L=1.0, known_mu_f=1.0)
    out = solve_areg(base, ARegConfig(eps=1e-8), np.array([1.0, 0.0, 0.0]))
    assert out.status == "converged"
    assert np.linalg.norm(out.w) < 1e-6


def test_areg_terminates_first_iteration_from_optimum():
    # theta0 at the minimizer: w_1 stays put, so r_1 = u_1 passes at once
    base = _free(lambda z: 0.5 * float(z @ z), lambda z: z, dim=3,
                 known_L=1.0, known_mu_f=1.0)
    out = solve_areg(base, ARegConfig(eps=1e-8), np.zeros(3))
    assert out.status == "converged"
    assert out.outer_iters == 1


def test_areg_eps_inf_trivial():
    base = _free(lambda z: 0.5 * float(z @ z), lambda z: z, dim=2, known_L=1.0)
    out = solve_areg(base, ARegConfig(eps=float("inf")), np.ones(2))
    assert out.status == "converged"
    assert out.outer_iters == 1


def test_areg_contract_on_rank_deficient_qp():
    prob, A, _ = _rank_deficient_box_qp(n=20, m=8, seed=1)
    eps = 1e-8
    out = solve_areg(prob, ARegConfig(eps=eps), np.zeros(20))
    assert out.status == "converged"
    assert float(np.linalg.norm(out.r)) <= eps
    # every inner call hit its eps/6 absolute tolerance
    for inner in out.inner_outputs:
        assert float(np.linalg.norm(inner.v)) <= eps / 6.0 + 1e-15
    # delta halves exactly
    for k, row in enumerate(out.trace, start=1):
        assert row.delta == a_reg._DELTA0 * 2.0 ** (-(k - 1))
    # psi(theta_k) nonincreasing: reconstruct from inner outputs
    psi = [eval_phi(prob, np.zeros(20))]
    psi += [eval_phi(prob, inner.xi) for inner in out.inner_outputs]
    assert all(b <= a + 1e-10 for a, b in zip(psi, psi[1:]))


def test_areg_inclusion_certificate():
    prob, A, _ = _rank_deficient_box_qp(n=20, m=8, seed=2)
    out = solve_areg(prob, ARegConfig(eps=1e-8), np.zeros(20))
    assert out.status == "converged"
    rng = np.random.default_rng(0)
    g = prob.f_grad(out.w)
    normal = out.r - g  # must lie in the normal cone of the box at w
    for _ in range(200):
        u = rng.uniform(-1.0, 1.0, size=20)
        scale = 1.0 + np.linalg.norm(normal) * np.linalg.norm(u - out.w)
        assert float(normal @ (u - out.w)) <= 1e-8 * scale


def test_areg_infeasible_start_raises():
    prob, _, _ = _rank_deficient_box_qp(n=10, m=4, seed=4)
    with pytest.raises(ValueError):
        solve_areg(prob, ARegConfig(eps=1e-8), 10.0 * np.ones(10))


def test_areg_counters_aggregate():
    prob, _, _ = _rank_deficient_box_qp(n=15, m=6, seed=5)
    out = solve_areg(prob, ARegConfig(eps=1e-6), np.zeros(15))
    assert out.counters.prox_evals == sum(
        inner.counters.prox_evals for inner in out.inner_outputs
    )
    assert out.counters.grad_evals == sum(
        inner.counters.grad_evals for inner in out.inner_outputs
    )
