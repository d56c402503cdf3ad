"""Composite problem abstraction: dimension checks, counters, phi, FD check,
the solvers' NaN handling, the oracle's output-shape check and the
solvers' check that h is finite at the point they return."""

import itertools
import math
import struct
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfista.a_reg import ARegConfig, solve_areg
from sfista.baselines import (
    BaselineConfig,
    solve_fista_bt,
    solve_fista_restart,
    solve_greedy_fista,
    solve_rada_fista,
)
from sfista.bench import METHODS, desk_suite
from sfista.core import (
    CompositeProblem,
    CountingOracle,
    OracleCounters,
    Run,
    SmoothFunction,
    StopConfig,
    check_start,
    eval_phi,
    grad_fd_check,
    norm,
)
from sfista.problems import make_instance
from sfista.prox_ops import BoxHyperplane, L1Ball
from sfista.rpf_sfista import SfistaConfig, solve_sfista


def _quadratic_problem(n=3):
    H = np.diag(np.arange(1.0, n + 1.0))
    return CompositeProblem(
        dim=n,
        f_eval=lambda z: 0.5 * float(z @ H @ z),
        f_grad=lambda z: H @ z,
        h_prox=lambda p, lam: p,
        h_eval=lambda z: 0.0,
        known_L=float(n),
        known_mu_f=1.0,
    )


def test_dim_validation():
    with pytest.raises(ValueError):
        CompositeProblem(
            dim=0, f_eval=lambda z: 0.0, f_grad=lambda z: z,
            h_prox=lambda p, lam: p, h_eval=lambda z: 0.0,
        )
    prob = _quadratic_problem(3)
    with pytest.raises(ValueError):
        prob.check_dim(np.zeros(4))
    out = prob.check_dim([1, 2, 3])
    assert out.dtype == float


def test_eval_phi_finite_and_infinite():
    prob = _quadratic_problem(2)
    assert eval_phi(prob, np.array([1.0, 1.0])) == pytest.approx(1.5)

    infeasible = CompositeProblem(
        dim=2, f_eval=lambda z: 1.0, f_grad=lambda z: z,
        h_prox=lambda p, lam: p, h_eval=lambda z: math.inf,
    )
    assert eval_phi(infeasible, np.zeros(2)) == math.inf


def test_counting_oracle_counts():
    prob = _quadratic_problem(2)
    oracle = CountingOracle(prob)
    z = np.ones(2)
    P = oracle.lift(z)
    oracle.f(P)
    oracle.f(P)
    oracle.grad(P)
    oracle.prox(z, 0.5)
    oracle.prox(z, 0.5)
    oracle.prox(z, 0.5)
    assert oracle.counters.f_evals == 2
    assert oracle.counters.grad_evals == 1
    assert oracle.counters.prox_evals == 3


def test_counters_merge():
    a = OracleCounters(grad_evals=1, f_evals=2, prox_evals=3)
    b = OracleCounters(grad_evals=10, f_evals=20, prox_evals=30)
    a.merge(b)
    assert (a.grad_evals, a.f_evals, a.prox_evals) == (11, 22, 33)


def test_grad_fd_check_accepts_correct_gradient():
    prob = _quadratic_problem(4)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(4)
    assert grad_fd_check(prob, z, 1e-6) < 1e-6


def test_grad_fd_check_flags_wrong_gradient():
    n = 3
    prob = CompositeProblem(
        dim=n,
        f_eval=lambda z: float(z @ z),
        f_grad=lambda z: z,  # wrong: should be 2z
        h_prox=lambda p, lam: p,
        h_eval=lambda z: 0.0,
    )
    assert grad_fd_check(prob, np.ones(n), 1e-6) > 0.5


def test_grad_fd_check_rejects_bad_step():
    prob = _quadratic_problem(2)
    with pytest.raises(ValueError):
        grad_fd_check(prob, np.zeros(2), 0.0)


def test_residual_denominator():
    # the frame divides ||v|| by 1 + ||g_xt|| of its first certify call in
    # relative mode, by 1 in absolute mode
    problem = _quadratic_problem(2)
    for mode, g, denom in [("relative", [1.0, 0.0], 2.0), ("relative", [3.0, 4.0], 6.0),
                           ("relative", [0.0, 0.0], 1.0), ("absolute", [3.0, 4.0], 1.0)]:
        run = Run("test", problem, np.zeros(2), StopConfig(), mode)
        Y = run.oracle.lift(np.ones(2))
        for g_xt in (np.array(g), 10.0 * np.array(g) + 1.0):
            v, _ = run.certify(Y, g_xt, np.zeros(2))
            assert run.residual == norm(v) / denom


def _nan_after(k, problem, field_name, counts):
    """Copy of problem whose `field_name` oracle returns NaN from call k + 1
    on; counts['prox'] counts prox calls and counts['onset'] records the prox
    count when the first NaN was returned."""
    fn = getattr(problem, field_name)
    calls = [0]

    def wrapped(*args):
        calls[0] += 1
        out = fn(*args)
        if calls[0] > k:
            counts.setdefault("onset", counts["prox"])
            return out * math.nan
        return out

    replaced = {field_name: wrapped}
    prox = wrapped if field_name == "h_prox" else problem.h_prox

    def counted_prox(*args):
        counts["prox"] += 1
        return prox(*args)

    replaced["h_prox"] = counted_prox
    return replace(problem, **replaced)


def _ill_conditioned_box_qp(n=20):
    # box prox (np.clip) passes NaN through, so the line search sees it
    H = np.diag(np.logspace(-3, 1, n))
    b = np.linspace(-1.0, 1.0, n)
    return CompositeProblem(
        dim=n,
        f_eval=lambda z: 0.5 * float(z @ H @ z) - float(b @ z),
        f_grad=lambda z: H @ z - b,
        h_prox=lambda p, lam: np.clip(p, -0.5, 0.5),
        h_eval=lambda z: 0.0 if np.all(np.abs(z) <= 0.5) else math.inf,
    )


@pytest.mark.parametrize("solve", [
    lambda p, z0: solve_sfista(p, SfistaConfig(eps_hat=1e-13), z0),
    lambda p, z0: solve_fista_bt(p, BaselineConfig(eps_hat=1e-13), z0),
], ids=["rpf-sfista", "fista-bt"])
@pytest.mark.parametrize("field_name,name", [
    ("f_eval", "f"), ("f_grad", "grad"), ("h_prox", "prox"),
])
@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=0, max_value=60))
def test_nan_oracle_fails_fast_in_line_search(solve, field_name, name, k):
    counts = {"prox": 0}
    problem = _nan_after(k, _ill_conditioned_box_qp(), field_name, counts)
    with pytest.raises(RuntimeError, match=f"the {name} oracle returned NaN"):
        solve(problem, np.zeros(problem.dim))
    assert counts["prox"] - counts["onset"] <= 2


@pytest.mark.parametrize("solve", [solve_rada_fista, solve_greedy_fista], ids=["rada", "greedy"])
@pytest.mark.parametrize("field_name,name", [("f_grad", "grad"), ("h_prox", "prox")])
@settings(max_examples=15, deadline=None)
@given(k=st.integers(min_value=0, max_value=60))
def test_nan_oracle_fails_fast_in_fixed_step(solve, field_name, name, k):
    # no line search: the residual is where the NaN shows
    counts = {"prox": 0}
    problem = replace(_ill_conditioned_box_qp(), known_L=10.0)
    problem = _nan_after(k, problem, field_name, counts)
    with pytest.raises(RuntimeError, match=f"the {name} oracle returned NaN"):
        solve(problem, BaselineConfig(eps_hat=1e-13), np.zeros(problem.dim))
    assert counts["prox"] - counts["onset"] <= 1


@pytest.mark.parametrize("solve", [
    lambda p, z0: solve_sfista(p, SfistaConfig(eps_hat=1e-13, max_total_iters=20000), z0),
    lambda p, z0: solve_fista_bt(p, BaselineConfig(eps_hat=1e-13, max_total_iters=20000), z0),
    lambda p, z0: solve_fista_restart(p, BaselineConfig(eps_hat=1e-13, max_total_iters=20000), z0),
], ids=["rpf-sfista", "fista-bt", "fista-r"])
@settings(max_examples=15, deadline=None)
@given(k=st.integers(min_value=0, max_value=60))
def test_nan_grad_at_line_search_outputs_fails_fast(solve, k):
    # grad f(y) at an accepted line-search output y enters only the residual
    # v, never a line-search test, so the residual is where the NaN shows
    # grad receives a copy of y (the point of its lifted point), so prox
    # outputs are marked by their bytes
    base = _ill_conditioned_box_qp()
    outputs = set()
    counts = {"prox": 0}

    def prox(p, lam):
        counts["prox"] += 1
        y = base.h_prox(p, lam)
        if counts["prox"] > k:
            outputs.add(y.tobytes())
        return y

    def grad(z):
        g = base.f_grad(z)
        if z.tobytes() in outputs:
            counts.setdefault("onset", counts["prox"])
            return g * math.nan
        return g

    problem = replace(base, h_prox=prox, f_grad=grad)
    with pytest.raises(RuntimeError, match="the grad oracle returned NaN"):
        solve(problem, np.zeros(problem.dim))
    assert counts["prox"] - counts["onset"] <= 1


@pytest.mark.parametrize("solve", [
    lambda p, z0: solve_sfista(p, SfistaConfig(eps_hat=1e-8), z0),
    lambda p, z0: solve_fista_bt(p, BaselineConfig(eps_hat=1e-8), z0),
    lambda p, z0: solve_greedy_fista(p, BaselineConfig(eps_hat=1e-8), z0),
    lambda p, z0: solve_areg(p, ARegConfig(eps=1e-8), z0),
], ids=["rpf-sfista", "fista-bt", "greedy", "a-reg"])
@pytest.mark.parametrize("field_name,name,reshape,shown", [
    ("f_grad", "grad", lambda out: float(out[0]), r"\(\)"),
    ("f_grad", "grad", lambda out: out[:, None], r"\(20, 1\)"),
    ("f_grad", "grad", lambda out: np.append(out, 0.0), r"\(21,\)"),
    ("h_prox", "prox", lambda out: out[:, None], r"\(20, 1\)"),
], ids=["grad-scalar", "grad-n1", "grad-n+1", "prox-n1"])
def test_wrong_output_shape_raises(solve, field_name, name, reshape, shown):
    # f as plain callables, and bound to a SmoothFunction whose value and
    # grad read the carried image, here a copy of z
    base = replace(_ill_conditioned_box_qp(), known_L=10.0)
    good = getattr(base, field_name)

    def bad(*args):
        return reshape(good(*args))

    f_grad = bad if field_name == "f_grad" else base.f_grad
    smooth = SmoothFunction(lambda z: z, lambda z, k: base.f_eval(k), lambda z, k: f_grad(k))
    bound = replace(base, f_eval=smooth.f_eval, f_grad=smooth.f_grad)
    problems = [replace(base, **{field_name: bad}),
                bound if field_name == "f_grad" else replace(bound, h_prox=bad)]
    for problem in problems:
        with pytest.raises(ValueError, match=f"the {name} oracle returned shape {shown}"):
            solve(problem, np.zeros(problem.dim))


@pytest.mark.parametrize("method", [*METHODS, "a-reg"])
def test_infeasible_prox_output_raises(method):
    # the prox lands outside the box [0, 1]^2 that h is the indicator of: the
    # solvers would otherwise stop at y = [3, 3], phi(y) = inf, as `converged`
    box = CompositeProblem(
        dim=2, f_eval=lambda z: 0.5 * float(z @ z), f_grad=lambda z: z.copy(),
        h_prox=lambda p, lam: np.clip(p, 0.0, 1.0) + 2.0,
        h_eval=lambda z: 0.0 if np.all((0.0 <= z) & (z <= 1.0)) else math.inf,
        known_L=1.0,
    )
    z0 = np.zeros(2)
    with pytest.raises(RuntimeError, match="the prox oracle returned a point where h is inf"):
        if method == "a-reg":
            solve_areg(box, ARegConfig(), z0)
        else:
            METHODS[method](box, z0, 1e-8, 7200.0)


def _nan_h_near_zero():
    # h is 0 as far as the prox knows, but its oracle gives NaN near 0
    return CompositeProblem(
        dim=1, f_eval=lambda z: 0.5 * float(z @ z), f_grad=lambda z: z.copy(),
        h_prox=lambda p, lam: p.copy(),
        h_eval=lambda z: math.nan if abs(z[0]) < 1e-3 else 0.0,
        known_L=1.0,
    )


@pytest.mark.parametrize("method,where", [("rpf-sfista", "RPF-SFISTA"), ("fista-bt", "fista-bt")])
def test_nan_h_at_the_returned_y_raises(method, where):
    # the solves end near 0, where they once reported converged
    with pytest.raises(RuntimeError, match=f"{where}: the h oracle returned NaN at the returned y"):
        METHODS[method](_nan_h_near_zero(), np.ones(1), 1e-8, 7200.0)


def test_nan_h_at_the_start_raises():
    with pytest.raises(ValueError, match="the h oracle returned NaN at z0"):
        check_start(_nan_h_near_zero(), np.zeros(1))
    with pytest.raises(ValueError, match="the h oracle returned NaN at theta0"):
        solve_areg(_nan_h_near_zero(), ARegConfig(), np.zeros(1))


@pytest.mark.parametrize("solve", [
    lambda p, z0: solve_sfista(p, SfistaConfig(eps_hat=1e-8), z0),
    lambda p, z0: solve_fista_bt(p, BaselineConfig(eps_hat=1e-8), z0),
], ids=["rpf-sfista", "fista-bt"])
@pytest.mark.parametrize("width", [19, 21])
def test_wrong_length_gradient_block_raises(solve, width):
    # a quadratic carries its gradient as a block of its image, which grad
    # returns; a block of the wrong length is a grad output of the wrong shape
    base = _ill_conditioned_box_qp()
    smooth = SmoothFunction(lambda z: np.resize(base.f_grad(z), width),
                            lambda z, k: base.f_eval(z), lambda z, k: k)
    problem = replace(base, f_eval=smooth.f_eval, f_grad=smooth.f_grad)
    with pytest.raises(ValueError, match=rf"the grad oracle returned shape \({width},\)"):
        solve(problem, np.zeros(problem.dim))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.integers(0, 2**32 - 1), st.floats(1e-300, 1e300),
       st.lists(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e200]), max_size=3),
       st.sampled_from([1, 2, 3, -1, -2]))
def test_norm_is_numpys_norm_bit_for_bit(n, seed, scale, specials, step):
    # contiguous arrays and strided views, where BLAS sums in another order
    # once n passes its unrolled kernel's width; struct.pack compares -0.0
    # and NaN by their bits.  Huge entries overflow x.dot(x) in both alike
    base = np.random.default_rng(seed).standard_normal(n) * scale
    base[:len(specials)] = specials[:n]
    for x in (base, base[::step], np.zeros(n)):
        with np.errstate(all="ignore"):
            got, want = norm(x), float(np.linalg.norm(x))
        assert struct.pack("<d", got) == struct.pack("<d", want)


@pytest.mark.parametrize("family,kind", [("qp_box", BoxHyperplane), ("lasso", L1Ball)])
@pytest.mark.parametrize("method,at_start", [("rpf-sfista", 2), ("fista-r", 1)])
def test_library_set_is_checked_at_the_start_and_the_end_only(
        monkeypatch, family, kind, method, at_start):
    """With h_prox and h_eval a library set's prox and indicator, h is 0 at
    every prox output and `contains` runs only on z0 (check_start, and
    rpf-sfista's phi(z0)) and on the returned y.  The same set behind a plain
    h_eval is called at every iteration (fista-r: each one that does not
    converge), with the same iterates."""
    problem, z0 = make_instance(desk_suite(family, 42, 1)[0])
    calls = []
    contains = kind.contains

    def counted(self, z):
        calls.append(1)
        return contains(self, z)

    monkeypatch.setattr(kind, "contains", counted)
    out = METHODS[method](problem, z0, 1e-8, 60.0)
    assert out.status == "converged" and out.total_iters > 50
    assert len(calls) == at_start + 1
    calls.clear()
    indicator = problem.h_eval
    plain = METHODS[method](replace(problem, h_eval=lambda z: indicator(z)), z0, 1e-8, 60.0)
    assert plain.y.tobytes() == out.y.tobytes() and plain.total_iters == out.total_iters
    per_iter = out.total_iters - (method == "fista-r")
    assert len(calls) == at_start + per_iter + 1


@pytest.mark.parametrize("method", [*METHODS, "a-reg"])
@pytest.mark.parametrize("limit", [0.0, 5.5])
def test_time_cap(monkeypatch, method, limit):
    # each iteration reads the clock once, so a limit of 5.5 s stops every
    # solve after a few iterations, and 0 before the first; A-REG's outer
    # check passes at 5.5 s, and its first inner solve is the one capped
    problem, z0 = make_instance(desk_suite("lasso", 42, 1)[0])
    monkeypatch.setattr(time, "monotonic", itertools.count(1.0).__next__)  # 1 s a read
    if method == "a-reg":
        out = solve_areg(problem, ARegConfig(eps=1e-12, time_limit=limit), z0)
        assert out.status == "time_cap" and problem.h_eval(out.w) == 0.0
        assert out.outer_iters == len(out.inner_outputs) == (limit > 0)
        if limit == 0.0:
            return
        out, denom = out.inner_outputs[0], 1.0  # absolute residual mode
    else:
        out = METHODS[method](problem, z0, 1e-13, limit)
        denom = 1.0 + norm(problem.f_grad(z0))
    assert out.status == "time_cap" and problem.h_eval(out.y) == 0.0
    if limit == 0.0:
        assert out.total_iters == 0 and out.residual == math.inf
    else:
        assert 0 < out.total_iters <= 5
        assert out.residual == pytest.approx(norm(out.v) / denom, rel=1e-12)


def test_nan_grad_at_a_restart_y_raises():
    # grad f(y) enters only the certificate v, which every iteration checks,
    # restart iterations included; f_grad is a plain callable, so the
    # iterates of the two solves match up to the first restart
    problem, z0 = make_instance(desk_suite("logistic", 42, 1)[0])
    f_grad = problem.f_grad
    plain = replace(problem, f_grad=lambda z: f_grad(z))
    cfg = SfistaConfig(mu_shrink=0.1, residual_mode="relative", trace=True)
    rows = solve_sfista(plain, cfg, z0).trace
    first = next(row for row in rows if row.restarted)
    assert (first.cycle, first.j) == (1, 59)

    def grad(z):
        return f_grad(z) * math.nan if np.array_equal(z, first.y) else f_grad(z)

    with pytest.raises(RuntimeError, match="RPF-SFISTA: the grad oracle returned NaN"):
        solve_sfista(replace(problem, f_grad=grad), replace(cfg, trace=False), z0)
