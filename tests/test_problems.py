"""Problem generators, file loaders, and the Lanczos operator-norm estimator."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import sfista
from sfista.core import eval_phi, grad_fd_check
from sfista.problems import (
    InstanceSpec,
    gen_lasso,
    gen_lasso_random,
    gen_logistic,
    gen_qp_box,
    gen_qp_simplex,
    load_csv_matrix,
    load_matrix_market,
    make_instance,
    opnorm_sq,
)


# ---------------------------------------------------------------------------
# operator norm


def test_power_method_identity():
    n = 5
    assert opnorm_sq(lambda v: v, lambda v: v, n) == pytest.approx(1.0)


def test_power_method_diagonal():
    A = np.diag([1.0, 2.0])
    got = opnorm_sq(lambda v: A @ v, lambda v: A @ v, 2)
    assert got == pytest.approx(4.0)


def test_power_method_zero_operator():
    assert opnorm_sq(lambda v: 0.0 * v, lambda v: 0.0 * v, 4) == 0.0


def test_power_method_vs_dense_eigensolve():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6))
    want = float(np.linalg.eigvalsh(A.T @ A)[-1])
    got = opnorm_sq(lambda v: A @ v, lambda v: A.T @ v, 6)
    assert got == pytest.approx(want, rel=1e-8)


@st.composite
def _operators(draw):
    """Dense m x n matrices, 1 <= m, n <= 40: Gaussian, drawn entry by entry
    (often one repeated fill value with a few other entries), repeated
    columns (rank deficient), zero, and the n x n identity."""
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["gaussian", "entries", "repeated", "zero", "identity"]))
    if kind == "gaussian":
        return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((m, n))
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "identity":
        return np.eye(n)
    entries = st.floats(-10.0, 10.0, allow_subnormal=False)
    if kind == "entries":
        return draw(hnp.arrays(np.float64, (m, n), elements=entries))
    k = draw(st.integers(1, n))
    cols = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return draw(hnp.arrays(np.float64, (m, k), elements=entries))[:, cols]


@settings(max_examples=150, deadline=None)
@given(_operators())
def test_opnorm_sq_matches_dense_eigensolve(A):
    want = float(np.linalg.eigvalsh(A.T @ A)[-1])
    got = opnorm_sq(lambda v: A @ v, lambda v: A.T @ v, A.shape[1])
    assert abs(got - want) <= 1e-10 * (1.0 + want)
    again = opnorm_sq(lambda v: A @ v, lambda v: A.T @ v, A.shape[1])
    assert np.float64(again).tobytes() == np.float64(got).tobytes()


def test_lasso_known_L_is_the_exact_norm():
    # A as gen_lasso_random draws it; A A' is the smaller Gram matrix
    m, n, seed = 200, 400, 1
    A = np.random.default_rng(seed).standard_normal((m, n)) / np.sqrt(m)
    want = float(np.linalg.eigvalsh(A @ A.T)[-1])
    prob, _ = gen_lasso_random(m, n, 5.0, seed)
    assert prob.known_L == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# logistic


def test_logistic_value_and_grad_at_zero():
    m, n = 20, 10
    prob, z0 = gen_logistic(m, n, 1.0, seed=0)
    z = np.zeros(n)
    assert prob.f_eval(z) == pytest.approx(m * np.log(2.0))
    # grad at 0 is D' * 1/2
    g = prob.f_grad(z)
    assert np.all(np.isfinite(g))


def test_logistic_known_L_matches_power_method():
    # regenerate D exactly as the generator does and compare
    m, n, seed = 20, 10, 7
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(m, n))
    w_true = rng.standard_normal(n)
    labels = np.sign(A @ w_true - np.median(A @ w_true))
    labels[labels == 0] = 1.0
    D = -A * labels[:, None]
    want = 0.25 * float(np.linalg.eigvalsh(D.T @ D)[-1])
    prob, _ = gen_logistic(m, n, 1.0, seed=seed)
    assert prob.known_L == pytest.approx(want, rel=1e-6)


def test_logistic_fd_and_feasible_start():
    prob, z0 = gen_logistic(15, 8, 2.0, seed=1)
    assert grad_fd_check(prob, z0, 1e-6) < 1e-6
    assert np.abs(z0).sum() <= 2.0 + 1e-12
    assert eval_phi(prob, z0) < np.inf


def test_logistic_validation():
    with pytest.raises(ValueError):
        gen_logistic(0, 5, 1.0, 0)
    with pytest.raises(ValueError):
        gen_logistic(5, 5, -1.0, 0)


# ---------------------------------------------------------------------------
# lasso


def test_lasso_diagonal_L():
    A = np.diag([1.0, 2.0])
    prob, _ = gen_lasso(A, np.zeros(2), 1.0)
    assert prob.known_L == pytest.approx(4.0, rel=1e-8)


def test_lasso_value_and_grad_at_zero():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    prob, _ = gen_lasso(A, b, 1.0)
    z = np.zeros(3)
    assert prob.f_eval(z) == pytest.approx(0.5 * float(b @ b))
    np.testing.assert_allclose(prob.f_grad(z), -A.T @ b)


def test_lasso_shape_mismatch():
    with pytest.raises(ValueError):
        gen_lasso(np.ones((3, 2)), np.ones(4), 1.0)


def test_lasso_accepts_sparse():
    A = sp.random(10, 6, density=0.5, random_state=0, format="csr")
    prob, z0 = gen_lasso(A, np.ones(10), 2.0)
    assert grad_fd_check(prob, z0, 1e-6) < 1e-5


def test_lasso_random_reproducible():
    p1, z1 = gen_lasso_random(20, 40, 5.0, seed=3)
    p2, z2 = gen_lasso_random(20, 40, 5.0, seed=3)
    np.testing.assert_array_equal(z1, z2)
    x = np.linspace(-1, 1, 40)
    assert p1.f_eval(x) == p2.f_eval(x)


# ---------------------------------------------------------------------------
# QP families


def _oracle_hessian(prob):
    # exact for a quadratic: column i is grad f(e_i) - grad f(0)
    n = prob.dim
    g0 = prob.f_grad(np.zeros(n))
    H = np.column_stack([prob.f_grad(e) - g0 for e in np.eye(n)])
    return 0.5 * (H + H.T)


def test_qp_simplex_calibration_within_one_percent():
    prob, z0 = gen_qp_simplex(50, 100, 1.0, 1e-2, 1e2, seed=0)
    # measure the extreme eigenvalues directly from the oracle
    w = np.linalg.eigvalsh(_oracle_hessian(prob))
    assert w[-1] == pytest.approx(1e2, rel=1e-2)
    assert w[0] == pytest.approx(1e-2, rel=1e-2)
    assert prob.known_L == pytest.approx(w[-1], rel=1e-6)
    assert prob.known_mu_f == pytest.approx(w[0], rel=1e-4)


def test_qp_box_calibration_within_one_percent():
    # m = n/2 leaves the least-squares block rank deficient: the increasing branch
    prob, z0 = gen_qp_box(40, 80, "last1", 5.0, 0.0, 1e-4, 1e2, seed=42)
    w = np.linalg.eigvalsh(_oracle_hessian(prob))
    assert w[-1] == pytest.approx(1e2, rel=1e-2)
    assert w[0] == pytest.approx(1e-4, rel=1e-2)
    assert prob.known_L == pytest.approx(w[-1], rel=1e-6)
    assert prob.known_mu_f == pytest.approx(w[0], rel=1e-4)


def _record_calibrations(monkeypatch):
    """[eigvalsh calls, result] of each curvature calibration from now on."""
    import sfista.problems as problems

    calls = []
    eigvalsh, calibrate = np.linalg.eigvalsh, problems._calibrate_quadratic

    def counted_eigvalsh(a):
        calls[-1][0] += 1
        return eigvalsh(a)

    def recorded(*args):
        calls.append([0, None])
        calls[-1][1] = calibrate(*args)
        return calls[-1][1]

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(problems, "_calibrate_quadratic", recorded)
    return calls


@pytest.mark.parametrize("spec", sfista.desk_suite("qp_box") + sfista.desk_suite("qp_simplex"),
                         ids=lambda spec: spec.instance_id)
def test_desk_qp_calibration_meets_its_targets(spec, monkeypatch):
    calls = _record_calibrations(monkeypatch)
    prob, _ = make_instance(spec)
    assert prob.known_mu_f >= spec.mu_target
    assert prob.known_L == spec.L_target
    # one draw, calibrated by a 25-point scan and a few secant steps: a finer
    # scan or a bisection in place of the secant would pass 40 decompositions
    assert len(calls) == 1 and calls[0][0] <= 40


def test_calibration_refines_a_scan_peak_below_the_target(monkeypatch):
    # on this draw the ratio peaks at 5.93e-5 near rho = 10^-5.5, while the
    # decade points reach only 4.86e-5 (rho = 1e-5): a target of 5.5e-5 is met
    # on the quarter-decade points about the peak, with no redraw
    calls = _record_calibrations(monkeypatch)
    prob, _ = gen_qp_box(40, 80, "last1", 5.0, 0.0, 5.5e-3, 1e2, seed=42)
    assert len(calls) == 1
    assert prob.known_mu_f >= 5.5e-3 and prob.known_L == 1e2


def test_qp_simplex_start_feasible():
    prob, z0 = gen_qp_simplex(30, 40, 100.0, 1e-5, 1e2, seed=1)
    assert np.all(z0 >= 0)
    assert z0.sum() == pytest.approx(1.0)
    assert grad_fd_check(prob, z0, 1e-6) < 1e-4 * (1 + prob.known_L)


def test_qp_box_a_pattern():
    # tiny matrices cannot reach extreme condition numbers; use a mild target
    prob, z0 = gen_qp_box(10, 10, "last1", 5.0, 0.0, 1e-2, 1e2, seed=0)
    # a = (1,...,1,-1): verify via the indicator on crafted points
    z = np.zeros(10)
    assert prob.h_eval(z) == 0.0
    z_bad = np.zeros(10)
    z_bad[0] = 1.0  # violates a'z = 0
    assert prob.h_eval(z_bad) == np.inf
    z_ok = np.zeros(10)
    z_ok[0] = 1.0
    z_ok[-1] = 1.0  # (1) + ... + (-1)(1) = 0
    assert prob.h_eval(z_ok) == 0.0


def test_qp_box_last10_pattern_and_feasible_start():
    prob, z0 = gen_qp_box(20, 20, "last10", 5.0, 0.0, 1e-5, 1e2, seed=0)
    assert np.all(np.abs(z0) <= 5.0 + 1e-9)
    a = np.ones(20)
    a[-10:] = -1.0
    assert abs(a @ z0) < 1e-8
    assert eval_phi(prob, z0) < np.inf


def test_qp_box_rejects_bad_pattern():
    with pytest.raises(ValueError):
        gen_qp_box(5, 5, "last10", 5.0, 0.0, 1e-5, 1e2, seed=0)
    with pytest.raises(ValueError):
        gen_qp_box(5, 5, "sideways", 5.0, 0.0, 1e-5, 1e2, seed=0)


def test_qp_rejects_bad_targets():
    with pytest.raises(ValueError):
        gen_qp_simplex(10, 10, 1.0, 1e2, 1e-2, seed=0)  # mu > L


def test_qp_calibration_infeasible_reports_seeds():
    # a target ratio of 0.5 is far above what random mixtures reach
    with pytest.raises(RuntimeError, match="calibration infeasible"):
        gen_qp_simplex(10, 10, 1000.0, 50.0, 1e2, seed=0)


def test_qp_generation_reproducible():
    p1, z1 = gen_qp_box(15, 15, "last1", 5.0, 0.0, 1e-5, 1e2, seed=8)
    p2, z2 = gen_qp_box(15, 15, "last1", 5.0, 0.0, 1e-5, 1e2, seed=8)
    np.testing.assert_array_equal(z1, z2)
    x = np.linspace(-1, 1, 15)
    assert p1.f_eval(x) == p2.f_eval(x)


# ---------------------------------------------------------------------------
# InstanceSpec / make_instance


def test_make_instance_all_families():
    specs = [
        InstanceSpec("logistic", 20, 10, 0, C=1.0),
        InstanceSpec("lasso", 20, 40, 0, C=2.0),
        InstanceSpec("qp_simplex", 20, 20, 0, alpha=10.0,
                     mu_target=1e-5, L_target=1e2),
        InstanceSpec("qp_box", 20, 20, 0, mu_target=1e-5, L_target=1e2),
    ]
    for spec in specs:
        prob, z0 = make_instance(spec)
        assert prob.dim == spec.n
        assert eval_phi(prob, z0) < np.inf
        assert spec.instance_id.startswith(spec.family)


def test_make_instance_unknown_family():
    with pytest.raises(ValueError):
        make_instance(InstanceSpec("mystery", 5, 5, 0))


def test_instance_spec_rejects_negative_seed():
    with pytest.raises(ValueError, match="instance seed must be nonnegative, got -1"):
        InstanceSpec("lasso", 20, 40, -1)


# ---------------------------------------------------------------------------
# MatrixMarket loader


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def test_mm_coordinate_identity(tmp_path):
    path = _write(tmp_path, "eye.mtx", """\
        %%MatrixMarket matrix coordinate real general
        % a comment
        2 2 2
        1 1 1.0
        2 2 1.0
    """)
    M = load_matrix_market(path)
    np.testing.assert_array_equal(M.toarray(), np.eye(2))


def test_mm_entry_count_mismatch(tmp_path):
    path = _write(tmp_path, "bad.mtx", """\
        %%MatrixMarket matrix coordinate real general
        2 2 3
        1 1 1.0
        2 2 1.0
    """)
    with pytest.raises(ValueError, match=re.escape(path) + ": Truncated file. Expected another 1 lines"):
        load_matrix_market(path)


def test_mm_symmetric_mirroring(tmp_path):
    path = _write(tmp_path, "sym.mtx", """\
        %%MatrixMarket matrix coordinate real symmetric
        3 3 4
        1 1 2.0
        2 1 -1.0
        3 2 -1.0
        3 3 2.0
    """)
    M = load_matrix_market(path).toarray()
    want = np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 2.0]])
    np.testing.assert_array_equal(M, want)


def test_mm_array_format_column_major(tmp_path):
    path = _write(tmp_path, "arr.mtx", """\
        %%MatrixMarket matrix array real general
        2 3
        1
        2
        3
        4
        5
        6
    """)
    M = load_matrix_market(path)
    np.testing.assert_array_equal(M, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])


def test_mm_parse_error_has_line_number(tmp_path):
    path = _write(tmp_path, "junk.mtx", """\
        %%MatrixMarket matrix coordinate real general
        2 2 1
        1 oops 1.0
    """)
    with pytest.raises(ValueError, match=re.escape(path) + ": Line 3: Invalid integer value"):
        load_matrix_market(path)


def test_mm_index_out_of_range(tmp_path):
    path = _write(tmp_path, "oob.mtx", """\
        %%MatrixMarket matrix coordinate real general
        2 2 1
        3 1 1.0
    """)
    with pytest.raises(ValueError, match=re.escape(path) + ": Line 3: Row index out of bounds"):
        load_matrix_market(path)


def test_mm_bad_banner(tmp_path):
    path = _write(tmp_path, "nob.mtx", "not a banner\n1 1 1\n")
    with pytest.raises(ValueError, match=re.escape(path) + ": Line 1: Not a Matrix Market file"):
        load_matrix_market(path)


@pytest.mark.parametrize("banner", [
    "coordinate complex general", "coordinate pattern general",
    "coordinate real skew-symmetric",
])
def test_mm_unsupported_field_or_symmetry(tmp_path, banner):
    path = _write(tmp_path, "other.mtx", f"%%MatrixMarket matrix {banner}\n2 2 1\n2 1 1 1\n")
    with pytest.raises(ValueError, match=re.escape(path) + ": unsupported"):
        load_matrix_market(path)


def test_mm_integer_field_reads_as_float(tmp_path):
    path = _write(tmp_path, "int.mtx", """\
        %%MatrixMarket matrix coordinate integer general
        2 2 1
        2 1 3
    """)
    M = load_matrix_market(path)
    assert M.dtype == np.float64
    np.testing.assert_array_equal(M.toarray(), [[0.0, 0.0], [3.0, 0.0]])


def test_import_loads_no_scipy():
    # scipy.io (and the scipy.sparse it loads) is imported by the loader
    # only, so a run that reads no file never pays for it
    src = str(Path(sfista.__file__).resolve().parents[1])
    code = ("import sys; import sfista; "
            "print(sorted(m for m in ('scipy.sparse', 'scipy.io') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_building_logistic_and_lasso_loads_no_scipy():
    # known_L comes from numpy alone: scipy.linalg or scipy.sparse.linalg
    # would roughly double a benchmark process's resident memory
    src = str(Path(sfista.__file__).resolve().parents[1])
    code = ("import sys; import sfista; "
            "[sfista.make_instance(sfista.desk_suite(f, count=1)[0]) for f in ('lasso', 'logistic')]; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_reading_known_L_loads_no_scipy():
    # logistic and lasso compute known_L, by Lanczos, at its first read
    src = str(Path(sfista.__file__).resolve().parents[1])
    code = ("import sys; import sfista; "
            "[sfista.make_instance(sfista.desk_suite(f, count=1)[0])[0].known_L "
            "for f in ('lasso', 'logistic')]; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_building_qps_loads_no_scipy():
    # the curvature calibration's eigenvalues come from numpy alone
    src = str(Path(sfista.__file__).resolve().parents[1])
    code = ("import sys; import sfista; "
            "[sfista.make_instance(sfista.desk_suite(f, count=1)[0]) for f in ('qp_box', 'qp_simplex')]; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# CSV loader


def test_csv_matrix_with_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    M = load_csv_matrix(str(path))
    np.testing.assert_array_equal(M, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_matrix_without_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    M = load_csv_matrix(str(path))
    np.testing.assert_array_equal(M, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_matrix_one_column_and_one_row(tmp_path):
    # one column is an m x 1 matrix, not a 1 x m one
    col, row = tmp_path / "col.csv", tmp_path / "row.csv"
    np.savetxt(col, np.arange(5.0)[:, None], delimiter=",")
    np.savetxt(row, np.arange(5.0)[None, :], delimiter=",")
    np.testing.assert_array_equal(load_csv_matrix(str(col)), np.arange(5.0)[:, None])
    np.testing.assert_array_equal(load_csv_matrix(str(row)), np.arange(5.0)[None, :])


@pytest.mark.parametrize("name,text", [
    ("nan.csv", "1.0,nan\n3.0,4.0\n"),
    ("inf.csv", "x,y\n1.0,2.0\n-inf,4.0\n"),
    ("array.mtx", "%%MatrixMarket matrix array real general\n2 2\n1.0\ninf\n3.0\n4.0\n"),
    ("coord.mtx", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 nan\n2 2 2.0\n"),
])
def test_loaders_reject_nan_or_infinite_entries(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    load = load_csv_matrix if name.endswith(".csv") else load_matrix_market
    with pytest.raises(ValueError, match=f"{name}: the matrix has NaN or infinite entries"):
        load(str(path))
