"""Benchmark harness: ATR arithmetic, table emission, round trips, CLI."""

import concurrent.futures
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sfista.a_reg import ARegConfig, solve_areg
from sfista.bench import (
    METHODS,
    RunRecord,
    atr_from_records,
    compute_atr,
    desk_suite,
    emit_table,
    parse_csv,
    run_benchmark,
)
from sfista.cli import bench_main, read_config_file, solve_main
from sfista.problems import InstanceSpec, gen_lasso, load_csv_matrix, make_instance
from sfista.prox_ops import BoxHyperplane


def test_atr_rejects_an_infinite_time_limit():
    # a failed run is charged the limit: inf / inf would make the ATR NaN
    with pytest.raises(ValueError, match="time_limit must be finite, got inf"):
        compute_atr([math.inf], [math.inf], math.inf)


# ---------------------------------------------------------------------------
# ATR


def test_atr_simple_ratio():
    assert compute_atr([3600.0], [1800.0], 7200.0) == pytest.approx(2.0)


def test_atr_timeout_substitution():
    # baseline timed out -> clamped to the limit
    assert compute_atr([99999.0], [720.0], 7200.0) == pytest.approx(10.0)


def test_atr_equal_times():
    assert compute_atr([10.0, 20.0], [10.0, 20.0], 7200.0) == pytest.approx(1.0)


def test_atr_reorder_invariant():
    b = [10.0, 40.0, 90.0]
    r = [5.0, 20.0, 30.0]
    a1 = compute_atr(b, r, 7200.0)
    a2 = compute_atr(list(reversed(b)), list(reversed(r)), 7200.0)
    assert a1 == pytest.approx(a2)


def test_atr_empty_raises():
    with pytest.raises(ValueError):
        compute_atr([], [], 7200.0)
    with pytest.raises(ValueError):
        compute_atr([1.0], [1.0, 2.0], 7200.0)


def test_atr_zero_time_guarded():
    assert math.isfinite(compute_atr([1.0], [0.0], 7200.0))


@pytest.mark.parametrize("times", [([1.0], [math.nan]), ([math.nan], [1.0]),
                                   ([1.0], [-2.0]), ([-2.0], [1.0])])
def test_atr_rejects_nan_and_negative_times(times):
    # a NaN ratio, or a negative time floored to a tick, is no ATR
    with pytest.raises(ValueError, match="run times must be nonnegative"):
        compute_atr(*times, 7200.0)


# ---------------------------------------------------------------------------
# table emission


def _record(**kw):
    base = dict(
        instance_id="lasso-m10-n20-s1", family="lasso", m=10, n=20,
        param="C=5", method="rpf-sfista", status="converged", iters=42,
        prox_evals=50, grad_evals=90, runtime_s=0.125,
        rel_residual=3.2e-9, seed=1,
    )
    base.update(kw)
    return RunRecord(**base)


def test_csv_single_record_13_fields():
    text = emit_table([_record()], "csv")
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert len(lines[0].split(",")) == 13
    assert len(lines[1].split(",")) == 13


def test_csv_round_trip():
    records = [
        _record(),
        _record(method="fista-bt", iters=99, status="iter_cap",
                rel_residual=1.3e-7, runtime_s=1.0),
    ]
    back = parse_csv(emit_table(records, "csv"))
    assert back == records


def test_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_csv("a,b,c\n1,2,3\n")


def test_csv_skips_blank_rows_and_rejects_a_short_one():
    text = emit_table([_record(), _record(method="fista-bt")], "csv")
    header, first, second = text.splitlines()
    assert parse_csv(f"{header}\n\n{first}\n\n{second}\n") == parse_csv(text)
    with pytest.raises(ValueError, match="expected 13 fields, got 12"):
        parse_csv(f"{header}\n{first.rsplit(',', 1)[0]}\n")


def test_markdown_nonconverged_cell():
    text = emit_table([_record(status="iter_cap", rel_residual=1.3e-7)], "markdown")
    assert "*/1.3e-07" in text


def test_markdown_bold_best_and_ties():
    records = [
        _record(method="rpf-sfista", iters=10, runtime_s=1.0),
        _record(method="fista-bt", iters=10, runtime_s=2.0),
        _record(method="rada", iters=30, runtime_s=3.0),
    ]
    text = emit_table(records, "markdown")
    assert "**10**" in text
    # both tied iteration counts are bolded
    assert text.count("**10**") == 2
    assert "**1**" in text  # best runtime


def test_emit_empty_raises():
    with pytest.raises(ValueError):
        emit_table([], "csv")
    with pytest.raises(ValueError):
        emit_table([_record()], "html")


# ---------------------------------------------------------------------------
# run_benchmark


def _tiny_suite():
    return [InstanceSpec("lasso", 20, 40, 1, C=2.0)]


def test_run_benchmark_record_per_pair():
    records = run_benchmark(_tiny_suite(), ["rpf-sfista", "fista-bt"],
                            eps_hat=1e-6, time_limit=60.0)
    assert len(records) == 2
    assert {r.method for r in records} == {"rpf-sfista", "fista-bt"}


def test_run_benchmark_eps_inf_converges_in_one():
    records = run_benchmark(_tiny_suite(), ["rpf-sfista"],
                            eps_hat=float("inf"), time_limit=60.0)
    assert records[0].status == "converged"
    assert records[0].iters == 1


def test_run_benchmark_rejects_empty_and_unknown():
    with pytest.raises(ValueError):
        run_benchmark([], ["rpf-sfista"], 1e-8, 60.0)
    with pytest.raises(ValueError):
        run_benchmark(_tiny_suite(), ["simplex-lp"], 1e-8, 60.0)
    # checked up front, not as one error row per solve
    for eps_hat, time_limit in [(math.nan, 60.0), (0.0, 60.0), (1e-8, math.nan), (1e-8, -1.0)]:
        with pytest.raises(ValueError):
            run_benchmark(_tiny_suite(), ["rpf-sfista"], eps_hat, time_limit)


def test_run_benchmark_rejects_no_methods_before_building(monkeypatch, capsys):
    """An empty method list is rejected up front: no instance is built, and
    `bench run --methods ,` says why rather than that it has nothing to emit."""
    builds = []
    monkeypatch.setattr("sfista.bench.make_instance", builds.append)
    with pytest.raises(ValueError, match="methods must be nonempty"):
        run_benchmark(_tiny_suite(), [], 1e-8, 60.0)
    err = _usage_error(capsys, bench_main, ["run", "--family", "lasso", "--methods", ","])
    assert "error: methods must be nonempty" in err
    assert builds == []


def test_run_benchmark_rejects_a_repeated_method_before_building(monkeypatch, capsys):
    """A repeated method would write two rows per instance, of which the ATR
    keeps one: `bench run --methods greedy,greedy` is a usage error."""
    builds = []
    monkeypatch.setattr("sfista.bench.make_instance", builds.append)
    with pytest.raises(ValueError, match="methods repeat"):
        run_benchmark(_tiny_suite(), ["rpf-sfista", "greedy", "rpf-sfista"], 1e-8, 60.0)
    err = _usage_error(capsys, bench_main, ["run", "--family", "lasso", "--methods", "greedy,greedy"])
    assert "error: methods repeat: ['greedy', 'greedy']" in err
    assert builds == []


def test_run_benchmark_error_captured_per_row():
    bad = InstanceSpec("qp_simplex", 10, 10, 0, alpha=1000.0,
                       mu_target=50.0, L_target=1e2)  # calibration infeasible
    records = run_benchmark([bad], ["rpf-sfista"], 1e-8, 60.0)
    assert len(records) == 1
    assert records[0].status.startswith("error:")


def test_run_benchmark_builds_each_instance_once(monkeypatch):
    """One make_instance call per spec, shared by its methods, gives the
    records of one build per row; a spec whose build fails errors every row."""
    bad = InstanceSpec("qp_simplex", 10, 10, 0, alpha=1000.0,
                       mu_target=50.0, L_target=1e2)  # calibration infeasible
    suite = [InstanceSpec("lasso", 20, 40, 1, C=2.0), bad,
             InstanceSpec("qp_box", 8, 16, 1, mu_target=1e-2)]
    methods = ["rpf-sfista", "fista-r", "greedy"]

    def solved(records):
        return [(r.instance_id, r.method, r.status, r.iters, r.prox_evals, r.grad_evals,
                 r.rel_residual) for r in records]

    # one build per row, the way each (instance, method) pair runs alone
    per_row = [rec for spec in suite for method in methods
               for rec in run_benchmark([spec], [method], 1e-8, 60.0)]
    builds = []

    def counted_make_instance(spec):
        builds.append(spec)
        return make_instance(spec)

    monkeypatch.setattr("sfista.bench.make_instance", counted_make_instance)
    records = run_benchmark(suite, methods, 1e-8, 60.0)
    assert sorted(builds, key=suite.index) == suite
    assert solved(records) == solved(per_row)
    assert [r.status for r in records[3:6]] == ["error:RuntimeError"] * 3


def test_run_benchmark_reads_known_L_before_timing_a_row(monkeypatch):
    """known_L is computed on first read, and run_benchmark reads it with the
    build: before the first row's solve, so no row's runtime holds it.  An
    estimate that raises fails every row of its instance, as a failed build
    does."""
    events = []

    def logged_make_instance(spec):
        problem, z0 = make_instance(spec)

        def estimate():
            events.append(f"known_L:{spec.seed}")
            if spec.seed == 2:
                raise RuntimeError("the estimate failed")
            return problem.known_L
        return replace(problem, known_L=estimate), z0

    def logged(method):
        run = METHODS[method]

        def call(*args):
            events.append(method)
            return run(*args)
        return call

    monkeypatch.setattr("sfista.bench.make_instance", logged_make_instance)
    for method in ("rada", "greedy"):
        monkeypatch.setitem(METHODS, method, logged(method))
    suite = [InstanceSpec("lasso", 20, 40, seed, C=2.0) for seed in (1, 2)]
    records = run_benchmark(suite, ["rada", "greedy"], 1e-8, 60.0)
    assert events == ["known_L:1", "rada", "greedy", "known_L:2"]
    assert [r.status for r in records] == ["converged"] * 2 + ["error:RuntimeError"] * 2


def test_threads_share_one_box_hyperplane(monkeypatch):
    """Solves running in four threads at once on one problem, so on one
    BoxHyperplane, with a short switch interval to interleave their
    projections, return what each returns alone, with as many breakpoint
    searches: a projection depends on its input alone, not on the set's
    other calls."""
    problem, z0 = make_instance(InstanceSpec("qp_box", 8, 16, 1, mu_target=1e-2))
    methods = ["rpf-sfista", "fista-r", "fista-bt", "greedy"] * 2
    searches = []
    breakpoint = BoxHyperplane._breakpoint

    def counted_breakpoint(self, *args):
        searches.append(None)
        return breakpoint(self, *args)

    monkeypatch.setattr(BoxHyperplane, "_breakpoint", counted_breakpoint)

    def solve(method):
        out = METHODS[method](problem, z0, 1e-8, 60.0)
        return out.status, out.total_iters, out.counters.prox_evals, out.y.tobytes()

    alone = [solve(m) for m in methods]
    searches_alone = len(searches)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            shared = list(pool.map(solve, methods, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert shared == alone
    assert len(searches) == 2 * searches_alone


def test_run_benchmark_deterministic_iterates():
    a = run_benchmark(_tiny_suite(), ["rpf-sfista", "greedy"], 1e-8, 60.0)
    b = run_benchmark(_tiny_suite(), ["rpf-sfista", "greedy"], 1e-8, 60.0)
    assert [(r.iters, r.prox_evals, r.rel_residual) for r in a] == \
           [(r.iters, r.prox_evals, r.rel_residual) for r in b]


def test_atr_from_records():
    records = [
        _record(method="rpf-sfista", runtime_s=1.0),
        _record(method="fista-bt", runtime_s=4.0),
        _record(method="rada", runtime_s=2.0),
    ]
    # best other is rada at 2.0 -> ATR 2.0
    assert atr_from_records(records) == pytest.approx(2.0)
    # named baseline
    assert atr_from_records(records, baseline="fista-bt") == pytest.approx(4.0)
    # non-converged baseline counts as the time limit
    records[1] = _record(method="fista-bt", status="iter_cap", runtime_s=1.0)
    assert atr_from_records(records, baseline="fista-bt", time_limit=100.0) \
        == pytest.approx(100.0)


def test_atr_from_records_skips_instances_the_baseline_did_not_run():
    other = "qp_box-m40-n80-s1"
    records = [
        _record(method="rpf-sfista", runtime_s=1.0),
        _record(method="fista-bt", runtime_s=4.0),
        _record(instance_id=other, method="rpf-sfista", runtime_s=1.0),
        _record(instance_id=other, method="rada", runtime_s=0.5),
    ]
    # the second instance has no fista-bt row, so only the first is paired
    assert atr_from_records(records, baseline="fista-bt") == pytest.approx(4.0)
    assert atr_from_records(records) == pytest.approx((4.0 + 0.5) / 2)


def test_cli_atr_rejects_a_nan_or_negative_runtime(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for runtime in ("nan", "-2.0"):
        (tmp_path / "r.csv").write_text(emit_table(
            [_record(runtime_s=float(runtime)), _record(method="greedy")], "csv"))
        err = _usage_error(capsys, bench_main, ["atr", "--in", "r.csv"])
        assert "error: run times must be nonnegative" in err
        assert "Traceback" not in err and err.count("error:") == 1
    # an error row keeps its runtime of 0.0 and counts as the time limit
    (tmp_path / "r.csv").write_text(emit_table(
        [_record(), _record(method="greedy", status="error:RuntimeError", runtime_s=0.0)],
        "csv"))
    assert bench_main(["atr", "--in", "r.csv", "--time-limit", "100"]) == 0
    assert "ATR of rpf-sfista vs best other method: 800\n" in capsys.readouterr().out


def test_cli_atr_rejects_an_infinite_time_limit(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.csv").write_text(emit_table(
        [_record(status="iter_cap"), _record(method="greedy", status="iter_cap")], "csv"))
    err = _usage_error(capsys, bench_main, ["atr", "--in", "r.csv", "--time-limit", "inf"])
    assert "error: time_limit must be finite, got inf" in err
    assert "Traceback" not in err and err.count("error:") == 1


def test_desk_suite_families():
    for fam in ("logistic", "lasso", "qp_simplex", "qp_box"):
        suite = desk_suite(fam, seed=1)
        assert len(suite) == 4
        assert all(s.family == fam for s in suite)
        assert [desk_suite(fam, seed=1, count=c) for c in (1, 2, 3)] == [suite[:c] for c in (1, 2, 3)]
    with pytest.raises(ValueError):
        desk_suite("nope")


@pytest.mark.parametrize("family", ["logistic", "lasso", "qp_simplex", "qp_box"])
@pytest.mark.parametrize("count", [-1, 0, 5, 9])
def test_desk_suite_rejects_a_count_outside_1_to_4(family, count):
    with pytest.raises(ValueError, match=f"count must be 1 to 4, got {count}"):
        desk_suite(family, count=count)


# ---------------------------------------------------------------------------
# pinned iterates: (total_iters, cycles, f_evals, grad_evals, prox_evals) at
# eps 1e-8 on the smallest desk instance of each family; for a-reg, iterations
# and cycles are summed over the inner solves.  Counts, not float hashes, so
# the pins hold across BLAS builds.

PINNED_COUNTS = {
    ("logistic", "rpf-sfista"): (170, 2, 365, 352, 182),
    ("logistic", "fista-bt"): (734, 1, 1471, 1468, 737),
    ("logistic", "fista-r"): (152, 5, 307, 304, 155),
    ("logistic", "rada"): (226, 4, 0, 452, 226),
    ("logistic", "greedy"): (130, 12, 0, 260, 130),
    ("logistic", "a-reg"): (1111, 27, 2340, 2277, 1166),
    ("lasso", "rpf-sfista"): (235, 3, 471, 470, 235),
    ("lasso", "fista-bt"): (498, 1, 996, 996, 498),
    ("lasso", "fista-r"): (154, 5, 308, 308, 154),
    ("lasso", "rada"): (109, 4, 0, 218, 109),
    ("lasso", "greedy"): (78, 13, 0, 156, 78),
    ("lasso", "a-reg"): (3630, 33, 7509, 7379, 3749),
    ("qp_simplex", "rpf-sfista"): (80, 2, 161, 160, 80),
    ("qp_simplex", "fista-bt"): (243, 1, 486, 486, 243),
    ("qp_simplex", "fista-r"): (82, 4, 164, 164, 82),
    ("qp_simplex", "rada"): (252, 4, 0, 504, 252),
    ("qp_simplex", "greedy"): (207, 13, 0, 414, 207),
    ("qp_simplex", "a-reg"): (376, 10, 769, 756, 380),
    ("qp_box", "rpf-sfista"): (5482, 5, 10965, 10964, 5482),
    ("qp_box", "fista-bt"): (30971, 1, 61942, 61942, 30971),
    ("qp_box", "fista-r"): (3267, 4, 6534, 6534, 3267),
    ("qp_box", "rada"): (10920, 3, 0, 21840, 10920),
    ("qp_box", "greedy"): (8422, 22, 0, 16844, 8422),
    ("qp_box", "a-reg"): (37401, 43, 75453, 75118, 37717),
}


@pytest.mark.parametrize("family,method", sorted(PINNED_COUNTS))
def test_iterate_counts_pinned(family, method):
    problem, z0 = make_instance(desk_suite(family, seed=42)[0])
    if method == "a-reg":
        out = solve_areg(problem, ARegConfig(eps=1e-8), z0)
        iters = sum(inner.total_iters for inner in out.inner_outputs)
        cycles = sum(inner.cycles for inner in out.inner_outputs)
    else:
        out = METHODS[method](problem, z0, 1e-8, 7200.0)
        iters, cycles = out.total_iters, out.cycles
    c = out.counters
    assert out.status == "converged"
    assert (iters, cycles, c.f_evals, c.grad_evals, c.prox_evals) == PINNED_COUNTS[family, method]


def test_registry_covers_every_method():
    assert {m for _, m in PINNED_COUNTS} == set(METHODS) | {"a-reg"}


# ---------------------------------------------------------------------------
# CLI


def test_cli_bench_run_and_atr(tmp_path, capsys):
    out = tmp_path / "results.csv"
    rc = bench_main([
        "run", "--family", "lasso", "--methods", "rpf-sfista,greedy",
        "--eps", "1e-6", "--seed", "7", "--out", str(out),
    ])
    assert rc == 0
    records = parse_csv(out.read_text())
    assert len(records) == 8  # 4 desk instances x 2 methods
    rc = bench_main(["atr", "--in", str(out), "--baseline", "greedy"])
    assert rc == 0
    assert "ATR" in capsys.readouterr().out


def test_cli_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("methods = rpf-sfista\neps = 1e-4\n# comment\n")
    out = tmp_path / "r.csv"
    rc = bench_main([
        "run", "--family", "lasso", "--config", str(cfg),
        "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    records = parse_csv(out.read_text())
    assert {r.method for r in records} == {"rpf-sfista"}

    # explicit flag wins over the config value
    rc = bench_main([
        "run", "--family", "lasso", "--config", str(cfg),
        "--methods", "greedy", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    assert {r.method for r in parse_csv(out.read_text())} == {"greedy"}


def test_cli_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tacos = 7\n")
    with pytest.raises(SystemExit):
        bench_main(["run", "--family", "lasso", "--config", str(cfg)])


@pytest.fixture
def solves(monkeypatch):
    """Every METHODS entry replaced by one that records its call."""
    calls = []
    for name in list(METHODS):
        monkeypatch.setitem(METHODS, name, lambda *args: calls.append(args))
    return calls


def _usage_error(capsys, main, argv):
    """The stderr of main(argv), which must exit with argparse's status 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_cli_config_supplies_required_flags(tmp_path, capsys):
    # --family of `bench run`, --in of `bench atr` and --problem of `solve`
    # are required, and each may come from the file alone
    results = tmp_path / "r.csv"
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(f"family = lasso\nmethods = rpf-sfista,greedy\neps = 1e-4\n"
                       f"out = {results}\n")
    assert bench_main(["run", "--config", str(run_cfg)]) == 0
    assert len(parse_csv(results.read_text())) == 8
    atr_cfg = tmp_path / "atr.cfg"
    atr_cfg.write_text(f"in = {results}\nbaseline = greedy\n")
    assert bench_main(["atr", "--config", str(atr_cfg)]) == 0
    matrix = tmp_path / "A.csv"
    np.savetxt(matrix, np.random.default_rng(0).standard_normal((10, 6)), delimiter=",")
    solve_cfg = tmp_path / "solve.cfg"
    solve_cfg.write_text(f"problem = {matrix}\nc = 2.0\neps = 1e-6\n")
    assert solve_main(["--config", str(solve_cfg)]) == 0
    printed = capsys.readouterr().out
    assert "ATR of rpf-sfista vs greedy" in printed
    assert "status: converged" in printed


@pytest.mark.parametrize("main,argv,text,error", [
    (bench_main, ["run"], "family = lasso\nformat = html\n",
     "argument --format: invalid choice: 'html'"),
    (solve_main, [], "problem = A.csv\nmethod = nope\n",
     "argument --method: invalid choice: 'nope'"),
])
def test_cli_config_values_checked_like_flags(tmp_path, monkeypatch, capsys, solves,
                                              main, argv, text, error):
    monkeypatch.chdir(tmp_path)
    np.savetxt("A.csv", np.eye(3), delimiter=",")
    (tmp_path / "x.cfg").write_text(text)
    assert error in _usage_error(capsys, main, [*argv, "--config", "x.cfg"])
    assert solves == [] and not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("argv,key", [
    (["run", "--family", "lasso"], "subject = greedy"),  # a key of `bench atr`
    (["atr", "--in", "r.csv"], "seed = 7"),  # a key of `bench run`
    (["atr", "--in", "r.csv"], "in_path = r.csv"),  # the dest, not the flag
])
def test_cli_config_rejects_the_other_commands_keys(tmp_path, monkeypatch, capsys, solves,
                                                    argv, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.cfg").write_text(key + "\n")
    err = _usage_error(capsys, bench_main, [*argv, "--config", "x.cfg"])
    assert "unrecognized arguments: --" + key.split(" =")[0].replace("_", "-") in err
    assert solves == []


def test_cli_library_errors_exit_as_usage_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    err = _usage_error(capsys, bench_main, ["run", "--family", "lasso", "--methods", "nope"])
    assert "error: unknown methods: ['nope']" in err
    assert "Traceback" not in err
    # a results file without a single run of the subject method
    (tmp_path / "r.csv").write_text(emit_table([_record(method="greedy")], "csv"))
    err = _usage_error(capsys, bench_main, ["atr", "--in", "r.csv"])
    assert "error: ATR needs at least one paired run" in err
    # a time limit that is not positive would clamp every time to a tick
    (tmp_path / "p.csv").write_text(emit_table([_record(), _record(method="greedy")], "csv"))
    for limit in ("-1", "0", "nan"):
        err = _usage_error(capsys, bench_main, ["atr", "--in", "p.csv", "--time-limit", limit])
        assert f"error: time_limit must be positive, got {float(limit)}" in err
        assert "Traceback" not in err and err.count("error:") == 1
    # a NaN tolerance stops both commands before any solve
    np.savetxt("A.csv", np.eye(3), delimiter=",")
    for main, argv in [(solve_main, ["--problem", "A.csv"]),
                       (bench_main, ["run", "--family", "lasso"])]:
        err = _usage_error(capsys, main, [*argv, "--eps", "nan"])
        assert "error: eps_hat must be positive" in err
        assert "Traceback" not in err and err.count("error:") == 1
    # a negative seed and an infinite radius are rejected before any solve or
    # arithmetic that would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for main, argv, msg in [
            (bench_main, ["run", "--family", "lasso", "--seed", "-1", "--methods", "greedy"],
             "error: instance seed must be nonnegative, got -1"),
            (solve_main, ["--problem", "A.csv", "--c", "inf"],
             "error: l1-ball radius must be positive and finite, got inf"),
        ]:
            err = _usage_error(capsys, main, argv)
            assert msg in err
            assert "Traceback" not in err and err.count("error:") == 1
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("main,argv", [
    (solve_main, ["--problem", "A.csv"]),
    (bench_main, ["run", "--family", "lasso"]),
])
def test_cli_flags_are_not_abbreviated(tmp_path, monkeypatch, capsys, solves, main, argv):
    # a prefix of --config would parse, but its file would go unread
    monkeypatch.chdir(tmp_path)
    np.savetxt("A.csv", np.eye(3), delimiter=",")
    (tmp_path / "f.cfg").write_text("method = nope\n")
    assert "unrecognized arguments: --conf" in _usage_error(capsys, main, [*argv, "--conf", "f.cfg"])
    assert solves == []


def test_read_config_file_hash_inside_a_value(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# a comment line\nproblem = d#1/A.csv  # the matrix\nc=2.0\t# radius\n")
    assert read_config_file(str(cfg)) == {"problem": "d#1/A.csv", "c": "2.0"}


def test_read_config_file_parse_error(tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        read_config_file(str(cfg))


def test_cli_solve_on_csv_matrix(tmp_path, capsys):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 6))
    path = tmp_path / "A.csv"
    np.savetxt(path, A, delimiter=",")
    rc = solve_main(["--problem", str(path), "--c", "2.0", "--eps", "1e-6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status: converged" in out


def test_cli_solve_runs_the_bench_registry(tmp_path, capsys):
    # `solve` and `bench run` share one method table, so on the same problem
    # the CLI reports the registry's rpf-sfista run (mu_shrink 0.1)
    A = np.random.default_rng(3).standard_normal((40, 80))
    path = tmp_path / "A.csv"
    np.savetxt(path, A, delimiter=",")
    solve_main(["--problem", str(path), "--c", "2.0", "--eps", "1e-10"])
    problem, z0 = gen_lasso(load_csv_matrix(str(path)),
                            np.random.default_rng(0).standard_normal(40), 2.0)
    out = METHODS["rpf-sfista"](problem, z0, 1e-10, 7200.0)
    printed = capsys.readouterr().out
    assert f"iterations: {out.total_iters}\n" in printed
    assert f"prox evals: {out.counters.prox_evals}\n" in printed


def test_cli_solve_on_mtx(tmp_path, capsys):
    path = tmp_path / "A.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n1 1 1.0\n2 2 2.0\n"
    )
    rc = solve_main(["--problem", str(path), "--c", "1.0", "--eps", "1e-8",
                     "--method", "fista-bt"])
    assert rc == 0
    assert "relative residual" in capsys.readouterr().out


def test_cli_solve_on_matrix_market(tmp_path, capsys):
    # the default method (rpf-sfista) on a sparse 4x3 coordinate file
    path = tmp_path / "A.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a 4x3 matrix with five entries\n"
        "4 3 5\n1 1 2.0\n2 2 -1.5\n3 3 1.0\n4 1 0.5\n4 3 3.0\n"
    )
    rc = solve_main(["--problem", str(path), "--c", "1.0", "--eps", "1e-8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: converged" in out


def test_cli_config_given_with_an_equals_sign(tmp_path, monkeypatch, capsys, solves):
    # --config=FILE reads the file as --config FILE does: its bad value is the error
    monkeypatch.chdir(tmp_path)
    np.savetxt("A.csv", np.eye(3), delimiter=",")
    (tmp_path / "x.cfg").write_text("method = nope\n")
    err = _usage_error(capsys, solve_main, ["--problem", "A.csv", "--config=x.cfg"])
    assert "argument --method: invalid choice: 'nope'" in err
    assert solves == []


def test_cli_config_cannot_name_another_config(tmp_path, monkeypatch, capsys, solves):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.cfg").write_text("config = y.cfg\n")
    err = _usage_error(capsys, bench_main, ["run", "--family", "lasso", "--config", "x.cfg"])
    assert "error: x.cfg: a config file cannot name another config file" in err
    assert solves == []


def test_cli_bench_run_prints_a_markdown_table(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = bench_main(["run", "--family", "lasso", "--methods", "greedy", "--eps", "1e-4",
                     "--format", "markdown", "--out", str(out)])
    assert rc == 0
    table = emit_table(parse_csv(out.read_text()), "markdown")
    assert capsys.readouterr().out == f"{table}\nwrote 4 records to {out}\n"


def test_cli_solve_rejects_an_unsupported_problem_file(tmp_path, monkeypatch, capsys, solves):
    monkeypatch.chdir(tmp_path)
    np.savetxt("A.txt", np.eye(3))
    err = _usage_error(capsys, solve_main, ["--problem", "A.txt"])
    assert "error: unsupported problem file 'A.txt' (expected .mtx or .csv)" in err
    assert solves == []


def _solve_output(capsys, argv, A, b):
    """Run `solve` and check that it printed the registry's rpf-sfista run on
    the lasso of A and b."""
    assert solve_main(argv) == 0
    problem, z0 = gen_lasso(A, b, 1.0)
    out = METHODS["rpf-sfista"](problem, z0, 1e-8, 7200.0)
    printed = capsys.readouterr().out
    assert f"iterations: {out.total_iters}\nprox evals: {out.counters.prox_evals}\n" in printed


def test_cli_solve_reads_the_rhs(tmp_path, monkeypatch, capsys):
    # b from a one-column file in place of the seeded random one
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(5)
    A, b = rng.standard_normal((8, 5)), rng.standard_normal(8)
    np.savetxt("A.csv", A, delimiter=",")
    np.savetxt("b.csv", b[:, None], delimiter=",")
    _solve_output(capsys, ["--problem", "A.csv", "--rhs", "b.csv", "--eps", "1e-8"], A, b)


def test_cli_solve_on_a_one_column_matrix(tmp_path, monkeypatch, capsys):
    # an m x 1 file is an m x 1 matrix, both as A and as the rhs
    monkeypatch.chdir(tmp_path)
    col = np.arange(1.0, 6.0)
    np.savetxt("col.csv", col[:, None], delimiter=",")
    _solve_output(capsys, ["--problem", "col.csv", "--rhs", "col.csv", "--eps", "1e-8"],
                  col[:, None], col)
    _solve_output(capsys, ["--problem", "col.csv", "--eps", "1e-8"],
                  col[:, None], np.random.default_rng(0).standard_normal(5))


@pytest.mark.parametrize("argv,bad", [
    (["--problem", "nan.csv"], "nan.csv"),
    (["--problem", "nan.csv", "--method", "greedy"], "nan.csv"),
    (["--problem", "nan.mtx"], "nan.mtx"),
    (["--problem", "A.csv", "--rhs", "b.csv"], "b.csv"),
])
def test_cli_solve_rejects_nan_or_infinite_input(tmp_path, monkeypatch, capsys, solves,
                                                argv, bad):
    monkeypatch.chdir(tmp_path)
    np.savetxt("A.csv", np.eye(3), delimiter=",")
    (tmp_path / "nan.csv").write_text("1.0,0.0,nan\n0.0,1.0,0.0\n0.0,0.0,1.0\n")
    (tmp_path / "b.csv").write_text("1.0\n-inf\n0.0\n")
    (tmp_path / "nan.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 inf\n2 2 1.0\n")
    err = _usage_error(capsys, solve_main, argv)
    assert f"error: {bad}: the matrix has NaN or infinite entries" in err
    assert solves == []
