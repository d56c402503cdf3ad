"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from sfista import gen_lasso_random  # noqa: E402

import harness  # noqa: E402
from workloads import WORKLOADS, Instance, Job, Workload, make_workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(instances=None, jobs=None) -> Workload:
    lasso = Instance("lasso-m30-n60", lambda: gen_lasso_random(30, 60, 5.0, 7))
    return Workload(
        "tiny",
        instances or [lasso],
        jobs or [Job(0, "rpf-sfista", 1e-8), Job(0, "fista-r", 1e-8), Job(0, "a-reg", 1e-8)],
        phi_rtol=1e-6, setup_repeats=2,
    )


def _nan_lasso():
    problem, z0 = gen_lasso_random(30, 60, 5.0, 7)
    return replace(problem, f_eval=lambda z: math.nan), z0


def _run_cli(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "42",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = _run_cli("desk-mixed", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


def test_run_seed_only_reorders_the_jobs():
    a, b = make_workload("desk-mixed", 1), make_workload("desk-mixed", 2)
    assert a.jobs != b.jobs
    assert sorted(a.jobs, key=repr) == sorted(b.jobs, key=repr)
    assert [i.name for i in a.instances] == [i.name for i in b.instances]


def test_prediction_table_cites_declared_names():
    table = json.loads((HERE / "predictions.json").read_text())
    layer = {m["name"] for m in BENCHMARK["per_layer"]}
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    for row in table["predictions"]:
        assert set(row["layer_metrics"]) <= layer
        assert set(row["end_to_end"]) <= e2e
        assert row["workload"] in WORKLOADS
        assert row["expect"] in ("moves", "flat")


def test_counts_repeat_exactly_at_the_same_seed():
    first, second = (harness.per_layer_metrics(harness.run_workload(_tiny(), 0, traced=True))
                     for _ in range(2))
    counts = [name for name, unit in harness.PER_LAYER.items() if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["rpf_sfista.iters"] > 0 and first["a_reg.inner_iters"] > 0


def test_oracle_time_plus_self_time_is_job_time():
    result = harness.run_workload(_tiny(), 0, traced=True)
    spans = result.trace.spans
    kids = result.trace.children()
    assert len(result.traced) == len(result.workload.jobs)
    for ex in result.traced:
        name, start, end, job_span, job_id = spans[ex.span]
        assert name.endswith(".solve") and job_id == job_span
        assert end - start == ex.seconds
        children = [spans[k] for k in kids[ex.span]]
        assert children and all(c[4] == job_id for c in children)
        # oracle calls are disjoint and inside the solve
        for a, b in zip(children, children[1:]):
            assert a[2] <= b[1]
        assert start <= children[0][1] and children[-1][2] <= end
        oracle = sum(c[2] - c[1] for c in children)
        assert oracle + result.trace.self_time(ex.span, kids) == pytest.approx(ex.seconds, abs=1e-12)


def test_nan_oracle_is_a_failed_job_and_the_run_goes_on():
    workload = _tiny(
        instances=[Instance("nan-lasso", _nan_lasso),
                   Instance("lasso-m30-n60", lambda: gen_lasso_random(30, 60, 5.0, 7))],
        jobs=[Job(0, "rpf-sfista", 1e-8), Job(1, "rpf-sfista", 1e-8)],
    )
    result = harness.run_workload(workload, 0, traced=False)
    assert [ex.job for ex in result.untraced] == [0, 1]
    bad, good = result.untraced
    assert not bad.ok and "RuntimeError" in bad.error
    assert good.ok
    assert len(result.failures) == 1 and len(result.executions) == 2
    assert harness.end_to_end_metrics(result)["solve_s"] > 0


def test_benchmark_refuses_to_run_without_the_package_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
