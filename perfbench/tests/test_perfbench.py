"""Tests of the benchmark harness itself; run with

    python3 -m pytest perfbench/tests -q

from the repository root.  They stay out of the tier-1 suite (pyproject's
testpaths) because each smoke run starts several interpreters.
"""

from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_declared_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace and workload == "catalog_2k":
        counts = {name: result["metrics"][f"geometry.curvature_batch.calls.{name}"]["value"]
                  for name in ("flat_quadratic", "sphere_hyperbolic", "non_splitting",
                               "cosh_cylinder", "warped_sphere")}
        assert counts == {"flat_quadratic": 18, "sphere_hyperbolic": 18, "non_splitting": 18,
                          "cosh_cylinder": 14, "warped_sphere": 14}


def test_bare_checkout_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog_2k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _deterministic(text: str) -> str:
    return re.sub(r'\n\s*"generated_at": "[^"]*",', "", text)


def test_traced_reports_match_untraced(tmp_path):
    checks = workloads.catalog_inputs(7, "tiny")
    texts = {}
    for mode in ("traced", "plain"):
        workdir = tmp_path / mode
        workdir.mkdir()
        if mode == "traced":
            with spans.Tracer() as tracer:
                raw = workloads.run_checks(checks, workdir)
        else:
            raw = workloads.run_checks(checks, workdir)
        assert workloads.check_reports(checks, raw, workdir).failed == 0
        texts[mode] = [_deterministic((workdir / f"report-{k}.json").read_text())
                       for k in range(len(checks))]
    assert texts["traced"] == texts["plain"]
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == len(checks)
    assert metrics["expressions.eval.calls"] > 0


def test_tracer_restores_every_name_and_goes_quiet(tmp_path):
    modules = [importlib.import_module(f"confprod.{m}") for m in spans.MODULES]
    before = [dict(vars(m)) for m in modules]
    checks = workloads.sweep_inputs(2, "tiny")
    with spans.Tracer() as tracer:
        wrapped = sum(vars(m)[k] is not v for m, b in zip(modules, before) for k, v in b.items())
        workloads.run_checks(checks, tmp_path)
    assert wrapped > 0
    for m, b in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in b.items())
    counts = tracer.metrics()
    workloads.run_checks(checks, tmp_path)   # cached evaluators may still be wrapped
    assert tracer.metrics() == counts


def test_check_gate_counts_every_bad_operation(tmp_path):
    checks = workloads.catalog_inputs(3, "tiny")[:3]
    raw = workloads.run_checks(checks, tmp_path)
    report = tmp_path / "report-1.json"
    report.write_text(report.read_text().replace('"tolerance": 1e-08', '"tolerance": NaN', 1))
    raw[2] = (1, *raw[2][1:])
    outcome = workloads.check_reports(checks, raw, tmp_path)
    assert (outcome.attempted, outcome.failed) == (3, 2)


@pytest.mark.parametrize("slowdown", [1.0, 2.0])
def test_speed_scaling_leaves_out_loops_and_divides_by_loop_time(slowdown):
    meter = speed.Speedometer()
    loop = speed.REFERENCE_S * slowdown
    meter.starts = [0.1, 0.2, 0.3]
    meter.ends = [t + loop for t in meter.starts]
    meter.loops = [loop] * 3
    meter.finish()
    assert meter.normalise(0.0, 0.4) == pytest.approx((0.4 - 3 * loop) / slowdown)
    assert meter.normalise(0.21, 0.29) == pytest.approx(0.08 / slowdown)
    assert meter.normalise(0.2, 0.2 + loop) == 0.0


def test_speedometer_samples_while_installed():
    with speed.Speedometer() as meter:
        speed.reference_loop()
        start = speed.thread_time()
        while speed.thread_time() - start < 0.3:
            pass
        end = speed.thread_time()
    assert meter.samples >= 4
    assert 0 < meter.normalise(start, end) < 10 * (end - start)
