"""The per-run evaluation scope and the contracted Ricci tensor.

Inside `evaluation_scope()` each (metric, points) pair is evaluated once;
the direct route (rescaled metric) and the formula route (base metric)
must still never read each other's batches, and a run's report must not
depend on whether the scope shares anything.
"""

import contextlib
import dataclasses
import json

import numpy as np
import pytest

from confprod import catalog, checkers, geometry
from confprod.catalog import builtin_metric, run_inline, run_scenario, scenarios
from confprod.checkers import SamplePlan, conformally_einstein_check, sample
from confprod.constructions import (
    ConformalSpec,
    conformal_metric,
    conformal_ricci_formula,
    product,
)
from confprod.errors import EmptyDomainError, OutsideDomainError
from confprod.expressions import Const, Coord, add, mul, parse
from confprod.geometry import (
    Chart,
    MetricSpec,
    _riemann,
    curvature_batch,
    evaluation_scope,
    grad_norm_sq_batch,
    gradient_batch,
    laplacian_batch,
)

PLAN = SamplePlan(count=24)


def _flat_conformal():
    block = product(builtin_metric("euclidean", 2), builtin_metric("euclidean", 1))
    phi = parse("2 + 0.3 * sin(f0.x1) * cos(f1.x1)", block.metric.chart.coords)
    return ConformalSpec(block, phi)


def _catalog_batches():
    """Every (metric, points) batch the catalog scenarios evaluate."""
    with evaluation_scope() as kept:
        for name in scenarios():
            run_scenario(name, plan=SamplePlan(count=6))
        return dict(kept)


def _assert_ricci_is_riemann_trace(metric, points):
    batch = curvature_batch(metric, points)
    traced = np.einsum("nabad->nbd", _riemann(metric, points))
    scale = max(1.0, float(np.abs(traced).max()))
    assert float(np.abs(batch.ricci - traced).max()) <= 1e-12 * scale


# --- the contracted Ricci tensor ---------------------------------------------

def test_ricci_matches_riemann_trace_on_catalog_metrics():
    batches = _catalog_batches()
    assert len({key[0] for key in batches}) >= 10
    for (metric, _, _), batch in batches.items():
        _assert_ricci_is_riemann_trace(metric, batch.points)


def test_ricci_matches_riemann_trace_on_random_jets():
    # quadratic entries with random coefficients: at a point, g, dg and d2g
    # are generic (d2g symmetric only where second partials must be)
    rng = np.random.default_rng(3)
    n = 5
    coords = tuple(f"x{i}" for i in range(n))
    x = [Coord(c) for c in coords]
    lin = rng.normal(size=(n, n, n)) * 0.2
    quad = rng.normal(size=(n, n, n, n)) * 0.1
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = Const(float(i == j) * 2.0)
            for k in range(n):
                e = add(e, mul(Const(float(lin[i, j, k])), x[k]))
                for m in range(k, n):
                    e = add(e, mul(Const(float(quad[i, j, k, m])), mul(x[k], x[m])))
            rows[i][j] = rows[j][i] = e
    chart = Chart(coords, tuple((-0.5, 0.5) for _ in coords), singular_margin=0.0)
    metric = MetricSpec(chart, tuple(tuple(row) for row in rows))
    _assert_ricci_is_riemann_trace(metric, rng.uniform(-0.4, 0.4, size=(40, n)))


# --- the scope itself --------------------------------------------------------

def test_outside_a_scope_every_call_computes():
    m = builtin_metric("sphere", 3)
    pts = sample(m.chart, PLAN)
    first, second = curvature_batch(m, pts), curvature_batch(m, pts)
    assert first is not second
    assert first.ricci_rows.flags.writeable


def test_scope_keeps_one_batch_per_metric_and_points():
    m = builtin_metric("sphere", 3)
    pts = sample(m.chart, PLAN)
    with evaluation_scope() as kept:
        first = curvature_batch(m, pts)
        assert curvature_batch(m, pts.copy()) is first
        assert curvature_batch(m, pts[:10]) is not first
        with evaluation_scope() as inner:
            assert inner is kept
            assert curvature_batch(m, pts) is first
        assert len(kept) == 2
        rows = {"g_rows", "ginv_rows", "christoffel_rows", "ricci_rows"}
        slots = {name.replace("rows", "slots") for name in rows}
        assert rows | slots | {"points", "scalar"} == set(vars(first))
        assert not any(getattr(first, name).flags.writeable for name in rows | slots | {"scalar"})
        assert pts.flags.writeable    # the caller's points stay the caller's
    assert geometry._SCOPE.get() is None
    assert curvature_batch(m, pts) is not first


def test_field_helpers_agree_inside_and_outside_a_scope():
    m = builtin_metric("hyperbolic", 3)
    pts = sample(m.chart, PLAN)
    phi = parse("cosh(t) + 0.2 * sin(v1)", m.chart.coords)
    helpers = (laplacian_batch, grad_norm_sq_batch, gradient_batch)
    plain = [h(phi, m, pts) for h in helpers]
    with evaluation_scope():
        curvature_batch(m, pts)
        for h, want in zip(helpers, plain):
            assert np.array_equal(h(phi, m, pts), want)


def test_scope_samples_each_chart_and_plan_once(monkeypatch):
    m = builtin_metric("sphere", 3)
    calls = []
    real = checkers._kronecker

    def counting(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(checkers, "_kronecker", counting)
    fresh = sample(m.chart, PLAN)
    assert fresh.flags.writeable and len(calls) == 1
    with evaluation_scope():
        first = sample(m.chart, PLAN)
        assert sample(m.chart, SamplePlan(count=24)) is first
        assert not first.flags.writeable
        assert np.array_equal(first, fresh)
        assert sample(m.chart, SamplePlan(count=25)) is not first
        assert len(calls) == 3
        # the plan is validated on every call, also once its points are kept
        for _ in range(2):
            with pytest.raises(EmptyDomainError):
                sample(m.chart, SamplePlan(count=24, margin=float("nan")))
    assert sample(m.chart, PLAN) is not first and len(calls) == 4


def _is_product_scenario(name: str) -> bool:
    sc = catalog.get_scenario(name)
    return isinstance(sc.build(sc.parameters())[0], catalog.ProductConformalInstance)


@pytest.mark.parametrize("name", [n for n in sorted(scenarios()) if _is_product_scenario(n)])
def test_product_batteries_compute_batches_only_at_kept_samples(name, monkeypatch):
    at = []
    compute = geometry._compute_batch

    def recording(metric, pts):
        at.append(pts)
        return compute(metric, pts)

    monkeypatch.setattr(geometry, "_compute_batch", recording)
    with evaluation_scope():
        run_scenario(name, plan=PLAN)
        kept = list(geometry._SAMPLES.get().points.values())
    assert at and all(any(pts is k for k in kept) for pts in at)


def test_scope_checks_kept_points_against_each_chart():
    def metric(half_width):
        chart = Chart(("x", "y"), ((-half_width, half_width),) * 2, singular_margin=0.0)
        entry = parse("1 + 0.1 * x^2", chart.coords)
        return MetricSpec(chart, ((entry, Const(0.0)), (Const(0.0), parse("1", chart.coords))))

    wide, narrow = metric(2.0), metric(0.5)
    phi = parse("x * y + 0.3 * x^2", wide.chart.coords)
    with evaluation_scope():
        pts = sample(wide.chart, SamplePlan(count=40))
        for _ in range(2):
            # a kept sample, a copy of it and user input: each checked on this chart
            for points in (pts, pts.copy(), np.array([[0.25, -0.25], [0.75, 0.1]])):
                with pytest.raises(OutsideDomainError) as err:
                    laplacian_batch(phi, narrow, points)
                assert str(err.value).endswith(
                    f"outside open box {narrow.chart.domain}"), str(err.value)
            laplacian_batch(phi, wide, pts)
        assert geometry._SAMPLES.get().inside[id(pts)] == {wide.chart}
        with pytest.raises(OutsideDomainError) as err:
            laplacian_batch(phi, wide, np.array([[0.0, 0.5], [3.0, 0.25]]))
        assert str(err.value) == "point (3.0, 0.25) outside open box ((-2.0, 2.0), (-2.0, 2.0))"


# --- route isolation ---------------------------------------------------------

def test_formula_route_reads_only_the_base_metric():
    spec = _flat_conformal()
    base = spec.base.metric
    pts = sample(base.chart, PLAN)
    with evaluation_scope() as kept:
        conformal_ricci_formula(spec, pts)
        assert {key[0] for key in kept} == {base}
    with evaluation_scope() as kept:
        conformally_einstein_check(spec, PLAN, lambda_bar=1.0)
        assert {key[0] for key in kept} == {base}
    with evaluation_scope() as kept:
        # without lambda_bar the direct route runs too, on its own key
        conformally_einstein_check(spec, PLAN)
        assert {key[0] for key in kept} == {base, conformal_metric(spec)}


def test_formula_route_ignores_a_poisoned_rescaled_batch():
    spec = _flat_conformal()
    rescaled = conformal_metric(spec)
    pts = sample(spec.base.metric.chart, PLAN)
    want = conformal_ricci_formula(spec, pts)
    with evaluation_scope() as kept:
        real = curvature_batch(rescaled, pts)
        kept[geometry._scope_key(rescaled, pts)] = dataclasses.replace(
            real, christoffel_rows=np.full_like(real.christoffel_rows, np.nan),
            ricci_rows=np.full_like(real.ricci_rows, np.nan),
            scalar=np.full_like(real.scalar, np.nan))
        assert np.array_equal(conformal_ricci_formula(spec, pts), want)


# --- reports do not depend on the scope --------------------------------------

def _report_text(rep) -> str:
    return json.dumps(rep.to_dict(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(scenarios()))
def test_scenario_report_is_identical_without_the_scope(name, monkeypatch):
    shared = _report_text(run_scenario(name, plan=PLAN))
    monkeypatch.setattr(catalog, "evaluation_scope", contextlib.nullcontext)
    assert _report_text(run_scenario(name, plan=PLAN)) == shared


def test_inline_report_is_identical_without_the_scope(monkeypatch):
    g1, g2 = builtin_metric("euclidean", 1), builtin_metric("euclidean", 2)

    def run():
        return _report_text(run_inline(
            g1, g2, phi1=parse("0.5 * x1^2 + 0.25", g1.chart.coords),
            phi2=parse("0.5 * (x1^2 + x2^2) + 0.25", g2.chart.coords), plan=PLAN))

    shared = run()
    monkeypatch.setattr(catalog, "evaluation_scope", contextlib.nullcontext)
    assert run() == shared
