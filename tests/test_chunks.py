"""Curvature batches computed in slices of sample points.

`geometry._compute_batch` walks the points in slices whose second-derivative
jets fit `geometry._CHUNK_BYTES`.  Every point's values depend on that point
alone, so the slice size must not change a single bit of a batch (its
scalar curvature included) or of a field's Laplacian and |d phi|^2, a singular
point in a later slice must still be the one reported, and the memory one
batch needs must stay well below one full d2g array.  A batch keeps g,
g^-1, its Christoffel symbols and Ricci as compact rows, so the batches a
scope keeps hold no count x n^3 and no count x n^2 array.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from confprod import geometry
from confprod.catalog import builtin_metric, run_scenario, scenarios
from confprod.checkers import SamplePlan, sample
from confprod.constructions import ConformalSpec, as_metric, conformal_metric, product
from confprod.errors import SingularMetricError
from confprod.expressions import parse
from confprod.geometry import (
    Chart,
    MetricSpec,
    curvature_batch,
)
from formulas import field_jets
from instances import conformal_route_pairs, random_dense_metric

FIELDS = tuple(f.name for f in dataclasses.fields(geometry.CurvatureBatch))


def _held(batch):
    """Every array a batch holds, field by field: a tensor's rows and slots."""
    return [a for value in vars(batch).values()
            for a in (value if isinstance(value, geometry.Rows) else (value,))]


def _route_pair_metrics():
    """Base and rescaled metric of every conformal route pair, skew included."""
    out = []
    for tag, spec in conformal_route_pairs():
        out += [(f"{tag}-base", as_metric(spec.base)), (f"{tag}-rescaled", conformal_metric(spec))]
    return out


def _catalog_inputs():
    """Every (metric, points) pair the catalog scenarios evaluate."""
    with geometry.evaluation_scope() as kept:
        for name in scenarios():
            run_scenario(name, plan=SamplePlan(count=25))
        return [(metric, np.frombuffer(raw).reshape(shape)) for metric, shape, raw in kept]


def _batches(inputs, budget, monkeypatch):
    monkeypatch.setattr(geometry, "_CHUNK_BYTES", budget)
    return [curvature_batch(metric, points) for metric, points in inputs]


def _traces(inputs, budget, monkeypatch):
    """lap and |d phi|^2 of a field with cross terms on each input."""
    monkeypatch.setattr(geometry, "_CHUNK_BYTES", budget)
    out = []
    for metric, points in inputs:
        phi = parse(" * ".join(f"cos(0.3 * {c})" for c in metric.chart.coords),
                    metric.chart.coords)
        out.append(np.concatenate(field_jets(phi, metric, points)[1:]))
    return out


def test_slice_size_does_not_change_a_bit(monkeypatch):
    inputs = [(m, sample(m.chart, SamplePlan(count=37))) for _, m in _route_pair_metrics()]
    dense = random_dense_metric()    # 21 g^-1 and Ricci slots per point to sum
    inputs += _catalog_inputs() + [(dense, sample(dense.chart, SamplePlan(count=37)))]
    assert any(m.dim >= 6 for m, _ in inputs)
    assert "scalar" in FIELDS    # summed over the g^-1 and Ricci rows slice by slice
    default = _batches(inputs, geometry._CHUNK_BYTES, monkeypatch)
    one_point = _batches(inputs, 1, monkeypatch)            # a slice per point
    whole = _batches(inputs, 1 << 40, monkeypatch)          # one slice
    for a, b, c in zip(default, one_point, whole):
        for x, y, z in zip(_held(a), _held(b), _held(c)):
            assert x.tobytes() == y.tobytes() == z.tobytes()
    # the field traces read the Hessian the Christoffel rows correct in slices
    traces = [_traces(inputs, budget, monkeypatch) for budget in (1, 1 << 20, 1 << 40)]
    for x, y, z in zip(*traces):
        assert x.tobytes() == y.tobytes() == z.tobytes()


def test_singular_point_in_a_later_slice_is_named(monkeypatch):
    chart = Chart(("x", "y"), ((-2.0, 2.0), (-2.0, 2.0)), singular_margin=0.0)
    metric = MetricSpec(chart, ((parse("1 + x", chart.coords), parse("0", chart.coords)),
                                (parse("0", chart.coords), parse("1", chart.coords))))
    pts = np.array([[0.5, 0.1 * k] for k in range(12)])
    pts[9] = (-1.5, 0.25)    # g_xx = -0.5
    pts[11] = (-1.25, 0.5)
    monkeypatch.setattr(geometry, "_CHUNK_BYTES", 4 * 8 * 2**4)   # 4 points a slice
    with pytest.raises(SingularMetricError) as err:
        curvature_batch(metric, pts)
    assert err.value.point == (-1.5, 0.25)
    assert err.value.min_eigenvalue == pytest.approx(-0.5)


def test_batch_memory_stays_below_one_full_d2g():
    # deterministic allocation sizes, not a timing: n = 6, 2000 points
    block = product(builtin_metric("sphere", 3), builtin_metric("hyperbolic", 3))
    phi = parse("cosh(f1.t) + 2 - cos(f0.u1)", block.metric.chart.coords)
    metric = conformal_metric(ConformalSpec(block, phi))
    n = metric.dim
    pts = sample(metric.chart, SamplePlan(count=2000))
    curvature_batch(metric, pts[:3])    # compile the jet plan outside the trace
    full_d2g = 8 * len(pts) * n**4      # 20.7 MB
    tracemalloc.start()
    try:
        curvature_batch(metric, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_d2g / 2, peak


def test_kept_batches_hold_no_dense_christoffel_array():
    # deterministic array sizes, not RSS: cosh_cylinder's batches at 2000 points
    with geometry.evaluation_scope() as kept:
        run_scenario("cosh_cylinder", plan=SamplePlan(count=2000))
        arrays = {id(a): a for batch in kept.values() for a in _held(batch)}
        arrays.update((id(a), a) for a in geometry._SAMPLES.get().points.values())
        assert kept and all(isinstance(a, np.ndarray) for a in arrays.values())
        for (metric, shape, _), batch in kept.items():
            if metric.dim > 1:    # at n = 1, count x n^3 is the scalar's size
                dense = shape[0] * metric.dim**3
                assert all(a.size != dense for a in _held(batch)), metric.chart.coords
        total = sum(a.nbytes for a in arrays.values())
    assert total <= 12e6, total    # 27.3 MB with a dense count x n^3 gamma


def test_kept_batches_hold_no_dense_square_array():
    # deterministic array sizes, not RSS: cosh_cylinder's batches at 2000 points
    # keep g, ginv and ricci as compact rows, not as count x n^2 arrays
    tracemalloc.start()
    try:
        with geometry.evaluation_scope() as kept:
            run_scenario("cosh_cylinder", plan=SamplePlan(count=2000))
            arrays = {id(a): a for batch in kept.values() for a in _held(batch)}
            arrays.update((id(a), a) for a in geometry._SAMPLES.get().points.values())
            for (metric, shape, _), batch in kept.items():
                if metric.dim > 1:    # at n = 1, count x n^2 is the scalar's size
                    dense = shape[0] * metric.dim**2
                    assert all(a.size != dense for a in _held(batch)), metric.chart.coords
            total = sum(a.nbytes for a in arrays.values())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total <= 3.5e6, total    # 9.6 MB with dense g, ginv and ricci
    assert peak <= 7e6, peak        # 12.0 MB with dense g, ginv and ricci
