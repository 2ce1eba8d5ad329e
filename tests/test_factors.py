"""Curvature batches computed product factor by product factor.

`geometry._factors` splits a metric's chart into the finest parts that no
entry couples; `geometry._compute_batch` evaluates each part's jets with
its own plan and runs the connection and Ricci contractions per part.  The
connection and Ricci tensor of a product are the direct sums of the
factors', so the split must agree with the whole-metric computation, and
the positive-definite check still sees the whole metric at the whole point.
"""

import math

import numpy as np
import pytest

from confprod import geometry
from confprod.catalog import (
    ProductConformalInstance,
    get_scenario,
    run_scenario,
    scenarios,
)
from confprod.checkers import SamplePlan, sample
from confprod.constructions import (
    ConformalSpec,
    as_metric,
    conformal_metric,
    doubly_twisted_metric,
    joint_sum,
    product,
)
from confprod.errors import SingularMetricError
from confprod.expressions import Const, parse
from confprod.geometry import Chart, MetricSpec, _factors, curvature_batch, metric_values
from instances import conformal_route_pairs


def _parts(metric):
    return [idx for idx, _ in _factors(metric)]


def _metric(coords, rows, margin=0.1):
    chart = Chart(coords, ((-1.5, 1.5),) * len(coords), singular_margin=margin)
    return MetricSpec(chart, tuple(
        tuple(e if isinstance(e, Const) else parse(e, coords) for e in row) for row in rows))


def _cosh_cylinder_base():
    inst, _ = get_scenario("cosh_cylinder").build({})
    return product(inst.g1, inst.g2, inst.labels).metric


def _rescaled_catalog_metrics():
    """The direct route's metric of every catalog scenario, by name."""
    out = {}
    for name, sc in scenarios().items():
        inst, _ = sc.build(dict(sc.defaults))
        if isinstance(inst, ProductConformalInstance):
            block = product(inst.g1, inst.g2, inst.labels)
            phi = inst.phi if inst.phi is not None else joint_sum(block, inst.phi1, inst.phi2)
            out[name] = conformal_metric(ConformalSpec(block, phi))
        else:
            out[name] = doubly_twisted_metric(inst.spec)
    return out


# a constant non-zero entry couples x and y; z is coupled to x through
# an entry that depends on it, so the parts (x, z) and (y,) interleave
_INTERLEAVED = _metric(("x", "y", "z", "w"), (
    ("1 + 0.2 * z^2", Const(0.0), Const(0.0), Const(0.0)),
    (Const(0.0), "2 + 0.1 * sin(y)", Const(0.0), Const(0.0)),
    (Const(0.0), Const(0.0), "1 + 0.3 * x^2", Const(0.0)),
    (Const(0.0), Const(0.0), Const(0.0), "1.5 + 0.2 * cos(w)"),
))


# --- partitions ----------------------------------------------------------------

def test_cosh_cylinder_base_splits_one_two_three():
    base = _cosh_cylinder_base()
    assert _parts(base) == [(0,), (1, 2), (3, 4, 5)]
    for idx, part in _factors(base):
        assert part.chart.coords == tuple(base.chart.coords[i] for i in idx)
        assert part.chart.domain == tuple(base.chart.domain[i] for i in idx)
        assert part.entries == tuple(tuple(base.entries[i][j] for j in idx) for i in idx)


def test_rescaled_catalog_metrics_are_one_part():
    metrics = _rescaled_catalog_metrics()
    # twisted_split's scales each depend on their own factor only, so its
    # doubly twisted metric is a Riemannian product of two surfaces
    assert _parts(metrics.pop("twisted_split")) == [(0, 1), (2, 3)]
    for name, metric in metrics.items():
        assert _factors(metric) == ((tuple(range(metric.dim)), metric),), name


def test_skew_metric_is_one_part():
    spec = dict(conformal_route_pairs())["skew"]
    for metric in (as_metric(spec.base), conformal_metric(spec)):
        assert _parts(metric) == [(0, 1)]


def test_constant_off_diagonal_entry_joins_its_coordinates():
    rows = [["1 + 0.1 * x^2", Const(0.0), Const(0.0)],
            [Const(0.0), "1 + 0.1 * y^2", Const(0.0)],
            [Const(0.0), Const(0.0), "1 + 0.1 * z^2"]]
    assert _parts(_metric(("x", "y", "z"), rows)) == [(0,), (1,), (2,)]
    rows[0][1] = rows[1][0] = Const(-0.0)    # a zero of either sign couples nothing
    assert _parts(_metric(("x", "y", "z"), rows)) == [(0,), (1,), (2,)]
    rows[0][1] = rows[1][0] = Const(0.3)
    assert _parts(_metric(("x", "y", "z"), rows)) == [(0, 1), (2,)]


@pytest.mark.parametrize("first", [0.0, -0.0], ids=["plus-first", "minus-first"])
def test_metrics_differing_in_a_zero_sign_keep_their_own_zero(first):
    # fresh coordinate names per order, so neither metric is cached yet
    x, y = ("p", "q") if math.copysign(1.0, first) > 0 else ("r", "s")
    pts = sample(Chart((x, y), ((-1.5, 1.5),) * 2), SamplePlan(count=5))
    built = [(zero, _metric((x, y), ((f"1 + 0.1 * {x}^2", Const(zero)),
                                     (Const(zero), f"1 + 0.1 * {y}^2")), margin=0.0))
             for zero in (first, -first)]
    assert built[0][1] != built[1][1]
    for zero, metric in built:    # in build order, so `first` is evaluated first
        g = metric_values(metric, pts)
        assert np.signbit(g[:, 0, 1]).all() == (math.copysign(1.0, zero) < 0), zero
        assert _parts(metric) == [(0,), (1,)]


def test_entry_dependence_joins_coordinates_out_of_order():
    assert _parts(_INTERLEAVED) == [(0, 2), (1,), (3,)]


# --- agreement with the whole-metric computation --------------------------------

def _catalog_inputs():
    """Every (metric, points) pair the catalog scenarios evaluate."""
    with geometry.evaluation_scope() as kept:
        for name in scenarios():
            run_scenario(name, plan=SamplePlan(count=25))
        return [(metric, np.frombuffer(raw).reshape(shape)) for metric, shape, raw in kept]


def test_factor_by_factor_matches_the_whole_metric(monkeypatch):
    inputs = _catalog_inputs()
    for _, spec in conformal_route_pairs():
        for metric in (as_metric(spec.base), conformal_metric(spec)):
            inputs.append((metric, sample(metric.chart, SamplePlan(count=37))))
    inputs.append((_INTERLEAVED, sample(_INTERLEAVED.chart, SamplePlan(count=37))))
    assert sum(len(_factors(m)) > 1 for m, _ in inputs) >= 10
    split = [curvature_batch(m, pts) for m, pts in inputs]
    monkeypatch.setattr(geometry, "_factors", lambda m: ((tuple(range(m.dim)), m),))
    whole = [curvature_batch(m, pts) for m, pts in inputs]
    for (metric, _), a, b in zip(inputs, split, whole):
        assert a.g.tobytes() == b.g.tobytes(), metric.chart.coords
        for field in ("ginv", "gamma", "ricci", "scalar"):
            x, y = getattr(a, field), getattr(b, field)
            scale = max(1.0, float(np.abs(y).max()))
            assert float(np.abs(x - y).max()) <= 1e-12 * scale, (metric.chart.coords, field)


# --- the positive-definite check and the parts' widths ---------------------------

def test_singular_second_factor_names_the_full_point():
    metric = _metric(("x", "y"), (("1 + 0.1 * x^2", Const(0.0)), (Const(0.0), "1 + y")),
                     margin=0.0)
    assert _parts(metric) == [(0,), (1,)]
    pts = np.array([[0.5, 0.1 * k] for k in range(12)])
    pts[7] = (-0.75, -1.25)    # g_yy = -0.25
    with pytest.raises(SingularMetricError) as err:
        curvature_batch(metric, pts)
    assert err.value.point == (-0.75, -1.25)
    assert err.value.min_eigenvalue == pytest.approx(-0.25)


def test_ricci_sees_no_part_wider_than_three(monkeypatch):
    base = _cosh_cylinder_base()
    widths = []
    real = geometry._contract

    def recording(program, *rest):
        widths.append(program.dim)
        return real(program, *rest)

    monkeypatch.setattr(geometry, "_contract", recording)
    curvature_batch(base, sample(base.chart, SamplePlan(count=50)))
    assert sorted(widths) == [1, 2, 3]
