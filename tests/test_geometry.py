import math

import numpy as np
import pytest

from confprod.catalog import builtin_metric
from confprod.checkers import SamplePlan, sample
from confprod.errors import OutsideDomainError, SingularMetricError, UnsupportedDimError
from confprod.expressions import Const, parse
from confprod.geometry import (
    Chart,
    MetricSpec,
    Rows,
    _riemann,
    coordinate_hessian_batch,
    curvature,
    curvature_batch,
    metric_values,
)
import fd_reference as fd
from formulas import field_jets
from instances import random_dense_metric


def mk(coords, domain, rows, margin=0.1):
    chart = Chart(tuple(coords), tuple(domain), singular_margin=margin)
    entries = tuple(tuple(parse(t, coords) for t in row) for row in rows)
    return MetricSpec(chart, entries)


SPHERE2 = mk(("u1", "th"), ((0.0, np.pi), (0.0, 2 * np.pi)),
             [["1", "0"], ["0", "sin(u1)^2"]])
HYPERBOLIC2 = mk(("t", "ph"), ((0.0, 1.5), (0.0, 2 * np.pi)),
                 [["1", "0"], ["0", "sinh(t)^2"]])
SKEW = mk(("x", "y"), ((-1.5, 1.5), (-1.5, 1.5)),
          [["1 + 0.1 * x^2", "0.2 * x * y"], ["0.2 * x * y", "1 + 0.1 * y^2"]],
          margin=0.0)
# conformal rescale of the flat plane, kept 2d so the FD sweep stays cheap
CONFORMAL = mk(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)),
               [["exp(x + 0.5 * y)", "0"], ["0", "exp(x + 0.5 * y)"]],
               margin=0.0)


# --- constant curvature goldens ---------------------------------------------

def _space_form_points(metric, count=12):
    rng = np.random.default_rng(7)
    lo = np.array([d[0] for d in metric.chart.domain])
    hi = np.array([d[1] for d in metric.chart.domain])
    pad = metric.chart.singular_margin + 0.05
    return lo + pad + rng.random((count, metric.dim)) * (hi - lo - 2 * pad)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("kind,sign", [("euclidean", 0.0), ("sphere", 1.0), ("hyperbolic", -1.0)])
def test_space_forms_have_constant_curvature(kind, sign, dim):
    r = 1.3
    m = builtin_metric(kind, dim, radius=r)
    batch = curvature_batch(m, _space_form_points(m))
    want_ric = sign * (dim - 1) / r**2 * batch.g.dense(dim)
    assert float(np.abs(batch.ricci.dense(dim) - want_ric).max()) < 1e-9
    assert float(np.abs(batch.normalized_scalar() - sign / r**2).max()) < 1e-9


def test_unit_sphere_point_values():
    data = curvature(SPHERE2, (1.1, 0.7))
    assert data.scalar == pytest.approx(2.0, abs=1e-10)
    assert data.normalized_scalar == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(data.ricci, data.metric, atol=1e-10)
    # the one nonzero independent Christoffel pair on the round 2-sphere
    assert data.christoffel[0, 1, 1] == pytest.approx(-np.sin(1.1) * np.cos(1.1), abs=1e-10)
    assert data.christoffel[1, 0, 1] == pytest.approx(np.cos(1.1) / np.sin(1.1), abs=1e-10)


def test_line_has_no_curvature():
    m = mk(("x",), ((-2.0, 2.0),), [["1"]], margin=0.0)
    data = curvature(m, (0.3,))
    assert data.scalar == 0.0
    assert data.normalized_scalar == 0.0
    assert np.all(data.riemann == 0.0)


# --- cross-validation against the finite-difference reference ---------------

@pytest.mark.parametrize("metric,points", [
    (SPHERE2, [(0.9, 1.2), (1.8, 4.0)]),
    (HYPERBOLIC2, [(0.6, 2.0), (1.1, 0.4)]),
    (SKEW, [(0.4, -0.7), (-1.0, 0.9)]),
    (CONFORMAL, [(0.3, -0.4), (-0.6, 0.5)]),
], ids=["sphere2", "hyperbolic2", "skew", "conformal"])
def test_curvature_matches_finite_differences(metric, points):
    for p in points:
        data = curvature(metric, p)
        pairs = [
            (data.christoffel, fd.christoffel_fd(metric, p)),
            (data.riemann, fd.riemann_fd(metric, p)),
            (data.ricci, fd.ricci_fd(metric, p)),
            (np.array(data.scalar), np.array(fd.scalar_fd(metric, p))),
        ]
        for got, ref in pairs:
            scale = 1.0 + float(np.abs(ref).max())
            assert float(np.abs(got - ref).max()) <= 1e-6 * scale


def test_hyperbolic3_matches_finite_differences():
    m = builtin_metric("hyperbolic", 3)
    p = (0.8, 1.1, 2.3)
    data = curvature(m, p)
    ref = fd.ricci_fd(m, p)
    assert float(np.abs(data.ricci - ref).max()) <= 1e-6 * (1.0 + float(np.abs(ref).max()))
    assert abs(data.scalar - fd.scalar_fd(m, p)) <= 1e-6 * (1.0 + abs(data.scalar))


# --- tensor identities ------------------------------------------------------

@pytest.mark.parametrize("metric", [SPHERE2, SKEW, CONFORMAL], ids=["sphere2", "skew", "conformal"])
def test_riemann_symmetries(metric):
    pts = _space_form_points(metric, count=8)
    batch = curvature_batch(metric, pts)
    r = _riemann(metric, batch)
    first_bianchi = r + np.einsum("nacdb->nabcd", r) + np.einsum("nadbc->nabcd", r)
    assert float(np.abs(first_bianchi).max()) < 1e-10
    assert float(np.abs(r + np.einsum("nabdc->nabcd", r)).max()) < 1e-12
    ricci = batch.ricci.dense(metric.dim)
    assert float(np.abs(ricci - np.swapaxes(ricci, 1, 2)).max()) < 1e-10


def test_product_scalar_adds_and_cross_ricci_vanishes():
    joint = mk(
        ("u1", "th", "t", "ph"),
        ((0.0, np.pi), (0.0, 2 * np.pi), (0.0, 1.5), (0.0, 2 * np.pi)),
        [
            ["1", "0", "0", "0"],
            ["0", "sin(u1)^2", "0", "0"],
            ["0", "0", "1", "0"],
            ["0", "0", "0", "sinh(t)^2"],
        ],
    )
    p = (1.2, 0.8, 0.7, 2.4)
    data = curvature(joint, p)
    s1 = curvature(SPHERE2, (1.2, 0.8)).scalar
    s2 = curvature(HYPERBOLIC2, (0.7, 2.4)).scalar
    assert data.scalar == pytest.approx(s1 + s2, abs=1e-10)
    assert float(np.abs(data.ricci[:2, 2:]).max()) < 1e-10
    assert float(np.abs(data.ricci[2:, :2]).max()) < 1e-10


# --- hessian and laplacian --------------------------------------------------

def test_flat_quadratic_hessian_and_laplacian():
    coords = ("x1", "x2", "x3")
    m = mk(coords, [(-2.0, 2.0)] * 3,
           [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], margin=0.0)
    phi = parse("0.5 * (x1^2 + x2^2 + x3^2)", coords)
    pts = np.array([[0.3, -0.4, 1.0], [1.1, 0.2, -0.9]])
    hess, lap, gns = field_jets(phi, m, pts)
    assert np.allclose(hess.dense(3), np.eye(3)[None], atol=1e-12)
    # positive laplacian convention: minus the metric trace of the hessian
    assert np.allclose(lap, -3.0, atol=1e-12)
    assert np.allclose(gns, (pts**2).sum(axis=1), atol=1e-12)


def test_sphere_height_function_hessian():
    phi = parse("cos(u1)", SPHERE2.chart.coords)
    pts = np.array([[0.7, 1.0], [2.0, 5.5], [1.4, 3.0]])
    hess, lap, gns = field_jets(phi, SPHERE2, pts)
    g = metric_values(SPHERE2, pts).dense(2)
    want = -np.cos(pts[:, 0])[:, None, None] * g
    assert float(np.abs(hess.dense(2) - want).max()) < 1e-10
    assert np.allclose(lap, 2.0 * np.cos(pts[:, 0]), atol=1e-10)
    assert np.allclose(gns, np.sin(pts[:, 0]) ** 2, atol=1e-10)


def test_hessians_and_metric_values_are_rows_on_sorted_canonical_slots():
    # a symmetric tensor is handed out once per slot (i, j), i <= j, never
    # as a dense array; a plain Hessian has no row for a structural zero
    dense = random_dense_metric(n=4)
    for m, phi in ((SPHERE2, parse("cos(u1) + sin(th)", SPHERE2.chart.coords)),
                   (SKEW, parse("x^2 * sin(y)", SKEW.chart.coords)),
                   (dense, parse(" * ".join(f"cos({c})" for c in dense.chart.coords),
                                 dense.chart.coords))):
        pts, n = sample(m.chart, SamplePlan(count=7)), m.dim
        for name, got in (("coordinate hessian", coordinate_hessian_batch(phi, m.chart, pts)),
                          ("covariant hessian", field_jets(phi, m, pts)[0]),
                          ("metric_values", metric_values(m, pts))):
            assert isinstance(got, Rows), name
            i, j = np.divmod(got.slots, n)
            assert (i <= j).all() and (np.diff(got.slots) > 0).all(), (name, got.slots)
            assert got.rows.shape == (len(got.slots), len(pts)), name
    phi = parse("cos(u1) + sin(th)", SPHERE2.chart.coords)
    hess = coordinate_hessian_batch(phi, SPHERE2.chart, np.array([[1.0, 1.0]]))
    assert hess.slots.tolist() == [0, 3]


# --- validation -------------------------------------------------------------

def test_chart_validation():
    with pytest.raises(UnsupportedDimError):
        Chart(("x", "y"), ((0.0, 1.0),))
    with pytest.raises(UnsupportedDimError):
        Chart(("x", "x"), ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(UnsupportedDimError):
        Chart(("x",), ((1.0, 1.0),))
    with pytest.raises(UnsupportedDimError):
        Chart(("x",), ((0.0, 1.0),), singular_margin=-0.5)


@pytest.mark.parametrize("domain,margin,message", [
    (((0.0, 1.0), (-np.inf, 1.0)), 0.0, "interval (-inf, 1.0) of 'y' needs finite bounds"),
    (((0.0, np.nan), (0.0, 1.0)), 0.0, "interval (0.0, nan) of 'x' needs finite bounds"),
    (((0.0, 1.0), (0.0, 1.0)), np.nan, "singular margin must be a finite number >= 0, got nan"),
    (((0.0, 1.0), (0.0, 1.0)), np.inf, "singular margin must be a finite number >= 0, got inf"),
], ids=["infinite-bound", "nan-bound", "nan-margin", "infinite-margin"])
def test_chart_rejects_non_finite_bounds_and_margin(domain, margin, message):
    with pytest.raises(UnsupportedDimError) as err:
        Chart(("x", "y"), domain, singular_margin=margin)
    assert str(err.value) == message


def test_metric_spec_validation():
    coords = ("x", "y")
    chart = Chart(coords, ((-1.0, 1.0), (-1.0, 1.0)))
    one = parse("1", coords)
    zero = parse("0", coords)
    with pytest.raises(UnsupportedDimError):
        MetricSpec(chart, ((one,),))
    with pytest.raises(UnsupportedDimError):
        MetricSpec(chart, ((one, parse("x", coords)), (zero, one)))
    with pytest.raises(UnsupportedDimError):
        MetricSpec(chart, ((parse("z", ("z",)), zero), (zero, one)))


def test_points_outside_domain_are_rejected():
    with pytest.raises(OutsideDomainError) as err:
        curvature(SPHERE2, (3.5, 0.7))
    assert "outside open box" in str(err.value)
    with pytest.raises(OutsideDomainError) as err:
        metric_values(SKEW, np.array([[0.0, 1.5]]))
    assert "point (0.0, 1.5) outside" in str(err.value)
    with pytest.raises(OutsideDomainError) as err:
        curvature(SPHERE2, np.array([3.5, 0.7]))
    assert "point (3.5, 0.7) outside" in str(err.value)
    with pytest.raises(OutsideDomainError):
        curvature(SPHERE2, (0.9,))


def test_indefinite_metric_is_reported():
    m = mk(("x",), ((-1.0, 1.0),), [["x"]], margin=0.0)
    with pytest.raises(SingularMetricError) as err:
        curvature_batch(m, np.array([[-0.5]]))
    assert err.value.min_eigenvalue < 0.0
    message = str(err.value)
    assert "at (-0.5,)" in message and "np.float64" not in message
    # metric_values is unchecked: it serves diagnostics and comparisons
    vals = metric_values(m, np.array([[-0.5]])).dense(1)
    assert vals[0, 0, 0] == pytest.approx(-0.5)


def test_singular_second_factor_names_the_full_point():
    metric = mk(("x", "y"), ((-1.5, 1.5),) * 2, [["1 + 0.1 * x^2", "0"], ["0", "1 + y"]],
                margin=0.0)
    pts = np.array([[0.5, 0.1 * k] for k in range(12)])
    pts[7] = (-0.75, -1.25)    # g_yy = -0.25
    with pytest.raises(SingularMetricError) as err:
        curvature_batch(metric, pts)
    assert err.value.point == (-0.75, -1.25)
    assert err.value.min_eigenvalue == pytest.approx(-0.25)


@pytest.mark.parametrize("first", [0.0, -0.0], ids=["plus-first", "minus-first"])
def test_metrics_differing_in_a_zero_sign_keep_their_own_zero(first):
    # fresh coordinate names per order, so neither metric is cached yet
    x, y = ("p", "q") if math.copysign(1.0, first) > 0 else ("r", "s")
    chart = Chart((x, y), ((-1.5, 1.5),) * 2, singular_margin=0.0)
    pts = sample(chart, SamplePlan(count=5))
    built = [(zero, MetricSpec(chart, ((parse(f"1 + 0.1 * {x}^2", (x, y)), Const(zero)),
                                       (Const(zero), parse(f"1 + 0.1 * {y}^2", (x, y))))))
             for zero in (first, -first)]
    assert built[0][1] != built[1][1]
    for zero, metric in built:    # in build order, so `first` is evaluated first
        g = metric_values(metric, pts).dense(2)
        assert np.signbit(g[:, 0, 1]).all() == (math.copysign(1.0, zero) < 0), zero
