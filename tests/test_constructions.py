import numpy as np
import pytest

from confprod.catalog import builtin_metric
from confprod.checkers import SamplePlan, sample
from confprod.constructions import (
    ConformalSpec,
    block_metric,
    DoublyTwistedSpec,
    WarpedSpec,
    conformal_metric,
    conformal_ricci_formula,
    doubly_twisted_metric,
    joint_chart,
    joint_sum,
    product,
    require_positive_factor,
    reciprocal,
    scaled,
    twisted_metric,
    warped_metric,
)
from confprod.errors import DomainError, NonPositiveConformalFactorError, UnsupportedDimError
from confprod.expressions import ONE, Const, parse, powc, rename_coords
from confprod.geometry import Chart, MetricSpec, _riemann, combine, curvature_batch, metric_values
from formulas import conformal_connection, conformal_scalar_formula
from instances import conformal_route_pairs

PLAN = SamplePlan(count=40)


def _pts(metric):
    return sample(metric.chart, PLAN)


# --- products ----------------------------------------------------------------

def test_product_chart_and_blocks():
    b = product(builtin_metric("sphere", 2), builtin_metric("euclidean", 1))
    assert b.metric.chart.coords == ("f0.u1", "f0.th", "f1.x1")
    assert b.blocks == ((0, 1), (2,))
    pts = sample(b.metric.chart, SamplePlan(count=5))
    left, right = b.split_points(pts)
    assert left.shape == (5, 2) and right.shape == (5, 1)
    assert np.array_equal(np.hstack([left, right]), pts)


def test_product_lift_renames_factor_expressions():
    b = product(builtin_metric("euclidean", 2), builtin_metric("euclidean", 1))
    lifted = b.lift(1, parse("cosh(x1)", ("x1",)))
    pts = sample(b.metric.chart, SamplePlan(count=6))
    from confprod.geometry import expr_values

    got = expr_values(lifted, b.metric.chart, pts)
    assert np.allclose(got, np.cosh(pts[:, 2]), atol=1e-15)


def test_builders_return_one_spec_for_equal_inputs():
    # equal, not identical, inputs: builtin_metric builds a new spec each call
    g1, g2 = builtin_metric("sphere", 2), builtin_metric("euclidean", 1)
    h1, h2 = builtin_metric("sphere", 2), builtin_metric("euclidean", 1)
    assert g1 is not h1 and g1 == h1
    b = product(g1, g2)
    assert product(h1, h2) is b
    assert product(h1, h2, ("f0", "f1")) == b
    assert product(g1, g2, ("a", "b")) != b
    phi = parse("2 + f0.u1^2 + f1.x1^2", b.metric.chart.coords)
    assert conformal_metric(ConformalSpec(product(h1, h2), phi)) is \
        conformal_metric(ConformalSpec(b, phi))
    assert scaled(g1, Const(2.0)) is scaled(h1, Const(2.0))
    assert block_metric(g1, Const(2.0), g2, ONE) is block_metric(h1, Const(2.0), h2, ONE)
    phi1, phi2 = parse("cos(u1)", g1.chart.coords), parse("x1", g2.chart.coords)
    assert joint_sum(b, phi1, phi2) is joint_sum(product(h1, h2), phi1, phi2)


def test_builders_keep_charts_apart_that_differ_in_a_zero_sign():
    def metric(lo):
        chart = Chart(("x",), ((lo, 1.0),), singular_margin=0.0)
        return MetricSpec(chart, ((parse("1 + x^2", ("x",)),),))

    plus, minus = metric(0.0), metric(-0.0)
    assert plus == minus     # float equality: 0.0 == -0.0
    for build in (lambda m: scaled(m, Const(2.0)), lambda m: product(m, m).metric,
                  lambda m: block_metric(m, ONE, m, Const(3.0))):
        assert build(plus) is build(metric(0.0))
        a, b = build(plus), build(minus)
        assert a is not b
        assert str(a.chart.domain[0][0]) == "0.0" and str(b.chart.domain[0][0]) == "-0.0"


def test_joint_chart_rejects_equal_labels():
    g = builtin_metric("euclidean", 1)
    with pytest.raises(UnsupportedDimError):
        joint_chart(g, g, labels=("a", "a"))


def test_joint_sum_lifts_both_summands():
    b = product(builtin_metric("euclidean", 1), builtin_metric("euclidean", 1))
    phi = joint_sum(b, parse("x1^2", ("x1",)), parse("cosh(x1)", ("x1",)))
    pts = sample(b.metric.chart, SamplePlan(count=6))
    from confprod.geometry import expr_values

    got = expr_values(phi, b.metric.chart, pts)
    assert np.allclose(got, pts[:, 0] ** 2 + np.cosh(pts[:, 1]), atol=1e-15)


# --- conformal rescaling: formula route equals direct curvature --------------

@pytest.mark.parametrize("tag,spec", conformal_route_pairs(), ids=[t for t, _ in conformal_route_pairs()])
def test_conformal_ricci_formula_matches_direct(tag, spec):
    gbar = conformal_metric(spec)
    pts = _pts(gbar)
    direct = curvature_batch(gbar, pts)
    # the two routes' rows, compared on the union of their slots
    gap, _ = combine(gbar.dim, conformal_ricci_formula(spec, pts), direct.ricci.scaled(-1.0))
    scale = 1.0 + float(np.abs(direct.ricci.rows).max(initial=0.0))
    assert float(np.abs(gap).max(initial=0.0)) <= 1e-9 * scale
    s = conformal_scalar_formula(spec, pts)
    sscale = 1.0 + float(np.abs(direct.scalar).max())
    assert float(np.abs(s - direct.scalar).max()) <= 1e-9 * sscale


@pytest.mark.parametrize("tag", ["plane", "sphere2", "skew"])
def test_conformal_connection_matches_direct(tag):
    spec = dict(conformal_route_pairs())[tag]
    gbar = conformal_metric(spec)
    pts = _pts(gbar)
    n = gbar.dim
    gamma = curvature_batch(gbar, pts).christoffel.dense(n, 3)
    for i in range(n):
        for j in range(n):
            got = conformal_connection(spec, i, j, pts)
            assert float(np.abs(got - gamma[:, :, i, j]).max()) < 1e-10


def test_positive_factor_guard():
    g = builtin_metric("euclidean", 2)
    spec = ConformalSpec(g, parse("x1", g.chart.coords))
    with pytest.raises(NonPositiveConformalFactorError) as err:
        require_positive_factor(spec, np.array([[0.5, 0.0], [-0.25, 0.1]]))
    assert "<= 0" in str(err.value)
    # plain floats, not numpy scalar reprs
    assert "at (-0.25, 0.1)" in str(err.value) and "np.float64" not in str(err.value)
    assert err.value.point == (-0.25, 0.1) and type(err.value.value) is float
    values = require_positive_factor(spec, np.array([[0.5, 0.0], [0.25, 0.1]]))
    assert np.allclose(values, [0.5, 0.25])


@pytest.mark.parametrize("text,kind,where", [("1e200 + x1^2", "underflow", "(0.5, 0.0)"),
                                             ("1e-200 + x1^2", "overflow", "(0.0, 0.1)")])
def test_positive_factor_guard_names_a_scale_outside_the_float_range(text, kind, where):
    g = builtin_metric("euclidean", 2)
    spec = ConformalSpec(g, parse(text, g.chart.coords))
    with pytest.raises(DomainError) as err:
        require_positive_factor(spec, np.array([[0.5, 0.0], [0.0, 0.1]]))
    message = str(err.value)
    assert f"at {where}: phi^-2 = " in message and f"({kind}) in '" in message


def test_conformal_spec_rejects_off_chart_factor():
    g = builtin_metric("euclidean", 2)
    with pytest.raises(UnsupportedDimError):
        ConformalSpec(g, parse("t", ("t",)))


# --- warped and twisted forms ------------------------------------------------

def test_warped_metric_is_a_conformal_product():
    # g_B + f^2 g_F agrees with f^2 ((1/f)^2 g_B + g_F) entry by entry
    base = builtin_metric("euclidean", 1, box={"x1": (-1.2, 1.2)})
    fiber = builtin_metric("sphere", 2)
    f = parse("cosh(x1)", base.chart.coords)
    warped = warped_metric(WarpedSpec(base, fiber, f))

    shrunk = scaled(base, powc(reciprocal(f), 2.0))
    prod = product(shrunk, fiber)
    phi = reciprocal(rename_coords(f, {"x1": "f0.x1"}))
    alt = conformal_metric(ConformalSpec(prod, phi))

    pts = sample(warped.chart, SamplePlan(count=30))
    n = warped.dim
    assert float(np.abs(metric_values(warped, pts).dense(n)
                        - metric_values(alt, pts).dense(n)).max()) < 1e-12


def test_doubly_twisted_metric_factors_through_a_single_twist():
    # b^2 g_B + f^2 g_F == b^2 (g_B + (f/b)^2 g_F)
    g1 = builtin_metric("euclidean", 2)
    g2 = builtin_metric("sphere", 2)
    chart = joint_chart(g1, g2)
    b = parse("exp(0.3 * f0.x1)", chart.coords)
    f = parse("1 + 0.25 * cos(f1.u1)", chart.coords)
    d = DoublyTwistedSpec(g1, g2, b, f)
    direct = doubly_twisted_metric(d)

    ratio = parse("(1 + 0.25 * cos(f1.u1)) / exp(0.3 * f0.x1)", chart.coords)
    alt = scaled(twisted_metric(g1, ratio, g2), powc(b, 2.0))

    pts = sample(chart, SamplePlan(count=30))
    n = direct.dim
    assert float(np.abs(metric_values(direct, pts).dense(n)
                        - metric_values(alt, pts).dense(n)).max()) < 1e-12


def test_twisted_metric_rejects_off_chart_function():
    g1 = builtin_metric("euclidean", 1)
    g2 = builtin_metric("euclidean", 1)
    with pytest.raises(UnsupportedDimError):
        twisted_metric(g1, parse("q", ("q",)), g2)


def test_doubly_twisted_scale_coordinates_are_validated():
    g1 = builtin_metric("euclidean", 1)
    g2 = builtin_metric("euclidean", 1)
    chart = joint_chart(g1, g2)
    good = parse("1 + 0.1 * f0.x1^2", chart.coords)
    # bare factor-chart names are rejected; scales must use the prefixed names
    bad = DoublyTwistedSpec(g1, g2, parse("x1", ("x1",)), good)
    with pytest.raises(UnsupportedDimError):
        doubly_twisted_metric(bad)


def test_warp_must_live_on_the_base_chart():
    base = builtin_metric("euclidean", 1)
    fiber = builtin_metric("sphere", 2)
    with pytest.raises(UnsupportedDimError):
        WarpedSpec(base, fiber, parse("u1", ("u1",)))


# --- rescaling ---------------------------------------------------------------

def test_scaled_by_a_constant_is_exact_and_homothety_invariant():
    m = builtin_metric("sphere", 2)
    k2 = 49.0
    homothetic = scaled(m, Const(k2))
    pts = _pts(m)
    g0 = metric_values(m, pts).dense(m.dim)
    g1 = metric_values(homothetic, pts).dense(m.dim)
    assert np.array_equal(g1, k2 * g0)
    b0 = curvature_batch(m, pts)
    b1 = curvature_batch(homothetic, pts)
    # connection and (1,3) curvature are scale free; scalar drops by 1/k^2
    gamma0, gamma1 = (b.christoffel.dense(m.dim, 3) for b in (b0, b1))
    assert float(np.abs(gamma1 - gamma0).max()) < 1e-12
    assert float(np.abs(_riemann(homothetic, b1) - _riemann(m, b0)).max()) < 1e-12
    assert float(np.abs(b1.scalar - b0.scalar / k2).max()) < 1e-12


def test_scaled_by_a_function_values():
    m = builtin_metric("euclidean", 2)
    factor = parse("exp(x1)", m.chart.coords)
    rescaled = scaled(m, powc(factor, 2.0))  # factor^2 g
    pts = _pts(m)
    got = metric_values(rescaled, pts).dense(m.dim)
    want = np.exp(2.0 * pts[:, 0])[:, None, None] * metric_values(m, pts).dense(m.dim)
    assert float(np.abs(got - want).max()) < 1e-12
