import numpy as np
import pytest

from confprod.catalog import builtin_metric
from confprod.checkers import (
    MAX_SAMPLES,
    SamplePlan,
    conformally_einstein_check,
    constancy,
    einstein_check,
    factor_hessian_check,
    mixed_ricci_flat_check,
    sample,
    split_factor,
    summand_hessian_check,
    summand_laplacian_fit,
    summand_spread,
    warped_einstein_check,
    warped_presentation_check,
    _affine_fit,
)
from confprod.constructions import (
    ConformalSpec,
    DoublyTwistedSpec,
    WarpedSpec,
    joint_chart,
    product,
    scaled,
)
from confprod.errors import (
    ConstantSummandError,
    EmptyDomainError,
    FitFailureError,
    IllConditionedFitError,
    NonPositiveConformalFactorError,
    UnsupportedDimError,
)
from confprod.expressions import Const, mul, parse
from confprod.geometry import Chart, MetricSpec
from instances import splitting_instances

PLAN = SamplePlan(count=120)


def _sphere_hyperbolic_summands(b_bar):
    # boxes capped so the joint factor cosh(t) - cos(u1) stays well positive
    g1 = builtin_metric("sphere", 2, box={"u1": (0.0, 2.6)})
    g2 = builtin_metric("hyperbolic", 2, box={"t": (0.4, 1.6)})
    phi1 = parse(f"-cos(u1) - {b_bar!r}", g1.chart.coords)
    phi2 = parse(f"cosh(t) + {b_bar!r}", g2.chart.coords)
    return g1, g2, phi1, phi2


# --- sampling ----------------------------------------------------------------

def test_sample_is_deterministic_and_interior():
    chart = Chart(("x", "y"), ((0.0, 1.0), (-2.0, 4.0)), singular_margin=0.1)
    plan = SamplePlan(count=50, margin=0.25)
    pts = sample(chart, plan)
    assert pts.shape == (50, 2)
    assert np.array_equal(pts, sample(chart, plan))
    # the larger of plan margin and chart stand-off applies on every axis
    assert pts[:, 0].min() > 0.25 and pts[:, 0].max() < 0.75
    assert pts[:, 1].min() > -1.75 and pts[:, 1].max() < 3.75
    shifted = sample(chart, SamplePlan(count=50, margin=0.25, seed=3))
    assert not np.array_equal(pts, shifted)


def test_sample_rejects_bad_plans():
    chart = Chart(("x",), ((0.0, 1.0),))
    with pytest.raises(EmptyDomainError):
        sample(chart, SamplePlan(count=0))
    with pytest.raises(EmptyDomainError):
        sample(chart, SamplePlan(rule="sobol"))
    with pytest.raises(EmptyDomainError):
        sample(chart, SamplePlan(margin=0.6))
    with pytest.raises(EmptyDomainError, match="samples must be at most 1000000"):
        sample(chart, SamplePlan(count=MAX_SAMPLES + 1))


def test_constancy_scale_invariance():
    ok, spread, mean = constancy(np.array([5.0, 5.0 + 4e-8]), 1e-8)
    assert ok and mean == pytest.approx(5.0) and spread == pytest.approx(4e-8)
    ok, _, _ = constancy(np.array([0.0, 4e-8]), 1e-8)
    assert not ok


# --- Einstein estimates -------------------------------------------------------

def test_einstein_check_spheres_and_hyperbolic():
    est = einstein_check(builtin_metric("sphere", 3, radius=2.0), PLAN)
    assert est.verdict and not est.low_dim_warning
    assert est.lambda_hat == pytest.approx(0.5, abs=1e-10)
    est = einstein_check(builtin_metric("hyperbolic", 2), PLAN)
    assert est.verdict and est.low_dim_warning
    assert est.lambda_hat == pytest.approx(-1.0, abs=1e-10)


def test_einstein_check_flags_a_product_that_is_not_einstein():
    b = product(builtin_metric("sphere", 2), builtin_metric("euclidean", 1))
    est = einstein_check(b, PLAN)
    assert not est.verdict
    assert est.lambda_hat == pytest.approx(2.0 / 3.0, abs=1e-10)
    # worst entry is the flat direction: |0 - (2/3) * 1|
    assert est.residual.sup == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert est.lambda_spread < 1e-10


def test_einstein_check_low_dim_content_is_in_the_spread():
    coords = ("x", "y")
    chart = Chart(coords, ((-1.5, 1.5), (-1.5, 1.5)))
    entries = tuple(
        tuple(parse(t, coords) for t in row)
        for row in [["1", "0"], ["0", "1 + 0.1 * x^2"]]
    )
    est = einstein_check(MetricSpec(chart, entries), PLAN)
    assert est.low_dim_warning and not est.verdict
    assert est.lambda_spread > 1e-3


def test_einstein_check_is_homothety_invariant():
    m = builtin_metric("sphere", 3)
    est = einstein_check(m, PLAN)
    big = einstein_check(scaled(m, Const(49.0)), PLAN)
    assert big.verdict == est.verdict == True
    assert big.lambda_hat == pytest.approx(est.lambda_hat / 49.0, rel=1e-12)


# --- conformally Einstein residual -------------------------------------------

def test_conformally_einstein_on_a_product_of_space_forms():
    g1, g2, _, _ = _sphere_hyperbolic_summands(0.0)
    b = product(g1, g2)
    phi = parse("cosh(f1.t) - cos(f0.u1)", b.metric.chart.coords)
    report = conformally_einstein_check(ConformalSpec(b, phi), PLAN)
    assert report.verdict
    assert report.sup < 1e-9
    assert abs(report.details["lambda_bar"]) < 1e-6
    assert report.details["direct_verdict_agrees"] == 1.0


def test_conformally_einstein_rejects_a_non_splitting_factor():
    b = product(builtin_metric("euclidean", 2), builtin_metric("euclidean", 2))
    phi = parse("exp(f0.x1 + f1.x1)", b.metric.chart.coords)
    report = conformally_einstein_check(ConformalSpec(b, phi), PLAN)
    assert not report.verdict
    assert report.details["direct_verdict_agrees"] == 1.0


def test_conformally_einstein_accepts_a_supplied_constant():
    g1 = builtin_metric("euclidean", 1)
    g2 = builtin_metric("euclidean", 2)
    b = product(g1, g2)
    phi = parse("0.5 * (f0.x1^2 + f1.x1^2 + f1.x2^2) + 0.5", b.metric.chart.coords)
    report = conformally_einstein_check(ConformalSpec(b, phi), PLAN, lambda_bar=2.0)
    assert report.verdict
    assert "direct_verdict_agrees" not in report.details


# --- splitting ----------------------------------------------------------------

def test_splitting_instances_mixed_partials_and_reassembly():
    block, cases = splitting_instances()
    for tag, phi, splits in cases:
        mixed = mixed_ricci_flat_check(block, phi, PLAN)
        result = split_factor(phi, block, PLAN)
        assert mixed.verdict == splits, tag
        assert result.residual.verdict == splits, tag
        if splits:
            assert result.residual.sup < 1e-10, tag
        else:
            assert result.residual.sup > 1e-3, tag


def test_split_factor_normalizes_at_the_anchor():
    block, cases = splitting_instances()
    phi = dict((t, e) for t, e, _ in cases)["quadratic"]
    result = split_factor(phi, block, PLAN)
    from confprod.expressions import evaluate

    anchor_env = dict(zip(block.factors[0].chart.coords, result.anchor))
    assert evaluate(result.phi1, anchor_env) == pytest.approx(0.0, abs=1e-12)


def test_mixed_ricci_identity_cross_check_runs_when_factor_is_positive():
    block, cases = splitting_instances()
    phi = parse("exp(f0.x1) + exp(f1.x2)", block.metric.chart.coords)
    report = mixed_ricci_flat_check(block, phi, PLAN)
    assert report.verdict
    assert report.details["identity_residual_sup"] < 1e-8
    # a sign-indefinite factor skips only the rescaled-metric cross-check
    phi2 = dict((t, e) for t, e, _ in cases)["linear"]
    report2 = mixed_ricci_flat_check(block, phi2, PLAN)
    assert report2.verdict and report2.details.get("identity_skipped") == 1.0


# --- summand fits -------------------------------------------------------------

def test_summand_laplacian_fit_recovers_frozen_constants():
    b_bar = 0.3
    g1, g2, phi1, phi2 = _sphere_hyperbolic_summands(b_bar)
    fit = summand_laplacian_fit(g1, g2, phi1, phi2, PLAN)
    assert fit.verdict
    assert fit.a1 == pytest.approx(2.0, abs=1e-9)
    assert fit.b1 == pytest.approx(2 * b_bar, abs=1e-9)
    assert fit.a2 == pytest.approx(-2.0, abs=1e-9)
    assert fit.b2 == pytest.approx(2 * b_bar, abs=1e-9)
    assert fit.c1 == pytest.approx(4 * (b_bar**2 - 1), abs=1e-8)
    assert fit.c2 == pytest.approx(4 * (1 - b_bar**2), abs=1e-8)
    assert fit.s_value == pytest.approx(0.0, abs=1e-9)
    assert fit.sbar_mean == pytest.approx(0.0, abs=1e-8)


def test_summand_fit_requires_nonconstant_summands():
    g1, g2, phi1, _ = _sphere_hyperbolic_summands(0.0)
    with pytest.raises(ConstantSummandError) as err:
        summand_laplacian_fit(g1, g2, phi1, parse("2", g2.chart.coords), PLAN)
    assert "warped-product route" in str(err.value)
    assert summand_spread(phi1, g1, PLAN) > 1.0


def test_summand_fit_requires_constant_factor_scalars():
    coords = ("x", "y")
    chart = Chart(coords, ((-1.5, 1.5), (-1.5, 1.5)))
    bumpy = MetricSpec(chart, tuple(
        tuple(parse(t, coords) for t in row)
        for row in [["1", "0"], ["0", "1 + x^2"]]
    ))
    g2 = builtin_metric("euclidean", 2)
    with pytest.raises(FitFailureError) as err:
        summand_laplacian_fit(bumpy, g2, parse("x", coords),
                              parse("x1", g2.chart.coords), PLAN)
    assert "not constant" in str(err.value)


def test_summand_fit_reports_ill_conditioning():
    # centring removes an offset, not a spread this small next to the intercept
    x = np.linspace(0.0, 1e-12, 20)
    with pytest.raises(IllConditionedFitError):
        _affine_fit(x, 2.0 * x + 1.0)


def test_affine_fit_centres_a_large_offset():
    # phi = R^2/4 + |x|^2/2 at R = 1e3: without centring the design is
    # [1, 2.5e5 + O(1)], condition number above 1e10
    x = 2.5e5 + np.linspace(0.0, 2.0, 20)
    a, b, residual = _affine_fit(x, -3.0 * x + 7.0)
    # y is about 7.5e5, so its round-off is about 1e-10
    assert a == pytest.approx(-3.0, rel=1e-9)
    assert b == pytest.approx(7.0, abs=1e-4)
    assert residual < 1e-8


# --- warped route -------------------------------------------------------------

def test_warped_einstein_check_accepts_a_round_sphere_presentation():
    base = builtin_metric("euclidean", 1, box={"x1": (0.2, np.pi - 0.2)})
    fiber = builtin_metric("sphere", 2)
    w = WarpedSpec(base, fiber, parse("sin(x1)", base.chart.coords))
    report = warped_einstein_check(w, PLAN)
    assert report.verdict and report.verdicts_agree
    assert report.lambda_fiber == pytest.approx(1.0, abs=1e-9)
    assert report.lambda_bar == pytest.approx(2.0, rel=1e-9)
    assert report.direct.verdict


def test_warped_einstein_check_rejects_a_cosh_warp():
    base = builtin_metric("euclidean", 1)
    fiber = builtin_metric("sphere", 2)
    w = WarpedSpec(base, fiber, parse("cosh(x1)", base.chart.coords))
    report = warped_einstein_check(w, PLAN)
    assert not report.verdict
    assert not report.direct.verdict
    assert report.verdicts_agree


def test_warped_einstein_check_uses_supplied_constants():
    base = builtin_metric("euclidean", 1, box={"x1": (0.2, np.pi - 0.2)})
    fiber = builtin_metric("sphere", 2)
    w = WarpedSpec(base, fiber, parse("sin(x1)", base.chart.coords),
                   lambda_fiber=1.0, lambda_bar=2.0)
    report = warped_einstein_check(w, PLAN)
    assert report.verdict
    assert report.lambda_fiber == 1.0 and report.lambda_bar == 2.0


def test_warped_einstein_check_rejects_nonpositive_warp():
    base = builtin_metric("euclidean", 1)
    fiber = builtin_metric("sphere", 2)
    w = WarpedSpec(base, fiber, parse("x1", base.chart.coords))
    with pytest.raises(NonPositiveConformalFactorError) as err:
        warped_einstein_check(w, PLAN)
    assert err.value.value <= 0.0


# --- summand hessian route ----------------------------------------------------

def test_summand_hessian_check_frozen_constants():
    b_bar = 0.3
    g1, g2, phi1, phi2 = _sphere_hyperbolic_summands(b_bar)
    report = summand_hessian_check(g1, g2, phi1, phi2, PLAN)
    assert report.verdict and report.verdicts_agree and report.direct.verdict
    k = report.constants
    assert k.a_bar == pytest.approx(1.0, abs=1e-9)
    assert k.b_bar == pytest.approx(b_bar, abs=1e-9)
    assert k.c_bar_1 == pytest.approx(b_bar**2 - 1, abs=1e-8)
    assert k.c_bar_2 == pytest.approx(1 - b_bar**2, abs=1e-8)
    assert abs(k.rho_bar) < 1e-8
    assert k.lambda_1 == pytest.approx(1.0, abs=1e-9)
    assert k.lambda_2 == pytest.approx(-1.0, abs=1e-9)
    assert report.b_ratio_residual < 1e-9
    assert report.a_combination_residual < 1e-9
    assert report.closure_residual < 1e-8


def test_summand_hessian_check_rejects_a_perturbed_summand():
    g1, g2, phi1, _ = _sphere_hyperbolic_summands(0.3)
    phi2 = parse("cosh(t) + 0.3 + 0.05 * t", g2.chart.coords)
    report = summand_hessian_check(g1, g2, phi1, phi2, PLAN)
    assert not report.verdict
    assert not report.hessian_2.verdict
    assert not report.direct.verdict
    assert report.verdicts_agree


def test_summand_hessian_accepts_a_precomputed_fit():
    g1, g2, phi1, phi2 = _sphere_hyperbolic_summands(0.0)
    fit = summand_laplacian_fit(g1, g2, phi1, phi2, PLAN)
    report = summand_hessian_check(g1, g2, phi1, phi2, PLAN, fit=fit)
    assert report.fit is fit
    assert report.verdict


# --- factor identity ----------------------------------------------------------

def test_factor_hessian_identity_on_flat_quadratics():
    g1 = builtin_metric("euclidean", 1)
    g2 = builtin_metric("euclidean", 2)
    phi1 = parse("0.5 * x1^2 + 0.25", g1.chart.coords)
    phi2 = parse("0.5 * (x1^2 + x2^2) + 0.25", g2.chart.coords)
    report = factor_hessian_check(g1, g2, phi1, phi2, PLAN)
    assert report.verdict
    assert report.identity.sup < 1e-8
    assert report.lambda_bar == pytest.approx(2.0, rel=1e-8)
    pinned = factor_hessian_check(g1, g2, phi1, phi2, PLAN, lambda_bar=2.0)
    assert pinned.verdict and pinned.lambda_bar == 2.0


def test_factor_hessian_requires_joint_dimension_three():
    g = builtin_metric("euclidean", 1)
    phi = parse("0.5 * x1^2 + 0.25", g.chart.coords)
    with pytest.raises(UnsupportedDimError):
        factor_hessian_check(g, g, phi, phi, PLAN)


def test_factor_hessian_requires_varying_second_summand():
    g1 = builtin_metric("euclidean", 1)
    g2 = builtin_metric("euclidean", 2)
    phi1 = parse("0.5 * x1^2 + 0.25", g1.chart.coords)
    with pytest.raises(ConstantSummandError):
        factor_hessian_check(g1, g2, phi1, parse("1", g2.chart.coords), PLAN)


# --- warped presentation ------------------------------------------------------

def test_warped_presentation_classifies_scales():
    g1 = builtin_metric("euclidean", 2)
    g2 = builtin_metric("sphere", 2)
    chart = joint_chart(g1, g2)
    one = parse("1", chart.coords)

    warped = DoublyTwistedSpec(g1, g2, one, parse("2 + sin(f0.x1)", chart.coords))
    report = warped_presentation_check(warped, PLAN)
    assert report.verdict and report.base_oriented == 0.0

    twisted = DoublyTwistedSpec(
        g1, g2,
        parse("exp(0.3 * f0.x1)", chart.coords),
        parse("1 + 0.25 * cos(f1.u1)", chart.coords),
    )
    report = warped_presentation_check(twisted, PLAN)
    assert not report.verdict
    assert report.base_oriented > 0.01 and report.fiber_oriented > 0.01

    with pytest.raises(UnsupportedDimError):
        warped_presentation_check(
            DoublyTwistedSpec(g1, g2, parse("x1", ("x1",)), one), PLAN)


# --- scale robustness ---------------------------------------------------------

def test_conformal_verdicts_survive_homothety():
    g1, g2, _, _ = _sphere_hyperbolic_summands(0.0)
    b = product(g1, g2)
    phi = parse("cosh(f1.t) - cos(f0.u1)", b.metric.chart.coords)
    base_report = conformally_einstein_check(ConformalSpec(b, phi), PLAN)

    k2 = 49.0
    homothetic = scaled(b.metric, Const(k2))
    scaled_phi = mul(Const(7.0), phi)
    scaled_report = conformally_einstein_check(ConformalSpec(homothetic, scaled_phi), PLAN)
    assert scaled_report.verdict == base_report.verdict == True
    assert scaled_report.details["lambda_bar"] == pytest.approx(
        base_report.details["lambda_bar"], abs=1e-9)
