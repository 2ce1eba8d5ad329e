import dataclasses

import numpy as np
import pytest

from confprod import checkers, geometry
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
    conformal_metric,
    joint_chart,
    joint_sum,
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
    assert est.verdict and not est.details["low_dim_warning"]
    assert est.details["lambda_hat"] == pytest.approx(0.5, abs=1e-10)
    est = einstein_check(builtin_metric("hyperbolic", 2), PLAN)
    assert est.verdict and est.details["low_dim_warning"]
    assert est.details["lambda_hat"] == pytest.approx(-1.0, abs=1e-10)


def test_einstein_check_flags_a_product_that_is_not_einstein():
    b = product(builtin_metric("sphere", 2), builtin_metric("euclidean", 1))
    est = einstein_check(b, PLAN)
    assert not est.verdict
    assert est.details["lambda_hat"] == pytest.approx(2.0 / 3.0, abs=1e-10)
    # worst entry is the flat direction: |0 - (2/3) * 1|
    assert est["residual"].sup == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert est["lambda_spread"].sup < 1e-10


def test_einstein_check_low_dim_content_is_in_the_spread():
    coords = ("x", "y")
    chart = Chart(coords, ((-1.5, 1.5), (-1.5, 1.5)))
    entries = tuple(
        tuple(parse(t, coords) for t in row)
        for row in [["1", "0"], ["0", "1 + 0.1 * x^2"]]
    )
    est = einstein_check(MetricSpec(chart, entries), PLAN)
    assert est.details["low_dim_warning"] and not est.verdict
    assert est["lambda_spread"].sup > 1e-3


def test_einstein_check_is_homothety_invariant():
    m = builtin_metric("sphere", 3)
    est = einstein_check(m, PLAN)
    big = einstein_check(scaled(m, Const(49.0)), PLAN)
    assert big.verdict == est.verdict == True
    assert big.details["lambda_hat"] == pytest.approx(est.details["lambda_hat"] / 49.0,
                                                     rel=1e-12)


_COUPLED = MetricSpec(Chart(("x", "y"), ((-1.0, 1.0),) * 2), tuple(
    tuple(parse(e, ("x", "y")) for e in row)
    for row in [["1 + 0.1 * x^2", "0.1 * x * y"], ["0.1 * x * y", "1 + 0.2 * y^2"]]))


@pytest.mark.parametrize("shift", [0.0, np.inf, np.nan], ids=["finite", "inf", "nan"])
@pytest.mark.parametrize("metric", [
    product(builtin_metric("sphere", 2), builtin_metric("hyperbolic", 2)).metric, _COUPLED],
    ids=["zero-slots", "no-zero-slot"])
def test_einstein_residual_from_rows_is_the_dense_one(metric, shift, monkeypatch):
    # the residual is formed on the batch's rows; it must equal the dense
    # sup over every entry of ric - lambda_hat g bit for bit, a non-finite
    # lambda_hat (0 - inf * 0 is nan) included
    pts = sample(metric.chart, PLAN)
    batch = geometry.curvature_batch(metric, pts)
    batch = dataclasses.replace(batch, scalar=batch.scalar + shift)
    monkeypatch.setattr(checkers, "curvature_batch", lambda m, p: batch)
    lambda_hat = float((batch.scalar / metric.dim).mean())
    with np.errstate(invalid="ignore"):
        est = einstein_check(metric, PLAN)["residual"]
        want = np.abs(batch.ricci - lambda_hat * batch.g).reshape(len(pts), -1).max(axis=1)
    assert np.array_equal([est.sup, est.mean], [want.max(), want.mean()], equal_nan=True)
    assert est.witness == [float(v) for v in pts[int(np.argmax(want))]]


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
        result, _, _ = split_factor(phi, block, PLAN)
        assert mixed.verdict == splits, tag
        assert result.verdict == splits, tag
        if splits:
            assert result.sup < 1e-10, tag
        else:
            assert result.sup > 1e-3, tag


def test_split_factor_normalizes_at_the_anchor():
    block, cases = splitting_instances()
    phi = dict((t, e) for t, e, _ in cases)["quadratic"]
    result, phi1, _ = split_factor(phi, block, PLAN)
    from confprod.expressions import evaluate, format_expr

    anchor_env = dict(zip(block.factors[0].chart.coords, result.details["anchor"]))
    assert evaluate(phi1, anchor_env) == pytest.approx(0.0, abs=1e-12)
    assert result.details["phi1"] == format_expr(phi1)


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
    k = fit.details
    assert k["a1"] == pytest.approx(2.0, abs=1e-9)
    assert k["b1"] == pytest.approx(2 * b_bar, abs=1e-9)
    assert k["a2"] == pytest.approx(-2.0, abs=1e-9)
    assert k["b2"] == pytest.approx(2 * b_bar, abs=1e-9)
    assert k["c1"] == pytest.approx(4 * (b_bar**2 - 1), abs=1e-8)
    assert k["c2"] == pytest.approx(4 * (1 - b_bar**2), abs=1e-8)
    assert k["s_value"] == pytest.approx(0.0, abs=1e-9)
    assert k["sbar_mean"] == pytest.approx(0.0, abs=1e-8)


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
    assert report.verdict and report.details["verdicts_agree"]
    assert report.details["lambda_fiber"] == pytest.approx(1.0, abs=1e-9)
    assert report.details["lambda_bar"] == pytest.approx(2.0, rel=1e-9)
    assert report["direct"].verdict


def test_warped_einstein_check_rejects_a_cosh_warp():
    base = builtin_metric("euclidean", 1)
    fiber = builtin_metric("sphere", 2)
    w = WarpedSpec(base, fiber, parse("cosh(x1)", base.chart.coords))
    report = warped_einstein_check(w, PLAN)
    assert not report.verdict
    assert not report["direct"].verdict
    assert report.details["verdicts_agree"]


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
    fit = summand_laplacian_fit(g1, g2, phi1, phi2, PLAN)
    report = summand_hessian_check(g1, g2, phi1, phi2, PLAN, fit)
    assert report.verdict and report.details["verdicts_agree"] and report["direct"].verdict
    k = report.details
    assert k["a_bar"] == pytest.approx(1.0, abs=1e-9)
    assert k["b_bar"] == pytest.approx(b_bar, abs=1e-9)
    assert k["c_bar_1"] == pytest.approx(b_bar**2 - 1, abs=1e-8)
    assert k["c_bar_2"] == pytest.approx(1 - b_bar**2, abs=1e-8)
    assert abs(k["rho_bar"]) < 1e-8
    assert k["lambda_1"] == pytest.approx(1.0, abs=1e-9)
    assert k["lambda_2"] == pytest.approx(-1.0, abs=1e-9)
    assert report["b_ratio_residual"].sup < 1e-9
    assert report["a_combination_residual"].sup < 1e-9
    assert report["closure_residual"].sup < 1e-8


def test_summand_hessian_check_rejects_a_perturbed_summand():
    g1, g2, phi1, _ = _sphere_hyperbolic_summands(0.3)
    phi2 = parse("cosh(t) + 0.3 + 0.05 * t", g2.chart.coords)
    fit = summand_laplacian_fit(g1, g2, phi1, phi2, PLAN)
    report = summand_hessian_check(g1, g2, phi1, phi2, PLAN, fit)
    assert not report.verdict
    assert not report["hessian_2"].verdict
    assert not report["direct"].verdict
    assert report.details["verdicts_agree"]


def test_summand_hessian_accepts_a_precomputed_fit(monkeypatch):
    g1, g2, phi1, phi2 = _sphere_hyperbolic_summands(0.0)
    fit = summand_laplacian_fit(g1, g2, phi1, phi2, PLAN)

    def refit(*args, **kwargs):
        raise AssertionError("a given fit is not recomputed")

    monkeypatch.setattr(checkers, "summand_laplacian_fit", refit)
    report = summand_hessian_check(g1, g2, phi1, phi2, PLAN, fit=fit)
    assert report.details["c_sum_fit"] == fit.details["c1"] + fit.details["c2"]
    assert report.verdict


# --- factor identity ----------------------------------------------------------

def test_factor_hessian_identity_on_flat_quadratics():
    g1 = builtin_metric("euclidean", 1)
    g2 = builtin_metric("euclidean", 2)
    phi1 = parse("0.5 * x1^2 + 0.25", g1.chart.coords)
    phi2 = parse("0.5 * (x1^2 + x2^2) + 0.25", g2.chart.coords)
    block = product(g1, g2)
    rescaled = conformal_metric(ConformalSpec(block, joint_sum(block, phi1, phi2)))
    lambda_bar = einstein_check(rescaled, PLAN).details["lambda_hat"]
    assert lambda_bar == pytest.approx(2.0, rel=1e-8)
    report = factor_hessian_check(g1, g2, phi1, phi2, PLAN, lambda_bar)
    assert report.verdict
    assert report["identity"].sup < 1e-8
    assert report.details["lambda_bar"] == lambda_bar
    pinned = factor_hessian_check(g1, g2, phi1, phi2, PLAN, lambda_bar=2.0)
    assert pinned.verdict and pinned.details["lambda_bar"] == 2.0
    assert not factor_hessian_check(g1, g2, phi1, phi2, PLAN, lambda_bar=2.5).verdict


def test_factor_hessian_requires_joint_dimension_three():
    g = builtin_metric("euclidean", 1)
    phi = parse("0.5 * x1^2 + 0.25", g.chart.coords)
    with pytest.raises(UnsupportedDimError):
        factor_hessian_check(g, g, phi, phi, PLAN, 0.0)


def test_factor_hessian_requires_varying_second_summand():
    g1 = builtin_metric("euclidean", 1)
    g2 = builtin_metric("euclidean", 2)
    phi1 = parse("0.5 * x1^2 + 0.25", g1.chart.coords)
    with pytest.raises(ConstantSummandError):
        factor_hessian_check(g1, g2, phi1, parse("1", g2.chart.coords), PLAN, 0.0)



def test_hessian_checks_called_directly_compute_each_batch_once(monkeypatch):
    g1, g2, phi1, phi2 = _sphere_hyperbolic_summands(0.3)
    fit = summand_laplacian_fit(g1, g2, phi1, phi2, PLAN)
    lambda_bar = fit.details["sbar_mean"] / 12.0
    computed = []
    compute = geometry._compute_batch

    def recording(metric, pts):
        computed.append((metric, pts.tobytes()))
        return compute(metric, pts)

    monkeypatch.setattr(geometry, "_compute_batch", recording)
    assert summand_hessian_check(g1, g2, phi1, phi2, PLAN, fit).verdict
    assert len(computed) == len(set(computed)) == 3
    computed.clear()
    assert factor_hessian_check(g1, g2, phi1, phi2, PLAN, lambda_bar).verdict
    assert len(computed) == len(set(computed)) == 2


def test_hessian_checks_take_the_tolerance_by_keyword_only():
    g1, g2, phi1, phi2 = _sphere_hyperbolic_summands(0.3)
    with pytest.raises(TypeError):
        summand_laplacian_fit(g1, g2, phi1, phi2, PLAN, 1e-8)
    fit = summand_laplacian_fit(g1, g2, phi1, phi2, PLAN, tolerance=1e-8)
    with pytest.raises(TypeError):
        summand_hessian_check(g1, g2, phi1, phi2, PLAN, fit, 1e-8)
    with pytest.raises(TypeError):
        factor_hessian_check(g1, g2, phi1, phi2, PLAN, 1.0, 1e-8)

# --- warped presentation ------------------------------------------------------

def test_warped_presentation_classifies_scales():
    g1 = builtin_metric("euclidean", 2)
    g2 = builtin_metric("sphere", 2)
    chart = joint_chart(g1, g2)
    one = parse("1", chart.coords)

    warped = DoublyTwistedSpec(g1, g2, one, parse("2 + sin(f0.x1)", chart.coords))
    report = warped_presentation_check(warped, PLAN)
    assert report.verdict and report.details["base_oriented"] == 0.0

    twisted = DoublyTwistedSpec(
        g1, g2,
        parse("exp(0.3 * f0.x1)", chart.coords),
        parse("1 + 0.25 * cos(f1.u1)", chart.coords),
    )
    report = warped_presentation_check(twisted, PLAN)
    assert not report.verdict
    assert report.details["base_oriented"] > 0.01 and report.details["fiber_oriented"] > 0.01

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
