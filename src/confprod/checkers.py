"""Pointwise residual checks over deterministically sampled charts.

Every check reports a sup/mean residual with the witness point and the
tolerance it was judged against; verdicts are always accompanied by the
residual that produced them.  Constancy of a sampled quantity always means
(max - min) <= tolerance * (1 + |mean|).

Sampling uses an additive-recurrence low-discrepancy sequence, so a given
(chart, plan) pair yields the same points on every run and platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constructions import (
    AnyMetric,
    BlockMetricSpec,
    ConformalSpec,
    DoublyTwistedSpec,
    WarpedSpec,
    as_metric,
    conformal_metric,
    conformal_ricci_formula,
    joint_sum,
    product,
    require_positive_factor,
    warped_metric,
)
from .errors import (
    ConstantSummandError,
    EmptyDomainError,
    FitFailureError,
    IllConditionedFitError,
    NonPositiveConformalFactorError,
    UnsupportedDimError,
)
from .expressions import (
    Const,
    Expr,
    differentiate,
    evaluate,
    rename_coords,
    sub,
    substitute,
)
from .geometry import (
    Chart,
    MetricSpec,
    coordinate_hessian_batch,
    curvature_batch,
    expr_values,
    grad_norm_sq_batch,
    hessian_lc_batch,
    laplacian_batch,
    metric_values,
)

NONCONSTANT_SPREAD = 1e-8
_FIT_CONDITION_LIMIT = 1e10


# --- sampling ---------------------------------------------------------------

@dataclass(frozen=True)
class SamplePlan:
    count: int = 200
    margin: float = 0.0
    rule: str = "kronecker"
    seed: int = 0


MIN_SAMPLES = 3
# 50 times the largest catalog plan measured (20 000 samples); curvature
# arrays hold count x n^3 values, so a larger count is a memory error, not a check
MAX_SAMPLES = 1_000_000


def sample(chart: Chart, plan: SamplePlan) -> np.ndarray:
    """Deterministic interior points, shape (count, dim).

    The effective boundary stand-off is the larger of the plan margin and
    the chart's own singular margin.  A plan needs at least MIN_SAMPLES
    points: with fewer, the affine fits are exact (or the spreads zero) and
    the checks pass or fail vacuously, which would read as a verdict.  It
    may have at most MAX_SAMPLES points.
    """
    if plan.rule != "kronecker":
        raise EmptyDomainError(f"unknown sampling rule '{plan.rule}'")
    if plan.count < MIN_SAMPLES:
        raise EmptyDomainError(
            f"samples must be at least {MIN_SAMPLES}, the affine-fit minimum, got {plan.count}")
    if plan.count > MAX_SAMPLES:
        raise EmptyDomainError(f"samples must be at most {MAX_SAMPLES}, got {plan.count}")
    if not (math.isfinite(plan.margin) and plan.margin >= 0):
        raise EmptyDomainError(f"margin must be a finite number >= 0, got {plan.margin}")
    margin = max(plan.margin, chart.singular_margin)
    lo = np.array([d[0] + margin for d in chart.domain])
    hi = np.array([d[1] - margin for d in chart.domain])
    if (lo >= hi).any():
        k = int(np.argmax(lo >= hi))
        raise EmptyDomainError(
            f"margin {margin} empties interval {chart.domain[k]} of '{chart.coords[k]}'"
        )
    d = chart.dim
    # generalized golden ratio: the positive root of x^(d+1) = x + 1
    x = 1.5
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (d + 1))
    alpha = np.array([x ** -(j + 1) % 1.0 for j in range(d)])
    index = np.arange(1, plan.count + 1)[:, None] + plan.seed
    u = (0.5 + index * alpha[None, :]) % 1.0
    return lo + u * (hi - lo)


# --- residual bookkeeping ---------------------------------------------------

@dataclass
class ResidualReport:
    name: str
    sup: float
    mean: float
    argmax_point: tuple[float, ...]
    tolerance: float
    samples: int
    details: dict[str, float] = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return self.sup <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "sup_residual": self.sup,
            "mean_residual": self.mean,
            "argmax_point": list(self.argmax_point),
            "tolerance": self.tolerance,
            "samples": self.samples,
            "verdict": self.verdict,
            "details": dict(sorted(self.details.items())),
        }


def _residual_report(name: str, per_point: np.ndarray, points: np.ndarray,
                     tolerance: float, **details: float) -> ResidualReport:
    per_point = np.abs(np.asarray(per_point, dtype=float))
    where = int(np.argmax(per_point))
    return ResidualReport(
        name=name,
        sup=float(per_point.max()),
        mean=float(per_point.mean()),
        argmax_point=tuple(float(v) for v in points[where]),
        tolerance=tolerance,
        samples=int(per_point.shape[0]),
        details={k: float(v) for k, v in details.items()},
    )


def _entry_sup(per_point_matrices: np.ndarray) -> np.ndarray:
    """Per-point sup over matrix entries."""
    n = per_point_matrices.shape[0]
    return np.abs(per_point_matrices).reshape(n, -1).max(axis=1)


def constancy(values: np.ndarray, tolerance: float) -> tuple[bool, float, float]:
    """(ok, spread, mean) with spread judged against tolerance * (1 + |mean|)."""
    values = np.asarray(values, dtype=float)
    spread = float(values.max() - values.min())
    mean = float(values.mean())
    return spread <= tolerance * (1.0 + abs(mean)), spread, mean


def _affine_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares y ~ a x + b; returns (a, b, sup residual).

    The fit runs against x - mean(x), so an offset much larger than the
    variation of x (phi = R^2/4 + |x|^2/2 at large R) leaves it well
    conditioned; b is shifted back afterwards."""
    centre = float(x.mean())
    design = np.stack([x - centre, np.ones_like(x)], axis=1)
    solution, _, rank, sv = np.linalg.lstsq(design, y, rcond=None)
    if rank < 2 or not np.isfinite(solution).all():
        raise FitFailureError("degenerate least-squares system")
    if sv[0] / sv[-1] > _FIT_CONDITION_LIMIT:
        raise IllConditionedFitError(
            f"fit condition number {sv[0] / sv[-1]:.3e} exceeds {_FIT_CONDITION_LIMIT:.0e}"
        )
    a, b = float(solution[0]), float(solution[1])
    return a, b - a * centre, float(np.abs(design @ solution - y).max())


# --- Einstein checks --------------------------------------------------------

@dataclass
class EinsteinEstimate:
    lambda_hat: float
    lambda_spread: float
    spread_tolerance: float
    residual: ResidualReport
    low_dim_warning: bool

    @property
    def verdict(self) -> bool:
        return self.residual.verdict and self.lambda_spread <= self.spread_tolerance

    def to_dict(self) -> dict:
        return {
            "lambda_hat": self.lambda_hat,
            "lambda_spread": self.lambda_spread,
            "spread_tolerance": self.spread_tolerance,
            "residual": self.residual.to_dict(),
            "low_dim_warning": self.low_dim_warning,
            "verdict": self.verdict,
        }


def einstein_check(g: AnyMetric, plan: SamplePlan, tolerance: float = 1e-8,
                   spread_tolerance: Optional[float] = None) -> EinsteinEstimate:
    """Pointwise ric - lambda_hat g with lambda_hat the mean of scalar/dim.

    Dimensions 1 and 2 are allowed but flagged: there the residual is
    trivially small and the lambda spread carries the content.
    """
    m = as_metric(g)
    n = m.dim
    pts = sample(m.chart, plan)
    batch = curvature_batch(m, pts)
    lam = batch.scalar / n
    lambda_hat = float(lam.mean())
    per_point = _entry_sup(batch.ricci - lambda_hat * batch.g)
    if spread_tolerance is None:
        spread_tolerance = tolerance
    return EinsteinEstimate(
        lambda_hat=lambda_hat,
        lambda_spread=float(lam.max() - lam.min()),
        spread_tolerance=spread_tolerance,
        residual=_residual_report("einstein", per_point, pts, tolerance),
        low_dim_warning=n <= 2,
    )


def conformally_einstein_check(c: ConformalSpec, plan: SamplePlan,
                               lambda_bar: Optional[float] = None,
                               tolerance: float = 1e-8) -> ResidualReport:
    """Residual of the conformally-Einstein equation on the base metric.

    ric(g) + (n-2) Hess(phi)/phi
        - (lambda_bar/phi^2 + lap(phi)/phi + (n-1)|dphi|^2/phi^2) g = 0.

    lambda_bar is estimated from the direct curvature of the rescaled metric
    when not supplied; the detail fields record the estimate and whether the
    direct Einstein verdict agrees with this residual's verdict.
    """
    pts = sample(as_metric(c.base).chart, plan)
    details: dict[str, float] = {}
    direct_verdict = None
    if lambda_bar is None:
        # a non-positive factor is reported before the direct route runs into it
        require_positive_factor(c, pts)
        direct = einstein_check(conformal_metric(c), plan, tolerance)
        lambda_bar = direct.lambda_hat
        details["direct_residual_sup"] = direct.residual.sup
        details["direct_lambda_spread"] = direct.lambda_spread
        direct_verdict = direct.verdict
    residual = conformal_ricci_formula(c, pts, lambda_bar)
    report = _residual_report(
        "conformally_einstein", _entry_sup(residual), pts, tolerance,
        lambda_bar=lambda_bar, **details,
    )
    if direct_verdict is not None:
        report.details["direct_verdict_agrees"] = float(report.verdict == direct_verdict)
    return report


# --- product structure checks -----------------------------------------------

def mixed_ricci_flat_check(b: BlockMetricSpec, phi: Expr, plan: SamplePlan,
                           tolerance: float = 1e-8) -> ResidualReport:
    """Sup of cross-block second partials of phi.

    For a product base the cross-block Ricci of the rescaled metric equals
    (n-2) phi^-1 times exactly these partials, so for joint dimension >= 3
    the check is cross-validated against the directly computed Ricci.
    """
    joint = b.metric
    pts = sample(joint.chart, plan)
    hess = coordinate_hessian_batch(phi, joint.chart, pts)
    i0 = list(b.blocks[0])
    i1 = list(b.blocks[1])
    cross = hess[:, i0][:, :, i1]
    per_point = _entry_sup(cross)
    details: dict[str, float] = {}
    n = joint.dim
    if n >= 3:
        spec = ConformalSpec(b, phi)
        try:
            phival = require_positive_factor(spec, pts)
        except NonPositiveConformalFactorError:
            # the partial-derivative content above stands on its own; only
            # the rescaled-metric cross-check needs a positive factor
            details["identity_skipped"] = 1.0
        else:
            ricci = curvature_batch(conformal_metric(spec), pts).ricci
            direct_cross = ricci[:, i0][:, :, i1]
            identity = direct_cross - (n - 2) * cross / phival[:, None, None]
            details["direct_cross_sup"] = float(np.abs(direct_cross).max())
            details["identity_residual_sup"] = float(np.abs(identity).max())
    return _residual_report("mixed_ricci_flat", per_point, pts, tolerance, **details)


@dataclass
class SplitResult:
    phi1: Expr
    phi2: Expr
    anchor: tuple[float, ...]
    probe: tuple[float, ...]
    residual: ResidualReport

    def to_dict(self) -> dict:
        from .expressions import format_expr

        return {
            "phi1": format_expr(self.phi1),
            "phi2": format_expr(self.phi2),
            "anchor": list(self.anchor),
            "probe": list(self.probe),
            "residual": self.residual.to_dict(),
        }


def split_factor(phi: Expr, b: BlockMetricSpec, plan: SamplePlan,
                 anchor: Optional[tuple[float, ...]] = None,
                 tolerance: float = 1e-8) -> SplitResult:
    """Candidate summands phi1(x) = phi(x, y0) - phi(x0, y0), phi2(y) = phi(x0, y).

    phi1 is normalized to vanish at the anchor x0.  The residual measures
    sup |phi - phi1 - phi2| over the joint samples; it vanishes exactly when
    phi splits as a sum across the factors.
    """
    joint = b.metric
    pts = sample(joint.chart, plan)
    parts = b.split_points(pts)
    if anchor is None:
        anchor = tuple(float(v) for v in parts[0][0])
    probe = tuple(float(v) for v in parts[1][0])
    names0 = [joint.chart.coords[i] for i in b.blocks[0]]
    names1 = [joint.chart.coords[i] for i in b.blocks[1]]
    back0 = dict(zip(names0, b.factors[0].chart.coords))
    back1 = dict(zip(names1, b.factors[1].chart.coords))

    at_probe = substitute(phi, {n: Const(v) for n, v in zip(names1, probe)})
    phi1 = rename_coords(at_probe, back0)
    offset = evaluate(phi1, dict(zip(b.factors[0].chart.coords, anchor)))
    phi1 = sub(phi1, Const(offset))
    phi2 = rename_coords(
        substitute(phi, {n: Const(v) for n, v in zip(names0, anchor)}), back1
    )

    joint_vals = expr_values(phi, joint.chart, pts)
    split_vals = (
        expr_values(phi1, b.factors[0].chart, parts[0])
        + expr_values(phi2, b.factors[1].chart, parts[1])
    )
    report = _residual_report("split_factor", joint_vals - split_vals, pts, tolerance)
    return SplitResult(phi1=phi1, phi2=phi2, anchor=anchor, probe=probe, residual=report)


# --- summand fits -----------------------------------------------------------

def summand_spread(phi: Expr, m: MetricSpec, plan: SamplePlan) -> float:
    values = expr_values(phi, m.chart, sample(m.chart, plan))
    return float(values.max() - values.min())


def require_nonconstant(phi: Expr, m: MetricSpec, plan: SamplePlan, label: str) -> None:
    spread = summand_spread(phi, m, plan)
    if spread <= NONCONSTANT_SPREAD:
        raise ConstantSummandError(
            f"{label} is constant on the sampled box (spread {spread:.3e}); "
            "use the warped-product route"
        )


@dataclass
class SummandLaplacianFit:
    """Affine fits lap(phi_i) = a_i phi_i + b_i plus the induced constants.

    c1 and c2 are the factor-wise combinations
        c1 = (a2 - a1) phi1^2 - 2 (b1 + b2) phi1 - n |dphi1|^2
        c2 = (a1 - a2) phi2^2 - 2 (b1 + b2) phi2 - n |dphi2|^2
    which must be constant, with s = (n-1)(a1 + a2) for the product scalar
    curvature and sbar = (n-1)(c1 + c2) for the rescaled one.
    """

    a1: float
    b1: float
    a2: float
    b2: float
    fit_residual_1: float
    fit_residual_2: float
    c1: float
    c2: float
    c1_spread: float
    c2_spread: float
    constancy_ok: bool
    s_value: float
    s_residual: float
    sbar_mean: float
    sbar_spread: float
    sbar_residual: float
    tolerance: float
    s_tolerance: float

    @property
    def verdict(self) -> bool:
        return (
            max(self.fit_residual_1, self.fit_residual_2) <= self.tolerance
            and self.constancy_ok
            and self.s_residual <= self.s_tolerance
            and self.sbar_residual <= self.tolerance
        )

    def to_dict(self) -> dict:
        return {
            "a1": self.a1, "b1": self.b1, "a2": self.a2, "b2": self.b2,
            "fit_residual_1": self.fit_residual_1,
            "fit_residual_2": self.fit_residual_2,
            "c1": self.c1, "c2": self.c2,
            "c1_spread": self.c1_spread, "c2_spread": self.c2_spread,
            "constancy_ok": self.constancy_ok,
            "s_value": self.s_value, "s_residual": self.s_residual,
            "sbar_mean": self.sbar_mean, "sbar_spread": self.sbar_spread,
            "sbar_residual": self.sbar_residual,
            "tolerance": self.tolerance, "s_tolerance": self.s_tolerance,
            "verdict": self.verdict,
        }


def summand_laplacian_fit(g1: MetricSpec, g2: MetricSpec, phi1: Expr, phi2: Expr,
                          plan: SamplePlan, tolerance: float = 1e-6,
                          s_tolerance: float = 1e-8) -> SummandLaplacianFit:
    """Fit the affine Laplacian relations of the two summands and their constants."""
    n = g1.dim + g2.dim
    scalars = []
    for k, g in enumerate((g1, g2)):
        s_vals = curvature_batch(g, sample(g.chart, plan)).scalar
        ok, spread, mean = constancy(s_vals, tolerance)
        if not ok:
            raise FitFailureError(
                f"factor {k + 1} scalar curvature is not constant (spread {spread:.3e})"
            )
        scalars.append(mean)
    require_nonconstant(phi1, g1, plan, "first summand")
    require_nonconstant(phi2, g2, plan, "second summand")

    pts1 = sample(g1.chart, plan)
    pts2 = sample(g2.chart, plan)
    v1 = expr_values(phi1, g1.chart, pts1)
    v2 = expr_values(phi2, g2.chart, pts2)
    a1, b1, res1 = _affine_fit(v1, laplacian_batch(phi1, g1, pts1))
    a2, b2, res2 = _affine_fit(v2, laplacian_batch(phi2, g2, pts2))

    gns1 = grad_norm_sq_batch(phi1, g1, pts1)
    gns2 = grad_norm_sq_batch(phi2, g2, pts2)
    c1_vals = (a2 - a1) * v1**2 - 2 * (b1 + b2) * v1 - n * gns1
    c2_vals = (a1 - a2) * v2**2 - 2 * (b1 + b2) * v2 - n * gns2
    ok1, c1_spread, c1 = constancy(c1_vals, tolerance)
    ok2, c2_spread, c2 = constancy(c2_vals, tolerance)

    s_value = scalars[0] + scalars[1]
    s_residual = abs(s_value - (n - 1) * (a1 + a2))

    block = product(g1, g2)
    rescaled = conformal_metric(ConformalSpec(block, joint_sum(block, phi1, phi2)))
    sbar_vals = curvature_batch(rescaled, sample(rescaled.chart, plan)).scalar
    sbar_mean = float(sbar_vals.mean())
    sbar_spread = float(sbar_vals.max() - sbar_vals.min())
    sbar_residual = abs(sbar_mean - (n - 1) * (c1 + c2))

    return SummandLaplacianFit(
        a1=a1, b1=b1, a2=a2, b2=b2,
        fit_residual_1=res1, fit_residual_2=res2,
        c1=c1, c2=c2, c1_spread=c1_spread, c2_spread=c2_spread,
        constancy_ok=ok1 and ok2,
        s_value=s_value, s_residual=s_residual,
        sbar_mean=sbar_mean, sbar_spread=sbar_spread, sbar_residual=sbar_residual,
        tolerance=tolerance, s_tolerance=s_tolerance,
    )


# --- warped route -----------------------------------------------------------

@dataclass
class WarpedEinsteinReport:
    lambda_fiber: float
    lambda_bar: float
    fiber: EinsteinEstimate
    scalar_eq: ResidualReport
    base_eq: ResidualReport
    direct: EinsteinEstimate
    verdicts_agree: bool

    @property
    def verdict(self) -> bool:
        return self.fiber.verdict and self.scalar_eq.verdict and self.base_eq.verdict

    def to_dict(self) -> dict:
        return {
            "lambda_fiber": self.lambda_fiber,
            "lambda_bar": self.lambda_bar,
            "fiber": self.fiber.to_dict(),
            "scalar_eq": self.scalar_eq.to_dict(),
            "base_eq": self.base_eq.to_dict(),
            "direct": self.direct.to_dict(),
            "verdict": self.verdict,
            "verdicts_agree": self.verdicts_agree,
        }


def warped_einstein_check(w: WarpedSpec, plan: SamplePlan,
                          tolerance: float = 1e-8) -> WarpedEinsteinReport:
    """The three conditions for g_B + f^2 g_F to be Einstein.

    (a) the fiber is Einstein with constant lambda_F;
    (b) f lap(f) - (p-1)|df|^2 + lambda_F = lambda_bar f^2 on the base;
    (c) f^2 ric(g_B) = p f Hess(f) + lambda_bar f^2 g_B.

    Both constants come from `w` when set there, otherwise from the
    sampled Einstein estimates; the direct Einstein verdict of the joint
    warped metric is computed independently and compared.
    """
    p = w.fiber.dim
    fiber_est = einstein_check(w.fiber, plan, tolerance)
    lambda_fiber = w.lambda_fiber if w.lambda_fiber is not None else fiber_est.lambda_hat
    direct = einstein_check(warped_metric(w), plan, tolerance)
    lambda_bar = w.lambda_bar if w.lambda_bar is not None else direct.lambda_hat

    pts = sample(w.base.chart, plan)
    f = expr_values(w.warp, w.base.chart, pts)
    if (f <= 0.0).any():
        k = int(np.argmin(f))
        raise NonPositiveConformalFactorError(pts[k], f[k])
    lap = laplacian_batch(w.warp, w.base, pts)
    gns = grad_norm_sq_batch(w.warp, w.base, pts)
    scalar_eq = f * lap - (p - 1) * gns + lambda_fiber - lambda_bar * f**2
    scalar_report = _residual_report(
        "warped_scalar_eq", scalar_eq, pts, tolerance,
        lambda_fiber=lambda_fiber, lambda_bar=lambda_bar,
    )

    base_batch = curvature_batch(w.base, pts)
    hess = hessian_lc_batch(w.warp, w.base, pts)
    fcol = f[:, None, None]
    base_eq = fcol**2 * base_batch.ricci - p * fcol * hess - lambda_bar * fcol**2 * base_batch.g
    base_report = _residual_report("warped_base_eq", _entry_sup(base_eq), pts, tolerance)

    report = WarpedEinsteinReport(
        lambda_fiber=lambda_fiber,
        lambda_bar=lambda_bar,
        fiber=fiber_est,
        scalar_eq=scalar_report,
        base_eq=base_report,
        direct=direct,
        verdicts_agree=False,
    )
    report.verdicts_agree = report.verdict == direct.verdict
    return report


# --- split summand route ----------------------------------------------------

@dataclass
class SummandConstants:
    a_bar: float
    b_bar: float
    c_bar_1: float
    c_bar_2: float
    rho_bar: float
    lambda_1: float
    lambda_2: float

    def to_dict(self) -> dict:
        return {
            "a_bar": self.a_bar, "b_bar": self.b_bar,
            "c_bar_1": self.c_bar_1, "c_bar_2": self.c_bar_2,
            "rho_bar": self.rho_bar,
            "lambda_1": self.lambda_1, "lambda_2": self.lambda_2,
        }


@dataclass
class SummandHessianReport:
    constants: SummandConstants
    proportionality_1: ResidualReport
    hessian_2: ResidualReport
    lambda_relation_1: float
    lambda_relation_2: float
    c_bar_1_spread: float
    c_bar_2_spread: float
    closure_residual: float
    b_ratio_residual: float
    a_combination_residual: float
    fit: SummandLaplacianFit
    factor_1: EinsteinEstimate
    factor_2: EinsteinEstimate
    direct: EinsteinEstimate
    tolerance: float
    equality_tolerance: float
    verdicts_agree: bool

    @property
    def verdict(self) -> bool:
        return (
            self.proportionality_1.verdict
            and self.hessian_2.verdict
            and self.lambda_relation_1 <= self.tolerance
            and self.lambda_relation_2 <= self.tolerance
            and self.c_bar_1_spread <= self.tolerance * (1 + abs(self.constants.c_bar_1))
            and self.c_bar_2_spread <= self.tolerance * (1 + abs(self.constants.c_bar_2))
            and self.closure_residual <= self.tolerance
            and self.b_ratio_residual <= self.equality_tolerance
            and self.a_combination_residual <= self.equality_tolerance
        )

    def to_dict(self) -> dict:
        return {
            "constants": self.constants.to_dict(),
            "proportionality_1": self.proportionality_1.to_dict(),
            "hessian_2": self.hessian_2.to_dict(),
            "lambda_relation_1": self.lambda_relation_1,
            "lambda_relation_2": self.lambda_relation_2,
            "c_bar_1_spread": self.c_bar_1_spread,
            "c_bar_2_spread": self.c_bar_2_spread,
            "closure_residual": self.closure_residual,
            "b_ratio_residual": self.b_ratio_residual,
            "a_combination_residual": self.a_combination_residual,
            "c_sum_fit": self.fit.c1 + self.fit.c2,
            "c_bar_sum": self.constants.c_bar_1 + self.constants.c_bar_2,
            "fit": self.fit.to_dict(),
            "factor_1": self.factor_1.to_dict(),
            "factor_2": self.factor_2.to_dict(),
            "direct": self.direct.to_dict(),
            "tolerance": self.tolerance,
            "equality_tolerance": self.equality_tolerance,
            "verdict": self.verdict,
            "verdicts_agree": self.verdicts_agree,
        }


def summand_hessian_check(g1: MetricSpec, g2: MetricSpec, phi1: Expr, phi2: Expr,
                          plan: SamplePlan, tolerance: float = 1e-6,
                          equality_tolerance: float = 1e-8,
                          fit: Optional[SummandLaplacianFit] = None) -> SummandHessianReport:
    """Hessian route for two non-constant summands.

    Fits a_bar, b_bar from Hess(phi1) = -(a_bar phi1 + b_bar) g1, then checks
    Hess(phi2) = (a_bar phi2 - b_bar) g2, the factor Einstein constants
    lambda_1 = (n1 - 1) a_bar and lambda_2 = -(n2 - 1) a_bar, constancy and
    closure of
        c_bar_1 = -(|dphi1|^2 + a_bar phi1^2 + 2 b_bar phi1)
        c_bar_2 = -(|dphi2|^2 - a_bar phi2^2 + 2 b_bar phi2)
    against the normalized scalar curvature rho_bar of the rescaled product,
    and the summand-fit constraints b1/n1 = b2/n2, n2 a1 + n1 a2 = 0.
    """
    n1, n2 = g1.dim, g2.dim
    require_nonconstant(phi1, g1, plan, "first summand")
    require_nonconstant(phi2, g2, plan, "second summand")
    if fit is None:
        fit = summand_laplacian_fit(g1, g2, phi1, phi2, plan, tolerance, equality_tolerance)

    pts1 = sample(g1.chart, plan)
    pts2 = sample(g2.chart, plan)
    v1 = expr_values(phi1, g1.chart, pts1)
    v2 = expr_values(phi2, g2.chart, pts2)
    g1v = metric_values(g1, pts1)
    g2v = metric_values(g2, pts2)
    h1 = hessian_lc_batch(phi1, g1, pts1)
    h2 = hessian_lc_batch(phi2, g2, pts2)

    trace1 = np.einsum("nij,nij->n", np.linalg.inv(g1v), h1) / n1
    prop1 = _residual_report(
        "hessian_proportionality_1",
        _entry_sup(h1 - trace1[:, None, None] * g1v),
        pts1, equality_tolerance,
    )
    slope, intercept, _ = _affine_fit(v1, trace1)
    a_bar, b_bar = -slope, -intercept

    hess2 = _residual_report(
        "hessian_relation_2",
        _entry_sup(h2 - (a_bar * v2 - b_bar)[:, None, None] * g2v),
        pts2, equality_tolerance,
        a_bar=a_bar, b_bar=b_bar,
    )

    factor_1 = einstein_check(g1, plan, equality_tolerance)
    factor_2 = einstein_check(g2, plan, equality_tolerance)
    lambda_relation_1 = abs(factor_1.lambda_hat - (n1 - 1) * a_bar)
    lambda_relation_2 = abs(factor_2.lambda_hat + (n2 - 1) * a_bar)

    gns1 = grad_norm_sq_batch(phi1, g1, pts1)
    gns2 = grad_norm_sq_batch(phi2, g2, pts2)
    _, c1_spread, c_bar_1 = constancy(-(gns1 + a_bar * v1**2 + 2 * b_bar * v1), tolerance)
    _, c2_spread, c_bar_2 = constancy(-(gns2 - a_bar * v2**2 + 2 * b_bar * v2), tolerance)

    block = product(g1, g2)
    spec = ConformalSpec(block, joint_sum(block, phi1, phi2))
    direct = einstein_check(conformal_metric(spec), plan, tolerance)
    rho_vals = curvature_batch(conformal_metric(spec), sample(block.metric.chart, plan))
    rho_bar = float(rho_vals.normalized_scalar().mean())
    closure = abs(c_bar_1 + c_bar_2 - rho_bar)

    b_ratio = abs(fit.b1 / n1 - fit.b2 / n2)
    a_combo = abs(n2 * fit.a1 + n1 * fit.a2)

    constants = SummandConstants(
        a_bar=a_bar, b_bar=b_bar, c_bar_1=c_bar_1, c_bar_2=c_bar_2,
        rho_bar=rho_bar, lambda_1=factor_1.lambda_hat, lambda_2=factor_2.lambda_hat,
    )
    report = SummandHessianReport(
        constants=constants,
        proportionality_1=prop1,
        hessian_2=hess2,
        lambda_relation_1=lambda_relation_1,
        lambda_relation_2=lambda_relation_2,
        c_bar_1_spread=c1_spread,
        c_bar_2_spread=c2_spread,
        closure_residual=closure,
        b_ratio_residual=b_ratio,
        a_combination_residual=a_combo,
        fit=fit,
        factor_1=factor_1,
        factor_2=factor_2,
        direct=direct,
        tolerance=tolerance,
        equality_tolerance=equality_tolerance,
        verdicts_agree=False,
    )
    report.verdicts_agree = report.verdict == direct.verdict
    return report


# --- factor identity for a conformally Einstein product ---------------------

@dataclass
class FactorHessianReport:
    factor_1: EinsteinEstimate
    identity: ResidualReport
    lambda_bar: float

    @property
    def verdict(self) -> bool:
        return self.factor_1.verdict and self.identity.verdict

    def to_dict(self) -> dict:
        return {
            "factor_1": self.factor_1.to_dict(),
            "identity": self.identity.to_dict(),
            "lambda_bar": self.lambda_bar,
            "verdict": self.verdict,
        }


def factor_hessian_check(g1: MetricSpec, g2: MetricSpec, phi1: Expr, phi2: Expr,
                         plan: SamplePlan, tolerance: float = 1e-8,
                         lambda_bar: Optional[float] = None) -> FactorHessianReport:
    """With the second summand non-constant, the first factor must be Einstein and

    Hess(phi1) = (lambda_bar/phi - lambda_1 phi + lap(phi) + (n-1)|dphi|^2/phi) g1 / (n-2)

    pointwise on the joint chart (the right side mixes both factors; its
    zero-variation along the second factor is part of the content).
    """
    n1, n2 = g1.dim, g2.dim
    n = n1 + n2
    if n < 3:
        raise UnsupportedDimError("joint dimension must be at least 3")
    require_nonconstant(phi2, g2, plan, "second summand")

    block = product(g1, g2)
    phi = joint_sum(block, phi1, phi2)
    spec = ConformalSpec(block, phi)
    if lambda_bar is None:
        lambda_bar = einstein_check(conformal_metric(spec), plan, tolerance).lambda_hat
    factor_1 = einstein_check(g1, plan, tolerance)

    pts = sample(block.metric.chart, plan)
    parts = block.split_points(pts)
    phival = require_positive_factor(spec, pts)
    lap = laplacian_batch(phi, block.metric, pts)
    gns = grad_norm_sq_batch(phi, block.metric, pts)
    h1 = hessian_lc_batch(phi1, g1, parts[0])
    g1v = metric_values(g1, parts[0])
    coef = (lambda_bar / phival - factor_1.lambda_hat * phival + lap
            + (n - 1) * gns / phival) / (n - 2)
    residual = _residual_report(
        "factor_hessian_identity",
        _entry_sup(h1 - coef[:, None, None] * g1v),
        pts, tolerance,
        lambda_bar=lambda_bar, lambda_1=factor_1.lambda_hat,
    )
    return FactorHessianReport(factor_1=factor_1, identity=residual, lambda_bar=lambda_bar)


# --- warped presentation of a doubly twisted metric -------------------------

@dataclass
class WarpedPresentationReport:
    base_oriented: float
    fiber_oriented: float
    tolerance: float
    samples: int

    @property
    def verdict(self) -> bool:
        return min(self.base_oriented, self.fiber_oriented) <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "base_oriented": self.base_oriented,
            "fiber_oriented": self.fiber_oriented,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "verdict": self.verdict,
        }


def warped_presentation_check(d: DoublyTwistedSpec, plan: SamplePlan,
                              tolerance: float = 1e-8) -> WarpedPresentationReport:
    """Is the doubly twisted presentation b^2 g_B + f^2 g_F actually warped?

    Warped over the base needs both scales independent of the fiber
    coordinates; warped over the fiber needs them independent of the base
    coordinates.  The report carries the sup of the offending derivatives
    for both orientations; either one below tolerance passes.
    """
    chart = d.chart()
    pts = sample(chart, plan)
    n1 = d.base.dim
    base_coords = chart.coords[:n1]
    fiber_coords = chart.coords[n1:]

    def derivative_sup(scales, coords) -> float:
        worst = 0.0
        for e in scales:
            for c in coords:
                values = expr_values(differentiate(e, c), chart, pts)
                worst = max(worst, float(np.abs(values).max()))
        return worst

    return WarpedPresentationReport(
        base_oriented=derivative_sup((d.base_scale, d.fiber_scale), fiber_coords),
        fiber_oriented=derivative_sup((d.base_scale, d.fiber_scale), base_coords),
        tolerance=tolerance,
        samples=plan.count,
    )
