"""Pointwise residual checks over deterministically sampled charts.

Every check returns one `Check` record: a leaf carries a sup (and, over
sample points, the mean and the witness point) with the tolerance it was
judged against; a compound check is a node whose parts are such records.
Verdicts are always accompanied by the residuals that produced them.
Constancy of a sampled quantity always means
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
    evaluate,
    format_expr,
    rename_coords,
    sub,
    substitute,
)
from .geometry import (
    Chart,
    MetricSpec,
    Rows,
    combine,
    coordinate_hessian_batch,
    curvature_batch,
    evaluation_scope,
    expr_values,
    scoped_points,
    _field_jets,
    _field_plan,
)

NONCONSTANT_SPREAD = 1e-8
# tolerance of the summand routes' affine fits and of the constants they induce
FIT_TOLERANCE = 1e-6
_FIT_CONDITION_LIMIT = 1e10


# --- sampling ---------------------------------------------------------------

@dataclass(frozen=True)
class SamplePlan:
    count: int = 200
    margin: float = 0.0
    seed: int = 0


MIN_SAMPLES = 3
# 50 times the largest catalog plan measured (20 000 samples); a kept
# curvature batch holds count values per non-zero Christoffel slot, up to
# n^2 (n + 1) / 2 of them, so a larger count is a memory error, not a check
MAX_SAMPLES = 1_000_000


def sample(chart: Chart, plan: SamplePlan) -> np.ndarray:
    """Deterministic interior points, shape (count, dim), from a Kronecker sequence.

    The effective boundary stand-off is the larger of the plan margin and
    the chart's own singular margin.  A plan needs at least MIN_SAMPLES
    points: with fewer, the affine fits are exact (or the spreads zero) and
    the checks pass or fail vacuously, which would read as a verdict.  It
    may have at most MAX_SAMPLES points.  The plan is validated on every
    call; inside an evaluation_scope the points of one (chart, plan) are
    computed once and returned read-only.
    """
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
    return scoped_points((chart, plan), lambda: _kronecker(lo, hi, plan))


def _kronecker(lo: np.ndarray, hi: np.ndarray, plan: SamplePlan) -> np.ndarray:
    d = len(lo)
    # generalized golden ratio: the positive root of x^(d+1) = x + 1
    x = 1.5
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (d + 1))
    alpha = np.array([x ** -(j + 1) % 1.0 for j in range(d)])
    index = np.arange(1, plan.count + 1)[:, None] + plan.seed
    u = (0.5 + index * alpha[None, :]) % 1.0
    return lo + u * (hi - lo)


# --- the check record -------------------------------------------------------

@dataclass
class Check:
    """One check's outcome, a leaf judged on one residual or a node over parts.

    A leaf passes when sup <= tolerance.  A node passes when every part that
    carries an expectation matches it: `expected` is True for a condition
    that must hold, False for one that must fail, and None for an estimate
    that is reported but not judged.  A leaf's `witness` is the sample point
    where its residual peaks (None for a leaf judged on one number);
    `details` holds named numbers, points and formatted expressions.
    """

    name: str
    sup: Optional[float] = None
    tolerance: Optional[float] = None
    mean: Optional[float] = None
    witness: Optional[list[float]] = None
    samples: Optional[int] = None
    details: dict = field(default_factory=dict)
    parts: list[Check] = field(default_factory=list)
    expected: Optional[bool] = True

    @property
    def verdict(self) -> bool:
        if not self.parts:
            return self.sup <= self.tolerance
        return all(p.verdict == p.expected for p in self.parts if p.expected is not None)

    def __getitem__(self, name: str) -> Check:
        """The part called `name`."""
        for part in self.parts:
            if part.name == name:
                return part
        raise KeyError(name)

    def named(self, name: str, expected: Optional[bool] = True) -> Check:
        """This record under the name and expectation its parent gives it."""
        self.name, self.expected = name, expected
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "expected": self.expected,
            "sup": self.sup,
            "tolerance": self.tolerance,
            "mean": self.mean,
            "witness": self.witness,
            "samples": self.samples,
            "details": dict(self.details),
            "parts": [p.to_dict() for p in self.parts],
        }


def _residual(name: str, per_point: np.ndarray, points: np.ndarray,
              tolerance: float, **details: float) -> Check:
    """Leaf over a per-point residual: its sup, mean and the sup's sample point."""
    per_point = np.abs(np.asarray(per_point, dtype=float))
    where = int(np.argmax(per_point))
    return Check(
        name,
        sup=float(per_point.max()),
        tolerance=tolerance,
        mean=float(per_point.mean()),
        witness=[float(v) for v in points[where]],
        samples=int(per_point.shape[0]),
        details={k: float(v) for k, v in details.items()},
    )


def _bound(name: str, value: float, tolerance: float) -> Check:
    """Leaf judged on one number: a spread, a fit residual, a relation of constants."""
    return Check(name, sup=float(value), tolerance=tolerance)


def _entry_sup(n: int, *terms, unheld: float = 0.0, keep=None) -> np.ndarray:
    """Per-point sup over the entries of a sum of symmetric n x n tensors,
    each a Rows (geometry.combine, with its terms and keep).  An entry that
    no term holds reads |unheld|: an exact zero, or nan for a non-finite
    lambda in lambda g."""
    rows, slots = combine(n, *terms, keep=keep)
    initial = 0.0 if len(slots) == n * (n + 1) // 2 else abs(unheld)
    return np.abs(rows).max(axis=0, initial=initial)


def constancy(values: np.ndarray, tolerance: float) -> tuple[bool, float, float]:
    """(ok, spread, mean) with spread judged against tolerance * (1 + |mean|)."""
    values = np.asarray(values, dtype=float)
    spread = float(values.max() - values.min())
    mean = float(values.mean())
    return spread <= tolerance * (1.0 + abs(mean)), spread, mean


def _spread(name: str, values: np.ndarray, tolerance: float) -> tuple[Check, float]:
    """Constancy leaf, judged against tolerance * (1 + |mean|), and the mean."""
    _, spread, mean = constancy(values, tolerance)
    return _bound(name, spread, tolerance * (1.0 + abs(mean))), mean


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

def einstein_check(g: AnyMetric, plan: SamplePlan, tolerance: float = 1e-8) -> Check:
    """Pointwise ric - lambda_hat g with lambda_hat the mean of scalar/dim.

    Parts: the `residual` and the `lambda_spread` (max - min of scalar/dim),
    both judged against the tolerance.  Dimensions
    1 and 2 are allowed but flagged (`low_dim_warning`): there the residual
    is trivially small and the lambda spread carries the content.
    """
    m = as_metric(g)
    n = m.dim
    pts = sample(m.chart, plan)
    batch = curvature_batch(m, pts)
    lam = batch.scalar / n
    lambda_hat = float(lam.mean())
    per_point = _entry_sup(n, batch.ricci, batch.g.scaled(-lambda_hat), unheld=lambda_hat * 0.0)
    return Check("einstein", details={"lambda_hat": lambda_hat, "low_dim_warning": n <= 2},
                 parts=[_residual("residual", per_point, pts, tolerance),
                        _bound("lambda_spread", lam.max() - lam.min(), tolerance)])


@evaluation_scope()
def conformally_einstein_check(c: ConformalSpec, plan: SamplePlan,
                               lambda_bar: Optional[float] = None,
                               tolerance: float = 1e-8) -> Check:
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
        lambda_bar = direct.details["lambda_hat"]
        details["direct_residual_sup"] = direct["residual"].sup
        details["direct_lambda_spread"] = direct["lambda_spread"].sup
        direct_verdict = direct.verdict
    residual = conformal_ricci_formula(c, pts, lambda_bar)
    report = _residual(
        "conformally_einstein", _entry_sup(as_metric(c.base).dim, residual), pts, tolerance,
        lambda_bar=lambda_bar, **details,
    )
    if direct_verdict is not None:
        report.details["direct_verdict_agrees"] = float(report.verdict == direct_verdict)
    return report


# --- product structure checks -----------------------------------------------

@evaluation_scope()
def mixed_ricci_flat_check(b: BlockMetricSpec, phi: Expr, plan: SamplePlan,
                           tolerance: float = 1e-8) -> Check:
    """Sup of cross-block second partials of phi.

    For a product base the cross-block Ricci of the rescaled metric equals
    (n-2) phi^-1 times exactly these partials, so for joint dimension >= 3
    the check is cross-validated against the directly computed Ricci.
    """
    joint = b.metric
    n = joint.dim
    pts = sample(joint.chart, plan)
    second = np.zeros(n, dtype=bool)
    second[list(b.blocks[1])] = True

    def cross(i, j):
        return second[i] != second[j]

    hess, slots = combine(n, coordinate_hessian_batch(phi, joint.chart, pts), keep=cross)
    per_point = np.abs(hess).max(axis=0, initial=0.0)    # phi may have no cross partial
    details: dict[str, float] = {}
    if n >= 3:
        spec = ConformalSpec(b, phi)
        try:
            phival = require_positive_factor(spec, pts)
        except NonPositiveConformalFactorError:
            # the partial-derivative content above stands on its own; only
            # the rescaled-metric cross-check needs a positive factor
            details["identity_skipped"] = 1.0
        else:
            batch = curvature_batch(conformal_metric(spec), pts)
            identity = Rows((2 - n) * hess / phival, slots)
            details["direct_cross_sup"] = float(_entry_sup(n, batch.ricci, keep=cross).max())
            details["identity_residual_sup"] = float(
                _entry_sup(n, batch.ricci, identity, keep=cross).max())
    return _residual("mixed_ricci_flat", per_point, pts, tolerance, **details)


def split_factor(phi: Expr, b: BlockMetricSpec, plan: SamplePlan,
                 tolerance: float = 1e-8) -> tuple[Check, Expr, Expr]:
    """Candidate summands phi1(x) = phi(x, y0) - phi(x0, y0), phi2(y) = phi(x0, y).

    The anchor x0 and the probe y0 are the first sample point's factor
    coordinates; phi1 is normalized to vanish at the anchor.  The residual measures
    sup |phi - phi1 - phi2| over the joint samples; it vanishes exactly when
    phi splits as a sum across the factors.  Returns the check, whose
    details carry the anchor, the probe y0 and both candidates as text,
    and the two candidates.
    """
    joint = b.metric
    pts = sample(joint.chart, plan)
    parts = b.split_points(pts)
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
    check = _residual("split_factor", joint_vals - split_vals, pts, tolerance)
    check.details.update(phi1=format_expr(phi1), phi2=format_expr(phi2),
                         anchor=list(anchor), probe=list(probe))
    return check, phi1, phi2


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


@evaluation_scope()
def summand_laplacian_fit(block: BlockMetricSpec, phi1: Expr, phi2: Expr,
                          plan: SamplePlan, *, tolerance: float = 1e-8) -> Check:
    """Affine fits lap(phi_i) = a_i phi_i + b_i on the factors g1, g2 of
    `block`, plus the induced constants.

    c1 and c2 are the factor-wise combinations
        c1 = (a2 - a1) phi1^2 - 2 (b1 + b2) phi1 - n |dphi1|^2
        c2 = (a1 - a2) phi2^2 - 2 (b1 + b2) phi2 - n |dphi2|^2
    which must be constant, with s = (n-1)(a1 + a2) for the product scalar
    curvature and sbar = (n-1)(c1 + c2) for the rescaled one.  Parts: the
    two fit residuals, the two spreads, and the s and sbar relations; the s
    relation is judged against `tolerance`, the others against FIT_TOLERANCE.
    """
    g1, g2 = block.factors
    n = block.dim
    scalars = []
    for k, g in enumerate((g1, g2)):
        s_vals = curvature_batch(g, sample(g.chart, plan)).scalar
        ok, spread, mean = constancy(s_vals, FIT_TOLERANCE)
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
    _, lap1, gns1 = _field_jets(phi1, g1, pts1)
    a1, b1, res1 = _affine_fit(v1, lap1)
    _, lap2, gns2 = _field_jets(phi2, g2, pts2)
    a2, b2, res2 = _affine_fit(v2, lap2)

    c1_spread, c1 = _spread(
        "c1_spread", (a2 - a1) * v1**2 - 2 * (b1 + b2) * v1 - n * gns1, FIT_TOLERANCE)
    c2_spread, c2 = _spread(
        "c2_spread", (a1 - a2) * v2**2 - 2 * (b1 + b2) * v2 - n * gns2, FIT_TOLERANCE)

    s_value = scalars[0] + scalars[1]
    rescaled = conformal_metric(ConformalSpec(block, joint_sum(block, phi1, phi2)))
    sbar_vals = curvature_batch(rescaled, sample(rescaled.chart, plan)).scalar
    sbar_mean = float(sbar_vals.mean())

    return Check(
        "laplacian_fit",
        details={"a1": a1, "b1": b1, "a2": a2, "b2": b2, "c1": c1, "c2": c2,
                 "s_value": s_value, "sbar_mean": sbar_mean,
                 "sbar_spread": float(sbar_vals.max() - sbar_vals.min())},
        parts=[
            _bound("fit_residual_1", res1, FIT_TOLERANCE),
            _bound("fit_residual_2", res2, FIT_TOLERANCE),
            c1_spread,
            c2_spread,
            _bound("s_residual", abs(s_value - (n - 1) * (a1 + a2)), tolerance),
            _bound("sbar_residual", abs(sbar_mean - (n - 1) * (c1 + c2)), FIT_TOLERANCE),
        ],
    )


# --- warped route -----------------------------------------------------------

@evaluation_scope()
def warped_einstein_check(w: WarpedSpec, plan: SamplePlan,
                          tolerance: float = 1e-8) -> Check:
    """The three conditions for g_B + f^2 g_F to be Einstein.

    (a) the fiber is Einstein with constant lambda_F;
    (b) f lap(f) - (p-1)|df|^2 + lambda_F = lambda_bar f^2 on the base;
    (c) f^2 ric(g_B) = p f Hess(f) + lambda_bar f^2 g_B.

    Both constants are the sampled Einstein estimates of the fiber and of
    the joint warped metric; the latter, the direct route, is reported
    unjudged and compared (`verdicts_agree`).
    """
    p = w.fiber.dim
    fiber_est = einstein_check(w.fiber, plan, tolerance)
    lambda_fiber = fiber_est.details["lambda_hat"]
    direct = einstein_check(warped_metric(w), plan, tolerance)
    lambda_bar = direct.details["lambda_hat"]

    pts = sample(w.base.chart, plan)
    f = expr_values(w.warp, w.base.chart, pts)
    if (f <= 0.0).any():
        k = int(np.argmin(f))
        raise NonPositiveConformalFactorError(pts[k], f[k])
    hess, lap, gns = _field_jets(w.warp, w.base, pts)
    scalar_eq = f * lap - (p - 1) * gns + lambda_fiber - lambda_bar * f**2

    base = curvature_batch(w.base, pts)
    base_eq = _entry_sup(w.base.dim, base.ricci.scaled(f**2), hess.scaled(-p * f),
                         base.g.scaled(-lambda_bar * f**2))

    report = Check("warped_einstein",
                   details={"lambda_fiber": lambda_fiber, "lambda_bar": lambda_bar},
                   parts=[
                       fiber_est.named("fiber"),
                       _residual("scalar_eq", scalar_eq, pts, tolerance,
                                 lambda_fiber=lambda_fiber, lambda_bar=lambda_bar),
                       _residual("base_eq", base_eq, pts, tolerance),
                       direct.named("direct", expected=None),
                   ])
    report.details["verdicts_agree"] = report.verdict == direct.verdict
    return report


# --- split summand route ----------------------------------------------------

@evaluation_scope()
def summand_hessian_check(block: BlockMetricSpec, phi1: Expr, phi2: Expr,
                          plan: SamplePlan, fit: Check, *,
                          tolerance: float = 1e-8) -> Check:
    """Hessian route for two non-constant summands on the factors g1, g2 of `block`.

    Fits a_bar, b_bar from Hess(phi1) = -(a_bar phi1 + b_bar) g1, then checks
    Hess(phi2) = (a_bar phi2 - b_bar) g2, the factor Einstein constants
    lambda_1 = (n1 - 1) a_bar and lambda_2 = -(n2 - 1) a_bar, constancy and
    closure of
        c_bar_1 = -(|dphi1|^2 + a_bar phi1^2 + 2 b_bar phi1)
        c_bar_2 = -(|dphi2|^2 - a_bar phi2^2 + 2 b_bar phi2)
    against the normalized scalar curvature rho_bar of the rescaled product,
    and the summand-fit constraints b1/n1 = b2/n2, n2 a1 + n1 a2 = 0, read
    from `fit` (summand_laplacian_fit's record for the same summands).  g
    and g^-1 come from each factor's curvature batch.  The pointwise
    identities and the fit constraints are judged against `tolerance`, the
    constants' relations and spreads against FIT_TOLERANCE.  The factor and
    direct Einstein estimates are reported unjudged.
    """
    g1, g2 = block.factors
    n1, n2 = g1.dim, g2.dim
    require_nonconstant(phi1, g1, plan, "first summand")
    require_nonconstant(phi2, g2, plan, "second summand")
    a1, b1, a2, b2 = (fit.details[k] for k in ("a1", "b1", "a2", "b2"))

    pts1 = sample(g1.chart, plan)
    pts2 = sample(g2.chart, plan)
    v1 = expr_values(phi1, g1.chart, pts1)
    v2 = expr_values(phi2, g2.chart, pts2)
    batch1 = curvature_batch(g1, pts1)
    batch2 = curvature_batch(g2, pts2)
    h1, lap1, gns1 = _field_jets(phi1, g1, pts1)
    h2, _, gns2 = _field_jets(phi2, g2, pts2)

    trace1 = -lap1 / n1
    prop1 = _residual("proportionality_1", _entry_sup(n1, h1, batch1.g.scaled(-trace1)),
                      pts1, tolerance)
    slope, intercept, _ = _affine_fit(v1, trace1)
    a_bar, b_bar = -slope, -intercept

    hess2 = _residual("hessian_2", _entry_sup(n2, h2, batch2.g.scaled(-(a_bar * v2 - b_bar))),
                      pts2, tolerance, a_bar=a_bar, b_bar=b_bar)

    factor_1 = einstein_check(g1, plan, tolerance)
    factor_2 = einstein_check(g2, plan, tolerance)
    lambda_1 = factor_1.details["lambda_hat"]
    lambda_2 = factor_2.details["lambda_hat"]

    c1_spread, c_bar_1 = _spread(
        "c_bar_1_spread", -(gns1 + a_bar * v1**2 + 2 * b_bar * v1), FIT_TOLERANCE)
    c2_spread, c_bar_2 = _spread(
        "c_bar_2_spread", -(gns2 - a_bar * v2**2 + 2 * b_bar * v2), FIT_TOLERANCE)

    spec = ConformalSpec(block, joint_sum(block, phi1, phi2))
    direct = einstein_check(conformal_metric(spec), plan, tolerance)
    rho_vals = curvature_batch(conformal_metric(spec), sample(block.metric.chart, plan))
    rho_bar = float(rho_vals.normalized_scalar().mean())

    report = Check(
        "summand_hessian",
        details={"a_bar": a_bar, "b_bar": b_bar, "c_bar_1": c_bar_1, "c_bar_2": c_bar_2,
                 "rho_bar": rho_bar, "lambda_1": lambda_1, "lambda_2": lambda_2,
                 "c_sum_fit": fit.details["c1"] + fit.details["c2"],
                 "c_bar_sum": c_bar_1 + c_bar_2},
        parts=[
            prop1,
            hess2,
            _bound("lambda_relation_1", abs(lambda_1 - (n1 - 1) * a_bar), FIT_TOLERANCE),
            _bound("lambda_relation_2", abs(lambda_2 + (n2 - 1) * a_bar), FIT_TOLERANCE),
            c1_spread,
            c2_spread,
            _bound("closure_residual", abs(c_bar_1 + c_bar_2 - rho_bar), FIT_TOLERANCE),
            _bound("b_ratio_residual", abs(b1 / n1 - b2 / n2), tolerance),
            _bound("a_combination_residual", abs(n2 * a1 + n1 * a2), tolerance),
            factor_1.named("factor_1", expected=None),
            factor_2.named("factor_2", expected=None),
            direct.named("direct", expected=None),
        ],
    )
    report.details["verdicts_agree"] = report.verdict == direct.verdict
    return report


# --- factor identity for a conformally Einstein product ---------------------

@evaluation_scope()
def factor_hessian_check(block: BlockMetricSpec, phi1: Expr, phi2: Expr,
                         plan: SamplePlan, lambda_bar: float, *,
                         tolerance: float = 1e-8) -> Check:
    """On block = g1 + g2 with the second summand non-constant, the first
    factor must be Einstein and

    Hess(phi1) = (lambda_bar/phi - lambda_1 phi + lap(phi) + (n-1)|dphi|^2/phi) g1 / (n-2)

    pointwise on the joint chart (the right side mixes both factors; its
    zero-variation along the second factor is part of the content).  The
    product's connection is the direct sum of the factors', so Hess(phi1)
    and g1 are the first block of Hess(phi) and g on g1 + g2; every term
    comes from the one product batch at the joint sample points.
    """
    g1, g2 = block.factors
    n1, n = g1.dim, block.dim
    if n < 3:
        raise UnsupportedDimError("joint dimension must be at least 3")
    require_nonconstant(phi2, g2, plan, "second summand")

    phi = joint_sum(block, phi1, phi2)
    factor_1 = einstein_check(g1, plan, tolerance)
    lambda_1 = factor_1.details["lambda_hat"]

    pts = sample(block.metric.chart, plan)
    phival = require_positive_factor(ConformalSpec(block, phi), pts)
    batch = curvature_batch(block.metric, pts)
    hess, lap, gns = _field_jets(phi, block.metric, pts)
    coef = (lambda_bar / phival - lambda_1 * phival + lap
            + (n - 1) * gns / phival) / (n - 2)
    first = _entry_sup(n, hess, batch.g.scaled(-coef), keep=lambda i, j: j < n1)
    identity = _residual("identity", first, pts, tolerance,
                         lambda_bar=lambda_bar, lambda_1=lambda_1)
    return Check("factor_hessian", details={"lambda_bar": lambda_bar},
                 parts=[factor_1.named("factor_1"), identity])


# --- warped presentation of a doubly twisted metric -------------------------

def warped_presentation_check(d: DoublyTwistedSpec, plan: SamplePlan,
                              tolerance: float = 1e-8) -> Check:
    """Is the doubly twisted presentation b^2 g_B + f^2 g_F actually warped?

    Warped over the base needs both scales independent of the fiber
    coordinates; warped over the fiber needs them independent of the base
    coordinates.  The details carry the sup of the offending derivatives
    for both orientations; the check's sup is the smaller one, so either
    one below tolerance passes.
    """
    chart = d.chart()
    pts = sample(chart, plan)
    n1 = d.base.dim
    grads = [np.abs(_field_plan(e, chart.coords).gradients(pts))
             for e in dict.fromkeys((d.base_scale, d.fiber_scale))]
    base_oriented = max(float(g[:, n1:].max()) for g in grads)    # along the fiber
    fiber_oriented = max(float(g[:, :n1].max()) for g in grads)   # along the base
    return Check("warped_presentation", sup=min(base_oriented, fiber_oriented),
                 tolerance=tolerance, samples=plan.count,
                 details={"base_oriented": base_oriented, "fiber_oriented": fiber_oriented})
