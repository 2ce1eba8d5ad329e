"""Builders for product, conformally rescaled, warped and twisted metrics.

Two deliberately independent routes to the curvature of a rescaled metric
live here side by side:

  * conformal_metric builds the rescaled entries phi^-2 g_ij as expressions,
    so geometry.curvature differentiates the rescaled metric directly;
  * conformal_ricci_formula / conformal_scalar_formula / conformal_connection
    evaluate the classical transformation formulas from curvature of the base
    metric plus jets of phi, never touching the rescaled entries.

Checks compare the two routes; nothing here may collapse them into one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, NonPositiveConformalFactorError, UnsupportedDimError
from .expressions import (
    Const,
    Expr,
    add,
    div,
    format_expr,
    free_coords,
    mul,
    powc,
    rename_coords,
)
from .geometry import (
    Chart,
    MetricSpec,
    curvature_batch,
    expr_values,
    grad_norm_sq_batch,
    gradient_batch,
    hessian_lc_batch,
    laplacian_batch,
    _as_points,
    _field_plan,
)

ZERO = Const(0.0)
_FLOAT = np.finfo(float)


@dataclass(frozen=True)
class BlockMetricSpec:
    """Riemannian product: factor metrics plus the induced joint metric."""

    factors: tuple[MetricSpec, ...]
    labels: tuple[str, ...]
    metric: MetricSpec
    blocks: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.metric.dim

    def split_points(self, points) -> list[np.ndarray]:
        pts = _as_points(self.metric.chart, points)
        return [pts[:, list(block)] for block in self.blocks]

    def lift(self, k: int, e: Expr) -> Expr:
        """Rename a factor-chart expression onto the joint chart."""
        factor = self.factors[k]
        mapping = {
            name: self.metric.chart.coords[j]
            for name, j in zip(factor.chart.coords, self.blocks[k])
        }
        return rename_coords(e, mapping)


AnyMetric = Union[MetricSpec, BlockMetricSpec]


def as_metric(g: AnyMetric) -> MetricSpec:
    return g.metric if isinstance(g, BlockMetricSpec) else g


def joint_chart(g1: AnyMetric, g2: AnyMetric, labels: tuple[str, str] = ("f0", "f1")) -> Chart:
    """Chart of the product, coordinates prefixed '<label>.<name>' in factor order."""
    m1, m2 = as_metric(g1), as_metric(g2)
    if labels[0] == labels[1]:
        raise UnsupportedDimError("factor labels must differ")
    coords = tuple(f"{labels[0]}.{c}" for c in m1.chart.coords) + tuple(
        f"{labels[1]}.{c}" for c in m2.chart.coords
    )
    return Chart(
        coords=coords,
        domain=m1.chart.domain + m2.chart.domain,
        singular_margin=max(m1.chart.singular_margin, m2.chart.singular_margin),
    )


def _lifted_entries(m: MetricSpec, chart: Chart, offset: int):
    mapping = {
        name: chart.coords[offset + i] for i, name in enumerate(m.chart.coords)
    }
    return [[rename_coords(e, mapping) for e in row] for row in m.entries]


def product(g1: AnyMetric, g2: AnyMetric, labels: tuple[str, str] = ("f0", "f1")) -> BlockMetricSpec:
    """Block-diagonal product metric on the joined chart."""
    m1, m2 = as_metric(g1), as_metric(g2)
    chart = joint_chart(m1, m2, labels)
    n1, n2 = m1.dim, m2.dim
    n = n1 + n2
    entries = [[ZERO for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(_lifted_entries(m1, chart, 0)):
        for j, e in enumerate(row):
            entries[i][j] = e
    for i, row in enumerate(_lifted_entries(m2, chart, n1)):
        for j, e in enumerate(row):
            entries[n1 + i][n1 + j] = e
    return BlockMetricSpec(
        factors=(m1, m2),
        labels=labels,
        metric=MetricSpec(chart, tuple(tuple(row) for row in entries)),
        blocks=(tuple(range(n1)), tuple(range(n1, n))),
    )


# --- conformal rescaling ----------------------------------------------------

@dataclass(frozen=True)
class ConformalSpec:
    """Rescale a base metric to phi^-2 g; phi lives on the base chart."""

    base: AnyMetric
    phi: Expr

    def __post_init__(self):
        chart = as_metric(self.base).chart
        extra = free_coords(self.phi) - set(chart.coords)
        if extra:
            raise UnsupportedDimError(
                f"conformal factor uses coordinates {sorted(extra)} not on the chart"
            )


def conformal_metric(c: ConformalSpec) -> MetricSpec:
    base = as_metric(c.base)
    scale = powc(c.phi, -2.0)
    entries = tuple(
        tuple(mul(scale, e) for e in row) for row in base.entries
    )
    return MetricSpec(base.chart, entries)


def require_positive_factor(c: ConformalSpec, points) -> np.ndarray:
    """Values of phi at the points; raises if any is not strictly positive,
    or if phi^-2, the scale of every rescaled entry, underflows or overflows
    (leaves the normal float range) at one of them."""
    base = as_metric(c.base)
    values = expr_values(c.phi, base.chart, points)
    pts = _as_points(base.chart, points)
    if (values <= 0.0).any():
        where = int(np.argmax(values <= 0.0))
        raise NonPositiveConformalFactorError(pts[where], float(values[where]))
    with np.errstate(over="ignore", under="ignore"):
        scale = values ** -2.0
    bad = ~((scale >= _FLOAT.tiny) & (scale <= _FLOAT.max))
    if bad.any():
        where = int(np.argmax(bad))
        kind = "underflow" if scale[where] < _FLOAT.tiny else "overflow"
        raise DomainError(
            f"conformal factor {values[where]:.6g} at {tuple(float(x) for x in pts[where])}: "
            f"phi^-2 = {scale[where]:.3g} ({kind})", format_expr(c.phi))
    return values


def conformal_ricci_formula(c: ConformalSpec, points) -> np.ndarray:
    """Ricci of phi^-2 g from base curvature and jets of phi only.

    ric + (n-2) Hess(phi)/phi - (lap(phi)/phi + (n-1) |dphi|^2/phi^2) g,
    with the geometer's Laplacian lap = -trace Hess.
    """
    base = as_metric(c.base)
    n = base.dim
    pts = _as_points(base.chart, points)
    phi = require_positive_factor(c, pts)
    batch = curvature_batch(base, pts)
    hess = hessian_lc_batch(c.phi, base, pts)
    lap = -np.einsum("nij,nij->n", batch.ginv, hess)
    gns = grad_norm_sq_batch(c.phi, base, pts)
    coef = (lap / phi + (n - 1) * gns / phi**2)[:, None, None]
    return batch.ricci + (n - 2) * hess / phi[:, None, None] - coef * batch.g


def conformal_scalar_formula(c: ConformalSpec, points) -> np.ndarray:
    """Scalar curvature of phi^-2 g: phi^2 s - 2(n-1) phi lap(phi) - n(n-1)|dphi|^2."""
    base = as_metric(c.base)
    n = base.dim
    pts = _as_points(base.chart, points)
    phi = require_positive_factor(c, pts)
    scalar = curvature_batch(base, pts).scalar
    lap = laplacian_batch(c.phi, base, pts)
    gns = grad_norm_sq_batch(c.phi, base, pts)
    return phi**2 * scalar - 2 * (n - 1) * phi * lap - n * (n - 1) * gns


def conformal_connection(c: ConformalSpec, i: int, j: int, points) -> np.ndarray:
    """Components of the rescaled Levi-Civita connection on coordinate fields.

    Gammabar^k_ij = Gamma^k_ij - (d_i phi delta^k_j + d_j phi delta^k_i)/phi
                    + g_ij grad(phi)^k / phi
    """
    base = as_metric(c.base)
    pts = _as_points(base.chart, points)
    phi = require_positive_factor(c, pts)
    batch = curvature_batch(base, pts)
    _, dphi, _ = _field_plan(c.phi, base.chart.coords).jets(pts)
    grad = gradient_batch(c.phi, base, pts)
    out = batch.gamma[:, :, i, j].copy()
    out[:, j] -= dphi[:, i] / phi
    out[:, i] -= dphi[:, j] / phi
    out += batch.g[:, i, j, None] * grad / phi[:, None]
    return out


# --- warped and twisted products --------------------------------------------

@dataclass(frozen=True)
class WarpedSpec:
    """g_B + f^2 g_F with warping function f on the base chart."""

    base: MetricSpec
    fiber: MetricSpec
    warp: Expr
    lambda_fiber: float | None = None
    lambda_bar: float | None = None

    def __post_init__(self):
        extra = free_coords(self.warp) - set(self.base.chart.coords)
        if extra:
            raise UnsupportedDimError(
                f"warping function uses coordinates {sorted(extra)} not on the base chart"
            )


def warped_metric(w: WarpedSpec, labels: tuple[str, str] = ("f0", "f1")) -> MetricSpec:
    chart = joint_chart(w.base, w.fiber, labels)
    n1 = w.base.dim
    mapping = {name: chart.coords[i] for i, name in enumerate(w.base.chart.coords)}
    f2 = powc(rename_coords(w.warp, mapping), 2.0)
    n = n1 + w.fiber.dim
    entries = [[ZERO for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(_lifted_entries(w.base, chart, 0)):
        for j, e in enumerate(row):
            entries[i][j] = e
    for i, row in enumerate(_lifted_entries(w.fiber, chart, n1)):
        for j, e in enumerate(row):
            entries[n1 + i][n1 + j] = mul(f2, e)
    return MetricSpec(chart, tuple(tuple(row) for row in entries))


def twisted_metric(g_base: MetricSpec, f: Expr, g_fiber: MetricSpec,
                   labels: tuple[str, str] = ("f0", "f1")) -> MetricSpec:
    """g_B + f^2 g_F with f on the joint chart (use joint_chart for its names)."""
    chart = joint_chart(g_base, g_fiber, labels)
    extra = free_coords(f) - set(chart.coords)
    if extra:
        raise UnsupportedDimError(
            f"twisting function uses coordinates {sorted(extra)} not on the joint chart"
        )
    n1 = g_base.dim
    n = n1 + g_fiber.dim
    f2 = powc(f, 2.0)
    entries = [[ZERO for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(_lifted_entries(g_base, chart, 0)):
        for j, e in enumerate(row):
            entries[i][j] = e
    for i, row in enumerate(_lifted_entries(g_fiber, chart, n1)):
        for j, e in enumerate(row):
            entries[n1 + i][n1 + j] = mul(f2, e)
    return MetricSpec(chart, tuple(tuple(row) for row in entries))


@dataclass(frozen=True)
class DoublyTwistedSpec:
    """b^2 g_B + f^2 g_F with both scales on the joint chart."""

    base: MetricSpec
    fiber: MetricSpec
    base_scale: Expr
    fiber_scale: Expr
    labels: tuple[str, str] = ("f0", "f1")

    def chart(self) -> Chart:
        return joint_chart(self.base, self.fiber, self.labels)


def doubly_twisted_metric(d: DoublyTwistedSpec) -> MetricSpec:
    chart = d.chart()
    for name, e in (("base", d.base_scale), ("fiber", d.fiber_scale)):
        extra = free_coords(e) - set(chart.coords)
        if extra:
            raise UnsupportedDimError(
                f"{name} scale uses coordinates {sorted(extra)} not on the joint chart"
            )
    n1 = d.base.dim
    n = n1 + d.fiber.dim
    b2 = powc(d.base_scale, 2.0)
    f2 = powc(d.fiber_scale, 2.0)
    entries = [[ZERO for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(_lifted_entries(d.base, chart, 0)):
        for j, e in enumerate(row):
            entries[i][j] = mul(b2, e)
    for i, row in enumerate(_lifted_entries(d.fiber, chart, n1)):
        for j, e in enumerate(row):
            entries[n1 + i][n1 + j] = mul(f2, e)
    return MetricSpec(chart, tuple(tuple(row) for row in entries))


def function_rescaled_metric(m: MetricSpec, factor: Expr) -> MetricSpec:
    """factor^2 g on the same chart (factor may vary over the chart)."""
    extra = free_coords(factor) - set(m.chart.coords)
    if extra:
        raise UnsupportedDimError(
            f"scale factor uses coordinates {sorted(extra)} not on the chart"
        )
    f2 = powc(factor, 2.0)
    return MetricSpec(m.chart, tuple(tuple(mul(f2, e) for e in row) for row in m.entries))


def constant_rescale(m: MetricSpec, k_squared: float) -> MetricSpec:
    """k^2 g, exact homothety (entries multiplied by the constant)."""
    c = Const(float(k_squared))
    return MetricSpec(m.chart, tuple(tuple(mul(c, e) for e in row) for row in m.entries))


def joint_sum(b: BlockMetricSpec, phi1: Expr, phi2: Expr) -> Expr:
    """Joint-chart sum of factor-chart summands."""
    return add(b.lift(0, phi1), b.lift(1, phi2))


def reciprocal(e: Expr) -> Expr:
    return div(Const(1.0), e)
