"""Builders for product, conformally rescaled, warped and twisted metrics.

block_metric assembles every product, warped and twisted metric, and scaled
rescales every metric's entries.  Both, and product and joint_sum, are
memoised for the process: equal inputs return the one immutable result built
first, so a run builds each of its metrics once.

Two deliberately independent routes to the curvature of a rescaled metric
live here side by side:

  * conformal_metric builds the rescaled entries phi^-2 g_ij as expressions,
    so geometry.curvature differentiates the rescaled metric directly;
  * conformal_ricci_formula evaluates the classical transformation formula
    for Ricci from curvature of the base metric plus jets of phi, never
    touching the rescaled entries.

Checks compare the two routes; nothing here may collapse them into one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Union

import numpy as np

from .errors import DomainError, NonPositiveConformalFactorError, UnsupportedDimError
from .expressions import (
    ONE,
    ZERO,
    Const,
    Expr,
    add,
    div,
    format_expr,
    mul,
    powc,
    rename_coords,
)
from .geometry import (
    Chart,
    MetricSpec,
    Rows,
    combine,
    curvature_batch,
    evaluation_scope,
    expr_values,
    require_on_chart,
    _as_points,
    _field_jets,
)

_FLOAT = np.finfo(float)


@dataclass(frozen=True)
class BlockMetricSpec:
    """Riemannian product: factor metrics plus the induced joint metric."""

    factors: tuple[MetricSpec, ...]
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
        return rename_coords(e, _to_joint(self.factors[k], self.metric.chart, self.blocks[k][0]))


AnyMetric = Union[MetricSpec, BlockMetricSpec]


def as_metric(g: AnyMetric) -> MetricSpec:
    return g.metric if isinstance(g, BlockMetricSpec) else g


def _to_joint(m: MetricSpec, chart: Chart, offset: int) -> dict[str, str]:
    """Factor coordinate name -> joint coordinate name, for the factor whose
    coordinates start at position `offset` of the joint chart."""
    return dict(zip(m.chart.coords, chart.coords[offset:]))


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


def _zero_signs(args) -> tuple:
    """The sign of every bound and margin of the charts in `args`.  Charts
    that differ only in the sign of a zero compare equal, but are printed
    apart (in an out-of-domain message, say)."""
    charts = []
    for a in args:
        if isinstance(a, BlockMetricSpec):
            charts += [m.chart for m in (*a.factors, a.metric)]
        elif isinstance(a, MetricSpec):
            charts.append(a.chart)
    return tuple(math.copysign(1.0, v) for c in charts
                 for v in (*(b for bound in c.domain for b in bound), c.singular_margin))


def _memo(builder):
    """Process-wide memo of a pure builder: equal arguments return the one
    immutable result built for them first, as geometry's plan caches do.
    The key adds the signs of the arguments' chart bounds (_zero_signs)."""
    @lru_cache(maxsize=256)
    def cached(signs, *args, **kwargs):
        return builder(*args, **kwargs)

    @wraps(builder)
    def memoised(*args, **kwargs):
        return cached(_zero_signs(args + tuple(kwargs.values())), *args, **kwargs)

    memoised.cache_clear = cached.cache_clear
    return memoised


def _scaled_rows(s: Expr, rows) -> tuple[tuple[Expr, ...], ...]:
    return tuple(tuple(mul(s, e) for e in row) for row in rows)


@_memo
def scaled(m: MetricSpec, s: Expr) -> MetricSpec:
    """s g on the same chart: every entry multiplied by the expression s."""
    return MetricSpec(m.chart, _scaled_rows(s, m.entries))


@_memo
def block_metric(m1: MetricSpec, s1: Expr, m2: MetricSpec, s2: Expr,
                 labels: tuple[str, str] = ("f0", "f1")) -> MetricSpec:
    """s1 g1 + s2 g2, block-diagonal on the joint chart.

    Each factor's entries are renamed onto the joint chart, then multiplied
    by its scale, a joint-chart expression (ONE leaves the block unscaled).
    """
    chart = joint_chart(m1, m2, labels)
    n = chart.dim
    entries = [[ZERO] * n for _ in range(n)]
    for offset, m, s in ((0, m1, s1), (m1.dim, m2, s2)):
        mapping = _to_joint(m, chart, offset)
        lifted = [[rename_coords(e, mapping) for e in row] for row in m.entries]
        for i, row in enumerate(_scaled_rows(s, lifted)):
            entries[offset + i][offset:offset + m.dim] = row
    return MetricSpec(chart, tuple(tuple(row) for row in entries))


@_memo
def product(g1: AnyMetric, g2: AnyMetric, labels: tuple[str, str] = ("f0", "f1")) -> BlockMetricSpec:
    """Block-diagonal product metric on the joined chart."""
    m1, m2 = as_metric(g1), as_metric(g2)
    n1, n = m1.dim, m1.dim + m2.dim
    return BlockMetricSpec(
        factors=(m1, m2),
        metric=block_metric(m1, ONE, m2, ONE, labels),
        blocks=(tuple(range(n1)), tuple(range(n1, n))),
    )


# --- conformal rescaling ----------------------------------------------------

@dataclass(frozen=True)
class ConformalSpec:
    """Rescale a base metric to phi^-2 g; phi lives on the base chart."""

    base: AnyMetric
    phi: Expr

    def __post_init__(self):
        require_on_chart(self.phi, as_metric(self.base).chart, "conformal factor")


def conformal_metric(c: ConformalSpec) -> MetricSpec:
    return scaled(as_metric(c.base), powc(c.phi, -2.0))


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


@evaluation_scope()
def conformal_ricci_formula(c: ConformalSpec, points, lambda_bar: float = 0.0) -> Rows:
    """Ricci of phi^-2 g minus lambda_bar phi^-2 g, from base curvature and
    jets of phi only:

    ric + (n-2) Hess(phi)/phi - (lambda_bar/phi^2 + lap(phi)/phi + (n-1) |dphi|^2/phi^2) g,
    with the geometer's Laplacian lap = -trace Hess.  At lambda_bar = 0 this
    is the rescaled Ricci tensor; it vanishes where phi^-2 g is Einstein with
    constant lambda_bar.  Returned as Rows, summed by geometry.combine.
    """
    base = as_metric(c.base)
    n = base.dim
    pts = _as_points(base.chart, points)
    phi = require_positive_factor(c, pts)
    batch = curvature_batch(base, pts)
    hess, lap, gns = _field_jets(c.phi, base, pts)
    coef = lambda_bar / phi**2 + lap / phi + (n - 1) * gns / phi**2
    return combine(n, batch.ricci, Rows((n - 2) * hess.rows / phi, hess.slots),
                   batch.g.scaled(-coef))


# --- warped and twisted products --------------------------------------------

@dataclass(frozen=True)
class WarpedSpec:
    """g_B + f^2 g_F with warping function f on the base chart."""

    base: MetricSpec
    fiber: MetricSpec
    warp: Expr

    def __post_init__(self):
        require_on_chart(self.warp, self.base.chart, "warping function", "base chart")


def warped_metric(w: WarpedSpec) -> MetricSpec:
    f = rename_coords(w.warp, _to_joint(w.base, joint_chart(w.base, w.fiber), 0))
    return block_metric(w.base, ONE, w.fiber, powc(f, 2.0))


def twisted_metric(g_base: MetricSpec, f: Expr, g_fiber: MetricSpec) -> MetricSpec:
    """g_B + f^2 g_F with f on the joint chart (use joint_chart for its names)."""
    require_on_chart(f, joint_chart(g_base, g_fiber), "twisting function", "joint chart")
    return block_metric(g_base, ONE, g_fiber, powc(f, 2.0))


@dataclass(frozen=True)
class DoublyTwistedSpec:
    """b^2 g_B + f^2 g_F with both scales on the joint chart."""

    base: MetricSpec
    fiber: MetricSpec
    base_scale: Expr
    fiber_scale: Expr

    def chart(self) -> Chart:
        """The joint chart; raises if a scale uses a coordinate not on it."""
        chart = joint_chart(self.base, self.fiber)
        require_on_chart(self.base_scale, chart, "base scale", "joint chart")
        require_on_chart(self.fiber_scale, chart, "fiber scale", "joint chart")
        return chart


def doubly_twisted_metric(d: DoublyTwistedSpec) -> MetricSpec:
    d.chart()  # rejects a scale that is off the joint chart
    return block_metric(d.base, powc(d.base_scale, 2.0), d.fiber, powc(d.fiber_scale, 2.0))


@_memo
def joint_sum(b: BlockMetricSpec, phi1: Expr, phi2: Expr) -> Expr:
    """Joint-chart sum of factor-chart summands."""
    return add(b.lift(0, phi1), b.lift(1, phi2))


def reciprocal(e: Expr) -> Expr:
    return div(Const(1.0), e)
