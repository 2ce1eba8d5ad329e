"""Charts, coordinate metrics and exact curvature.

Derivatives of metric entries are symbolic (expressions.differentiate); the
pointwise assembly into Christoffel symbols, Riemann and Ricci tensors is
plain dense linear algebra.  No finite differences anywhere in this path.
Batches contract Ricci straight from the metric jets; the full Riemann
tensor is built only for single-point queries (curvature()).

Index conventions, fixed here once:

    christoffel[k, i, j]      Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2
    riemann[a, b, c, d]       R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
                                        + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb
    ricci[b, d]               R^a_bad      (unit round spheres get positive Ricci)
    scalar                    g^bd ricci_bd
    normalized_scalar         scalar / (n (n - 1)), 0 for n = 1

The Laplacian follows the geometer's sign: lap(phi) = -trace_g(Hess phi),
so phi = |x|^2 / 2 on flat R^n has Hess = identity and lap(phi) = -n.

Everything is immutable; sampling and evaluation are pure, so checks over
sample points can run concurrently or vectorized (they are vectorized here).
Inside an evaluation_scope() the checks of one run share each curvature
batch instead of recomputing it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import OutsideDomainError, SingularMetricError, UnsupportedDimError
from .expressions import Expr, compile_expr, differentiate, free_coords

_PD_EIGENVALUE_TOL = 1e-12


@dataclass(frozen=True)
class Chart:
    """Open coordinate box with a sampling stand-off from its boundary."""

    coords: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    singular_margin: float = 0.1

    def __post_init__(self):
        if len(self.coords) != len(self.domain):
            raise UnsupportedDimError("coordinate and domain lists differ in length")
        if len(self.coords) != len(set(self.coords)):
            raise UnsupportedDimError("duplicate coordinate names")
        for lo, hi in self.domain:
            if not lo < hi:
                raise UnsupportedDimError(f"empty coordinate interval ({lo}, {hi})")
        if self.singular_margin < 0:
            raise UnsupportedDimError("negative singular margin")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def env(self, point: Sequence[float]) -> dict[str, float]:
        return dict(zip(self.coords, point))

    def contains(self, point: Sequence[float]) -> bool:
        return len(point) == self.dim and all(
            lo < x < hi for x, (lo, hi) in zip(point, self.domain)
        )

    def require_interior(self, point: Sequence[float]):
        if not self.contains(point):
            shown = tuple(float(x) for x in point)
            raise OutsideDomainError(f"point {shown} outside open box {self.domain}")


@dataclass(frozen=True)
class MetricSpec:
    """Symmetric matrix of entry expressions over a chart."""

    chart: Chart
    entries: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        n = self.chart.dim
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise UnsupportedDimError("entry matrix does not match chart dimension")
        for i in range(n):
            for j in range(i + 1, n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise UnsupportedDimError(f"entries ({i},{j}) and ({j},{i}) differ")
        names = set(self.chart.coords)
        for row in self.entries:
            for e in row:
                extra = free_coords(e) - names
                if extra:
                    raise UnsupportedDimError(
                        f"entry uses coordinates {sorted(extra)} not on the chart"
                    )

    @property
    def dim(self) -> int:
        return self.chart.dim


@dataclass(frozen=True)
class CurvatureData:
    point: tuple[float, ...]
    metric: np.ndarray
    inverse_metric: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    normalized_scalar: float


# --- cached compiled jets ---------------------------------------------------

class _ExprJets:
    """Compiled value / gradient / hessian evaluators for one expression.

    The derivative evaluators are compiled on the first call that needs
    them, so callers that only read values never differentiate.
    """

    def __init__(self, e: Expr, coords: tuple[str, ...]):
        self.expr = e
        self.coords = coords
        self.value_fn = compile_expr(e, coords)

    @cached_property
    def derivative_fns(self):
        coords = self.coords
        firsts = [differentiate(self.expr, c) for c in coords]
        grad_fns = [compile_expr(d, coords) for d in firsts]
        hess_fns = {}
        for i, di in enumerate(firsts):
            for j in range(i, len(coords)):
                hess_fns[(i, j)] = compile_expr(differentiate(di, coords[j]), coords)
        return grad_fns, hess_fns

    def evaluate(self, points: np.ndarray):
        grad_fns, hess_fns = self.derivative_fns
        n = len(self.coords)
        count = points.shape[0]
        value = self.value_fn(points)
        grad = np.empty((count, n))
        hess = np.empty((count, n, n))
        for i in range(n):
            grad[:, i] = grad_fns[i](points)
        for (i, j), fn in hess_fns.items():
            hess[:, i, j] = hess[:, j, i] = fn(points)
        return value, grad, hess


@lru_cache(maxsize=512)
def _expr_jets(e: Expr, coords: tuple[str, ...]) -> _ExprJets:
    return _ExprJets(e, coords)


class _MetricJets:
    def __init__(self, metric: MetricSpec):
        coords = metric.chart.coords
        self.dim = metric.dim
        self.jets = {}
        for i in range(self.dim):
            for j in range(i, self.dim):
                self.jets[(i, j)] = _expr_jets(metric.entries[i][j], coords)

    def values(self, points: np.ndarray) -> np.ndarray:
        """Return g alone, from the entries' value evaluators."""
        n = self.dim
        g = np.empty((points.shape[0], n, n))
        for (i, j), jets in self.jets.items():
            g[:, i, j] = g[:, j, i] = jets.value_fn(points)
        return g

    def evaluate(self, points: np.ndarray):
        """Return (g, dg, d2g); dg[n,i,j,k] = d_k g_ij, d2g[n,i,j,k,l] = d_k d_l g_ij."""
        n = self.dim
        count = points.shape[0]
        g = np.empty((count, n, n))
        dg = np.empty((count, n, n, n))
        d2g = np.empty((count, n, n, n, n))
        for (i, j), jets in self.jets.items():
            value, grad, hess = jets.evaluate(points)
            g[:, i, j] = g[:, j, i] = value
            dg[:, i, j, :] = dg[:, j, i, :] = grad
            d2g[:, i, j, :, :] = d2g[:, j, i, :, :] = hess
        return g, dg, d2g


@lru_cache(maxsize=128)
def _metric_jets(metric: MetricSpec) -> _MetricJets:
    return _MetricJets(metric)


def _as_points(chart: Chart, points) -> np.ndarray:
    array = np.asarray(points, dtype=float)
    if array.ndim == 1:
        array = array[None, :]
    if array.shape[1] != chart.dim:
        raise OutsideDomainError(
            f"points have {array.shape[1]} coordinates, chart has {chart.dim}"
        )
    lo = np.array([d[0] for d in chart.domain])
    hi = np.array([d[1] for d in chart.domain])
    inside = (array > lo).all(axis=1) & (array < hi).all(axis=1)
    if not inside.all():
        bad = tuple(float(v) for v in array[int(np.argmin(inside))])
        raise OutsideDomainError(f"point {bad} outside open box {chart.domain}")
    return array


def _check_positive_definite(g: np.ndarray, points: np.ndarray):
    # symmetric eigenvalue test at sample time
    eigenvalues = np.linalg.eigvalsh(g)
    scale = np.maximum(1.0, np.abs(g).reshape(g.shape[0], -1).max(axis=1))
    bad = eigenvalues[:, 0] <= _PD_EIGENVALUE_TOL * scale
    if bad.any():
        where = int(np.argmax(bad))
        raise SingularMetricError(points[where], float(eigenvalues[where, 0]))


def metric_values(metric: MetricSpec, points, check: bool = True) -> np.ndarray:
    pts = _as_points(metric.chart, points)
    g = _metric_jets(metric).values(pts)
    if check:
        _check_positive_definite(g, pts)
    return g


# --- curvature --------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureBatch:
    points: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray     # [n, k, i, j]
    ricci: np.ndarray
    scalar: np.ndarray

    def normalized_scalar(self) -> np.ndarray:
        n = self.g.shape[1]
        if n < 2:
            return np.zeros_like(self.scalar)
        return self.scalar / (n * (n - 1))


# (metric, points.shape, points bytes) -> CurvatureBatch, while a scope is open
_SCOPE: ContextVar[dict | None] = ContextVar("confprod_evaluation_scope", default=None)


@contextmanager
def evaluation_scope():
    """Share curvature batches between the checks of one run.

    Inside the scope, curvature_batch returns the batch it already computed
    for the same metric at the same points, and the field helpers take the
    inverse metric from it.  The key is the metric itself, so the direct
    route (rescaled metric) and the formula route (base metric) never read
    each other's entries.  A scope opened inside another one shares the
    outer one's batches; the outermost scope drops them when it closes.
    Kept arrays are read-only.  Yields the mapping from keys to batches.
    """
    kept = _SCOPE.get()
    if kept is not None:
        yield kept
        return
    token = _SCOPE.set({})
    try:
        yield _SCOPE.get()
    finally:
        _SCOPE.reset(token)


def _scope_key(metric: MetricSpec, pts: np.ndarray) -> tuple:
    return (metric, pts.shape, pts.tobytes())


def _connection(metric: MetricSpec, pts: np.ndarray):
    """Metric jets, inverse metric, W and Gamma at checked points.

    W[n,l,i,j] = d_i g_jl + d_j g_il - d_l g_ij, so Gamma = ginv W / 2.
    """
    g, dg, d2g = _metric_jets(metric).evaluate(pts)
    _check_positive_definite(g, pts)
    ginv = np.linalg.inv(g)
    w = np.einsum("njli->nlij", dg) + np.einsum("nilj->nlij", dg) - np.einsum("nijl->nlij", dg)
    gamma = 0.5 * np.einsum("nal,nlij->naij", ginv, w)
    return g, dg, d2g, ginv, w, gamma


def _ricci(ginv, dg, d2g, w, gamma) -> np.ndarray:
    """R_bd = d_a Gamma^a_db - d_d Gamma^a_ab + Gamma^a_ae Gamma^e_db - Gamma^a_de Gamma^e_ab.

    The two derivative terms are expanded through d ginv = -ginv dg ginv
    and Gamma^a_ab = g^al d_b g_al / 2, so d Gamma (count n^4) and the
    Riemann tensor (count n^4) are never formed; every contraction is
    O(count n^4) in time and O(count n^3) in memory beyond d2g itself.
    """
    # m[n,k] = ginv @ d_k g
    m = np.matmul(ginv[:, None], np.moveaxis(dg, 3, 1))
    trace = 0.5 * np.einsum("nkpp->nk", m)                                 # Gamma^a_ak
    div_ginv = -np.einsum("ns,nsl->nl", np.einsum("naas->ns", m), ginv)    # d_a g^al
    # d_a Gamma^a_db = (d_a g^al) W_ldb / 2
    #                 + g^al (d_a d_d g_bl + d_a d_b g_dl - d_a d_l g_db) / 2
    cross = np.einsum("nal,nblda->nbd", ginv, d2g)
    d_first = 0.5 * (np.einsum("nl,nldb->nbd", div_ginv, w) + cross + np.swapaxes(cross, 1, 2)
                     - np.einsum("nal,nbdla->nbd", ginv, d2g))
    # d_d Gamma^a_ab = (d_d g^al d_b g_al + g^al d_b d_d g_al) / 2
    d_trace = 0.5 * (np.einsum("nal,nalbd->nbd", ginv, d2g) - np.einsum("ndpq,nbqp->nbd", m, m))
    return (d_first - d_trace + np.einsum("ne,nedb->nbd", trace, gamma)
            - np.einsum("nade,neab->nbd", gamma, gamma))


def _compute_batch(metric: MetricSpec, pts: np.ndarray) -> CurvatureBatch:
    g, dg, d2g, ginv, w, gamma = _connection(metric, pts)
    ricci = _ricci(ginv, dg, d2g, w, gamma)
    scalar = np.einsum("nbd,nbd->n", ginv, ricci)
    return CurvatureBatch(pts, g, ginv, gamma, ricci, scalar)


def curvature_batch(metric: MetricSpec, points) -> CurvatureBatch:
    pts = _as_points(metric.chart, points)
    kept = _SCOPE.get()
    if kept is None:
        return _compute_batch(metric, pts)
    key = _scope_key(metric, pts)
    batch = kept.get(key)
    if batch is None:
        batch = kept[key] = _compute_batch(metric, pts)
        for array in (batch.g, batch.ginv, batch.gamma, batch.ricci, batch.scalar):
            array.flags.writeable = False
    return batch


def _riemann(metric: MetricSpec, points) -> np.ndarray:
    """Full (1,3) tensor riemann[n, a, b, c, d] = R^a_bcd, for single-point queries."""
    pts = _as_points(metric.chart, points)
    g, dg, d2g, ginv, w, gamma = _connection(metric, pts)
    dginv = -np.einsum("nac,ncdm,ndb->nabm", ginv, dg, ginv)
    dw = (np.einsum("njlim->nlijm", d2g) + np.einsum("niljm->nlijm", d2g)
          - np.einsum("nijlm->nlijm", d2g))
    # dgamma[n, k, i, j, m] = d_m Gamma^k_ij
    dgamma = 0.5 * (np.einsum("nalm,nlij->naijm", dginv, w)
                    + np.einsum("nal,nlijm->naijm", ginv, dw))
    return (np.einsum("nadbc->nabcd", dgamma) - np.einsum("nacbd->nabcd", dgamma)
            + np.einsum("nace,nedb->nabcd", gamma, gamma)
            - np.einsum("nade,necb->nabcd", gamma, gamma))


def christoffel(metric: MetricSpec, point) -> np.ndarray:
    metric.chart.require_interior(point)
    return curvature_batch(metric, [point]).gamma[0]


def curvature(metric: MetricSpec, point) -> CurvatureData:
    metric.chart.require_interior(point)
    batch = curvature_batch(metric, [point])
    return CurvatureData(
        point=tuple(float(x) for x in point),
        metric=batch.g[0],
        inverse_metric=batch.ginv[0],
        christoffel=batch.gamma[0],
        riemann=_riemann(metric, batch.points)[0],
        ricci=batch.ricci[0],
        scalar=float(batch.scalar[0]),
        normalized_scalar=float(batch.normalized_scalar()[0]),
    )


# --- scalar fields on a metric ----------------------------------------------

def expr_values(e: Expr, chart: Chart, points) -> np.ndarray:
    pts = _as_points(chart, points)
    return _expr_jets(e, chart.coords).value_fn(pts)


def coordinate_hessian_batch(e: Expr, chart: Chart, points) -> np.ndarray:
    """Plain second partials d_i d_j e, shape (count, dim, dim); no connection."""
    pts = _as_points(chart, points)
    _, _, hess = _expr_jets(e, chart.coords).evaluate(pts)
    return hess


def _inverse_metric(metric: MetricSpec, pts: np.ndarray) -> np.ndarray:
    """g^ij at the points: from the kept curvature batch when a scope holds one."""
    kept = _SCOPE.get()
    batch = None if kept is None else kept.get(_scope_key(metric, pts))
    if batch is not None:
        return batch.ginv
    return np.linalg.inv(metric_values(metric, pts))


def hessian_lc_batch(phi: Expr, metric: MetricSpec, points) -> np.ndarray:
    """Covariant hessian (nabla d phi)_ij = d_i d_j phi - Gamma^k_ij d_k phi."""
    pts = _as_points(metric.chart, points)
    _, grad, hess = _expr_jets(phi, metric.chart.coords).evaluate(pts)
    gamma = curvature_batch(metric, pts).gamma
    return hess - np.einsum("nkij,nk->nij", gamma, grad)


def laplacian_batch(phi: Expr, metric: MetricSpec, points) -> np.ndarray:
    """Geometer's Laplacian: minus the metric trace of the covariant hessian."""
    pts = _as_points(metric.chart, points)
    hess = hessian_lc_batch(phi, metric, pts)
    return -np.einsum("nij,nij->n", _inverse_metric(metric, pts), hess)


def laplacian(phi: Expr, metric: MetricSpec, point) -> float:
    return float(laplacian_batch(phi, metric, [point])[0])


def grad_norm_sq_batch(phi: Expr, metric: MetricSpec, points) -> np.ndarray:
    pts = _as_points(metric.chart, points)
    _, grad, _ = _expr_jets(phi, metric.chart.coords).evaluate(pts)
    return np.einsum("nij,ni,nj->n", _inverse_metric(metric, pts), grad, grad)


def gradient_batch(phi: Expr, metric: MetricSpec, points) -> np.ndarray:
    """Raised gradient vector field g^ij d_j phi."""
    pts = _as_points(metric.chart, points)
    _, grad, _ = _expr_jets(phi, metric.chart.coords).evaluate(pts)
    return np.einsum("nij,nj->ni", _inverse_metric(metric, pts), grad)


def gradient(phi: Expr, metric: MetricSpec, point) -> np.ndarray:
    return gradient_batch(phi, metric, [point])[0]
