"""Charts, coordinate metrics and exact curvature.

Derivatives of metric entries are symbolic (expressions.differentiate); the
pointwise assembly into Christoffel symbols, Riemann and Ricci tensors is
plain dense linear algebra.  No finite differences anywhere in this path.
Batches contract Ricci straight from the metric jets, one product factor
at a time when the metric splits into factors; the full Riemann tensor is
built only for single-point queries (curvature()).

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

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import OutsideDomainError, SingularMetricError, UnsupportedDimError
from .expressions import Const, Expr, compile_expr, differentiate, free_coords

_PD_EIGENVALUE_TOL = 1e-12
# a curvature batch is computed in slices of sample points whose d2g
# (8 n^4 bytes per point) fits this budget, so its working memory does not
# grow with the sample count
_CHUNK_BYTES = 1 << 20


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
        for name, (lo, hi) in zip(self.coords, self.domain):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise UnsupportedDimError(
                    f"interval ({lo}, {hi}) of '{name}' needs finite bounds")
            if not lo < hi:
                raise UnsupportedDimError(f"empty coordinate interval ({lo}, {hi})")
        if not (math.isfinite(self.singular_margin) and self.singular_margin >= 0):
            raise UnsupportedDimError(
                f"singular margin must be a finite number >= 0, got {self.singular_margin}")

    @property
    def dim(self) -> int:
        return len(self.coords)


def require_on_chart(e: Expr, chart: Chart, role: str, chart_name: str = "chart") -> None:
    """Raise UnsupportedDimError if e uses a coordinate the chart lacks;
    `role` names e in the message ("conformal factor", "entry", ...)."""
    extra = free_coords(e) - set(chart.coords)
    if extra:
        raise UnsupportedDimError(
            f"{role} uses coordinates {sorted(extra)} not on the {chart_name}")


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
        for row in self.entries:
            for e in row:
                require_on_chart(e, self.chart, "entry")

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


# --- jet plans --------------------------------------------------------------

class _Program(NamedTuple):
    tape: tuple[Expr, ...]   # the slots computed on the tape, in slot order
    fn: Optional[Callable]   # the compiled tape, None when every slot is constant
    scatter: tuple           # per output array: (tape rows, columns, constant columns, values)


class _JetPlan:
    """Values and first and second coordinate derivatives of a set of expressions.

    Each expression fills one or more places of an output array of shape
    `shape`, given as flat indices: a metric's upper-triangle entry fills
    (i, j) and (j, i), a scalar field fills the single place of shape ().
    A slot (one value or derivative of one expression) whose expression is
    a finite constant is written directly, and a constant expression is
    never differentiated; every other slot goes on one shared tape
    (expressions.compile_expr).  The value tape is built on first use and
    the derivative tape on the first call that needs derivatives, so
    value-only callers never differentiate.  The differentiation memo and
    both tapes belong to this plan alone.
    """

    def __init__(self, shape: tuple[int, ...], entries, coords: tuple[str, ...]):
        self.shape = shape
        self.entries = entries  # ((expr, flat places), ...)
        self.coords = coords

    @cached_property
    def value_program(self) -> _Program:
        return self._program(0)

    @cached_property
    def jet_program(self) -> _Program:
        return self._program(2)

    def _program(self, order: int) -> _Program:
        """Slots are laid out entry by entry: the value, the n first
        derivatives, then the second derivatives (k, l >= k), so the tape
        raises the first DomainError in that order."""
        n = len(self.coords)
        tape: list[Expr] = []
        taped = [([], []) for _ in range(order + 1)]   # per output: tape rows, columns
        fixed = [([], []) for _ in range(order + 1)]   # per output: columns, constant values

        def put(out: int, e: Expr, columns: list[int]):
            if isinstance(e, Const) and math.isfinite(e.value):
                if e.value != 0.0 or math.copysign(1.0, e.value) < 0:  # zeros are preset
                    fixed[out][0].extend(columns)
                    fixed[out][1].extend([e.value] * len(columns))
                return
            taped[out][0].extend([len(tape)] * len(columns))
            taped[out][1].extend(columns)
            tape.append(e)

        memo: dict = {}
        for e, places in self.entries:
            put(0, e, list(places))
            if order == 0 or isinstance(e, Const):
                continue
            firsts = [differentiate(e, c, memo) for c in self.coords]
            for k, d in enumerate(firsts):
                put(1, d, [p * n + k for p in places])
            for k, d in enumerate(firsts):
                if isinstance(d, Const):
                    continue
                for l in range(k, n):
                    columns = [p * n * n + k * n + l for p in places]
                    if l != k:
                        columns += [p * n * n + l * n + k for p in places]
                    put(2, differentiate(d, self.coords[l], memo), columns)
        scatter = tuple(
            (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
             np.array(ccols, dtype=np.intp), np.array(values, dtype=float))
            for (rows, cols), (ccols, values) in zip(taped, fixed))
        return _Program(tuple(tape), compile_expr(tape, self.coords) if tape else None, scatter)

    def _run(self, program: _Program, points: np.ndarray) -> list[np.ndarray]:
        count, n = points.shape[0], len(self.coords)
        rows = None if program.fn is None else program.fn(points)
        outs = []
        for order, (tape_rows, cols, ccols, values) in enumerate(program.scatter):
            out = np.zeros((count,) + self.shape + (n,) * order)
            flat = out.reshape(count, -1)
            if len(cols):
                flat[:, cols] = rows[tape_rows].T
            flat[:, ccols] = values
            outs.append(out)
        return outs

    def values(self, points: np.ndarray) -> np.ndarray:
        """The expressions' values, shape (count,) + shape."""
        return self._run(self.value_program, points)[0]

    def jets(self, points: np.ndarray):
        """(value, gradient, hessian); gradient[..., k] = d_k, hessian[..., k, l] = d_k d_l."""
        return tuple(self._run(self.jet_program, points))


@lru_cache(maxsize=512)
def _field_plan(e: Expr, coords: tuple[str, ...]) -> _JetPlan:
    return _JetPlan((), ((e, (0,)),), coords)


@lru_cache(maxsize=128)
def _metric_plan(metric: MetricSpec) -> _JetPlan:
    """Plan over the upper-triangle entries; gradient[n,i,j,k] = d_k g_ij."""
    n = metric.dim
    entries = tuple(
        (metric.entries[i][j], (i * n + j,) if i == j else (i * n + j, j * n + i))
        for i in range(n) for j in range(i, n)
    )
    return _JetPlan((n, n), entries, metric.chart.coords)


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
    g = _metric_plan(metric).values(pts)
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


def _connection(g: np.ndarray, dg: np.ndarray):
    """Inverse metric, W and Gamma from checked metric jets.

    W[n,l,i,j] = d_i g_jl + d_j g_il - d_l g_ij, so Gamma = ginv W / 2.
    The jet plan writes each entry's derivatives into both (i, j) and
    (j, i), and each second derivative into both (k, l) and (l, k), so dg
    and d2g are exactly symmetric in those slots; the contractions here and
    in _ricci read whichever orientation is contiguous.
    """
    count, n = g.shape[0], g.shape[1]
    ginv = np.linalg.inv(g)
    w = dg + dg.swapaxes(2, 3) - dg.transpose(0, 3, 1, 2)
    gamma = 0.5 * np.matmul(ginv, w.reshape(count, n, n * n)).reshape(count, n, n, n)
    return ginv, w, gamma


def _ricci(ginv, dg, d2g, w, gamma) -> np.ndarray:
    """R_bd = d_a Gamma^a_db - d_d Gamma^a_ab + Gamma^a_ae Gamma^e_db - Gamma^a_de Gamma^e_ab.

    The two derivative terms are expanded through d ginv = -ginv dg ginv
    and Gamma^a_ab = g^al d_b g_al / 2, so d Gamma (count n^4) and the
    Riemann tensor (count n^4) are never formed.  Every count n^4
    contraction is a batched matmul over a contiguous reshape of d2g, m or
    gamma; vec(ginv^T)[l n + a] = g^al keeps each term's ginv orientation.
    """
    count, n = ginv.shape[0], ginv.shape[1]
    nn = n * n
    # m[n,k] = ginv @ d_k g
    m = np.matmul(ginv[:, None], np.moveaxis(dg, 3, 1))
    trace = 0.5 * np.einsum("nkpp->nk", m)                                 # Gamma^a_ak
    div_ginv = -np.einsum("ns,nsl->nl", np.einsum("naas->ns", m), ginv)    # d_a g^al
    ginv_t = ginv.swapaxes(1, 2).reshape(count, nn)
    d2 = d2g.reshape(count, nn, nn)
    # d_a Gamma^a_db = (d_a g^al) W_ldb / 2
    #                 + g^al (d_a d_d g_bl + d_a d_b g_dl - d_a d_l g_db) / 2
    # cross[b,d] = g^al d_a d_d g_bl, read as d2g[b, (l, a), d]
    cross = np.matmul(ginv_t[:, None, None], d2g.reshape(count, n, nn, n))[:, :, 0]
    d_first = 0.5 * (np.einsum("nl,nldb->nbd", div_ginv, w) + cross + np.swapaxes(cross, 1, 2)
                     - np.matmul(d2, ginv_t[:, :, None]).reshape(count, n, n))
    # d_d Gamma^a_ab = (d_d g^al d_b g_al + g^al d_b d_d g_al) / 2
    mm = np.matmul(m.swapaxes(2, 3).reshape(count, n, nn), m.reshape(count, n, nn).swapaxes(1, 2))
    d_trace = 0.5 * (np.matmul(ginv.reshape(count, 1, nn), d2).reshape(count, n, n) - mm)
    # Gamma^a_de Gamma^e_ab = (t[d, (a, e)] @ t[(a, e), b]) with t[x, y, z] = gamma[y, x, z]
    t = np.ascontiguousarray(gamma.transpose(0, 2, 1, 3))
    gg = np.matmul(t.reshape(count, n, nn), t.reshape(count, nn, n))
    return (d_first - d_trace + np.einsum("ne,nedb->nbd", trace, gamma)
            - np.swapaxes(gg, 1, 2))


@lru_cache(maxsize=128)
def _factors(metric: MetricSpec) -> tuple[tuple[tuple[int, ...], MetricSpec], ...]:
    """The finest split of the chart's coordinates that no entry couples.

    Coordinates i and j share a part when entry (i, j) is not a constant
    zero or an entry in row i depends on coordinate j.  Each part comes as
    (its coordinate indices, its metric on the sub-chart), in chart order;
    a metric that does not split is its own single part.  The connection
    and Ricci tensor of the whole are the direct sums of the parts'.
    """
    n, coords = metric.dim, metric.chart.coords
    index = {c: k for k, c in enumerate(coords)}
    root = list(range(n))

    def find(i: int) -> int:
        while root[i] != i:
            i = root[i]
        return i

    for i, row in enumerate(metric.entries):
        for j, e in enumerate(row):
            joined = [index[c] for c in free_coords(e)]
            if not (isinstance(e, Const) and e.value == 0.0):
                joined.append(j)
            for k in joined:
                root[find(k)] = find(i)
    parts: dict[int, list[int]] = {}
    for i in range(n):
        parts.setdefault(find(i), []).append(i)
    if len(parts) == 1:
        return ((tuple(range(n)), metric),)
    chart = metric.chart
    return tuple(
        (tuple(idx), MetricSpec(
            Chart(tuple(coords[i] for i in idx), tuple(chart.domain[i] for i in idx),
                  chart.singular_margin),
            tuple(tuple(metric.entries[i][j] for j in idx) for i in idx)))
        for idx in parts.values())


def _block(idx: tuple[int, ...], axes: int) -> tuple:
    """Index of the block idx x ... x idx over `axes` axes: slices when idx is
    a run of coordinates, which numpy copies several times faster."""
    if idx[-1] - idx[0] == len(idx) - 1:
        return (slice(idx[0], idx[-1] + 1),) * axes
    return np.ix_(*[idx] * axes)


def _compute_batch(metric: MetricSpec, pts: np.ndarray) -> CurvatureBatch:
    """The batch, computed slice by slice and, within a slice, product factor
    by product factor (_factors); cross-factor slots of ginv, gamma and ricci
    are exact zeros.  One slice's d2g of all factors stays within
    _CHUNK_BYTES; every point's values depend on that point alone."""
    count, n = pts.shape[0], metric.dim
    parts = [(part, _block(idx, 1), _block(idx, 2), _block(idx, 3))
             for idx, part in _factors(metric)]
    g, ginv, ricci = (np.zeros((count, n, n)) for _ in range(3))
    gamma = np.zeros((count, n, n, n))
    step = max(1, _CHUNK_BYTES // (8 * sum(part.dim ** 4 for part, *_ in parts)))
    for start in range(0, count, step):
        rows = (slice(start, start + step),)
        jets = []
        for part, line, square, _ in parts:
            jets.append(_metric_plan(part).jets(pts[rows + line]))
            g[rows + square] = jets[-1][0]
        _check_positive_definite(g[rows], pts[rows])
        for (_, _, square, cube), (g_part, dg, d2g) in zip(parts, jets):
            ginv_part, w, gamma_part = _connection(g_part, dg)
            ginv[rows + square] = ginv_part
            gamma[rows + cube] = gamma_part
            ricci[rows + square] = _ricci(ginv_part, dg, d2g, w, gamma_part)
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
    g, dg, d2g = _metric_plan(metric).jets(pts)
    _check_positive_definite(g, pts)
    ginv, w, gamma = _connection(g, dg)
    dginv = -np.einsum("nac,ncdm,ndb->nabm", ginv, dg, ginv)
    dw = (np.einsum("njlim->nlijm", d2g) + np.einsum("niljm->nlijm", d2g)
          - np.einsum("nijlm->nlijm", d2g))
    # dgamma[n, k, i, j, m] = d_m Gamma^k_ij
    dgamma = 0.5 * (np.einsum("nalm,nlij->naijm", dginv, w)
                    + np.einsum("nal,nlijm->naijm", ginv, dw))
    return (np.einsum("nadbc->nabcd", dgamma) - np.einsum("nacbd->nabcd", dgamma)
            + np.einsum("nace,nedb->nabcd", gamma, gamma)
            - np.einsum("nade,necb->nabcd", gamma, gamma))


def curvature(metric: MetricSpec, point) -> CurvatureData:
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
    return _field_plan(e, chart.coords).values(pts)


def coordinate_hessian_batch(e: Expr, chart: Chart, points) -> np.ndarray:
    """Plain second partials d_i d_j e, shape (count, dim, dim); no connection."""
    pts = _as_points(chart, points)
    _, _, hess = _field_plan(e, chart.coords).jets(pts)
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
    _, grad, hess = _field_plan(phi, metric.chart.coords).jets(pts)
    gamma = curvature_batch(metric, pts).gamma
    return hess - np.einsum("nkij,nk->nij", gamma, grad)


def laplacian_batch(phi: Expr, metric: MetricSpec, points) -> np.ndarray:
    """Geometer's Laplacian: minus the metric trace of the covariant hessian."""
    pts = _as_points(metric.chart, points)
    hess = hessian_lc_batch(phi, metric, pts)
    return -np.einsum("nij,nij->n", _inverse_metric(metric, pts), hess)


def grad_norm_sq_batch(phi: Expr, metric: MetricSpec, points) -> np.ndarray:
    pts = _as_points(metric.chart, points)
    _, grad, _ = _field_plan(phi, metric.chart.coords).jets(pts)
    return np.einsum("nij,ni,nj->n", _inverse_metric(metric, pts), grad, grad)


def gradient_batch(phi: Expr, metric: MetricSpec, points) -> np.ndarray:
    """Raised gradient vector field g^ij d_j phi."""
    pts = _as_points(metric.chart, points)
    _, grad, _ = _field_plan(phi, metric.chart.coords).jets(pts)
    return np.einsum("nij,nj->ni", _inverse_metric(metric, pts), grad)
