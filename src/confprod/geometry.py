"""Charts, coordinate metrics and exact curvature.

Derivatives of metric entries are symbolic (expressions.differentiate).
No finite differences anywhere in this path.  Batches contract Ricci
straight from the metric jets, one product factor at a time when the
metric splits into factors, and only over the slots that can be non-zero:
a jet plan hands over its tape rows and a slot-to-row map, a symbolic
phase cached per sparsity pattern works out which products each
contraction forms, and a numeric phase forms them slice by slice on a
slot-major table (see "structural-sparse contraction" below).  A batch
keeps the Christoffel symbols as that table's compact rows, and the
covariant Hessian contracts them directly; a dense Christoffel array is
built only on request (CurvatureBatch.gamma).  The full Riemann tensor is
dense algebra, built only for single-point queries (curvature()).

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
batch and each set of sample points instead of recomputing them.
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
# a curvature batch is computed in slices of sample points whose tape rows
# and slot-major tables fit this budget, and each slice's products in
# narrower slices that fit it too, so its working memory does not grow with
# the sample count
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
    tape: tuple[Expr, ...]   # the distinct taped expressions, in order of first slot
    fn: Optional[Callable]   # the compiled tape, None when every slot is constant
    scatter: tuple           # per output array: (tape rows, columns, constant columns, values)


def _scatter(program: _Program, order: int, rows: Optional[np.ndarray], flat: np.ndarray,
             columns: Optional[np.ndarray] = None) -> None:
    """Write one output's slots, given the tape rows, into flat[:, columns[slot]]
    (columns: the identity by default); zero slots are left as they are."""
    tape_rows, cols, ccols, values = program.scatter[order]
    if columns is not None:
        cols, ccols = columns[cols], columns[ccols]
    if len(cols):
        flat[:, cols] = rows[tape_rows].T
    flat[:, ccols] = values


class _JetPlan:
    """Values and first and second coordinate derivatives of a set of expressions.

    Each expression fills one or more places of an output array of shape
    `shape`, given as flat indices: a metric's upper-triangle entry fills
    (i, j) and (j, i), a scalar field fills the single place of shape ().
    A slot (one value or derivative of one expression) whose expression is
    a finite constant is written directly, and a constant expression is
    never differentiated; every other slot goes on one shared tape
    (expressions.compile_expr), which holds each distinct expression once:
    slots with the same expression (the rescaled flat metric repeats
    phi^-2 and its derivatives on every diagonal entry) read one row.  The
    value tape is built on first use and the derivative tape on the first
    call that needs derivatives, so value-only callers never
    differentiate.  Derivatives come from the process-wide memo of
    expressions.differentiate, which holds expressions only; both tapes,
    and every array computed from them, belong to this plan alone.
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
        derivatives, then the second derivatives (k, l >= k).  A tape row
        sits where its expression's first slot does, so the tape raises the
        first DomainError in slot order."""
        n = len(self.coords)
        tape: dict = {}                                # each distinct expression -> its row
        taped = [([], []) for _ in range(order + 1)]   # per output: tape rows, columns
        fixed = [([], []) for _ in range(order + 1)]   # per output: columns, constant values

        def put(out: int, e: Expr, columns: list[int]):
            if isinstance(e, Const) and math.isfinite(e.value):
                if e.value != 0.0 or math.copysign(1.0, e.value) < 0:  # zeros are preset
                    fixed[out][0].extend(columns)
                    fixed[out][1].extend([e.value] * len(columns))
                return
            taped[out][0].extend([tape.setdefault(e, len(tape))] * len(columns))
            taped[out][1].extend(columns)

        for e, places in self.entries:
            put(0, e, list(places))
            if order == 0 or isinstance(e, Const):
                continue
            firsts = [differentiate(e, c) for c in self.coords]
            for k, d in enumerate(firsts):
                put(1, d, [p * n + k for p in places])
            for k, d in enumerate(firsts):
                if isinstance(d, Const):
                    continue
                for l in range(k, n):
                    columns = [p * n * n + k * n + l for p in places]
                    if l != k:
                        columns += [p * n * n + l * n + k for p in places]
                    put(2, differentiate(d, self.coords[l]), columns)
        scatter = tuple(
            (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
             np.array(ccols, dtype=np.intp), np.array(values, dtype=float))
            for (rows, cols), (ccols, values) in zip(taped, fixed))
        exprs = tuple(tape)
        return _Program(exprs, compile_expr(exprs, self.coords) if exprs else None, scatter)

    def _run(self, program: _Program, points: np.ndarray) -> list[np.ndarray]:
        count, n = points.shape[0], len(self.coords)
        rows = None if program.fn is None else program.fn(points)
        outs = []
        for order in range(len(program.scatter)):
            out = np.zeros((count,) + self.shape + (n,) * order)
            _scatter(program, order, rows, out.reshape(count, -1))
            outs.append(out)
        return outs

    def values(self, points: np.ndarray) -> np.ndarray:
        """The expressions' values, shape (count,) + shape."""
        return self._run(self.value_program, points)[0]

    def jets(self, points: np.ndarray):
        """(value, gradient, hessian); gradient[..., k] = d_k, hessian[..., k, l] = d_k d_l."""
        return tuple(self._run(self.jet_program, points))

    def tape_rows(self, points: np.ndarray) -> Optional[np.ndarray]:
        """The jet tape's rows at the points, shape (len(tape), count); None
        when every slot is constant.  Raises the tape's first DomainError."""
        fn = self.jet_program.fn
        return None if fn is None else fn(points)

    @cached_property
    def slot_rows(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Where each jet slot's value lives: per output (value, gradient,
        hessian), the flat slot's row of [tape rows; constants], -1 for a zero
        slot (a constant zero of either sign); and the constants.  Slots that
        the plan writes from one tape row (paired entries, paired derivatives,
        equal expressions) read the same row."""
        program = self.jet_program
        maps, constants = [], []
        first = len(program.tape)
        for order, (tape_rows, cols, ccols, values) in enumerate(program.scatter):
            rows = np.full(math.prod(self.shape) * len(self.coords) ** order, -1, dtype=np.intp)
            rows[cols] = tape_rows
            nonzero = values != 0.0
            rows[ccols[nonzero]] = first + np.arange(int(nonzero.sum()))
            first += int(nonzero.sum())
            constants.append(values[nonzero])
            maps.append(rows)
        return tuple(maps), np.concatenate(constants)


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
    """points as a (count, dim) float array inside the chart's open box.
    Inside an evaluation scope, points the scope keeps (scoped_points) are
    checked against a chart once and then passed through."""
    samples = _SAMPLES.get()
    passed = None if samples is None else samples.inside.get(id(points))
    if passed is not None and chart in passed:
        return points
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
    if passed is not None and array is points:
        passed.add(chart)
    return array


def _is_zero(e: Expr) -> bool:
    """A constant zero of either sign: a slot that is structurally zero."""
    return isinstance(e, Const) and e.value == 0.0


def _partition(n: int, links) -> tuple[tuple[int, ...], ...]:
    """The connected components of range(n) under the (i, j) links, each
    sorted, in the order of their smallest members."""
    root = list(range(n))

    def find(i: int) -> int:
        while root[i] != i:
            i = root[i]
        return i

    for i, j in links:
        root[find(int(j))] = find(int(i))
    parts: dict[int, list[int]] = {}
    for i in range(n):
        parts.setdefault(find(i), []).append(i)
    return tuple(tuple(part) for part in parts.values())


@lru_cache(maxsize=128)
def _components(metric: MetricSpec) -> tuple[tuple[int, ...], ...]:
    """The diagonal blocks of g's pattern: coordinates no non-zero entry couples."""
    return _partition(metric.dim, ((i, j) for i, row in enumerate(metric.entries)
                                   for j, e in enumerate(row) if not _is_zero(e)))


def _check_positive_definite(g: np.ndarray, points: np.ndarray,
                             components: tuple[tuple[int, ...], ...],
                             largest: np.ndarray) -> None:
    """Raise SingularMetricError unless every point's smallest eigenvalue
    exceeds tau = 1e-12 max(1, max|g|), given each point's max|g| as `largest`.

    g is block diagonal over `components`, so a 1x1 component is its own
    eigenvalue and a larger one passes when a Cholesky factorisation of
    block - tau I exists.  Only when some component fails are the
    eigenvalues of the whole g computed, to name the first bad point and
    its smallest eigenvalue.
    """
    tau = _PD_EIGENVALUE_TOL * np.maximum(1.0, largest)

    def holds(c: tuple[int, ...]) -> bool:
        if len(c) == 1:
            return bool((g[:, c[0], c[0]] > tau).all())
        try:
            np.linalg.cholesky(g[:, c][:, :, c] - tau[:, None, None] * np.eye(len(c)))
        except np.linalg.LinAlgError:
            return False
        return True

    if all(holds(c) for c in components):
        return
    eigenvalues = np.linalg.eigvalsh(g)
    bad = eigenvalues[:, 0] <= tau
    if bad.any():
        where = int(np.argmax(bad))
        raise SingularMetricError(points[where], float(eigenvalues[where, 0]))


def metric_values(metric: MetricSpec, points, check: bool = True) -> np.ndarray:
    pts = _as_points(metric.chart, points)
    g = _metric_plan(metric).values(pts)
    if check:
        _check_positive_definite(g, pts, _components(metric),
                                 np.abs(g).reshape(len(g), -1).max(axis=1))
    return g


# --- curvature --------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureBatch:
    """Curvature at a batch of points, point-major but for the Christoffel rows.

    christoffel[r, p] is Gamma^k_ij at point p for the flat slot
    christoffel_slots[r] = (k n + i) n + j, i <= j; Gamma^k_ji equals it,
    and every slot with no row is an exact zero.
    """
    points: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    christoffel: np.ndarray
    christoffel_slots: np.ndarray
    ricci: np.ndarray
    scalar: np.ndarray

    @property
    def gamma(self) -> np.ndarray:
        """Dense gamma[p, k, i, j] = Gamma^k_ij, built anew on each access."""
        count, n = self.g.shape[:2]
        dense = np.zeros((count, n ** 3))
        k, i, j = np.unravel_index(self.christoffel_slots, (n,) * 3)
        dense[:, self.christoffel_slots] = self.christoffel.T
        dense[:, (k * n + j) * n + i] = self.christoffel.T
        return dense.reshape(count, n, n, n)

    def normalized_scalar(self) -> np.ndarray:
        n = self.g.shape[1]
        if n < 2:
            return np.zeros_like(self.scalar)
        return self.scalar / (n * (n - 1))


class _Samples(NamedTuple):
    """The sample points an evaluation scope keeps."""
    points: dict   # sample key -> read-only points
    inside: dict   # id of kept points -> the charts whose boxes they passed


# (metric, points.shape, points bytes) -> CurvatureBatch, while a scope is open
_SCOPE: ContextVar[dict | None] = ContextVar("confprod_evaluation_scope", default=None)
_SAMPLES: ContextVar[_Samples | None] = ContextVar("confprod_scope_samples", default=None)


@contextmanager
def evaluation_scope():
    """Share curvature batches and sample points between the checks of one run.

    Inside the scope, curvature_batch returns the batch it already computed
    for the same metric at the same points, and the field helpers take the
    inverse metric from it.  The key is the metric itself, so the direct
    route (rescaled metric) and the formula route (base metric) never read
    each other's entries.  Sample points are kept apart from the batches
    (scoped_points).  A scope opened inside another one shares the outer
    one's batches; the outermost scope drops them when it closes.  Kept
    arrays are read-only.  Yields the mapping from keys to batches.
    """
    kept = _SCOPE.get()
    if kept is not None:
        yield kept
        return
    token = _SCOPE.set({})
    samples = _SAMPLES.set(_Samples({}, {}))
    try:
        yield _SCOPE.get()
    finally:
        _SAMPLES.reset(samples)
        _SCOPE.reset(token)


def scoped_points(key, compute: Callable[[], np.ndarray]) -> np.ndarray:
    """compute() outside an evaluation scope; inside one, the read-only
    array it gave the first time for this hashable key."""
    kept = _SAMPLES.get()
    if kept is None:
        return compute()
    points = kept.points.get(key)
    if points is None:
        points = kept.points[key] = compute()
        points.flags.writeable = False
        kept.inside[id(points)] = set()
    return points


def _scope_key(metric: MetricSpec, pts: np.ndarray) -> tuple:
    return (metric, pts.shape, pts.tobytes())


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
    links = []
    for i, row in enumerate(metric.entries):
        for j, e in enumerate(row):
            links += [(i, index[c]) for c in free_coords(e)]
            if not _is_zero(e):
                links.append((i, j))
    parts = _partition(n, links)
    if len(parts) == 1:
        return ((tuple(range(n)), metric),)
    chart = metric.chart
    return tuple(
        (idx, MetricSpec(
            Chart(tuple(coords[i] for i in idx), tuple(chart.domain[i] for i in idx),
                  chart.singular_margin),
            tuple(tuple(metric.entries[i][j] for j in idx) for i in idx)))
        for idx in parts)


# --- structural-sparse contraction -----------------------------------------
#
# Batch curvature runs in two phases, as sparse factorisation does.  The
# symbolic phase (_contraction, cached per pattern) sees only which slots
# of g, dg and d2g can be non-zero.  It lays out a slot-major table, one
# row per canonical non-zero slot of each tensor (i <= j for the symmetric
# pairs), and derives each contraction's products as index arrays.  The
# numeric phase (_contract) fills the table for one slice of points and
# runs each step as a gather, an in-place product and one np.add.reduceat.

class _Step(NamedTuple):
    """table[out][r] = sum of coef[p] table[a[p]] table[b[p]] over r's products p."""
    a: np.ndarray
    b: np.ndarray
    coef: np.ndarray       # (products, 1)
    starts: np.ndarray     # each output row's first product
    out: slice             # the table rows written


class _Contraction(NamedTuple):
    """The symbolic program of one pattern: index arrays only, never values."""
    dim: int
    rows: int                                  # table rows
    jets: tuple[np.ndarray, ...]               # flat g, dg, d2g slots of rows 0, 1, ...
    reciprocals: tuple[np.ndarray, np.ndarray]  # g rows of the 1x1 components, their ginv rows
    blocks: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]
    # ^ per larger component: size k, g rows of the k x k block (-1 for a zero
    #   slot), its upper-triangle flat places, their ginv rows
    steps: tuple[_Step, ...]
    fields: tuple[tuple[np.ndarray, np.ndarray], ...]  # ginv, ricci: (flat slots, rows)
    christoffel: tuple[np.ndarray, np.ndarray]  # Gamma's canonical flat slots, their rows
    hessian: tuple[np.ndarray, ...]
    # ^ Gamma^k_ij d_k phi by output (i, j), i <= j: per product its Gamma
    #   (an index into `christoffel`) and its k, each output's first product
    #   and its flat slot
    most: int                                  # products of the largest step


class _Layout:
    """Hands out table rows, one per canonical non-zero slot of each tensor."""

    def __init__(self):
        self.rows = 0

    def place(self, pattern: np.ndarray, *pairs: tuple[int, int]):
        """(slot map, canonical flat slots): the map gives every non-zero slot
        its row, -1 elsewhere; slots equal under swapping an axis pair share
        the row of the one whose indices are in order."""
        index = np.indices(pattern.shape)
        canonical = pattern.copy()
        for p, q in pairs:
            canonical &= index[p] <= index[q]
        slots = np.flatnonzero(canonical)
        rows = np.full(pattern.shape, -1, dtype=np.intp)
        rows.flat[slots] = np.arange(self.rows, self.rows + len(slots))
        self.rows += len(slots)
        for p, q in pairs:
            rows = np.maximum(rows, np.swapaxes(rows, p, q))
        return rows, slots


def _pairs(spec: str, a: np.ndarray, b: np.ndarray):
    """(rows of a, rows of b, flat output slots) of every product of the
    einsum-style spec whose two slots are non-zero in the slot maps a, b."""
    inputs, out = spec.split("->")
    sa, sb = inputs.split(",")
    n = a.shape[0]
    found = np.nonzero(a >= 0)
    letters: dict[str, np.ndarray] = {}
    keep = np.ones(len(found[0]), dtype=bool)
    for letter, axis in zip(sa, found):
        if letter in letters:
            keep &= letters[letter] == axis
        else:
            letters[letter] = axis
    extra = [c for c in dict.fromkeys(sb + out) if c not in letters]
    size = n ** len(extra)
    grid = np.indices((n,) * len(extra)).reshape(len(extra), size)
    index = {c: np.repeat(v[keep], size) for c, v in letters.items()}
    index.update((c, np.tile(grid[k], int(keep.sum()))) for k, c in enumerate(extra))
    ra = a[tuple(index[c] for c in sa)]
    rb = b[tuple(index[c] for c in sb)]
    slot = np.ravel_multi_index(tuple(index[c] for c in out), (n,) * len(out))
    ok = rb >= 0
    return ra[ok], rb[ok], slot[ok]


def _step(layout: _Layout, shape: tuple[int, ...], terms, *pairs):
    """Place the output of a sum of products; (its slot map, its _Step or None).

    terms are (coefficient, spec, slot map a, slot map b).  With `pairs`,
    the output is symmetric and only its canonical slots are computed.
    Products that read the same two rows into the same output are merged,
    their coefficients summed, and those that cancel are dropped.
    """
    found = [(coef, *_pairs(spec, a, b)) for coef, spec, a, b in terms]
    ra, rb, slot = (np.concatenate([f[k] for f in found]) for k in (1, 2, 3))
    coef = np.concatenate([np.full(len(f[1]), f[0]) for f in found])
    index = np.unravel_index(slot, shape)
    keep = np.ones(len(slot), dtype=bool)
    for p, q in pairs:
        keep &= index[p] <= index[q]
    width = layout.rows
    key = (slot[keep] * width + np.minimum(ra, rb)[keep]) * width + np.maximum(ra, rb)[keep]
    key, inverse = np.unique(key, return_inverse=True)
    coef = np.bincount(inverse, weights=coef[keep], minlength=len(key))
    key, coef = key[coef != 0.0], coef[coef != 0.0]
    slot, lo, hi = key // width // width, key // width % width, key % width
    pattern = np.zeros(shape, dtype=bool)
    pattern.flat[slot] = True
    first = layout.rows
    rows, _ = layout.place(pattern, *pairs)
    if not len(key):
        return rows, None
    starts = np.flatnonzero(np.r_[True, slot[1:] != slot[:-1]])
    return rows, _Step(lo, hi, coef[:, None], starts, slice(first, layout.rows))


@lru_cache(maxsize=256)
def _contraction(n: int, patterns: bytes) -> _Contraction:
    """The symbolic program for the packed boolean patterns of g, dg, d2g.

    Index conventions as in the module docstring; dg[i, j, k] = d_k g_ij,
    d2g[i, j, k, l] = d_k d_l g_ij and dginv[a, l, m] = d_m g^al.

        m[a, t, m]     = g^as dg[s, t, m]
        dginv[a, l, m] = -m[a, t, m] g^tl
        Gamma^k_ij     = g^kl (dg[j, l, i] + dg[i, l, j] - dg[i, j, l]) / 2
        R_bd           = d_a Gamma^a_db - d_d Gamma^a_ab
                         + Gamma^a_ae Gamma^e_db - Gamma^a_de Gamma^e_ab

    The two derivative terms are expanded through dginv, with
    Gamma^a_ab = g^al dg[a, l, b] / 2 since g^al is symmetric, so no
    derivative of Gamma is formed.
    """
    bits = np.unpackbits(np.frombuffer(patterns, dtype=np.uint8),
                         count=n**2 + n**3 + n**4).astype(bool)
    pg, pd, pdd = bits[:n**2].reshape(n, n), bits[n**2:-n**4].reshape((n,) * 3), \
        bits[-n**4:].reshape((n,) * 4)
    layout = _Layout()
    g, g_slots = layout.place(pg, (0, 1))
    dg, dg_slots = layout.place(pd, (0, 1))
    d2g, d2g_slots = layout.place(pdd, (0, 1), (2, 3))
    components = _partition(n, zip(*np.nonzero(pg)))
    blocked = np.zeros((n, n), dtype=bool)
    for c in components:
        blocked[np.ix_(c, c)] = True
    ginv, _ = layout.place(blocked, (0, 1))
    ones = np.array([c[0] for c in components if len(c) == 1], dtype=np.intp)
    blocks = []
    for c in components:
        if len(c) > 1:
            k = len(c)
            upper = np.flatnonzero(np.triu(np.ones((k, k), dtype=bool)))
            blocks.append((k, g[np.ix_(c, c)].ravel(), upper, ginv[np.ix_(c, c)].ravel()[upper]))
    cube, square = (n, n, n), (n, n)
    m, m_step = _step(layout, cube, [(1.0, "stm,as->atm", dg, ginv)])
    dginv, dginv_step = _step(layout, cube, [(-1.0, "atm,tl->alm", m, ginv)], (0, 1))
    gamma, gamma_step = _step(layout, cube, [
        (0.5, "jli,kl->kij", dg, ginv), (0.5, "ilj,kl->kij", dg, ginv),
        (-0.5, "ijl,kl->kij", dg, ginv)], (1, 2))
    ricci, ricci_step = _step(layout, square, [
        # d_a Gamma^a_db
        (0.5, "bld,ala->bd", dg, dginv), (0.5, "dlb,ala->bd", dg, dginv),
        (-0.5, "dbl,ala->bd", dg, dginv),
        (0.5, "blad,al->bd", d2g, ginv), (0.5, "dlab,al->bd", d2g, ginv),
        (-0.5, "dbal,al->bd", d2g, ginv),
        # -d_d Gamma^a_ab
        (-0.5, "alb,ald->bd", dg, dginv), (-0.5, "aldb,al->bd", d2g, ginv),
        # Gamma^a_ae Gamma^e_db - Gamma^a_de Gamma^e_ab
        (1.0, "edb,aae->bd", gamma, gamma), (-1.0, "ade,eab->bd", gamma, gamma)], (0, 1))
    steps = tuple(s for s in (m_step, dginv_step, gamma_step, ricci_step) if s is not None)
    k, i, j = np.indices(cube)
    gamma_slots = np.flatnonzero((gamma >= 0) & (i <= j))
    k, i, j = k.flat[gamma_slots], i.flat[gamma_slots], j.flat[gamma_slots]
    by_output = np.lexsort((k, i * n + j))
    out = (i * n + j)[by_output]
    starts = np.flatnonzero(np.diff(out, prepend=-1))
    return _Contraction(
        dim=n, rows=layout.rows, jets=(g_slots, dg_slots, d2g_slots),
        reciprocals=(g[ones, ones], ginv[ones, ones]), blocks=tuple(blocks), steps=steps,
        fields=tuple((np.flatnonzero(t >= 0), t[t >= 0]) for t in (ginv, ricci)),
        christoffel=(gamma_slots, gamma.flat[gamma_slots]),
        hessian=(by_output, k[by_output], starts, out[starts]),
        most=max((len(s.a) for s in steps), default=0))


def _contract(program: _Contraction, table: np.ndarray) -> None:
    """The numeric phase for one part and one slice: given the jet rows,
    fill the table's ginv rows component by component, then run the steps
    over column slices whose product buffers fit _CHUNK_BYTES."""
    g_rows, inv_rows = program.reciprocals
    if len(g_rows):
        table[inv_rows] = 1.0 / table[g_rows]
    count = table.shape[1]
    for k, g_rows, upper, inv_rows in program.blocks:
        block = np.zeros((k * k, count))
        block[g_rows >= 0] = table[g_rows[g_rows >= 0]]
        inv = np.linalg.inv(block.T.reshape(count, k, k)).reshape(count, k * k)
        table[inv_rows] = inv[:, upper].T
    step = max(1, _CHUNK_BYTES // (16 * max(1, program.most)))   # a product and a gather
    for start in range(0, count, step):
        columns = table[:, start:start + step]
        for s in program.steps:
            product = columns[s.a]
            product *= columns[s.b]
            product *= s.coef
            np.add.reduceat(product, s.starts, axis=0, out=columns[s.out])


class _BatchPart(NamedTuple):
    """One product factor's jet plan wired to its symbolic program and to
    its place in the whole metric."""
    idx: list[int]                          # the part's coordinates in the whole chart
    plan: _JetPlan
    program: _Contraction
    taped: tuple[np.ndarray, np.ndarray]    # table rows filled from tape rows, those tape rows
    fixed: tuple[np.ndarray, np.ndarray]    # table rows holding constants, the values (k, 1)
    columns: tuple[np.ndarray, ...]         # whole flat slots of g's slots, ginv's and ricci's
    width: int                              # tape and table rows per point


def _lift(idx: tuple[int, ...], n: int, slots: np.ndarray, axes: int) -> np.ndarray:
    """The whole metric's flat slots of a part's flat slots over `axes` axes."""
    local = np.unravel_index(slots, (len(idx),) * axes)
    return np.ravel_multi_index(tuple(np.array(idx)[i] for i in local), (n,) * axes)


@lru_cache(maxsize=128)
def _batch_part(metric: MetricSpec, idx: tuple[int, ...], n: int) -> _BatchPart:
    plan = _metric_plan(metric)
    maps, constants = plan.slot_rows
    patterns = np.packbits(np.concatenate([m >= 0 for m in maps])).tobytes()
    program = _contraction(metric.dim, patterns)
    source = np.concatenate([m[slots] for m, slots in zip(maps, program.jets)])
    tape = len(plan.jet_program.tape)
    on_tape = source < tape
    rows = np.arange(len(source))
    columns = [_lift(idx, n, np.arange(metric.dim ** 2), 2)]
    columns += [_lift(idx, n, slots, 2) for slots, _ in program.fields]
    return _BatchPart(
        list(idx), plan, program, (rows[on_tape], source[on_tape]),
        (rows[~on_tape], constants[source[~on_tape] - tape][:, None]), tuple(columns),
        width=tape + program.rows)


class _Connection(NamedTuple):
    """A metric's Christoffel rows, the parts' rows one after the other, and
    the products of Gamma^k_ij d_k phi on them, grouped by output (i, j)."""
    firsts: tuple[int, ...]   # each part's first row
    slots: np.ndarray         # each row's whole flat slot (k, i, j), i <= j
    a: np.ndarray             # per product: its row
    k: np.ndarray             # and its k
    starts: np.ndarray        # each output's first product
    out: np.ndarray           # each output's whole flat slot (i, j), i <= j
    mirror: np.ndarray        # and its slot (j, i)


@lru_cache(maxsize=128)
def _batch_plan(metric: MetricSpec) -> tuple[tuple[_BatchPart, ...], _Connection]:
    """The metric's parts (_batch_part) and its Christoffel rows' layout."""
    n = metric.dim
    parts = tuple(_batch_part(part, idx, n) for idx, part in _factors(metric))
    firsts, pieces = [], []
    rows = products = 0
    for part in parts:
        m = part.program.dim
        slots, _ = part.program.christoffel
        by_output, k, starts, out = part.program.hessian
        firsts.append(rows)
        pieces.append((_lift(part.idx, n, slots, 3), by_output + rows, np.array(part.idx)[k],
                       starts + products, _lift(part.idx, n, out, 2),
                       _lift(part.idx, n, out % m * m + out // m, 2)))
        rows += len(slots)
        products += len(by_output)
    arrays = [np.concatenate(column) for column in zip(*pieces)]
    for array in arrays:
        array.flags.writeable = False
    return parts, _Connection(tuple(firsts), *arrays)


def _compute_batch(metric: MetricSpec, pts: np.ndarray) -> CurvatureBatch:
    """The batch, computed slice by slice and, within a slice, product factor
    by product factor (_factors); cross-factor slots of ginv, Gamma and ricci
    are exact zeros.  A slice's tape rows and tables of all factors fit
    _CHUNK_BYTES, as do the product buffers of each narrower slice that
    _contract runs; every point's values depend on that point alone."""
    count, n = pts.shape[0], metric.dim
    g, ginv, ricci = (np.zeros((count, n, n)) for _ in range(3))
    g_flat, *fields = (a.reshape(count, -1) for a in (g, ginv, ricci))
    parts, connection = _batch_plan(metric)
    christoffel = np.empty((len(connection.slots), count))
    step = max(1, _CHUNK_BYTES // (8 * sum(part.width for part in parts)))
    for start in range(0, count, step):
        rows = slice(start, start + step)
        sliced = pts[rows]
        tables = []
        largest = np.zeros(len(sliced))    # max|g| per point, from the tables' g rows
        for part in parts:
            tape = part.plan.tape_rows(sliced[:, part.idx])
            _scatter(part.plan.jet_program, 0, tape, g_flat[rows], part.columns[0])
            table = np.empty((part.program.rows, len(sliced)))
            if tape is not None:
                table[part.taped[0]] = tape[part.taped[1]]
            table[part.fixed[0]] = part.fixed[1]
            g_rows = table[:len(part.program.jets[0])]
            np.maximum(largest, np.abs(g_rows).max(axis=0, initial=0.0), out=largest)
            tables.append(table)
        _check_positive_definite(g[rows], sliced, _components(metric), largest)
        for part, table, first in zip(parts, tables, connection.firsts):
            _contract(part.program, table)
            for out, columns, (_, table_rows) in zip(fields, part.columns[1:],
                                                     part.program.fields):
                out[rows, columns] = table[table_rows].T
            _, table_rows = part.program.christoffel
            christoffel[first:first + len(table_rows), rows] = table[table_rows]
    scalar = np.einsum("nbd,nbd->n", ginv, ricci)
    return CurvatureBatch(pts, g, ginv, christoffel, connection.slots, ricci, scalar)


def curvature_batch(metric: MetricSpec, points) -> CurvatureBatch:
    pts = _as_points(metric.chart, points)
    kept = _SCOPE.get()
    if kept is None:
        return _compute_batch(metric, pts)
    key = _scope_key(metric, pts)
    batch = kept.get(key)
    if batch is None:
        batch = kept[key] = _compute_batch(metric, pts)
        for array in (batch.g, batch.ginv, batch.christoffel, batch.ricci, batch.scalar):
            array.flags.writeable = False
    return batch


def _riemann(metric: MetricSpec, points, batch: Optional[CurvatureBatch] = None) -> np.ndarray:
    """Full (1,3) tensor riemann[n, a, b, c, d] = R^a_bcd, for single-point
    queries; ginv and gamma come from the curvature batch at the points."""
    pts = _as_points(metric.chart, points)
    if batch is None:
        batch = curvature_batch(metric, pts)
    ginv, gamma = batch.ginv, batch.gamma
    _, dg, d2g = _metric_plan(metric).jets(pts)
    w = dg + dg.swapaxes(2, 3) - dg.transpose(0, 3, 1, 2)
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
        riemann=_riemann(metric, batch.points, batch)[0],
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
    """Covariant hessian (nabla d phi)_ij = d_i d_j phi - Gamma^k_ij d_k phi.

    The sum is formed from the batch's Christoffel rows, for i <= j only,
    over column slices whose product and gather buffers fit _CHUNK_BYTES.
    """
    pts = _as_points(metric.chart, points)
    _, grad, hess = _field_plan(phi, metric.chart.coords).jets(pts)
    christoffel = curvature_batch(metric, pts).christoffel
    _, c = _batch_plan(metric)
    flat = hess.reshape(len(pts), -1)
    if len(c.a):
        step = max(1, _CHUNK_BYTES // (16 * len(c.a)))
        for start in range(0, len(pts), step):
            columns = slice(start, start + step)
            product = christoffel[c.a, columns] * grad[columns, c.k].T
            flat[columns, c.out] -= np.add.reduceat(product, c.starts, axis=0).T
        flat[:, c.mirror] = flat[:, c.out]
    return hess


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
