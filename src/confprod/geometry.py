"""Charts, coordinate metrics and exact curvature.

Metric derivatives are exact, propagated forward on an expressions.Tape.
No finite differences anywhere in this path.  Batches contract Ricci
straight from the metric jets, only over the slots that can be non-zero,
each distinct value once: a metric's jet plan hands over its tape rows and
a slot-to-row map, a symbolic phase cached per class structure (which slots
are zero, which hold the same value) works out which products each
contraction forms, and a numeric phase forms them slice by slice on one
slot-major table (see "structural-sparse contraction" below).  A product
metric g1 + g2 needs no split: its cross-factor slots are structural zeros,
so no product reads them and g is inverted one diagonal block at a time.
A batch keeps g, g^-1, the Christoffel symbols and Ricci as that table's
compact rows, one per canonical slot that can be non-zero, each tensor one
Rows value, as are a field's Hessian and a metric's values and d2g.  The
positive-definite test, the scalar curvature, the covariant Hessian and a
field's Laplacian and |d phi|^2 read rows, and the checks sum their tensor
residuals on rows (combine takes and returns Rows only).  Rows.dense is
the one place a dense array is built from rows: for curvature(), whose
Riemann tensor is dense algebra for single-point queries, and on the error
path, where a slice failing the positive-definite test names its point.

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
batch and each set of sample points instead of recomputing them; the jet
programs of one chart record on one tape, and a scalar field's jets at
kept points are evaluated once.  Kept arrays are read-only, and every
array a helper hands out is fresh or read-only.
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
from .expressions import ZERO, Const, Expr, Tape, compile_expr, free_coords

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
    keys: tuple              # each tape row's key (expressions.Tape), in order of first slot
    fn: Callable             # the compiled tape
    scatter: tuple           # per order 0, 1, 2: (tape rows, read-only columns)


class _JetPlan:
    """Values and first and second coordinate derivatives of a set of expressions.

    Each expression fills one or more places of an output array of shape
    `shape`, given as flat indices: a metric's upper-triangle entry fills
    (i, j) and (j, i), a scalar field fills the single place of shape ().
    Every slot (one value or derivative of one expression) but a structural
    +0.0, which the output arrays are preset to, reads one row of a tape
    (expressions.Tape), which holds each distinct register once: slots
    with the same value (the rescaled flat metric repeats phi^-2 and its
    derivatives on every diagonal entry) or the same constant read one row.
    Derivatives are exact, propagated forward on the tape with the values,
    and a derivative that folds to a zero constant is a structural +0.0.
    A plan has one program, its jets, built on the first call; values(),
    gradients() and jets() read orders 0..k from its rows, d_k d_l (k <= l)
    as Rows.  Inside an evaluation scope the program records its steps on
    the scope's one tape for its coordinates, so the plans of one chart
    derive each shared node's registers once; outside one, on a tape of its
    own.  Either way compile_expr gives the same program.  Each plan
    computes its own values, and its outputs are formed fresh on every
    call; inside a scope, a scalar field's tape rows at points the scope
    keeps are kept, read-only, for its later calls there (see _run).
    """

    def __init__(self, shape: tuple[int, ...], entries, coords: tuple[str, ...]):
        self.shape = shape
        self.entries = entries  # ((expr, flat places), ...)
        self.coords = coords

    @cached_property
    def jet_program(self) -> _Program:
        """Slots are laid out expression by expression, each distinct one
        at its first entry, with all its places: the value, the n first
        derivatives, then the second derivatives (k, l >= k).  A tape row
        sits where its first slot does, so the first non-finite row is the
        first bad slot's, and compile_expr names it by the node the tape
        records for it."""
        n = len(self.coords)
        samples = _SAMPLES.get()
        tapes = {} if samples is None else samples.tapes
        if self.coords not in tapes:
            tapes[self.coords] = Tape(self.coords)
        tape = tapes[self.coords]
        rows: dict = {}                                 # register -> tape row
        scatter = [([], []) for _ in range(3)]          # per order: tape rows, columns

        def put(order: int, reg: int, columns: list[int]):
            row = rows.setdefault(reg, len(rows))
            scatter[order][0].extend([row] * len(columns))
            scatter[order][1].extend(columns)

        groups: dict = {}                               # each distinct expression's places
        for e, places in self.entries:
            groups.setdefault(e, []).extend(places)
        for e, places in groups.items():
            if e is not ZERO:
                put(0, tape.value(e), places)
            if isinstance(e, Const):
                continue
            _, d1, d2 = tape.jets(e)
            for k in sorted(d1):
                put(1, d1[k], [p * n + k for p in places])
            for kl in sorted(d2):
                put(2, d2[kl], [p * n * n + kl for p in places])

        fn = compile_expr(tape, outputs=list(rows))
        scatter = tuple((np.array(tape_rows, dtype=np.intp), np.array(cols, dtype=np.intp))
                        for tape_rows, cols in scatter)
        for _, cols in scatter:
            cols.flags.writeable = False    # the Hessian's Rows hand these out
        return _Program(fn.keys, fn, scatter)

    def _run(self, order: int, points: np.ndarray) -> list:
        """The outputs of orders 0..order, fresh from the jet program's tape
        rows, order 2 as Rows.  Inside a scope, a scalar field's rows at
        points the scope keeps are kept read-only, and every later call
        there reads them."""
        samples = _SAMPLES.get()
        keep = samples is not None and not self.shape and id(points) in samples.keys
        kept = samples.rows if keep else {}
        rows = kept.get((self, id(points)))
        if rows is None:
            rows = kept[self, id(points)] = self.jet_program.fn(points)
            rows.flags.writeable = False
        count, n = points.shape[0], len(self.coords)
        outs = []
        for k, (tape_rows, cols) in enumerate(self.jet_program.scatter[:order + 1]):
            if k == 2:
                outs.append(Rows(rows[tape_rows], cols))
                continue
            out = np.zeros((count,) + self.shape + (n,) * k)
            out.reshape(count, -1)[:, cols] = rows[tape_rows].T    # +0.0 slots stay zero
            outs.append(out)
        return outs

    def values(self, points: np.ndarray) -> np.ndarray:
        """The expressions' values, shape (count,) + shape."""
        return self._run(0, points)[0]

    def gradients(self, points: np.ndarray) -> np.ndarray:
        """gradient[..., k] = d_k, shape (count,) + shape + (n,)."""
        return self._run(1, points)[1]

    def jets(self, points: np.ndarray):
        """(value, gradient, hessian); gradient[..., k] = d_k, hessian Rows of d_k d_l."""
        return tuple(self._run(2, points))


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


def metric_values(metric: MetricSpec, points) -> Rows:
    """g at the points as Rows on every upper-triangle slot, unchecked:
    curvature_batch runs the positive-definite test.  The upper-triangle
    entries are compiled as values alone, so no derivative is formed."""
    pts, n = _as_points(metric.chart, points), metric.dim
    i, j = np.triu_indices(n)
    slots = i * n + j
    slots.flags.writeable = False
    return Rows(compile_expr([metric.entries[a][b] for a, b in zip(i, j)],
                             metric.chart.coords)(pts), slots)


# --- curvature --------------------------------------------------------------

class Rows(NamedTuple):
    """A tensor symmetric in its last two indices, as compact rows: rows[r, p]
    is its value at point p on the flat slot slots[r] (last two indices in
    order) and on that slot's mirror, with those two swapped; every slot
    with no row is an exact zero.  Every symmetric batch tensor takes this form."""
    rows: np.ndarray
    slots: np.ndarray

    def dense(self, n: int, axes: int = 2) -> np.ndarray:
        """The dense (count,) + (n,) * axes array, fresh: the one place a
        dense array is built from rows."""
        shape = (n,) * axes
        index = np.unravel_index(self.slots, shape)
        mirror = np.ravel_multi_index(index[:-2] + (index[-1], index[-2]), shape)
        dense = np.zeros((self.rows.shape[1], n ** axes))
        dense[:, self.slots] = self.rows.T
        dense[:, mirror] = self.rows.T
        return dense.reshape((self.rows.shape[1],) + shape)

    def scaled(self, c) -> Rows:
        """c times the tensor, c a number or one value per point."""
        return Rows(c * self.rows, self.slots)


def combine(n: int, *terms, keep=None) -> Rows:
    """The sum of symmetric n x n tensors, each a Rows, as Rows on the union
    of the terms' slots (i, j), i <= j, only those where keep(i, j) holds
    when it is given.  The terms are added in order to zeros, so each entry
    has the bits of the dense sum (up to the sign of a zero); an entry that
    no term holds is an exact zero and has no row."""
    wanted = None if keep is None else keep(*np.divmod(np.arange(n * n), n))
    held = np.zeros(n * n, dtype=bool)
    pairs = []
    for part, slots in terms:
        if wanted is not None:
            part, slots = part[wanted[slots]], slots[wanted[slots]]
        held[slots] = True
        pairs.append((part, slots))
    slots = np.flatnonzero(held)
    slots.flags.writeable = False
    rows = np.zeros((len(slots), pairs[0][0].shape[1]))
    for part, part_slots in pairs:
        rows[np.searchsorted(slots, part_slots)] += part
    return Rows(rows, slots)


@dataclass(frozen=True)
class CurvatureBatch:
    """Curvature at a batch of points: g, g^-1, Gamma and Ricci as Rows.

    Each tensor keeps one row per canonical slot that can be non-zero, in
    the order of the slots: g.rows[r, p] is g_ij at point p for the flat
    slot g.slots[r] = i n + j, i <= j, and likewise ginv and ricci;
    christoffel.rows[r, p] is Gamma^k_ij for the flat slot
    christoffel.slots[r] = (k n + i) n + j, i <= j.  scalar[p] = g^bd R_bd
    was summed over the canonical slots of the ginv and Ricci rows, and the
    checks sum their residuals on the rows (combine).  A dense array comes
    only from Rows.dense, built anew on each call: christoffel.dense(n, 3)
    is gamma[p, k, i, j] = Gamma^k_ij.
    """
    points: np.ndarray
    g: Rows
    ginv: Rows
    christoffel: Rows
    ricci: Rows
    scalar: np.ndarray

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def normalized_scalar(self) -> np.ndarray:
        n = self.dim
        if n < 2:
            return np.zeros_like(self.scalar)
        return self.scalar / (n * (n - 1))


class _Samples(NamedTuple):
    """What an evaluation scope keeps: curvature batches, sample points,
    one jet tape per chart, and each scalar field's jet rows, read-only."""
    batches: dict  # (metric, points.shape, points bytes) -> CurvatureBatch
    points: dict   # sample key -> read-only points
    inside: dict   # id of kept points -> the charts whose boxes they passed
    keys: dict     # id of kept points -> their (shape, bytes), for _scope_key
    tapes: dict    # coordinate tuple -> the Tape its jet programs record on
    rows: dict     # (field plan, id of kept points) -> its jet program's tape rows
    traces: dict   # (phi, metric, id of kept points) -> _field_jets' lap and |dphi|^2


_SAMPLES: ContextVar[_Samples | None] = ContextVar("confprod_evaluation_scope", default=None)


@contextmanager
def evaluation_scope():
    """Share curvature batches, sample points and jets between the checks of one run.

    Inside the scope, curvature_batch returns the batch it already computed
    for the same metric at the same points, and _field_jets takes the
    inverse metric from it.  The key is the metric itself, so the direct
    route (rescaled metric) and the formula route (base metric) never read
    each other's entries.  Sample points are kept apart from the batches
    (scoped_points).  Every jet program built in the scope records on one
    Tape per coordinate tuple, so each node's value and derivative
    registers are derived once per chart; a scalar field's jet rows at
    kept points, which serve its values, gradients and jets alike, and
    _field_jets' lap and |dphi|^2 per (phi, metric, kept points), are kept
    for later calls.  Only symbolic registers pass between the routes: the
    rescaled metric's program and phi's share tape registers, but each
    computes its own values.  A scope opened inside another one shares the
    outer one's; the outermost scope drops all of it when it closes.  Kept
    arrays are read-only.  Yields the mapping from keys to batches.
    """
    kept = _SAMPLES.get()
    if kept is not None:
        yield kept.batches
        return
    kept = _Samples({}, {}, {}, {}, {}, {}, {})
    token = _SAMPLES.set(kept)
    try:
        yield kept.batches
    finally:
        _SAMPLES.reset(token)


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
        kept.keys[id(points)] = (points.shape, points.tobytes())
    return points


def _scope_key(metric: MetricSpec, pts: np.ndarray) -> tuple:
    """(metric, points' shape, points' bytes); the bytes of points the scope
    keeps are copied once, so their hash is computed once too."""
    samples = _SAMPLES.get()
    kept = None if samples is None else samples.keys.get(id(pts))
    return (metric, *(kept or (pts.shape, pts.tobytes())))


# --- structural-sparse contraction -----------------------------------------
#
# Batch curvature runs in two phases, as sparse factorisation does.  The
# symbolic phase (_contraction, cached per class structure) sees only which
# slots of g, dg and d2g hold the same value: the slots a jet plan writes
# from one tape row form a class, and slots that are constant zeros hold
# none.  It lays out a slot-major table with one row per class, and derives
# each contraction's products as index arrays.  Each contraction's outputs
# are value-numbered again (Alpern, Wegman and Zadeck 1988): output slots
# whose merged products are the same share one row, so later contractions
# see fewer distinct rows.  A contraction step costs a fixed handful of
# array passes (_step): a term with an all-zero input is dropped, each other
# term's candidate products on canonical outputs are the true entries of one
# boolean np.einsum over the two non-zero masks (one np.nonzero), and the
# step's candidates are merged by one stable sort and one np.add.reduceat;
# only the value numbering visits the step's output slots one by one.  The
# numeric phase (_contract) fills the table for one slice of points and runs
# each step as a gather, an in-place product and one np.add.reduceat.

class _Step(NamedTuple):
    """table[out][r] = sum of coef[p] table[a[p]] table[b[p]] over r's products p."""
    a: np.ndarray
    b: np.ndarray
    coef: np.ndarray       # (products, 1)
    starts: np.ndarray     # each output row's first product
    out: slice             # the table rows written


class _Contraction(NamedTuple):
    """The symbolic program of one class structure: index arrays only, never values."""
    dim: int
    rows: int                                  # table rows; the jet classes come first
    reciprocals: tuple[np.ndarray, np.ndarray]  # g rows of the 1x1 components, their ginv rows
    singular: bool                             # some 1x1 component is a structural zero
    blocks: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]
    # ^ per distinct larger component: size k, g rows of the k x k block (-1
    #   for a zero slot), its upper-triangle flat places, their ginv rows
    steps: tuple[_Step, ...]
    fields: tuple[tuple[np.ndarray, np.ndarray], ...]
    # ^ g, ginv, ricci, Gamma: their canonical flat slots, the slots' rows
    hessian: tuple[np.ndarray, ...]
    # ^ Gamma^k_ij d_k phi by output (i, j), i <= j: per product its Gamma
    #   (an index into Gamma's slots) and its k, each output's first product
    #   and its flat slot
    scalar: tuple[np.ndarray, np.ndarray, np.ndarray]
    # ^ g^bd R_bd: the table rows of ginv and Ricci on the canonical slots
    #   both can be non-zero, and each slot's weight (2 off the diagonal)
    ginv_pairs: tuple[np.ndarray, np.ndarray, np.ndarray]
    # ^ per canonical ginv slot (i, j): i, j and its weight, for the traces
    #   of _field_jets
    most: int                                  # products of the largest step


class _Layout:
    """Hands out table rows: the jet classes first, then one per value class
    of each computed tensor.  `formed` maps each formed row's product list
    (its rows a and b, its coefficients) to the row."""

    def __init__(self, rows: int):
        self.rows = rows
        self.formed: dict[bytes, int] = {}


class _Map(NamedTuple):
    """A tensor's slot map (each slot's table row, -1 for a zero slot) and
    its non-zero mask, None when every slot is zero."""
    rows: np.ndarray
    nonzero: Optional[np.ndarray]


def _map(rows: np.ndarray) -> _Map:
    nonzero = rows >= 0
    return _Map(rows, nonzero if nonzero.any() else None)


@lru_cache(maxsize=None)
def _einsum(spec: str, pairs: tuple) -> tuple[str, str, str, str, str]:
    """The einsum-style spec parsed: its two inputs, its output, every letter
    (the output's first), and the boolean einsum over the inputs' non-zero
    masks (and, per symmetric pair, the upper triangle of its two output
    letters) that is true on each product with a canonical output."""
    inputs, out = spec.split("->")
    sa, sb = inputs.split(",")
    letters = "".join(dict.fromkeys(out + sa + sb))
    upper = "".join(f",{out[p]}{out[q]}" for p, q in pairs)
    return sa, sb, out, letters, f"{inputs}{upper}->{letters}"


def _flat(index: dict, letters: str, n: int) -> np.ndarray:
    """The flat slot, in an array of side n, of the index over `letters`."""
    flat = index[letters[0]]
    for c in letters[1:]:
        flat = flat * n + index[c]
    return flat


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal sorted keys starts, and where it ends."""
    change = np.empty(len(keys) + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:-1])
    bounds = np.flatnonzero(change)
    return bounds[:-1], bounds[1:]


def _step(layout: _Layout, shape: tuple[int, ...], terms, *pairs):
    """Place the output of a sum of products; (its _Map, its canonical flat
    slots, its _Step or None).

    terms are (coefficient, spec, _Map a, _Map b).  With `pairs`, the output
    is symmetric and only its canonical slots are computed; the map gives a
    mirrored slot the row of the one whose indices are in order.  A term
    with an all-zero input forms nothing.  Products that read the same two
    rows into the same output are merged, their coefficients summed, and
    those that cancel are dropped.  Output slots left with the same products
    hold one value: they share one row, that of an earlier output (of this
    or an earlier step) when there is one, and only the first of them is
    formed.
    """
    n, width = shape[0], layout.rows
    upper = [np.arange(n)[:, None] <= np.arange(n) for _ in pairs]
    found = []          # per term: (its coefficient, output slots, rows of a, rows of b)
    for coef, spec, a, b in terms:
        if a.nonzero is None or b.nonzero is None:
            continue
        sa, sb, out, letters, subscripts = _einsum(spec, pairs)
        index = dict(zip(letters, np.nonzero(
            np.einsum(subscripts, a.nonzero, b.nonzero, *upper))))
        found.append((coef, _flat(index, out, n), a.rows.take(_flat(index, sa, n)),
                      b.rows.take(_flat(index, sb, n))))
    rows = np.full(shape, -1, dtype=np.intp)
    if not found:
        return _map(rows), np.zeros(0, dtype=np.intp), None
    coefs, slot, ra, rb = zip(*found)
    slot, ra, rb = np.concatenate(slot), np.concatenate(ra), np.concatenate(rb)
    lo, hi = np.minimum(ra, rb), np.maximum(ra, rb)
    key = (slot * width + lo) * width + hi
    order = np.argsort(key, kind="stable")
    firsts, _ = _runs(key[order])
    coef = np.add.reduceat(np.repeat(coefs, [len(s) for _, s, _, _ in found])[order], firsts)
    kept = order[firsts[coef != 0.0]]
    slot, lo, hi, coef = slot[kept], lo[kept], hi[kept], coef[coef != 0.0]
    if not len(kept):
        return _map(rows), slot, None
    starts, ends = _runs(slot)                # each output's products
    # each output's products as one bytes key: an output whose key is known
    # reads the row that key got, a new key gets the next row (setdefault's
    # default is read before it inserts the key)
    blob = np.column_stack((lo, hi, coef.view(np.int64))).tobytes()
    known, top = layout.formed, layout.rows
    base = top - len(known)
    out = np.array([known.setdefault(blob[24 * a:24 * b], base + len(known))
                    for a, b in zip(starts.tolist(), ends.tolist())], dtype=np.intp)
    layout.rows = base + len(known)
    rows.flat[slot[starts]] = out
    for p, q in pairs:
        rows = np.maximum(rows, np.swapaxes(rows, p, q))
    if layout.rows == top:
        return _map(rows), slot[starts], None
    # new rows are numbered in order, so an output forms its row when its
    # row is new and above every earlier output's
    new = out >= top
    new[1:] &= out[1:] > np.maximum.accumulate(out)[:-1]
    formed = np.repeat(new, ends - starts)
    sizes = (ends - starts)[new]
    return _map(rows), slot[starts], _Step(lo[formed], hi[formed], coef[formed, None],
                                           np.cumsum(sizes) - sizes, slice(top, layout.rows))


@lru_cache(maxsize=256)
def _contraction(n: int, pattern: bytes, classes: bytes) -> _Contraction:
    """The symbolic program for the packed boolean pattern of g, dg, d2g and
    the value class of each non-zero slot (int32): its table row, the jet
    tape row it reads.

    Index conventions as in the module docstring; dg[i, j, k] = d_k g_ij,
    d2g[i, j, k, l] = d_k d_l g_ij and dginv[a, l, m] = d_m g^al.

        m[a, t, m]     = g^as dg[s, t, m]
        dginv[a, l, m] = -m[a, t, m] g^tl
        Gamma^k_ij     = g^kl (dg[j, l, i] + dg[i, l, j] - dg[i, j, l]) / 2
        div[l]         = d_a g^al = -m[a, t, a] g^tl
        trace[e]       = Gamma^a_ae = g^al dg[a, l, e] / 2
        R_bd           = d_a Gamma^a_db - d_d Gamma^a_ab
                         + Gamma^a_ae Gamma^e_db - Gamma^a_de Gamma^e_ab

    The two derivative terms are expanded through dginv and div, with
    Gamma^a_ab = g^al dg[a, l, b] / 2 since g^al is symmetric, so no
    derivative of Gamma is formed; the traces div and trace are formed
    first, so the Ricci terms that read them cost n^3 products, not n^4.
    Building the program costs a fixed handful of array passes per term
    and per step (_step); only the value numbering does Python work per
    output slot.
    """
    nonzero = np.unpackbits(np.frombuffer(pattern, dtype=np.uint8),
                            count=n**2 + n**3 + n**4).astype(bool)
    jets = np.full(len(nonzero), -1, dtype=np.intp)
    jets[nonzero] = np.frombuffer(classes, dtype=np.int32)
    g, dg, d2g = (jets[:n**2].reshape(n, n), jets[n**2:-n**4].reshape((n,) * 3),
                  jets[-n**4:].reshape((n,) * 4))
    layout = _Layout(int(jets.max(initial=-1)) + 1)   # the jet classes are rows 0, 1, ...
    g_slots = np.flatnonzero((g >= 0) & (np.arange(n)[:, None] <= np.arange(n)))
    # g^-1 block by block of g, each block's upper triangle row by row;
    # components with the same g rows share their rows
    g_rows, inv = g.tolist(), [[-1] * n for _ in range(n)]
    distinct: dict[tuple[int, ...], tuple[int, ...]] = {}
    for c in _partition(n, zip(*np.nonzero(g >= 0))):
        first = distinct.setdefault(tuple(g_rows[i][j] for i in c for j in c), c)
        for x, i in enumerate(c):
            for y in range(x, len(c)):
                if first is c:
                    inv[i][c[y]] = layout.rows
                    layout.rows += 1
                else:
                    inv[i][c[y]] = inv[first[x]][first[y]]
    ginv = np.array(inv, dtype=np.intp)
    ginv_slots = np.flatnonzero(ginv >= 0)
    ginv, dg, d2g = _map(np.maximum(ginv, ginv.T)), _map(dg), _map(d2g)
    ones = np.array([c[0] for c in distinct.values() if len(c) == 1], dtype=np.intp)
    held = g[ones, ones] >= 0    # a 1x1 component with no g row is zero, never inverted
    blocks = []
    for c in distinct.values():
        if len(c) > 1:
            k = len(c)
            upper = np.flatnonzero(np.triu(np.ones((k, k), dtype=bool)))
            blocks.append((k, g[np.ix_(c, c)].ravel(), upper,
                           ginv.rows[np.ix_(c, c)].ravel()[upper]))
    line, square, cube = (n,), (n, n), (n, n, n)
    m, _, m_step = _step(layout, cube, [(1.0, "stm,as->atm", dg, ginv)])
    dginv, _, dginv_step = _step(layout, cube, [(-1.0, "atm,tl->alm", m, ginv)], (0, 1))
    gamma, gamma_slots, gamma_step = _step(layout, cube, [
        (0.5, "jli,kl->kij", dg, ginv), (0.5, "ilj,kl->kij", dg, ginv),
        (-0.5, "ijl,kl->kij", dg, ginv)], (1, 2))
    div, _, div_step = _step(layout, line, [(-1.0, "ata,tl->l", m, ginv)])
    trace, _, trace_step = _step(layout, line, [(0.5, "ale,al->e", dg, ginv)])
    ricci, ricci_slots, ricci_step = _step(layout, square, [
        # d_a Gamma^a_db
        (0.5, "bld,l->bd", dg, div), (0.5, "dlb,l->bd", dg, div),
        (-0.5, "dbl,l->bd", dg, div),
        (0.5, "blad,al->bd", d2g, ginv), (0.5, "dlab,al->bd", d2g, ginv),
        (-0.5, "dbal,al->bd", d2g, ginv),
        # -d_d Gamma^a_ab
        (-0.5, "alb,ald->bd", dg, dginv), (-0.5, "aldb,al->bd", d2g, ginv),
        # Gamma^a_ae Gamma^e_db - Gamma^a_de Gamma^e_ab
        (1.0, "edb,e->bd", gamma, trace), (-1.0, "ade,eab->bd", gamma, gamma)], (0, 1))
    steps = tuple(s for s in (m_step, dginv_step, gamma_step, div_step, trace_step, ricci_step)
                  if s is not None)
    k, i, j = np.unravel_index(gamma_slots, cube)
    by_output = np.lexsort((k, i * n + j))
    out = (i * n + j)[by_output]
    starts, _ = _runs(out)
    fields = tuple((slots, t.flat[slots]) for t, slots in (
        (g, g_slots), (ginv.rows, ginv_slots), (ricci.rows, ricci_slots),
        (gamma.rows, gamma_slots)))
    hessian = (by_output, k[by_output], starts, out[starts])
    shared, a, b = np.intersect1d(ginv_slots, ricci_slots, assume_unique=True,
                                  return_indices=True)
    scalar = (fields[1][1][a], fields[2][1][b], _weights(shared, n))
    ginv_pairs = (*np.divmod(ginv_slots, n), _weights(ginv_slots, n))
    for array in (*(a for field in fields for a in field), *hessian, *scalar, *ginv_pairs):
        array.flags.writeable = False    # batches and _field_jets hand these out
    return _Contraction(
        dim=n, rows=layout.rows,
        reciprocals=(g[ones, ones][held], ginv.rows[ones, ones][held]),
        singular=not held.all(), blocks=tuple(blocks), steps=steps,
        fields=fields, hessian=hessian, scalar=scalar, ginv_pairs=ginv_pairs,
        most=max((len(s.a) for s in steps), default=0))


def _weights(slots: np.ndarray, n: int) -> np.ndarray:
    """Per canonical flat slot i n + j of a symmetric n x n tensor, 1.0 on
    the diagonal and 2.0 off it (the slot and its mirror), shape (slots, 1)."""
    return np.where(slots // n == slots % n, 1.0, 2.0)[:, None]


def _trace(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per point (column), the sum over rows of weights a b: the full
    contraction of two symmetric tensors from their canonical slots.  The
    sum is one np.add.reduceat, whose bits do not depend on the number of
    columns."""
    if not len(a):
        return np.zeros(a.shape[1])
    product = a * b
    product *= weights
    return np.add.reduceat(product, [0], axis=0)[0]


def _block(table: np.ndarray, g_rows: np.ndarray, k: int) -> np.ndarray:
    """A k x k component of g at each point of a slice, (count, k, k), from
    the table rows of its slots (-1 for a zero slot)."""
    block = np.zeros((k * k, table.shape[1]))
    block[g_rows >= 0] = table[g_rows[g_rows >= 0]]
    return block.T.reshape(-1, k, k)


def _check_rows_positive_definite(program: _Contraction, table: np.ndarray,
                                  points: np.ndarray) -> None:
    """Raise SingularMetricError unless g's eigenvalues exceed
    tau = 1e-12 max(1, max|g|) at every point of a slice, tested from the
    table's g rows per component of g's pattern: each distinct 1x1 one
    through its g row (a structural zero has no row and fails as zeros),
    each distinct larger one, built as _contract builds it for inversion, by
    a Cholesky factorisation of block - tau I.  Only a failing slice builds
    its dense g, whose eigenvalues name the first bad point."""
    g_slots, g_table = program.fields[0]
    tau = _PD_EIGENVALUE_TOL * np.maximum(1.0, np.abs(table[g_table]).max(axis=0, initial=0.0))
    ones = np.zeros((1, len(points))) if program.singular else table[program.reciprocals[0]]
    try:
        if (ones > tau).all():
            for k, g_rows, _, _ in program.blocks:
                np.linalg.cholesky(_block(table, g_rows, k) - tau[:, None, None] * np.eye(k))
            return
    except np.linalg.LinAlgError:
        pass
    eigenvalues = np.linalg.eigvalsh(Rows(table[g_table], g_slots).dense(program.dim))
    bad = eigenvalues[:, 0] <= tau
    if bad.any():
        where = int(np.argmax(bad))
        raise SingularMetricError(points[where], float(eigenvalues[where, 0]))


def _contract(program: _Contraction, table: np.ndarray) -> None:
    """The numeric phase for one slice of points: given the jet rows,
    fill the table's ginv rows component by component, then run the steps
    over column slices whose product buffers fit _CHUNK_BYTES."""
    g_rows, inv_rows = program.reciprocals
    if len(g_rows):
        table[inv_rows] = 1.0 / table[g_rows]
    count = table.shape[1]
    for k, g_rows, upper, inv_rows in program.blocks:
        inv = np.linalg.inv(_block(table, g_rows, k)).reshape(count, k * k)
        table[inv_rows] = inv[:, upper].T
    step = max(1, _CHUNK_BYTES // (16 * max(1, program.most)))   # a product and a gather
    for start in range(0, count, step):
        columns = table[:, start:start + step]
        for s in program.steps:
            product = columns[s.a]
            product *= columns[s.b]
            product *= s.coef
            np.add.reduceat(product, s.starts, axis=0, out=columns[s.out])


class _BatchPlan(NamedTuple):
    """A metric's jet plan wired to the symbolic program of its value classes."""
    plan: _JetPlan
    program: _Contraction
    taped: int             # table rows 0, 1, ... are the tape rows the slots read


def _slot_rows(plan: _JetPlan) -> np.ndarray:
    """Each flat jet slot's tape row, the value slots first, then the
    gradient's and the Hessian's; -1 for a zero slot (one whose row is a
    constant zero of either sign, or none).  Slots that the plan writes from
    one tape row (paired entries, paired derivatives, equal expressions,
    equal constants, a second derivative's (k, l) and (l, k)) read one row."""
    program, n = plan.jet_program, len(plan.coords)
    zero = np.array([_is_zero(key) for key in program.keys], dtype=bool)
    sizes = [math.prod(plan.shape) * n ** order for order in range(len(program.scatter))]
    rows = np.full(sum(sizes), -1, dtype=np.intp)
    for first, (tape_rows, cols) in zip(np.cumsum([0] + sizes[:-1]), program.scatter):
        rows[first + cols] = np.where(zero[tape_rows], -1, tape_rows)
    hessian = rows[-sizes[2]:].reshape(-1, n, n)    # laid out for k <= l only
    hessian[:] = np.maximum(hessian, hessian.swapaxes(1, 2))
    return rows


@lru_cache(maxsize=128)
def _batch_plan(metric: MetricSpec) -> _BatchPlan:
    """The metric's jet plan and the program of its value classes: the jet
    slots that read one tape row (_slot_rows) hold one value, and that tape
    row is their table row."""
    plan, n = _metric_plan(metric), metric.dim
    source = _slot_rows(plan)
    nonzero = source >= 0
    program = _contraction(n, np.packbits(nonzero).tobytes(),
                           source[nonzero].astype(np.int32).tobytes())
    return _BatchPlan(plan, program, int(source.max(initial=-1)) + 1)


def _compute_batch(metric: MetricSpec, pts: np.ndarray) -> CurvatureBatch:
    """The batch, computed slice by slice.  A slice's tape rows and table
    fit _CHUNK_BYTES, as do the product buffers of each narrower slice that
    _contract runs; the positive-definite check and the scalar read the
    table's rows, and only a failing slice builds a dense g.  Every point's
    values depend on that point alone."""
    count = pts.shape[0]
    plan, program, taped = _batch_plan(metric)
    ginv_table, ricci_table, weights = program.scalar
    tensors = [np.empty((len(slots), count)) for slots, _ in program.fields]
    scalar = np.empty(count)
    step = max(1, _CHUNK_BYTES // (8 * (len(plan.jet_program.keys) + program.rows)))
    for start in range(0, count, step):
        columns = slice(start, start + step)
        sliced = pts[columns]
        table = np.empty((program.rows, len(sliced)))
        table[:taped] = plan.jet_program.fn(sliced)[:taped]
        _check_rows_positive_definite(program, table, sliced)
        _contract(program, table)
        for rows, (_, table_rows) in zip(tensors, program.fields):
            rows[:, columns] = table[table_rows]
        scalar[columns] = _trace(table[ginv_table], table[ricci_table], weights)
    g, ginv, ricci, christoffel = (Rows(rows, slots)
                                   for rows, (slots, _) in zip(tensors, program.fields))
    return CurvatureBatch(pts, g, ginv, christoffel, ricci, scalar)


def curvature_batch(metric: MetricSpec, points) -> CurvatureBatch:
    pts = _as_points(metric.chart, points)
    samples = _SAMPLES.get()
    if samples is None:
        return _compute_batch(metric, pts)
    key = _scope_key(metric, pts)
    batch = samples.batches.get(key)
    if batch is None:
        batch = samples.batches[key] = _compute_batch(metric, pts)
        for array in (batch.g.rows, batch.ginv.rows, batch.christoffel.rows, batch.ricci.rows,
                      batch.scalar):
            array.flags.writeable = False
    return batch


def _riemann(metric: MetricSpec, batch: CurvatureBatch) -> np.ndarray:
    """Full (1,3) tensor riemann[n, a, b, c, d] = R^a_bcd at the points of
    the metric's batch, for single-point queries."""
    n = metric.dim
    ginv, gamma = batch.ginv.dense(n), batch.christoffel.dense(n, 3)
    _, dg, d2g = _metric_plan(metric).jets(batch.points)
    d2g = d2g.dense(n, 4)
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
    batch, n = curvature_batch(metric, [point]), metric.dim
    return CurvatureData(
        point=tuple(float(x) for x in point),
        metric=batch.g.dense(n)[0],
        inverse_metric=batch.ginv.dense(n)[0],
        christoffel=batch.christoffel.dense(n, 3)[0],
        riemann=_riemann(metric, batch)[0],
        ricci=batch.ricci.dense(n)[0],
        scalar=float(batch.scalar[0]),
        normalized_scalar=float(batch.normalized_scalar()[0]),
    )


# --- scalar fields on a metric ----------------------------------------------

def expr_values(e: Expr, chart: Chart, points) -> np.ndarray:
    return _field_plan(e, chart.coords).values(_as_points(chart, points))


def coordinate_hessian_batch(e: Expr, chart: Chart, points) -> Rows:
    """Plain second partials d_i d_j e as Rows (slots i <= j); no connection."""
    return _field_plan(e, chart.coords).jets(_as_points(chart, points))[2]


def _field_jets(phi: Expr, metric: MetricSpec, pts: np.ndarray):
    """(covariant Hessian as Rows, lap(phi), |d phi|^2) at the points, from
    one jet pass of phi and the metric's curvature batch.

    The Hessian (nabla d phi)_ij = d_i d_j phi - Gamma^k_ij d_k phi combines
    phi's Hessian rows with those of Gamma^k_ij d_k phi, formed from the
    batch's Christoffel rows over column slices whose product and gather
    buffers fit _CHUNK_BYTES.  The traces contract the batch's g^-1 rows
    with the Hessian's on the slots both hold, and with d phi's (_trace),
    so no dense array is built.  Inside a scope, at points it keeps, the
    traces are kept read-only per (phi, metric, points) for later calls.
    """
    _, grad, hess = _field_plan(phi, metric.chart.coords).jets(pts)
    batch = curvature_batch(metric, pts)
    program = _batch_plan(metric).program
    a, k, starts, out = program.hessian
    connection = np.empty((len(out), len(pts)))    # -Gamma^k_ij d_k phi
    if len(a):
        step = max(1, _CHUNK_BYTES // (16 * len(a)))
        for start in range(0, len(pts), step):
            columns = slice(start, start + step)
            product = batch.christoffel.rows[a, columns] * grad[columns, k].T
            connection[:, columns] = -np.add.reduceat(product, starts, axis=0)
    hess = combine(metric.dim, hess, Rows(connection, out))
    samples, key = _SAMPLES.get(), (phi, metric, id(pts))
    traces = None if samples is None else samples.traces.get(key)
    if traces is None:
        i, j, weights = program.ginv_pairs
        _, g, h = np.intersect1d(batch.ginv.slots, hess.slots, return_indices=True)
        traces = (-_trace(batch.ginv.rows[g], hess.rows[h], weights[g]),
                  _trace(batch.ginv.rows, grad.T[i] * grad.T[j], weights))
        if samples is not None and id(pts) in samples.keys:
            for array in traces:
                array.flags.writeable = False
            samples.traces[key] = traces
    return (hess, *traces)
