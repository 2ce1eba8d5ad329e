"""Batch curvature on the structural-sparse contraction path.

`geometry._contraction` derives, from the value classes of g, dg and d2g
alone (which slots are zero, which hold the same value), which products
each contraction forms; `geometry._contract` runs them on a slot-major
table of one slice of points.  The results must match the dense
contractions the path replaced (`dense_reference`) to 1e-12 relative: on
the catalog, on the conformal route pairs, on fully dense metrics, on
metrics with constant zeros of either sign and on a diagonal metric whose
entries depend on other coordinates.  On the sparse metrics the
catalog builds, the path must form far fewer products than the dense one,
and on the flat products of the dimension sweep, where every diagonal entry
is the same expression, far fewer than one row per slot would.
The covariant Hessian, contracted from a batch's compact Christoffel rows,
must match the dense contraction with the reference's Gamma, and the
scalar curvature and the Laplacian and |d phi|^2 traces, contracted from
the compact g^-1 and Ricci rows, the dense einsums, with no dense array
built on the way, nor by any check of the catalog.  The positive-definite
test a batch runs on its g rows must accept what the dense test
(`dense_reference`) accepts, and name the same point and eigenvalue when it
fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confprod import geometry
from confprod.catalog import builtin_metric, get_scenario, run_scenario, scenarios
from confprod.checkers import SamplePlan, sample
from confprod.constructions import (
    ConformalSpec,
    as_metric,
    conformal_metric,
    joint_sum,
    product,
)
from confprod.errors import SingularMetricError
from confprod.expressions import Const, parse
from confprod.geometry import (
    Chart,
    MetricSpec,
    _batch_plan,
    _check_rows_positive_definite,
    _field_plan,
    _metric_plan,
    _slot_rows,
    curvature_batch,
)
from dense_reference import (
    check_positive_definite,
    components,
    field_traces,
    reference_batch,
    scalar,
)
from formulas import field_jets
from instances import conformal_route_pairs, random_dense_metric
from symbolic import differentiate

def _metric(coords, rows, box=1.5):
    chart = Chart(coords, ((-box, box),) * len(coords), singular_margin=0.0)
    return MetricSpec(chart, tuple(
        tuple(e if isinstance(e, Const) else parse(e, coords) for e in row) for row in rows))


def _catalog_inputs():
    with geometry.evaluation_scope() as kept:
        for name in scenarios():
            run_scenario(name, plan=SamplePlan(count=25))
        return [(metric, np.frombuffer(raw).reshape(shape)) for metric, shape, raw in kept]


def _route_pair_inputs():
    out = []
    for _, spec in conformal_route_pairs():
        for metric in (as_metric(spec.base), conformal_metric(spec)):
            out.append((metric, sample(metric.chart, SamplePlan(count=37))))
    return out


# -(cos(x) - 4) has the constant derivative -0.0 in y and z; the off-diagonal
# -0.0 entries couple nothing; 2 + 0.3 * y has a constant first derivative
# and 2 + 0.1 * z^2 a constant second one, so constants sit in the table too
_SIGNED_ZEROS = _metric(("x", "y", "z"), (
    ("-(cos(x) - 4)", Const(-0.0), Const(-0.0)),
    (Const(-0.0), "2 + 0.3 * y + 0.1 * x * z", "0.2 * sin(x)"),
    (Const(-0.0), "0.2 * sin(x)", "2 + 0.1 * z^2"),
))

# the last jet tape row is the off-diagonal entries' -0.0 (g_yy repeats
# g_xx), a row no slot reads, so the table's jet rows are one fewer than the
# tape's rows; a derivative that folds to a zero constant is a structural
# +0.0 and has no row, so this metric's zeros are entries (before derivatives
# were propagated on the tape, g_xx = 2 + x^2 and g_yy = 4 - cos(x) y with
# +0.0 off the diagonal gave the last row, d_y d_y g_yy = -0.0)
_TRAILING_ZERO = _metric(("x", "y"), (("2 + x^2", Const(-0.0)), (Const(-0.0), "2 + x^2")))

# one 3x3 component whose (0, 2) slot is a structural zero, and a 1x1 one
_BANDED = _metric(("x", "y", "z", "w"), (
    ("2 + 0.2 * sin(y)", "0.3 * cos(x + w)", Const(0.0), Const(0.0)),
    ("0.3 * cos(x + w)", "2 + 0.1 * z^2", "0.2 * x * y", Const(0.0)),
    (Const(0.0), "0.2 * x * y", "1.5 + 0.1 * exp(0.3 * z)", Const(0.0)),
    (Const(0.0), Const(0.0), Const(0.0), "1 + 0.2 * x^2"),
))


# g_xx depends on z and g_zz on x: coordinates coupled through their
# derivatives alone, interleaved with the uncoupled y
_INTERLEAVED = _metric(("x", "y", "z", "w"), (
    ("1 + 0.2 * z^2", Const(0.0), Const(0.0), Const(0.0)),
    (Const(0.0), "2 + 0.1 * sin(y)", Const(0.0), Const(0.0)),
    (Const(0.0), Const(0.0), "1 + 0.3 * x^2", Const(0.0)),
    (Const(0.0), Const(0.0), Const(0.0), "1.5 + 0.2 * cos(w)"),
))


def _special_inputs():
    dense = random_dense_metric()
    return [(m, sample(m.chart, SamplePlan(count=37)))
            for m in (dense, _SIGNED_ZEROS, _TRAILING_ZERO, _BANDED, _INTERLEAVED)]


def _program(metric):
    return _batch_plan(metric).program


def _assert_matches_reference(metric, points):
    batch, n = curvature_batch(metric, points), metric.dim
    want = reference_batch(metric, points)
    for field, got in (("ginv", batch.ginv.dense(n)), ("gamma", batch.christoffel.dense(n, 3)),
                       ("ricci", batch.ricci.dense(n)), ("scalar", batch.scalar)):
        scale = max(1.0, float(np.abs(want[field]).max()))
        assert float(np.abs(got - want[field]).max()) <= 1e-12 * scale, \
            (metric.chart.coords, field)


@pytest.mark.parametrize("inputs", [_catalog_inputs, _route_pair_inputs, _special_inputs],
                         ids=["catalog", "route-pairs", "dense-and-signed-zeros"])
def test_sparse_path_matches_the_dense_reference(inputs):
    cases = inputs()
    assert cases
    for metric, points in cases:
        _assert_matches_reference(metric, points)


def _field(coords):
    """A scalar field with a non-zero gradient and Hessian in every coordinate."""
    return parse(" + ".join(
        f"{0.2 * (k + 1)} * sin({c} + {0.1 * k}) * cos({coords[(k + 1) % len(coords)]})"
        for k, c in enumerate(coords)), coords)


@pytest.mark.parametrize("inputs", [_catalog_inputs, _route_pair_inputs, _special_inputs],
                         ids=["catalog", "route-pairs", "dense-and-signed-zeros"])
def test_hessian_from_christoffel_rows_matches_the_dense_contraction(inputs):
    for metric, points in inputs():
        phi = _field(metric.chart.coords)
        n = metric.dim
        _, grad, hess = _field_plan(phi, metric.chart.coords).jets(points)
        want = hess.dense(n) - np.einsum("nkij,nk->nij", reference_batch(metric, points)["gamma"],
                                         grad)
        got = field_jets(phi, metric, points)[0].dense(n)
        scale = max(1.0, float(np.abs(want).max()))
        assert float(np.abs(got - want).max()) <= 1e-13 * scale, metric.chart.coords
        assert np.array_equal(got, got.swapaxes(1, 2))


def _scenario_inputs(name, params):
    """(metric, batch) of every batch and (phi, metric, points, its lap and
    |d phi|^2) of every field trace one run of the scenario computes."""
    with geometry.evaluation_scope() as kept:
        run_scenario(name, params=params, plan=SamplePlan(count=12))
        samples = geometry._SAMPLES.get()
        at = {id(p): p for p in samples.points.values()}
        batches = [(metric, batch) for (metric, _, _), batch in kept.items()]
        traces = [(phi, metric, at[points], kept_traces)
                  for (phi, metric, points), kept_traces in samples.traces.items()]
    return batches, traces


def _assert_close(got, want, terms, tag):
    """Equal up to the round-off of summing the terms in another order."""
    assert float(np.abs(got - want).max()) <= 1e-13 * max(1.0, float(terms.max())), tag


def _assert_traces_match(phi, metric, points, got):
    ginv = curvature_batch(metric, points).ginv.dense(metric.dim)
    hess = field_jets(phi, metric, points)[0].dense(metric.dim)
    _, grad, _ = _field_plan(phi, metric.chart.coords).jets(points)
    terms = field_traces(np.abs(ginv), -np.abs(hess), np.abs(grad))
    for value, want, size in zip(got, field_traces(ginv, hess, grad), terms):
        _assert_close(value, want, size, metric.chart.coords)


@pytest.mark.parametrize("name,n", [(name, None) for name in scenarios()] + [
    (name, n) for name in ("flat_quadratic", "sphere_hyperbolic") for n in range(3, 9)])
def test_scalar_and_field_traces_match_the_dense_einsums(name, n):
    # the einsums read the batch's own g^-1, Ricci and covariant Hessian, so
    # only the order of the sums differs; the sphere's g^ii reach 7e5 at
    # n = 8, and the scalar cancels their terms to about 0
    batches, traces = _scenario_inputs(name, None if n is None else {"n1": n, "n2": n})
    assert batches
    for metric, batch in batches:
        ginv, ricci = batch.ginv.dense(metric.dim), batch.ricci.dense(metric.dim)
        _assert_close(batch.scalar, scalar(ginv, ricci), scalar(np.abs(ginv), np.abs(ricci)),
                      metric.chart.coords)
    for phi, metric, points, kept in traces:
        _assert_traces_match(phi, metric, points, kept)
    assert traces or name in ("doubly_twisted_einstein", "twisted_split")


def test_field_traces_match_the_dense_einsums_off_the_diagonal():
    # the catalog's g^-1 are diagonal; these metrics couple coordinates
    for metric, points in _route_pair_inputs() + _special_inputs():
        phi = _field(metric.chart.coords)
        _assert_traces_match(phi, metric, points, field_jets(phi, metric, points)[1:])


def test_a_passing_batch_and_the_field_traces_build_no_dense_array(monkeypatch):
    built = []
    dense = geometry.Rows.dense

    def raising(*args, **kwargs):
        raise AssertionError("a dense array was built from compact rows")

    def recording(tensor, n, axes=2):
        built.append((tensor.rows.shape[1], n, axes))
        return dense(tensor, n, axes)

    monkeypatch.setattr(geometry.Rows, "dense", raising)
    for metric, points in _route_pair_inputs() + _special_inputs():
        phi = _field(metric.chart.coords)
        curvature_batch(metric, points)
        field_jets(phi, metric, points)
    # nor does any check of the catalog: every tensor residual is summed on rows
    for name in scenarios():
        assert run_scenario(name, plan=SamplePlan(count=12)).matched, name
    monkeypatch.setattr(geometry.Rows, "dense", recording)
    curvature_batch(_SIGNED_ZEROS, sample(_SIGNED_ZEROS.chart, SamplePlan(count=3))).ginv.dense(3)
    assert built == [(3, 3, 2)]    # on request only


@pytest.mark.parametrize("inputs", [_catalog_inputs, _special_inputs],
                         ids=["catalog", "dense-and-signed-zeros"])
def test_combine_is_the_dense_sum_bit_for_bit(inputs):
    # the checks' residuals, ric + Hess - lambda g and ric - lambda g, summed
    # on rows must have the dense sum's bits on every entry, up to a zero's
    # sign, and under a mask on the masked entries alone
    for metric, points in inputs():
        n, batch = metric.dim, curvature_batch(metric, points)
        hess = field_jets(_field(metric.chart.coords), metric, points)[0]
        ricci, g = batch.ricci, batch.g.scaled(-0.7)
        dense_sum = batch.ricci.dense(n) + hess.dense(n) - 0.7 * batch.g.dense(n)
        i, j = np.divmod(np.arange(n * n), n)
        for terms, want, keep in (
                ((ricci, hess, g), dense_sum, None),
                ((ricci, g), batch.ricci.dense(n) - 0.7 * batch.g.dense(n), None),
                ((ricci, hess, g), dense_sum, lambda i, j: i + j > 2)):
            rows, slots = geometry.combine(n, *terms, keep=keep)
            got = np.zeros((len(points), n * n))
            got[:, slots] = rows.T
            wanted = np.flatnonzero((i <= j) & (True if keep is None else keep(i, j)))
            assert set(slots) <= set(wanted)
            assert np.array_equal(np.abs(got[:, wanted]),
                                  np.abs(want.reshape(len(points), -1)[:, wanted]))


def test_inputs_cover_the_special_patterns():
    assert np.signbit(differentiate(_SIGNED_ZEROS.entries[0][0], "y").value)
    assert components(_SIGNED_ZEROS) == ((0,), (1, 2))
    keys = _metric_plan(_TRAILING_ZERO).jet_program.keys
    assert keys[-1] is Const(-0.0)
    assert _batch_plan(_TRAILING_ZERO).taped == len(keys) - 1
    assert components(_BANDED) == ((0, 1, 2), (3,))
    dense = random_dense_metric()
    assert components(dense) == (tuple(range(6)),)
    assert (_slot_rows(_metric_plan(dense)) >= 0).all()
    skew = dict(conformal_route_pairs())["skew"]
    assert components(conformal_metric(skew)) == ((0, 1),)


# --- the count guard: products, not times --------------------------------------

def _rescaled(name, **params):
    """The scenario's rescaled product metric phi^-2 (g1 + g2)."""
    inst, _ = get_scenario(name).build(params)
    block = product(inst.g1, inst.g2, inst.labels)
    phi = inst.phi if inst.phi is not None else joint_sum(block, inst.phi1, inst.phi2)
    return conformal_metric(ConformalSpec(block, phi))


def _products(metric):
    return sum(len(step.a) for step in _program(metric).steps)


def test_value_numbering_shrinks_the_flat_products():
    # one row per slot formed 858, 1 984 and 3 810 products; the diagonal
    # entries phi^-2 are one value, as are their derivatives in each direction
    flat = [_rescaled("flat_quadratic", n1=n, n2=n, R=1.0) for n in (3, 4, 5)]
    assert [_products(metric) for metric in flat] == [279, 492, 765]
    assert [_program(metric).rows for metric in flat] == [80, 122, 172]
    _assert_matches_reference(flat[0], sample(flat[0].chart, SamplePlan(count=37)))


def test_sphere_hyperbolic_programs_keep_their_size():
    # table rows and products as the slot-by-slot enumeration built them,
    # before each term's candidates came from one boolean einsum
    metrics = [_rescaled("sphere_hyperbolic", n1=n, n2=n, b_bar=0.1) for n in (3, 4, 5)]
    assert [_program(metric).rows for metric in metrics] == [104, 178, 274]
    assert [_products(metric) for metric in metrics] == [174, 308, 490]


def test_a_constant_one_by_one_metric_has_no_steps():
    metric = _metric(("x",), ((Const(2.0),),))
    program = _program(metric)
    # the jet row of the constant and its reciprocal; every other term has
    # an all-zero input
    assert program.rows == 2 and program.steps == () and program.most == 0
    assert [len(slots) for slots, _ in program.fields] == [1, 1, 0, 0]
    batch = curvature_batch(metric, np.array([[0.5], [-0.25]]))
    assert np.array_equal(batch.ginv.rows, [[0.5, 0.5]])
    assert not batch.ricci.rows.size and not batch.christoffel.rows.size


def test_trace_intermediates_shrink_the_dense_ricci_step():
    # with the traces Gamma^a_ae and d_a g^al inside the Ricci step's n^4
    # products, a dense n = 6 metric formed 8 328 products a point
    program = _program(random_dense_metric())
    assert [len(step.a) for step in program.steps] == [1296, 756, 1656, 216, 126, 3144]


def test_cosh_cylinder_forms_few_products():
    metric = _rescaled("cosh_cylinder")
    assert metric.dim == 6
    products = _products(metric)
    # the dense contractions do about 7 n^4 = 9072 multiply-adds a point
    assert products < 500, products


def test_programs_hold_index_arrays_only():
    for metric, _ in _special_inputs():
        program = _program(metric)
        arrays = [*program.reciprocals, *[a for f in program.fields for a in f],
                  *program.hessian]
        arrays += [a for b in program.blocks for a in b[1:]]
        for step in program.steps:
            arrays += [step.a, step.b, step.starts]
            # merged coefficients of the formulas: multiples of 1/2
            assert np.array_equal(step.coef * 2, np.round(step.coef * 2))
        assert all(np.issubdtype(a.dtype, np.integer) for a in arrays)


def test_one_program_per_pattern():
    # programs are cached per class structure: entries that differ only by a
    # constant factor have the same one
    small, large = builtin_metric("sphere", 3), builtin_metric("sphere", 3, radius=2.0)
    assert small != large
    assert _program(small) is _program(large)
    # one pattern, two class structures: equal entries hold one value
    equal = _metric(("x", "y"), (("2 + sin(x * y)", Const(0.0)), (Const(0.0), "2 + sin(x * y)")))
    apart = _metric(("x", "y"), (("2 + sin(x * y)", Const(0.0)), (Const(0.0), "2 + cos(x * y)")))
    maps = [_slot_rows(_metric_plan(m)) for m in (equal, apart)]
    assert np.array_equal(maps[0] >= 0, maps[1] >= 0)
    assert _program(equal) is not _program(apart)
    assert _program(equal).rows < _program(apart).rows


# --- the positive-definite test per component ----------------------------------

_COUPLED = _metric(("x", "y", "z"), (
    ("1", "x", Const(0.0)),
    ("x", "1", Const(0.0)),
    (Const(0.0), Const(0.0), "1 + 0.1 * z^2"),
), box=2.0)


def test_singular_two_by_two_component_names_the_point():
    assert components(_COUPLED) == ((0, 1), (2,))
    pts = np.array([[0.1 * k - 0.5, 0.3, 0.1 * k] for k in range(12)])
    pts[7] = (1.5, 0.25, -0.5)     # eigenvalues 1 -+ 1.5 of the (x, y) block
    pts[10] = (-1.25, 0.5, 0.5)
    with pytest.raises(SingularMetricError) as err:
        curvature_batch(_COUPLED, pts)
    assert err.value.point == (1.5, 0.25, -0.5)
    assert err.value.min_eigenvalue == pytest.approx(-0.5)
    pts[7] = pts[10] = (0.999, 0.0, 0.0)    # close to singular, still positive
    curvature_batch(_COUPLED, pts)


def test_eigenvalues_are_computed_only_for_a_failing_slice(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def recording(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    for metric, points in _route_pair_inputs() + _special_inputs():
        curvature_batch(metric, points)
    assert calls == []
    with pytest.raises(SingularMetricError):
        curvature_batch(_COUPLED, np.array([[0.5, 0.0, 0.0], [-1.5, 0.0, 0.0]]))
    assert calls == [(2, 3, 3)]


_TAU = 1e-12    # the threshold while every |g_ij| <= 1
_NEAR_TAU = st.integers(-4, 4).map(lambda k: float(_TAU + k * np.spacing(_TAU)))


@st.composite
def _block_diagonal(draw):
    """A block-diagonal metric of consecutive blocks whose slots are each a
    structural zero or an entry of its own, and g's values at a few points:
    indefinite blocks, zero diagonals and values a few ulps from tau."""
    n = draw(st.integers(1, 5))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    blocks = list(zip([0, *cuts], [*cuts, n]))
    coords = tuple(f"x{i}" for i in range(n))
    rows = [[Const(0.0)] * n for _ in range(n)]
    for lo, hi in blocks:
        for i in range(lo, hi):
            for j in range(i, hi):
                if not draw(st.sampled_from([False] * 7 + [True]) if i == j else st.booleans()):
                    rows[i][j] = rows[j][i] = f"{i * n + j + 2} + x0"
    metric = _metric(coords, rows)
    count = draw(st.integers(1, 4))
    # mostly diagonally dominant, so that some cases pass
    odd = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0]), _NEAR_TAU)
    diagonal = st.one_of(*[st.floats(0.5, 1.0)] * 8, _NEAR_TAU, odd)
    off_diagonal = st.one_of(*[st.floats(-0.1, 0.1)] * 4, st.sampled_from([0.0, -0.0]), odd)
    g = np.zeros((count, n, n))
    for i in range(n):
        for j in range(i, n):
            if not isinstance(rows[i][j], Const):
                g[:, i, j] = g[:, j, i] = draw(st.lists(
                    diagonal if i == j else off_diagonal, min_size=count, max_size=count))
    return metric, g


def _failure(check, *args):
    """(point, eigenvalue) of the SingularMetricError the check raises, or None."""
    try:
        check(*args)
    except SingularMetricError as err:
        return err.point, err.min_eigenvalue
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_block_diagonal())
def test_row_check_accepts_what_the_dense_check_accepts(case):
    metric, g = case
    points = np.arange(g.shape[0] * metric.dim, dtype=float).reshape(-1, metric.dim)
    program = _program(metric)
    slots, table_rows = program.fields[0]
    table = np.zeros((program.rows, len(g)))
    table[table_rows] = g.reshape(len(g), -1)[:, slots].T
    want = _failure(check_positive_definite, g, points, components(metric))
    got = _failure(_check_rows_positive_definite, program, table, points)
    assert got == want


def test_a_zero_one_by_one_component_fails_without_reading_a_row():
    # a structurally zero diagonal entry that couples nothing: no g row
    # names it, so the batch test fails on the zero itself and g^-1 never
    # divides by a row
    metric = _metric(("x", "y"), (("1", Const(0.0)), (Const(0.0), Const(0.0))))
    program = _program(metric)
    assert program.singular and (program.reciprocals[0] >= 0).all()
    with pytest.raises(SingularMetricError) as err:
        curvature_batch(metric, np.array([[0.5, 0.25]]))
    assert err.value.point == (0.5, 0.25) and err.value.min_eigenvalue == 0.0
