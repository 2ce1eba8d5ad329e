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
must match the dense contraction with the reference's Gamma.
"""

import numpy as np
import pytest

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
from confprod.expressions import Const, Coord, add, differentiate, mul, parse
from confprod.geometry import (
    Chart,
    MetricSpec,
    _batch_plan,
    _components,
    _field_plan,
    _metric_plan,
    _slot_rows,
    curvature_batch,
    hessian_lc_batch,
)
from dense_reference import reference_batch
from instances import conformal_route_pairs

FIELDS = ("ginv", "gamma", "ricci", "scalar")


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


def _random_dense_metric(n=6, seed=5):
    """Quadratic entries with random coefficients: every slot of g, dg and
    d2g is non-zero, and g is one component."""
    rng = np.random.default_rng(seed)
    coords = tuple(f"x{i}" for i in range(n))
    x = [Coord(c) for c in coords]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = Const(2.0 if i == j else float(rng.normal()) * 0.1)
            for k in range(n):
                e = add(e, mul(Const(float(rng.normal()) * 0.2), x[k]))
                for m in range(k, n):
                    e = add(e, mul(Const(float(rng.normal()) * 0.1), mul(x[k], x[m])))
            rows[i][j] = rows[j][i] = e
    chart = Chart(coords, ((-0.4, 0.4),) * n, singular_margin=0.0)
    return MetricSpec(chart, tuple(tuple(row) for row in rows))


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
    dense = _random_dense_metric()
    return [(m, sample(m.chart, SamplePlan(count=37)))
            for m in (dense, _SIGNED_ZEROS, _TRAILING_ZERO, _BANDED, _INTERLEAVED)]


def _program(metric):
    return _batch_plan(metric).program


def _assert_matches_reference(metric, points):
    batch = curvature_batch(metric, points)
    want = reference_batch(metric, points)
    for field in FIELDS:
        got = getattr(batch, field)
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
        _, grad, hess = _field_plan(phi, metric.chart.coords).jets(points)
        want = hess - np.einsum("nkij,nk->nij", reference_batch(metric, points)["gamma"], grad)
        got = hessian_lc_batch(phi, metric, points)
        scale = max(1.0, float(np.abs(want).max()))
        assert float(np.abs(got - want).max()) <= 1e-13 * scale, metric.chart.coords
        assert np.array_equal(got, got.swapaxes(1, 2))


def test_inputs_cover_the_special_patterns():
    assert np.signbit(differentiate(_SIGNED_ZEROS.entries[0][0], "y").value)
    assert _components(_SIGNED_ZEROS) == ((0,), (1, 2))
    keys = _metric_plan(_TRAILING_ZERO).jet_program.keys
    assert keys[-1] is Const(-0.0)
    assert _batch_plan(_TRAILING_ZERO).taped == len(keys) - 1
    assert _components(_BANDED) == ((0, 1, 2), (3,))
    dense = _random_dense_metric()
    assert _components(dense) == (tuple(range(6)),)
    assert (_slot_rows(_metric_plan(dense)) >= 0).all()
    skew = dict(conformal_route_pairs())["skew"]
    assert _components(conformal_metric(skew)) == ((0, 1),)


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
    assert np.array_equal(batch.ginv_rows, [[0.5, 0.5]])
    assert not batch.ricci_rows.size and not batch.christoffel_rows.size


def test_trace_intermediates_shrink_the_dense_ricci_step():
    # with the traces Gamma^a_ae and d_a g^al inside the Ricci step's n^4
    # products, a dense n = 6 metric formed 8 328 products a point
    program = _program(_random_dense_metric())
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
    assert _components(_COUPLED) == ((0, 1), (2,))
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
