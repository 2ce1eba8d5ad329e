"""Batch curvature on the structural-sparse contraction path.

`geometry._contraction` derives, from the patterns of g, dg and d2g alone,
which products each contraction forms; `geometry._contract` runs them on a
slot-major table of one slice of points.  The results must match the dense
contractions the path replaced (`dense_reference`) to 1e-12 relative: on
the catalog, on the conformal route pairs, on fully dense metrics and on
metrics with constant zeros of either sign.  On the sparse metrics the
catalog builds, the path must form far fewer products than the dense one.
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
    _batch_part,
    _components,
    _factors,
    _field_plan,
    _metric_plan,
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

# one 3x3 component whose (0, 2) slot is a structural zero, and a 1x1 one
_BANDED = _metric(("x", "y", "z", "w"), (
    ("2 + 0.2 * sin(y)", "0.3 * cos(x + w)", Const(0.0), Const(0.0)),
    ("0.3 * cos(x + w)", "2 + 0.1 * z^2", "0.2 * x * y", Const(0.0)),
    (Const(0.0), "0.2 * x * y", "1.5 + 0.1 * exp(0.3 * z)", Const(0.0)),
    (Const(0.0), Const(0.0), Const(0.0), "1 + 0.2 * x^2"),
))


def _special_inputs():
    dense = _random_dense_metric()
    return [(m, sample(m.chart, SamplePlan(count=37))) for m in (dense, _SIGNED_ZEROS, _BANDED)]


def _program(metric):
    """The symbolic program of a metric taken as one part."""
    return _batch_part(metric, tuple(range(metric.dim)), metric.dim).program


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
    assert _components(_BANDED) == ((0, 1, 2), (3,))
    dense = _random_dense_metric()
    assert _components(dense) == (tuple(range(6)),)
    maps, _ = _metric_plan(dense).slot_rows
    assert all((m >= 0).all() for m in maps)
    skew = dict(conformal_route_pairs())["skew"]
    assert _components(conformal_metric(skew)) == ((0, 1),)


# --- the count guard: products, not times --------------------------------------

def _cosh_cylinder_rescaled():
    inst, _ = get_scenario("cosh_cylinder").build({})
    block = product(inst.g1, inst.g2, inst.labels)
    phi = inst.phi if inst.phi is not None else joint_sum(block, inst.phi1, inst.phi2)
    return conformal_metric(ConformalSpec(block, phi))


def test_cosh_cylinder_forms_few_products():
    metric = _cosh_cylinder_rescaled()
    assert metric.dim == 6 and len(_factors(metric)) == 1
    program = _program(metric)
    products = sum(len(step.a) for step in program.steps)
    # the dense contractions do about 7 n^4 = 9072 multiply-adds a point
    assert products < 500, products


def test_programs_hold_index_arrays_only():
    for metric, _ in _special_inputs():
        program = _program(metric)
        arrays = [*program.jets, *program.reciprocals, *[a for f in program.fields for a in f],
                  *program.hessian]
        arrays += [a for b in program.blocks for a in b[1:]]
        for step in program.steps:
            arrays += [step.a, step.b, step.starts]
            # merged coefficients of the formulas: multiples of 1/2
            assert np.array_equal(step.coef * 2, np.round(step.coef * 2))
        assert all(np.issubdtype(a.dtype, np.integer) for a in arrays)


def test_one_program_per_pattern():
    # entries that differ only by a constant factor have the same pattern
    small, large = builtin_metric("sphere", 3), builtin_metric("sphere", 3, radius=2.0)
    assert small != large
    assert _program(small) is _program(large)


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
