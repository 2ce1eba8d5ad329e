"""Jet plans: one shared tape per metric or field, one row per distinct register.

The oracle below is the slot-by-slot symbolic assembly the plan replaced:
every value and derivative of every upper-triangle entry compiled on its
own, the derivatives by symbolic.differentiate.  The plan propagates
derivatives forward on its tape instead.  Its values must match the
oracle's bit for bit, its derivatives to |got - want| <= 1e-13 (1 + |want|),
and its zero slots must be the oracle's constant zeros.  A non-finite
derivative is named by the node of the entry whose derivative it is, and
the oracle must find that node's derivative bad at the same point.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from confprod import geometry
from confprod.catalog import get_scenario, run_scenario, scenarios
from confprod.checkers import SamplePlan
from confprod.constructions import ConformalSpec, conformal_metric, joint_sum, product
from confprod.errors import DomainError
from confprod.expressions import (
    ZERO, Const, Coord, add, compile_expr, div, evaluate, format_expr, func, mul, neg, parse,
    powc, sub)
from confprod.geometry import (
    Chart, MetricSpec, _field_plan, _metric_plan, _slot_rows, evaluation_scope, expr_values,
    metric_values)
from symbolic import differentiate


def _symbolic_slots(metric):
    """Each upper-triangle entry's (i, j) and its slot expressions: the
    value, the first derivatives by k, the second ones by (k, l), l >= k.
    A constant's derivatives are ZERO, as differentiate gives them."""
    coords = metric.chart.coords
    for i in range(metric.dim):
        for j in range(i, metric.dim):
            e = metric.entries[i][j]
            firsts = [ZERO if isinstance(e, Const) else differentiate(e, c) for c in coords]
            seconds = {(k, l): ZERO if isinstance(d, Const) else differentiate(d, coords[l])
                       for k, d in enumerate(firsts) for l in range(k, len(coords))}
            yield i, j, e, firsts, seconds


def _reference_jets(metric, pts):
    n, coords, count = metric.dim, metric.chart.coords, len(pts)
    g = np.empty((count, n, n))
    dg = np.empty((count, n, n, n))
    d2g = np.empty((count, n, n, n, n))
    compiled = {}    # an expression met again is compiled once

    def values(e):
        if e not in compiled:
            compiled[e] = compile_expr(e, coords)(pts)
        return compiled[e]

    for i, j, e, firsts, seconds in _symbolic_slots(metric):
        g[:, i, j] = g[:, j, i] = values(e)
        for k, d in enumerate(firsts):
            dg[:, i, j, k] = dg[:, j, i, k] = values(d)
        for (k, l), d in seconds.items():
            d2g[:, i, j, k, l] = d2g[:, j, i, k, l] = values(d)
            d2g[:, i, j, l, k] = d2g[:, j, i, l, k] = values(d)
    return g, dg, d2g


def _symbolic_zeros(metric):
    """Per flat jet slot, in _slot_rows's layout: is its expression a
    constant zero of either sign?"""
    n = metric.dim
    zero = [np.ones((n,) * (2 + order), dtype=bool) for order in range(3)]

    def is_zero(e):
        return isinstance(e, Const) and e.value == 0.0

    for i, j, e, firsts, seconds in _symbolic_slots(metric):
        zero[0][i, j] = zero[0][j, i] = is_zero(e)
        for k, d in enumerate(firsts):
            zero[1][i, j, k] = zero[1][j, i, k] = is_zero(d)
        for (k, l), d in seconds.items():
            for a, b in ((i, j), (j, i)):
                zero[2][a, b, k, l] = zero[2][a, b, l, k] = is_zero(d)
    return np.concatenate([z.ravel() for z in zero])


def _assert_matches_the_oracle(metric, pts, plan=None):
    plan = plan or _metric_plan(metric)
    g, dg, d2g = plan.jets(pts)
    got = (g, dg, d2g.dense(metric.dim, 4))
    want = _reference_jets(metric, pts)
    assert got[0].tobytes() == want[0].tobytes()    # bit for bit, signs of zeros too
    assert plan.values(pts).tobytes() == got[0].tobytes()
    for a, b in zip(got[1:], want[1:]):
        assert a.shape == b.shape
        assert np.all(np.abs(a - b) <= 1e-13 * (1.0 + np.abs(b))), metric.chart.coords
    assert np.array_equal(_slot_rows(plan) < 0, _symbolic_zeros(metric))


def _assert_field_matches_the_oracle(e, plan, pts):
    coords = plan.coords
    value, grad, hess = plan.jets(pts)
    hess = hess.dense(len(coords))
    assert value.tobytes() == compile_expr(e, coords)(pts).tobytes()
    assert plan.values(pts).tobytes() == value.tobytes()
    for k, c in enumerate(coords):
        d = differentiate(e, c)
        assert np.allclose(grad[:, k], compile_expr(d, coords)(pts), rtol=1e-13, atol=1e-13)
        for l in range(k, len(coords)):
            want = compile_expr(differentiate(d, coords[l]), coords)(pts)
            for got in (hess[:, k, l], hess[:, l, k]):
                assert np.allclose(got, want, rtol=1e-13, atol=1e-13), (format_expr(e), k, l)


def _plans_built_in_scope(name, params=None):
    """(metric or field, fresh plan, points) for every metric and scalar
    field one run of the scenario evaluates at kept points.  Each plan's
    program is built inside the run's scope after the scenario's own
    plans, so on a tape that already carries its registers and others."""
    geometry._field_plan.cache_clear()    # every field plan the run reads is built anew
    with evaluation_scope() as kept:
        run_scenario(name, params=params, plan=SamplePlan(count=5))
        samples = geometry._SAMPLES.get()
        assert samples.tapes and samples.rows
        at = {id(p): p for p in samples.points.values()}
        built = [(metric, _metric_plan.__wrapped__(metric), batch.points)
                 for (metric, _, _), batch in kept.items()]
        built += [(plan.entries[0][0], _field_plan.__wrapped__(plan.entries[0][0], plan.coords),
                   at[points]) for plan, points in samples.rows]
        for _, plan, _ in built:
            plan.jet_program    # built before the tape is read below
            # the chart's tape carries steps the plan's program does not read
            tape = samples.tapes[plan.coords]
            assert len(tape.keys) > tape.dim + len(plan.jet_program.fn.steps)
    return built


def _assert_same_program_as_on_a_private_tape(plan, pts):
    """Outside any scope, a plan built anew records on a tape of its own."""
    assert geometry._SAMPLES.get() is None
    a = plan.jet_program
    b = type(plan)(plan.shape, plan.entries, plan.coords).jet_program
    assert a.keys == b.keys and a.fn.steps == b.fn.steps, plan.coords
    assert len(a.scatter) == len(b.scatter) == 3
    for (rows_a, cols_a), (rows_b, cols_b) in zip(a.scatter, b.scatter):
        assert np.array_equal(rows_a, rows_b) and np.array_equal(cols_a, cols_b)
    assert a.fn(pts).tobytes() == b.fn(pts).tobytes()


def _assert_scope_plans_match(name, params=None):
    built = _plans_built_in_scope(name, params)
    assert any(isinstance(subject, MetricSpec) for subject, _, _ in built)
    assert any(not isinstance(subject, MetricSpec) for subject, _, _ in built)
    for subject, plan, pts in built:
        _assert_same_program_as_on_a_private_tape(plan, pts)
        if isinstance(subject, MetricSpec):
            _assert_matches_the_oracle(subject, pts, plan)
        else:
            _assert_field_matches_the_oracle(subject, plan, pts)
    return built


def _catalog_metrics():
    with evaluation_scope() as kept:
        for name in scenarios():
            run_scenario(name, plan=SamplePlan(count=5))
        return [(metric, batch.points) for (metric, _, _), batch in kept.items()]


def test_plan_matches_slot_by_slot_reference_on_catalog_metrics():
    batches = _catalog_metrics()
    assert len(batches) >= 10
    for metric, pts in batches:
        _assert_matches_the_oracle(metric, pts)
    # every metric and field of every scenario, its plan built in the
    # scenario's scope: the same program as on a tape of its own
    for name in scenarios():
        _assert_scope_plans_match(name)


@pytest.mark.parametrize("n", range(3, 9))
def test_plan_matches_the_symbolic_oracle_on_the_sweep_metrics(n):
    for name in ("flat_quadratic", "sphere_hyperbolic"):
        built = _assert_scope_plans_match(name, {"n1": n, "n2": n})
        # the sweep's base and rescaled metrics are among them
        assert set(_metrics(name, n)) <= {subject for subject, _, _ in built}


def test_no_jet_tape_repeats_an_expression():
    for metric, _ in _catalog_metrics():
        keys = _metric_plan(metric).jet_program.keys
        assert len(set(keys)) == len(keys)
        assert all(key is not ZERO for key in keys)    # +0.0 slots stay implicit


def test_field_plan_matches_reference_including_signed_zeros():
    # d/dy of -cos(x) - 2 folds to the constant -0.0; the plan writes it as a
    # structural +0.0 (while the tapes held derivative expressions it wrote
    # -0.0, and np.signbit(grad[:, 1]) was all true)
    coords = ("x", "y")
    e = parse("-cos(x) - 2", coords)
    assert np.signbit(differentiate(e, "y").value)
    pts = np.array([[0.3, -0.2], [-0.7, 0.9]])
    value, grad, hess = _field_plan(e, coords).jets(pts)
    hess = hess.dense(2)
    assert value.tobytes() == compile_expr(e, coords)(pts).tobytes()
    for k, c in enumerate(coords):
        d = differentiate(e, c)
        assert np.array_equal(grad[:, k], compile_expr(d, coords)(pts))
        for l, c2 in enumerate(coords):
            want = compile_expr(differentiate(d, c2), coords)(pts)
            assert np.array_equal(hess[:, k, l], want)
    assert not np.signbit(grad[:, 1]).any()


@pytest.mark.parametrize("text00,text11,node,along", [
    # the (0, 0) entry's second derivative in x is bad at x = 0, the (1, 1)
    # entry's first derivative at y = 0: the (0, 0) entry comes first
    ("2 + (x^2)^1.25", "2 + (y^2)^0.75", "(x^2)^1.25", ("x", "x")),
    # within one entry all first derivatives come before the second ones
    ("2 + (x^2)^1.25 + (y^2)^0.75", "1", "(y^2)^0.75", ("y",)),
], ids=["entry-order", "derivative-order"])
def test_non_finite_derivative_raises_the_reference_error(text00, text11, node, along):
    coords = ("x", "y")
    chart = Chart(coords=coords, domain=((-1.0, 1.0), (-1.0, 1.0)), singular_margin=0.0)
    entries = ((parse(text00, coords), Const(0.0)), (Const(0.0), parse(text11, coords)))
    metric = MetricSpec(chart, entries)
    pts = np.array([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(DomainError) as got:
        _metric_plan.__wrapped__(metric).jets(pts)
    # the tape names the node the entry holds, not a derivative expression
    assert got.value.node_text == node
    assert str(got.value) == f"non-finite derivative at (0.0, 0.0) in '{node}'"
    # the symbolic oracle agrees that this node's derivative is bad there
    d = parse(node, coords)
    for c in along:
        d = differentiate(d, c)
    with pytest.raises(DomainError):
        evaluate(d, {"x": 0.0, "y": 0.0})
    # a metric's plain values form no derivative, so they see nothing wrong
    assert np.isfinite(metric_values(metric, pts).rows).all()


def test_field_values_raise_for_a_non_finite_derivative():
    # a field's values are read from its jet rows, so a derivative that is
    # non-finite where the value is finite raises: d/dx (x^2)^0.75 is 0 inf
    # at x = 0 (while a field had a value program of its own, its values
    # were [2.353553390593274, 2.0] here)
    chart = Chart(coords=("x",), domain=((-1.0, 1.0),), singular_margin=0.0)
    e = parse("2 + (x^2)^0.75", chart.coords)
    with pytest.raises(DomainError) as got:
        expr_values(e, chart, np.array([[0.5], [0.0]]))
    assert str(got.value) == "non-finite derivative at (0.0,) in '(x^2)^0.75'"
    assert got.value.node_text == "(x^2)^0.75"


def _zero_signed_metric():
    """A metric whose off-diagonal entry is the constant -0.0."""
    coords = ("x", "y")
    chart = Chart(coords=coords, domain=((-1.0, 1.0), (-1.0, 1.0)), singular_margin=0.0)
    entries = ((parse("2 + x^2", coords), Const(-0.0)), (Const(-0.0), parse("1 + cos(y)", coords)))
    return MetricSpec(chart, entries), np.array([[0.5, 0.25], [-0.3, 0.9]])


def test_metric_values_are_the_plans_value_rows():
    # metric_values compiles the entries as values alone; its g must be the
    # jet plan's value scatter, bit for bit, signs of zeros included
    for metric, pts in [*_catalog_metrics(), _zero_signed_metric()]:
        want = _metric_plan(metric).values(pts)
        got = metric_values(metric, pts).dense(metric.dim)
        assert got.tobytes() == want.tobytes(), metric.chart.coords
    metric, pts = _zero_signed_metric()
    assert np.signbit(metric_values(metric, pts).dense(2)[:, 0, 1]).all()


def test_non_finite_constant_is_rejected_when_the_plan_is_built():
    coords = ("x",)
    chart = Chart(coords=coords, domain=((-1.0, 1.0),), singular_margin=0.0)
    metric = MetricSpec(chart, ((parse("1 + 1e400*x^2", coords),),))
    with pytest.raises(DomainError) as err:
        _metric_plan.__wrapped__(metric).values(np.array([[0.5]]))
    assert "non-finite constant inf (overflow)" in str(err.value)
    assert err.value.node_text == "inf*x^2"


# --- the regression guard: counts, not times --------------------------------

def _metrics(name, n):
    """The scenario's base product metric and its rescaled phi^-2 (g1 + g2)."""
    sc = get_scenario(name)
    values = sc.parameters()
    values.update(n1=n, n2=n)
    inst, _ = sc.build(values)
    block = product(inst.g1, inst.g2, inst.labels)
    phi = joint_sum(block, inst.phi1, inst.phi2)
    return [block.metric, conformal_metric(ConformalSpec(block, phi))]


def test_constant_slots_stay_off_the_tape():
    base, rescaled = _metrics("flat_quadratic", 5)
    assert rescaled.dim == 10
    # 55 upper-triangle entries, each with 1 value, 10 first and 55 second
    # derivative slots: 3630 slots, of which only the 10 diagonal entries'
    # 660 are not constant
    assert len(_metric_plan.__wrapped__(rescaled).jet_program.keys) <= 660
    # the flat base's +0.0 slots stay implicit and its ten diagonal 1.0
    # entries read one row; before constants went on the tape it was empty
    assert _metric_plan.__wrapped__(base).jet_program.keys == (Const(1.0),)


@pytest.mark.parametrize("n,rows", [(3, 43), (5, 87), (8, 183)])
def test_flat_quadratic_tapes_hold_each_expression_once(monkeypatch, n, rows):
    # `rows` counts the programs of the metrics and of the fields read for
    # their derivatives: the rescaled flat metric repeats phi^-2 and its
    # derivatives on every diagonal entry; one slot per tape row would make
    # these 179, 677, 2474 without the constants, and with the constants
    # written beside the tape they were 39, 83, 179; while batches were
    # computed per product factor, each one-coordinate factor of a flat base
    # had a tape of its own that held the constant 1.0: 50, 100, 205.  Each
    # plan's one program is its jets, so the two shifted summands that the
    # checks read for values alone hold n + 2 rows each (value, gradient and
    # the constant Hessian 1.0): 53, 101, 203 in all.  While those had value
    # programs, only the jet programs were counted, 43, 87, 183
    built = []
    build = geometry._JetPlan.jet_program.func
    recording = functools.cached_property(lambda plan: built.append(build(plan)) or built[-1])
    recording.__set_name__(geometry._JetPlan, "jet_program")
    monkeypatch.setattr(geometry._JetPlan, "jet_program", recording)
    for cached in vars(geometry).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    run_scenario("flat_quadratic", params={"n1": n, "n2": n}, plan=SamplePlan(count=5))
    assert sum(len(p.keys) for p in built) == rows + 2 * (n + 2)
    assert all(len(set(p.keys)) == len(p.keys) for p in built)


# --- the forward jets against differentiate, on random trees ------------------

_XY = ("x", "y")
_leaf = st.one_of(st.integers(-200, 200).map(lambda k: Const(k / 100)),
                  st.sampled_from(_XY).map(Coord))
_FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt")
_EXPONENTS = (2.0, 3.0, -1.0, -2.0, 0.5, -0.5, 1.5, 2.5, -1.5)


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        *(pairs.map(lambda t, f=f: f(*t)) for f in (add, sub, mul, div)),
        children.map(neg),
        st.tuples(st.sampled_from(_FUNCTIONS), children).map(lambda t: func(*t)),
        st.tuples(children, st.sampled_from(_EXPONENTS)).map(lambda t: powc(*t)),
    )


# grid points with 0.3 <= |x|, |y| <= 1: near an axis a quotient or
# negative power of a coordinate makes terms that cancel, and both routes
# lose the same digits there (-(y/x/y) at x = 0.0011 has d_y d_y = 0, which
# differentiate gives as 0 and the tape as -4.6e-7, where d_x d_x is 1.5e9)
_coordinate = st.tuples(st.sampled_from((-1, 1)), st.integers(300, 1000)).map(
    lambda t: t[0] * t[1] / 1000)
_point = st.tuples(_coordinate, _coordinate)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.recursive(_leaf, _extend, max_leaves=10), _point)
def test_forward_jets_match_differentiate_on_random_trees(e, p):
    # the two routes round differently: over 30 000 random trees the worst
    # difference was 2.3e-13 (1 + |want|)
    env = dict(zip(_XY, p))
    try:
        assume(math.isfinite(evaluate(e, env)))
        firsts = [differentiate(e, c) for c in _XY]
        want = [np.array([evaluate(d, env) for d in firsts]),
                np.array([[evaluate(differentiate(firsts[min(k, l)], _XY[max(k, l)]), env)
                           for l in range(2)] for k in range(2)])]
    except DomainError:
        assume(False)
    assume(all(np.isfinite(w).all() for w in want))
    _, grad, hess = _field_plan(e, _XY).jets(np.array([p]))    # never raises here
    for got, w in zip((grad[0], hess.dense(2)[0]), want):
        assert np.all(np.abs(got - w) <= 1e-10 * (1.0 + np.abs(w))), (format_expr(e), p)
