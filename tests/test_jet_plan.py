"""Jet plans: one shared tape per metric or field, one row per distinct expression.

The reference below is the slot-by-slot assembly the plan replaced: every
value and derivative of every upper-triangle entry compiled on its own.
The plan must give the same arrays bit for bit and raise the same first
DomainError.
"""

import numpy as np
import pytest

from confprod import geometry
from confprod.catalog import get_scenario, run_scenario, scenarios
from confprod.checkers import SamplePlan
from confprod.constructions import ConformalSpec, conformal_metric, joint_sum, product
from confprod.errors import DomainError
from confprod.expressions import ZERO, Const, compile_expr, differentiate, parse
from confprod.geometry import Chart, MetricSpec, _field_plan, _metric_plan, evaluation_scope


def _reference_jets(metric, pts):
    n, coords, count = metric.dim, metric.chart.coords, len(pts)
    g = np.empty((count, n, n))
    dg = np.empty((count, n, n, n))
    d2g = np.empty((count, n, n, n, n))
    for i in range(n):
        for j in range(i, n):
            e = metric.entries[i][j]
            g[:, i, j] = g[:, j, i] = compile_expr(e, coords)(pts)
            firsts = [differentiate(e, c) for c in coords]
            for k, d in enumerate(firsts):
                dg[:, i, j, k] = dg[:, j, i, k] = compile_expr(d, coords)(pts)
            for k, d in enumerate(firsts):
                for l in range(k, n):
                    v = compile_expr(differentiate(d, coords[l]), coords)(pts)
                    d2g[:, i, j, k, l] = d2g[:, j, i, k, l] = v
                    d2g[:, i, j, l, k] = d2g[:, j, i, l, k] = v
    return g, dg, d2g


def _catalog_metrics():
    with evaluation_scope() as kept:
        for name in scenarios():
            run_scenario(name, plan=SamplePlan(count=5))
        return [(metric, batch.points) for (metric, _, _), batch in kept.items()]


def test_plan_matches_slot_by_slot_reference_on_catalog_metrics():
    batches = _catalog_metrics()
    assert len(batches) >= 10
    for metric, pts in batches:
        got = _metric_plan(metric).jets(pts)
        for a, b in zip(got, _reference_jets(metric, pts)):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()  # bit for bit, signs of zeros too
        assert _metric_plan(metric).values(pts).tobytes() == got[0].tobytes()


def test_no_jet_tape_repeats_an_expression():
    for metric, _ in _catalog_metrics():
        tape = _metric_plan(metric).jet_program.tape
        assert len(set(tape)) == len(tape)
        assert all(e is not ZERO for e in tape)    # +0.0 slots stay implicit


def test_field_plan_matches_reference_including_signed_zeros():
    # d/dy of -cos(x) - 2 folds to the constant -0.0; the plan writes it as
    # the slot-by-slot path does, not as the preset +0.0
    coords = ("x", "y")
    e = parse("-cos(x) - 2", coords)
    assert np.signbit(differentiate(e, "y").value)
    pts = np.array([[0.3, -0.2], [-0.7, 0.9]])
    value, grad, hess = _field_plan(e, coords).jets(pts)
    assert value.tobytes() == compile_expr(e, coords)(pts).tobytes()
    for k, c in enumerate(coords):
        d = differentiate(e, c)
        assert grad[:, k].tobytes() == compile_expr(d, coords)(pts).tobytes()
        for l, c2 in enumerate(coords):
            want = compile_expr(differentiate(d, c2), coords)(pts)
            assert np.array_equal(hess[:, k, l], want)
    assert np.signbit(grad[:, 1]).all()


@pytest.mark.parametrize("text00,text11,bad", [
    # the (0, 0) entry's second derivative in x is bad at x = 0, the (1, 1)
    # entry's first derivative at y = 0: the (0, 0) entry comes first
    ("2 + (x^2)^1.25", "2 + (y^2)^0.75", "x"),
    # within one entry all first derivatives come before the second ones
    ("2 + (x^2)^1.25 + (y^2)^0.75", "1", "y"),
], ids=["entry-order", "derivative-order"])
def test_non_finite_derivative_raises_the_reference_error(text00, text11, bad):
    coords = ("x", "y")
    chart = Chart(coords=coords, domain=((-1.0, 1.0), (-1.0, 1.0)), singular_margin=0.0)
    entries = ((parse(text00, coords), Const(0.0)), (Const(0.0), parse(text11, coords)))
    metric = MetricSpec(chart, entries)
    pts = np.array([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(DomainError) as want:
        _reference_jets(metric, pts)
    with pytest.raises(DomainError) as got:
        _metric_plan.__wrapped__(metric).jets(pts)
    assert str(got.value) == str(want.value)
    other = ({"x", "y"} - {bad}).pop()
    assert bad in got.value.node_text and other not in got.value.node_text
    # the value-only path never differentiates, so it sees nothing wrong
    assert np.isfinite(_metric_plan.__wrapped__(metric).values(pts)).all()


def test_non_finite_constant_is_rejected_when_the_plan_is_built():
    coords = ("x",)
    chart = Chart(coords=coords, domain=((-1.0, 1.0),), singular_margin=0.0)
    metric = MetricSpec(chart, ((parse("1 + 1e400*x^2", coords),),))
    with pytest.raises(DomainError) as err:
        _metric_plan.__wrapped__(metric).values(np.array([[0.5]]))
    assert "non-finite constant inf (overflow)" in str(err.value)
    assert err.value.node_text == "inf*x^2"


# --- the regression guard: counts, not times --------------------------------

def _flat_quadratic_metrics(n):
    sc = get_scenario("flat_quadratic")
    values = sc.parameters()
    values.update(n1=n, n2=n)
    inst, _ = sc.build(values)
    block = product(inst.g1, inst.g2, inst.labels)
    phi = joint_sum(block, inst.phi1, inst.phi2)
    return block.metric, conformal_metric(ConformalSpec(block, phi))


def test_constant_slots_stay_off_the_tape(monkeypatch):
    base, rescaled = _flat_quadratic_metrics(5)
    assert rescaled.dim == 10
    seen = []

    def recording(e, coord):
        seen.append(e)
        return differentiate(e, coord)

    monkeypatch.setattr(geometry, "differentiate", recording)
    # 55 upper-triangle entries, each with 1 value, 10 first and 55 second
    # derivative slots: 3630 slots, of which only the 10 diagonal entries'
    # 660 are not constant
    assert len(_metric_plan.__wrapped__(rescaled).jet_program.tape) <= 660
    # the flat base's +0.0 slots stay implicit and its ten diagonal 1.0
    # entries read one row; before constants went on the tape it was empty
    assert _metric_plan.__wrapped__(base).jet_program.tape == (Const(1.0),)
    assert seen and not any(isinstance(e, Const) for e in seen)


@pytest.mark.parametrize("n,rows", [(3, 43), (5, 87), (8, 183)])
def test_flat_quadratic_tapes_hold_each_expression_once(monkeypatch, n, rows):
    # the rescaled flat metric repeats phi^-2 and its derivatives on every
    # diagonal entry; one slot per tape row would make these 179, 677, 2474
    # without the constants, and with the constants written beside the tape
    # they were 39, 83, 179; while batches were computed per product factor,
    # each one-coordinate factor of a flat base had a tape of its own that
    # held the constant 1.0: 50, 100, 205
    built = []
    program = geometry._JetPlan._program

    def recording(plan, order):
        built.append((order, program(plan, order)))
        return built[-1][1]

    monkeypatch.setattr(geometry._JetPlan, "_program", recording)
    for cached in vars(geometry).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    run_scenario("flat_quadratic", params={"n1": n, "n2": n}, plan=SamplePlan(count=5))
    assert sum(len(p.tape) for order, p in built if order == 2) == rows
    assert all(len(set(p.tape)) == len(p.tape) for _, p in built)
