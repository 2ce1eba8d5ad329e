"""The per-run evaluation scope and the contracted Ricci tensor.

Inside `evaluation_scope()` each (metric, points) pair is evaluated once;
the direct route (rescaled metric) and the formula route (base metric)
must still never read each other's batches, and a run's report must not
depend on whether the scope shares anything.
"""

import dataclasses
import functools
import gc
import json
import weakref

import numpy as np
import pytest

from confprod import catalog, checkers, geometry
from confprod.catalog import builtin_metric, run_inline, run_scenario, scenarios
from confprod.checkers import SamplePlan, conformally_einstein_check, sample
from confprod.constructions import (
    ConformalSpec,
    conformal_metric,
    conformal_ricci_formula,
    joint_sum,
    product,
)
from confprod.errors import EmptyDomainError, OutsideDomainError
from confprod.expressions import Const, Coord, add, mul, parse
from confprod.geometry import (
    Chart,
    MetricSpec,
    Rows,
    _riemann,
    coordinate_hessian_batch,
    curvature_batch,
    evaluation_scope,
    expr_values,
    metric_values,
)
from formulas import field_jets
from instances import conformal_route_pairs

PLAN = SamplePlan(count=24)


def _flat_conformal():
    block = product(builtin_metric("euclidean", 2), builtin_metric("euclidean", 1))
    phi = parse("2 + 0.3 * sin(f0.x1) * cos(f1.x1)", block.metric.chart.coords)
    return ConformalSpec(block, phi)


def _catalog_batches():
    """Every (metric, points) batch the catalog scenarios evaluate."""
    with evaluation_scope() as kept:
        for name in scenarios():
            run_scenario(name, plan=SamplePlan(count=6))
        return dict(kept)


def _assert_ricci_is_riemann_trace(metric, points):
    batch = curvature_batch(metric, points)
    traced = np.einsum("nabad->nbd", _riemann(metric, batch))
    scale = max(1.0, float(np.abs(traced).max()))
    assert float(np.abs(batch.ricci.dense(metric.dim) - traced).max()) <= 1e-12 * scale


# --- the contracted Ricci tensor ---------------------------------------------

def test_ricci_matches_riemann_trace_on_catalog_metrics():
    batches = _catalog_batches()
    assert len({key[0] for key in batches}) >= 10
    for (metric, _, _), batch in batches.items():
        _assert_ricci_is_riemann_trace(metric, batch.points)


def test_ricci_matches_riemann_trace_on_random_jets():
    # quadratic entries with random coefficients: at a point, g, dg and d2g
    # are generic (d2g symmetric only where second partials must be)
    rng = np.random.default_rng(3)
    n = 5
    coords = tuple(f"x{i}" for i in range(n))
    x = [Coord(c) for c in coords]
    lin = rng.normal(size=(n, n, n)) * 0.2
    quad = rng.normal(size=(n, n, n, n)) * 0.1
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = Const(float(i == j) * 2.0)
            for k in range(n):
                e = add(e, mul(Const(float(lin[i, j, k])), x[k]))
                for m in range(k, n):
                    e = add(e, mul(Const(float(quad[i, j, k, m])), mul(x[k], x[m])))
            rows[i][j] = rows[j][i] = e
    chart = Chart(coords, tuple((-0.5, 0.5) for _ in coords), singular_margin=0.0)
    metric = MetricSpec(chart, tuple(tuple(row) for row in rows))
    _assert_ricci_is_riemann_trace(metric, rng.uniform(-0.4, 0.4, size=(40, n)))


# --- the scope itself --------------------------------------------------------

def test_outside_a_scope_every_call_computes():
    m = builtin_metric("sphere", 3)
    pts = sample(m.chart, PLAN)
    first, second = curvature_batch(m, pts), curvature_batch(m, pts)
    assert first is not second
    assert first.ricci.rows.flags.writeable


def test_scope_keeps_one_batch_per_metric_and_points():
    m = builtin_metric("sphere", 3)
    pts = sample(m.chart, PLAN)
    with evaluation_scope() as kept:
        first = curvature_batch(m, pts)
        assert curvature_batch(m, pts.copy()) is first
        assert curvature_batch(m, pts[:10]) is not first
        with evaluation_scope() as inner:
            assert inner is kept
            assert curvature_batch(m, pts) is first
        assert len(kept) == 2
        tensors = [first.g, first.ginv, first.christoffel, first.ricci]
        assert list(vars(first)) == ["points", "g", "ginv", "christoffel", "ricci", "scalar"]
        assert all(isinstance(t, Rows) for t in tensors)
        assert not any(a.flags.writeable for t in tensors for a in t)
        assert not first.scalar.flags.writeable
        assert pts.flags.writeable    # the caller's points stay the caller's
    assert geometry._SAMPLES.get() is None
    assert curvature_batch(m, pts) is not first


def test_field_helpers_agree_inside_and_outside_a_scope():
    # on the non-diagonal skew base, the helpers once inverted g themselves
    # outside a scope: at 200 points the raised gradient differed by 5.6e-17 and
    # |dphi|^2 by 5.4e-20
    hyperbolic = builtin_metric("hyperbolic", 3)
    skew = dict(conformal_route_pairs())["skew"]
    for m, phi, plan in (
            (hyperbolic, parse("cosh(t) + 0.2 * sin(v1)", hyperbolic.chart.coords), PLAN),
            (skew.base, skew.phi, SamplePlan(count=200))):
        pts = sample(m.chart, plan)
        plain = field_jets(phi, m, pts)[1:]
        with evaluation_scope():
            curvature_batch(m, pts)
            for name, got, want in zip(("lap", "|dphi|^2"), field_jets(phi, m, pts)[1:], plain):
                assert np.array_equal(got, want), (m.chart.coords, name)


def _clear_plan_caches():
    for cached in (geometry._field_plan, geometry._metric_plan, geometry._batch_plan):
        cached.cache_clear()


def test_tapes_and_kept_rows_are_dropped_with_the_outermost_scope(monkeypatch):
    made = []    # a weak reference to every tape built from here on
    real = geometry.Tape

    def recording(coords):
        tape = real(coords)
        made.append(weakref.ref(tape))
        return tape

    monkeypatch.setattr(geometry, "Tape", recording)
    _clear_plan_caches()
    spec = _flat_conformal()
    m = spec.base.metric
    with evaluation_scope():
        with evaluation_scope():
            pts = sample(m.chart, PLAN)
            field_jets(spec.phi, m, pts)
            samples = geometry._SAMPLES.get()
            assert set(samples.tapes) == {m.chart.coords} and len(made) == 1
            kept = [weakref.ref(rows) for rows in samples.rows.values()]
            kept += [weakref.ref(a) for arrays in samples.traces.values() for a in arrays]
            assert len(kept) == 3    # phi's jet rows, its lap and |dphi|^2
        # an inner scope shares the outer one's, and leaves it in place
        assert geometry._SAMPLES.get() is samples
        del samples
        gc.collect()
        assert all(ref() is not None for ref in made + kept)
    gc.collect()
    assert geometry._SAMPLES.get() is None
    assert all(ref() is None for ref in made + kept)
    # outside a scope each program records on a tape of its own, which no
    # compiled program holds on to, and no rows are kept
    made.clear()
    _clear_plan_caches()
    first = field_jets(spec.phi, m, pts)[1]
    assert len(made) == 2 and first.flags.writeable    # phi's jets and the metric's
    gc.collect()
    assert all(ref() is None for ref in made)
    assert field_jets(spec.phi, m, pts)[1] is not first and len(made) == 2


def test_helpers_hand_out_fresh_or_read_only_arrays():
    m = builtin_metric("hyperbolic", 3)
    phi = parse("cosh(t) + 0.2 * sin(v1) * t", m.chart.coords)
    helpers = {
        "covariant hessian": lambda pts: field_jets(phi, m, pts)[0],
        "coordinate_hessian_batch": lambda pts: coordinate_hessian_batch(phi, m.chart, pts),
        "metric_values": lambda pts: metric_values(m, pts),
        "expr_values": lambda pts: expr_values(phi, m.chart, pts),
    }
    with evaluation_scope():
        pts = sample(m.chart, PLAN)
        for name, helper in helpers.items():
            first = helper(pts)
            tensor = isinstance(first, Rows)
            values = first.rows if tensor else first
            want = values.copy()
            values[...] = np.nan    # a caller may write into what it was handed
            again = helper(pts)
            assert np.array_equal(again.rows if tensor else again, want), name
            # a tensor's slots may be shared with later calls, so they are read-only
            assert not (tensor and first.slots.flags.writeable), name
        # the traces are the kept rows themselves, so they are read-only
        for trace in field_jets(phi, m, pts)[1:]:
            assert not trace.flags.writeable
        samples = geometry._SAMPLES.get()
        kept = [rows for rows in samples.rows.values()]
        kept += [a for arrays in samples.traces.values() for a in arrays]
        assert len(kept) == 3 and not any(a.flags.writeable for a in kept)


def test_scope_samples_each_chart_and_plan_once(monkeypatch):
    m = builtin_metric("sphere", 3)
    calls = []
    real = checkers._kronecker

    def counting(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(checkers, "_kronecker", counting)
    fresh = sample(m.chart, PLAN)
    assert fresh.flags.writeable and len(calls) == 1
    with evaluation_scope():
        first = sample(m.chart, PLAN)
        assert sample(m.chart, SamplePlan(count=24)) is first
        assert not first.flags.writeable
        assert np.array_equal(first, fresh)
        assert sample(m.chart, SamplePlan(count=25)) is not first
        assert len(calls) == 3
        # the plan is validated on every call, also once its points are kept
        for _ in range(2):
            with pytest.raises(EmptyDomainError):
                sample(m.chart, SamplePlan(count=24, margin=float("nan")))
    assert sample(m.chart, PLAN) is not first and len(calls) == 4


def _is_product_scenario(name: str) -> bool:
    sc = catalog.get_scenario(name)
    return isinstance(sc.build(sc.parameters())[0], catalog.ProductConformalInstance)


@pytest.mark.parametrize("name", [n for n in sorted(scenarios()) if _is_product_scenario(n)])
def test_product_batteries_compute_batches_only_at_kept_samples(name, monkeypatch):
    at = []
    compute = geometry._compute_batch

    def recording(metric, pts):
        at.append(pts)
        return compute(metric, pts)

    monkeypatch.setattr(geometry, "_compute_batch", recording)
    with evaluation_scope():
        run_scenario(name, plan=PLAN)
        kept = list(geometry._SAMPLES.get().points.values())
    assert at and all(any(pts is k for k in kept) for pts in at)


def test_scope_checks_kept_points_against_each_chart():
    def metric(half_width):
        chart = Chart(("x", "y"), ((-half_width, half_width),) * 2, singular_margin=0.0)
        entry = parse("1 + 0.1 * x^2", chart.coords)
        return MetricSpec(chart, ((entry, Const(0.0)), (Const(0.0), parse("1", chart.coords))))

    wide, narrow = metric(2.0), metric(0.5)
    phi = parse("x * y + 0.3 * x^2", wide.chart.coords)
    with evaluation_scope():
        pts = sample(wide.chart, SamplePlan(count=40))
        for _ in range(2):
            # a kept sample, a copy of it and user input: each checked on this chart
            for points in (pts, pts.copy(), np.array([[0.25, -0.25], [0.75, 0.1]])):
                with pytest.raises(OutsideDomainError) as err:
                    field_jets(phi, narrow, points)
                assert str(err.value).endswith(
                    f"outside open box {narrow.chart.domain}"), str(err.value)
            field_jets(phi, wide, pts)
        assert geometry._SAMPLES.get().inside[id(pts)] == {wide.chart}
        with pytest.raises(OutsideDomainError) as err:
            field_jets(phi, wide, np.array([[0.0, 0.5], [3.0, 0.25]]))
        assert str(err.value) == "point (3.0, 0.25) outside open box ((-2.0, 2.0), (-2.0, 2.0))"


# --- route isolation ---------------------------------------------------------

def test_formula_route_reads_only_the_base_metric():
    spec = _flat_conformal()
    base = spec.base.metric
    pts = sample(base.chart, PLAN)
    with evaluation_scope() as kept:
        conformal_ricci_formula(spec, pts)
        assert {key[0] for key in kept} == {base}
    with evaluation_scope() as kept:
        conformally_einstein_check(spec, PLAN, lambda_bar=1.0)
        assert {key[0] for key in kept} == {base}
    with evaluation_scope() as kept:
        # without lambda_bar the direct route runs too, on its own key
        conformally_einstein_check(spec, PLAN)
        assert {key[0] for key in kept} == {base, conformal_metric(spec)}


def test_formula_route_ignores_a_poisoned_rescaled_batch():
    spec = _flat_conformal()
    rescaled = conformal_metric(spec)
    pts = sample(spec.base.metric.chart, PLAN)
    want = conformal_ricci_formula(spec, pts)
    with evaluation_scope() as kept:
        real = curvature_batch(rescaled, pts)
        kept[geometry._scope_key(rescaled, pts)] = dataclasses.replace(
            real, christoffel=Rows(np.full_like(real.christoffel.rows, np.nan),
                                   real.christoffel.slots),
            ricci=Rows(np.full_like(real.ricci.rows, np.nan), real.ricci.slots),
            scalar=np.full_like(real.scalar, np.nan))
        got = conformal_ricci_formula(spec, pts)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


# --- reports do not depend on the scope --------------------------------------

def _report_text(rep) -> str:
    return json.dumps(rep.to_dict(), sort_keys=True)


class _NoScope:
    """Stands in for geometry's one scope variable: every scope, the run's
    and each check's own, opens and closes, and nothing is ever kept."""

    def get(self):
        return None

    def set(self, value):
        return None

    def reset(self, token):
        pass


@pytest.mark.parametrize("name", sorted(scenarios()))
def test_scenario_report_is_identical_without_the_scope(name, monkeypatch):
    shared = _report_text(run_scenario(name, plan=PLAN))
    monkeypatch.setattr(geometry, "_SAMPLES", _NoScope())
    assert _report_text(run_scenario(name, plan=PLAN)) == shared


def test_inline_report_is_identical_without_the_scope(monkeypatch):
    g1, g2 = builtin_metric("euclidean", 1), builtin_metric("euclidean", 2)

    def run():
        return _report_text(run_inline(
            g1, g2, phi1=parse("0.5 * x1^2 + 0.25", g1.chart.coords),
            phi2=parse("0.5 * (x1^2 + x2^2) + 0.25", g2.chart.coords), plan=PLAN))

    shared = run()
    monkeypatch.setattr(geometry, "_SAMPLES", _NoScope())
    assert run() == shared


# --- work done once per run ----------------------------------------------------

def _tape_evaluations(monkeypatch) -> list:
    """(plan, points) of each jet-program evaluation from here on, in
    order; the plan caches are cleared, so every program is built, and
    counted, anew."""
    runs = []
    build = geometry._JetPlan.jet_program.func

    def recording(plan):
        built = build(plan)
        fn = built.fn

        def evaluating(points):
            runs.append((plan, points))
            return fn(points)

        return built._replace(fn=evaluating)

    program = functools.cached_property(recording)
    program.__set_name__(geometry._JetPlan, "jet_program")
    monkeypatch.setattr(geometry._JetPlan, "jet_program", program)
    _clear_plan_caches()
    return runs


def _field_tape_passes(runs) -> int:
    """Tape evaluations of a scalar field's program."""
    return sum(1 for plan, _ in runs if plan.shape == ())


def test_field_consumers_run_one_jet_pass_each(monkeypatch):
    runs = _tape_evaluations(monkeypatch)
    run_scenario("sphere_hyperbolic", plan=PLAN)
    # one each for phi at the joint points and phi1, phi2 at the factors'
    # points: the conformal formula, the mixed-Ricci partials and the factor
    # identity read phi's kept jet rows, and the two summand routes phi1's
    # and phi2's; two more for the shifted summands that the checks read
    # for values alone.  With a pass per consumer this was 7 jet passes, with
    # one pass per field helper call 13, and while a field read for values
    # had a value program apart from its jets, 8 tape passes (3 of them jet
    # passes)
    assert _field_tape_passes(runs) == 5


def test_phi_values_are_evaluated_once_per_chart_and_points(monkeypatch):
    runs = _tape_evaluations(monkeypatch)
    sc = catalog.get_scenario("sphere_hyperbolic")
    inst, _ = sc.build(sc.parameters())
    phi = joint_sum(product(inst.g1, inst.g2, inst.labels), inst.phi1, inst.phi2)
    run_scenario("sphere_hyperbolic", plan=PLAN)
    phi_runs = [id(points) for plan, points in runs
                if plan.shape == () and plan.entries[0][0] is phi]
    # the catalog's route choice, the conformal formula, the mixed-Ricci
    # cross-check and the factor identity read phi's values at the joint
    # points, and three consumers its jets (five value passes and three jet
    # passes before the scope kept field rows; a value pass and then a jet
    # pass while a field had a value program apart from its jets): its jet
    # program runs once, whose rows serve every read
    assert len(phi_runs) == 1


def test_summand_values_are_evaluated_once_per_factor(monkeypatch):
    runs = _tape_evaluations(monkeypatch)
    sc = catalog.get_scenario("sphere_hyperbolic")
    inst, _ = sc.build(sc.parameters())
    tested = []
    spread = checkers.summand_spread

    def recording(phi, metric, plan):
        tested.append(phi)
        return spread(phi, metric, plan)

    monkeypatch.setattr(checkers, "summand_spread", recording)
    monkeypatch.setattr(catalog, "summand_spread", recording)
    run_scenario("sphere_hyperbolic", plan=PLAN)
    # the two summand routes, the catalog's route choice and the factor
    # identity each test phi2 for constancy on g2's points; its jet program
    # runs once, and every later test and the summand routes read the rows
    # the scope keeps (while a field had a value program apart from its
    # jets, that ran once and the jet program once: two passes)
    assert sum(phi is inst.phi2 for phi in tested) == 4
    phi2_runs = [points for plan, points in runs
                 if plan.shape == () and plan.entries[0][0] is inst.phi2]
    assert len(phi2_runs) == 1
    assert phi2_runs[0].shape == (PLAN.count, inst.g2.dim)


def test_the_library_example_computes_each_batch_and_field_once(monkeypatch):
    # README's "Library use" example, outside any scope of the caller's
    block = product(builtin_metric("euclidean", 2), builtin_metric("euclidean", 2))
    phi = parse("0.5*(f0.x1^2 + f0.x2^2 + f1.x1^2 + f1.x2^2) + 0.25",
                block.metric.chart.coords)
    computed = []
    compute = geometry._compute_batch

    def recording(metric, pts):
        computed.append(metric)
        return compute(metric, pts)

    monkeypatch.setattr(geometry, "_compute_batch", recording)
    runs = _tape_evaluations(monkeypatch)
    report = conformally_einstein_check(ConformalSpec(block.metric, phi), SamplePlan(count=120))
    assert report.verdict and abs(report.details["lambda_bar"] - 1.5) < 1e-12
    # the check opens a scope of its own: one batch each for the rescaled
    # and the base metric, and one jet pass of phi that the positivity test
    # and the formula route share.  Without it, the formula route computed
    # the base metric's batch a second time for phi's Hessian, and each
    # reader of phi ran its program: 3 batches and 3 passes
    assert computed == [conformal_metric(ConformalSpec(block.metric, phi)), block.metric]
    assert _field_tape_passes(runs) == 1


def test_custom_labels_compute_the_same_batches(monkeypatch):
    g1 = builtin_metric("sphere", 2, box={"u1": (0.0, 2.6)})
    g2 = builtin_metric("hyperbolic", 2, box={"t": (0.4, 1.6)})
    phi1 = parse("-cos(u1) - 0.3", g1.chart.coords)
    phi2 = parse("cosh(t) + 0.3", g2.chart.coords)
    computed = []
    compute = geometry._compute_batch

    def recording(metric, pts):
        computed.append(metric)
        return compute(metric, pts)

    monkeypatch.setattr(geometry, "_compute_batch", recording)
    counts = []
    for labels in (("f0", "f1"), ("a", "b")):
        computed.clear()
        rep = run_inline(g1, g2, phi1=phi1, phi2=phi2, labels=labels,
                         plan=SamplePlan(count=50))
        assert rep.matched
        counts.append(len(computed))
    # the two factors, the product and the rescaled product; the checks once
    # rebuilt the last two under the default labels, 6 batches with a/b
    assert counts == [4, 4]
