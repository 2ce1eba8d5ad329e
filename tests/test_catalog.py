import json

import pytest

from confprod.catalog import (
    MAX_DIM,
    ExpectedConstant,
    builtin_metric,
    get_scenario,
    run_inline,
    run_scenario,
    scenarios,
)
from confprod.checkers import SamplePlan, sample
from confprod.constructions import as_metric, require_positive_factor
from confprod.errors import (
    BadParameterError,
    UnknownScenarioError,
    UnsupportedDimError,
)
from confprod.expressions import parse
from confprod.geometry import curvature
from instances import conformal_route_pairs, splitting_instances

PLAN = SamplePlan(count=60)


# --- built-in metrics ---------------------------------------------------------

def test_builtin_space_form_scalars():
    assert curvature(builtin_metric("sphere", 2), (1.0, 2.0)).scalar == pytest.approx(2.0, abs=1e-10)
    assert curvature(builtin_metric("sphere", 2, radius=2.0), (1.0, 2.0)).scalar == pytest.approx(0.5, abs=1e-10)
    assert curvature(builtin_metric("hyperbolic", 2), (0.7, 1.0)).scalar == pytest.approx(-2.0, abs=1e-10)
    assert curvature(builtin_metric("euclidean", 3), (0.1, 0.2, 0.3)).scalar == pytest.approx(0.0, abs=1e-12)


def test_builtin_charts():
    m = builtin_metric("sphere", 3)
    assert m.chart.coords == ("u1", "u2", "th")
    assert m.chart.singular_margin == 0.1
    m = builtin_metric("hyperbolic", 3)
    assert m.chart.coords == ("t", "v1", "ph")
    m = builtin_metric("euclidean", 2)
    assert m.chart.singular_margin == 0.0
    assert m.chart.domain == ((-1.5, 1.5), (-1.5, 1.5))


def test_builtin_box_override():
    m = builtin_metric("euclidean", 2, box={"x2": (0.0, 9.0)})
    assert m.chart.domain == ((-1.5, 1.5), (0.0, 9.0))
    with pytest.raises(BadParameterError):
        builtin_metric("euclidean", 2, box={"q": (0.0, 1.0)})


def test_builtin_parameter_validation():
    with pytest.raises(BadParameterError):
        builtin_metric("sphere", 2, radius=-1.0)
    with pytest.raises(BadParameterError):
        builtin_metric("torus", 2)
    with pytest.raises(UnsupportedDimError):
        builtin_metric("euclidean", 0)
    with pytest.raises(UnsupportedDimError):
        builtin_metric("euclidean", MAX_DIM + 1)


@pytest.mark.parametrize("radius", [10**200, 10**400, 1e200])
def test_builtin_rejects_a_radius_without_a_finite_square(radius):
    # an integer square too large for a float is the same parameter error
    # as a float square that overflows, not an OverflowError
    with pytest.raises(BadParameterError, match="radius must be positive with a finite square"):
        builtin_metric("sphere", 2, radius=radius)


# --- registry -----------------------------------------------------------------

def test_scenario_registry_is_stable():
    names = list(scenarios())
    assert names == sorted(names)
    assert names == [
        "cosh_cylinder",
        "doubly_twisted_einstein",
        "flat_quadratic",
        "non_splitting",
        "sphere_hyperbolic",
        "twisted_split",
        "warped_sphere",
    ]
    with pytest.raises(UnknownScenarioError):
        get_scenario("lens_space")


def test_expected_constant_bounds():
    c = ExpectedConstant("x", 10.0, 1e-6, relative=True)
    assert c.bound() == pytest.approx(1e-5)
    assert c.matches(10.0 + 5e-6) and not c.matches(10.1)
    z = ExpectedConstant("x", 0.0, 1e-6, relative=True)
    assert z.bound() == 1e-6


@pytest.mark.parametrize("name", list(scenarios()))
def test_every_scenario_matches_its_expectation(name):
    report = run_scenario(name, plan=PLAN)
    assert report.matched, report.notes
    assert report.verdict == report.expected_verdict
    for row in report.constants:
        assert row["ok"], row
        assert row["source"] in ("literature", "derived")
    payload = json.dumps(report.to_dict(), sort_keys=True)
    assert json.loads(payload)["name"] == name


def test_run_scenario_parameter_handling():
    report = run_scenario("flat_quadratic", {"n1": 1, "n2": 2, "R": 2.0}, plan=PLAN)
    assert report.matched
    assert report.measured["lambda_bar"] == pytest.approx(8.0, rel=1e-6)
    with pytest.raises(BadParameterError) as err:
        run_scenario("flat_quadratic", {"n3": 2}, plan=PLAN)
    assert "accepts" in str(err.value)
    with pytest.raises(BadParameterError):
        run_scenario("flat_quadratic", {"R": -1.0}, plan=PLAN)
    with pytest.raises(BadParameterError):
        run_scenario("flat_quadratic", {"n1": 1.5}, plan=PLAN)
    with pytest.raises(BadParameterError):
        run_scenario("twisted_split", {"amplitude": 1.5}, plan=PLAN)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_a_small_scale_keeps_its_verdict():
    # at R = 1e-8 lambda_bar = 3 R^2 is 3e-16; the absolute tolerance reads
    # round-off (2.12e-16) against it at relative 1e-6, so the run fails
    assert run_scenario("flat_quadratic", {"R": 1e-8}).matched


def test_warped_sphere_p3_and_recovery_notes():
    report = run_scenario("warped_sphere", {"p": 3}, plan=PLAN)
    assert report.matched
    assert report.measured["lambda_bar"] == pytest.approx(3.0, rel=1e-6)
    assert report.measured["lambda_fiber"] == pytest.approx(2.0, abs=1e-6)
    assert any("warped route" in note for note in report.notes)
    assert "warped_route" in report.checks


def test_non_splitting_report_shape():
    report = run_scenario("non_splitting", plan=PLAN)
    assert report.verdict == "fail" and report.matched
    assert not report.checks["mixed_ricci"].verdict
    assert not report.checks["split"].verdict
    assert any("split candidates" in note for note in report.notes)


def _check_dicts(check: dict):
    yield check
    for part in check["parts"]:
        yield from _check_dicts(part)


def test_every_check_record_has_one_shape():
    keys = {"name", "verdict", "expected", "sup", "tolerance", "mean", "witness",
            "samples", "details", "parts"}
    for name in scenarios():
        document = run_scenario(name, plan=PLAN).to_dict()
        records = [r for c in document["checks"].values() for r in _check_dicts(c)]
        assert len(records) > len(document["checks"]), name
        for record in records:
            assert set(record) == keys, (name, record["name"])
            # a leaf carries its bound, a node none
            assert (record["sup"] is None) == bool(record["parts"]), (name, record["name"])


def test_a_failed_summand_route_fails_the_scenario(monkeypatch):
    from confprod import catalog
    from confprod.errors import FitFailureError

    def failing(*args, **kwargs):
        raise FitFailureError("degenerate least-squares system")

    monkeypatch.setattr(catalog, "summand_laplacian_fit", failing)
    sc = get_scenario("flat_quadratic")
    inst, _ = sc.build(sc.parameters())
    # the inline run has no expected constants, so only the route can fail it
    for report in (run_scenario("flat_quadratic", plan=PLAN),
                   run_inline(inst.g1, inst.g2, phi1=inst.phi1, phi2=inst.phi2, plan=PLAN)):
        assert report.verdict == "fail" and not report.matched
        assert "summand fit failed: degenerate least-squares system" in report.notes
        assert "laplacian_fit" not in report.checks
        assert all(c.verdict for c in report.checks.values())


def test_run_inline_with_joint_factor():
    g1 = builtin_metric("euclidean", 1)
    g2 = builtin_metric("euclidean", 2)
    phi1 = parse("0.5 * x1^2 + 0.25", g1.chart.coords)
    phi2 = parse("0.5 * (x1^2 + x2^2) + 0.25", g2.chart.coords)
    report = run_inline(g1, g2, phi1=phi1, phi2=phi2, plan=PLAN)
    assert report.matched and report.verdict == "pass"
    assert report.measured["lambda_bar"] == pytest.approx(2.0, rel=1e-6)

    bad = run_inline(g1, g2, phi=parse("exp(f0.x1 + f1.x1)",
                                       ("f0.x1", "f1.x1", "f1.x2")),
                     expected_verdict="fail", plan=PLAN)
    assert bad.matched and bad.verdict == "fail"


def test_run_inline_validation():
    g = builtin_metric("euclidean", 1)
    phi1 = parse("x1", g.chart.coords)
    with pytest.raises(BadParameterError):
        run_inline(g, g, phi1=phi1, phi2=phi1,
                   phi=parse("f0.x1", ("f0.x1", "f1.x1")), plan=PLAN)
    with pytest.raises(BadParameterError):
        run_inline(g, g, phi1=phi1, plan=PLAN)
    with pytest.raises(BadParameterError):
        run_inline(g, g, plan=PLAN)
    with pytest.raises(BadParameterError):
        run_inline(g, g, phi2=phi1, phi=parse("f0.x1", ("f0.x1", "f1.x1")), plan=PLAN)
    with pytest.raises(BadParameterError):
        run_inline(g, g, phi1=phi1, phi2=phi1, expected_verdict="maybe", plan=PLAN)


@pytest.mark.parametrize("name", ["cosh_cylinder", "flat_quadratic", "non_splitting",
                                  "sphere_hyperbolic", "warped_sphere"])
def test_inline_run_of_a_scenario_instance_matches_the_scenario(name):
    sc = get_scenario(name)
    inst, _ = sc.build(sc.parameters())
    inline = run_inline(inst.g1, inst.g2, phi1=inst.phi1, phi2=inst.phi2, phi=inst.phi,
                        labels=inst.labels, plan=PLAN).to_dict()
    scenario = run_scenario(name, plan=PLAN).to_dict()
    for key in ("checks", "measured", "notes", "verdict"):
        assert json.dumps(inline[key], sort_keys=True) == json.dumps(scenario[key], sort_keys=True)


# --- metamorphic relations ------------------------------------------------------

# Swapping the factors, read from the constants' definitions: each factor's
# own Laplacian fit and Einstein constant go with it, so a1, b1, lambda_1 and
# a2, b2, lambda_2 trade places.  Hess(phi1) = -(a_bar phi1 + b_bar) g1 and
# Hess(phi2) = (a_bar phi2 - b_bar) g2, so with the factors swapped a_bar
# changes sign and b_bar stays, and c_bar_1 and c_bar_2 trade places.  The
# rescaled metric is the same one with its coordinates reordered, so
# lambda_bar, rho_bar and lambda_fiber stay.
_SWAPPED = {"a1": ("a2", 1.0), "a2": ("a1", 1.0), "b1": ("b2", 1.0), "b2": ("b1", 1.0),
            "lambda_1": ("lambda_2", 1.0), "lambda_2": ("lambda_1", 1.0),
            "c_bar_1": ("c_bar_2", 1.0), "c_bar_2": ("c_bar_1", 1.0), "a_bar": ("a_bar", -1.0)}


@pytest.mark.parametrize("name,params", [
    ("sphere_hyperbolic", {"n1": 3, "n2": 2}),
    ("sphere_hyperbolic", {"n1": 4, "n2": 3}),
    ("flat_quadratic", {"n1": 2, "n2": 3}),
    ("flat_quadratic", {"n1": 1, "n2": 3}),
    ("warped_sphere", {}),
])
def test_swapping_the_factors_keeps_the_verdict_and_maps_the_constants(name, params):
    sc = get_scenario(name)
    inst, _ = sc.build({**sc.parameters(), **params})
    plan = SamplePlan(count=200)
    report = run_inline(inst.g1, inst.g2, phi1=inst.phi1, phi2=inst.phi2, plan=plan)
    swapped = run_inline(inst.g2, inst.g1, phi1=inst.phi2, phi2=inst.phi1, plan=plan)
    assert swapped.verdict == report.verdict
    assert swapped.measured.keys() == report.measured.keys()
    for key, value in swapped.measured.items():
        partner, sign = _SWAPPED.get(key, (key, 1.0))
        want = sign * report.measured[partner]
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (key, value, want)


# --- fixed instance sets ------------------------------------------------------

def test_conformal_route_pairs_are_usable():
    pairs = conformal_route_pairs()
    assert len(pairs) == 10
    assert len({tag for tag, _ in pairs}) == 10
    for tag, spec in pairs:
        chart = as_metric(spec.base).chart
        values = require_positive_factor(spec, sample(chart, PLAN))
        assert values.min() > 0.0, tag


def test_splitting_instances_tagging():
    block, cases = splitting_instances()
    assert block.dim == 4
    assert sum(1 for _, _, splits in cases if splits) == 6
    assert sum(1 for _, _, splits in cases if not splits) == 4
    assert len({tag for tag, _, _ in cases}) == len(cases)
