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
    assert not report.checks["mixed_ricci"]["verdict"]
    assert not report.checks["split"]["residual"]["verdict"]
    assert any("split candidates" in note for note in report.notes)


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
