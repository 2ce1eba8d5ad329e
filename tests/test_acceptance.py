"""End-to-end acceptance battery.

One test per shipped criterion; each prints a single summary line and then
asserts, so a verbose run reads as a checklist.  All runs use the default
200-sample plan unless the criterion itself says otherwise.
"""

import json
import time

import numpy as np
import pytest

from confprod.catalog import (
    builtin_metric,
    run_scenario,
    scenarios,
)
from confprod.checkers import (
    SamplePlan,
    mixed_ricci_flat_check,
    sample,
    split_factor,
)
from confprod.cli import main
from confprod.constructions import conformal_metric
from confprod.geometry import curvature_batch
from instances import conformal_route_pairs, splitting_instances

PLAN = SamplePlan()  # 200 samples, kronecker rule, seed 0


def _line(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def catalog_reports():
    return {name: run_scenario(name, plan=PLAN) for name in scenarios()}


def test_criterion_1_space_form_curvature():
    started = time.perf_counter()
    worst = 0.0
    for kind, sign in (("euclidean", 0.0), ("sphere", 1.0), ("hyperbolic", -1.0)):
        for dim in (2, 3, 4):
            m = builtin_metric(kind, dim)
            batch = curvature_batch(m, sample(m.chart, PLAN))
            residual = batch.ricci - sign * (dim - 1) * batch.g
            worst = max(worst, float(np.abs(residual).max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 5.0
    _line(1, ok, f"nine space forms, worst residual {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_2_conformal_route_agreement():
    from confprod.constructions import (
        as_metric,
        conformal_ricci_formula,
        conformal_scalar_formula,
    )

    worst = 0.0
    for tag, spec in conformal_route_pairs():
        gbar = conformal_metric(spec)
        pts = sample(gbar.chart, PLAN)
        direct = curvature_batch(gbar, pts)
        ric_gap = np.abs(conformal_ricci_formula(spec, pts) - direct.ricci).max()
        s_gap = np.abs(conformal_scalar_formula(spec, pts) - direct.scalar).max()
        worst = max(worst, float(ric_gap), float(s_gap))
        assert as_metric(spec.base).chart == gbar.chart
    ok = worst < 1e-9
    _line(2, ok, f"ten rescalings, formula vs direct, worst gap {worst:.3e}")
    assert ok


def test_criterion_3_flat_quadratic_family():
    worst_rel = 0.0
    worst_spread = 0.0
    worst_ab = 0.0
    all_pass = True
    for n1, n2 in ((1, 2), (2, 2), (2, 3)):
        for R in (0.5, 1.0, 2.0):
            rep = run_scenario("flat_quadratic",
                               {"n1": n1, "n2": n2, "R": R}, plan=PLAN)
            all_pass = all_pass and rep.verdict == "pass"
            want = (n1 + n2 - 1) * R * R
            worst_rel = max(worst_rel,
                            abs(rep.measured["lambda_bar"] - want) / want)
            worst_spread = max(worst_spread,
                               rep.checks["direct_einstein"]["lambda_spread"])
            worst_ab = max(worst_ab, abs(rep.measured["a_bar"]),
                           abs(rep.measured["b_bar"] + 1.0))
    ok = all_pass and worst_rel < 1e-6 and worst_spread < 1e-8 and worst_ab < 1e-6
    _line(3, ok, f"nine flat cases, lambda rel err {worst_rel:.3e}, "
                 f"spread {worst_spread:.3e}, fit constants off by {worst_ab:.3e}")
    assert all_pass
    assert worst_rel < 1e-6
    assert worst_spread < 1e-8
    assert worst_ab < 1e-6


def test_criterion_4_splitting_detection():
    block, cases = splitting_instances()
    agreed = True
    for tag, phi, splits in cases:
        mixed = mixed_ricci_flat_check(block, phi, PLAN)
        split = split_factor(phi, block, PLAN)
        agreed = agreed and mixed.verdict == splits and split.residual.verdict == splits
    _line(4, agreed, f"{len(cases)} joint factors classified by both signals")
    assert agreed


def test_criterion_5_sphere_hyperbolic_constants():
    worst = 0.0
    worst_s = 0.0
    worst_sbar = 0.0
    for b_bar in (-0.5, 0.0, 0.3):
        rep = run_scenario("sphere_hyperbolic", {"b_bar": b_bar}, plan=PLAN)
        assert rep.verdict == "pass"
        n1 = int(rep.params["n1"])
        n2 = int(rep.params["n2"])
        worst = max(
            worst,
            abs(rep.measured["a1"] - n1),
            abs(rep.measured["a2"] + n2),
            abs(rep.measured["b1"] - n1 * b_bar),
            abs(rep.measured["b2"] - n2 * b_bar),
        )
        fit = rep.checks["laplacian_fit"]
        worst_s = max(worst_s, fit["s_residual"])
        worst_sbar = max(worst_sbar, fit["sbar_residual"])
    ok = worst < 1e-6 and worst_s < 1e-8 and worst_sbar < 1e-6
    _line(5, ok, f"three offsets, fit constants off by {worst:.3e}, "
                 f"scalar residuals {worst_s:.3e}/{worst_sbar:.3e}")
    assert worst < 1e-6
    assert worst_s < 1e-8
    assert worst_sbar < 1e-6


def test_criterion_6_route_agreement(catalog_reports):
    routes = 0
    agreed = True
    for name, rep in catalog_reports.items():
        for key in ("summand_hessian", "warped_route"):
            chk = rep.checks.get(key)
            if chk is not None:
                routes += 1
                agreed = agreed and chk["verdicts_agree"]
    worst_eq = 0.0
    for name in ("flat_quadratic", "sphere_hyperbolic"):
        chk = catalog_reports[name].checks["summand_hessian"]
        worst_eq = max(worst_eq, chk["b_ratio_residual"],
                       chk["a_combination_residual"])
    ok = agreed and routes >= 4 and worst_eq < 1e-8
    _line(6, ok, f"{routes} route runs agree with the direct verdict, "
                 f"worst linkage residual {worst_eq:.3e}")
    assert agreed
    assert routes >= 4
    assert worst_eq < 1e-8


def test_criterion_7_warped_constants(catalog_reports):
    rep2 = catalog_reports["warped_sphere"]
    rep3 = run_scenario("warped_sphere", {"p": 3}, plan=PLAN)
    cyl = catalog_reports["cosh_cylinder"]
    gaps = (
        abs(rep2.measured["lambda_bar"] - 2.0) / 2.0,
        abs(rep3.measured["lambda_bar"] - 3.0) / 3.0,
        abs(cyl.measured["lambda_bar"] - 5.0) / 5.0,
    )
    ok = (rep2.matched and rep3.matched and cyl.matched and max(gaps) < 1e-6)
    _line(7, ok, f"warped constants recovered, worst rel err {max(gaps):.3e}")
    assert rep2.matched and rep3.matched and cyl.matched
    assert max(gaps) < 1e-6


def test_criterion_8_twisted_presentations(catalog_reports):
    split = catalog_reports["twisted_split"]
    einstein = catalog_reports["doubly_twisted_einstein"]
    identity_sup = split.checks["twisted_identity"]["sup_residual"]
    direct_ok = einstein.checks["direct_einstein"]["verdict"]
    not_warped = not einstein.checks["warped_presentation"]["verdict"]
    ok = identity_sup < 1e-12 and direct_ok and not_warped
    _line(8, ok, f"twist identity sup {identity_sup:.3e}, "
                 f"Einstein-but-not-warped case held")
    assert identity_sup < 1e-12
    assert direct_ok
    assert not_warped


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    started = time.perf_counter()
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for p in paths:
        code = main(["check", "--report", str(p)])
        assert code == 0
    capsys.readouterr()
    elapsed = time.perf_counter() - started

    stripped = []
    for p in paths:
        document = json.loads(p.read_text())
        assert document["all_matched"] is True
        assert len(document["scenarios"]) == 7
        stripped.append("\n".join(
            line for line in p.read_text().splitlines()
            if "generated_at" not in line
        ))
    identical = stripped[0] == stripped[1]
    ok = identical and elapsed < 60.0
    _line(9, ok, f"two full catalog runs identical modulo timestamp, {elapsed:.1f}s")
    assert identical
    assert elapsed < 60.0
