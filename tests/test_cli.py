import json

import pytest

from confprod.cli import main

FAST = ["--samples", "60"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- list --------------------------------------------------------------------

def test_list_is_alphabetical(capsys):
    code, out, err = run(capsys, "list")
    assert code == 0 and err == ""
    names = [line.split()[0] for line in out.splitlines()]
    assert names == sorted(names)
    assert "twisted_split" in names
    assert "expected=fail" in out  # non_splitting is the designed negative

    code, verbose_out, _ = run(capsys, "list", "--verbose")
    assert code == 0
    assert len(verbose_out.splitlines()) == 2 * len(names)


# --- check -------------------------------------------------------------------

def test_check_single_scenario(capsys):
    code, out, _ = run(capsys, "check", "--scenario", "warped_sphere", *FAST)
    assert code == 0
    assert "PASS warped_sphere (verdict pass, expected pass)" in out
    assert out.strip().endswith("1/1 scenario verdicts matched expectations")


def test_check_whole_catalog(capsys):
    code, out, _ = run(capsys, "check", *FAST)
    assert code == 0
    assert "7/7 scenario verdicts matched expectations" in out
    assert out.count("PASS ") == 7


def test_check_verbose_details(capsys):
    code, out, _ = run(capsys, "check", "--scenario", "sphere_hyperbolic",
                       "--verbose", *FAST)
    assert code == 0
    assert "check direct_einstein: ok" in out
    assert "check summand_hessian: ok" in out
    assert "constant a_bar: measured" in out
    assert "[literature]" in out and "[derived]" in out


def test_check_parameter_override(capsys):
    code, out, _ = run(capsys, "check", "--scenario", "flat_quadratic",
                       "--param", "R=2", "--param", "n1=1", *FAST)
    assert code == 0 and "PASS flat_quadratic" in out


def test_check_reports_a_mismatch(capsys):
    # zero amplitude degenerates the twist, so the warped-form claim flips
    code, out, _ = run(capsys, "check", "--scenario", "twisted_split",
                       "--param", "amplitude=0", *FAST)
    assert code == 1
    assert "FAIL twisted_split (verdict fail, expected pass)" in out


def test_check_error_paths(capsys):
    code, _, err = run(capsys, "check", "--scenario", "lens_space", *FAST)
    assert code == 2 and "unknown scenario 'lens_space'" in err

    code, _, err = run(capsys, "check", "--param", "R=2", *FAST)
    assert code == 2 and "--param needs --scenario" in err

    code, _, err = run(capsys, "check", "--scenario", "flat_quadratic",
                       "--param", "R", *FAST)
    assert code == 2 and "expects K=V" in err

    code, _, err = run(capsys, "check", "--scenario", "flat_quadratic",
                       "--param", "R=two", *FAST)
    assert code == 2 and "needs a number" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_check_rejects_bad_tolerance(tol, tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "check", "--tol", tol, "--report", str(report), *FAST)
    assert code == 2 and "tolerance must be a finite positive number" in err
    assert out == "" and not report.exists()


@pytest.mark.parametrize("param,message", [
    ("R=nan", "parameter 'R' must be a finite number, got nan"),
    ("R=inf", "parameter 'R' must be a finite number, got inf"),
    ("R=1e200", "non-finite constant inf (overflow)"),
    ("n1=nan", "parameter 'n1' must be a finite number, got nan"),
], ids=["R-nan", "R-inf", "R-overflow", "n1-nan"])
def test_check_rejects_non_finite_parameters(param, message, tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "check", "--scenario", "flat_quadratic",
                         "--param", param, "--report", str(report), *FAST)
    assert code == 2 and message in err
    assert out == "" and not report.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--samples", "1", "samples must be at least 3, the affine-fit minimum, got 1"),
    ("--samples", "2", "samples must be at least 3, the affine-fit minimum, got 2"),
    ("--margin", "nan", "margin must be a finite number >= 0, got nan"),
    ("--margin", "-1", "margin must be a finite number >= 0, got -1.0"),
    ("--margin", "inf", "margin must be a finite number >= 0, got inf"),
], ids=["samples-1", "samples-2", "margin-nan", "margin-negative", "margin-inf"])
def test_check_rejects_bad_sample_plan(flag, value, message, tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "check", flag, value, "--report", str(report))
    assert code == 2 and message in err
    assert out == "" and not report.exists()


@pytest.mark.parametrize("argv,message", [
    (["--param", "n1=1e9"], "n1 must be at most 32, got 1e+09"),
    (["--param", "n2=33"], "n2 must be at most 32, got 33"),
    (["--samples", "1000001"], "samples must be at most 1000000, got 1000001"),
    (["--param", "R=1e100"], "phi^-2 = 0 (underflow)"),
], ids=["dim-1e9", "dim-33", "samples-above-max", "factor-underflow"])
def test_check_rejects_out_of_range_inputs(argv, message, tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "check", "--scenario", "flat_quadratic", "--samples", "20",
                         *argv, "--report", str(report))
    assert code == 2 and message in err
    assert out == "" and not report.exists()


def test_large_offset_conformal_factor_fits(capsys):
    # phi = R^2/4 + |x|^2/2 is about 2.5e5 plus an O(1) variation at R = 1e3
    code, out, err = run(capsys, "check", "--scenario", "flat_quadratic", "--samples", "20",
                         "--param", "R=1e3")
    assert code == 0, err
    assert "1/1 scenario verdicts matched expectations" in out


def test_three_samples_match_expectations(capsys):
    code, out, _ = run(capsys, "check", "--samples", "3")
    assert code == 0
    assert "7/7 scenario verdicts matched expectations" in out


def test_report_rejects_non_finite_values(tmp_path, capsys, monkeypatch):
    from confprod import cli

    real = cli.run_scenario

    def with_nan(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.measured["lambda_bar"] = float("nan")
        return rep

    monkeypatch.setattr(cli, "run_scenario", with_nan)
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "check", "--scenario", "warped_sphere",
                       "--report", str(report), *FAST)
    assert code == 2 and "report not written" in err
    assert not report.exists()


def test_bad_flags_exit_through_argparse(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "--bogus"])
    assert err.value.code == 2
    capsys.readouterr()


def test_report_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(capsys, "check", "--scenario", "flat_quadratic",
                         "--report", str(p), *FAST)
        assert code == 0
    texts = [
        "\n".join(line for line in p.read_text().splitlines()
                  if "generated_at" not in line)
        for p in paths
    ]
    assert texts[0] == texts[1]

    document = json.loads(paths[0].read_text())
    assert document["all_matched"] is True
    assert document["plan"] == {"count": 60, "margin": 0.0,
                                "rule": "kronecker", "seed": 0}
    assert document["report_schema"] == "1"
    assert document["scenarios"][0]["name"] == "flat_quadratic"
    for row in document["scenarios"][0]["constants"]:
        assert row["tolerance"] > 0


# --- config files ------------------------------------------------------------

def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


INLINE_FACTORS = [
    {"coords": ["x1"], "domain": [[-1.5, 1.5]], "entries": [["1"]]},
    {"coords": ["x1", "x2"], "domain": [[-1.5, 1.5], [-1.5, 1.5]],
     "entries": [["1", "0"], ["0", "1"]]},
]


def test_config_inline_instance(tmp_path, capsys):
    path = _write(tmp_path, "inline.json", {
        "factors": INLINE_FACTORS,
        "phi1": "0.5 * x1^2 + 0.25",
        "phi2": "0.5 * (x1^2 + x2^2) + 0.25",
        "samples": 60,
    })
    code, out, _ = run(capsys, "check", "--config", path)
    assert code == 0
    assert "PASS inline (verdict pass, expected pass)" in out


def test_config_inline_joint_factor(tmp_path, capsys):
    path = _write(tmp_path, "joint.json", {
        "factors": INLINE_FACTORS,
        "phi": "exp(f0.x1 + f1.x1)",
        "expect": "fail",
        "samples": 60,
    })
    code, out, _ = run(capsys, "check", "--config", path)
    assert code == 0
    assert "PASS inline (verdict fail, expected fail)" in out


def test_config_scenario_form(tmp_path, capsys):
    path = _write(tmp_path, "scenario.json", {
        "scenario": "flat_quadratic",
        "params": {"R": 2.0},
        "samples": 60,
    })
    code, out, _ = run(capsys, "check", "--config", path)
    assert code == 0 and "PASS flat_quadratic" in out


def test_config_errors(tmp_path, capsys):
    bad_expr = _write(tmp_path, "bad_expr.json", {
        "factors": INLINE_FACTORS, "phi1": "0.5 *", "phi2": "x1",
    })
    code, _, err = run(capsys, "check", "--config", bad_expr)
    assert code == 2 and "unexpected end of input" in err

    conflict = _write(tmp_path, "conflict.json", {
        "factors": INLINE_FACTORS, "phi1": "x1", "phi2": "x1",
        "scenario": "flat_quadratic",
    })
    code, _, err = run(capsys, "check", "--config", conflict)
    assert code == 2 and "cannot name a scenario" in err

    not_object = tmp_path / "array.json"
    not_object.write_text("[1, 2]")
    code, _, err = run(capsys, "check", "--config", str(not_object))
    assert code == 2 and "JSON object" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    code, _, err = run(capsys, "check", "--config", str(broken))
    assert code == 2 and "error:" in err

    code, _, err = run(capsys, "check", "--config", str(tmp_path / "missing.json"))
    assert code == 2 and "error:" in err

    one = INLINE_FACTORS[0]
    for extra, factor, message in [
        ({"labels": 5}, one, "config 'labels' must be a pair of names, got 5"),
        ({}, {**one, "entries": 5}, "bad first factor 'entries': 'int' object is not iterable"),
        ({}, {**one, "margin": "nan"}, "singular margin must be a finite number >= 0, got nan"),
        ({}, {**one, "domain": [[-1.5, "inf"]]}, "interval (-1.5, inf) of 'x1' needs finite bounds"),
        ({}, {"domain": one["domain"], "entries": one["entries"]}, "first factor has no 'coords'"),
    ]:
        path = _write(tmp_path, "factor.json", {
            "factors": [factor, INLINE_FACTORS[1]], "phi1": "x1", "phi2": "x1", **extra,
        })
        code, out, err = run(capsys, "check", "--config", path)
        assert code == 2 and message in err and out == "", message


@pytest.mark.parametrize("tol,message", [
    (float("nan"), "tolerance must be a finite positive number, got nan"),
    (-1.0, "tolerance must be a finite positive number, got -1.0"),
    (1e400, "tolerance must be a finite positive number, got inf"),
    ("tight", "config 'tol' needs a number, got 'tight'"),
], ids=["nan", "negative", "infinite", "text"])
def test_config_rejects_bad_tolerance(tol, message, tmp_path, capsys):
    report = tmp_path / "report.json"
    path = _write(tmp_path, "tol.json", {
        "scenario": "flat_quadratic", "tol": tol, "samples": 60, "report": str(report),
    })
    code, out, err = run(capsys, "check", "--config", path)
    assert code == 2 and message in err
    assert out == "" and not report.exists()


@pytest.mark.parametrize("key,value,message", [
    ("samples", 2, "samples must be at least 3"),
    ("margin", -1.0, "margin must be a finite number >= 0, got -1.0"),
    ("margin", float("nan"), "margin must be a finite number >= 0, got nan"),
    ("params", {"R": float("nan")}, "parameter 'R' must be a finite number, got nan"),
    ("params", {"R": "wide"}, "parameter 'R' needs a number, got 'wide'"),
    ("params", [1, 2], "config 'params' must be an object, got [1, 2]"),
    ("params", {"R": 10 ** 400}, "parameter 'R' must be a finite number, got inf"),
    ("samples", 1e400, "config 'samples' needs a number"),
    ("samples", 10 ** 400, "samples must be at most 1000000"),
    ("params", {"n1": 10 ** 9}, "n1 must be at most 32"),
], ids=["samples", "margin-negative", "margin-nan", "param-nan", "param-text", "params-list",
        "param-huge-integer", "samples-infinite", "samples-huge-integer", "dim-huge"])
def test_config_rejects_bad_plan_and_parameters(key, value, message, tmp_path, capsys):
    report = tmp_path / "report.json"
    config = {"scenario": "flat_quadratic", "samples": 60, "report": str(report)}
    config[key] = value
    code, out, err = run(capsys, "check", "--config", _write(tmp_path, "bad.json", config))
    assert code == 2 and message in err
    assert out == "" and not report.exists()


def test_config_inline_rejects_too_few_samples(tmp_path, capsys):
    path = _write(tmp_path, "inline.json", {
        "factors": INLINE_FACTORS, "phi1": "x1", "phi2": "x1", "samples": 2,
    })
    code, out, err = run(capsys, "check", "--config", path)
    assert code == 2 and "samples must be at least 3" in err and out == ""


@pytest.mark.parametrize("extra,cli", [
    ({}, ["--param", "R=abc"]),
    ({"params": {"R": "abc"}}, []),
], ids=["cli-param", "config-params"])
def test_inline_config_takes_no_parameters(extra, cli, tmp_path, capsys):
    report = tmp_path / "report.json"
    path = _write(tmp_path, "inline.json", {
        "factors": INLINE_FACTORS, "phi1": "x1", "phi2": "x1", "samples": 60,
        "report": str(report), **extra,
    })
    code, out, err = run(capsys, "check", "--config", path, *cli)
    assert code == 2 and "--param needs --scenario" in err
    assert out == "" and not report.exists()


# --- curvature ---------------------------------------------------------------

def test_curvature_flat_origin(capsys):
    code, out, _ = run(capsys, "curvature", "--kind", "euclidean", "--dim", "2",
                       "--point", "0,0")
    assert code == 0
    assert "scalar: 0.0" in out
    assert "chart: x1, x2" in out


def test_curvature_sphere_scalar(capsys):
    code, out, _ = run(capsys, "curvature", "--kind", "sphere", "--dim", "2",
                       "--point", "1.0,2.0")
    assert code == 0
    lines = dict(
        line.split(": ", 1) for line in out.splitlines() if ": " in line
    )
    assert float(lines["scalar"]) == pytest.approx(2.0, abs=1e-12)
    assert float(lines["normalized scalar"]) == pytest.approx(1.0, abs=1e-12)


def test_curvature_rejects_bad_points(capsys):
    code, _, err = run(capsys, "curvature", "--kind", "sphere", "--dim", "2",
                       "--point", "5.0,1.0")
    assert code == 2 and "outside open box" in err
    code, _, err = run(capsys, "curvature", "--kind", "euclidean", "--dim", "2",
                       "--point", "0,zero")
    assert code == 2 and "bad point" in err
    code, _, err = run(capsys, "curvature", "--kind", "euclidean", "--dim", "2",
                       "--point", "0")
    assert code == 2
    code, out, err = run(capsys, "curvature", "--kind", "sphere", "--dim", "33",
                         "--point", "1")
    assert code == 2 and "dimension must be between 1 and 32, got 33" in err and out == ""
