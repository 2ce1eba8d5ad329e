"""Batch command line front-end.

Three subcommands: `check` runs scenario batteries (the whole catalog by
default) and writes an optional JSON report, `list` prints the scenario
table, `curvature` evaluates curvature of a built-in metric at one point.

Exit codes: 0 every verdict matched its expectation, 1 at least one
mismatch, 2 configuration or domain error (diagnostic on standard error).
Identical inputs produce byte-identical reports except for the single
"generated_at" key.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import GRAMMAR_VERSION, REPORT_SCHEMA_VERSION, __version__
from .catalog import ScenarioReport, builtin_metric, run_inline, run_scenario, scenarios
from .checkers import SamplePlan
from .constructions import joint_chart
from .errors import BadParameterError, EngineError
from .expressions import parse
from .geometry import Chart, MetricSpec, curvature


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confprod",
        description="curvature checks for conformally rescaled product metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run scenario check batteries")
    check.add_argument("--scenario", metavar="NAME",
                       help="run one scenario (default: the whole catalog)")
    check.add_argument("--param", metavar="K=V", action="append", default=[],
                       help="scenario parameter override, repeatable")
    check.add_argument("--config", metavar="PATH",
                       help="JSON run configuration (scenario or inline instance)")
    check.add_argument("--samples", type=int, default=None,
                       help="sample count per chart (default 200)")
    check.add_argument("--margin", type=float, default=None,
                       help="extra boundary stand-off for sampling (default 0)")
    check.add_argument("--tol", type=float, default=None,
                       help="equality tolerance for exact identities (default 1e-8)")
    check.add_argument("--report", metavar="PATH", help="write the JSON report here")
    check.add_argument("--verbose", action="store_true",
                       help="print per-check residuals and constants")

    lst = sub.add_parser("list", help="list catalog scenarios")
    lst.add_argument("--verbose", action="store_true", help="include summaries")

    curv = sub.add_parser("curvature", help="curvature of a built-in metric at a point")
    curv.add_argument("--kind", required=True,
                      choices=("euclidean", "sphere", "hyperbolic"))
    curv.add_argument("--dim", type=int, required=True)
    curv.add_argument("--radius", type=float, default=1.0)
    curv.add_argument("--point", required=True, metavar="C1,C2,...",
                      help="comma-separated chart coordinates")
    return parser


# --- check ------------------------------------------------------------------

def _parse_params(pairs: list[str]) -> dict[str, str]:
    # values stay text; run_scenario converts them and rejects non-finite ones
    out: dict[str, str] = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise BadParameterError(f"--param expects K=V, got '{item}'")
        out[key] = value
    return out


def _config_number(config: dict, key: str, default, kind=float):
    value = config.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise BadParameterError(f"config '{key}' needs a number, got {value!r}") from None


def _metric_from_config(obj: dict, which: str) -> MetricSpec:
    key = "coords"
    try:
        coords = tuple(str(c) for c in obj[key])
        key = "domain"
        domain = tuple((float(lo), float(hi)) for lo, hi in obj[key])
        key = "margin"
        margin = float(obj.get(key, 0.0))
        key = "entries"
        rows = tuple(tuple(str(text) for text in row) for row in obj[key])
    except KeyError:
        raise BadParameterError(f"{which} factor has no '{key}'") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParameterError(f"bad {which} factor '{key}': {exc}") from None
    chart = Chart(coords=coords, domain=domain, singular_margin=margin)
    return MetricSpec(chart, tuple(tuple(parse(text, coords) for text in row) for row in rows))


def _inline_report(config: dict, plan: SamplePlan, tolerance: float) -> ScenarioReport:
    factors = config.get("factors")
    if not isinstance(factors, list) or len(factors) != 2:
        raise BadParameterError("inline config needs exactly two factors")
    g1 = _metric_from_config(factors[0], "first")
    g2 = _metric_from_config(factors[1], "second")
    labels = config.get("labels", ["f0", "f1"])
    if not (isinstance(labels, list) and len(labels) == 2
            and all(isinstance(label, str) for label in labels)):
        raise BadParameterError(f"config 'labels' must be a pair of names, got {labels!r}")
    labels = tuple(labels)
    # run_inline rejects any other combination of phi, phi1 and phi2
    charts = {"phi": joint_chart(g1, g2, labels), "phi1": g1.chart, "phi2": g2.chart}
    kwargs = {key: parse(str(config[key]), chart.coords)
              for key, chart in charts.items() if key in config}
    return run_inline(
        g1, g2, labels=labels,
        expected_verdict=str(config.get("expect", "pass")),
        plan=plan, tolerance=tolerance, **kwargs,
    )


def _print_scenario(rep: ScenarioReport, verbose: bool) -> None:
    status = "PASS" if rep.matched else "FAIL"
    print(f"{status} {rep.name} (verdict {rep.verdict}, expected {rep.expected_verdict})")
    if not verbose:
        return
    for key, chk in rep.checks.items():
        inner = chk.get("residual", {})
        verdict = chk.get("verdict", inner.get("verdict"))
        sup = chk.get("sup_residual", inner.get("sup_residual"))
        tol = chk.get("tolerance", inner.get("tolerance"))
        detail = "" if sup is None else f" sup={sup:.3e} tol={tol:.1e}"
        print(f"  check {key}: {'ok' if verdict else 'failed'}{detail}")
    for row in rep.constants:
        measured = "missing" if row["measured"] is None else f"{row['measured']:.12g}"
        print(f"  constant {row['name']}: measured {measured}, "
              f"expected {row['expected']:.12g} [{row['source']}]"
              f" {'ok' if row['ok'] else 'MISMATCH'}")
    for note in rep.notes:
        print(f"  note: {note}")


def _cmd_check(args) -> int:
    config: dict = {}
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise BadParameterError("config must be a JSON object")
        config = loaded
    samples = _config_number(config, "samples", 200, int) if args.samples is None else args.samples
    margin = _config_number(config, "margin", 0.0) if args.margin is None else args.margin
    tolerance = _config_number(config, "tol", 1e-8) if args.tol is None else args.tol
    plan = SamplePlan(count=samples, margin=margin)
    report_path = args.report or config.get("report")

    params = config.get("params", {})
    if not isinstance(params, dict):
        raise BadParameterError(f"config 'params' must be an object, got {params!r}")
    params = dict(params)
    params.update(_parse_params(args.param))
    scenario = args.scenario or config.get("scenario")

    if "factors" in config and scenario:
        raise BadParameterError("config cannot name a scenario and define factors")
    if params and not scenario:
        # an inline instance and the whole catalog take no parameters
        raise BadParameterError("--param needs --scenario")
    if "factors" in config:
        reports = [_inline_report(config, plan, tolerance)]
    elif scenario:
        reports = [run_scenario(scenario, params, plan, tolerance)]
    else:
        reports = [run_scenario(name, None, plan, tolerance) for name in scenarios()]

    for rep in reports:
        _print_scenario(rep, args.verbose)
    matched = sum(1 for r in reports if r.matched)
    print(f"{matched}/{len(reports)} scenario verdicts matched expectations")

    if report_path:
        document = {
            "engine_version": __version__,
            "grammar_version": GRAMMAR_VERSION,
            "report_schema": REPORT_SCHEMA_VERSION,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "plan": {"count": plan.count, "margin": plan.margin,
                     "rule": plan.rule, "seed": plan.seed},
            "tolerance": tolerance,
            "all_matched": matched == len(reports),
            "scenarios": [r.to_dict() for r in reports],
        }
        try:
            text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise EngineError(f"report not written: {exc}") from None
        Path(report_path).write_text(text + "\n")
    return 0 if matched == len(reports) else 1


# --- list and curvature -----------------------------------------------------

def _cmd_list(args) -> int:
    for name, sc in scenarios().items():
        defaults = " ".join(f"{k}={v:g}" for k, v in sc.defaults) or "-"
        line = f"{name:26s} expected={sc.expected_verdict:4s} params: {defaults}"
        print(line)
        if args.verbose:
            print(f"{'':26s} {sc.summary}")
    return 0


def _matrix_lines(label: str, m) -> list[str]:
    lines = [f"{label}:"]
    for row in m:
        lines.append("  [" + ", ".join(repr(float(v)) for v in row) + "]")
    return lines


def _cmd_curvature(args) -> int:
    m = builtin_metric(args.kind, args.dim, args.radius)
    try:
        point = tuple(float(v) for v in args.point.split(","))
    except ValueError:
        raise BadParameterError(f"bad point '{args.point}'") from None
    data = curvature(m, point)
    print(f"chart: {', '.join(m.chart.coords)}")
    print(f"point: ({', '.join(repr(float(v)) for v in data.point)})")
    for line in _matrix_lines("metric", data.metric):
        print(line)
    for line in _matrix_lines("ricci", data.ricci):
        print(line)
    print(f"scalar: {data.scalar!r}")
    print(f"normalized scalar: {data.normalized_scalar!r}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "list":
            return _cmd_list(args)
        return _cmd_curvature(args)
    except (EngineError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
