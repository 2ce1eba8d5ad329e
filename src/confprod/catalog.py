"""Built-in coordinate metrics and the scenario registry.

A scenario bundles a concrete product metric, a conformal factor (or a
doubly twisted presentation), the constants it should produce, and whether
the full check battery is expected to pass.  Expected constants carry a
`source` tag: "literature" for values taken from published results,
"derived" for values worked out independently for this catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .checkers import (
    NONCONSTANT_SPREAD,
    Check,
    SamplePlan,
    _entry_sup,
    _residual,
    conformally_einstein_check,
    einstein_check,
    factor_hessian_check,
    mixed_ricci_flat_check,
    sample,
    split_factor,
    summand_hessian_check,
    summand_laplacian_fit,
    summand_spread,
    warped_einstein_check,
    warped_presentation_check,
)
from .constructions import (
    ConformalSpec,
    DoublyTwistedSpec,
    WarpedSpec,
    conformal_metric,
    doubly_twisted_metric,
    joint_sum,
    product,
    reciprocal,
    require_positive_factor,
    scaled,
    twisted_metric,
)
from .errors import (
    BadParameterError,
    ConstantSummandError,
    FitFailureError,
    IllConditionedFitError,
    UnknownScenarioError,
    UnsupportedDimError,
)
from .expressions import Const, Coord, Expr, add, div, evaluate, func, mul, neg, parse, powc, sub
from .geometry import Chart, MetricSpec, curvature_batch, evaluation_scope, metric_values


# --- built-in metrics -------------------------------------------------------

# largest factor dimension a scenario or a built-in metric accepts; a kept
# batch's Christoffel rows grow as samples x n^3, and the jet tapes and the
# symbolic contraction work as n^4
MAX_DIM = 32


def builtin_metric(kind: str, dim: int, radius: float = 1.0,
                   box: Optional[dict[str, tuple[float, float]]] = None) -> MetricSpec:
    """Euclidean box, round sphere, or hyperbolic space in polar coordinates.

    `box` overrides the default coordinate intervals by name; the charts keep
    their singular margins, so overrides only need to avoid the closures.
    """
    if not 1 <= dim <= MAX_DIM:
        raise UnsupportedDimError(f"dimension must be between 1 and {MAX_DIM}, got {dim}")
    # `not radius > 0` also catches nan; a square that is not finite would
    # surface as a constant-folding error far from its cause, and an integer
    # square too large for a float would raise OverflowError
    try:
        square = float(radius * radius)
    except OverflowError:
        square = math.inf
    if not (radius > 0 and math.isfinite(square)):
        raise BadParameterError(f"radius must be positive with a finite square, got {radius}")
    r2 = Const(square)
    if kind == "euclidean":
        coords = tuple(f"x{i}" for i in range(1, dim + 1))
        domain = tuple((-1.5, 1.5) for _ in coords)
        margin = 0.0
        diag: list[Expr] = [r2] * dim
    elif kind == "sphere":
        # polar angles u1..u_{dim-1}, azimuth th; entry k picks up sin^2 of
        # every angle before it
        coords = tuple(f"u{i}" for i in range(1, dim)) + ("th",)
        domain = tuple((0.0, math.pi) for _ in range(dim - 1)) + ((0.0, 2 * math.pi),)
        margin = 0.1
        diag = []
        for k in range(dim):
            e: Expr = r2
            for j in range(1, k + 1):
                e = mul(e, powc(func("sin", Coord(f"u{j}")), 2.0))
            diag.append(e)
    elif kind == "hyperbolic":
        coords = ("t",) + tuple(f"v{i}" for i in range(1, dim - 1)) + (("ph",) if dim > 1 else ())
        domain = ((0.0, 1.5),) + tuple((0.0, math.pi) for _ in range(dim - 2)) + (
            ((0.0, 2 * math.pi),) if dim > 1 else ())
        margin = 0.1
        diag = [r2]
        for k in range(1, dim):
            e = mul(r2, powc(func("sinh", Coord("t")), 2.0))
            for j in range(1, k):
                e = mul(e, powc(func("sin", Coord(f"v{j}")), 2.0))
            diag.append(e)
    else:
        raise BadParameterError(f"unknown metric kind '{kind}'")
    if box:
        unknown = set(box) - set(coords)
        if unknown:
            raise BadParameterError(f"box overrides unknown coordinates {sorted(unknown)}")
        domain = tuple(
            tuple(box[c]) if c in box else d for c, d in zip(coords, domain)
        )
    chart = Chart(coords=coords, domain=domain, singular_margin=margin)
    entries = tuple(
        tuple(diag[i] if i == j else Const(0.0) for j in range(dim)) for i in range(dim)
    )
    return MetricSpec(chart, entries)


# --- scenario plumbing ------------------------------------------------------

@dataclass(frozen=True)
class ExpectedConstant:
    name: str
    value: float
    tolerance: float = 1e-6
    source: str = "derived"
    relative: bool = False

    def bound(self) -> float:
        if self.relative and self.value != 0.0:
            return self.tolerance * abs(self.value)
        return self.tolerance

    def matches(self, measured: float) -> bool:
        return abs(measured - self.value) <= self.bound()


@dataclass
class ProductConformalInstance:
    """Product g1 x g2 rescaled by phi^-2.

    Scenarios that genuinely split provide the summands; a scenario given
    only the joint factor has them recovered by the split check first, and
    the downstream routes then judge the recovered candidates.
    """

    g1: MetricSpec
    g2: MetricSpec
    phi1: Optional[Expr] = None
    phi2: Optional[Expr] = None
    phi: Optional[Expr] = None
    labels: tuple[str, str] = ("f0", "f1")


@dataclass
class TwistedInstance:
    """Doubly twisted presentation with its two structural claims."""

    spec: DoublyTwistedSpec
    expect_einstein: bool
    expect_warped_form: bool


@dataclass(frozen=True)
class Scenario:
    name: str
    summary: str
    defaults: tuple[tuple[str, float], ...]
    expected_verdict: str
    build: Callable[[dict], tuple]

    def parameters(self) -> dict[str, float]:
        return dict(self.defaults)


@dataclass
class ScenarioReport:
    name: str
    summary: str
    params: dict
    expected_verdict: str
    verdict: str
    matched: bool
    checks: dict[str, Check]
    constants: list[dict]
    measured: dict[str, float]
    notes: list[str]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "summary": self.summary,
            "params": dict(self.params),
            "expected_verdict": self.expected_verdict,
            "verdict": self.verdict,
            "matched": self.matched,
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
            "constants": list(self.constants),
            "measured": {k: self.measured[k] for k in sorted(self.measured)},
            "notes": list(self.notes),
        }


def _require_tolerance(name: str, value: float) -> None:
    # a nan or non-positive tolerance would fail every check and read as a verdict
    if not (math.isfinite(value) and value > 0):
        raise BadParameterError(f"{name} must be a finite positive number, got {value}")


def _param_value(key: str, value) -> float:
    try:
        if isinstance(value, bool):  # JSON true would read as 1
            raise TypeError
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    except (TypeError, ValueError):
        raise BadParameterError(f"parameter '{key}' needs a number, got {value!r}") from None
    if not math.isfinite(number):
        raise BadParameterError(f"parameter '{key}' must be a finite number, got {number}")
    return number


def _dim(params: dict, key: str) -> int:
    v = params[key]
    if v != int(v) or int(v) < 1:
        raise BadParameterError(f"{key} must be a positive integer, got {v}")
    if v > MAX_DIM:
        raise BadParameterError(f"{key} must be at most {MAX_DIM}, got {v:g}")
    return int(v)


# --- batteries --------------------------------------------------------------
#
# A battery returns its checks as records named for the report, the
# measured constants, the notes and whether a summand route failed to run.
# The scenario's checks pass by the record rule: each one that carries an
# expectation matches it.

def _run_product_conformal(inst: ProductConformalInstance, plan: SamplePlan,
                           tolerance: float):
    checks: list[Check] = []
    measured: dict[str, float] = {}
    notes: list[str] = []
    block = product(inst.g1, inst.g2, inst.labels)
    if inst.phi is None:
        phi1, phi2 = inst.phi1, inst.phi2
        phi = joint_sum(block, phi1, phi2)
    else:
        phi = inst.phi
        phi1 = phi2 = None
    spec = ConformalSpec(block, phi)
    n = block.dim

    require_positive_factor(spec, sample(block.metric.chart, plan))
    direct = einstein_check(conformal_metric(spec), plan, tolerance)
    lambda_bar = direct.details["lambda_hat"]
    checks.append(direct.named("direct_einstein"))
    measured["lambda_bar"] = lambda_bar
    if n > 1:
        measured["rho_bar"] = lambda_bar / (n - 1)

    residual = conformally_einstein_check(spec, plan, lambda_bar=lambda_bar,
                                          tolerance=tolerance)
    checks.append(residual.named("conformal_residual"))
    checks.append(mixed_ricci_flat_check(block, phi, plan, tolerance).named("mixed_ricci"))
    split, split1, split2 = split_factor(phi, block, plan, tolerance=tolerance)
    checks.append(split.named("split"))
    if phi1 is None:
        phi1, phi2 = split1, split2
        notes.append("summands taken from the split candidates")

    route_failed = False
    try:
        fit = summand_laplacian_fit(block, phi1, phi2, plan, tolerance=tolerance)
        hrep = summand_hessian_check(block, phi1, phi2, plan, fit, tolerance=tolerance)
        checks += [fit, hrep]
        measured.update({k: fit.details[k] for k in ("a1", "b1", "a2", "b2")})
        measured.update({k: hrep.details[k] for k in (
            "a_bar", "b_bar", "c_bar_1", "c_bar_2", "lambda_1", "lambda_2")})
    except ConstantSummandError as exc:
        notes.append(f"{exc}")
        checks.append(_warped_fallback(inst, phi1, phi2, plan, tolerance, measured, notes))
    except (IllConditionedFitError, FitFailureError) as exc:
        notes.append(f"summand fit failed: {exc}")
        route_failed = True

    if n >= 3:
        try:
            if summand_spread(phi2, inst.g2, plan) > NONCONSTANT_SPREAD:
                frep = factor_hessian_check(block, phi1, phi2, plan, lambda_bar,
                                            tolerance=tolerance)
            else:
                frep = factor_hessian_check(product(inst.g2, inst.g1, inst.labels), phi2, phi1,
                                            plan, lambda_bar, tolerance=tolerance)
            checks.append(frep)
        except ConstantSummandError:
            notes.append("both summands constant; factor identity is vacuous")
    else:
        notes.append("joint dimension below 3; factor identity skipped")
    return checks, measured, notes, route_failed


def _warped_fallback(inst: ProductConformalInstance, phi1: Expr, phi2: Expr,
                     plan: SamplePlan, tolerance: float,
                     measured: dict, notes: list[str]) -> Check:
    """One summand is constant: recheck as a warped product.

    The factor carrying the varying summand becomes the base, rescaled by
    the reciprocal of the whole factor; the other factor is the fiber.
    """
    if summand_spread(phi1, inst.g1, plan) > NONCONSTANT_SPREAD:
        carrier, varying, fiber, constant = inst.g1, phi1, inst.g2, phi2
    else:
        carrier, varying, fiber, constant = inst.g2, phi2, inst.g1, phi1
    anchor = sample(fiber.chart, plan)[0]
    shift = evaluate(constant, dict(zip(fiber.chart.coords, anchor)))
    warp = reciprocal(add(varying, Const(shift)))
    w = WarpedSpec(base=scaled(carrier, powc(warp, 2.0)), fiber=fiber, warp=warp)
    wrep = warped_einstein_check(w, plan, tolerance)
    measured["lambda_fiber"] = wrep.details["lambda_fiber"]
    notes.append("warped route used for the constant summand")
    return wrep.named("warped_route")


def _run_twisted(inst: TwistedInstance, plan: SamplePlan, tolerance: float):
    measured: dict[str, float] = {}
    notes: list[str] = []
    d = inst.spec
    g = doubly_twisted_metric(d)
    pts = sample(g.chart, plan)

    rebuilt = scaled(
        twisted_metric(d.base, div(d.fiber_scale, d.base_scale), d.fiber),
        powc(d.base_scale, 2.0),
    )
    # both sides are the same entries in two presentations: equal to round-off;
    # g's rows come from the batch einstein_check reads, which passed the
    # positive-definite test
    batch = curvature_batch(g, pts)
    delta = _entry_sup(g.dim, batch.g, metric_values(rebuilt, pts).scaled(-1.0))
    identity = _residual("twisted_identity", delta, pts, 1e-12)

    est = einstein_check(g, plan, tolerance).named("direct_einstein", inst.expect_einstein)
    measured["lambda_bar"] = est.details["lambda_hat"]
    pres = warped_presentation_check(d, plan, tolerance).named(
        "warped_presentation", inst.expect_warped_form)

    if est.verdict != inst.expect_einstein:
        notes.append("Einstein verdict differs from the scenario claim")
    if pres.verdict != inst.expect_warped_form:
        notes.append("warped-presentation verdict differs from the scenario claim")
    return [identity, est, pres], measured, notes, False


# --- the scenarios ----------------------------------------------------------

def _half_square(m: MetricSpec, R: float) -> Expr:
    """|x|^2 / 2 + R^2 / 4 on a Euclidean chart."""
    e: Expr = Const(0.0)
    for c in m.chart.coords:
        e = add(e, powc(Coord(c), 2.0))
    return add(mul(Const(0.5), e), Const(R * R / 4))


def _flat_quadratic(params: dict):
    n1, n2 = _dim(params, "n1"), _dim(params, "n2")
    R = float(params["R"])
    if R <= 0:
        raise BadParameterError(f"R must be positive, got {R}")
    g1 = builtin_metric("euclidean", n1)
    g2 = builtin_metric("euclidean", n2)
    inst = ProductConformalInstance(g1, g2, _half_square(g1, R), _half_square(g2, R))
    n = n1 + n2
    expected = (
        ExpectedConstant("lambda_bar", (n - 1) * R * R, 1e-6, "literature", relative=True),
        ExpectedConstant("rho_bar", R * R, 1e-6, "literature"),
        ExpectedConstant("a_bar", 0.0, 1e-6, "derived"),
        ExpectedConstant("b_bar", -1.0, 1e-6, "derived"),
        ExpectedConstant("c_bar_1", R * R / 2, 1e-6, "derived"),
        ExpectedConstant("c_bar_2", R * R / 2, 1e-6, "derived"),
        ExpectedConstant("a1", 0.0, 1e-6, "derived"),
        ExpectedConstant("b1", -float(n1), 1e-6, "derived"),
        ExpectedConstant("a2", 0.0, 1e-6, "derived"),
        ExpectedConstant("b2", -float(n2), 1e-6, "derived"),
        ExpectedConstant("lambda_1", 0.0, 1e-8, "derived"),
        ExpectedConstant("lambda_2", 0.0, 1e-8, "derived"),
    )
    return inst, expected


def _sphere_hyperbolic(params: dict):
    n1, n2 = _dim(params, "n1"), _dim(params, "n2")
    b_bar = float(params["b_bar"])
    first = "u1" if n1 > 1 else "th"
    g1 = builtin_metric("sphere", n1, box={first: (0.0, 2.6)})
    g2 = builtin_metric("hyperbolic", n2, box={"t": (0.4, 1.6)})
    phi1 = sub(neg(func("cos", Coord(first))), Const(b_bar))
    phi2 = add(func("cosh", Coord("t")), Const(b_bar))
    inst = ProductConformalInstance(g1, g2, phi1, phi2)
    expected = (
        ExpectedConstant("lambda_bar", 0.0, 1e-6, "derived"),
        ExpectedConstant("a_bar", 1.0, 1e-6, "literature"),
        ExpectedConstant("b_bar", b_bar, 1e-6, "derived"),
        ExpectedConstant("c_bar_1", b_bar * b_bar - 1.0, 1e-6, "derived"),
        ExpectedConstant("c_bar_2", 1.0 - b_bar * b_bar, 1e-6, "derived"),
        ExpectedConstant("lambda_1", float(n1 - 1), 1e-8, "literature"),
        ExpectedConstant("lambda_2", -float(n2 - 1), 1e-8, "literature"),
        ExpectedConstant("a1", float(n1), 1e-6, "derived"),
        ExpectedConstant("b1", n1 * b_bar, 1e-6, "derived"),
        ExpectedConstant("a2", -float(n2), 1e-6, "derived"),
        ExpectedConstant("b2", n2 * b_bar, 1e-6, "derived"),
    )
    return inst, expected


def _warped_sphere(params: dict):
    p = _dim(params, "p")
    g1 = builtin_metric("euclidean", 1, box={"x1": (-1.2, 1.2)})
    g2 = builtin_metric("sphere", p)
    inst = ProductConformalInstance(g1, g2, func("cosh", Coord("x1")), Const(0.0))
    expected = (
        ExpectedConstant("lambda_bar", float(p), 1e-6, "derived", relative=True),
        ExpectedConstant("rho_bar", 1.0, 1e-6, "derived"),
        ExpectedConstant("lambda_fiber", float(p - 1), 1e-6, "derived"),
    )
    return inst, expected


def _cosh_cylinder(params: dict):
    g1 = builtin_metric("euclidean", 1, box={"x1": (-1.2, 1.2)})
    fiber = product(
        builtin_metric("sphere", 2, radius=0.5),
        builtin_metric("sphere", 3, radius=2 ** -0.5),
        labels=("a", "b"),
    ).metric
    inst = ProductConformalInstance(g1, fiber, func("cosh", Coord("x1")), Const(0.0))
    expected = (
        ExpectedConstant("lambda_bar", 5.0, 1e-6, "derived", relative=True),
        ExpectedConstant("rho_bar", 1.0, 1e-6, "derived"),
        ExpectedConstant("lambda_fiber", 4.0, 1e-6, "derived"),
    )
    return inst, expected


def _non_splitting(params: dict):
    g1 = builtin_metric("euclidean", 2)
    g2 = builtin_metric("euclidean", 2)
    block = product(g1, g2)
    phi = parse("exp(f0.x1 + f1.x1)", block.metric.chart.coords)
    return ProductConformalInstance(g1, g2, phi=phi), ()


def _twisted_split(params: dict):
    rate = float(params["rate"])
    amplitude = float(params["amplitude"])
    if not abs(amplitude) < 1.0:
        raise BadParameterError("amplitude must satisfy |amplitude| < 1")
    # at rate 0 or amplitude 0 a scale is constant: the presentation is warped
    for name, value in (("rate", rate), ("amplitude", amplitude)):
        if value == 0.0:
            raise BadParameterError(f"{name} must be non-zero, got {value}")
    base = builtin_metric("euclidean", 2)
    fib = builtin_metric("sphere", 2)
    joint = DoublyTwistedSpec(base, fib, Const(1.0), Const(1.0)).chart().coords
    spec = DoublyTwistedSpec(
        base=base,
        fiber=fib,
        base_scale=parse(f"exp({rate} * f0.x1)", joint),
        fiber_scale=parse(f"1 + {amplitude} * cos(f1.u1)", joint),
    )
    return TwistedInstance(spec, expect_einstein=False, expect_warped_form=False), ()


def _doubly_twisted_einstein(params: dict):
    R = float(params["R"])
    if R <= 0:
        raise BadParameterError(f"R must be positive, got {R}")
    base = builtin_metric("euclidean", 2)
    fib = builtin_metric("euclidean", 2)
    block = product(base, fib)
    scale = reciprocal(joint_sum(block, _half_square(base, R), _half_square(fib, R)))
    spec = DoublyTwistedSpec(base=base, fiber=fib, base_scale=scale, fiber_scale=scale)
    inst = TwistedInstance(spec, expect_einstein=True, expect_warped_form=False)
    expected = (
        ExpectedConstant("lambda_bar", 3 * R * R, 1e-6, "derived", relative=True),
    )
    return inst, expected


_SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="cosh_cylinder",
            summary="cylinder over an Einstein five-manifold, rescaled by sech",
            defaults=(),
            expected_verdict="pass",
            build=_cosh_cylinder,
        ),
        Scenario(
            name="doubly_twisted_einstein",
            summary="Einstein metric in doubly twisted form that is not warped",
            defaults=(("R", 1.0),),
            expected_verdict="pass",
            build=_doubly_twisted_einstein,
        ),
        Scenario(
            name="flat_quadratic",
            summary="flat product rescaled by quadratic summands",
            defaults=(("n1", 2), ("n2", 2), ("R", 1.0)),
            expected_verdict="pass",
            build=_flat_quadratic,
        ),
        Scenario(
            name="non_splitting",
            summary="conformal factor that does not split across the factors",
            defaults=(),
            expected_verdict="fail",
            build=_non_splitting,
        ),
        Scenario(
            name="sphere_hyperbolic",
            summary="sphere times hyperbolic space with cosine and cosh summands",
            defaults=(("n1", 2), ("n2", 2), ("b_bar", 0.3)),
            expected_verdict="pass",
            build=_sphere_hyperbolic,
        ),
        Scenario(
            name="twisted_split",
            summary="Riemannian product whose doubly twisted form is not warped; not Einstein",
            defaults=(("rate", 0.3), ("amplitude", 0.25)),
            expected_verdict="pass",
            build=_twisted_split,
        ),
        Scenario(
            name="warped_sphere",
            summary="round sphere as a conformally rescaled cylinder over a sphere",
            defaults=(("p", 2),),
            expected_verdict="pass",
            build=_warped_sphere,
        ),
    )
}


def scenarios() -> dict[str, Scenario]:
    return dict(sorted(_SCENARIOS.items()))


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise UnknownScenarioError(name) from None


def _report(name: str, summary: str, params: dict, expected_verdict: str,
            inst: ProductConformalInstance | TwistedInstance,
            expected: tuple[ExpectedConstant, ...], plan: SamplePlan,
            tolerance: float) -> ScenarioReport:
    """Run the battery that fits the instance and judge it, expected constants included."""
    with evaluation_scope():
        if isinstance(inst, TwistedInstance):
            checks, measured, notes, route_failed = _run_twisted(inst, plan, tolerance)
        else:
            checks, measured, notes, route_failed = _run_product_conformal(
                inst, plan, tolerance)
    ok = Check("battery", parts=checks).verdict and not route_failed
    rows = []
    for c in expected:
        got = measured.get(c.name)
        row_ok = got is not None and c.matches(got)
        rows.append({
            "name": c.name,
            "expected": c.value,
            "measured": got,
            "delta": None if got is None else abs(got - c.value),
            "tolerance": c.bound(),
            "source": c.source,
            "ok": row_ok,
        })
        ok = ok and row_ok
    verdict = "pass" if ok else "fail"
    return ScenarioReport(
        name=name,
        summary=summary,
        params=params,
        expected_verdict=expected_verdict,
        verdict=verdict,
        matched=verdict == expected_verdict,
        checks={c.name: c for c in checks},
        constants=rows,
        measured={k: float(v) for k, v in measured.items()},
        notes=notes,
    )


def run_scenario(name: str, params: Optional[dict] = None,
                 plan: Optional[SamplePlan] = None, tolerance: float = 1e-8) -> ScenarioReport:
    sc = get_scenario(name)
    _require_tolerance("tolerance", tolerance)
    values = sc.parameters()
    for k, v in (params or {}).items():
        if k not in values:
            raise BadParameterError(
                f"scenario '{name}' has no parameter '{k}' "
                f"(accepts {sorted(values) or 'none'})"
            )
        values[k] = _param_value(k, v)
    inst, expected = sc.build(values)
    return _report(sc.name, sc.summary, values, sc.expected_verdict, inst, expected,
                   plan or SamplePlan(), tolerance)


def run_inline(g1: MetricSpec, g2: MetricSpec, phi1: Optional[Expr] = None,
               phi2: Optional[Expr] = None, phi: Optional[Expr] = None,
               labels: tuple[str, str] = ("f0", "f1"),
               expected_verdict: str = "pass",
               plan: Optional[SamplePlan] = None, tolerance: float = 1e-8,
               name: str = "inline") -> ScenarioReport:
    """Run the product battery on a user-supplied instance.

    Provide either both summands (factor-chart expressions) or the joint
    factor; the expected verdict says whether the instance is supposed to
    survive the battery.
    """
    if expected_verdict not in ("pass", "fail"):
        raise BadParameterError(
            f"expected verdict must be 'pass' or 'fail', got '{expected_verdict}'"
        )
    _require_tolerance("tolerance", tolerance)
    if (phi is None, phi1 is None, phi2 is None) not in ((True, False, False),
                                                         (False, True, True)):
        raise BadParameterError("provide either phi or both phi1 and phi2")
    inst = ProductConformalInstance(g1, g2, phi1, phi2, phi, labels)
    return _report(name, "user-supplied product instance", {}, expected_verdict, inst, (),
                   plan or SamplePlan(), tolerance)
