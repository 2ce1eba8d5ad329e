"""Fixed instance sets for cross-validation tests.

`conformal_route_pairs` gives base metrics with conformal factors on which
the two curvature routes must agree; `splitting_instances` gives joint
factors on a flat product, tagged by whether they split across the factors.
"""

from confprod.catalog import builtin_metric
from confprod.constructions import ConformalSpec, product
from confprod.expressions import parse
from confprod.geometry import Chart, MetricSpec


def conformal_route_pairs() -> list[tuple[str, ConformalSpec]]:
    """Metric and factor pairs on which the two conformal curvature routes
    (direct curvature of the rescaled metric, curvature-plus-correction
    formula) must agree.  Factors are positive on the sampled boxes."""
    pairs: list[tuple[str, ConformalSpec]] = []

    def named(tag: str, base, text: str):
        m = base.metric if hasattr(base, "metric") else base
        pairs.append((tag, ConformalSpec(base, parse(text, m.chart.coords))))

    named("plane", builtin_metric("euclidean", 2), "2 + 0.3 * sin(x1) * cos(x2)")
    named("space", builtin_metric("euclidean", 3), "exp(0.2 * (x1 + x2 + x3))")
    named("line", builtin_metric("euclidean", 1), "2 + sin(x1)")
    named("sphere2", builtin_metric("sphere", 2), "2 + 0.5 * cos(u1)")
    named("sphere3", builtin_metric("sphere", 3, radius=2.0),
          "1.5 + 0.2 * sin(u1) * sin(u2)")
    named("hyperbolic2", builtin_metric("hyperbolic", 2), "cosh(t) + 0.3")
    named("hyperbolic3", builtin_metric("hyperbolic", 3), "1 + exp(0.3 * t)")
    named("line_x_sphere",
          product(builtin_metric("euclidean", 1), builtin_metric("sphere", 2)),
          "2 + 0.2 * f0.x1 * cos(f1.u1)")
    named("sphere_x_hyperbolic",
          product(builtin_metric("sphere", 2), builtin_metric("hyperbolic", 2)),
          "cosh(f1.t) - cos(f0.u1)")

    skew = Chart(coords=("x", "y"), domain=((-1.5, 1.5), (-1.5, 1.5)), singular_margin=0.0)
    g = MetricSpec(skew, (
        (parse("1 + 0.1 * x^2", skew.coords), parse("0.2 * x * y", skew.coords)),
        (parse("0.2 * x * y", skew.coords), parse("1 + 0.1 * y^2", skew.coords)),
    ))
    pairs.append(("skew", ConformalSpec(g, parse("2 + 0.4 * tanh(x + y)", skew.coords))))
    return pairs


def splitting_instances():
    """Joint factors on a flat 2x2 product, tagged by whether they split
    into a sum of single-factor terms."""
    block = product(builtin_metric("euclidean", 2), builtin_metric("euclidean", 2))
    coords = block.metric.chart.coords
    cases = [
        ("linear", "f0.x1 + f1.x1", True),
        ("quadratic", "f0.x1^2 + f1.x2^2 + 3", True),
        ("mixed_transcendental", "sin(f0.x1) + cosh(f1.x1)", True),
        ("exponentials", "exp(f0.x1) + exp(f1.x2)", True),
        ("in_factor_products", "f0.x1 * f0.x2 + f1.x1 * f1.x2", True),
        ("log_and_cubic", "log(2 + f0.x1) + f1.x1^3", True),
        ("exp_of_sum", "exp(f0.x1 + f1.x1)", False),
        ("cross_product", "f0.x1 * f1.x1", False),
        ("sin_of_product", "sin(f0.x1 * f1.x2)", False),
        ("square_of_sum", "(f0.x1 + f1.x1)^2", False),
    ]
    return block, [(tag, parse(text, coords), splits) for tag, text, splits in cases]
