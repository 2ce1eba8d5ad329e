"""Formula-route oracles and the field helper that only the tests call.

The engine compares the rescaled metric's own curvature with one
transformation formula, constructions.conformal_ricci_formula.  The scalar
curvature and Levi-Civita connection formulas here are two more: like it,
they read the base metric's curvature batch and the jets of phi, never the
rescaled entries, and the tests match them against the direct route.
field_jets is geometry._field_jets on points checked against the metric's
chart box first, as every caller in the engine checks them.
"""

import numpy as np

from confprod.constructions import as_metric, require_positive_factor
from confprod.geometry import _as_points, _field_jets, _field_plan, curvature_batch


def field_jets(phi, metric, points):
    """(covariant Hessian as Rows, lap(phi), |d phi|^2) at the points.

    (nabla d phi)_ij = d_i d_j phi - Gamma^k_ij d_k phi; the Laplacian is
    the geometer's, minus the metric trace of the Hessian, and
    |d phi|^2 = g^ij d_i phi d_j phi."""
    return _field_jets(phi, metric, _as_points(metric.chart, points))


def conformal_scalar_formula(c, points) -> np.ndarray:
    """Scalar curvature of phi^-2 g: phi^2 s - 2(n-1) phi lap(phi) - n(n-1)|dphi|^2."""
    base = as_metric(c.base)
    n = base.dim
    pts = _as_points(base.chart, points)
    phi = require_positive_factor(c, pts)
    scalar = curvature_batch(base, pts).scalar
    _, lap, gns = _field_jets(c.phi, base, pts)
    return phi**2 * scalar - 2 * (n - 1) * phi * lap - n * (n - 1) * gns


def conformal_connection(c, i: int, j: int, points) -> np.ndarray:
    """Components of the rescaled Levi-Civita connection on coordinate fields.

    Gammabar^k_ij = Gamma^k_ij - (d_i phi delta^k_j + d_j phi delta^k_i)/phi
                    + g_ij grad(phi)^k / phi
    """
    base = as_metric(c.base)
    n = base.dim
    pts = _as_points(base.chart, points)
    phi = require_positive_factor(c, pts)
    batch = curvature_batch(base, pts)
    _, dphi, _ = _field_plan(c.phi, base.chart.coords).jets(pts)
    grad = np.einsum("nij,nj->ni", batch.ginv.dense(n), dphi)
    out = batch.christoffel.dense(n, 3)[:, :, i, j].copy()
    out[:, j] -= dphi[:, i] / phi
    out[:, i] -= dphi[:, j] / phi
    out += batch.g.dense(n)[:, i, j, None] * grad / phi[:, None]
    return out
