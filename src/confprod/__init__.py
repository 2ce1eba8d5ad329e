"""Verification engine for conformally Einstein Riemannian product metrics.

The package computes curvature of coordinate-chart metrics exactly (symbolic
differentiation of metric entries, numeric pointwise evaluation) and checks
the classical product / warped-product Einstein conditions as pointwise
residuals over deterministically sampled charts.
"""

__version__ = "0.1.0"

GRAMMAR_VERSION = "1"
REPORT_SCHEMA_VERSION = "2"
