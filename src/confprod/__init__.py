"""Verification engine for conformally Einstein Riemannian product metrics.

The package computes curvature of coordinate-chart metrics exactly (exact
derivatives of the metric entries propagated forward on a jet tape and
evaluated pointwise; the tape names the node of a non-finite one) and
checks the classical product / warped-product Einstein conditions as
pointwise residuals over deterministically sampled charts.
"""

__version__ = "0.1.0"

GRAMMAR_VERSION = "1"
REPORT_SCHEMA_VERSION = "2"
