"""Dense batch connection, Ricci and positive-definite reference.

The dense contractions that the structural-sparse path in `geometry`
replaced: the metric jets are scattered into full (count, n, ..., n) arrays
and every contraction is a batched matmul or einsum over all n^4 slots;
the scalar curvature and a field's two traces are einsums over dense
(count, n, n) arrays.  Used by the tests as the reference the sparse path
and its compact rows must match to round-off.  The positive-definite test
on a dense g, per component of the entry pattern, is the oracle that the
test a batch runs on its g rows must agree with exactly.
"""

import numpy as np

from confprod.errors import SingularMetricError
from confprod.geometry import _PD_EIGENVALUE_TOL, _is_zero, _metric_plan, _partition


def components(metric) -> tuple[tuple[int, ...], ...]:
    """The diagonal blocks of g's pattern: coordinates no non-zero entry couples."""
    return _partition(metric.dim, ((i, j) for i, row in enumerate(metric.entries)
                                   for j, e in enumerate(row) if not _is_zero(e)))


def check_positive_definite(g: np.ndarray, points: np.ndarray, blocks) -> None:
    """Raise SingularMetricError unless every point's smallest eigenvalue
    exceeds tau = 1e-12 max(1, max|g|), for a dense g block diagonal over
    `blocks` (components()).  Each 1x1 block is its own eigenvalue, and
    each larger one passes when a Cholesky factorisation of block - tau I
    exists; only when some block fails are g's eigenvalues computed, to name
    the first bad point and its smallest eigenvalue."""
    tau = _PD_EIGENVALUE_TOL * np.maximum(1.0, np.abs(g).max(axis=(1, 2)))
    ones = [c[0] for c in blocks if len(c) == 1]
    try:
        if (g[:, ones, ones].T > tau).all():
            for c in blocks:
                if len(c) > 1:
                    block = g[:, c][:, :, c]
                    np.linalg.cholesky(block - tau[:, None, None] * np.eye(len(c)))
            return
    except np.linalg.LinAlgError:
        pass
    eigenvalues = np.linalg.eigvalsh(g)
    bad = eigenvalues[:, 0] <= tau
    if bad.any():
        where = int(np.argmax(bad))
        raise SingularMetricError(points[where], float(eigenvalues[where, 0]))


def connection(g: np.ndarray, dg: np.ndarray):
    """Inverse metric, W and Gamma from checked metric jets.

    W[n,l,i,j] = d_i g_jl + d_j g_il - d_l g_ij, so Gamma = ginv W / 2.
    """
    count, n = g.shape[0], g.shape[1]
    ginv = np.linalg.inv(g)
    w = dg + dg.swapaxes(2, 3) - dg.transpose(0, 3, 1, 2)
    gamma = 0.5 * np.matmul(ginv, w.reshape(count, n, n * n)).reshape(count, n, n, n)
    return ginv, w, gamma


def ricci(ginv, dg, d2g, w, gamma) -> np.ndarray:
    """R_bd = d_a Gamma^a_db - d_d Gamma^a_ab + Gamma^a_ae Gamma^e_db - Gamma^a_de Gamma^e_ab.

    The two derivative terms are expanded through d ginv = -ginv dg ginv
    and Gamma^a_ab = g^al d_b g_al / 2, so d Gamma and the Riemann tensor
    are never formed; vec(ginv^T)[l n + a] = g^al keeps each term's ginv
    orientation.
    """
    count, n = ginv.shape[0], ginv.shape[1]
    nn = n * n
    # m[n,k] = ginv @ d_k g
    m = np.matmul(ginv[:, None], np.moveaxis(dg, 3, 1))
    trace = 0.5 * np.einsum("nkpp->nk", m)                                 # Gamma^a_ak
    div_ginv = -np.einsum("ns,nsl->nl", np.einsum("naas->ns", m), ginv)    # d_a g^al
    ginv_t = ginv.swapaxes(1, 2).reshape(count, nn)
    d2 = d2g.reshape(count, nn, nn)
    # d_a Gamma^a_db = (d_a g^al) W_ldb / 2
    #                 + g^al (d_a d_d g_bl + d_a d_b g_dl - d_a d_l g_db) / 2
    # cross[b,d] = g^al d_a d_d g_bl, read as d2g[b, (l, a), d]
    cross = np.matmul(ginv_t[:, None, None], d2g.reshape(count, n, nn, n))[:, :, 0]
    d_first = 0.5 * (np.einsum("nl,nldb->nbd", div_ginv, w) + cross + np.swapaxes(cross, 1, 2)
                     - np.matmul(d2, ginv_t[:, :, None]).reshape(count, n, n))
    # d_d Gamma^a_ab = (d_d g^al d_b g_al + g^al d_b d_d g_al) / 2
    mm = np.matmul(m.swapaxes(2, 3).reshape(count, n, nn), m.reshape(count, n, nn).swapaxes(1, 2))
    d_trace = 0.5 * (np.matmul(ginv.reshape(count, 1, nn), d2).reshape(count, n, n) - mm)
    # Gamma^a_de Gamma^e_ab = (t[d, (a, e)] @ t[(a, e), b]) with t[x, y, z] = gamma[y, x, z]
    t = np.ascontiguousarray(gamma.transpose(0, 2, 1, 3))
    gg = np.matmul(t.reshape(count, n, nn), t.reshape(count, nn, n))
    return (d_first - d_trace + np.einsum("ne,nedb->nbd", trace, gamma)
            - np.swapaxes(gg, 1, 2))


def reference_batch(metric, points) -> dict[str, np.ndarray]:
    """ginv, gamma, ricci and scalar of the whole metric, densely."""
    g, dg, d2g = _metric_plan(metric).jets(points)
    d2g = d2g.dense(metric.dim, 4)
    ginv, w, gamma = connection(g, dg)
    ric = ricci(ginv, dg, d2g, w, gamma)
    return {"ginv": ginv, "gamma": gamma, "ricci": ric,
            "scalar": scalar(ginv, ric)}


def scalar(ginv: np.ndarray, ricci: np.ndarray) -> np.ndarray:
    """g^bd R_bd per point, over dense (count, n, n) arrays."""
    return np.einsum("nbd,nbd->n", ginv, ricci)


def field_traces(ginv: np.ndarray, hess: np.ndarray, grad: np.ndarray):
    """lap(phi) = -g^ij (nabla d phi)_ij and |d phi|^2 = g^ij d_i phi d_j phi
    per point, over a dense g^-1, covariant Hessian and gradient."""
    return -np.einsum("nij,nij->n", ginv, hess), np.einsum("nij,ni,nj->n", ginv, grad, grad)
