"""Hot numeric kernels in numpy.

The band sums use ascending-degree compensated summation because the
terms span many orders of magnitude; the compensation keeps the per-term
rounding at <= 2 ulp.  `python3 perfbench/run.py` measures the workloads
that call these kernels.
"""

from __future__ import annotations

import numpy as np


def monomial_matrix(points, alphas, scale):
    """Design matrix M[q, j] = scale[j] * z1^alphas[j,0] * z2^alphas[j,1]."""
    points = np.ascontiguousarray(points, dtype=np.complex128)
    alphas = np.ascontiguousarray(alphas, dtype=np.int64)
    scale = np.ascontiguousarray(scale, dtype=np.float64)
    maxdeg = int(alphas.max()) if alphas.size else 0
    q = points.shape[0]
    pow1 = np.empty((q, maxdeg + 1), dtype=np.complex128)
    pow2 = np.empty((q, maxdeg + 1), dtype=np.complex128)
    pow1[:, 0] = 1.0
    pow2[:, 0] = 1.0
    for d in range(1, maxdeg + 1):
        pow1[:, d] = pow1[:, d - 1] * points[:, 0]
        pow2[:, d] = pow2[:, d - 1] * points[:, 1]
    return pow1[:, alphas[:, 0]] * pow2[:, alphas[:, 1]] * scale[None, :]


def band_power_sum(q, ms, coeffs):
    """Compensated sum of coeffs[i] * q**ms[i] over an ascending band."""
    q = np.asarray(q, dtype=np.complex128)  # keeps scalar inputs zero-dim
    ms = np.ascontiguousarray(ms, dtype=np.int64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    if ms.size == 0:
        return np.zeros(q.shape, dtype=np.complex128)
    if np.any(np.diff(ms) <= 0):
        raise ValueError("band degrees must be strictly ascending")
    # array-valued Kahan compensation
    flat = q.ravel()
    total = np.zeros(flat.shape, dtype=np.complex128)
    comp = np.zeros_like(total)
    power = flat ** ms[0]
    for i in range(ms.size):
        if i > 0:
            power = power * flat ** (ms[i] - ms[i - 1])
        term = coeffs[i] * power - comp
        new_total = total + term
        comp = (new_total - total) - term
        total = new_total
    return total.reshape(q.shape)


def regularized_sums(weights, numer, fsq, deltas):
    """Quadrature sums of numer / (fsq + delta) for a delta schedule."""
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    numer = np.ascontiguousarray(numer, dtype=np.complex128)
    fsq = np.ascontiguousarray(fsq, dtype=np.float64)
    deltas = np.ascontiguousarray(deltas, dtype=np.float64)
    out = np.empty(len(deltas), dtype=np.complex128)
    for i, d in enumerate(deltas):
        out[i] = np.dot(weights, numer / (fsq + d))
    return out


def log_regularized_sums(weights, fsq, deltas):
    """Quadrature sums of (1/2) log(fsq + delta) for a delta schedule."""
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    fsq = np.ascontiguousarray(fsq, dtype=np.float64)
    deltas = np.ascontiguousarray(deltas, dtype=np.float64)
    out = np.empty(len(deltas), dtype=np.float64)
    for i, d in enumerate(deltas):
        out[i] = np.dot(weights, 0.5 * np.log(fsq + d))
    return out
