"""Hot numeric kernels: numba-jitted with a pure-numpy fallback.

Set SPHERELAB_NO_NUMBA=1 to force the numpy path (same results, slower
on large node sets).  Both paths use ascending-degree compensated
summation for the band sums because the terms span many orders of
magnitude; the compensation keeps the per-term rounding at <= 2 ulp.
`python3 perfbench/run.py` measures the workloads that call these kernels.
"""

from __future__ import annotations

import os

import numpy as np

USE_NUMBA = os.environ.get("SPHERELAB_NO_NUMBA", "0") != "1"

if USE_NUMBA:
    try:
        os.environ.setdefault("NUMBA_THREADING_LAYER", "omp")
        from numba import njit, prange
    except ImportError:  # pragma: no cover - numba is a declared dependency
        USE_NUMBA = False

if not USE_NUMBA:
    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        if args and callable(args[0]):
            return args[0]
        return wrap

    prange = range


# ----------------------------------------------------------- numpy paths
def _monomial_matrix_np(points, alphas, scale):
    points = np.ascontiguousarray(points)
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


def _band_power_sum_np(q, ms, coeffs):
    """Sum of coeffs[i] * q**ms[i] with array-valued Kahan compensation."""
    total = np.zeros(q.shape, dtype=np.complex128)
    comp = np.zeros_like(total)
    power = q ** ms[0] if ms.size else None
    for i in range(ms.size):
        if i > 0:
            power = power * q ** (ms[i] - ms[i - 1])
        term = coeffs[i] * power - comp
        new_total = total + term
        comp = (new_total - total) - term
        total = new_total
    return total


def _regularized_sums_np(weights, numer, fsq, deltas):
    """For each delta: sum of weights * numer / (fsq + delta)."""
    out = np.empty(len(deltas), dtype=np.complex128)
    for i, d in enumerate(deltas):
        out[i] = np.dot(weights, numer / (fsq + d))
    return out


def _log_reg_sums_np(weights, fsq, deltas):
    """For each delta: sum of weights * 0.5 * log(fsq + delta)."""
    out = np.empty(len(deltas), dtype=np.float64)
    for i, d in enumerate(deltas):
        out[i] = np.dot(weights, 0.5 * np.log(fsq + d))
    return out


# ----------------------------------------------------------- numba paths
@njit(cache=True, parallel=True)
def _monomial_matrix_nb(points, alphas, scale):  # pragma: no cover - jit
    q = points.shape[0]
    d = alphas.shape[0]
    out = np.empty((q, d), dtype=np.complex128)
    for i in prange(q):
        z1 = points[i, 0]
        z2 = points[i, 1]
        for j in range(d):
            v = scale[j] + 0.0j
            for _ in range(alphas[j, 0]):
                v *= z1
            for _ in range(alphas[j, 1]):
                v *= z2
            out[i, j] = v
    return out


@njit(cache=True, parallel=True)
def _band_power_sum_nb(q, ms, coeffs):  # pragma: no cover - jit
    out = np.empty(q.shape[0], dtype=np.complex128)
    for i in prange(q.shape[0]):
        base = q[i]
        power = base ** ms[0]
        total = 0.0 + 0.0j
        comp = 0.0 + 0.0j
        for j in range(ms.shape[0]):
            if j > 0:
                for _ in range(ms[j] - ms[j - 1]):
                    power *= base
            term = coeffs[j] * power - comp
            new_total = total + term
            comp = (new_total - total) - term
            total = new_total
        out[i] = total
    return out


@njit(cache=True, parallel=True)
def _regularized_sums_nb(weights, numer, fsq, deltas):  # pragma: no cover
    out = np.empty(deltas.shape[0], dtype=np.complex128)
    for i in prange(deltas.shape[0]):
        d = deltas[i]
        acc = 0.0 + 0.0j
        comp = 0.0 + 0.0j
        for j in range(weights.shape[0]):
            term = weights[j] * numer[j] / (fsq[j] + d) - comp
            new_acc = acc + term
            comp = (new_acc - acc) - term
            acc = new_acc
        out[i] = acc
    return out


@njit(cache=True, parallel=True)
def _log_reg_sums_nb(weights, fsq, deltas):  # pragma: no cover - jit
    out = np.empty(deltas.shape[0], dtype=np.float64)
    for i in prange(deltas.shape[0]):
        d = deltas[i]
        acc = 0.0
        comp = 0.0
        for j in range(weights.shape[0]):
            term = weights[j] * 0.5 * np.log(fsq[j] + d) - comp
            new_acc = acc + term
            comp = (new_acc - acc) - term
            acc = new_acc
        out[i] = acc
    return out


# ------------------------------------------------------------ dispatchers
def monomial_matrix(points, alphas, scale):
    """Design matrix M[q, j] = scale[j] * z1^alphas[j,0] * z2^alphas[j,1]."""
    points = np.ascontiguousarray(points, dtype=np.complex128)
    alphas = np.ascontiguousarray(alphas, dtype=np.int64)
    scale = np.ascontiguousarray(scale, dtype=np.float64)
    if USE_NUMBA and points.shape[0] * max(alphas.shape[0], 1) > 200_000:
        return _monomial_matrix_nb(points, alphas, scale)
    return _monomial_matrix_np(points, alphas, scale)


def band_power_sum(q, ms, coeffs):
    """Compensated sum of coeffs[i] * q**ms[i] over an ascending band."""
    q = np.asarray(q, dtype=np.complex128)  # keeps scalar inputs zero-dim
    ms = np.ascontiguousarray(ms, dtype=np.int64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    if ms.size == 0:
        return np.zeros(q.shape, dtype=np.complex128)
    if np.any(np.diff(ms) <= 0):
        raise ValueError("band degrees must be strictly ascending")
    flat = np.ascontiguousarray(q.ravel())
    if USE_NUMBA and flat.size * ms.size > 50_000:
        out = _band_power_sum_nb(flat, ms, coeffs)
    else:
        out = _band_power_sum_np(flat, ms, coeffs)
    return out.reshape(q.shape)


def regularized_sums(weights, numer, fsq, deltas):
    """Quadrature sums of numer / (fsq + delta) for a delta schedule."""
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    numer = np.ascontiguousarray(numer, dtype=np.complex128)
    fsq = np.ascontiguousarray(fsq, dtype=np.float64)
    deltas = np.ascontiguousarray(deltas, dtype=np.float64)
    if USE_NUMBA and weights.size * deltas.size > 100_000:
        return _regularized_sums_nb(weights, numer, fsq, deltas)
    return _regularized_sums_np(weights, numer, fsq, deltas)


def log_regularized_sums(weights, fsq, deltas):
    """Quadrature sums of (1/2) log(fsq + delta) for a delta schedule."""
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    fsq = np.ascontiguousarray(fsq, dtype=np.float64)
    deltas = np.ascontiguousarray(deltas, dtype=np.float64)
    if USE_NUMBA and weights.size * deltas.size > 100_000:
        return _log_reg_sums_nb(weights, fsq, deltas)
    return _log_reg_sums_np(weights, fsq, deltas)
