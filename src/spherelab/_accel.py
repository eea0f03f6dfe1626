"""Hot numeric kernels in numpy.

regularized_sums and log_regularized_sums hold the one delta loop of the
regularized zero-divisor pairings: a batch of rows against several
weight columns at once, for the Monte Carlo samplers and (with one row)
the deterministic catalog pairings alike.  Each row regularizes against
delta * s^2, s^2 the mean square of its f, so |f|^2 + delta * s^2 and
the pairings built on it do not change when f is scaled.

The pairings call them once per block of nodes, never on a whole rule:
BLOCK_BYTES caps each complex (rows, nodes) array of a block, and the
evaluators and the catalog pairings size their blocks by it, so a Monte
Carlo micro-batch holds no node array beyond its block buffers, f
included (its s^2 comes from the draw coefficients).  Both
kernels work in place within a block: each call allocates one block
buffer for the reciprocal (or the log) and reuses it across every delta,
and regularized_sums writes its products into a buffer the caller
passes (the pairing hands over the block of f it has consumed), so no
temporary is made per delta or per numerator term.  The reciprocal and
log buffers take the layout of the inputs (empty_like), as the
allocating expressions did, and every complex product keeps its operand
order, numerator first: with fused multiply-add, numpy's complex
multiply rounds differently when the operands are swapped, and the CSV
bodies print full-precision reprs.

Importing this module pins the OpenBLAS that numpy loaded to one thread.
Every BLAS call spherelab makes is block-sized, a GEMM, dot or gemv on
about BLOCK_BYTES, too small to split: a second OpenBLAS thread only
busy-waits, doubling CPU time at the same wall time, and two spherelab
processes side by side contend for the cores.  A threaded dot or gemv
also splits its reduction by the thread count, so at one thread the CSV
bodies are the same whatever OPENBLAS_NUM_THREADS says.  With another
BLAS, or off Linux, BLAS is left as it is.

The band sums use ascending-degree compensated summation because the
terms span many orders of magnitude; the compensation keeps the per-term
rounding at <= 2 ulp.  `python3 perfbench/run.py` measures the workloads
that call these kernels.
"""

from __future__ import annotations

import ctypes

import numpy as np

# Bytes of one complex (rows, nodes) array of a block of a streamed
# pairing: a block holds as many moduli (or cells) as fit, and at least
# one, so its arrays stay about this size however large the rule is.
BLOCK_BYTES = 1 << 20

# OpenBLAS's thread-count setter and getter under the names its builds
# export, tried in threadpoolctl's order (numpy wheels ship scipy-openblas,
# whose names carry the 64-bit-integer suffix).
_OPENBLAS_NAMES = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _pin_openblas():
    """Set the OpenBLAS this process has loaded to one thread and return
    its get_num_threads; return None, leaving BLAS alone, when no mapped
    library with "openblas" in its path exports those names (another BLAS,
    or no /proc/self/maps off Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line[line.find("/"):].rstrip("\n") for line in fh
                            if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_NAMES:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter(1)
                return getter
    return None


# At import, so the pin precedes every BLAS call whatever loaded numpy
# first; an environment variable would have to be set before that.
_openblas_threads = _pin_openblas()


def blas_threads():
    """Threads the loaded OpenBLAS runs a call on, or None when spherelab
    found no OpenBLAS to pin."""
    return None if _openblas_threads is None else _openblas_threads()


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


def gradient_norm(d1, d2, out=None):
    """sqrt(|d1|^2 + |d2|^2) elementwise, the norm of a holomorphic
    gradient with components d1 and d2 (the margin screen's, a catalog
    function's), in place in the real array out (a new one if None) with
    one temporary for |d2|^2."""
    out = np.abs(d1, out=out)
    np.square(out, out=out)
    term = np.abs(d2)
    np.square(term, out=term)
    out += term
    return np.sqrt(out, out=out)


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


def regularized_sums(weights, numer, fsq, prod, scale_sq, deltas):
    """Quadrature sums of numer / (fsq + delta * scale_sq) for a delta
    schedule.

    numer is a sequence of (rows, nodes) numerator terms sharing the
    denominator, with fsq = |f|^2 (rows, nodes) and scale_sq = s^2 (rows,
    1), and weights the matching sequence of (nodes, columns) node-weight
    matrices; one reciprocal per delta serves every term.  prod is a
    complex (rows, nodes) work array, overwritten with each product before
    its weighted sum; numer and fsq are read only.
    Returns (rows, columns, len(deltas)).
    """
    out = np.empty((fsq.shape[0], weights[0].shape[1], len(deltas)), dtype=complex)
    inv = np.empty_like(fsq)
    for i, d in enumerate(deltas):
        np.add(fsq, d * scale_sq, out=inv)
        np.divide(1.0, inv, out=inv)
        np.multiply(numer[0], inv, out=prod)
        acc = prod @ weights[0]
        for term, w in zip(numer[1:], weights[1:]):
            np.multiply(term, inv, out=prod)
            acc += prod @ w
        out[:, :, i] = acc
    return out


def log_regularized_sums(weights, fsq, scale_sq, deltas):
    """Quadrature sums of (1/2) log(fsq + delta * scale_sq) for a delta
    schedule.

    fsq = |f|^2 is (rows, nodes), scale_sq = s^2 (rows, 1) and weights a
    (nodes, columns) complex matrix,
    applied as real and imaginary parts so the real logs are never
    promoted.  The 1/2 is folded into one scaled copy of the weights per
    call, whose parts the products read, so the logs are never scaled: a
    factor 2^-1 is exact, and the sums are bit for bit those of the
    scaled logs.  (The parts stay strided views: numpy sends a one-row
    product with a contiguous operand down another loop, which rounds
    differently.)  Returns (rows, columns, len(deltas)).
    """
    out = np.empty((fsq.shape[0], weights.shape[1], len(deltas)), dtype=complex)
    half = np.multiply(weights, 0.5)
    logs = np.empty_like(fsq)
    for i, d in enumerate(deltas):
        np.add(fsq, d * scale_sq, out=logs)
        np.log(logs, out=logs)
        out[:, :, i] = logs @ half.real + 1j * (logs @ half.imag)
    return out
