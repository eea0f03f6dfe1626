"""Points and tangent frames of the unit sphere S^3 in C^2.

Points are stored as complex 2-vectors; real tangent vectors use the
same complex storage (a real tangent vector v corresponds to the complex
vector u with u_j = v_{2j} + i v_{2j+1}).  The field T(x) = i x is the
Reeb field of the contact form, which lives in quadrature.contact_one_form.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hermitian_pair", "random_sphere_points", "tangent_frame"]


def hermitian_pair(a, b):
    """Ambient pairing sum_j a_j conj(b_j), vectorized over leading axes."""
    return np.sum(np.asarray(a) * np.conj(np.asarray(b)), axis=-1)


def random_sphere_points(count, rng=None):
    """Uniform points on S^3 as a (count, 2) complex array."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def tangent_frame(x):
    """Deterministic real orthonormal frame (T, e, J e) at x.

    The horizontal part is obtained by Gram-Schmidt over the candidates
    i*x, basis vectors and their J-images, with the ambient real inner
    product Re <a, b>; the first frame vector is always the Reeb
    direction i*x.
    """
    x = np.asarray(x, dtype=complex)
    dim = x.shape[0]
    frame = [1j * x]
    candidates = []
    for j in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[j] = 1.0
        candidates.append(e)
        candidates.append(1j * e)
    for c in candidates:
        v = c - hermitian_pair(c, x) * x  # remove the complex normal span(x, ix)
        for f in frame[1:]:
            v = v - np.real(hermitian_pair(v, f)) * f
        v = v - np.real(hermitian_pair(v, frame[0])) * frame[0]
        r = float(np.linalg.norm(v))
        if r > 1e-8:
            frame.append(v / r)
        if len(frame) == 2 * dim - 1:
            break
    if len(frame) != 2 * dim - 1:
        raise AssertionError("frame construction lost rank")
    return frame
