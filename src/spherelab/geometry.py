"""The unit sphere S^3 in C^2 with its contact data.

Points are stored as complex 2-vectors; real tangent vectors use the
same complex storage (a real tangent vector v corresponds to the complex
vector u with u_j = v_{2j} + i v_{2j+1}).  The contact form is the
restriction of

    omega0 = (1/2i) sum_j (conj(z_j) dz_j - z_j dconj(z_j)),

whose value on a tangent vector u at x is Im <u, x>, with <a, b> the
ambient Hermitian pairing sum a_j conj(b_j).  The field T(x) = i x is the
Reeb field: xi(T) = 1 and dxi(T, .) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpherePoint",
    "BallPoint",
    "TangentVector",
    "ContactData",
    "random_sphere_points",
    "hopf_embed",
    "real_to_complex",
    "complex_to_real",
    "hermitian_pair",
    "tangent_frame",
]

_UNIT_TOL = 1e-12
_TANGENT_TOL = 1e-10


def real_to_complex(v):
    """Pack interleaved real coordinates into the complex vector they represent."""
    v = np.asarray(v, dtype=float)
    return v[..., 0::2] + 1j * v[..., 1::2]


def complex_to_real(u):
    """Unpack a complex vector into interleaved real coordinates."""
    u = np.asarray(u, dtype=complex)
    out = np.empty(u.shape[:-1] + (2 * u.shape[-1],), dtype=float)
    out[..., 0::2] = u.real
    out[..., 1::2] = u.imag
    return out


def hermitian_pair(a, b):
    """Ambient pairing sum_j a_j conj(b_j), vectorized over leading axes."""
    return np.sum(np.asarray(a) * np.conj(np.asarray(b)), axis=-1)


@dataclass(frozen=True)
class SpherePoint:
    """Unit vector in C^2; normalized on construction."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        r = float(np.linalg.norm(z))
        if r == 0.0:
            raise ValueError("cannot normalize the zero vector")
        object.__setattr__(self, "z", z / r)
        if abs(np.linalg.norm(self.z) - 1.0) > _UNIT_TOL:
            raise AssertionError("normalization failed")

    @property
    def real(self):
        return complex_to_real(self.z)


@dataclass(frozen=True)
class BallPoint:
    """Point of the closed unit ball, with a boundary flag."""

    z: np.ndarray
    boundary: bool = field(init=False, default=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        r = float(np.linalg.norm(z))
        if r > 1.0 + _UNIT_TOL:
            raise ValueError(f"|z| = {r} exceeds 1")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "boundary", abs(r - 1.0) <= _UNIT_TOL)


@dataclass(frozen=True)
class TangentVector:
    """Real tangent vector at a sphere point, in complex storage."""

    base: SpherePoint
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        object.__setattr__(self, "u", u)
        if abs(hermitian_pair(u, self.base.z).real) > _TANGENT_TOL * max(1.0, np.linalg.norm(u)):
            raise ValueError("vector is not tangent to the sphere")

    @property
    def real(self):
        return complex_to_real(self.u)


def random_sphere_points(count, rng=None):
    """Uniform points on S^3 as a (count, 2) complex array."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def hopf_embed(phi, theta1, theta2):
    """Chart (phi, theta1, theta2) -> (cos(phi) e^{i theta1}, sin(phi) e^{i theta2})."""
    z1 = np.cos(phi) * np.exp(1j * np.asarray(theta1))
    z2 = np.sin(phi) * np.exp(1j * np.asarray(theta2))
    return np.stack([z1, z2], axis=-1)


class ContactData:
    """Evaluators for the contact form, Reeb field and Levi two-form.

    All evaluators accept complex direction vectors; a real tangent
    vector enters via its complex packing, a (1,0)-type direction via
    the ambient complex vector that represents it as a derivation.
    """

    def xi(self, x, u):
        """Contact form on the direction u at the unit point x."""
        return hermitian_pair(u, x).imag

    def reeb(self, x):
        """Reeb direction i*x (complex storage of the real field)."""
        return 1j * np.asarray(x, dtype=complex)

    def dxi(self, x, u, v):
        """Levi two-form i * sum dz_j ^ dconj(z_j) on the pair (u, v)."""
        return -2.0 * hermitian_pair(u, v).imag

    def dxi_holo_pair(self, u, v):
        """Value of the Levi two-form on the pair (Z_u, conj(Z_v)) of
        (1,0)/(0,1) directions represented by complex vectors u, v: i <u, v>."""
        return 1j * hermitian_pair(u, v)

    def complex_structure(self, u):
        """J acting on a tangent direction (multiplication by i)."""
        return 1j * np.asarray(u, dtype=complex)


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
