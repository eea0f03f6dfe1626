"""The band component map into projective space and its metric data.

For a scale k the map sends a sphere point to the vector of its kernel
field's components (KernelField.components): cutoff-weighted normalized
monomials, led by the constant kappa when kappa = 1.  Its
projectivization is studied through

    normalized_overlap h(x, y) = |<F(x), F(y)>|^2 / (|F(x)|^2 |F(y)|^2),
    overlap_hessian    H(u, v) = Re(<uF, F> conj(<vF, F>)
                                  - <uF, vF> |F|^2) / |F|^4,

and the pullback of the Fubini-Study line element

    fs(u, v) = (|F|^2 <uF, vF> - <uF, F> conj(<vF, F>)) / |F|^4,

whose real part on real pairs is -H.  All inner products reduce to the
band kernel's exact diagonal data, so every quantity here is closed
form in the three band moments; finite differences only appear in tests.
"""

from __future__ import annotations

import math

import numpy as np

from spherelab.basis import DegreeTable
from spherelab.cutoffs import Cutoff
from spherelab.geometry import hermitian_pair, random_sphere_points, tangent_frame
from spherelab.kernels import KernelField

__all__ = ["EmbeddingMap"]


class EmbeddingMap:
    """Cutoff-weighted component map at scale k with kappa in {0, 1}."""

    def __init__(self, table: DegreeTable, cutoff: Cutoff, k, kappa=0):
        self.table = table
        self.cutoff = cutoff
        self.k = float(k)
        self.field = KernelField(table, cutoff, k, weight="squared", kappa=kappa)

    def components(self, points):
        """Component vectors (npoints, components), in the order of
        KernelField.components."""
        points = np.atleast_2d(np.asarray(points, dtype=complex))
        alphas, weights = self.field.components
        return self.table.design_matrix(alphas, points, extra_scale=weights)

    # ------------------------------------------------------------- overlap
    def squared_length(self):
        return self.field.squared_length()

    def overlap(self, x, y):
        """<F(x), F(y)> = kappa^2 + band kernel."""
        return self.field.kappa ** 2 + self.field.kernel(x, y)

    def normalized_overlap(self, x, y):
        """h(x, y) in [0, 1]; equals 1 iff the projective images agree."""
        num = np.abs(self.overlap(x, y)) ** 2
        return num / self.squared_length() ** 2

    def normalized_overlap_from_products(self, q):
        """h as a function of the Hermitian pairing <x, y> (unitary
        invariance makes this the full dependence)."""
        s = self.field.kappa ** 2 + self.field.kernel_from_products(q)
        return np.abs(s) ** 2 / self.squared_length() ** 2

    def fs_distance(self, x, y):
        """Fubini-Study distance sqrt(1 - sqrt(h))."""
        h = np.clip(self.normalized_overlap(x, y).real, 0.0, 1.0)
        return np.sqrt(1.0 - np.sqrt(h))

    # ----------------------------------------------------------- derivatives
    def fs_pullback(self, x, u, v):
        """Sesquilinear Fubini-Study pullback on directions (u, v)."""
        L = self.squared_length()
        grad, second = self.field.grad_diag_pair, self.field.second_diag_pair
        return (L * second(x, u, v) - grad(x, u) * np.conj(grad(x, v))) / L ** 2

    def overlap_hessian_pair(self, x, u, v):
        """H(u, v) for real tangent directions in complex packing."""
        L = self.squared_length()
        grad, second = self.field.grad_diag_pair, self.field.second_diag_pair
        val = grad(x, u) * np.conj(grad(x, v)) - second(x, u, v) * L
        return val.real / L ** 2

    def overlap_hessian_matrix(self, x, frame=None):
        """Symmetric matrix of H in a real tangent frame (default frame).

        Closed form of overlap_hessian_pair on all frame pairs at once:
        with ux = frame @ conj(x) (the pairings <u_i, x>) and the frame's
        Gram matrix G_ij = <u_i, u_j>, the mixed second derivative is
        (K2 - K1) ux_i conj(ux_j) + K1 G_ij, as in
        KernelField.second_diag_pair, and the gradient is K1 ux_i.  An
        explicit frame (..., dim, 2) may carry leading point axes shared
        with x (..., 2); the result is (..., dim, dim)."""
        frame = np.asarray(tangent_frame(x) if frame is None else frame, dtype=complex)
        x = np.asarray(x, dtype=complex)
        field = self.field
        L = self.squared_length()
        ux = np.einsum("...ij,...j->...i", frame, np.conj(x))
        gram = np.einsum("...ik,...jk->...ij", frame, np.conj(frame))
        grad = field.moment1 * ux
        outer = ux[..., :, None] * np.conj(ux[..., None, :])
        second = (field.moment2 - field.moment1) * outer + field.moment1 * gram
        val = grad[..., :, None] * np.conj(grad[..., None, :]) - second * L
        out = val.real / L ** 2
        return 0.5 * (out + np.swapaxes(out, -1, -2))

    def scaled_hessian_matrix(self, x):
        """H in the frame (Reeb scaled by 1/k, horizontals by 1/sqrt(k)).

        Converges entrywise to a fixed negative-definite matrix; the
        deviation decays like 1/sqrt(k)."""
        frame = tangent_frame(x)
        scales = np.array([1.0 / self.k] + [1.0 / math.sqrt(self.k)] * (len(frame) - 1))
        h = self.overlap_hessian_matrix(x, frame)
        return h * scales[:, None] * scales[None, :]

    # ------------------------------------------------------------- scans
    def separation_scan(self, sample_size=400, min_distance=0.5, rng=None):
        """Max normalized overlap over sampled pairs at chordal distance
        at least min_distance; flags any h above 1 or above 1 - margin."""
        rng = np.random.default_rng(rng)
        xs = random_sphere_points(sample_size, rng)
        ys = random_sphere_points(sample_size, rng)
        chordal = np.linalg.norm(xs - ys, axis=1)
        keep = chordal >= min_distance
        q = hermitian_pair(xs[keep], ys[keep])
        h = self.normalized_overlap_from_products(q).real
        return {
            "k": self.k,
            "pairs": int(keep.sum()),
            "min_distance": float(min_distance),
            "max_h": float(h.max()) if h.size else 0.0,
            "violations_above_one": int(np.sum(h > 1.0 + 1e-12)),
        }
