"""Band-filtered reproducing kernels and their exact derivatives.

A KernelField fixes a cutoff, a scale k and a weight kind ("squared"
uses |chi|^2, "plain" uses chi).  Its kernel is the finite band sum

    S(x, y) = sum over band degrees m of  w_m c_m <x, y>^m,

with w_m the sampled cutoff and c_m the degree projector constants.  On
the round sphere unitary invariance collapses the diagonal data to three
band moments

    K0 = sum w_m c_m,  K1 = sum m w_m c_m,  K2 = sum m^2 w_m c_m,

so diagonal values, first derivatives and the mixed second derivative at
the diagonal are exact closed expressions in K0, K1, K2; no numerical
differentiation is performed anywhere (finite differences appear only as
test oracles).

Inside the ball the amplitude S(z, z) and the complex Hessian of
log(c + S(z, z)) depend on q = |z|^2 only, through the radial band sums
of q and its first two q-derivatives.  These sums run once per distinct
q of the points and are spread back to them, so a product ball rule pays
for a few values per radius, not one per node (48 values for the 10368
nodes of BallRule(6, radial=12)).

Direction convention: derivative slots take ambient complex vectors.
For the first slot the derivative of <x, y> along u is <u, y>; for the
second slot it is <x, v>.  A real tangent vector enters via its complex
packing; a (1,0)-type direction via its representing vector, which makes
mixed (first slot, conjugated second slot) evaluations sesquilinear.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from spherelab import _accel
from spherelab.basis import DegreeTable, graded_indices
from spherelab.cutoffs import Cutoff, band_moment
from spherelab.geometry import hermitian_pair

__all__ = ["KernelField"]


class KernelField:
    """Band kernel with exact diagonal derivative data."""

    def __init__(self, table: DegreeTable, cutoff: Cutoff, k, weight="squared", kappa=0.0):
        if k <= 0:
            raise ValueError("k must be positive")
        if weight not in ("squared", "plain"):
            raise ValueError("weight must be 'squared' or 'plain'")
        if kappa not in (0, 1):
            raise ValueError("kappa must be 0 or 1")
        self.table = table
        self.cutoff = cutoff
        self.k = float(k)
        self.weight = weight
        self.kappa = float(kappa)
        ms = cutoff.band_degrees(k)
        if ms.size and ms.max() > table.max_degree:
            raise ValueError("degree table too small for this k and cutoff")
        wm = cutoff.chi(ms / self.k)
        if weight == "squared":
            wm = wm * wm
        keep = wm != 0.0
        self.degrees = ms[keep]
        self.band_weights = wm[keep]
        self.coeffs = self.band_weights * table.constants[self.degrees]
        self.moment0 = math.fsum(self.coeffs)
        self.moment1 = math.fsum(self.coeffs * self.degrees)
        self.moment2 = math.fsum(self.coeffs * self.degrees.astype(float) ** 2)
        if self.moment0 <= 0.0:
            raise ArithmeticError("empty or degenerate spectral band")

    @functools.cached_property
    def components(self):
        """(alphas, weights) of the component list, shared by ensembles and
        embedding maps: with kappa = 1 first the constant, exponents (0, 0)
        and weight kappa ||1||, whose normalized column is exactly kappa;
        then, in graded-lex order, the exponents of each normalized monomial
        of a band degree m and its weight chi(m / k)."""
        alphas = []
        weights = []
        if self.kappa:
            alphas.append((0, 0))
            weights.append(self.kappa * math.sqrt(self.table.norm_sq((0, 0))))
        for m in self.degrees:
            w = float(self.cutoff.chi(m / self.k))
            for alpha in graded_indices(int(m)):
                alphas.append(alpha)
                weights.append(w)
        return alphas, weights

    # ------------------------------------------------------------ kernels
    def pair_product(self, x, y):
        """Hermitian pairing <x, y> broadcast over leading axes."""
        return hermitian_pair(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))

    def kernel(self, x, y):
        """S(x, y), compensated ascending-degree band sum."""
        return self.kernel_from_products(self.pair_product(x, y))

    def kernel_from_products(self, q):
        """S as a function of the pairing value <x, y> directly."""
        return _accel.band_power_sum(np.asarray(q, dtype=complex), self.degrees, self.coeffs.astype(complex))

    def diag(self):
        """S(x, x); constant on the sphere by unitary invariance."""
        return self.moment0

    def squared_length(self):
        """kappa^2 + S(x, x): squared length of the component vector."""
        return self.kappa ** 2 + self.moment0

    # --------------------------------------------------------- derivatives
    def grad_diag_pair(self, x, u):
        """First-slot derivative at the diagonal on the direction u."""
        return self.moment1 * self.pair_product(u, x)

    def second_diag_pair(self, x, u, v):
        """Mixed (first slot, second slot) derivative at the diagonal."""
        ux = self.pair_product(u, x)
        xv = self.pair_product(x, v)
        uv = self.pair_product(u, v)
        return (self.moment2 - self.moment1) * ux * xv + self.moment1 * uv

    def beta_pair(self, x, u):
        """The expected-zero one-form: grad / (2 pi i (kappa^2 + diag))."""
        return self.grad_diag_pair(x, u) / (2j * math.pi * self.squared_length())

    def beta_scale(self):
        """beta = beta_scale() * xi on the sphere (tested, not assumed)."""
        return self.moment1 / (2.0 * math.pi * self.squared_length())

    # ---------------------------------------------------- reference values
    def diag_reference(self):
        """Leading-order diagonal value k^2 (2 pi^2)^{-1} moment0."""
        moment0 = band_moment(self.cutoff, 0, squared=(self.weight == "squared"))
        return self.k ** 2 / (2.0 * math.pi ** 2) * moment0

    # ------------------------------------------------------- ball quantities
    def _radial_sums(self, points, order):
        """Band sums of the points' q = |z|^2 and the index that spreads them.

        Returns (inverse, sums): sums[j] holds, at each distinct q,
        s_j = sum m (m - 1) ... (m - j + 1) w_m c_m q^(m - j), the j-th
        derivative in q of the amplitude, for j = 0 .. order, and
        sums[j][inverse] is s_j at the points.  The key is each point's
        rounded q itself, so a point's sums are bit for bit those of a
        per-point evaluation.  Degrees m < j, whose coefficient has a
        factor 0, are left out, so no negative power of q is formed.
        """
        points = np.atleast_2d(np.asarray(points, dtype=complex))
        q = np.sum(points * np.conj(points), axis=-1).real
        distinct, inverse = np.unique(q, return_inverse=True)
        ms = self.degrees.astype(float)
        coeffs = self.coeffs
        sums = []
        for j in range(order + 1):
            keep = self.degrees >= j
            sums.append(_accel.band_power_sum(distinct, self.degrees[keep] - j,
                                              coeffs[keep]).real)
            coeffs = coeffs * (ms - j)
        return inverse, sums

    def ball_amplitude(self, points):
        """Sum of squared moduli of the weighted extended components.

        Depends on |z|^2 only, and the band sum runs once per distinct
        |z|^2 of the points; vanishes at 0 because the band excludes
        degree zero; increases with |z|."""
        inverse, (s0,) = self._radial_sums(points, 0)
        return s0[inverse]

    def ddbar_log(self, points, c=1.0):
        """Matrix of the complex Hessian of log(c + amplitude).

        Returns (npoints, 2, 2) with entries d^2/dz_j dconj(z_k); the
        matrix is Hermitian and positive semidefinite for c > 0.  It is
        a(q) conj(z) z^T + b(q) I in q = |z|^2, and the band sums and
        the factors a, b run once per distinct |z|^2 of the points.
        """
        if c <= 0.0:
            raise ValueError("c must be positive")
        points = np.atleast_2d(np.asarray(points, dtype=complex))
        inverse, (s0, s1, s2) = self._radial_sums(points, 2)
        denom = c + s0
        outer_factor = ((s2 * denom - s1 ** 2) / denom ** 2)[inverse]
        eye_factor = (s1 / denom)[inverse]
        zbar = np.conj(points)
        outer = zbar[:, :, None] * points[:, None, :]
        eye = np.eye(points.shape[1])[None, :, :]
        h = outer_factor[:, None, None] * outer
        h = h + eye_factor[:, None, None] * eye
        return h
