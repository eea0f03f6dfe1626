"""Degree decomposition of boundary values of holomorphic monomials.

On the unit sphere S^3 in C^2 the operator -i T (T the Reeb field,
projected to boundary values of holomorphic functions) has eigenvalues
0, 1, 2, ... with the degree-m eigenspace spanned by the monomials
z^alpha = z_1^a z_2^b, a + b = m, restricted to the sphere.  The
reproducing kernel of the degree-m component is a constant multiple of
<x, y>^m:

    K_m(x, y) = c_m <x, y>^m,   c_m = sum over |alpha| = m of
                                      |x^alpha|^2 / ||z^alpha||^2.

Norms are computed by quadrature against the contact volume and
cross-checked against the closed Beta value 2 pi^2 alpha! / (1 +
|alpha|)!; a discrepancy above 1e-8 aborts the table build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spherelab import _accel
from spherelab.quadrature import SphereRule, gauss_legendre_01

__all__ = [
    "BasisElement",
    "DegreeTable",
    "graded_indices",
    "monomial_norm_closed_form",
    "monomial_norm_quadrature",
]

_NORM_ABORT_TOL = 1e-8


def graded_indices(degree):
    """Exponent pairs of the given total degree in graded lexicographic order."""
    return [(i, degree - i) for i in range(degree + 1)]


def monomial_norm_closed_form(alpha):
    """Beta-integral value of the squared norm: 2 pi^2 alpha!/(1+|alpha|)!."""
    alpha = tuple(int(a) for a in alpha)
    total = sum(alpha)
    log_num = sum(math.lgamma(a + 1) for a in alpha)
    log_den = math.lgamma(total + 2)
    return 2.0 * math.pi ** 2 * math.exp(log_num - log_den)


def monomial_norm_quadrature(alpha, npts=None):
    """Squared norm of z^alpha on S^3 against the contact volume.

    The integrand depends on |z_1|, |z_2| only, so the angular factors of
    the product rule collapse to the total angle mass; the latitude part
    is a Gauss-Legendre rule, exact for t-polynomials of degree
    <= 2*npts - 1.
    """
    a1, a2 = (int(a) for a in alpha)
    npts = npts or (a1 + a2 + 2)
    t, w = gauss_legendre_01(max(npts, 4))
    w = w * 0.5 * (2.0 * math.pi) ** 2
    return float(np.dot(w, t ** a1 * (1.0 - t) ** a2))


@dataclass(frozen=True)
class BasisElement:
    """One normalized monomial: exponents and squared norm."""

    alpha: tuple
    norm_sq: float

    def evaluate(self, points):
        """Normalized monomial at sphere or interior ball points (the
        holomorphic extension of the boundary eigenfunction is the
        polynomial itself)."""
        points = np.atleast_2d(np.asarray(points, dtype=complex))
        vals = np.ones(points.shape[0], dtype=complex)
        for j, a in enumerate(self.alpha):
            if a:
                vals = vals * points[:, j] ** a
        return vals / math.sqrt(self.norm_sq)


class DegreeTable:
    """Projector constants c_m for m = 0 .. max_degree on S^3.

    Only the constants (and norms on demand) are retained; memory is
    O(max_degree).  Positivity is asserted.
    """

    def __init__(self, max_degree, quad_points=None):
        self.max_degree = int(max_degree)
        npts = quad_points or (self.max_degree + 4)
        t, w = gauss_legendre_01(npts)
        self._t = t
        self._w = w * 0.5 * (2.0 * math.pi) ** 2
        # c_m equals K_m(x, x) at any unit x; at x = (1, 0) only
        # alpha = (m, 0) contributes, so c_m = 1 / norm^2(z_1^m).
        # Agreement of the full orthonormal sum with c_m <x, y>^m at
        # random pairs is checked in the test suite, not assumed here.
        constants = np.empty(self.max_degree + 1)
        for m in range(self.max_degree + 1):
            constants[m] = 1.0 / self._norm_sq((m, 0))
        if np.any(constants <= 0.0):
            raise ArithmeticError("projector constants must be positive")
        self.constants = constants
        self._inv_norms = {}

    def _norm_sq(self, alpha):
        a1, a2 = alpha
        byquad = float(np.dot(self._w, self._t ** a1 * (1.0 - self._t) ** a2))
        closed = monomial_norm_closed_form(alpha)
        if abs(byquad - closed) > _NORM_ABORT_TOL * closed:
            raise ArithmeticError(
                f"norm quadrature disagrees with Beta value for {alpha}: "
                f"{byquad} vs {closed}")
        return byquad

    def norm_sq(self, alpha):
        """Quadrature norm of z^alpha, cross-checked against the Beta value."""
        alpha = tuple(int(a) for a in alpha)
        if sum(alpha) > self.max_degree:
            raise ValueError("degree exceeds table bound")
        return self._norm_sq(alpha)

    def element(self, alpha):
        return BasisElement(tuple(int(a) for a in alpha), self.norm_sq(alpha))

    def elements_of_degree(self, m):
        return [self.element(a) for a in graded_indices(m)]

    def degree_kernel(self, m, x, y):
        """K_m(x, y) = c_m <x, y>^m."""
        if m > self.max_degree:
            raise ValueError("degree exceeds table bound")
        q = np.sum(np.asarray(x, dtype=complex) * np.conj(np.asarray(y, dtype=complex)), axis=-1)
        return self.constants[m] * q ** m

    def degree_kernel_bruteforce(self, m, x, y):
        """Same kernel by the orthonormal-sum route (test oracle)."""
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        total = 0.0 + 0.0j
        for el in self.elements_of_degree(m):
            total += el.evaluate(x)[0] * np.conj(el.evaluate(y)[0])
        return total

    def reproducing_residual(self, m, alpha, x, rule: SphereRule):
        """|integral of K_m(x, .) p - p(x)| for the monomial p = z^alpha."""
        el = self.element(alpha)
        pvals = el.evaluate(rule.points)
        kvals = self.degree_kernel(m, np.asarray(x, dtype=complex)[None, :], rule.points)
        proj = rule.integrate(kvals * pvals)
        target = el.evaluate(np.asarray(x, dtype=complex))[0] if sum(alpha) == m else 0.0
        return abs(proj - target)

    def _inv_norm(self, alpha):
        """1 / norm(z^alpha); the norm and its Beta cross-check run once per alpha."""
        if alpha not in self._inv_norms:
            self._inv_norms[alpha] = 1.0 / math.sqrt(self._norm_sq(alpha))
        return self._inv_norms[alpha]

    def design_matrix(self, alphas, points, extra_scale=None):
        """Matrix of normalized monomials at points, graded-lex columns."""
        alphas = np.asarray(list(alphas), dtype=np.int64)
        scale = np.array([self._inv_norm(tuple(a)) for a in alphas.tolist()])
        if extra_scale is not None:
            scale = scale * np.asarray(extra_scale, dtype=float)
        return _accel.monomial_matrix(np.asarray(points, dtype=complex), alphas, scale)
