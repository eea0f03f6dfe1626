"""Degree decomposition of boundary values of holomorphic monomials.

On the unit sphere S^3 in C^2 the operator -i T (T the Reeb field,
projected to boundary values of holomorphic functions) has eigenvalues
0, 1, 2, ... with the degree-m eigenspace spanned by the monomials
z^alpha = z_1^a z_2^b, a + b = m, restricted to the sphere.  The
reproducing kernel of the degree-m component is a constant multiple of
<x, y>^m:

    K_m(x, y) = c_m <x, y>^m,   c_m = sum over |alpha| = m of
                                      |x^alpha|^2 / ||z^alpha||^2.

Norms and constants are closed forms.  Against the contact volume the
squared norm is the Beta integral

    ||z^alpha||^2 = 2 pi^2 alpha! / (|alpha| + 1)!
                  = 2 pi^2 / ((m + 1) binom(m, alpha_1)),   m = |alpha|,

and at x = (1, 0) only alpha = (m, 0) contributes to the sum above, so
c_m = 1 / ||z_1^m||^2 = (m + 1) / (2 pi^2).  The test suite checks both
against Gauss-Legendre quadrature, and the orthonormal sum against
c_m <x, y>^m at random pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spherelab import _accel
from spherelab.quadrature import SphereRule

__all__ = [
    "BasisElement",
    "DegreeTable",
    "graded_indices",
    "monomial_norm_closed_form",
]


def graded_indices(degree):
    """Exponent pairs of the given total degree in graded lexicographic order."""
    return [(i, degree - i) for i in range(degree + 1)]


def monomial_norm_closed_form(alpha):
    """Squared norm of z^alpha on S^3: 2 pi^2 alpha! / (|alpha| + 1)!, with
    the factorials as one exact integer binomial."""
    a1, a2 = (int(a) for a in alpha)
    m = a1 + a2
    return 2.0 * math.pi ** 2 / ((m + 1) * math.comb(m, a1))


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
    """Projector constants c_m = (m + 1) / (2 pi^2) for m = 0 .. max_degree
    on S^3, and the normalized monomials up to that degree."""

    def __init__(self, max_degree):
        self.max_degree = int(max_degree)
        self.constants = (np.arange(self.max_degree + 1) + 1.0) / (2.0 * math.pi ** 2)

    def norm_sq(self, alpha):
        """Squared norm of z^alpha (monomial_norm_closed_form)."""
        if sum(int(a) for a in alpha) > self.max_degree:
            raise ValueError("degree exceeds table bound")
        return monomial_norm_closed_form(alpha)

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

    def design_matrix(self, alphas, points, extra_scale=None):
        """Matrix of normalized monomials at points, graded-lex columns."""
        alphas = np.asarray(list(alphas), dtype=np.int64)
        scale = np.array([1.0 / math.sqrt(monomial_norm_closed_form(a))
                          for a in alphas.tolist()])
        if extra_scale is not None:
            scale = scale * np.asarray(extra_scale, dtype=float)
        return _accel.monomial_matrix(np.asarray(points, dtype=complex), alphas, scale)
