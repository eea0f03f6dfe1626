import functools
import math

import numpy as np
import pytest

from spherelab.basis import DegreeTable, graded_indices, monomial_norm_closed_form
from spherelab.geometry import random_sphere_points
from spherelab.quadrature import gauss_legendre_01

AREA = 2.0 * math.pi ** 2

_gauss_legendre_01 = functools.cache(gauss_legendre_01)


def monomial_norm_quadrature(alpha, npts=None):
    """Squared norm of z^alpha on S^3 against the contact volume, by
    quadrature: the oracle for monomial_norm_closed_form.

    The integrand depends on |z_1|, |z_2| only, so the angular factors of
    the product rule collapse to the total angle mass; the latitude part
    is a Gauss-Legendre rule in t = |z_1|^2, exact for t-polynomials of
    degree <= 2*npts - 1.
    """
    a1, a2 = (int(a) for a in alpha)
    t, w = _gauss_legendre_01(max(npts or (a1 + a2 + 2), 4))
    return float(np.dot(w * 0.5 * (2.0 * math.pi) ** 2, t ** a1 * (1.0 - t) ** a2))


def test_graded_order():
    assert graded_indices(3) == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_norm_examples():
    assert monomial_norm_closed_form((0, 0)) == pytest.approx(AREA, rel=1e-14)
    assert monomial_norm_closed_form((1, 0)) == pytest.approx(math.pi ** 2, rel=1e-14)
    assert monomial_norm_closed_form((2, 1)) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)
    for alpha in ((0, 0), (1, 0), (2, 1), (5, 3)):
        quad = monomial_norm_quadrature(alpha, npts=32)
        assert quad == pytest.approx(monomial_norm_closed_form(alpha), rel=1e-12)


def test_norm_quadrature_full_rule(rule24, table):
    # the collapsed zonal rule agrees with a genuine integral over the
    # full product rule for a handful of monomials
    for alpha in ((1, 0), (3, 2), (0, 4)):
        el = table.element(alpha)
        vals = np.abs(el.evaluate(rule24.points)) ** 2
        assert rule24.integrate(vals) == pytest.approx(1.0, abs=1e-10)


def test_table_constants(table):
    assert table.constants[0] == pytest.approx(1.0 / AREA, rel=1e-12)
    for m in (1, 5, 17):
        assert table.constants[m] == pytest.approx((m + 1) / AREA, rel=1e-10)
    assert np.all(table.constants > 0.0)
    assert np.all(np.diff(table.constants) > 0.0)  # strictly increasing on S^3


def test_closed_forms_match_quadrature():
    # c_m = 1 / ||z_1^m||^2, against one Gauss-Legendre rule for every
    # m <= 200, and every norm with |alpha| <= 120 against one rule for
    # all of them (rules of max degree + 4 points, exact for these degrees)
    table = DegreeTable(200)
    by_quad = np.array([1.0 / monomial_norm_quadrature((m, 0), npts=204) for m in range(201)])
    assert np.max(np.abs(table.constants - by_quad) / table.constants) <= 1e-12
    alphas = [a for m in range(121) for a in graded_indices(m)]
    closed = np.array([monomial_norm_closed_form(a) for a in alphas])
    by_quad = np.array([monomial_norm_quadrature(a, npts=124) for a in alphas])
    assert np.max(np.abs(closed - by_quad) / closed) <= 1e-12
    # the table reads the same closed form in every route
    assert DegreeTable(120).norm_sq((60, 60)) == monomial_norm_closed_form((60, 60))
    with pytest.raises(ValueError):
        DegreeTable(120).norm_sq((60, 61))


def test_degree_kernel_fit(table, rng):
    for m in (3, 6, 11):
        x = random_sphere_points(1, rng=rng)[0]
        y = random_sphere_points(1, rng=rng)[0]
        brute = table.degree_kernel_bruteforce(m, x, y)
        closed = table.degree_kernel(m, x, y)
        assert abs(brute - closed) <= 1e-10 * max(1.0, abs(closed))
    # diagonal value is the constant itself
    x = random_sphere_points(1, rng=rng)[0]
    assert table.degree_kernel(4, x, x).real == pytest.approx(table.constants[4], rel=1e-12)


def test_reproducing_property(table, rule24):
    x = np.array([1.0, 0.0], dtype=complex)
    assert table.reproducing_residual(4, (4, 0), x, rule24) <= 1e-10
    # degree mismatch projects to zero
    assert table.reproducing_residual(4, (6, 0), x, rule24) <= 1e-10
    rng = np.random.default_rng(3)
    y = random_sphere_points(1, rng=rng)[0]
    assert table.reproducing_residual(7, (3, 4), y, rule24) <= 1e-8


def test_gram_identity(table, rule24):
    alphas = [a for m in range(7) for a in graded_indices(m)]
    mat = table.design_matrix(alphas, rule24.points)
    gram = (mat.conj().T * rule24.weights) @ mat
    assert np.max(np.abs(gram - np.eye(len(alphas)))) <= 1e-8


def test_extension(table, rng):
    el = table.element((2, 1))
    x = random_sphere_points(1, rng=rng)[0]
    assert el.evaluate(x)[0] == pytest.approx(el.evaluate(x[None, :])[0])
    assert el.evaluate(np.zeros((1, 2), dtype=complex))[0] == 0.0
    r = 0.6
    inner = el.evaluate((r * x)[None, :])[0]
    assert abs(inner) == pytest.approx(r ** 3 * abs(el.evaluate(x)[0]), rel=1e-12)


def test_reeb_action_is_degree(table, rng):
    # along the circle action z -> e^{i theta} z a degree-m element picks
    # up e^{i m theta}; its Reeb derivative is i m times itself
    el = table.element((3, 2))
    x = random_sphere_points(1, rng=rng)[0]
    theta = 0.7
    rotated = el.evaluate((np.exp(1j * theta) * x)[None, :])[0]
    assert rotated == pytest.approx(np.exp(5j * theta) * el.evaluate(x)[0], rel=1e-12)
    h = 1e-6
    fd = (el.evaluate((np.exp(1j * h) * x)[None, :])[0]
          - el.evaluate((np.exp(-1j * h) * x)[None, :])[0]) / (2 * h)
    assert fd == pytest.approx(5j * el.evaluate(x)[0], rel=1e-8)
