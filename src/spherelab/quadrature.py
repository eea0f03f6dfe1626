"""Quadrature rules on the three-sphere, the unit ball and model curves.

The deterministic sphere rule is a product of Gauss-Legendre nodes in
t = cos(phi)^2 (the Hopf latitude) with uniform angle grids; it
integrates monomials z^alpha conj(z)^beta exactly whenever
|alpha| + |beta| <= 2*level - 1.  Form pairings divide the pulled-back
top coefficient by the coefficient of the oriented contact volume
(1/2) xi ^ dxi at each node, which both fixes the orientation (the
contact volume is positive) and preserves exactness: after averaging
over the angle grids the quotient is again polynomial in t.

Dimensions n >= 2 are only served by a Monte Carlo rule and must be
requested explicitly via the mc_fallback flag.
"""

from __future__ import annotations

import math

import numpy as np

from spherelab import forms
from spherelab.forms import PolyForm, real_direction
from spherelab.geometry import hopf_embed

__all__ = [
    "UnsupportedDimensionError",
    "SphereRule",
    "BallRule",
    "CircleRule",
    "DiscRule",
    "SphereCellRule",
    "sphere_quadrature",
    "ball_quadrature",
    "contact_one_form",
    "contact_volume_form",
    "sphere_area",
    "ball_volume",
]


class UnsupportedDimensionError(ValueError):
    pass


def sphere_area(n):
    """Total round measure of S^{2n+1}: 2 pi^{n+1} / n!."""
    return 2.0 * math.pi ** (n + 1) / math.factorial(n)


def ball_volume(n):
    """Lebesgue volume of the unit ball in C^{n+1}: pi^{n+1} / (n+1)!."""
    return math.pi ** (n + 1) / math.factorial(n + 1)


def gauss_legendre_01(npts):
    """Gauss-Legendre nodes/weights on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def contact_one_form(ncplx=2):
    """Ambient one-form (1/2i) sum (conj(z_j) dz_j - z_j dconj(z_j))."""
    total = PolyForm.zero(ncplx)
    for j in range(ncplx):
        total = total + forms.zbar_coord(j, ncplx) * forms.dz(j, ncplx) * (1.0 / 2j)
        total = total - forms.z_coord(j, ncplx) * forms.dzbar(j, ncplx) * (1.0 / 2j)
    return total


def contact_volume_form(ncplx=2):
    """(2^-n / n!) xi ^ (dxi)^n as an ambient polynomial form (n = ncplx-1)."""
    xi = contact_one_form(ncplx)
    dxi = xi.d()
    n = ncplx - 1
    vol = xi
    for _ in range(n):
        vol = vol.wedge(dxi)
    return vol * (0.5 ** n / math.factorial(n))


class SphereRule:
    """Product rule on S^3 in Hopf coordinates.

    measure is one of "round" (the induced round measure, total 2 pi^2)
    or "contact" (the volume (1/2) xi ^ dxi, numerically identical on
    the round sphere; its weights are the round weights times the
    evaluated density ratio, kept as a separate code path on purpose).
    """

    def __init__(self, level, measure="round", n=1):
        if n != 1:
            raise UnsupportedDimensionError(
                "deterministic product rule requires n = 1; use mc_fallback")
        if level < 4:
            raise ValueError("sphere rule needs level >= 4")
        if measure not in ("round", "contact"):
            raise ValueError(f"unknown measure {measure!r}")
        self.level = int(level)
        self.measure = measure
        self.n = 1
        self.is_stochastic = False
        t, wt = gauss_legendre_01(self.level)
        nang = self.nang = 2 * self.level
        ang = 2.0 * math.pi * np.arange(nang) / nang
        wang = 2.0 * math.pi / nang
        phi = np.arccos(np.sqrt(t))
        P, T1, T2 = np.meshgrid(phi, ang, ang, indexing="ij")
        self.phi = P.ravel()
        self.theta1 = T1.ravel()
        self.theta2 = T2.ravel()
        W = np.broadcast_to((0.5 * wt)[:, None, None] * wang * wang, P.shape)
        self._round_weights = W.ravel().copy()
        self.points = hopf_embed(self.phi, self.theta1, self.theta2)
        self._frame = _hopf_frame(self.phi, self.theta1, self.theta2)
        vol = contact_volume_form(2)
        self._volume_coeff = vol.evaluate(
            self.points, [real_direction(f) for f in self._frame]).real
        sphi_cphi = np.sin(self.phi) * np.cos(self.phi)
        self.density = np.abs(self._volume_coeff) / sphi_cphi
        if measure == "contact":
            self.weights = self._round_weights * self.density
        else:
            self.weights = self._round_weights
        # exact for z^a conj(z)^b with |a| + |b| up to this bound
        self.degree_bound = 2 * self.level - 1

    @property
    def npoints(self):
        return self.points.shape[0]

    def torus_grid(self):
        """(moduli, nang): the nodes are (rho1 e^{2 pi i i1/nang}, rho2 e^{2 pi i
        i2/nang}) in (m, i1, i2) order, with (rho1, rho2) = moduli[m] real."""
        phi = self.phi[::self.nang ** 2]
        return np.stack([np.cos(phi), np.sin(phi)], axis=1), self.nang

    def integrate(self, values):
        """Sum of weights times values, in fixed node order."""
        return np.dot(self.weights, values)

    def frame_directions(self):
        """Hopf coordinate frame as direction pairs for form evaluation."""
        return [real_direction(f) for f in self._frame]

    def pair_form(self, psi):
        """Oriented integral of a top-degree polynomial form over S^3."""
        if psi.degree != 3:
            raise ValueError("sphere pairing needs a 3-form")
        g = psi.evaluate(self.points, self.frame_directions())
        return self.pair_values(g)

    def pair_values(self, top_values):
        """Oriented integral from pre-assembled top coefficients on the
        Hopf frame: divides by the contact volume coefficient so that the
        orientation with positive contact volume is used."""
        return np.dot(self.pairing_weights, top_values)

    @property
    def pairing_weights(self):
        """Weights W with oriented pairing = sum W * (top coefficient)."""
        return self._round_weights * self.density / self._volume_coeff

    def zonal(self):
        """Collapsed (t, weight) sub-rule for integrands of |z_j| only."""
        t, wt = gauss_legendre_01(self.level)
        area_factor = (2.0 * math.pi) ** 2
        return t, 0.5 * wt * area_factor


class MonteCarloSphereRule:
    """Uniform Monte Carlo rule on S^{2n+1} with standard-error reporting."""

    def __init__(self, npoints, n, seed=0):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
        g = rng.standard_normal((npoints, n + 1)) + 1j * rng.standard_normal((npoints, n + 1))
        self.points = g / np.linalg.norm(g, axis=1, keepdims=True)
        self.n = n
        area = sphere_area(n)
        self.weights = np.full(npoints, area / npoints)
        self.is_stochastic = True
        self.measure = "round"

    @property
    def npoints(self):
        return self.points.shape[0]

    def integrate(self, values):
        return np.dot(self.weights, values)

    def standard_error(self, values):
        area = sphere_area(self.n)
        return area * float(np.std(values)) / math.sqrt(len(values))


def sphere_quadrature(level, measure="round", n=1, mc_fallback=False, mc_points=200_000, seed=0):
    """Factory honoring the dimension restriction of the product rule."""
    if n == 1:
        return SphereRule(level, measure=measure, n=1)
    if not mc_fallback:
        raise UnsupportedDimensionError(
            f"n = {n} has no deterministic rule; pass mc_fallback=True")
    return MonteCarloSphereRule(mc_points, n, seed=seed)


class BallRule:
    """Product rule (radial Gauss-Legendre) x (sphere rule) on the unit ball."""

    def __init__(self, level, n=1, radial=None):
        if level < 2:
            raise ValueError("ball rule needs level >= 2")
        if n != 1:
            raise UnsupportedDimensionError("ball rule implemented for n = 1")
        self.level = int(level)
        self.n = 1
        self.sphere = SphereRule(max(level, 4))
        nr = radial if radial is not None else max(level // 2, 8)
        r, wr = gauss_legendre_01(nr)
        self.radial_nodes = r
        qs = self.sphere.npoints
        self.points = (r[:, None, None] * self.sphere.points[None, :, :]).reshape(-1, 2)
        w = (wr * r ** 3)[:, None] * self.sphere.weights[None, :]
        self.weights = w.ravel()
        self.is_stochastic = False

    @property
    def npoints(self):
        return self.points.shape[0]

    def torus_grid(self):
        """As SphereRule.torus_grid, with one modulus pair per (radius,
        latitude) in that order."""
        moduli, nang = self.sphere.torus_grid()
        return (self.radial_nodes[:, None, None] * moduli[None, :, :]).reshape(-1, 2), nang

    def integrate(self, values):
        return np.dot(self.weights, values)

    def pair_form(self, psi):
        """Integral of a top-degree (2,2) ambient form, complex orientation."""
        if psi.degree != 4:
            raise ValueError("ball pairing needs a 4-form")
        g = psi.evaluate(self.points, _standard_frame_directions())
        return self.pair_values(g)

    def pair_values(self, top_values):
        return np.dot(self.weights, top_values)


def ball_quadrature(level, n=1):
    return BallRule(level, n=n)


def _standard_frame_directions():
    """Real coordinate frame of C^2 = R^4 as direction pairs."""
    vecs = [np.array([1.0, 0.0]), np.array([1j, 0.0]),
            np.array([0.0, 1.0]), np.array([0.0, 1j])]
    return [real_direction(v) for v in vecs]


def _hopf_frame(phi, theta1, theta2):
    """Coordinate frame (d/dphi, d/dtheta1, d/dtheta2) in complex packing."""
    e1 = np.exp(1j * theta1)
    e2 = np.exp(1j * theta2)
    zero = np.zeros_like(e1)
    dphi = np.stack([-np.sin(phi) * e1, np.cos(phi) * e2], axis=-1)
    dth1 = np.stack([1j * np.cos(phi) * e1, zero], axis=-1)
    dth2 = np.stack([zero, 1j * np.sin(phi) * e2], axis=-1)
    return [dphi, dth1, dth2]


class CircleRule:
    """Trapezoid rule on the circle {z_axis = e^{i theta}} (other component 0),
    oriented by increasing theta; weights carry arc length."""

    def __init__(self, level, axis=1):
        npts = max(8, 4 * level)
        theta = 2.0 * math.pi * np.arange(npts) / npts
        pts = np.zeros((npts, 2), dtype=complex)
        pts[:, axis] = np.exp(1j * theta)
        self.points = pts
        tangent = np.zeros((npts, 2), dtype=complex)
        tangent[:, axis] = 1j * np.exp(1j * theta)
        self.tangents = tangent
        self.weights = np.full(npts, 2.0 * math.pi / npts)
        self.measure = "curve"
        self.is_stochastic = False

    @property
    def npoints(self):
        return self.points.shape[0]

    def pair_form(self, psi):
        """Line integral of a 1-form along the oriented circle."""
        if psi.degree != 1:
            raise ValueError("circle pairing needs a 1-form")
        vals = psi.evaluate(self.points, [real_direction(self.tangents)])
        return np.dot(self.weights, vals)

    def integrate(self, values):
        return np.dot(self.weights, values)


class DiscRule:
    """Polar rule on the disc {z_1 = c, |z_2|^2 <= 1 - |c|^2}, complex
    orientation of the z_2 plane."""

    def __init__(self, level, c=0.0):
        if abs(c) >= 1.0:
            raise ValueError("disc center must be interior")
        self.c = complex(c)
        radius = math.sqrt(1.0 - abs(c) ** 2)
        nr = max(level, 8)
        nth = max(4 * level, 16)
        rho, wr = gauss_legendre_01(nr)
        rho = rho * radius
        wr = wr * radius
        theta = 2.0 * math.pi * np.arange(nth) / nth
        wth = 2.0 * math.pi / nth
        R, TH = np.meshgrid(rho, theta, indexing="ij")
        self.rho = R.ravel()
        self.theta = TH.ravel()
        pts = np.zeros((self.rho.size, 2), dtype=complex)
        pts[:, 0] = self.c
        pts[:, 1] = self.rho * np.exp(1j * self.theta)
        self.points = pts
        self.weights = (np.broadcast_to((wr)[:, None] * wth, R.shape)).ravel().copy()
        self.is_stochastic = False

    @property
    def npoints(self):
        return self.points.shape[0]

    def pair_form(self, psi):
        """Surface integral of a 2-form over the oriented disc."""
        if psi.degree != 2:
            raise ValueError("disc pairing needs a 2-form")
        e_rho = np.zeros((self.rho.size, 2), dtype=complex)
        e_rho[:, 1] = np.exp(1j * self.theta)
        e_theta = np.zeros_like(e_rho)
        e_theta[:, 1] = 1j * self.rho * np.exp(1j * self.theta)
        vals = psi.evaluate(self.points, [real_direction(e_rho), real_direction(e_theta)])
        return np.dot(self.weights, vals)

    def integrate(self, values):
        """Area integral of pointwise values."""
        return np.dot(self.weights * self.rho, values)


class SphereCellRule:
    """Composite, refinable rule on S^3 for singular integrands.

    The parameter box (t, theta1, theta2) is split into cells carrying a
    small tensor Gauss-Legendre rule.  refine(mask) subdivides flagged
    cells 2 x 2 x 2 and builds nodes for the new cells only: kept cells
    keep their node values, new cells follow them, and the node arrays
    equal those of a rule built from scratch on the final boxes.  The
    Hopf frame is built on demand by frame_directions().  Pairing uses
    the same contact-volume normalization as SphereRule, so orientation
    and measure conventions agree between the two rules.
    """

    def __init__(self, base_cells=8, nodes_per_axis=4):
        self.nodes_per_axis = int(nodes_per_axis)
        edges = np.linspace(0.0, 1.0, base_cells + 1)
        ang = np.linspace(0.0, 2.0 * math.pi, base_cells + 1)
        boxes = []
        for i in range(base_cells):
            for j in range(base_cells):
                for l in range(base_cells):
                    boxes.append((edges[i], edges[i + 1], ang[j], ang[j + 1], ang[l], ang[l + 1]))
        self.boxes = np.asarray(boxes)
        self._gl = gauss_legendre_01(self.nodes_per_axis)
        for name, values in self._cell_nodes(self.boxes).items():
            setattr(self, name, values)

    def _cell_nodes(self, boxes):
        """Node arrays of the given cells, keyed by attribute name, in cell order."""
        x, w = self._gl
        m = self.nodes_per_axis
        C = boxes.shape[0]
        t0, t1 = boxes[:, 0], boxes[:, 1]
        a0, a1 = boxes[:, 2], boxes[:, 3]
        b0, b1 = boxes[:, 4], boxes[:, 5]
        T = t0[:, None] + (t1 - t0)[:, None] * x[None, :]
        A = a0[:, None] + (a1 - a0)[:, None] * x[None, :]
        B = b0[:, None] + (b1 - b0)[:, None] * x[None, :]
        WT = (t1 - t0)[:, None] * w[None, :]
        WA = (a1 - a0)[:, None] * w[None, :]
        WB = (b1 - b0)[:, None] * w[None, :]
        t = np.broadcast_to(T[:, :, None, None], (C, m, m, m)).ravel()
        theta1 = np.broadcast_to(A[:, None, :, None], (C, m, m, m)).ravel()
        theta2 = np.broadcast_to(B[:, None, None, :], (C, m, m, m)).ravel()
        wts = (WT[:, :, None, None] * WA[:, None, :, None] * WB[:, None, None, :]).ravel()
        phi = np.arccos(np.sqrt(np.clip(t, 1e-15, 1.0 - 1e-15)))
        return {
            "phi": phi,
            "theta1": theta1,
            "theta2": theta2,
            # round measure: dsigma = (1/2) dt dtheta1 dtheta2
            "weights": 0.5 * wts,
            "points": hopf_embed(phi, theta1, theta2),
            # the contact volume coefficient on the Hopf frame is analytic
            # on the round sphere: -sin(phi) cos(phi), density ratio exactly
            # one (cross-checked against the symbolic form in the test
            # suite); evaluating the form here would dominate every
            # refinement pass.
            "_volume_coeff": -(np.sin(phi) * np.cos(phi)),
        }

    @property
    def npoints(self):
        return self.points.shape[0]

    @property
    def ncells(self):
        return self.boxes.shape[0]

    def frame_directions(self):
        return [real_direction(f) for f in _hopf_frame(self.phi, self.theta1, self.theta2)]

    def integrate(self, values):
        return np.dot(self.weights, values)

    def pair_values(self, top_values):
        return np.dot(self.pairing_weights, top_values)

    @property
    def pairing_weights(self):
        return self.weights / self._volume_coeff

    def cell_min(self, values):
        """Per-cell minimum of pointwise values (for refinement flags)."""
        m3 = self.nodes_per_axis ** 3
        return values.reshape(self.ncells, m3).min(axis=1)

    def cell_spread(self, values):
        """Per-cell (min, max - min) of pointwise values."""
        m3 = self.nodes_per_axis ** 3
        grid = values.reshape(self.ncells, m3)
        lo = grid.min(axis=1)
        return lo, grid.max(axis=1) - lo

    def refine(self, mask):
        """Subdivide flagged cells 2x2x2; returns the number of new cells.

        The kept cells come first, in their old order, then the eight
        children of each flagged cell; only the children's nodes are built.
        """
        mask = np.asarray(mask, dtype=bool)
        split = self.boxes[mask]
        if split.size == 0:
            return 0
        t0, t1, a0, a1, b0, b1 = split.T
        tm, am, bm = 0.5 * (t0 + t1), 0.5 * (a0 + a1), 0.5 * (b0 + b1)
        new = np.stack([np.stack([*ti, *ai, *bi], axis=-1)
                        for ti in ((t0, tm), (tm, t1))
                        for ai in ((a0, am), (am, a1))
                        for bi in ((b0, bm), (bm, b1))], axis=1).reshape(-1, 6)
        kept = np.repeat(~mask, self.nodes_per_axis ** 3)
        for name, values in self._cell_nodes(new).items():
            setattr(self, name, np.concatenate([getattr(self, name)[kept], values]))
        self.boxes = np.vstack([self.boxes[~mask], new])
        return new.shape[0]
