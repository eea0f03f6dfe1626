"""Quadrature rules on the three-sphere S^3, the unit ball of C^2, and the
discs of complex lines {<z, a> = c} in the ball with their boundary
circles in S^3; every rule is deterministic and none takes a dimension.

The deterministic sphere rule is a product of Gauss-Legendre nodes in
t = cos(phi)^2 (the Hopf latitude) with uniform angle grids; it
integrates monomials z^alpha conj(z)^beta exactly whenever
|alpha| + |beta| <= 2*level - 1.  Form pairings divide the pulled-back
top coefficient by the coefficient of the oriented contact volume
(1/2) xi ^ dxi at each node, which both fixes the orientation (the
contact volume is positive) and preserves exactness: after averaging
over the angle grids the quotient is again polynomial in t.

Both sphere rules are tensor products in (t, theta1, theta2), the
product rule globally (one cell) and the refinable cell rule per cell,
so they keep per-axis factors (_HopfGrid) and build node arrays by
broadcasting them: no trigonometry runs per node.  axis_values
evaluates a polynomial 0-form from the same factors (sum
factorization): z^a conj(z)^b is cos(phi)^(a1+b1) sin(phi)^(a2+b2)
e^{i (a1-b1) theta1} e^{i (a2-b2) theta2}, one broadcast product per
angle class (a1 - b1, a2 - b2).  With the node weights and the t-only
denominator [d rho ^ (1/2) xi ^ d xi]_top folded in, these are the
oriented pairing weights of a 3-form with that forms.normal_top, with
no Hopf frame.  SphereRule still builds its frame (each direction a
tuple of two node columns, None for a component that vanishes
identically) for pair_form and its recorded contact density.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import legendre

from spherelab import forms
from spherelab.forms import PolyForm

__all__ = [
    "SphereRule",
    "BallRule",
    "CircleRule",
    "DiscRule",
    "SphereCellRule",
    "contact_one_form",
    "contact_volume_form",
]


def gauss_legendre_01(npts):
    """Gauss-Legendre nodes/weights on (0, 1)."""
    x, w = legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def contact_one_form():
    """Ambient one-form (1/2i) sum (conj(z_j) dz_j - z_j dconj(z_j))."""
    total = PolyForm()
    for j in range(2):
        total = total + forms.zbar_coord(j) * forms.dz(j) * (1.0 / 2j)
        total = total - forms.z_coord(j) * forms.dzbar(j) * (1.0 / 2j)
    return total


def contact_volume_form():
    """The contact volume (1/2) xi ^ dxi as an ambient polynomial 3-form."""
    xi = contact_one_form()
    return xi.wedge(xi.d()) * 0.5


@functools.cache
def _contact_normal_top():
    """[d rho ^ (1/2) xi ^ d xi]_top = -rho / 2, the denominator of every
    density against the contact volume: of angle class (0, 0), so on the
    Hopf grid a function of t alone."""
    return forms.normal_top(contact_volume_form())


def _angle_classes(form):
    """Terms c z^a conj(z)^b of a 0-form grouped by angle class: {(a1 - b1,
    a2 - b2): [(a1 + b1, a2 + b2, c)]}, the powers of cos(phi) and sin(phi)
    with the complex coefficient, in order of first appearance."""
    classes = {}
    for (word, (a1, b1, a2, b2)), c in form.terms.items():
        if word:
            raise ValueError("axis values need a 0-form")
        classes.setdefault((a1 - b1, a2 - b2), []).append((a1 + b1, a2 + b2, complex(c)))
    return classes


def _character(e, k):
    """e^{i k theta} from the axis factor e = e^{i theta}."""
    return e ** k if k >= 0 else np.conj(e) ** -k


def _t_factor(terms, cos, sin):
    """sum c cos(phi)^p1 sin(phi)^p2 over the (p1, p2, c) of one angle class."""
    total = None
    for p1, p2, c in terms:
        value = c * cos ** p1 * sin ** p2
        total = value if total is None else total + value
    return total


class _HopfGrid:
    """Axis factors of a tensor grid in (t, theta1, theta2) on S^3, each a
    (cells, m) array with one row per cell: t_weights, theta1_weights,
    theta2_weights, cos_phi, sin_phi, exp_theta1 and exp_theta2.  Nodes run
    in (cell, t, theta1, theta2) order; SphereRule is one cell."""

    def _axes(self, first=0):
        """cos(phi), sin(phi), e^{i theta1}, e^{i theta2} of the cells from
        first on, shaped to broadcast over the (cell, t, theta1, theta2) grid."""
        s = slice(first, None)
        return (self.cos_phi[s, :, None, None], self.sin_phi[s, :, None, None],
                self.exp_theta1[s, None, :, None], self.exp_theta2[s, None, None, :])

    def axis_values(self, form, pairing=False):
        """A polynomial 0-form at the nodes, from the axis factors: one
        broadcast product per angle class.  Exponents may be negative (a
        Laurent polynomial; the nodes avoid z_1 = 0 and z_2 = 0).

        With pairing, the values are w form / [d rho ^ (1/2) xi ^ d xi]_top,
        w the node weights: their sum is the oriented integral of any
        3-form omega with forms.normal_top(omega) = form.  A form with no
        terms gives zeros.
        """
        cos, sin = self.cos_phi, self.sin_phi
        e1, e2 = self.exp_theta1, self.exp_theta2
        if pairing:
            (den,) = _angle_classes(_contact_normal_top()).values()
            t_scale = 0.5 * self.t_weights / _t_factor(den, cos, sin).real
        out = None
        for (k1, k2), terms in _angle_classes(form).items():
            t, a, b = _t_factor(terms, cos, sin), _character(e1, k1), _character(e2, k2)
            if pairing:
                t, a, b = t * t_scale, a * self.theta1_weights, b * self.theta2_weights
            term = (t[:, :, None, None] * a[:, None, :, None]) * b[:, None, None, :]
            if out is None:
                out = term
            else:
                out += term
        if out is None:
            return np.zeros(self.npoints, dtype=complex)
        return out.reshape(-1)


class SphereRule(_HopfGrid):
    """Product rule on S^3 in Hopf coordinates, weighted by the round
    measure (total 2 pi^2).  density is the ratio of the contact volume
    (1/2) xi ^ dxi to the round measure at each node, evaluated from the
    symbolic form on the Hopf frame; it is one on the round sphere up to
    rounding."""

    def __init__(self, level):
        if level < 4:
            raise ValueError("sphere rule needs level >= 4")
        self.level = int(level)
        t, wt = gauss_legendre_01(self.level)
        nang = self.nang = 2 * self.level
        ang = 2.0 * math.pi * np.arange(nang) / nang
        wang = 2.0 * math.pi / nang
        phi = np.arccos(np.sqrt(t))
        self._moduli = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        # the axis factors of the rule's one cell
        self.cos_phi, self.sin_phi = (c[None] for c in self._moduli.T)
        self.exp_theta1 = self.exp_theta2 = np.exp(1j * ang)[None]
        self.t_weights = wt[None]
        self.theta1_weights = self.theta2_weights = np.full((1, nang), wang)
        axes = self._axes()
        shape = (1, self.level, nang, nang)
        self.weights = _node_column((0.5 * wt)[:, None, None] * wang * wang, shape)
        self.points = _hopf_points(*axes)
        self._frame = _hopf_frame_directions(*axes)
        vol = contact_volume_form()
        self._volume_coeff = vol.evaluate(self.points, self._frame).real
        sphi_cphi = _node_column(axes[1] * axes[0], shape)
        self.density = np.abs(self._volume_coeff) / sphi_cphi
        # exact for z^a conj(z)^b with |a| + |b| up to this bound
        self.degree_bound = 2 * self.level - 1

    @property
    def npoints(self):
        return self.points.shape[0]

    def torus_grid(self):
        """(moduli, nang): the nodes are (rho1 e^{2 pi i i1/nang}, rho2 e^{2 pi i
        i2/nang}) in (m, i1, i2) order, with (rho1, rho2) = moduli[m] real."""
        return self._moduli, self.nang

    def integrate(self, values):
        """Sum of weights times values, in fixed node order."""
        return np.dot(self.weights, values)

    def frame_directions(self):
        """Hopf coordinate frame as directions for form evaluation."""
        return list(self._frame)

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
        return self.weights * self.density / self._volume_coeff


class BallRule:
    """Product rule (radial Gauss-Legendre) x (sphere rule) on the unit ball."""

    def __init__(self, level, radial=None):
        if level < 2:
            raise ValueError("ball rule needs level >= 2")
        self.level = int(level)
        self.sphere = SphereRule(max(level, 4))
        nr = radial if radial is not None else max(level // 2, 8)
        r, wr = gauss_legendre_01(nr)
        self.radial_nodes = r
        self.points = (r[:, None, None] * self.sphere.points[None, :, :]).reshape(-1, 2)
        w = (wr * r ** 3)[:, None] * self.sphere.weights[None, :]
        self.weights = w.ravel()

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


def _standard_frame_directions():
    """Real coordinate frame of C^2 = R^4 in complex packing."""
    return [np.array([1.0, 0.0]), np.array([1j, 0.0]),
            np.array([0.0, 1.0]), np.array([0.0, 1j])]


def _node_column(factor, shape):
    """A product of axis factors broadcast to the node grid, raveled."""
    return np.broadcast_to(factor, shape).reshape(-1)


def _hopf_points(cphi, sphi, e1, e2):
    """Nodes (cos(phi) e^{i theta1}, sin(phi) e^{i theta2}) from axis factors
    that broadcast over the node grid, in raveled grid order."""
    shape = np.broadcast_shapes(cphi.shape, e1.shape, e2.shape)
    points = np.empty(shape + (2,), dtype=complex)
    points[..., 0] = cphi * e1
    points[..., 1] = sphi * e2
    return points.reshape(-1, 2)


def _hopf_frame_directions(cphi, sphi, e1, e2):
    """Coordinate frame (d/dphi, d/dtheta1, d/dtheta2) from the same axis
    factors as _hopf_points.

    Each direction is a tuple of its two per-coordinate node columns; the
    z2 component of d/dtheta1 and the z1 component of d/dtheta2 vanish
    identically and are None (a structural zero for PolyForm.evaluate).
    """
    shape = np.broadcast_shapes(cphi.shape, e1.shape, e2.shape)
    fields = (((-sphi) * e1, cphi * e2),
              (1j * cphi * e1, None),
              (None, 1j * sphi * e2))
    return [tuple(None if f is None else _node_column(f, shape) for f in field)
            for field in fields]


def _line_disc(a, c):
    """Centre c a, unit vector b = (-conj(a_2), conj(a_1)) orthogonal to a,
    and radius sqrt(1 - |c|^2) of the disc z = c a + w b, |w| <= radius
    (complex orientation in w), where the line {<z, a> = c} meets the unit
    ball; a must be a unit vector of C^2 and |c| < 1."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2,) or abs(np.vdot(a, a).real - 1.0) > 1e-12:
        raise ValueError(f"line normal must be a unit vector of C^2, got {a}")
    c = complex(c)
    if abs(c) >= 1.0:
        raise ValueError("line must meet the open unit ball (|c| < 1)")
    return c * a, np.array([-np.conj(a[1]), np.conj(a[0])]), math.sqrt(1.0 - abs(c) ** 2)


class CircleRule:
    """Trapezoid rule on the circle in S^3 that bounds the disc of the line
    {<z, a> = c}: z = c a + r e^{i theta} b (see _line_disc), oriented by
    increasing theta, with unit tangents and arc-length weights."""

    def __init__(self, level, a=(1.0, 0.0), c=0.0):
        centre, b, radius = _line_disc(a, c)
        npts = max(8, 4 * level)
        theta = 2.0 * math.pi * np.arange(npts) / npts
        phase = np.exp(1j * theta)
        self.points = centre + (radius * phase)[:, None] * b
        self.tangents = (1j * phase)[:, None] * b
        self.weights = np.full(npts, 2.0 * math.pi * radius / npts)

    @property
    def npoints(self):
        return self.points.shape[0]

    def pair_form(self, psi):
        """Line integral of a 1-form along the oriented circle."""
        if psi.degree != 1:
            raise ValueError("circle pairing needs a 1-form")
        vals = psi.evaluate(self.points, [self.tangents])
        return np.dot(self.weights, vals)

    def integrate(self, values):
        return np.dot(self.weights, values)


class DiscRule:
    """Polar rule on the disc of the line {<z, a> = c} in the unit ball:
    z = c a + rho e^{i theta} b (see _line_disc), complex orientation."""

    def __init__(self, level, a=(1.0, 0.0), c=0.0):
        centre, self._b, radius = _line_disc(a, c)
        nr = max(level, 8)
        nth = max(4 * level, 16)
        rho, wr = gauss_legendre_01(nr)
        rho = rho * radius
        wr = wr * radius
        theta = 2.0 * math.pi * np.arange(nth) / nth
        wth = 2.0 * math.pi / nth
        # nodes in (rho, theta) order
        self.rho = np.repeat(rho, nth)
        self._phase = np.tile(np.exp(1j * theta), nr)
        self.points = centre + (self.rho * self._phase)[:, None] * self._b
        self.weights = np.repeat(wr * wth, nth)

    @property
    def npoints(self):
        return self.points.shape[0]

    def pair_form(self, psi):
        """Surface integral of a 2-form over the oriented disc."""
        if psi.degree != 2:
            raise ValueError("disc pairing needs a 2-form")
        e_rho = self._phase[:, None] * self._b
        e_theta = (1j * self.rho * self._phase)[:, None] * self._b
        vals = psi.evaluate(self.points, [e_rho, e_theta])
        return np.dot(self.weights, vals)

    def integrate(self, values):
        """Area integral of pointwise values."""
        return np.dot(self.weights * self.rho, values)


class SphereCellRule(_HopfGrid):
    """Composite, refinable rule on S^3 for singular integrands.

    The parameter box (t, theta1, theta2) is split into cells carrying a
    small tensor Gauss-Legendre rule with m = nodes_per_axis nodes per
    axis.  The rule holds only per-cell axis factors (_HopfGrid), each a
    (cells, m) array, next to the boxes.  Node arrays (points, weights) are
    built from them by broadcasting, in (cell, t, theta1, theta2) order,
    and kept until the next refine; cell_points and cell_weights build
    them for the cells from a given one on, and axis_values evaluates a
    0-form, or the pairing weights of a 3-form, from the factors alone.
    refine(mask) subdivides flagged cells 2 x 2 x 2: kept cells keep
    their order, the children follow, and only the children's factors
    are computed, so a refined rule equals one built from scratch on its
    final boxes.

    blocks(ncells) walks the rule in consecutive blocks of cells, each a
    view whose factors are slices of the rule's.  A view's node arrays and
    axis values are the matching rows of the rule's, bit for bit, since
    every node value is a product of its own cell's factors; so a pairing
    can build its node data one block at a time instead of on the whole
    rule.
    """

    _FACTORS = ("boxes", "t_weights", "theta1_weights", "theta2_weights",
                "cos_phi", "sin_phi", "exp_theta1", "exp_theta2")

    def __init__(self, base_cells=8, nodes_per_axis=4):
        self.nodes_per_axis = int(nodes_per_axis)
        edges = np.linspace(0.0, 1.0, base_cells + 1)
        ang = np.linspace(0.0, 2.0 * math.pi, base_cells + 1)
        boxes = []
        for i in range(base_cells):
            for j in range(base_cells):
                for l in range(base_cells):
                    boxes.append((edges[i], edges[i + 1], ang[j], ang[j + 1], ang[l], ang[l + 1]))
        self._gl = gauss_legendre_01(self.nodes_per_axis)
        for name, values in self._cell_factors(np.asarray(boxes)).items():
            setattr(self, name, values)

    def _cell_factors(self, boxes):
        """Per-cell arrays of the given cells, keyed by attribute name."""
        x, w = self._gl
        t0, t1, a0, a1, b0, b1 = boxes.T
        T = t0[:, None] + (t1 - t0)[:, None] * x[None, :]
        A = a0[:, None] + (a1 - a0)[:, None] * x[None, :]
        B = b0[:, None] + (b1 - b0)[:, None] * x[None, :]
        phi = np.arccos(np.sqrt(np.clip(T, 1e-15, 1.0 - 1e-15)))
        values = (boxes, (t1 - t0)[:, None] * w[None, :], (a1 - a0)[:, None] * w[None, :],
                  (b1 - b0)[:, None] * w[None, :], np.cos(phi), np.sin(phi),
                  np.exp(1j * A), np.exp(1j * B))
        return dict(zip(self._FACTORS, values))

    def blocks(self, ncells):
        """(node slice, view) for consecutive blocks of at most ncells cells.

        A view shares the rule's factor arrays through slices and builds
        node arrays only when asked.  It is not a rule build, so it
        bypasses __init__.
        """
        m3 = self.nodes_per_axis ** 3
        for first in range(0, self.ncells, ncells):
            stop = min(first + ncells, self.ncells)
            # no local name holds the view, so the caller decides its lifetime
            yield slice(first * m3, stop * m3), self._view(slice(first, stop))

    def _view(self, cells):
        view = object.__new__(SphereCellRule)
        view.nodes_per_axis, view._gl = self.nodes_per_axis, self._gl
        for name in self._FACTORS:
            setattr(view, name, getattr(self, name)[cells])
        return view

    @property
    def npoints(self):
        return self.ncells * self.nodes_per_axis ** 3

    @property
    def ncells(self):
        return self.boxes.shape[0]

    def cell_points(self, first=0):
        """Nodes of the cells first, first + 1, ... in node order."""
        return _hopf_points(*self._axes(first))

    @functools.cached_property
    def points(self):
        return self.cell_points()

    def cell_weights(self, first=0):
        """Node weights of the cells first, first + 1, ... in node order."""
        # round measure: dsigma = (1/2) dt dtheta1 dtheta2
        s = slice(first, None)
        wt, wa, wb = self.t_weights[s], self.theta1_weights[s], self.theta2_weights[s]
        return (0.5 * (wt[:, :, None, None] * wa[:, None, :, None]
                       * wb[:, None, None, :])).reshape(-1)

    @functools.cached_property
    def weights(self):
        return self.cell_weights()

    def integrate(self, values):
        return np.dot(self.weights, values)

    def refine(self, mask):
        """Subdivide flagged cells 2x2x2; returns the number of new cells.

        The kept cells come first, in their old order, then the eight
        children of each flagged cell; only the children's factors are
        computed, and the node arrays are rebuilt on next use.
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
        for name, values in self._cell_factors(new).items():
            setattr(self, name, np.concatenate([getattr(self, name)[~mask], values]))
        self.__dict__.pop("points", None)
        self.__dict__.pop("weights", None)
        return new.shape[0]
