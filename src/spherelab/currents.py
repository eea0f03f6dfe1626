"""Distributional pairings with zero sets of CR and holomorphic functions.

Closed case (sphere): for a CR function f with nondegenerate zeros and a
2-form psi,

    cf(psi) = (1 / 2 pi i) * integral of (df / f) ^ psi,

computed through the regularization conj(f) / (|f|^2 + delta) over a
geometric delta schedule and extrapolated to delta -> 0 by polynomial
Richardson in sqrt(delta) (the boundary-singularity analysis of the
one-dimensional model integral has a half-power structure, so sqrt(delta)
is the right extrapolation variable).  The zero-divisor pairing against
a 1-form psi is cf(d psi) with d psi exact-symbolic.

Boundary case (ball): for u holomorphic on the ball, smooth up to the
boundary, regular with respect to it, and a (1,1)-form psi,

    (Z_u, psi) = (i/pi) ( - int_bD i*( (1/2u) du ^ psi )
                          - int_bD i*( log|u| dbar psi )
                          + int_D  log|u| d dbar psi ),

with every boundary integral taken in the contact orientation (positive
xi ^ d xi), which on the round sphere agrees with the Stokes orientation
of the unit ball.  The same delta schedule regularizes 1/u and log|u|.

Quadrature near zero sets uses a refinable composite sphere rule: cells
are subdivided when they approach the zero set (node minimum of |f|
below half the in-cell spread) or fall under the regularization floor
10 * min(delta), greedily by estimated contribution, up to a depth cap
and cell budget; cells still flagged at the end are counted in the
result's extras, never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from spherelab import _accel
from spherelab.forms import PolyForm
from spherelab.quadrature import (BallRule, CircleRule, DiscRule, SphereCellRule,
                                  _standard_frame_directions)

__all__ = [
    "PairingResult",
    "RegularityError",
    "richardson_sqrt",
    "CRPairingContext",
    "BoundaryPairingContext",
    "cf_pairing",
    "divisor_pairing_closed",
    "divisor_pairing_boundary",
    "zero_set_direct",
    "catalog_function",
    "register_catalog_entry",
    "CATALOG",
]

DEFAULT_DELTAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


class RegularityError(RuntimeError):
    """The function fails the nondegenerate-zero precondition."""


@dataclass
class PairingResult:
    value: complex
    err_est: float
    deltas: tuple
    per_delta: np.ndarray
    method: str
    log_monotone: bool = True
    extras: dict = field(default_factory=dict)

    def record(self, function_name, psi_id):
        """JSON-ready audit record."""
        return {
            "function": function_name,
            "psi_id": psi_id,
            "value_re": float(np.real(self.value)),
            "value_im": float(np.imag(self.value)),
            "err_est": float(self.err_est),
            "method": self.method,
        }


def _lagrange_at_zero(x, vals):
    total = 0.0 + 0.0j
    for i in range(len(x)):
        li = 1.0
        for j in range(len(x)):
            if j != i:
                li *= x[j] / (x[j] - x[i])
        total += vals[i] * li
    return total


def richardson_sqrt(deltas, values):
    """Polynomial extrapolation to delta = 0 in the variable sqrt(delta).

    Returns (limit, error_estimate); the estimate is the change from the
    extrapolation that drops the coarsest delta.
    """
    x = np.sqrt(np.asarray(deltas, dtype=float))
    vals = np.asarray(values, dtype=complex)
    order = np.argsort(x)
    x = x[order]
    vals = vals[order]
    if len(x) == 1:
        return complex(vals[0]), float(abs(vals[0]))
    full = _lagrange_at_zero(x, vals)
    reduced = _lagrange_at_zero(x[:-1], vals[:-1])
    return full, float(abs(full - reduced))


def holo_gradient_values(fpoly: PolyForm, points):
    """(d/dz_1 f, d/dz_2 f) at points for a holomorphic 0-form."""
    grad = fpoly.partial_z()
    by_word = grad.coefficient_values(points)
    npts = np.atleast_2d(points).shape[0]
    g = np.zeros((npts, 2), dtype=complex)
    for word, vals in by_word.items():
        g[:, word[0] // 2] = vals
    return g


class _FrameTop:
    """(df ^ psi) on a sphere rule's coordinate frame, from the psi values
    psi_12, psi_02, psi_01 on frame pairs and the frame's (1,0) parts."""

    def top_values(self, df_frame):
        """(df ^ psi) on the coordinate frame from df values on the frame."""
        d0, d1, d2 = df_frame
        return d0 * self.psi_12 - d1 * self.psi_02 + d2 * self.psi_01

    def slot_weights(self):
        """Per-node weights (g1, g2) with df ^ psi = x1 g1 + x2 g2.

        For a polynomial f = sum a_alpha z^alpha with slot sums x_j = sum
        alpha_j a_alpha z^alpha, df(u) = x1 u_1 / z_1 + x2 u_2 / z_2 at
        nodes where z_1, z_2 do not vanish, so the three frame derivatives
        of top_values fold into two weights that do not depend on f.
        """
        pieces = (self.psi_12, -self.psi_02, self.psi_01)
        g1 = sum(p * h[..., 0] for p, h in zip(pieces, self.frame_holo))
        g2 = sum(p * h[..., 1] for p, h in zip(pieces, self.frame_holo))
        return g1 / self.points[:, 0], g2 / self.points[:, 1]


class CRPairingContext(_FrameTop):
    """psi-dependent node data for cf pairings on a fixed sphere rule."""

    def __init__(self, rule, psi: PolyForm):
        if psi.terms and psi.degree != 2:
            raise ValueError("cf pairing needs a 2-form")
        self.rule = rule
        self.psi = psi
        self.points = rule.points
        dirs = rule.frame_directions()
        self.psi_12 = psi.evaluate(rule.points, [dirs[1], dirs[2]])
        self.psi_02 = psi.evaluate(rule.points, [dirs[0], dirs[2]])
        self.psi_01 = psi.evaluate(rule.points, [dirs[0], dirs[1]])
        self.frame_holo = [d[0] for d in dirs]
        self.pair_weights = rule.pairing_weights

    def per_delta_values(self, fvals, top, deltas):
        """Regularized pairing (1/2 pi i) sum W conj(f) top / (|f|^2 + d)."""
        numer = np.conj(fvals) * top
        fsq = np.abs(fvals) ** 2
        sums = _accel.regularized_sums(self.pair_weights, numer, fsq, np.asarray(deltas))
        return sums / (2j * math.pi)

    def log_monotone_ok(self, fvals, deltas):
        """Sanity trap: integral of log(|f|^2 + delta) against the positive
        measure must decrease as delta decreases."""
        fsq = np.abs(fvals) ** 2
        w = np.abs(self.rule.weights)
        logs = _accel.log_regularized_sums(w, fsq, np.asarray(sorted(deltas, reverse=True)))
        return bool(np.all(np.diff(logs) <= 1e-9 * np.maximum(1.0, np.abs(logs[:-1]))))


def _normalized(fvals, weights):
    mass = weights.sum()
    rms = math.sqrt(max(float(np.dot(weights, np.abs(fvals) ** 2) / mass), 0.0))
    if rms == 0.0:
        raise RegularityError("function vanishes identically on the rule")
    return rms


def _adaptive_rule(fpoly, deltas, base_cells, nodes_per_axis, refine_depth,
                   max_cells=60_000, per_level=384):
    """Refine cells that straddle or approach the zero set of f.

    A cell is a candidate when the minimum of the normalized |f| over its
    nodes falls below half its in-cell spread (geometric proximity to the
    zero set) or below the regularization floor 10 * min(delta).  Among
    candidates, at most per_level cells with the largest estimated
    contribution weight * spread / (min^2 + floor) are subdivided, so the
    node budget stays bounded; leftover candidates at the end are
    reported, never silently dropped.

    Returns the rule, the values of f on its nodes and the number of
    cells still flagged; each pass evaluates f only on the new nodes.
    """
    rule = SphereCellRule(base_cells=base_cells, nodes_per_axis=nodes_per_axis)
    fvals = fpoly.evaluate(rule.points, [])
    floor = 10.0 * min(deltas)
    residual_cells = 0
    for _ in range(refine_depth):
        rms = _normalized(fvals, rule.weights)
        lo, spread = rule.cell_spread(np.abs(fvals / rms))
        flags = lo ** 2 <= np.maximum(floor, 0.25 * spread ** 2)
        residual_cells = int(flags.sum())
        if not flags.any() or rule.ncells + 7 * flags.sum() > max_cells:
            break
        if flags.sum() > per_level:
            m3 = rule.nodes_per_axis ** 3
            cell_w = rule.weights.reshape(rule.ncells, m3).sum(axis=1)
            score = np.where(flags, cell_w * spread / (lo ** 2 + floor), -1.0)
            keep = np.argsort(score, kind="stable")[::-1][:per_level]
            flags = np.zeros_like(flags)
            flags[keep] = True
        kept = fvals[np.repeat(~flags, rule.nodes_per_axis ** 3)]
        rule.refine(flags)
        fvals = np.concatenate([kept, fpoly.evaluate(rule.points[kept.size:], [])])
    return rule, fvals, residual_cells


def cf_pairing(fpoly: PolyForm, psi: PolyForm, deltas=DEFAULT_DELTAS,
               base_cells=6, nodes_per_axis=4, refine_depth=10):
    """cf(psi) for a holomorphic-polynomial catalog function on the sphere."""
    deltas = tuple(sorted(deltas, reverse=True))
    rule, fvals, residual_cells = _adaptive_rule(fpoly, deltas, base_cells, nodes_per_axis,
                                                 refine_depth)
    ctx = CRPairingContext(rule, psi)
    rms = _normalized(fvals, rule.weights)
    fvals = fvals / rms
    grad = holo_gradient_values(fpoly, rule.points) / rms
    df_frame = [grad[:, 0] * h[..., 0] + grad[:, 1] * h[..., 1] for h in ctx.frame_holo]
    top = ctx.top_values(df_frame)
    per = ctx.per_delta_values(fvals, top, deltas)
    value, err = richardson_sqrt(deltas, per)
    return PairingResult(value, err, deltas, per, "regularized-sphere",
                         log_monotone=ctx.log_monotone_ok(fvals, deltas),
                         extras={"cells": rule.ncells, "unresolved_cells": residual_cells})


def divisor_pairing_closed(fpoly: PolyForm, psi: PolyForm, **kw):
    """Zero-divisor pairing (Z_f, psi) = cf(d psi) for a 1-form psi."""
    if psi.degree != 1:
        raise ValueError("closed divisor pairing needs a 1-form")
    res = cf_pairing(fpoly, psi.d(), **kw)
    res.method = "lelong-poincare-closed"
    return res


class BoundaryPairingContext(_FrameTop):
    """psi-dependent node data for boundary divisor pairings.

    Binds a fixed sphere rule (boundary terms), a ball rule (the interior
    log term) and the (1,1)-form psi; per-function values then need only
    u and du on the sphere nodes and u on the ball nodes.
    """

    def __init__(self, sphere_rule, ball_rule: BallRule, psi: PolyForm):
        if psi.bidegree != (1, 1):
            raise ValueError("boundary pairing needs a (1,1)-form")
        self.sphere_rule = sphere_rule
        self.ball_rule = ball_rule
        self.points = sphere_rule.points
        self.psi = psi
        dirs = sphere_rule.frame_directions()
        self.frame_holo = [d[0] for d in dirs]
        # du ^ psi assembly pieces on the sphere frame
        self.psi_12 = psi.evaluate(sphere_rule.points, [dirs[1], dirs[2]])
        self.psi_02 = psi.evaluate(sphere_rule.points, [dirs[0], dirs[2]])
        self.psi_01 = psi.evaluate(sphere_rule.points, [dirs[0], dirs[1]])
        self.dbar_top = psi.partial_zbar().evaluate(sphere_rule.points, dirs)
        # d dbar(psi) applied as: first dbar, then the (1,0) derivative
        self.ddbar_top = psi.partial_zbar().partial_z().evaluate(
            ball_rule.points, _standard_frame_directions())
        self.pair_weights = sphere_rule.pairing_weights

    def per_delta_values(self, u_sphere, du_frame, u_ball, deltas):
        """The three regularized terms combined, one value per delta."""
        deltas = np.asarray(deltas, dtype=float)
        usq = np.abs(u_sphere) ** 2
        # term 1: - int_bD i*( conj(u)/(2(|u|^2+d)) du ^ psi )
        numer = np.conj(u_sphere) * self.top_values(du_frame) * 0.5
        t1 = _accel.regularized_sums(self.pair_weights, numer, usq, deltas)
        # term 2: - int_bD i*( (1/2) log(|u|^2+d) dbar psi )
        wq = self.pair_weights * np.real(self.dbar_top)
        wqi = self.pair_weights * np.imag(self.dbar_top)
        t2 = _accel.log_regularized_sums(wq, usq, deltas) + 1j * _accel.log_regularized_sums(wqi, usq, deltas)
        # term 3: + int_D (1/2) log(|u|^2+d) d dbar psi
        bsq = np.abs(u_ball) ** 2
        bw_r = self.ball_rule.weights * np.real(self.ddbar_top)
        bw_i = self.ball_rule.weights * np.imag(self.ddbar_top)
        t3 = _accel.log_regularized_sums(bw_r, bsq, deltas) + 1j * _accel.log_regularized_sums(bw_i, bsq, deltas)
        return (1j / math.pi) * (-t1 - t2 + t3)


def _boundary_regularity_check(u_sphere, grad_sphere, margin_floor=1e-3,
                               slope_cap=0.25):
    """Reject u whose holomorphic gradient collapses near boundary zeros.

    Two traps: a hard floor on min |du| over near-zero nodes relative to
    the gradient scale, and a scale-free vanishing-order detector, the
    slope of log |du| against log |u| over the deep near-zero nodes.  A
    transversal zero has slope about 0; a zero of order p has slope
    (p - 1) / p, so anything appreciably above zero signals degeneracy.
    """
    rms = math.sqrt(float(np.mean(np.abs(u_sphere) ** 2)))
    if rms == 0.0:
        raise RegularityError("u vanishes identically")
    near = np.abs(u_sphere) <= 0.3 * rms
    if not near.any():
        return
    grad_norm = np.linalg.norm(grad_sphere, axis=-1)
    grad_scale = math.sqrt(float(np.mean(grad_norm ** 2)))
    margin = float(np.min(grad_norm[near])) / max(grad_scale, 1e-300)
    if margin < margin_floor:
        raise RegularityError(f"boundary zero with vanishing gradient (margin {margin:.2e})")
    deep = np.abs(u_sphere) <= 0.05 * rms
    if deep.sum() >= 32:
        x = np.log(np.abs(u_sphere[deep]) / rms)
        y = np.log(np.maximum(grad_norm[deep] / grad_scale, 1e-300))
        slope = float(np.polyfit(x, y, 1)[0])
        if slope > slope_cap:
            raise RegularityError(
                f"gradient vanishes on the zero set (order slope {slope:.2f})")


def divisor_pairing_boundary(upoly: PolyForm, psi: PolyForm, deltas=DEFAULT_DELTAS,
                             base_cells=6, nodes_per_axis=4, refine_depth=10,
                             ball_level=12):
    """(Z_u, psi) for a catalog holomorphic function on the unit ball."""
    deltas = tuple(sorted(deltas, reverse=True))
    sphere_rule, u_sphere, residual = _adaptive_rule(upoly, deltas, base_cells, nodes_per_axis,
                                                     refine_depth)
    ball_rule = BallRule(ball_level)
    ctx = BoundaryPairingContext(sphere_rule, ball_rule, psi)
    grad = holo_gradient_values(upoly, sphere_rule.points)
    _boundary_regularity_check(u_sphere, grad)
    rms = _normalized(u_sphere, sphere_rule.weights)
    u_sphere = u_sphere / rms
    grad = grad / rms
    du_frame = [grad[:, 0] * h[..., 0] + grad[:, 1] * h[..., 1] for h in ctx.frame_holo]
    u_ball = upoly.evaluate(ball_rule.points, []) / rms
    per = ctx.per_delta_values(u_sphere, du_frame, u_ball, deltas)
    # normalization shifts log|u| by a constant; the shift integrates to
    # zero against the exact-form terms only in the delta -> 0 limit, so
    # restore it explicitly: log|u| = log|u/rms| + log(rms).
    shift = math.log(rms) * (
        -np.dot(ctx.pair_weights, ctx.dbar_top)
        + np.dot(ball_rule.weights, ctx.ddbar_top)) * (1j / math.pi)
    per = per + shift
    value, err = richardson_sqrt(deltas, per)
    return PairingResult(value, err, deltas, per, "lelong-poincare-boundary",
                         extras={"cells": sphere_rule.ncells, "unresolved_cells": residual})


# --------------------------------------------------------------- catalog
CATALOG = {}


def register_catalog_entry(name, fpoly, direct_fn, domain):
    CATALOG[name] = {"function": fpoly, "direct": direct_fn, "domain": domain}


def catalog_function(name):
    if name not in CATALOG:
        raise KeyError(f"unknown catalog function {name!r}; known: {sorted(CATALOG)}")
    return CATALOG[name]["function"]


def zero_set_direct(name, psi, level=24):
    """Direct parameterized integral over the known zero manifold."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog function {name!r}; known: {sorted(CATALOG)}")
    return CATALOG[name]["direct"](psi, level)


def _register_defaults():
    from spherelab import forms

    z1 = forms.z_coord(0)
    z2 = forms.z_coord(1)

    def circle_direct(axis):
        def run(psi, level):
            return complex(CircleRule(level, axis=axis).pair_form(psi))
        return run

    register_catalog_entry("z1", z1, circle_direct(axis=1), "sphere")
    register_catalog_entry("z2", z2, circle_direct(axis=0), "sphere")

    def disc_direct(c):
        def run(psi, level):
            return complex(DiscRule(level, c=c).pair_form(psi))
        return run

    register_catalog_entry("z1-half", z1 - 0.5, disc_direct(0.5), "ball")
    register_catalog_entry("z1-shifted", z1 - 0.25, disc_direct(0.25), "ball")

    def product_direct(psi, level):
        swapped = _swap_coordinates(psi)
        return complex(DiscRule(level, c=0.0).pair_form(psi)
                       + DiscRule(level, c=0.0).pair_form(swapped))

    register_catalog_entry("z1*z2", z1 * z2, product_direct, "ball")

    register_catalog_entry("nowhere-zero", z1 + 2.0,
                           lambda psi, level: 0.0 + 0.0j, "ball")


def _swap_coordinates(psi: PolyForm):
    """Pull back a form under the coordinate swap (z1, z2) -> (z2, z1)."""
    swapped = {}
    for (word, exps), c in psi.terms.items():
        new_word = tuple(sorted(w ^ 2 for w in word))
        raw = [w ^ 2 for w in word]
        inv = sum(1 for i in range(len(raw)) for j in range(i + 1, len(raw)) if raw[i] > raw[j])
        e = list(exps)
        e[0], e[1], e[2], e[3] = exps[2], exps[3], exps[0], exps[1]
        key = (new_word, tuple(e))
        swapped[key] = swapped.get(key, 0.0 + 0.0j) + (-1) ** inv * c
    return PolyForm(psi.ncplx, swapped)


_register_defaults()
