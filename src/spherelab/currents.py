"""Distributional pairings with zero sets of CR and holomorphic functions.

Closed case (sphere): for a CR function f with nondegenerate zeros and a
2-form psi,

    cf(psi) = (1 / 2 pi i) * integral of (df / f) ^ psi,

computed through the regularization conj(f) / (|f|^2 + delta s^2), s^2
the mean square of f on the rule, over a geometric delta schedule and
extrapolated to delta -> 0 by polynomial Richardson in sqrt(delta), the
variable in use; the measured errors on the catalog fall like delta, not
sqrt(delta), so the choice is open (ROADMAP item 3).  The zero-divisor
pairing against a 1-form psi is cf(d psi) with d psi exact-symbolic.

Boundary case (ball): for u holomorphic on the ball, smooth up to the
boundary, regular with respect to it, and a (1,1)-form psi,

    (Z_u, psi) = (i/pi) ( - int_bD i*( (1/2u) du ^ psi )
                          - int_bD i*( log|u| dbar psi )
                          + int_D  log|u| d dbar psi ),

with every boundary integral taken in the contact orientation (positive
xi ^ d xi), which on the round sphere agrees with the Stokes orientation
of the unit ball.  The same delta schedule regularizes 1/u and log|u|,
as (1/2) log(|u|^2 + delta s^2).  Scaling delta by s^2 regularizes u
as if it were u / s: the rational sums are those of u / s, and (1/2)
log(|u|^2 + delta s^2) = (1/2) log(|u / s|^2 + delta) + log s.

A pairing context binds a test form to the rules it is paired on:
CRPairingContext holds psi on pairs of the sphere rule's Hopf frame, the
frame itself (three real tangent vectors, each a tuple of two node
columns) and the pairing weights; BoundaryPairingContext sets up the
same sphere-side data and adds the ball rule and the dbar psi node
values.  Both cases, and both routes, share one regularized pairing, a
loop over blocks of nodes (_pairing_sums) given s^2, the mean square of
f on the whole rule: each block hands over its terms, f and the slot
sums x_j = z_j df/dz_j on its nodes, and the loop adds up the block's
delta sums against |f|^2 + delta s^2; in the boundary case the d dbar
psi term on the ball rule follows, over blocks of ball nodes.
richardson_sqrt takes the limit along the delta axis.

The Monte Carlo samplers in experiments.py call RegularizedPairing with a
micro-batch of draws: s^2 from the draw coefficients (discrete Parseval,
GridEvaluator.mean_square), then f, its slot sums (and u on the ball) as
the evaluators' walk over blocks of moduli yields them, against views of
the contexts' node weights, so no array of the batch spans a rule.  The
catalog pairings take s^2 from f on a refined cell rule (_mean_square),
keep only f over the whole rule (and |du| during the boundary
regularity check) and walk it in blocks of cells (_cell_blocks): each
block binds its own context and evaluates the gradient of the
polynomial on its nodes.  Blocks are sized by _accel.BLOCK_BYTES.

Quadrature near zero sets uses a refinable composite sphere rule: cells
are subdivided when they approach the zero set (node minimum of |f|
below half the in-cell spread) or fall under the regularization floor
10 * min(delta) * s^2, greedily by estimated contribution, up to a depth
cap and cell budget; cells still flagged at the end are counted in the
result's extras, never silently dropped.  Each cell's statistics (min
|f|, max |f|, sum w |f|^2 and sum w over its nodes) are taken once, when
the cell is made, and a pass reads s^2, the flags and the scores from
them alone, so it evaluates and summarizes only its new cells.

A test form with no terms, such as d(d phi) for an exact 1-form d phi,
pairs to exact zeros for every delta: cf_pairing builds no rule for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from spherelab import _accel
from spherelab.forms import PolyForm, z_coord
from spherelab.quadrature import (BallRule, CircleRule, DiscRule, SphereCellRule,
                                  _standard_frame_directions)

__all__ = [
    "PairingResult",
    "RegularityError",
    "ExperimentError",
    "richardson_sqrt",
    "CRPairingContext",
    "BoundaryPairingContext",
    "RegularizedPairing",
    "cf_pairing",
    "divisor_pairing_closed",
    "divisor_pairing_boundary",
    "zero_set_direct",
    "catalog_function",
    "CATALOG",
]

DEFAULT_DELTAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


class RegularityError(RuntimeError):
    """The function fails the nondegenerate-zero precondition."""


class ExperimentError(RuntimeError):
    """Precondition failure of an experiment (bad trial counts, excessive
    rejections, a delta schedule too short to extrapolate); the CLI reports
    it as a precondition FAIL."""


@dataclass
class PairingResult:
    value: complex
    err_est: float
    per_delta: np.ndarray
    extras: dict = field(default_factory=dict)


def _lagrange_at_zero(x):
    """Weights of the Lagrange interpolant through the nodes x, at 0."""
    weights = np.ones(len(x))
    for i in range(len(x)):
        for j in range(len(x)):
            if j != i:
                weights[i] *= x[j] / (x[j] - x[i])
    return weights


def richardson_sqrt(deltas, values):
    """Polynomial extrapolation to delta = 0 in the variable sqrt(delta),
    along the last axis of values (one entry per delta).

    Returns (limit, error_estimate); the estimate is the change from the
    extrapolation that drops the coarsest delta.  A schedule of fewer than
    two deltas has no such estimate and raises ExperimentError.
    """
    x = np.sqrt(np.asarray(deltas, dtype=float))
    if len(x) < 2:
        raise ExperimentError(f"delta schedule {tuple(deltas)} has fewer than 2 values; "
                              "the Richardson limit needs 2 for an error estimate")
    order = np.argsort(x)
    x = x[order]
    vals = np.asarray(values)[..., order]
    full = vals @ _lagrange_at_zero(x)
    reduced = vals[..., :-1] @ _lagrange_at_zero(x[:-1])
    return full, np.abs(full - reduced)


def holo_gradient_values(fpoly: PolyForm, points):
    """(d/dz_1 f, d/dz_2 f) at points for a holomorphic 0-form."""
    grad = fpoly.partial_z()
    by_word = grad.coefficient_values(points)
    npts = np.atleast_2d(points).shape[0]
    g = np.zeros((npts, 2), dtype=complex)
    for word, vals in by_word.items():
        g[:, word[0] // 2] = vals
    return g


class CRPairingContext:
    """psi-dependent node data for cf pairings on a fixed sphere rule: the
    psi values on pairs of the rule's Hopf frame, the frame and the
    oriented pairing weights."""

    def __init__(self, rule, psi: PolyForm):
        if psi.terms and psi.degree != 2:
            raise ValueError("cf pairing needs a 2-form")
        # building the frame on a refined cell rule costs as much as a form
        # evaluation: it is built once, and a subclass reuses it
        dirs = rule.frame_directions()
        self.rule = rule
        self.psi = psi
        self.points = rule.points
        self.psi_12 = psi.evaluate(rule.points, [dirs[1], dirs[2]])
        self.psi_02 = psi.evaluate(rule.points, [dirs[0], dirs[2]])
        self.psi_01 = psi.evaluate(rule.points, [dirs[0], dirs[1]])
        self.frame = dirs
        self.pair_weights = rule.pairing_weights


def _mean_square(fvals, weights):
    """s^2, the mean square of f (nodes,) against the weights, as a (1, 1)
    array: the scale of a catalog pairing's regularization and of its
    refinement."""
    fsq = np.abs(fvals[None])
    np.square(fsq, out=fsq)
    scale_sq = (fsq @ (weights / weights.sum()))[:, None]
    if not np.all(scale_sq > 0.0):
        raise RegularityError("function vanishes identically on the rule")
    return scale_sq


def _cell_stats(fvals, weights, m3):
    """Per-cell statistics (min |f|, max |f|, sum w |f|^2, sum w) of f on
    consecutive cells of m3 nodes with node weights w, as a (cells, 4)
    array: the refinement reads only these."""
    absf = np.abs(fvals).reshape(-1, m3)
    weights = weights.reshape(-1, m3)
    stats = np.empty((absf.shape[0], 4))
    stats[:, 0] = absf.min(axis=1)
    stats[:, 1] = absf.max(axis=1)
    np.square(absf, out=absf)
    stats[:, 2] = np.einsum("ij,ij->i", absf, weights)
    stats[:, 3] = weights.sum(axis=1)
    return stats


def _adaptive_rule(fpoly, deltas, base_cells, nodes_per_axis, refine_depth,
                   max_cells=60_000, per_level=384):
    """Refine cells that straddle or approach the zero set of f.

    Each cell keeps statistics of f on its own nodes (_cell_stats), taken
    once when the cell is made, and a pass reads only these: s^2, the
    mean square of f on the rule, is their weighted sum over the total
    weight.  A cell is a candidate when min |f|^2 over its nodes falls
    below a quarter of its squared in-cell spread max |f| - min |f|
    (geometric proximity to the zero set) or below the regularization
    floor 10 * min(delta) * s^2.  Among candidates, at most per_level
    cells with the largest estimated contribution weight * spread /
    (min^2 + floor * s^2) are subdivided, so the node budget stays
    bounded; leftover candidates at the end are reported, never silently
    dropped.  An f that vanishes on every node raises RegularityError.

    Returns the rule, the values of f on its nodes and the number of
    cells still flagged; each pass evaluates f, and its statistics, only
    on the new cells.
    """
    rule = SphereCellRule(base_cells=base_cells, nodes_per_axis=nodes_per_axis)
    m3 = rule.nodes_per_axis ** 3

    def new_cells(first):
        vals = fpoly.evaluate(rule.cell_points(first), [])
        return vals, _cell_stats(vals, rule.cell_weights(first), m3)

    fvals, stats = new_cells(0)
    floor = 10.0 * min(deltas)
    residual_cells = 0
    for _ in range(refine_depth):
        lo, hi, wsq, wsum = stats.T
        scale_sq = wsq.sum() / wsum.sum()
        if not scale_sq > 0.0:
            raise RegularityError("function vanishes identically on the rule")
        spread = hi - lo
        lo_sq = lo ** 2
        flags = lo_sq <= np.maximum(floor * scale_sq, 0.25 * spread ** 2)
        residual_cells = int(flags.sum())
        if not residual_cells or rule.ncells + 7 * residual_cells > max_cells:
            break
        if residual_cells > per_level:
            score = np.where(flags, wsum * spread / (lo_sq + floor * scale_sq), -1.0)
            keep = np.argsort(score, kind="stable")[::-1][:per_level]
            flags = np.zeros_like(flags)
            flags[keep] = True
        kept = fvals.reshape(rule.ncells, m3)[~flags].reshape(-1)
        # the old values go before the new cells' node arrays are built,
        # and the pieces of the new ones before the next pass
        del fvals
        added = rule.refine(flags)
        new_vals, new_stats = new_cells(rule.ncells - added)
        fvals = np.concatenate([kept, new_vals])
        stats = np.concatenate([stats[~flags], new_stats])
        del kept, new_vals
    return rule, fvals, residual_cells


def cf_pairing(fpoly: PolyForm, psi: PolyForm, deltas=DEFAULT_DELTAS,
               base_cells=6, nodes_per_axis=4, refine_depth=10):
    """cf(psi) for a holomorphic-polynomial catalog function on the sphere.

    A psi with no terms (d(d phi) of an exact form) pairs to exact zeros
    for every delta: no rule is built and no block is walked."""
    if psi.terms:
        rule, fvals, residual_cells = _adaptive_rule(fpoly, deltas, base_cells,
                                                     nodes_per_axis, refine_depth)
        scale_sq = _mean_square(fvals, rule.weights)
        blocks = _cell_blocks(fpoly, rule, fvals, lambda block: CRPairingContext(block, psi))
        per = _pairing_sums(blocks, scale_sq, deltas)[0, 0]
        extras = {"cells": rule.ncells, "unresolved_cells": residual_cells}
    else:
        per = np.zeros(len(deltas), dtype=complex)
        extras = {"cells": 0, "unresolved_cells": 0}
    value, err = richardson_sqrt(deltas, per)
    return PairingResult(complex(value), float(err), per, extras=extras)


def divisor_pairing_closed(fpoly: PolyForm, psi: PolyForm, **kw):
    """Zero-divisor pairing (Z_f, psi) = cf(d psi) for a 1-form psi."""
    if psi.degree != 1:
        raise ValueError("closed divisor pairing needs a 1-form")
    return cf_pairing(fpoly, psi.d(), **kw)


class BoundaryPairingContext(CRPairingContext):
    """psi-dependent node data for boundary divisor pairings.

    Binds a fixed sphere rule (boundary terms, with the node data of
    CRPairingContext and the dbar psi values), a ball rule (the interior
    log term, whose d dbar psi values _DomainTerms evaluates) and the
    (1,1)-form psi; per-function values then need only u and du on the
    sphere nodes and u on the ball nodes.
    """

    def __init__(self, rule, ball_rule: BallRule, psi: PolyForm):
        if psi.bidegree != (1, 1):
            raise ValueError("boundary pairing needs a (1,1)-form")
        super().__init__(rule, psi)
        self.ball_rule = ball_rule
        # a form with no terms is a structural zero (None), never evaluated
        dbar = psi.partial_zbar()
        self.dbar_top = dbar.evaluate(rule.points, self.frame) if dbar.terms else None


def _slot_weights(ctx):
    """Per-node weights (g1, g2) with df ^ psi = x1 g1 + x2 g2 on a context's
    sphere nodes.

    For a polynomial f = sum a_alpha z^alpha with slot sums x_j = sum
    alpha_j a_alpha z^alpha, df(u) = x1 u_1 / z_1 + x2 u_2 / z_2 at nodes
    where z_1, z_2 do not vanish, so df ^ psi = df(e0) psi_12 - df(e1) psi_02
    + df(e2) psi_01 on the frame e0, e1, e2 folds into two weights that do
    not depend on f.  Frame components that vanish identically (None)
    drop out of the sums.
    """
    pieces = (ctx.psi_12, -ctx.psi_02, ctx.psi_01)
    g1, g2 = (sum(p * u[j] for p, u in zip(pieces, ctx.frame) if u[j] is not None)
              for j in (0, 1))
    return g1 / ctx.points[:, 0], g2 / ctx.points[:, 1]


def _top_weights(weights, tops):
    """Node weights times each context's top values, one column each, with
    zeros for a structural zero (None); None when every context has one."""
    if all(top is None for top in tops):
        return None
    zero = np.zeros(len(weights), dtype=complex)
    return np.stack([weights * (zero if top is None else top) for top in tops], axis=1)


class _SphereTerms:
    """The sphere terms of a regularized pairing on the nodes of one rule or
    one block of cells: the node weights of contexts on those nodes and the
    delta sums against them."""

    def __init__(self, contexts):
        ctx = contexts[0]
        self.boundary = isinstance(ctx, BoundaryPairingContext)
        scale = 0.5 * ctx.pair_weights if self.boundary else ctx.pair_weights / (2j * math.pi)
        g1, g2 = zip(*(_slot_weights(c) for c in contexts))
        self.slot_weights = (np.stack(g1, axis=1) * scale[:, None],
                             np.stack(g2, axis=1) * scale[:, None])
        self.w_dbar = (_top_weights(ctx.pair_weights, [c.dbar_top for c in contexts])
                       if self.boundary else None)

    def block(self, nodes):
        """The terms on the node slice nodes: views of these weights."""
        view = object.__new__(_SphereTerms)
        view.boundary = self.boundary
        view.slot_weights = tuple(w[nodes] for w in self.slot_weights)
        view.w_dbar = None if self.w_dbar is None else self.w_dbar[nodes]
        return view

    def delta_sums(self, fvals, slots, scale_sq, deltas):
        """(rows, forms, deltas) sums over these nodes from f and the slot
        sums x_j = z_j df/dz_j on them, regularized against |f|^2 + delta
        s^2 with s^2 (rows, 1) the mean square of f on the whole rule.

        Consumes f and the slot sums: conj(f) overwrites f, the numerator
        terms overwrite x1 and x2, and f then holds the delta sums'
        products, so |f|^2 and the reciprocal are the only new node arrays.
        """
        x1, x2 = slots
        # every node-sized intermediate is computed in place, with the
        # operand order of the complex products fixed (see _accel)
        fsq = np.abs(fvals)
        np.square(fsq, out=fsq)
        conj_f = np.conj(fvals, out=fvals)
        numer = [np.multiply(conj_f, x1, out=x1), np.multiply(conj_f, x2, out=x2)]
        # the freed f is the delta sums' product buffer
        per = _accel.regularized_sums(self.slot_weights, numer, fsq, conj_f, scale_sq, deltas)
        if not self.boundary:
            return per
        # - int_bD i*(conj(u) du ^ psi / 2(|u|^2+d s^2))
        # - int_bD i*((1/2) log(|u|^2+d s^2) dbar psi);
        # a log term whose forms are all structurally zero is exactly zero
        # and is not computed
        total = -per
        if self.w_dbar is not None:
            total -= _accel.log_regularized_sums(self.w_dbar, fsq, scale_sq, deltas)
        return total


class _DomainTerms:
    """The term of a boundary pairing added once per pairing, after the
    sphere sums: int_D (1/2) log(|u|^2 + d s^2) d dbar psi on the ball
    rule."""

    def __init__(self, ball_rule, psis):
        # d dbar(psi) applied as: first dbar, then the (1,0) derivative; a
        # form with no terms is a structural zero (None), never evaluated
        ddbars = [psi.partial_zbar().partial_z() for psi in psis]
        frame = _standard_frame_directions()
        self.w_ddbar = _top_weights(ball_rule.weights,
                                    [ddbar.evaluate(ball_rule.points, frame)
                                     if ddbar.terms else None for ddbar in ddbars])

    def finish(self, total, scale_sq, ball_blocks, deltas):
        """Per-delta values from the sphere sums total (overwritten) and u on
        the ball nodes, given as (node slice, u on those nodes) pairs; the
        blocks are read only, and not walked when d dbar psi vanishes."""
        if self.w_ddbar is not None:
            for nodes, ball_vals in ball_blocks:
                ball_sq = np.abs(ball_vals)
                np.square(ball_sq, out=ball_sq)
                total += _accel.log_regularized_sums(self.w_ddbar[nodes], ball_sq, scale_sq,
                                                     deltas)
        return (1j / math.pi) * total


def _pairing_sums(blocks, scale_sq, deltas, domain=None, ball_blocks=()):
    """(rows, forms, deltas) regularized values, the one loop of every
    pairing, for s^2 (rows, 1), the mean square of f on the whole rule.

    blocks yields (terms, f, slot sums) on consecutive blocks of sphere
    nodes, terms being the _SphereTerms of the block; the block's delta
    sums against |f|^2 + delta s^2 (which consume its f and slot sums) are
    added up.  A boundary pairing passes its _DomainTerms, which adds the
    d dbar psi term over ball_blocks.  A log term whose forms are zero for
    every context (vol-z2, vol-z1) is an exact zero: its weights are None
    and its pass is skipped.
    """
    total = None
    for terms, fvals, slots in blocks:
        part = terms.delta_sums(fvals, slots, scale_sq, deltas)
        total = part if total is None else total + part
    # the last block's buffers are not held through the ball term
    del terms, fvals, slots
    if domain is None:
        return total
    return domain.finish(total, scale_sq, ball_blocks, deltas)


class RegularizedPairing:
    """The regularized pairing of a batch of functions with several test
    forms, one value per delta, for the Monte Carlo samplers.

    Built once from pairing contexts on one rule: all CRPairingContext
    (closed case), or all BoundaryPairingContext on one sphere and ball
    rule (boundary case).  per_delta sums conj(f) df ^ psi / (|f|^2 +
    delta s^2) with df ^ psi = x1 g1 + x2 g2 (_slot_weights of each
    context) and, in the boundary case, (1/2) log(|u|^2 + delta s^2)
    against the dbar psi node weights, block by block as the evaluator
    walks the rule, each block against views of the whole-rule weights
    (_SphereTerms.block).  s^2, the mean square of each row's f, comes in
    with the blocks, computed from the draw coefficients
    (GridEvaluator.mean_square), so no array of a micro-batch spans the
    rule.
    """

    def __init__(self, contexts):
        self._sphere = _SphereTerms(contexts)
        self._domain = (_DomainTerms(contexts[0].ball_rule, [c.psi for c in contexts])
                        if self._sphere.boundary else None)

    def per_delta(self, scale_sq, blocks, deltas, ball_blocks=()):
        """(rows, forms, deltas) values regularized against |f|^2 + delta
        s^2, the last axis in the order of deltas, from s^2 (rows,), the
        mean square of f over the sphere rule, f with its slot sums x_j =
        z_j df/dz_j as (node slice, f, (x1, x2)) triples over consecutive
        blocks of the rule and, for the boundary pairing, u on the ball
        rule as (node slice, u) pairs.

        Consumes f and the slot sums, which the caller must not read again
        (see _SphereTerms.delta_sums); the ball values are read only.
        """
        terms = ((self._sphere.block(nodes), fvals, slots) for nodes, fvals, slots in blocks)
        return _pairing_sums(terms, np.reshape(scale_sq, (-1, 1)), deltas, self._domain,
                             ball_blocks)


def _block_cells(rule):
    """Cells per block of a catalog pairing: one complex node array of a
    block (one row) takes at most BLOCK_BYTES, 1024 cells at 4 nodes per
    axis."""
    return max(1, _accel.BLOCK_BYTES // (16 * rule.nodes_per_axis ** 3))


def _cell_blocks(fpoly, rule, fvals, bind):
    """The blocks of cells of a catalog pairing, as _pairing_sums reads
    them: the terms of the context bind(block) on a block view, a copy of
    f (fvals, read only) and the slot sums of the polynomial fpoly on the
    block's nodes.  Each context and every array but f spans one block.
    """
    for nodes, block in rule.blocks(_block_cells(rule)):
        terms = _SphereTerms((bind(block),))
        points = block.points
        # the context is gone once its weights are taken; the view, which
        # caches the points, is dropped before the delta sums
        del block
        grad = holo_gradient_values(fpoly, points)
        slots = np.multiply(points, grad, out=grad).T.copy()[:, None]
        del points, grad
        # f is copied block by block, so the caller can read it afterwards
        yield terms, fvals[None, nodes].copy(), slots


def _gradient_norm(fpoly, rule):
    """|du| at every node of the rule, for the polynomial fpoly, evaluated
    in the pairing's blocks of cells."""
    grad_norm = np.empty(rule.npoints)
    for nodes, block in rule.blocks(_block_cells(rule)):
        grad = holo_gradient_values(fpoly, block.points)
        _accel.gradient_norm(grad[:, 0], grad[:, 1], grad_norm[nodes])
    return grad_norm


def _boundary_regularity_check(u_sphere, grad_norm, margin_floor=1e-3,
                               slope_cap=0.25):
    """Reject u whose holomorphic gradient collapses near boundary zeros.

    Two traps: a hard floor on min |du| over near-zero nodes relative to
    the gradient scale, and a scale-free vanishing-order detector, the
    slope of log |du| against log |u| over the deep near-zero nodes.  A
    transversal zero has slope about 0; a zero of order p has slope
    (p - 1) / p, so anything appreciably above zero signals degeneracy.
    grad_norm holds |du| at the nodes of u_sphere.
    """
    rms = math.sqrt(float(np.mean(np.abs(u_sphere) ** 2)))
    if rms == 0.0:
        raise RegularityError("u vanishes identically")
    near = np.abs(u_sphere) <= 0.3 * rms
    if not near.any():
        return
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
                             ball_level=12, ball_radial=None):
    """(Z_u, psi) for a catalog holomorphic function on the unit ball;
    ball_level and ball_radial size the BallRule (None: its own default)."""
    sphere_rule, u_sphere, residual = _adaptive_rule(upoly, deltas, base_cells, nodes_per_axis,
                                                     refine_depth)
    # a u that fails the check does not pay for the pairing; |du| is freed
    # before it starts
    _boundary_regularity_check(u_sphere, _gradient_norm(upoly, sphere_rule))
    scale_sq = _mean_square(u_sphere, sphere_rule.weights)
    ball_rule = BallRule(ball_level, radial=ball_radial)
    blocks = _cell_blocks(upoly, sphere_rule, u_sphere,
                          lambda block: BoundaryPairingContext(block, ball_rule, psi))
    # lazy: u on the ball is evaluated only if the d dbar psi term walks the blocks
    ball_blocks = ((slice(None), upoly.evaluate(points, [])[None]) for points in [ball_rule.points])
    per = _pairing_sums(blocks, scale_sq, deltas, _DomainTerms(ball_rule, (psi,)),
                        ball_blocks)[0, 0]
    value, err = richardson_sqrt(deltas, per)
    return PairingResult(complex(value), float(err), per,
                         extras={"cells": sphere_rule.ncells, "unresolved_cells": residual})


# --------------------------------------------------------------- catalog
def _catalog_lines(name):
    if name not in CATALOG:
        raise KeyError(f"unknown catalog function {name!r}; known: {sorted(CATALOG)}")
    return CATALOG[name]


def catalog_function(name):
    """u = prod (<z, a> - c) over the lines (a, c) of a catalog entry, with
    <z, a> = conj(a_1) z_1 + conj(a_2) z_2; zero coefficients drop out, so
    its zero set is a union of flat discs in the ball (circles on S^3)."""
    return math.prod(z_coord(0) * np.conj(a[0]) + z_coord(1) * np.conj(a[1]) - c
                     for a, c in _catalog_lines(name))


def zero_set_direct(name, psi, level=24):
    """Direct integral of psi over the zero set of a catalog function: a
    1-form over the boundary circles in S^3, a 2-form over the discs in the
    ball, summed over the lines that meet the ball (|c| < 1)."""
    lines = _catalog_lines(name)
    rules = {1: CircleRule, 2: DiscRule}
    if psi.degree not in rules:
        raise ValueError(f"zero-set oracle pairs 1-forms or 2-forms, not a {psi.degree}-form")
    return complex(sum(rules[psi.degree](level, a, c).pair_form(psi)
                       for a, c in lines if abs(c) < 1.0))


_E1, _E2 = (1.0, 0.0), (0.0, 1.0)

# name -> the complex lines (a, c), |a| = 1, whose product is the function;
# a line with |c| >= 1 misses the ball and carries no zero set
CATALOG = {
    "z1": [(_E1, 0.0)],
    "z2": [(_E2, 0.0)],
    "z1-half": [(_E1, 0.5)],
    "z1-shifted": [(_E1, 0.25)],
    "z1*z2": [(_E1, 0.0), (_E2, 0.0)],
    "nowhere-zero": [(_E1, -2.0)],
}
