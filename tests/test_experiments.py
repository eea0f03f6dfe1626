import csv
import math
import types

import numpy as np
import pytest

from spherelab import _accel, currents, forms
from spherelab.cli import main
from spherelab.currents import (BoundaryPairingContext, CRPairingContext,
                                RegularizedPairing, _adaptive_rule, _SphereTerms,
                                catalog_function, cf_pairing, divisor_pairing_boundary,
                                richardson_sqrt)
from spherelab.cutoffs import Cutoff
from spherelab.embedding import EmbeddingMap
from spherelab.ensemble import GridEvaluator, NodeEvaluator, RandomEnsemble
from spherelab.experiments import (_EXPERIMENT_DEFAULTS, _MICRO_BATCH, EXPERIMENTS,
                                   BoundarySampler, CfSampler, ExperimentConfig,
                                   ExperimentError, _accepted_rows, _batched_values,
                                   _complex_se,
                                   _beta_reference, _fd_hessians, _tangent_frames,
                                   config_from_resolved, one_form, run_embed_check,
                                   run_expectation_cr, run_expectation_domain, run_kernel_diag,
                                   run_lp_boundary, run_lp_closed, surface_form)
from spherelab.geometry import random_sphere_points, tangent_frame
from spherelab.kernels import KernelField
from spherelab.quadrature import (BallRule, SphereRule, _hopf_frame_directions,
                                  _standard_frame_directions, contact_one_form,
                                  contact_volume_form)
from spherelab.reporting import resolve_config
from test_currents import holo_gradient_values


def test_config_defaults_and_overrides():
    resolved = resolve_config()
    cfg = config_from_resolved("expectation-cr", resolved)
    assert cfg.k_grid == (48,)
    assert cfg.trials == 4000
    assert cfg.kappa == 0
    cfg2 = config_from_resolved("expectation-domain", resolved)
    assert cfg2.trials == 2000
    # explicit global overrides beat experiment defaults
    resolved = resolve_config(overrides={"grid.k_grid": "8,16", "mc.trials": "120"})
    cfg3 = config_from_resolved("expectation-cr", resolved)
    assert cfg3.k_grid == (8, 16)
    assert cfg3.trials == 120


def test_default_sources_agree():
    # the experiment names are the keys of two tables, and a config that
    # sets nothing gives each experiment its own defaults
    assert set(EXPERIMENTS) == set(_EXPERIMENT_DEFAULTS)
    for name in EXPERIMENTS:
        assert config_from_resolved(name, resolve_config()) == ExperimentConfig(
            name, **_EXPERIMENT_DEFAULTS[name]), name


def test_statistical_preconditions():
    cfg = ExperimentConfig("expectation-cr", trials=1)
    with pytest.raises(ExperimentError):
        cfg.validated_for_statistics()
    cfg = ExperimentConfig("expectation-cr", trials=50)
    with pytest.raises(ExperimentError):
        cfg.validated_for_statistics()


def test_beta_reference_two_routes(table, bump):
    kf = KernelField(table, bump, 32.0)
    rule = SphereRule(10)
    val = _beta_reference(kf, CRPairingContext(rule, surface_form("vol-z2")))
    # and the closed route alone for comparison
    xi_psi = contact_one_form().wedge(surface_form("vol-z2"))
    direct = kf.beta_scale() * rule.pair_form(xi_psi)
    assert val == pytest.approx(direct, rel=1e-12)


def test_horizontal_form_annihilates_reeb(rng):
    psi = one_form("horizontal-mix")
    xs = random_sphere_points(20, rng=rng)
    vals = psi.evaluate(xs, [1j * xs])
    assert np.max(np.abs(vals)) <= 1e-12


def test_kernel_diag_deterministic():
    cfg = ExperimentConfig("kernel-diag", k_grid=(16, 32, 64))
    a = run_kernel_diag(cfg)
    b = run_kernel_diag(cfg)
    assert a.csv_body() == b.csv_body()
    assert a.verdict


def test_kernel_diag_needs_two_scales():
    # the order fit is impossible on one point: the check says so and
    # passes, as the other cross-scale checks do, instead of failing
    report = run_kernel_diag(ExperimentConfig("kernel-diag", k_grid=(16,)))
    check = {c["name"]: c for c in report.checks}["diag-order-in-band"]
    assert check["passed"] and check["detail"] == "not evaluated: k_grid (16,) has one value"
    assert report.rows[0]["observed_order"] == "nan"


def test_expectation_cr_small_deterministic(table):
    cfg = ExperimentConfig("expectation-cr", k_grid=(24,), trials=100, level=10)
    a = run_expectation_cr(cfg)
    b = run_expectation_cr(cfg)
    assert a.csv_body() == b.csv_body()
    # a draw's values do not depend on how many rows one call gets, for splits
    # at a micro-batch boundary (BLAS results depend on the row count)
    ens = RandomEnsemble(table, cfg.cutoff, 24, master_seed=cfg.seed)
    rows = ens.draw_matrix(range(100))
    ctx = CRPairingContext(SphereRule(10), surface_form("vol-z2"))
    sampler = CfSampler(ens, (ctx,), cfg.mc_deltas)
    whole = _batched_values(sampler, rows)
    parts = [_batched_values(sampler, rows[:64]), _batched_values(sampler, rows[64:])]
    for j in range(2):
        assert np.array_equal(whole[j], np.concatenate([part[j] for part in parts]))


def test_cf_sampler_matches_catalog_machinery(table, bump):
    # a deterministic single-component draw routed through the Monte Carlo
    # sampler agrees with the direct zero-set oracle
    from spherelab.currents import zero_set_direct
    ens = RandomEnsemble(table, bump, 2, kappa=0, master_seed=3)
    degs = [sum(a) for a in ens.alphas]
    j = degs.index(1)
    alpha = ens.alphas[j]
    rows = np.zeros((1, ens.dim), dtype=complex)
    rows[0, j] = 1.0
    psi = one_form("angular-z2") if alpha == (1, 0) else one_form("angular-z1")
    rule = SphereRule(16)
    sampler = CfSampler(ens, (CRPairingContext(rule, psi.d()),),
                        (1e-3, 1e-4, 1e-5, 1e-6, 1e-7))
    vals, errs = sampler.batch(rows)
    name = "z1" if alpha == (1, 0) else "z2"
    direct = zero_set_direct(name, psi)
    assert abs(vals[0, 0] - direct) <= 0.02 * abs(direct)


class _FrameRoute:
    """The Hopf-frame route to a context's pairing weights, the tests'
    oracle for the symbolic slot forms: the rule's frame (built from its
    axis factors), psi on pairs of it, the oriented pairing weights w
    density / (contact volume on the frame) and, for a boundary context,
    dbar psi on the frame (None when it has no terms)."""

    def __init__(self, ctx):
        rule, psi = self.rule, self.psi = ctx.rule, ctx.psi
        self.ball_rule = getattr(ctx, "ball_rule", None)
        axes = rule._axes()
        points, frame = self.points, self.frame = rule.points, _hopf_frame_directions(*axes)
        self.psi_12 = psi.evaluate(points, [frame[1], frame[2]])
        self.psi_02 = psi.evaluate(points, [frame[0], frame[2]])
        self.psi_01 = psi.evaluate(points, [frame[0], frame[1]])
        vol = contact_volume_form().evaluate(points, frame).real
        sin_cos = np.broadcast_to(axes[1] * axes[0], np.broadcast_shapes(*(
            a.shape for a in axes))).reshape(-1)
        self.pair_weights = rule.weights * (np.abs(vol) / sin_cos) / vol
        dbar = psi.partial_zbar()
        self.dbar_top = (dbar.evaluate(points, frame)
                         if isinstance(ctx, BoundaryPairingContext) and dbar.terms else None)

    def slot_weights(self):
        """(g1, g2) with df ^ psi = x1 g1 + x2 g2 per node, from df(u) =
        x1 u_1 / z_1 + x2 u_2 / z_2 and df ^ psi = df(e0) psi_12 - df(e1)
        psi_02 + df(e2) psi_01 on the frame e0, e1, e2."""
        pieces = (self.psi_12, -self.psi_02, self.psi_01)
        g1, g2 = (sum(p * u[j] for p, u in zip(pieces, self.frame) if u[j] is not None)
                  for j in (0, 1))
        return g1 / self.points[:, 0], g2 / self.points[:, 1]


# Reference arithmetic for the regularized pairings, kept apart from the
# shared batched implementation: df along the three Hopf frame directions,
# the psi_12 / psi_02 / psi_01 combination, one np.dot per delta and term,
# and scalar Lagrange weights.  The helpers take a _FrameRoute.
def _lagrange_at_zero(x, vals):
    total = 0.0 + 0.0j
    for i in range(len(x)):
        li = 1.0
        for j in range(len(x)):
            if j != i:
                li *= x[j] / (x[j] - x[i])
        total += vals[i] * li
    return total


def _reference_limit(deltas, per):
    """Limit in sqrt(delta) and the change from dropping the coarsest delta."""
    x = np.sqrt(np.asarray(deltas, dtype=float))
    order = np.argsort(x)
    x, per = x[order], np.asarray(per)[order]
    full = _lagrange_at_zero(x, per)
    return full, abs(full - _lagrange_at_zero(x[:-1], per[:-1]))


def _frame_top(ctx, df_frame):
    d0, d1, d2 = df_frame
    return d0 * ctx.psi_12 - d1 * ctx.psi_02 + d2 * ctx.psi_01


def _cf_reference(ctx, f, df_frame, deltas):
    w = ctx.rule.weights
    scale = math.sqrt(float(np.dot(w, np.abs(f) ** 2) / w.sum()))
    f = f / scale
    numer = np.conj(f) * _frame_top(ctx, [d / scale for d in df_frame])
    fsq = np.abs(f) ** 2
    per = [np.dot(ctx.pair_weights, numer / (fsq + d)) / (2j * math.pi) for d in deltas]
    return _reference_limit(deltas, per)


def _boundary_reference(ctx, u, du_frame, u_ball, deltas):
    w = ctx.rule.weights
    scale = math.sqrt(float(np.dot(w, np.abs(u) ** 2) / w.sum()))
    u, u_ball = u / scale, u_ball / scale
    numer = np.conj(u) * _frame_top(ctx, [d / scale for d in du_frame]) * 0.5
    usq, bsq = np.abs(u) ** 2, np.abs(u_ball) ** 2
    # a structurally zero form (None) has zero weights
    w_dbar = ctx.pair_weights * (0.0 if ctx.dbar_top is None else ctx.dbar_top)
    ddbar = ctx.psi.partial_zbar().partial_z()
    w_ddbar = ctx.ball_rule.weights * (
        ddbar.evaluate(ctx.ball_rule.points, _standard_frame_directions()) if ddbar.terms
        else 0.0)
    per = []
    for d in deltas:
        t1 = np.dot(ctx.pair_weights, numer / (usq + d))
        t2 = np.dot(w_dbar, 0.5 * np.log(usq + d))
        t3 = np.dot(w_ddbar, 0.5 * np.log(bsq + d))
        per.append((1j / math.pi) * (-t1 - t2 + t3))
    shift = math.log(scale) * (1j / math.pi) * (-w_dbar.sum() + w_ddbar.sum())
    return _reference_limit(deltas, np.asarray(per) + shift)


def _dense_frame(ctx):
    """The context's frame as (nodes, 2) arrays, structural zeros filled in."""
    return [np.stack([np.zeros(len(ctx.points), dtype=complex) if c is None else c
                      for c in u], axis=-1) for u in ctx.frame]


def _sampler_frame_derivatives(ev, ctx, row):
    """df along each frame direction, one directional derivative each."""
    x1, x2 = ev.slot1_sums(row)
    return [ev.directional_derivative(x1, x2, h)[0] for h in _dense_frame(ctx)]


def _polynomial_frame_derivatives(fpoly, ctx):
    grad = holo_gradient_values(fpoly, ctx.points)
    return [grad[:, 0] * h[..., 0] + grad[:, 1] * h[..., 1] for h in _dense_frame(ctx)]


def _assert_close(value, err, ref):
    ref_value, ref_err = ref
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert abs(err - ref_err) <= 1e-12 * abs(ref_value)


def test_cf_sampler_columns_match_context_route(table, bump):
    # each column of the multi-form sampler, and the shared pairing called
    # with one row, equals the reference arithmetic for that form and draw
    ens = RandomEnsemble(table, bump, 16, kappa=0, master_seed=7)
    rule = SphereRule(8)
    deltas = (1e-2, 1e-3, 1e-4)
    contexts = tuple(CRPairingContext(rule, surface_form(name))
                     for name in ("vol-z2", "vol-z1", "mixed-11"))
    rows = ens.draw_matrix(range(4))
    vals, errs = CfSampler(ens, contexts, deltas).batch(rows)
    assert vals.shape == errs.shape == (4, 3)
    # dense reference at the same nodes, with a direct weighted mean square
    ev = NodeEvaluator(ens, rule.points, rule.weights)
    pairing = RegularizedPairing(contexts)
    for r in range(rows.shape[0]):
        row = rows[r:r + 1]
        f = ev.values(row)
        one = richardson_sqrt(deltas, pairing.per_delta(ev.mean_square(row),
                                                        ev.walk(row, slots=True), deltas))
        for j, ctx in enumerate(map(_FrameRoute, contexts)):
            ref = _cf_reference(ctx, f[0], _sampler_frame_derivatives(ev, ctx, row), deltas)
            _assert_close(vals[r, j], errs[r, j], ref)
            _assert_close(one[0][0, j], one[1][0, j], ref)


def test_boundary_sampler_columns_match_context_route(table, bump):
    # same for the boundary pairing; the reference divides u by s and adds
    # log s times the log terms' weight sums back
    ens = RandomEnsemble(table, bump, 12, kappa=1, master_seed=7)
    sphere_rule = SphereRule(8)
    ball_rule = BallRule(6, radial=8)
    deltas = (1e-2, 1e-3, 1e-4)
    psis = (surface_form("vol-z2"), surface_form("bump-z2"))
    rows = ens.draw_matrix(range(4))
    vals, errs = BoundarySampler(ens, sphere_rule, ball_rule, psis, deltas).batch(rows)
    assert vals.shape == errs.shape == (4, 2)
    ev_s = NodeEvaluator(ens, sphere_rule.points, sphere_rule.weights)  # dense references
    ev_b = NodeEvaluator(ens, ball_rule.points)
    contexts = [BoundaryPairingContext(sphere_rule, ball_rule, psi) for psi in psis]
    pairing = RegularizedPairing(contexts)
    for r in range(rows.shape[0]):
        row = rows[r:r + 1]
        u, u_ball = ev_s.values(row), ev_b.values(row)
        one = richardson_sqrt(deltas, pairing.per_delta(ev_s.mean_square(row),
                                                        ev_s.walk(row, slots=True), deltas,
                                                        ev_b.walk(row)))
        for j, ctx in enumerate(map(_FrameRoute, contexts)):
            ref = _boundary_reference(ctx, u[0], _sampler_frame_derivatives(ev_s, ctx, row),
                                      u_ball[0], deltas)
            _assert_close(vals[r, j], errs[r, j], ref)
            _assert_close(one[0][0, j], one[1][0, j], ref)


@pytest.mark.parametrize("boundary", [False, True], ids=["closed", "boundary"])
def test_sampler_statistics_match_dense_evaluation(table, bump, boundary):
    # the grid evaluator rounds unlike the dense design matrix; the Monte
    # Carlo means and standard errors of two micro-batches agree to 1e-12
    # relative at k = 32, where degrees fold on both rules' angle grids
    ens = RandomEnsemble(table, bump, 32, kappa=int(boundary), master_seed=23)
    sphere_rule = SphereRule(12)
    deltas = (1e-2, 1e-3, 1e-4)
    if boundary:
        ball_rule = BallRule(6, radial=16)
        sampler = BoundarySampler(ens, sphere_rule, ball_rule,
                                  (surface_form("vol-z2"), surface_form("bump-z2")), deltas)
    else:
        contexts = tuple(CRPairingContext(sphere_rule, surface_form(name))
                         for name in ("vol-z2", "vol-z1", "mixed-11"))
        sampler = CfSampler(ens, contexts, deltas)
    rows = ens.draw_matrix(range(2 * _MICRO_BATCH))
    grid, _ = _batched_values(sampler, rows)
    if boundary:
        sampler.ev_sphere = NodeEvaluator(ens, sphere_rule.points, sphere_rule.weights)
        sampler.ev_ball = NodeEvaluator(ens, ball_rule.points)
    else:
        sampler.ev = NodeEvaluator(ens, sphere_rule.points, sphere_rule.weights)
    dense, _ = _batched_values(sampler, rows)
    for j in range(grid.shape[1]):
        mean, se = np.mean(dense[:, j]), _complex_se(dense[:, j])
        assert abs(np.mean(grid[:, j]) - mean) <= 1e-12 * abs(mean)
        assert abs(_complex_se(grid[:, j]) - se) <= 1e-12 * se


# The allocating formulas that per_delta and the _accel delta sums compute
# in place, kept expression for expression: their bits are the reference
# the in-place code must reproduce.
def _regularized_sums_allocating(weights, numer, fsq, scale_sq, deltas):
    out = np.empty((fsq.shape[0], weights[0].shape[1], len(deltas)), dtype=complex)
    for i, d in enumerate(deltas):
        inv = 1.0 / (fsq + d * scale_sq)
        acc = (numer[0] * inv) @ weights[0]
        for term, w in zip(numer[1:], weights[1:]):
            acc += (term * inv) @ w
        out[:, :, i] = acc
    return out


def _log_regularized_sums_allocating(weights, fsq, scale_sq, deltas):
    out = np.empty((fsq.shape[0], weights.shape[1], len(deltas)), dtype=complex)
    for i, d in enumerate(deltas):
        logs = 0.5 * np.log(fsq + d * scale_sq)
        out[:, :, i] = logs @ weights.real + 1j * (logs @ weights.imag)
    return out


def _both_slot_weights(contexts):
    """The node weights of both slots as the pairing assembles them, a slot
    whose forms have no terms included (zeros): a reference that sums it
    shows that dropping it changes no bit."""
    return tuple(currents._pairing_columns(contexts[0].rule, slot)
                 for slot in zip(*(ctx.slot_forms for ctx in contexts)))


def _per_delta_allocating(pairing, slot_weights, scale_sq, blocks, deltas, ball_blocks=()):
    """per_delta on the same s^2 and blocks, in allocating expressions, with
    the weights of both slots: each block's sums against |f|^2 + delta s^2
    added in block order."""
    scale_sq = scale_sq[:, None]
    sphere = pairing._sphere
    total = None
    for nodes, fvals, slots in blocks:
        fsq = np.abs(fvals) ** 2
        conj_f = np.conj(fvals)
        part = _regularized_sums_allocating([w[nodes] for w in slot_weights],
                                            [conj_f * x for x in slots], fsq, scale_sq, deltas)
        if sphere.boundary:
            part = -part - _log_regularized_sums_allocating(sphere.w_dbar[nodes], fsq,
                                                            scale_sq, deltas)
        total = part if total is None else total + part
    if not sphere.boundary:
        return total
    for nodes, u in ball_blocks:
        total = total + _log_regularized_sums_allocating(pairing._domain.w_ddbar[nodes],
                                                         np.abs(u) ** 2, scale_sq, deltas)
    return (1j / math.pi) * total


def _per_delta_normalized(pairing, slot_weights, scale_sq, blocks, deltas, ball_blocks=()):
    """per_delta as computed before the regularization took delta s^2:
    f divided by s, and in the boundary case log s times the log terms'
    weight sums added back, (1/2) log(|f / s|^2 + delta) + log s being
    (1/2) log(|f|^2 + delta s^2)."""
    scale_sq = scale_sq[:, None]
    sphere = pairing._sphere
    total = dbar_sum = None
    for nodes, fvals, slots in blocks:
        fsq = np.abs(fvals) ** 2 / scale_sq
        conj_f = np.conj(fvals) / scale_sq
        part = _regularized_sums_allocating([w[nodes] for w in slot_weights],
                                            [conj_f * x for x in slots], fsq, 1.0, deltas)
        if sphere.boundary:
            part = -part - _log_regularized_sums_allocating(sphere.w_dbar[nodes], fsq, 1.0,
                                                            deltas)
            dbar = sphere.w_dbar[nodes].sum(axis=0)
            dbar_sum = dbar if dbar_sum is None else dbar_sum + dbar
        total = part if total is None else total + part
    if not sphere.boundary:
        return total
    w_ddbar = pairing._domain.w_ddbar
    for nodes, u in ball_blocks:
        total = total + _log_regularized_sums_allocating(w_ddbar[nodes],
                                                         np.abs(u) ** 2 / scale_sq, 1.0, deltas)
    shift = (1j / math.pi) * (-dbar_sum + w_ddbar.sum(axis=0))
    return (1j / math.pi) * total + (0.5 * np.log(scale_sq) * shift)[:, :, None]


@pytest.mark.parametrize("rows", [1, 32])
@pytest.mark.parametrize("boundary", [False, True], ids=["closed", "boundary"])
def test_in_place_pairing_matches_allocating_formulas(table, bump, boundary, rows):
    # grid-evaluated micro-batches, as the samplers pass them: s^2 from the
    # coefficients, f and the slot sums as the walk yields them (four
    # blocks of moduli at 32 rows, one at one row, which pads to four); 32
    # rows make the whole-rule arrays of the second half larger than
    # numpy's 256 KiB temporary-reuse threshold
    ens = RandomEnsemble(table, bump, 24, kappa=int(boundary), master_seed=17)
    sphere_rule = SphereRule(12)
    deltas = (1e-2, 1e-3, 1e-4)
    if boundary:
        ball_rule = BallRule(6, radial=16)
        psis = (surface_form("vol-z2"), surface_form("bump-z2"))
        sampler = BoundarySampler(ens, sphere_rule, ball_rule, psis, deltas)
        contexts = [BoundaryPairingContext(sphere_rule, ball_rule, psi) for psi in psis]
        ev = sampler.ev_sphere
    else:
        contexts = tuple(CRPairingContext(sphere_rule, surface_form(name))
                         for name in ("vol-z2", "vol-z1", "mixed-11"))
        sampler = CfSampler(ens, contexts, deltas)
        ev = sampler.ev
    pairing = sampler.pairing
    # the boundary forms read x1 alone; the references sum both slots
    assert pairing.slots == ((True, False) if boundary else (True, True))
    slot_weights = _both_slot_weights(contexts)
    a = ens.draw_matrix(range(rows))
    scale_sq = ev.mean_square(a)
    blocks = [(nodes, f.copy(order="K"), tuple(x.copy(order="K") for x in slots))
              for nodes, f, slots in ev.walk(a, slots=True)]
    assert len(blocks) == (4 if rows == 32 else 1)
    ball_blocks = ([(nodes, u.copy(order="K")) for nodes, u in sampler.ev_ball.walk(a)]
                   if boundary else [])
    # per_delta consumes f and the slot sums: the reference reads copies in
    # the same memory order
    ref_blocks = [(nodes, f.copy(order="K"), tuple(x.copy(order="K") for x in slots))
                  for nodes, f, slots in blocks]
    before = [u.copy() for _, u in ball_blocks]
    per = pairing.per_delta(scale_sq, blocks, deltas, ball_blocks)
    assert np.array_equal(per, _per_delta_allocating(pairing, slot_weights, scale_sq, ref_blocks,
                                                     deltas, ball_blocks))
    # against dividing f by s and restoring log s, which reads the same
    # copies: the same values in exact arithmetic, within 1e-12 in floating
    # point
    old = _per_delta_normalized(pairing, slot_weights, scale_sq, ref_blocks, deltas,
                                ball_blocks)
    assert np.all(np.abs(per - old) <= 1e-12 * np.maximum(1.0, np.abs(old)))
    # the ball values are read, never overwritten
    assert all(np.array_equal(u, u0) for (_, u), u0 in zip(ball_blocks, before))

    # both delta sums on whole-rule arrays, the products written into a
    # fresh buffer
    f0 = ev.values(a)
    fsq = np.abs(f0) ** 2
    x1, x2 = ev.slot1_sums(a)
    numer = [np.conj(f0) * x for x in (x1, x2)]
    args = (slot_weights, numer, fsq)
    fsq_before = fsq.copy()
    assert np.array_equal(
        _accel.regularized_sums(*args, np.empty_like(numer[0]), scale_sq[:, None], deltas),
        _regularized_sums_allocating(*args, scale_sq[:, None], deltas))
    weights = pairing._sphere.w_dbar if boundary else slot_weights[0]
    assert np.array_equal(_accel.log_regularized_sums(weights, fsq, scale_sq[:, None], deltas),
                          _log_regularized_sums_allocating(weights, fsq, scale_sq[:, None],
                                                           deltas))
    assert np.array_equal(fsq, fsq_before)


def test_vol_z2_sampler_synthesizes_one_slot(table, bump, monkeypatch):
    # vol-z2 reads x1 alone: each block of moduli synthesizes f and x1,
    # two products, not three, and they keep the bits of the both-slot walk
    ens = RandomEnsemble(table, bump, 24, kappa=0, master_seed=23)
    sampler = CfSampler(ens, (CRPairingContext(SphereRule(12), surface_form("vol-z2")),),
                        (1e-2, 1e-3, 1e-4))
    assert sampler.pairing.slots == (True, False)
    a = ens.draw_matrix(range(_MICRO_BATCH))
    fills = []
    fill = GridEvaluator._fill
    monkeypatch.setattr(GridEvaluator, "_fill",
                        lambda self, *args: fills.append(args[1]) or fill(self, *args))
    sampler.batch(a)
    assert len(fills) == 2 * len(set(fills)) == 2 * 4
    ev = sampler.ev
    live = [(f.copy(), slots) for _, f, slots in ev.walk(a, slots=sampler.pairing.slots)
            for slots in [tuple(None if x is None else x.copy() for x in slots)]]
    both = [(f.copy(), x1.copy()) for _, f, (x1, _) in ev.walk(a, slots=True)]
    assert len(live) == len(both) == 4
    for (f, (x1, x2)), (f_ref, x1_ref) in zip(live, both):
        assert x2 is None
        assert f.tobytes() == f_ref.tobytes() and x1.tobytes() == x1_ref.tobytes()


# Every form the experiments pair: the cf forms of expectation-cr, equi-cr,
# variance-cr and lp-closed, and the boundary forms of lp-boundary and
# expectation-domain.
PAIRED_CF_FORMS = {name: surface_form(name) for name in ("vol-z2", "vol-z1", "mixed-11")}
PAIRED_CF_FORMS.update({f"d({name})": one_form(name).d()
                        for name in ("angular-z2", "angular-z1", "horizontal-mix")})
PAIRED_BOUNDARY_FORMS = ("vol-z2", "vol-z1", "bump-z2")


def _paired_contexts(rule_name):
    """(name, psi, context) of every form the experiments pair, on
    SphereRule(12) or on a refined z1-half cell rule."""
    if rule_name == "sphere-12":
        rule = SphereRule(12)
    else:
        rule = _adaptive_rule(catalog_function("z1-half"), (1e-2, 1e-3), 6, 4, 2)[0]
        assert rule.ncells > 6 ** 3
    ball_rule = BallRule(4, radial=4)
    cases = [(name, psi, CRPairingContext(rule, psi)) for name, psi in PAIRED_CF_FORMS.items()]
    cases += [(f"boundary {name}", surface_form(name),
               BoundaryPairingContext(rule, ball_rule, surface_form(name)))
              for name in PAIRED_BOUNDARY_FORMS]
    return cases


@pytest.mark.parametrize("rule_name", ["sphere-12", "cells"])
def test_dropped_slots_are_the_structural_zeros(rule_name):
    # a slot is dropped exactly when its symbolic form has no terms; for
    # the lab's forms that is exactly where dz_j ^ psi has no terms
    for name, psi, ctx in _paired_contexts(rule_name):
        expected = tuple(bool((forms.dz(j) * psi).terms) for j in range(2))
        assert tuple(bool(g.terms) for g in ctx.slot_forms) == expected, name
        assert RegularizedPairing([ctx]).slots == expected, name


@pytest.mark.parametrize("rule_name", ["sphere-12", "cells"])
def test_symbolic_slot_weights_match_frame_route(rule_name):
    # the pairing weights from the symbolic slot forms and [d rho ^ dbar
    # psi]_top, evaluated from the axis factors, against psi on pairs of
    # the Hopf frame divided by the contact volume on it: within 1e-13 of
    # the largest weight, for both slots and the dbar psi log term
    for name, psi, ctx in _paired_contexts(rule_name):
        terms, ref = _SphereTerms([ctx]), _FrameRoute(ctx)
        boundary = isinstance(ctx, BoundaryPairingContext)
        scale = 0.5 if boundary else 1.0 / (2j * math.pi)
        expected = [scale * ref.pair_weights * g for g in ref.slot_weights()]
        weights = [w for w in terms.slot_weights]
        if boundary:
            expected.append(ref.pair_weights * (0.0 if ref.dbar_top is None else ref.dbar_top))
            weights.append(terms.w_dbar)
        for i, (w, w_ref) in enumerate(zip(weights, expected)):
            bound = 1e-13 * np.max(np.abs(w_ref))
            if w is None:
                assert bound == 0.0, (name, i)
            else:
                assert np.max(np.abs(w[:, 0] - w_ref)) <= bound, (name, i)
                assert bound > 0.0, (name, i)


@pytest.mark.parametrize("case", ["closed-12", "closed-20", "boundary-10"])
def test_sampler_values_do_not_depend_on_block_budget(table, bump, monkeypatch, case):
    # one modulus a block against the whole rule in one block: only the
    # order of the sums over nodes changes
    ens = RandomEnsemble(table, bump, 24, kappa=int(case.startswith("boundary")),
                         master_seed=29)
    deltas = (1e-2, 1e-3, 1e-4)
    if case == "boundary-10":
        sampler = BoundarySampler(ens, SphereRule(10), BallRule(6, radial=16),
                                  (surface_form("vol-z2"), surface_form("bump-z2")), deltas)
    else:
        rule = SphereRule(int(case.split("-")[1]))
        sampler = CfSampler(ens, tuple(CRPairingContext(rule, surface_form(name))
                                       for name in ("vol-z2", "vol-z1", "mixed-11")), deltas)
    rows = ens.draw_matrix(range(_MICRO_BATCH))
    results = []
    for budget in (1, 1 << 40):
        monkeypatch.setattr(_accel, "BLOCK_BYTES", budget)
        results.append(sampler.batch(rows))
    (vals, errs), (ref_vals, ref_errs) = results
    assert np.all(np.abs(vals - ref_vals) <= 1e-12 * np.abs(ref_vals))
    assert np.all(np.abs(errs - ref_errs) <= 1e-12 * np.abs(ref_vals))


def test_cf_sampler_batch_peak_memory(table, bump, traced_peak):
    # one micro-batch on the control rule of mc-sphere holds no array over
    # the whole rule, only buffers of one block of moduli: f and the slot
    # sums, the synthesis work buffer, |f / s|^2 and the reciprocal (4.0 MB
    # measured, with numpy 2.4; one complex node array of 32 rows is 16.4 MB)
    ens = RandomEnsemble(table, bump, 24, kappa=0, master_seed=3)
    rule = SphereRule(20)
    sampler = CfSampler(ens, (CRPairingContext(rule, surface_form("vol-z2")),), (1e-2, 1e-3))
    rows = ens.draw_matrix(range(_MICRO_BATCH))
    peak = traced_peak(lambda: sampler.batch(rows))
    assert peak <= 5 * _accel.BLOCK_BYTES


def test_boundary_sampler_batch_peak_memory(table, bump, traced_peak):
    # the expectation-domain rules: u on the sphere rule and on the ball
    # rule's 193536 nodes is only ever synthesized one block of moduli at a
    # time, so a micro-batch holds block buffers alone (5.2 MB measured),
    # below one sphere node array (8.4 MB at 32 rows) and far below one
    # ball node array (99 MB)
    ens = RandomEnsemble(table, bump, 24, kappa=1, master_seed=3)
    sphere_rule, ball_rule = SphereRule(16), BallRule(12, radial=28)
    sampler = BoundarySampler(ens, sphere_rule, ball_rule,
                              (surface_form("vol-z2"), surface_form("bump-z2")),
                              (1e-2, 1e-3, 1e-4))
    rows = ens.draw_matrix(range(_MICRO_BATCH))
    peak = traced_peak(lambda: sampler.batch(rows))
    assert peak <= 6 * _accel.BLOCK_BYTES


def _accepted_rows_fixed_scan(ens, threshold, count):
    """The screening loop before it sized its passes: 256 draws a pass."""
    rows = []
    trial = 0
    rejected = 0
    while len(rows) < count:
        coeffs = ens.draw_matrix(range(trial, trial + 256))
        margins = ens.batch_margins(coeffs)
        for i in range(256):
            if margins[i] >= threshold:
                rows.append(coeffs[i])
            else:
                rejected += 1
            if len(rows) == count:
                break
        trial += 256
    return np.asarray(rows), rejected / (rejected + count)


@pytest.mark.parametrize("count", [64, 100])
def test_accepted_rows_screen_only_needed_draws(table, bump, monkeypatch, count):
    ens = RandomEnsemble(table, bump, 24, kappa=0, master_seed=5)
    # the third smallest margin of the first `count` draws rejects two of
    # them, so a second pass is needed
    threshold = float(np.sort(ens.batch_margins(ens.draw_matrix(range(count))))[2])
    ref_rows, ref_rate = _accepted_rows_fixed_scan(ens, threshold, count)
    screened = []
    draw_matrix = ens.draw_matrix
    monkeypatch.setattr(ens, "draw_matrix",
                        lambda trials: screened.append(len(trials)) or draw_matrix(trials))
    rows, rate = _accepted_rows(ens, types.SimpleNamespace(filter_threshold=threshold), count)
    assert np.array_equal(rows, ref_rows)
    assert rate == ref_rate > 0.0
    assert screened[0] == count and len(screened) >= 2
    assert all(n == _MICRO_BATCH for n in screened[1:])


class _ListedMarginsEnsemble:
    """Draw t is the row (t, 2t, 3t); its margin is listed."""
    dim = 3

    def __init__(self, margins):
        self.margins = np.asarray(margins, dtype=float)
        self.drawn = []

    def draw_matrix(self, trials):
        self.drawn.append(np.array([[t, 2 * t, 3 * t] for t in trials], dtype=complex))
        return self.drawn[-1]

    def batch_margins(self, coeffs):
        return self.margins[coeffs[:, 0].real.astype(int)]


def test_accepted_rows_fill_one_array_and_count_screened_rejects():
    # 100 rows: the first pass of 100 draws rejects draws 3 and 17, the
    # second (one micro-batch) rejects 100, and the rejected draw 103 comes
    # after the count is reached, so it is not counted
    margins = np.ones(140)
    margins[[3, 17, 100, 103]] = 0.0
    ens = _ListedMarginsEnsemble(margins)
    rows, rate = _accepted_rows(ens, types.SimpleNamespace(filter_threshold=0.5), 100)
    kept = [t for t in range(103) if t not in (3, 17, 100)]
    assert [len(d) for d in ens.drawn] == [100, _MICRO_BATCH]
    assert np.array_equal(rows, np.array([[t, 2 * t, 3 * t] for t in kept], dtype=complex))
    assert rate == 3 / 103
    # the accepted rows fill the first pass's draws: no second copy is made
    assert rows.shape == (100, 3) and np.shares_memory(rows, ens.drawn[0])


def test_accepted_rows_raise_above_five_percent_rejects():
    # 5 rejects before the 100th accepted draw are a rate of 4.8%, 6 are
    # 5.7% and raise: no run returns a rate that the experiments'
    # filter-rate checks (rate <= 5%) can fail
    config = types.SimpleNamespace(filter_threshold=0.5)
    margins = np.ones(100 + _MICRO_BATCH)
    margins[:5] = 0.0
    assert _accepted_rows(_ListedMarginsEnsemble(margins), config, 100)[1] == 5 / 105
    margins[5] = 0.0
    with pytest.raises(ExperimentError, match=r"filter reject rate 5\.7% exceeds 5%"):
        _accepted_rows(_ListedMarginsEnsemble(margins), config, 100)


def test_catalog_pairings_match_reference_route():
    # the deterministic routes on a refined cell rule against the same
    # reference arithmetic, with df from the polynomial's gradient
    deltas = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    cells = dict(base_cells=6, nodes_per_axis=4, refine_depth=2)
    f = catalog_function("z1")
    psi = one_form("angular-z2").d()
    res = cf_pairing(f, psi, deltas=deltas, **cells)
    rule, fvals, _ = _adaptive_rule(f, deltas, 6, 4, 2)
    ctx = _FrameRoute(CRPairingContext(rule, psi))
    _assert_close(res.value, res.err_est,
                  _cf_reference(ctx, fvals, _polynomial_frame_derivatives(f, ctx), deltas))

    u = catalog_function("z1-half")
    psi = surface_form("vol-z2")
    res = divisor_pairing_boundary(u, psi, deltas=deltas, ball_level=6, **cells)
    rule, uvals, _ = _adaptive_rule(u, deltas, 6, 4, 2)
    ball_rule = BallRule(6)
    ctx = _FrameRoute(BoundaryPairingContext(rule, ball_rule, psi))
    _assert_close(res.value, res.err_est,
                  _boundary_reference(ctx, uvals, _polynomial_frame_derivatives(u, ctx),
                                      u.evaluate(ball_rule.points, []), deltas))


@pytest.mark.parametrize("key, experiment", [("deltas", "lp-closed"),
                                             ("mc_deltas", "expectation-cr")])
def test_single_delta_schedule_is_a_precondition_failure(tmp_path, capsys, key, experiment):
    # one delta gives no Richardson error estimate, so the run refuses it
    cfg = tmp_path / "one-delta.ini"
    cfg.write_text(f"[currents]\n{key} = 1e-3\n[quadrature]\nrefine_depth = 1\n"
                   f"[{experiment}]\nk_grid = 8\ntrials = 100\nlevel = 6\n")
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert f"[FAIL] {experiment}: precondition: delta schedule (0.001,)" in capsys.readouterr().out
    with pytest.raises(ExperimentError):
        richardson_sqrt((1e-3,), np.ones(1))


def test_expectation_runs_build_one_evaluator_per_rule(monkeypatch):
    # one evaluator per rule: every test form shares it
    built = []
    original = GridEvaluator.__init__

    def counting(self, ensemble, rule):
        built.append(rule)
        original(self, ensemble, rule)

    monkeypatch.setattr(GridEvaluator, "__init__", counting)
    run_expectation_cr(ExperimentConfig("expectation-cr", k_grid=(24,), trials=100, level=10))
    assert len(built) == 3  # margin rule, main rule, control rule
    built.clear()
    run_expectation_domain(ExperimentConfig(
        "expectation-domain", k_grid=(24,), trials=100, level=10, ball_level=6,
        ball_radial=16, kappa=1, deltas=(1e-2, 1e-3, 1e-4)))
    assert len(built) <= 5  # margin rule, then sphere and ball for main and control


def test_fd_hessians_match_scalar_oracle(table, bump, rng):
    # per-point central differences of h(normalize(p + t u), p), one
    # band sum per evaluation, against the batched second differences
    em = EmbeddingMap(table, bump, 64)
    h = 3.2e-3 / 64
    pts = random_sphere_points(8, rng=rng)
    batched = _fd_hessians(em, pts, _tangent_frames(pts), h)

    def second(p, u):
        def g(t):
            moved = p + t * u
            moved = moved / np.linalg.norm(moved)
            return float(em.normalized_overlap(moved, p).real)

        return (g(h) + g(-h) - 2.0) / h ** 2

    for p, fd in zip(pts, batched):
        fr = tangent_frame(p)
        oracle = np.array([[(second(p, u + v) - second(p, u - v)) / 4.0 for v in fr]
                           for u in fr])
        oracle[np.diag_indices(3)] = [second(p, u) for u in fr]
        assert np.linalg.norm(fd - oracle) <= 1e-5 * np.linalg.norm(oracle)


def test_embed_check_hessian_pass_is_batched(monkeypatch):
    # the 100-point Hessian identity makes one band sum, not one per point
    calls = []
    original = _accel.band_power_sum
    monkeypatch.setattr(_accel, "band_power_sum",
                        lambda *args: calls.append(1) or original(*args))
    run_embed_check(ExperimentConfig("embed-check", k_grid=(16, 32)))
    assert len(calls) <= 2


def test_embed_check_labels_checks_it_cannot_evaluate():
    report = run_embed_check(ExperimentConfig("embed-check", k_grid=(16, 32)))
    checks = {c["name"]: c for c in report.checks}
    for name in ("hessian-negative-definite", "separation-max-h"):
        assert checks[name]["passed"]
        assert checks[name]["detail"] == "not evaluated: k_grid (16, 32) has no k >= 64"


# Checks that compare values across the scale grid and, at that grid, have
# none to compare (embed-check's two k >= 64 checks are labelled on any
# grid without such a k); on a one-value grid that includes every fitted
# order and every first-to-last comparison
ONE_VALUE_CHECKS = {
    "kernel-diag": {"beta-error-halving", "diag-order-in-band"},
    "embed-check": {"scaled-hessian-structure", "hessian-negative-definite",
                    "separation-max-h", "fs-reeb-order"},
    "equi-cr": {"tail-angular-z2", "tail-horizontal-mix", "order-angular-z2"},
    "variance-cr": {"variance-over-k32-band", "variance-kappa1-shape",
                    "variance-over-k2-decay"},
    "equi-domain": {"rate-vol-z2", "rate-bump-z2", "interior-vanishing-interior-only"},
}
SHORT_GRID_CHECKS = {
    (16,): ONE_VALUE_CHECKS,
    (16, 32): {
        "kernel-diag": set(),
        "embed-check": {"hessian-negative-definite", "separation-max-h"},
        "equi-cr": {"tail-angular-z2", "tail-horizontal-mix"},
        "variance-cr": {"variance-over-k32-band", "variance-kappa1-shape"},
        "equi-domain": {"rate-vol-z2", "rate-bump-z2"},
    },
    (24,): ONE_VALUE_CHECKS,
}


@pytest.mark.parametrize("k_grid", sorted(SHORT_GRID_CHECKS))
def test_short_grids_label_checks_they_cannot_evaluate(k_grid):
    small = dict(trials=100, level=8, ball_level=6, ball_radial=12)
    for name, labelled in SHORT_GRID_CHECKS[k_grid].items():
        report = EXPERIMENTS[name](ExperimentConfig(name, k_grid=k_grid, **small))
        got = {c["name"] for c in report.checks
               if c["detail"].startswith(f"not evaluated: k_grid {k_grid} ")}
        assert got == labelled, name
        assert all(c["passed"] for c in report.checks if c["name"] in got), name
        # one value measures nothing across k, so no check fails for want of it
        assert len(k_grid) > 1 or report.verdict, name


# CSV bodies of kernel-diag at its defaults and of embed-check at k (16, 32),
# computed at commit eb79a44, when DegreeTable took its constants and norms
# from Gauss-Legendre quadrature.  The closed forms move them by rounding.
QUADRATURE_ERA_CSV = {
    "kernel-diag": """k,quantity,estimate,reference,abs_err,rel_err,std_err,observed_order
32,diag-ratio,1.0625148211528208,1.0,0.06251482115282081,0.06251482115282081,,1.0001710788350784
32,beta-reeb,(0.5135201856271892-1.0464091270343795e-17j),0.5143659057306852,0.0008457201034960393,0.0016441993803898165,,
64,diag-ratio,1.031249319083436,1.0,0.031249319083435978,0.031249319083435978,,1.0001710788350784
64,beta-reeb,(0.5139305201726594-1.047245272965027e-17j),0.5143659057306852,0.0004353855580258026,0.0008464510442372991,,
128,diag-ratio,1.0156249991360606,1.0,0.015624999136060636,0.015624999136060636,,1.0001710788350784
128,beta-reeb,(0.5141448917244164-1.0476821016518311e-17j),0.5143659057306852,0.00022101400626883816,0.00042968245718945066,,
""",
    "embed-check": """k,quantity,estimate,reference,abs_err,rel_err,std_err,observed_order
16,fs-reeb-reeb,0.007026216296053175,0.006976573617879733,4.96426781734418e-05,0.007115624501720491,,1.0956180553664214
32,fs-reeb-reeb,0.0069998031950505085,0.006976573617879733,2.3229577170775194e-05,0.0033296541315412866,,1.0956180553664214
32,fs-horizontal,0.5135201856271886,0.5143659057306854,0.0008457201034968165,0.0016441993803913266,,
""",
}
TOLERANCES = {"estimate": 1e-12, "reference": 1e-12, "std_err": 1e-12,
              "abs_err": 1e-10, "rel_err": 1e-10, "observed_order": 1e-10}


@pytest.mark.parametrize("name, k_grid", [
    ("kernel-diag", _EXPERIMENT_DEFAULTS["kernel-diag"]["k_grid"]),
    ("embed-check", (16, 32)),
])
def test_closed_form_constants_keep_rows(name, k_grid):
    rows = list(csv.DictReader(EXPERIMENTS[name](
        ExperimentConfig(name, k_grid=k_grid)).csv_body().splitlines()))
    pinned = list(csv.DictReader(QUADRATURE_ERA_CSV[name].splitlines()))
    assert [(r["k"], r["quantity"]) for r in rows] == [(r["k"], r["quantity"]) for r in pinned]
    for row, pin in zip(rows, pinned):
        for col, tol in TOLERANCES.items():
            assert (row[col] == "") == (pin[col] == ""), (row["quantity"], col)
            if pin[col]:
                parent = complex(pin[col])
                assert abs(complex(row[col]) - parent) <= tol * max(1.0, abs(parent)), \
                    (row["k"], row["quantity"], col)


# Row estimates of lp-closed and lp-boundary at refine_depth 2 and ball
# level 6 (default deltas and cells), computed at commit 14b797c, where
# form evaluation took np.linalg.det of per-point matrices.
PINNED_ROWS = {
    "pairing-z1-angular-z2": 6.283184267733478 + 1.483493643842335e-17j,
    "pairing-z2-angular-z1": 6.28318426773348 + 1.8738803572541854e-17j,
    "pairing-z1-exact-form": 0.0,
    "pairing-z1-half-vol-z2": 2.356249830800078 - 2.8382622793348405e-16j,
    "pairing-nowhere-zero": -1.504203546266551e-07 + 6.210423835892751e-17j,
    "pairing-z1-half-vol-z1": 0.0,
}

# The reference column of the same rows, the direct zero-set oracles where
# the row has one, computed at commit 93af197, where each catalog entry
# carried its own hand-written oracle.
PINNED_REFERENCES = {
    "pairing-z1-angular-z2": 6.283185307179587,
    "pairing-z2-angular-z1": 6.283185307179587,
    "pairing-z1-exact-form": 0.0,
    "pairing-z1-half-vol-z2": 2.356194490192339,
    "pairing-nowhere-zero": 0.0,
    "pairing-z1-half-vol-z1": 0.0,
}


def test_lp_rows_match_pinned_values():
    rows, references = {}, {}
    for name, run in (("lp-closed", run_lp_closed), ("lp-boundary", run_lp_boundary)):
        report = run(ExperimentConfig(name, refine_depth=2, ball_level=6))
        assert report.verdict
        rows.update((r["quantity"], complex(r["estimate"])) for r in report.rows)
        references.update((r["quantity"], complex(r["reference"])) for r in report.rows)
    assert set(rows) == set(PINNED_ROWS) == set(PINNED_REFERENCES)
    for quantity, pinned in PINNED_ROWS.items():
        assert abs(rows[quantity] - pinned) <= 1e-12 * max(1.0, abs(pinned)), quantity
    for quantity, pinned in PINNED_REFERENCES.items():
        assert abs(references[quantity] - pinned) <= 1e-12 * max(1.0, abs(pinned)), quantity


def test_lp_boundary_uses_configured_ball_radial():
    # ball level 6 falls back to 8 radial nodes; the config asks for 12
    config = ExperimentConfig("lp-boundary", refine_depth=2, ball_level=6, ball_radial=12)
    rows = {r["quantity"]: complex(r["estimate"]) for r in run_lp_boundary(config).rows}
    options = dict(refine_depth=2, ball_level=6)
    direct = divisor_pairing_boundary(catalog_function("nowhere-zero"),
                                      surface_form("bump-z2"), ball_radial=12, **options)
    fallback = divisor_pairing_boundary(catalog_function("nowhere-zero"),
                                        surface_form("bump-z2"), **options)
    assert direct.value != fallback.value
    assert rows["pairing-nowhere-zero"] == direct.value


# equi-domain's CSV body at the deterministic benchmark workload's config
# (ball level 6, 12 radii, k 16,32), from the per-node kernel band sums:
# summing once per distinct |z|^2 keeps it byte for byte.  interior-only's
# boundary reference is exactly 0 (it was rounding noise of 1e-16, which
# rel_err divided by).
EQUI_DOMAIN_CSV = """\
k,quantity,estimate,reference,abs_err,rel_err,std_err,observed_order
16,domain-pairing-vol-z2,(0.9877672104076769+3.5378827826575594e-19j),(5.0765880069698825-4.795933959489416e-18j),4.088820796562206,0.8054269503352398,,
32,domain-pairing-vol-z2,(2.4246294835492623+1.3877177118805834e-18j),(5.0765880069698825-4.795933959489416e-18j),2.65195852342062,0.5223899437534864,,
16,domain-pairing-bump-z2,(1.5403995162466004+2.988463723194641e-19j),(8.46098001161647-4.4533181358346515e-18j),6.920580495369871,0.8179407687842645,,
32,domain-pairing-bump-z2,(3.8660479961053653+1.2688981483889456e-18j),(8.46098001161647-4.4533181358346515e-18j),4.594932015511105,0.5430732621046865,,
16,domain-pairing-interior-only,(0.010396958992598525-5.159970174333431e-18j),0.0,0.010396958992598525,,,
32,domain-pairing-interior-only,(0.007083432090727777-1.4385803694798153e-17j),0.0,0.007083432090727777,,,
"""


def test_equi_domain_csv_pinned():
    config = ExperimentConfig("equi-domain", ball_level=6, ball_radial=12, k_grid=(16, 32))
    report = EXPERIMENTS["equi-domain"](config)
    assert report.verdict
    assert report.csv_body() == EQUI_DOMAIN_CSV


# CSV bodies of the four Monte Carlo experiments before the samplers summed
# over blocks of moduli: the three benchmark workload configs at benchmark
# seed 4242 (mc-sphere, mc-ball, mc-scan) and equi-cr at k 16,32, 100
# trials, level 12.  Streaming changes only the order of the sums over
# nodes, so every field stays within 1e-12 relative.
PINNED_MC_CSV = {
    # mc-sphere
    "expectation-cr": (
        {
            "run.seed": "688540760", "expectation-cr.k_grid": "24",
            "expectation-cr.trials": "100", "expectation-cr.level": "12",
        },
        [
            (
                "24", "cf-mean-vol-z2", "(19.350980244366436+0.027217242685360094j)",
                "(19.348421707529955+5.5745609503036505e-18j)", "0.027337234866339724",
                "0.0014128922389416761", "0.04052567430049774", "",
            ),
            (
                "24", "cf-mean-vol-z1", "(19.363980901762922-0.016234700739375805j)",
                "(19.348421707529983-2.9090159715954624e-34j)", "0.022486752395030344",
                "0.0011622008624237806", "0.04537281822215105", "",
            ),
            (
                "24", "cf-mean-mixed-11", "(-12.899661559099812-0.0037519799611012497j)",
                "(-12.898947805020018+9.210263849947053e-18j)", "0.0038192667509519694",
                "0.0002960913408352258", "0.029364236532679666", "",
            ),
        ]),
    # mc-ball
    "expectation-domain": (
        {
            "run.seed": "1168894484", "quadrature.level": "10", "quadrature.ball_level": "6",
            "quadrature.ball_radial": "16", "currents.deltas": "1e-2,1e-3,1e-4",
            "expectation-domain.k_grid": "24", "expectation-domain.trials": "100",
        },
        [
            (
                "24", "divisor-mean-vol-z2", "(6.481912633031195-0.03443933423961383j)",
                "(6.666939472723919+4.707979873540311e-18j)", "0.1882046735592525",
                "0.028229545855222457", "0.619701704178172", "",
            ),
            (
                "24", "divisor-mean-bump-z2", "(10.29378024425703-0.05788861431104687j)",
                "(10.552286982216009+4.229667290074226e-18j)", "0.26490908862673035",
                "0.025104424194791822", "0.9662200315464023", "",
            ),
        ]),
    # mc-scan
    "variance-cr": (
        {
            "run.seed": "1673873874", "variance-cr.k_grid": "16,32,64",
            "variance-cr.trials": "100", "variance-cr.level": "12",
        },
        [
            ("16", "variance-kappa0", "0.22048866202775286", "", "", "", "", ""),
            ("32", "variance-kappa0", "0.21196804484384513", "", "", "", "", ""),
            ("64", "variance-kappa0", "0.28360859933050675", "", "", "", "", ""),
            ("16", "variance-kappa1", "14.05720840933112", "", "", "", "", ""),
            ("32", "variance-kappa1", "57.28440380341047", "", "", "", "", ""),
            ("64", "variance-kappa1", "89.61172462451495", "", "", "", "", ""),
        ]),
    # k 16,32, 100 trials, level 12
    "equi-cr": (
        {"grid.k_grid": "16,32", "mc.trials": "100", "quadrature.level": "12"},
        [
            (
                "16", "scaled-divisor-angular-z2", "(1.6142752211008589-0.0001235035295171859j)",
                "(1.6159281507005778-2.4295319124191236e-35j)", "0.0016575371439066773",
                "0.0010257492842042884", "0.00585784541771532", "",
            ),
            (
                "32", "scaled-divisor-angular-z2", "(1.6153715235994892-0.001961659945677703j)",
                "(1.6159281507005778-2.4295319124191236e-35j)", "0.002039103595245362",
                "0.0012618776363053758", "0.0025873426083455994", "",
            ),
            (
                "16", "scaled-divisor-horizontal-mix",
                "(7.719152985547983e-05+0.000580847179560282j)",
                "0.0", "0.0005859539045731875", "", "0.004104974001997095", "",
            ),
            (
                "32", "scaled-divisor-horizontal-mix",
                "(0.002312322258804109+0.0005507639727080675j)",
                "0.0", "0.002377009714366795", "", "0.002126153154397164", "",
            ),
        ]),
}


def test_expectation_cr_scale_invariance_is_exact():
    # doubling the coefficients scales s^2 (from the coefficients) by
    # exactly 4 and f by exactly 2, so cf(2f) and cf(f) agree bit for bit
    # at the mc-sphere benchmark config
    overrides, _ = PINNED_MC_CSV["expectation-cr"]
    report = EXPERIMENTS["expectation-cr"](
        config_from_resolved("expectation-cr", resolve_config(overrides=overrides)))
    check, = (c for c in report.checks if c["name"] == "scale-invariance")
    assert check["passed"] and check["detail"] == "max |cf(2f) - cf(f)| = 0.00e+00"


@pytest.mark.parametrize("name", sorted(PINNED_MC_CSV))
def test_monte_carlo_rows_match_pinned_csv(name):
    overrides, pinned = PINNED_MC_CSV[name]
    report = EXPERIMENTS[name](config_from_resolved(name, resolve_config(overrides=overrides)))
    assert report.verdict
    header, *rows = csv.reader(report.csv_body().splitlines())
    assert len(rows) == len(pinned)
    for row, want_row in zip(rows, pinned):
        assert row[:2] == list(want_row[:2])
        for got, want in zip(row[2:], want_row[2:]):
            if got != want:
                got, want = (complex(x.strip("()")) for x in (got, want))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (row[:2], got, want)
