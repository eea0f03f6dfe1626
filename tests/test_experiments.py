import math

import numpy as np
import pytest

from spherelab.currents import (BoundaryPairingContext, CRPairingContext,
                                _normalized, richardson_sqrt)
from spherelab.cutoffs import Cutoff
from spherelab.ensemble import NodeEvaluator, RandomEnsemble
from spherelab.experiments import (BoundarySampler, CfSampler, ExperimentConfig,
                                   ExperimentError, _beta_reference,
                                   config_from_resolved, one_form,
                                   run_expectation_cr, run_expectation_domain,
                                   run_kernel_diag, run_lp_boundary, run_lp_closed,
                                   surface_form)
from spherelab.geometry import ContactData, random_sphere_points
from spherelab.kernels import KernelField
from spherelab.quadrature import BallRule, SphereRule, contact_one_form
from spherelab.reporting import resolve_config


def test_config_defaults_and_overrides():
    resolved = resolve_config()
    cfg = config_from_resolved("expectation-cr", resolved)
    assert cfg.k_grid == (48,)
    assert cfg.trials == 4000
    assert cfg.kappa == 0
    cfg2 = config_from_resolved("expectation-domain", resolved)
    assert cfg2.kappa == 1 and cfg2.trials == 2000
    # explicit global overrides beat experiment defaults
    resolved = resolve_config(overrides={"grid.k_grid": "8,16", "mc.trials": "120"})
    cfg3 = config_from_resolved("expectation-cr", resolved)
    assert cfg3.k_grid == (8, 16)
    assert cfg3.trials == 120


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
    val = _beta_reference(kf, rule, surface_form("vol-z2"))
    # and the closed route alone for comparison
    xi_psi = contact_one_form(2).wedge(surface_form("vol-z2"))
    direct = kf.beta_scale() * rule.pair_form(xi_psi)
    assert val == pytest.approx(direct, rel=1e-12)


def test_horizontal_form_annihilates_reeb(rng):
    psi = one_form("horizontal-mix")
    xs = random_sphere_points(20, rng=rng)
    cd = ContactData()
    from spherelab.forms import real_direction
    vals = psi.evaluate(xs, [real_direction(1j * xs)])
    assert np.max(np.abs(vals)) <= 1e-12


def test_kernel_diag_deterministic():
    cfg = ExperimentConfig("kernel-diag", k_grid=(16, 32, 64))
    a = run_kernel_diag(cfg)
    b = run_kernel_diag(cfg)
    assert a.csv_body() == b.csv_body()
    assert a.verdict


def test_kernel_diag_needs_two_scales():
    cfg = ExperimentConfig("kernel-diag", k_grid=(16,))
    report = run_kernel_diag(cfg)
    assert not report.verdict  # order fit impossible on one point


def test_expectation_cr_small_deterministic(table):
    cfg = ExperimentConfig("expectation-cr", k_grid=(24,), trials=100,
                           level=10, chunk=32)
    a = run_expectation_cr(cfg)
    b = run_expectation_cr(cfg)
    assert a.csv_body() == b.csv_body()
    # chunking must not change the result
    c = run_expectation_cr(ExperimentConfig("expectation-cr", k_grid=(24,),
                                            trials=100, level=10, chunk=7))
    assert a.csv_body() == c.csv_body()


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
    sampler = CfSampler(ens, rule, (psi.d(),), (1e-3, 1e-4, 1e-5, 1e-6, 1e-7))
    vals, errs = sampler.batch(rows)
    name = "z1" if alpha == (1, 0) else "z2"
    direct = zero_set_direct(name, psi)
    assert abs(vals[0, 0] - direct) <= 0.02 * abs(direct)


def _frame_derivatives(ev, ctx, row, scale):
    """df / scale along each frame direction, one directional derivative each."""
    x1, x2 = ev.slot1_sums(row)
    return [ev.directional_derivative(x1, x2, h)[0] / scale for h in ctx.frame_holo]


def test_cf_sampler_columns_match_context_route(table, bump):
    # each column of the multi-form sampler equals the one-form, one-draw
    # route through CRPairingContext and richardson_sqrt
    ens = RandomEnsemble(table, bump, 16, kappa=0, master_seed=7)
    rule = SphereRule(8)
    deltas = (1e-2, 1e-3, 1e-4)
    psis = tuple(surface_form(name) for name in ("vol-z2", "vol-z1", "mixed-11"))
    rows = ens.draw_matrix(range(4))
    vals, errs = CfSampler(ens, rule, psis, deltas).batch(rows)
    assert vals.shape == errs.shape == (4, 3)
    ev = ens.evaluator(rule.points)
    for j, psi in enumerate(psis):
        ctx = CRPairingContext(rule, psi)
        for r in range(rows.shape[0]):
            f = ev.values(rows[r])[0]
            scale = _normalized(f, rule.weights)
            top = ctx.top_values(_frame_derivatives(ev, ctx, rows[r:r + 1], scale))
            value, err = richardson_sqrt(deltas, ctx.per_delta_values(f / scale, top, deltas))
            assert abs(vals[r, j] - value) <= 1e-12 * abs(value)
            assert abs(errs[r, j] - err) <= 1e-12 * abs(value)


def test_boundary_sampler_columns_match_context_route(table, bump):
    # same for the boundary pairing, including the log-normalization shift
    ens = RandomEnsemble(table, bump, 12, kappa=1, master_seed=7)
    sphere_rule = SphereRule(8)
    ball_rule = BallRule(6, radial=8)
    deltas = (1e-2, 1e-3, 1e-4)
    psis = (surface_form("vol-z2"), surface_form("bump-z2"))
    rows = ens.draw_matrix(range(4))
    vals, errs = BoundarySampler(ens, sphere_rule, ball_rule, psis, deltas).batch(rows)
    assert vals.shape == errs.shape == (4, 2)
    ev_s = ens.evaluator(sphere_rule.points)
    ev_b = ens.evaluator(ball_rule.points)
    for j, psi in enumerate(psis):
        ctx = BoundaryPairingContext(sphere_rule, ball_rule, psi)
        shift_scale = (1j / math.pi) * (-np.dot(ctx.pair_weights, ctx.dbar_top)
                                        + np.dot(ball_rule.weights, ctx.ddbar_top))
        for r in range(rows.shape[0]):
            u = ev_s.values(rows[r])[0]
            scale = _normalized(u, sphere_rule.weights)
            du = _frame_derivatives(ev_s, ctx, rows[r:r + 1], scale)
            per = ctx.per_delta_values(u / scale, du, ev_b.values(rows[r])[0] / scale, deltas)
            value, err = richardson_sqrt(deltas, per + math.log(scale) * shift_scale)
            assert abs(vals[r, j] - value) <= 1e-12 * abs(value)
            assert abs(errs[r, j] - err) <= 1e-12 * abs(value)


def test_expectation_runs_build_one_evaluator_per_rule(monkeypatch):
    # one design matrix per rule: every test form shares it
    built = []
    original = NodeEvaluator.__init__

    def counting(self, ensemble, points):
        built.append(len(points))
        original(self, ensemble, points)

    monkeypatch.setattr(NodeEvaluator, "__init__", counting)
    run_expectation_cr(ExperimentConfig("expectation-cr", k_grid=(24,), trials=100, level=10))
    assert len(built) == 3  # margin rule, main rule, control rule
    built.clear()
    run_expectation_domain(ExperimentConfig(
        "expectation-domain", k_grid=(24,), trials=100, level=10, ball_level=6,
        ball_radial=16, kappa=1, deltas=(1e-2, 1e-3, 1e-4)))
    assert len(built) <= 5  # margin rule, then sphere and ball for main and control


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


def test_lp_rows_match_pinned_values():
    rows = {}
    for name, run in (("lp-closed", run_lp_closed), ("lp-boundary", run_lp_boundary)):
        report = run(ExperimentConfig(name, refine_depth=2, ball_level=6))
        assert report.verdict
        rows.update((r["quantity"], complex(r["estimate"])) for r in report.rows)
    assert set(rows) == set(PINNED_ROWS)
    for quantity, pinned in PINNED_ROWS.items():
        assert abs(rows[quantity] - pinned) <= 1e-12 * max(1.0, abs(pinned)), quantity
