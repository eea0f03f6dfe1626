import math

import numpy as np
import pytest

from spherelab import _accel, currents, forms, quadrature
from spherelab.currents import (CATALOG, DEFAULT_DELTAS, BoundaryPairingContext,
                                RegularityError, RegularizedPairing, _adaptive_rule,
                                catalog_function, cf_pairing,
                                divisor_pairing_boundary, divisor_pairing_closed,
                                holo_gradient_values, richardson_sqrt, zero_set_direct)
from spherelab.quadrature import BallRule, CircleRule, DiscRule, SphereRule, contact_one_form

ANGULAR_Z2 = forms.x_coord(2) * forms.dx(3) - forms.x_coord(3) * forms.dx(2)
ANGULAR_Z1 = forms.x_coord(0) * forms.dx(1) - forms.x_coord(1) * forms.dx(0)
VOL_Z2 = forms.dz(1) * forms.dzbar(1) * 0.5j
VOL_Z1 = forms.dz(0) * forms.dzbar(0) * 0.5j
BUMP_Z2 = (1.0 + forms.z_coord(0) * forms.zbar_coord(0)) * VOL_Z2

FAST = dict(base_cells=6, nodes_per_axis=4, refine_depth=8)


def test_richardson_recovers_sqrt_series():
    deltas = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    a, b, c = 2.5, -1.3, 0.7
    vals = a + b * np.sqrt(deltas) + c * deltas
    limit, err = richardson_sqrt(deltas, vals)
    assert limit == pytest.approx(a, abs=1e-10)
    assert err <= 1e-6


def test_closed_oracle_circle():
    res = divisor_pairing_closed(catalog_function("z1"), ANGULAR_Z2, **FAST)
    direct = zero_set_direct("z1", ANGULAR_Z2)
    assert direct.real == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert abs(res.value - direct) <= 0.01 * abs(direct)
    assert abs(res.value - direct) <= max(0.01 * abs(direct), 3.0 * res.err_est)
    assert np.all(np.isfinite(res.per_delta))


def test_closed_oracle_swapped_coordinate():
    res = divisor_pairing_closed(catalog_function("z2"), ANGULAR_Z1, **FAST)
    assert abs(res.value - 2.0 * math.pi) <= 0.01 * 2.0 * math.pi


def test_scale_invariance_of_cf():
    psi = ANGULAR_Z2.d()
    a = cf_pairing(catalog_function("z1"), psi, **FAST)
    b = cf_pairing(catalog_function("z1") * 2.0, psi, **FAST)
    assert a.value == pytest.approx(b.value, rel=1e-10)


def test_exact_form_pairs_to_zero():
    phi = forms.x_coord(1) * forms.x_coord(2)
    res = divisor_pairing_closed(catalog_function("z1"), phi.d(), **FAST)
    assert abs(res.value) <= 1e-10
    assert abs(zero_set_direct("z1", phi.d())) <= 1e-10


def test_empty_form_builds_no_rule(monkeypatch):
    # d(d phi) has no terms, so the regularized side of the closedness
    # check is exactly zero for every delta before any quadrature runs
    def no_rule(*args, **kwargs):
        raise AssertionError("a form with no terms built a cell rule")

    monkeypatch.setattr(quadrature.SphereCellRule, "__init__", no_rule)
    phi = forms.x_coord(0) * forms.x_coord(2)
    res = divisor_pairing_closed(catalog_function("z1"), phi.d())
    assert res.value == 0 and res.err_est == 0.0
    assert res.per_delta.shape == (len(DEFAULT_DELTAS),) and np.all(res.per_delta == 0)
    assert res.extras == {"cells": 0, "unresolved_cells": 0}


def test_linearity_in_test_form():
    f = catalog_function("z1")
    p1 = divisor_pairing_closed(f, ANGULAR_Z2, **FAST).value
    p2 = divisor_pairing_closed(f, ANGULAR_Z1, **FAST).value
    combo = divisor_pairing_closed(f, ANGULAR_Z2 * 2.0 - ANGULAR_Z1 * 0.5, **FAST).value
    assert combo == pytest.approx(2.0 * p1 - 0.5 * p2, rel=1e-6, abs=1e-8)


def test_boundary_disc_oracle():
    res = divisor_pairing_boundary(catalog_function("z1-half"), VOL_Z2,
                                   ball_level=10, **FAST)
    target = 3.0 * math.pi / 4.0
    assert zero_set_direct("z1-half", VOL_Z2).real == pytest.approx(target, abs=1e-10)
    assert abs(res.value - target) <= 0.01 * target


def test_boundary_shifted_disc():
    res = divisor_pairing_boundary(catalog_function("z1-shifted"), VOL_Z2,
                                   ball_level=10, **FAST)
    target = math.pi * (1.0 - 0.25 ** 2)
    assert zero_set_direct("z1-shifted", VOL_Z2).real == pytest.approx(target, abs=1e-10)
    assert abs(res.value - target) <= 0.01 * target


def test_boundary_nowhere_zero_cancels():
    psi = (1.0 + forms.z_coord(0) * forms.zbar_coord(0)) * VOL_Z2
    res = divisor_pairing_boundary(catalog_function("nowhere-zero"), psi,
                                   ball_level=10, **FAST)
    assert abs(res.value) <= max(1e-5, 3.0 * res.err_est)


def test_boundary_tangential_form_vanishes():
    res = divisor_pairing_boundary(catalog_function("z1-half"), VOL_Z1,
                                   ball_level=10, **FAST)
    assert abs(res.value) <= 1e-8


def test_structurally_zero_log_terms_are_skipped(monkeypatch):
    # dbar and d dbar of vol-z2 and vol-z1 have no terms: their node values
    # are never evaluated and their log delta-sums never run; a weighted
    # vol-z2 needs both passes, with a zero column for vol-z2 in each
    sphere, ball = SphereRule(8), BallRule(4, radial=4)
    weighted = (1.0 + forms.z_coord(0) * forms.zbar_coord(0)) * VOL_Z2
    calls = []
    original = _accel.log_regularized_sums
    monkeypatch.setattr(_accel, "log_regularized_sums",
                        lambda weights, *rest: calls.append(weights.shape[1])
                        or original(weights, *rest))
    rng = np.random.default_rng(3)

    def per_delta(psis):
        pairing = RegularizedPairing([BoundaryPairingContext(sphere, ball, psi) for psi in psis])
        f, x1, x2 = (rng.standard_normal((2, sphere.npoints)) + 1j for _ in range(3))
        u_ball = rng.standard_normal((2, ball.npoints)) + 1j
        # the whole rule as one block of sphere nodes and one of ball nodes
        return pairing, pairing.per_delta(np.ones(2), [(slice(None), f, (x1, x2))],
                                          (1e-2, 1e-3), [(slice(None), u_ball)])

    pairing, per = per_delta((VOL_Z2, VOL_Z1))
    assert pairing._sphere.w_dbar is None and pairing._domain.w_ddbar is None
    assert calls == [] and per.shape == (2, 2, 2) and np.all(np.isfinite(per))
    per_delta((VOL_Z2, weighted))
    assert calls == [2, 2]


def test_product_divisor_additivity():
    psi = VOL_Z2 + VOL_Z1
    direct = zero_set_direct("z1*z2", psi)
    # each coordinate disc contributes pi from its own volume form
    assert direct.real == pytest.approx(2.0 * math.pi, abs=1e-10)
    res = divisor_pairing_boundary(catalog_function("z1*z2"), psi,
                                   ball_level=10, **FAST)
    assert abs(res.value - direct) <= 0.015 * abs(direct)


def test_regularity_rejection(monkeypatch):
    # z1 * z1 has a double zero through the boundary circle: its gradient
    # collapses on the zero set and the margin check must fire, before the
    # pairing runs a single delta sum
    calls = []
    original = _accel.regularized_sums
    monkeypatch.setattr(_accel, "regularized_sums",
                        lambda *args: calls.append(1) or original(*args))
    z1 = forms.z_coord(0)
    with pytest.raises(RegularityError):
        divisor_pairing_boundary(z1 * z1, VOL_Z2, ball_level=8,
                                 base_cells=6, nodes_per_axis=4, refine_depth=12)
    assert calls == []
    with pytest.raises(RegularityError):
        divisor_pairing_boundary(forms.PolyForm(), VOL_Z2, ball_level=8, **FAST)


@pytest.mark.parametrize("name", sorted(CATALOG) + ["z1^2"])
def test_gradient_norm_keeps_regularity_outcome(name):
    # |du| gathered block by block in place, as the boundary pairing does,
    # against np.linalg.norm of the gradient on the whole refined rule
    # (default cell parameters; the z1^2 of test_regularity_rejection at
    # its depth): within 4e-16 relative, and the regularity check reaches
    # the same outcome, message included, on both
    upoly = forms.z_coord(0) * forms.z_coord(0) if name == "z1^2" else catalog_function(name)
    rule, u, _ = _adaptive_rule(upoly, DEFAULT_DELTAS, 6, 4, 12 if name == "z1^2" else 10)
    grad_norm = currents._gradient_norm(upoly, rule)
    ref = np.linalg.norm(holo_gradient_values(upoly, rule.points), axis=-1)
    assert np.all(np.abs(grad_norm - ref) <= 4e-16 * ref)
    outcomes = []
    for g in (grad_norm, ref):
        try:
            currents._boundary_regularity_check(u, g)
            outcomes.append(None)
        except RegularityError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is None) == (name != "z1^2")


def test_catalog_registry():
    assert set(CATALOG) >= {"z1", "z2", "z1-half", "z1-shifted", "z1*z2", "nowhere-zero"}
    with pytest.raises(KeyError):
        catalog_function("does-not-exist")
    with pytest.raises(KeyError):
        zero_set_direct("does-not-exist", VOL_Z2)


# the catalog's polynomials as written by hand before each entry became its
# list of lines
HAND_WRITTEN = {
    "z1": forms.z_coord(0),
    "z2": forms.z_coord(1),
    "z1-half": forms.z_coord(0) - 0.5,
    "z1-shifted": forms.z_coord(0) - 0.25,
    "z1*z2": forms.z_coord(0) * forms.z_coord(1),
    "nowhere-zero": forms.z_coord(0) + 2.0,
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_function_is_its_lines(name):
    u = catalog_function(name)
    assert list(u.terms.items()) == list(HAND_WRITTEN[name].terms.items())
    for a, c in CATALOG[name]:
        if abs(c) >= 1.0:
            with pytest.raises(ValueError):
                DiscRule(8, a, c)
            continue
        for rule in (DiscRule(8, a, c), CircleRule(8, a, c)):
            assert np.max(np.abs(u.evaluate(rule.points, []))) <= 1e-15


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_zero_set_direct_on_both_routes(name):
    # Stokes on each disc: the contact form over the circles equals its
    # differential over the discs, 2 pi (1 - |c|^2) per line in the ball
    xi = contact_one_form()
    expected = sum(2.0 * math.pi * (1.0 - abs(c) ** 2) for _, c in CATALOG[name] if abs(c) < 1.0)
    closed = zero_set_direct(name, xi)
    assert closed == pytest.approx(expected, abs=1e-12)
    assert abs(closed - zero_set_direct(name, xi.d())) <= 1e-12
    for psi in (forms.z_coord(0), xi.wedge(xi.d())):
        with pytest.raises(ValueError):
            zero_set_direct(name, psi)


def test_per_delta_is_finite_and_follows_the_schedule():
    res = cf_pairing(catalog_function("z1"), ANGULAR_Z2.d(), **FAST)
    assert np.all(np.isfinite(res.per_delta))
    assert len(res.per_delta) == len(DEFAULT_DELTAS)
    # each per-delta sum is independent of the others, so a reversed
    # schedule reverses the columns and leaves the limit's bits alone
    rev = cf_pairing(catalog_function("z1"), ANGULAR_Z2.d(), deltas=DEFAULT_DELTAS[::-1],
                     **FAST)
    assert np.array_equal(rev.per_delta, res.per_delta[::-1])
    assert rev.value == res.value and rev.err_est == res.err_est


def test_adaptive_rule_values_match_final_nodes():
    f = catalog_function("z1-half")
    rule, fvals, unresolved = _adaptive_rule(f, DEFAULT_DELTAS, 4, 3, 4)
    assert rule.ncells > 4 ** 3 and unresolved > 0
    assert np.array_equal(fvals, f.evaluate(rule.points, []))


def test_boundary_pairing_depth10_pinned():
    # the mc-ball cross-check configuration: z1-half against vol-z2, three
    # deltas, depth-10 refinement with its cell budget, ball level 6
    res = divisor_pairing_boundary(catalog_function("z1-half"), VOL_Z2,
                                   deltas=(1e-2, 1e-3, 1e-4), refine_depth=10, ball_level=6)
    pinned = 2.3581251862885386 + 9.775358539485691e-17j
    assert abs(res.value - pinned) <= 1e-12 * abs(pinned)
    assert abs(res.err_est - 0.0022183311428074504) <= 1e-12 * abs(pinned)
    assert res.extras == {"cells": 12816, "unresolved_cells": 7680}


def test_closed_pairing_default_cells_pinned():
    # lp-closed's z1 / angular-z2 row at the default cell parameters; the
    # refinement's cell statistics choose the same cells as the whole-rule
    # |f / s| they replaced, and move the value by at most an ulp
    res = divisor_pairing_closed(catalog_function("z1"), ANGULAR_Z2, deltas=DEFAULT_DELTAS,
                                 base_cells=6, nodes_per_axis=4, refine_depth=10)
    assert abs(res.value - 6.283182292538469) <= 1e-12 * 6.283182292538469
    assert res.extras == {"cells": 17604, "unresolved_cells": 7488}


def test_boundary_pairing_live_log_terms_pinned():
    # z1-half against bump-z2: live dbar psi and d dbar psi log terms and
    # real zeros on the sphere, where regularizing against delta s^2 must
    # give the log s that normalizing u by s and restoring log s gave
    res = divisor_pairing_boundary(catalog_function("z1-half"), BUMP_Z2, ball_level=6,
                                   refine_depth=4)
    pinned = 2.916581772851383 - 1.3410272904339293e-16j
    assert abs(res.value - pinned) <= 1e-12 * abs(pinned)
    assert abs(res.err_est - 1.6931857165225495e-06) <= 1e-12 * abs(pinned)
    assert res.extras == {"cells": 4752, "unresolved_cells": 384}


STREAMED_CASES = {
    "closed-z1": lambda **kw: divisor_pairing_closed(catalog_function("z1"), ANGULAR_Z2, **kw),
    "z1-half-vol-z2": lambda **kw: divisor_pairing_boundary(
        catalog_function("z1-half"), VOL_Z2, ball_level=6, **kw),
    # live dbar psi and d dbar psi terms, so both log passes and the ball
    # term run
    "z1-half-bump-z2": lambda **kw: divisor_pairing_boundary(
        catalog_function("z1-half"), BUMP_Z2, ball_level=6, **kw),
    "nowhere-zero": lambda **kw: divisor_pairing_boundary(
        catalog_function("nowhere-zero"), BUMP_Z2, ball_level=6, **kw),
}


@pytest.mark.parametrize("case", sorted(STREAMED_CASES))
def test_streamed_pairing_does_not_depend_on_block_size(monkeypatch, case):
    options = dict(base_cells=6, nodes_per_axis=4, refine_depth=4)
    results = []
    # 7 cells a block, the default 1024, and the whole rule in one block
    for budget in (7 * 16 * 4 ** 3, _accel.BLOCK_BYTES, (1 << 20) * 16 * 4 ** 3):
        monkeypatch.setattr(_accel, "BLOCK_BYTES", budget)
        results.append(STREAMED_CASES[case](**options))
    assert results[0].extras["cells"] > 7
    ref = results[-1]
    for res in results[:-1]:
        scale = max(1.0, abs(ref.value))
        assert abs(res.value - ref.value) <= 1e-12 * scale
        assert abs(res.err_est - ref.err_est) <= 1e-12 * scale
        assert np.all(np.abs(res.per_delta - ref.per_delta) <= 1e-12 * scale)
        assert res.extras == ref.extras


def test_regularity_check_reads_whole_rule_values(monkeypatch):
    # |du| is gathered block by block and the check runs before the pairing
    # consumes anything, so it sees the values a whole-rule evaluation
    # gives, bit for bit
    seen = []
    check = currents._boundary_regularity_check
    monkeypatch.setattr(_accel, "BLOCK_BYTES", 7 * 16 * 4 ** 3)  # 7 cells a block
    monkeypatch.setattr(currents, "_boundary_regularity_check", lambda u, g: (
        seen.append((u.copy(), g.copy())) or check(u, g)))
    u = catalog_function("z1-half")
    divisor_pairing_boundary(u, VOL_Z2, ball_level=6, base_cells=6, nodes_per_axis=4,
                             refine_depth=4)
    rule, uvals, _ = _adaptive_rule(u, DEFAULT_DELTAS, 6, 4, 4)
    [(u_seen, grad_norm)] = seen
    assert np.array_equal(u_seen, uvals)
    assert np.array_equal(grad_norm,
                          np.linalg.norm(holo_gradient_values(u, rule.points), axis=-1))


def test_adaptive_rule_peak_memory(traced_peak):
    # each pass summarizes only its new cells, so the peak is the values
    # kept across a pass and the new cells' nodes, not whole-rule |f / s|,
    # node weights and mean-square temporaries (4.2 x fvals at 75.5 MB)
    out = []
    peak = traced_peak(lambda: out.append(_adaptive_rule(catalog_function("z1"), DEFAULT_DELTAS,
                                                         6, 4, 10)))
    rule, fvals, _ = out[0]
    assert rule.ncells == 17604
    assert peak <= 3 * fvals.nbytes


def test_streamed_pairings_peak_memory(traced_peak):
    # the refined rule with f on it (54 MB and 76 MB under tracemalloc)
    # sets these floors; a pairing that builds its node arrays on the whole
    # rule at once peaks at 228 MB and 321 MB.  lp-closed's pairing makes
    # no log pass (75.5 MB measured); lp-boundary's default pairing peaked
    # at 90.6 MB with |f / s|^2 on the whole rule, and at 78.1 MB with |f|^2
    # made in blocks of cells.  With the refinement reading per-cell
    # statistics the three read 45.9, 55.0 and 69.2 MB
    depth10 = traced_peak(lambda: divisor_pairing_boundary(
        catalog_function("z1-half"), VOL_Z2, deltas=(1e-2, 1e-3, 1e-4), refine_depth=10,
        ball_level=6))
    assert depth10 <= 100e6
    lp_closed = traced_peak(lambda: divisor_pairing_closed(
        catalog_function("z1"), ANGULAR_Z2, deltas=DEFAULT_DELTAS, base_cells=6,
        nodes_per_axis=4, refine_depth=10))
    assert lp_closed <= 80e6
    lp_boundary = traced_peak(lambda: divisor_pairing_boundary(
        catalog_function("z1-half"), VOL_Z2, deltas=DEFAULT_DELTAS, base_cells=6,
        nodes_per_axis=4, refine_depth=10, ball_level=12, ball_radial=28))
    assert lp_boundary <= 84e6
