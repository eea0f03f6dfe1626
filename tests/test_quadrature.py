import math

import numpy as np
import pytest

from spherelab import forms
from spherelab.quadrature import (BallRule, CircleRule, DiscRule,
                                  SphereCellRule, SphereRule,
                                  contact_one_form, contact_volume_form,
                                  gauss_legendre_01)

AREA_S3 = 2.0 * math.pi ** 2


def monomial_integral(alpha, beta):
    """Closed form for the round integral of z^alpha conj(z)^beta on S^3."""
    if alpha != beta:
        return 0.0
    a1, a2 = alpha
    return 2.0 * math.pi ** 2 * math.factorial(a1) * math.factorial(a2) / math.factorial(a1 + a2 + 1)


def test_total_masses(rule16):
    assert rule16.integrate(np.ones(rule16.npoints)) == pytest.approx(AREA_S3, abs=1e-12)
    # the contact volume is the round measure times the evaluated density
    assert rule16.integrate(rule16.density) == pytest.approx(AREA_S3, abs=1e-12)
    assert np.max(np.abs(rule16.density - 1.0)) <= 1e-12


def test_weights_positive_and_level_guard(rule16):
    assert np.all(rule16.weights > 0.0)
    with pytest.raises(ValueError):
        SphereRule(3)
    with pytest.raises(ValueError):
        BallRule(1)


def test_monomial_oracles(rule16):
    z = rule16.points
    assert rule16.integrate(np.abs(z[:, 0]) ** 2) == pytest.approx(math.pi ** 2, abs=1e-10)
    val = rule16.integrate(np.abs(z[:, 0]) ** 2 * np.abs(z[:, 1]) ** 4)
    assert val == pytest.approx(monomial_integral((1, 2), (1, 2)), abs=1e-12)


def test_convergence_doubling():
    target = monomial_integral((1, 2), (1, 2))
    errs = []
    for level in (4, 8, 16):
        r = SphereRule(level)
        z = r.points
        errs.append(abs(r.integrate(np.abs(z[:, 0]) ** 2 * np.abs(z[:, 1]) ** 4) - target))
    for a, b in zip(errs, errs[1:]):
        assert b <= a / 100.0 or b <= 1e-12


def test_unitary_invariance(rule16, rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(g)
    z = rule16.points
    zu = z @ q.T

    def poly(w):
        return (np.abs(w[:, 0]) ** 4 + 2.0 * (w[:, 0] * np.conj(w[:, 1])).real
                + np.abs(w[:, 1]) ** 2).real

    assert rule16.integrate(poly(z)) == pytest.approx(rule16.integrate(poly(zu)), abs=1e-10)


def test_oriented_volume_pairing(rule16):
    vol = contact_volume_form()
    assert rule16.pair_form(vol).real == pytest.approx(AREA_S3, abs=1e-10)
    # cross-quadrature: contact mass equals the oriented pairing
    assert rule16.integrate(rule16.density) == pytest.approx(
        rule16.pair_form(vol).real, abs=1e-10)


def test_boundary_stokes_orientation(rule16):
    # int_S3 iota*(x1 dx2^dx3^dx4) must equal vol(B^4) with the same
    # orientation used by all pairings (contact volume positive).
    psi = forms.x_coord(0) * forms.dx(1) * forms.dx(2) * forms.dx(3)
    ball = BallRule(8)
    assert rule16.pair_form(psi).real == pytest.approx(
        ball.integrate(np.ones(ball.npoints)), abs=1e-10)


def test_ball_rule():
    ball = BallRule(8)
    assert ball.integrate(np.ones(ball.npoints)) == pytest.approx(math.pi ** 2 / 2.0, abs=1e-10)
    # int_D |z1|^2 = pi^2 / 6 (radial moment of the sphere value)
    val = ball.integrate(np.abs(ball.points[:, 0]) ** 2)
    assert val == pytest.approx(math.pi ** 2 / 6.0, abs=1e-10)


# the default line {z_1 = 0}, the shifted {z_1 = 1/2} and a tilted line,
# as (a, c) of {<z, a> = c}
AXIS_LINE = ((1.0, 0.0), 0.0)
SHIFTED_LINE = ((1.0, 0.0), 0.5)
TILTED_LINE = ((0.6, 0.8j), 0.3 - 0.2j)


@pytest.mark.parametrize("line", [AXIS_LINE, TILTED_LINE], ids=["axis", "tilted"])
def test_circle_rule(line):
    c = CircleRule(8) if line == AXIS_LINE else CircleRule(8, *line)
    r_sq = 1.0 - abs(line[1]) ** 2
    assert c.integrate(np.ones(c.npoints)) == pytest.approx(2.0 * math.pi * math.sqrt(r_sq),
                                                            abs=1e-12)
    # on the sphere the contact form restricts to r^2 dtheta
    assert c.pair_form(contact_one_form()).real == pytest.approx(2.0 * math.pi * r_sq, abs=1e-12)
    if line == AXIS_LINE:
        psi = forms.x_coord(2) * forms.dx(3) - forms.x_coord(3) * forms.dx(2)
        assert c.pair_form(psi).real == pytest.approx(2.0 * math.pi, abs=1e-12)


@pytest.mark.parametrize("line", [SHIFTED_LINE, TILTED_LINE], ids=["shifted", "tilted"])
def test_disc_rule(line):
    d = DiscRule(8, c=0.5) if line == SHIFTED_LINE else DiscRule(8, *line)
    r_sq = 1.0 - abs(line[1]) ** 2
    area = math.pi * r_sq
    assert d.integrate(np.ones(d.npoints)) == pytest.approx(area, abs=1e-10)
    # the Kaehler form restricts to the area form of every complex line
    kaehler = (forms.dz(0) * forms.dzbar(0) + forms.dz(1) * forms.dzbar(1)) * 0.5j
    assert d.pair_form(kaehler).real == pytest.approx(area, abs=1e-10)
    if line == SHIFTED_LINE:
        w = forms.dz(1) * forms.dzbar(1) * 0.5j
        assert d.pair_form(w).real == pytest.approx(area, abs=1e-10)
    # Stokes on the disc: circle xi = disc d xi = 2 pi (1 - |c|^2)
    xi = contact_one_form()
    circle = CircleRule(8, *line).pair_form(xi)
    assert circle == pytest.approx(2.0 * math.pi * r_sq, abs=1e-12)
    assert d.pair_form(xi.d()) == pytest.approx(circle, abs=1e-12)


@pytest.mark.parametrize("a, c", [((1.0, 0.0), 1.0), ((1.0, 0.0), -2.0), ((0.6, 0.6), 0.0),
                                  ((1.0, 0.0, 0.0), 0.0)],
                         ids=["on-sphere", "outside", "not-unit", "not-in-c2"])
def test_line_rules_reject_bad_lines(a, c):
    for rule in (CircleRule, DiscRule):
        with pytest.raises(ValueError):
            rule(8, a, c)


def test_cell_rule_matches_product_rule(rule16):
    # the cell rule pairs a 3-form through its symbolic density, the
    # product rule on the Hopf frame
    cells = SphereCellRule(base_cells=6, nodes_per_axis=4)
    assert cells.integrate(np.ones(cells.npoints)) == pytest.approx(AREA_S3, abs=1e-9)
    psi = contact_one_form().wedge((forms.dz(1) * forms.dzbar(1) * 0.5j))
    a = np.sum(cells.axis_values(forms.normal_top(psi), pairing=True))
    b = rule16.pair_form(psi)
    assert a == pytest.approx(b, abs=1e-9)
    assert np.sum(rule16.axis_values(forms.normal_top(psi), pairing=True)) == pytest.approx(
        b, abs=1e-12)


def _random_laurent(rng, nterms=10, max_exp=4):
    """A random complex polynomial 0-form times z_1^-1 z_2^-1."""
    terms = {((), tuple(int(e) for e in rng.integers(0, max_exp, 4))):
             complex(*rng.standard_normal(2)) for _ in range(nterms)}
    return forms.PolyForm(terms) * forms.PolyForm.monomial(1.0, (-1, 0, -1, 0))


def _refined_cells(rng):
    cells = SphereCellRule(base_cells=4, nodes_per_axis=4)
    cells.refine(rng.random(cells.ncells) < 0.2)
    return cells


@pytest.mark.parametrize("rule_name", ["sphere-12", "cells"])
def test_axis_values_match_node_evaluation(rng, rule_name):
    # sum factorization over the axis factors against the coefficient
    # polynomial evaluated at the node points, Laurent shifts included
    rule = SphereRule(12) if rule_name == "sphere-12" else _refined_cells(rng)
    # the pairing weights divide by [d rho ^ (1/2) xi ^ d xi]_top = -rho / 2
    rho = forms.z_coord(0) * forms.zbar_coord(0) + forms.z_coord(1) * forms.zbar_coord(1)
    assert forms.normal_top(contact_volume_form()).terms == (rho * -0.5).terms
    for _ in range(5):
        form = _random_laurent(rng)
        assert any(min(exps) < 0 for _, exps in form.terms)
        ref = form._coefficient(rule.points, ())
        assert np.max(np.abs(rule.axis_values(form) - ref)) <= 1e-14 * np.max(np.abs(ref))
        paired = rule.axis_values(form, pairing=True)
        assert np.max(np.abs(paired + 2.0 * rule.weights * ref)) <= (
            1e-14 * np.max(np.abs(rule.weights * ref)))
    assert not rule.axis_values(forms.PolyForm()).any()
    assert rule.axis_values(forms.PolyForm()).shape == (rule.npoints,)


def test_cell_rule_refinement_preserves_mass():
    cells = SphereCellRule(base_cells=4, nodes_per_axis=4)
    before = cells.integrate(np.ones(cells.npoints))
    mask = np.zeros(cells.ncells, dtype=bool)
    mask[:10] = True
    added = cells.refine(mask)
    assert added == 80
    after = cells.integrate(np.ones(cells.npoints))
    assert after == pytest.approx(before, abs=1e-10)


# Per-node reference builds of the two sphere rules: every node gets its
# own phi, theta1, theta2 and trigonometry, and the Hopf frame is a dense
# (nodes, 2) array per direction, zero components included.
def _hopf_frame(phi, theta1, theta2):
    """Coordinate frame (d/dphi, d/dtheta1, d/dtheta2) in complex packing."""
    e1 = np.exp(1j * theta1)
    e2 = np.exp(1j * theta2)
    zero = np.zeros_like(e1)
    dphi = np.stack([-np.sin(phi) * e1, np.cos(phi) * e2], axis=-1)
    dth1 = np.stack([1j * np.cos(phi) * e1, zero], axis=-1)
    dth2 = np.stack([zero, 1j * np.sin(phi) * e2], axis=-1)
    return [dphi, dth1, dth2]


def _cell_nodes(boxes, m):
    """Node arrays of cells with m nodes per axis, in cell order."""
    x, w = gauss_legendre_01(m)
    C = boxes.shape[0]
    t0, t1, a0, a1, b0, b1 = boxes.T
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
    return {"points": hopf_embed(phi, theta1, theta2), "weights": 0.5 * wts}


def hopf_embed(phi, theta1, theta2):
    """Chart (phi, theta1, theta2) -> (cos(phi) e^{i theta1}, sin(phi) e^{i theta2})."""
    z1 = np.cos(phi) * np.exp(1j * np.asarray(theta1))
    z2 = np.sin(phi) * np.exp(1j * np.asarray(theta2))
    return np.stack([z1, z2], axis=-1)


def _sphere_nodes(level):
    """Node arrays of SphereRule(level) from per-node meshgrids."""
    t, wt = gauss_legendre_01(level)
    nang = 2 * level
    ang = 2.0 * math.pi * np.arange(nang) / nang
    wang = 2.0 * math.pi / nang
    P, T1, T2 = np.meshgrid(np.arccos(np.sqrt(t)), ang, ang, indexing="ij")
    phi, theta1, theta2 = P.ravel(), T1.ravel(), T2.ravel()
    weights = np.broadcast_to((0.5 * wt)[:, None, None] * wang * wang, P.shape).ravel()
    points = hopf_embed(phi, theta1, theta2)
    frame = _hopf_frame(phi, theta1, theta2)
    coeff = contact_volume_form().evaluate(points, frame).real
    density = np.abs(coeff) / (np.sin(phi) * np.cos(phi))
    return {
        "points": points,
        "weights": weights,
        "pairing_weights": weights * density / coeff,
        "frame": frame,
    }


def _assert_nodes_equal(rule, ref):
    """Node arrays bit for bit; the product rule's reference also holds its
    pairing weights and Hopf frame, which the cell rule does not build."""
    frame = ref.pop("frame", None)
    for name, value in ref.items():
        assert np.array_equal(getattr(rule, name), value), name
    if frame is None:
        return
    for u, f in zip(rule.frame_directions(), frame, strict=True):
        for j in range(2):
            if u[j] is None:
                assert not f[:, j].any()
            else:
                assert np.array_equal(u[j], f[:, j])


def test_cell_rule_incremental_refine_matches_fresh_build(rng):
    # (8, 4) gives node arrays above numpy's 256 KiB threshold for reusing
    # temporaries, where the rounding of complex products can change
    for base_cells, m in ((3, 3), (8, 4)):
        cells = SphereCellRule(base_cells=base_cells, nodes_per_axis=m)
        _assert_nodes_equal(cells, _cell_nodes(cells.boxes, m))
        for frac in (0.3, 0.05, 0.5, 0.1):
            mask = rng.random(cells.ncells) < frac
            mask[rng.integers(cells.ncells)] = True
            assert cells.refine(mask) == 8 * mask.sum()
            assert cells.npoints == cells.points.shape[0] == m ** 3 * cells.ncells
        assert cells.refine(np.zeros(cells.ncells, dtype=bool)) == 0
        _assert_nodes_equal(cells, _cell_nodes(cells.boxes, m))
        first_new = cells.ncells - 8 * mask.sum()
        assert np.array_equal(cells.cell_points(first_new), cells.points[m ** 3 * first_new:])


@pytest.mark.parametrize("level", [8, 12, 20])
def test_sphere_rule_nodes_match_per_node_build(level):
    _assert_nodes_equal(SphereRule(level), _sphere_nodes(level))


def test_degree_bound_recorded(rule16):
    assert rule16.degree_bound == 31


@pytest.mark.parametrize("ncells", [7, 1024, 1 << 20])
def test_cell_rule_blocks_reproduce_node_arrays(rng, monkeypatch, ncells):
    # a refined rule past numpy's temporary-reuse threshold, walked in
    # blocks of 7 cells, of the catalog pairings' size, and in one block
    cells = SphereCellRule(base_cells=8, nodes_per_axis=4)
    for frac in (0.2, 0.05):
        cells.refine(rng.random(cells.ncells) < frac)
    form = _random_laurent(rng)
    axis = {pairing: cells.axis_values(form, pairing=pairing) for pairing in (False, True)}
    # a view is no rule build: the benchmark tracer counts builds in __init__
    monkeypatch.setattr(SphereCellRule, "__init__", None)
    blocks = list(cells.blocks(ncells))
    assert len(blocks) == -(-cells.ncells // ncells)
    assert [nodes.start for nodes, _ in blocks] == [
        block * ncells * 64 for block in range(len(blocks))]
    assert blocks[-1][0].stop == cells.npoints
    for name in ("points", "weights"):
        whole = getattr(cells, name)
        assert np.array_equal(np.concatenate([getattr(view, name) for _, view in blocks]),
                              whole), name
    for pairing, whole in axis.items():
        assert np.array_equal(np.concatenate([view.axis_values(form, pairing=pairing)
                                              for _, view in blocks]), whole), pairing
