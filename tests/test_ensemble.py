import dataclasses
import functools
import math
import types

import numpy as np
import pytest
from scipy import stats

from spherelab.basis import DegreeTable
from spherelab.cutoffs import Cutoff
from spherelab.ensemble import GridEvaluator, NodeEvaluator, RandomEnsemble
from spherelab.geometry import random_sphere_points, tangent_frame
from spherelab.quadrature import BallRule, SphereRule


@pytest.fixture(scope="module")
def ens32(table, bump):
    return RandomEnsemble(table, bump, 32, kappa=0, master_seed=99)


def test_dimension_and_weights(ens32, bump):
    degs = np.array([sum(a) for a in ens32.alphas])
    assert ens32.dim == len(ens32.alphas)
    assert np.all(degs > 32 * bump.delta1) and np.all(degs < 32 * bump.delta2)
    ws = np.array(ens32.component_weights)
    assert np.allclose(ws, bump.chi(degs / 32.0))


def test_gaussian_moments(ens32):
    n = 100_000
    a = np.concatenate([ens32.draw(t).coefficients[:3] for t in range(n // 3 + 1)])[:n]
    assert abs(a.mean()) <= 4.0 / math.sqrt(n)
    assert abs(np.mean(np.abs(a) ** 2) - 1.0) <= 4.0 * math.sqrt(2.0 / n)


def test_counter_based_determinism(ens32, table, bump):
    a = ens32.draw(7).coefficients
    b = RandomEnsemble(table, bump, 32, kappa=0, master_seed=99).draw(7).coefficients
    assert np.array_equal(a, b)
    assert not np.array_equal(a, ens32.draw(8).coefficients)


def test_worker_count_independence(ens32):
    whole = ens32.draw_matrix(range(0, 64))
    parts = np.vstack([ens32.draw_matrix(range(0, 20)),
                       ens32.draw_matrix(range(20, 64))])
    assert np.array_equal(whole, parts)


def test_covariance_identity(ens32, rng):
    pts = random_sphere_points(2, rng=rng)
    ev = ens32.evaluator(pts)
    a = ens32.draw_matrix(range(10_000))
    vals = ev.values(a)
    prod = vals[:, 0] * np.conj(vals[:, 1])
    emp = prod.mean()
    ker = ens32.field.kernel(pts[0], pts[1])
    se = np.std(prod) / math.sqrt(len(prod))
    assert abs(emp - ker) <= 4.0 * se
    # diagonal: E |f|^2 = kernel diagonal
    diag = np.abs(vals[:, 0]) ** 2
    assert abs(diag.mean() - ens32.field.diag()) <= 4.0 * diag.std() / math.sqrt(len(diag))


def test_kappa_adds_constant(table, bump, rng):
    ens = RandomEnsemble(table, bump, 32, kappa=1, master_seed=5)
    assert ens.dim == len(ens.alphas) + 1
    pts = random_sphere_points(3, rng=rng)
    a = np.zeros((1, ens.dim), dtype=complex)
    a[0, 0] = 2.5
    vals = ens.evaluator(pts).values(a)
    assert np.allclose(vals, 2.5)


def test_unit_draw_reproduces_component(ens32, rng):
    pts = random_sphere_points(5, rng=rng)
    j = 4
    a = np.zeros((1, ens32.dim), dtype=complex)
    a[0, j] = 1.0
    vals = ens32.evaluator(pts).values(a)[0]
    el = ens32.table.element(ens32.alphas[j])
    expect = ens32.component_weights[j] * el.evaluate(pts)
    assert np.allclose(vals, expect, rtol=1e-12)


def test_derivative_matches_finite_difference(ens32, rng):
    x = random_sphere_points(1, rng=rng)[0]
    u = tangent_frame(x)[1]
    a = ens32.draw_matrix(range(1))
    h = 1e-6
    ev_p = ens32.evaluator(((x + h * u) / np.linalg.norm(x + h * u))[None, :])
    ev_m = ens32.evaluator(((x - h * u) / np.linalg.norm(x - h * u))[None, :])
    fd = (ev_p.values(a)[0, 0] - ev_m.values(a)[0, 0]) / (2 * h)
    ev = ens32.evaluator(x[None, :])
    x1, x2 = ev.slot1_sums(a)
    exact = ev.directional_derivative(x1, x2, u[None, :])[0, 0]
    assert fd == pytest.approx(exact, rel=1e-6)


def test_circle_action_distribution(ens32, rng):
    # |f(e^{i theta} x)| is distributed like |f(x)| for the Gaussian ensemble
    x = random_sphere_points(1, rng=rng)[0]
    pts = np.vstack([x, np.exp(0.9j) * x])
    vals = ens32.evaluator(pts).values(ens32.draw_matrix(range(4000)))
    stat = stats.ks_2samp(np.abs(vals[:, 0]), np.abs(vals[:, 1]))
    assert stat.pvalue > 1e-3


def test_regularity_filter_examples(table, bump):
    # an ensemble whose band contains degree 1 admits the linear monomial
    ens = RandomEnsemble(table, bump, 2, kappa=0, master_seed=1)
    degs = [sum(a) for a in ens.alphas]
    assert 1 in degs
    j = degs.index(1)
    a = np.zeros(ens.dim, dtype=complex)
    a[j] = 1.0
    draw = dataclasses.replace(ens.draw(0), coefficients=a)
    res = ens.regularity_filter(draw)
    assert res["accept"] and res["margin"] > 0.0
    zero = dataclasses.replace(ens.draw(0), coefficients=np.zeros(ens.dim, dtype=complex))
    assert not ens.regularity_filter(zero)["accept"]


def test_rejection_rate_low(ens32):
    margins = ens32.batch_margins(ens32.draw_matrix(range(3000)))
    rate = float(np.mean(margins < 1e-6))
    assert rate < 0.01


def test_kappa_validation(table, bump):
    with pytest.raises(ValueError):
        RandomEnsemble(table, bump, 32, kappa=3)


def test_draw_dump(ens32, tmp_path):
    path = tmp_path / "draws.csv"
    ens32.dump_draws_csv(path, range(3))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial,component,re,im"
    assert len(lines) - 1 == 3 * ens32.dim


# The product rules the experiments build: the margin rule, the sphere
# levels of the Monte Carlo runs and their controls, and the ball rules.
GRID_RULES = {
    "sphere-8": lambda: SphereRule(8),
    "sphere-12": lambda: SphereRule(12),
    "sphere-20": lambda: SphereRule(20),
    "sphere-28": lambda: SphereRule(28),
    "ball-6x16": lambda: BallRule(6, radial=16),
    "ball-12x28": lambda: BallRule(12, radial=28),
}


@functools.cache
def _grid_rule(name):
    return GRID_RULES[name]()


def _max_rel(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("name", sorted(GRID_RULES))
def test_torus_grid_reproduces_rule_points(name):
    rule = _grid_rule(name)
    moduli, nang = rule.torus_grid()
    chars = np.exp(1j * (2.0 * math.pi * np.arange(nang) / nang))
    z1 = moduli[:, 0, None, None] * chars[None, :, None] * np.ones(nang)
    z2 = moduli[:, 1, None, None] * np.ones(nang)[:, None] * chars[None, None, :]
    grid = np.stack([z1.ravel(), z2.ravel()], axis=1)
    assert grid.shape == rule.points.shape
    assert np.max(np.abs(grid - rule.points)) <= 1e-15


@pytest.mark.parametrize("kappa", [0, 1])
@pytest.mark.parametrize("k", [16, 24, 64])
@pytest.mark.parametrize("name", sorted(GRID_RULES))
def test_grid_evaluator_matches_dense(table, bump, name, k, kappa):
    # k = 16 keeps every degree below the angle count of the small rules;
    # k = 24 and 64 fold degrees >= nang onto the same FFT bins
    rule = _grid_rule(name)
    ens = RandomEnsemble(table, bump, k, kappa=kappa, master_seed=11)
    ev = ens.evaluator(rule)
    assert isinstance(ev, GridEvaluator)
    rng = np.random.default_rng(k + kappa)
    nodes = np.sort(rng.choice(rule.npoints, min(rule.npoints, 4096), replace=False))
    dense = NodeEvaluator(ens, rule.points[nodes])
    a = ens.draw_matrix(range(4))
    assert _max_rel(ev.values(a)[:, nodes], dense.values(a)) <= 1e-12
    for grid_sum, dense_sum in zip(ev.slot1_sums(a), dense.slot1_sums(a)):
        assert _max_rel(grid_sum[:, nodes], dense_sum) <= 1e-12


def test_grid_rows_independent_of_batch(table, bump):
    ens = RandomEnsemble(table, bump, 64, kappa=1, master_seed=11)
    ev = ens.evaluator(_grid_rule("sphere-12"))
    a = ens.draw_matrix(range(256))
    full = [ev.values(a), *ev.slot1_sums(a)]
    batched = [np.concatenate(parts) for parts in zip(
        *([ev.values(a[i:i + 32]), *ev.slot1_sums(a[i:i + 32])] for i in range(0, 256, 32)))]
    for r in (0, 37, 255):
        alone = [ev.values(a[r]), *ev.slot1_sums(a[r])]
        for x, y, z in zip(alone, batched, full):
            assert np.array_equal(x[0], y[r]) and np.array_equal(x[0], z[r])


@pytest.mark.parametrize("kappa", [0, 1])
def test_batch_margins_grid_matches_dense(table, bump, kappa):
    ens = RandomEnsemble(table, bump, 24, kappa=kappa, master_seed=5)
    rows = ens.draw_matrix(range(256))
    grid = ens.batch_margins(rows)
    # a rule without torus_grid gets the dense evaluator at the same nodes
    dense = ens.batch_margins(rows, rule=types.SimpleNamespace(points=SphereRule(8).points))
    assert np.allclose(grid, dense, rtol=1e-10, atol=0.0)
    for threshold in (1e-6, float(np.median(dense))):
        assert np.array_equal(grid >= threshold, dense >= threshold)
