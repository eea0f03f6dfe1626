import functools
import math

import numpy as np
import pytest
import scipy.fft
from scipy import stats

from spherelab import _accel
from spherelab.basis import DegreeTable
from spherelab.cutoffs import Cutoff
from spherelab.embedding import EmbeddingMap
from spherelab.ensemble import GridEvaluator, NodeEvaluator, RandomEnsemble
from spherelab.experiments import ExperimentConfig
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
    a = np.concatenate([ens32.draw(t)[:3] for t in range(n // 3 + 1)])[:n]
    assert abs(a.mean()) <= 4.0 / math.sqrt(n)
    assert abs(np.mean(np.abs(a) ** 2) - 1.0) <= 4.0 * math.sqrt(2.0 / n)


def test_counter_based_determinism(ens32, table, bump):
    a = ens32.draw(7)
    b = RandomEnsemble(table, bump, 32, kappa=0, master_seed=99).draw(7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, ens32.draw(8))


def test_worker_count_independence(ens32):
    whole = ens32.draw_matrix(range(0, 64))
    parts = np.vstack([ens32.draw_matrix(range(0, 20)),
                       ens32.draw_matrix(range(20, 64))])
    assert np.array_equal(whole, parts)


def test_covariance_identity(ens32, rng):
    pts = random_sphere_points(2, rng=rng)
    ev = NodeEvaluator(ens32, pts)
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
    # the constant is component 0 of the field's list, of degree (0, 0),
    # and its normalized column is exactly kappa: the dense and grid
    # evaluators, the Parseval form and the embedding read it as any other
    ens = RandomEnsemble(table, bump, 32, kappa=1, master_seed=5)
    assert ens.alphas[0] == (0, 0) and ens.dim == len(ens.alphas)
    rule = SphereRule(8)
    column = table.design_matrix(ens.alphas, rule.points, extra_scale=ens.component_weights)[:, 0]
    assert np.array_equal(column, np.ones(rule.npoints))
    pts = random_sphere_points(3, rng=rng)
    a = np.zeros((1, ens.dim), dtype=complex)
    a[0, 0] = 2.5
    grid = GridEvaluator(ens, rule)
    for ev in (NodeEvaluator(ens, pts), grid):
        assert np.array_equal(ev.values(a), np.full((1, len(ev.points)), 2.5))
        assert all(np.array_equal(x, np.zeros((1, len(ev.points)))) for x in ev.slot1_sums(a))
    assert abs(grid.mean_square(a)[0] - 6.25) <= 1e-15
    assert np.array_equal(EmbeddingMap(table, bump, 32, kappa=1).components(pts)[:, 0], np.ones(3))


def test_unit_draw_reproduces_component(ens32, rng):
    pts = random_sphere_points(5, rng=rng)
    j = 4
    a = np.zeros((1, ens32.dim), dtype=complex)
    a[0, j] = 1.0
    vals = NodeEvaluator(ens32, pts).values(a)[0]
    el = ens32.table.element(ens32.alphas[j])
    expect = ens32.component_weights[j] * el.evaluate(pts)
    assert np.allclose(vals, expect, rtol=1e-12)


def test_derivative_matches_finite_difference(ens32, rng):
    x = random_sphere_points(1, rng=rng)[0]
    u = tangent_frame(x)[1]
    a = ens32.draw_matrix(range(1))
    h = 1e-6
    ev_p = NodeEvaluator(ens32, ((x + h * u) / np.linalg.norm(x + h * u))[None, :])
    ev_m = NodeEvaluator(ens32, ((x - h * u) / np.linalg.norm(x - h * u))[None, :])
    fd = (ev_p.values(a)[0, 0] - ev_m.values(a)[0, 0]) / (2 * h)
    ev = NodeEvaluator(ens32, x[None, :])
    x1, x2 = ev.slot1_sums(a)
    exact = ev.directional_derivative(x1, x2, u[None, :])[0, 0]
    assert fd == pytest.approx(exact, rel=1e-6)


def test_circle_action_distribution(ens32, rng):
    # |f(e^{i theta} x)| is distributed like |f(x)| for the Gaussian ensemble
    x = random_sphere_points(1, rng=rng)[0]
    pts = np.vstack([x, np.exp(0.9j) * x])
    vals = NodeEvaluator(ens32, pts).values(ens32.draw_matrix(range(4000)))
    stat = stats.ks_2samp(np.abs(vals[:, 0]), np.abs(vals[:, 1]))
    assert stat.pvalue > 1e-3


def test_regularity_filter_examples(table, bump):
    # an ensemble whose band contains degree 1 admits the linear monomial
    ens = RandomEnsemble(table, bump, 2, kappa=0, master_seed=1)
    degs = [sum(a) for a in ens.alphas]
    assert 1 in degs
    j = degs.index(1)
    rows = np.zeros((2, ens.dim), dtype=complex)
    rows[0, j] = 1.0
    # the experiments' screen accepts a margin at or above filter_threshold
    linear, zero = ens.batch_margins(rows)
    assert linear == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert zero == 0.0
    threshold = ExperimentConfig.filter_threshold
    assert linear >= threshold > zero


def test_rejection_rate_low(ens32):
    margins = ens32.batch_margins(ens32.draw_matrix(range(3000)))
    rate = float(np.mean(margins < 1e-6))
    assert rate < 0.01


def test_kappa_validation(table, bump):
    with pytest.raises(ValueError):
        RandomEnsemble(table, bump, 32, kappa=3)


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
    # k = 24 and 64 fold degrees >= nang onto the characters of their residues
    rule = _grid_rule(name)
    ens = RandomEnsemble(table, bump, k, kappa=kappa, master_seed=11)
    ev = GridEvaluator(ens, rule)
    rng = np.random.default_rng(k + kappa)
    nodes = np.sort(rng.choice(rule.npoints, min(rule.npoints, 4096), replace=False))
    dense = NodeEvaluator(ens, rule.points[nodes])
    a = ens.draw_matrix(range(4))
    assert _max_rel(ev.values(a)[:, nodes], dense.values(a)) <= 1e-12
    for grid_sum, dense_sum in zip(ev.slot1_sums(a), dense.slot1_sums(a)):
        assert _max_rel(grid_sum[:, nodes], dense_sum) <= 1e-12


def test_grid_rows_independent_of_batch(table, bump):
    ens = RandomEnsemble(table, bump, 64, kappa=1, master_seed=11)
    ev = GridEvaluator(ens, _grid_rule("sphere-12"))
    a = ens.draw_matrix(range(256))
    full = [ev.values(a), *ev.slot1_sums(a)]
    batched = [np.concatenate(parts) for parts in zip(
        *([ev.values(a[i:i + 32]), *ev.slot1_sums(a[i:i + 32])] for i in range(0, 256, 32)))]
    for r in (0, 37, 255):
        alone = [ev.values(a[r]), *ev.slot1_sums(a[r])]
        for x, y, z in zip(alone, batched, full):
            assert np.array_equal(x[0], y[r]) and np.array_equal(x[0], z[r])


@pytest.mark.parametrize("name", ["sphere-12", "ball-6x16"])
def test_grid_rows_independent_of_batch_size(table, bump, name):
    # k = 64 folds degrees on both rules; odd and small batches are padded
    # to the row multiple the BLAS kernels block by
    ens = RandomEnsemble(table, bump, 64, kappa=1, master_seed=11)
    ev = GridEvaluator(ens, _grid_rule(name))
    a = ens.draw_matrix(range(40))
    full = [ev.values(a), *ev.slot1_sums(a)]
    for start, size in [(0, 1), (5, 1), (0, 2), (1, 3), (3, 5), (2, 6), (1, 7), (0, 9), (7, 33)]:
        part = a[start:start + size]
        for x, y in zip([ev.values(part), *ev.slot1_sums(part)], full):
            assert np.array_equal(x, y[start:start + size])


def _fft_synthesis(ens, rule, coeffs):
    """Monomial sums at a product rule's nodes from folded 2-D spectra and
    an inverse FFT per modulus pair, built independently of the evaluator."""
    moduli, nang = rule.torus_grid()
    factors = ens.table.design_matrix(ens.alphas, moduli, extra_scale=ens.component_weights)
    alphas = np.asarray(ens.alphas)
    spectra = np.zeros((coeffs.shape[0], len(moduli), nang, nang), dtype=complex)
    for j, (a1, a2) in enumerate(alphas):
        spectra[:, :, a1 % nang, a2 % nang] += coeffs[:, j, None] * factors[None, :, j]
    return scipy.fft.ifft2(spectra, axes=(2, 3), norm="forward").reshape(coeffs.shape[0], -1)


@pytest.mark.parametrize("kappa", [0, 1])
def test_synthesis_matches_fft_reference(table, bump, kappa):
    ens = RandomEnsemble(table, bump, 64, kappa=kappa, master_seed=11)
    rule = _grid_rule("sphere-12")
    ev = GridEvaluator(ens, rule)
    a = ens.draw_matrix(range(32))
    ref_vals = _fft_synthesis(ens, rule, a)
    ref_slots = _fft_synthesis(ens, rule, np.concatenate([a * ev._deg1, a * ev._deg2]))
    # each call returns a fresh array: a second call leaves the first intact
    for compute, refs in ((lambda: [ev.values(a)], [ref_vals]),
                          (lambda: ev.slot1_sums(a), [ref_slots[:32], ref_slots[32:]])):
        first = compute()
        copies = [x.copy() for x in first]
        again = compute()
        for x, x0, y, ref in zip(first, copies, again, refs):
            assert not np.shares_memory(x, y)
            assert np.array_equal(x, x0) and np.array_equal(x, y)
            assert _max_rel(x, ref) <= 1e-13


def _batch_margins_allocating(ens, rows, ev):
    """batch_margins and gradient_magnitude on the evaluator ev as they
    computed before they worked in place, expression for expression."""
    vals = ev.values(rows)
    rms = np.sqrt(np.mean(np.abs(vals) ** 2, axis=1))
    x1, x2 = ev.slot1_sums(rows)
    g1 = x1 / ev._z1[None, :]
    g2 = x2 / ev._z2[None, :]
    dfabs = np.sqrt(np.abs(g1) ** 2 + np.abs(g2) ** 2)
    assert np.array_equal(ev.gradient_magnitude(x1, x2), dfabs)
    near = np.abs(vals) <= 0.3 * rms[:, None]
    masked = np.where(near, dfabs, np.inf)
    margins = masked.min(axis=1) / (ens.k * np.maximum(rms, 1e-300))
    margins[rms == 0.0] = 0.0
    return margins


@pytest.mark.parametrize("nrows, budget", [
    pytest.param(nrows, budget, id=f"{nrows}{suffix}")
    for budget, suffix in ((_accel.BLOCK_BYTES, ""), (1, "-one-modulus"), (1 << 40, "-one-block"))
    for nrows in (1, 32, 256, 257, 600)])
def test_batch_margins_match_allocating_formulas(table, bump, nrows, budget, monkeypatch):
    # 257 and 600 rows are screened in several blocks, the last of one row
    # (joined to the block before it) and of 88 rows; the screen walks the
    # rule at the default budget, one modulus a block, and in one block
    monkeypatch.setattr(_accel, "BLOCK_BYTES", budget)
    ens = RandomEnsemble(table, bump, 24, kappa=1, master_seed=5)
    rows = ens.draw_matrix(range(nrows))
    ev = GridEvaluator(ens, SphereRule(8))
    assert np.array_equal(ens.batch_margins(rows), _batch_margins_allocating(ens, rows, ev))


def test_batch_margins_peak_memory_is_one_block(table, bump, traced_peak):
    # the node arrays of the screen hold one block of rows, however many
    # draws are screened
    ens = RandomEnsemble(table, bump, 24, kappa=0, master_seed=5)
    rows = ens.draw_matrix(range(2000))
    ens.batch_margins(rows[:4])  # builds the cached margin rule
    block = traced_peak(lambda: ens.batch_margins(rows[:256]))
    assert traced_peak(lambda: ens.batch_margins(rows)) <= block + (1 << 20)
    # and of the rule only |f| and |df| span every node: the synthesis
    # walks blocks of moduli (16.5 MiB measured; complex f and slot sums
    # synthesized on the whole rule take 37.3 MiB)
    assert SphereRule(8).npoints == 2048
    assert block <= 20 << 20


@pytest.mark.parametrize("name", ["sphere-12", "ball-6x16"])
def test_walk_matches_whole_rule_syntheses(table, bump, name, monkeypatch):
    # the walk's blocks of moduli tile the nodes in order, give the bits of
    # the one-block walk at any budget (each modulus runs the same
    # products), and are written into buffers of one block, which the next
    # block reuses; with slots, f and its slot sums come from one allocation
    ens = RandomEnsemble(table, bump, 64, kappa=1, master_seed=11)
    rule = _grid_rule(name)
    ev = GridEvaluator(ens, rule)
    dense = NodeEvaluator(ens, rule.points)
    per_modulus = rule.torus_grid()[1] ** 2
    walked = {}
    # the whole rule in one block first, then one modulus a block and the
    # default budget
    for budget in (1 << 40, 1, _accel.BLOCK_BYTES):
        monkeypatch.setattr(_accel, "BLOCK_BYTES", budget)
        for nrows in (1, 5, 32):
            a = ens.draw_matrix(range(nrows))
            padded = nrows + -nrows % 4
            for slots in (False, True):
                stops, parts, first = [0], None, None
                for nodes, f, *sums in ev.walk(a, slots=slots):
                    arrays = (f, *sums[0]) if slots else (f,)
                    assert all(x.base is f.base for x in arrays)
                    assert nodes.start == stops[-1] and nodes.stop % per_modulus == 0
                    stops.append(nodes.stop)
                    size = nodes.stop - nodes.start
                    assert (size == per_modulus if budget == 1
                            else 16 * padded * size <= budget or size == per_modulus
                            or nodes.stop == rule.npoints)
                    if first is None:
                        first, parts = arrays, [[] for _ in arrays]
                    else:
                        assert all(np.shares_memory(x, y) for x, y in zip(first, arrays))
                    for part, x in zip(parts, arrays):
                        part.append(x.copy())
                assert stops[-1] == rule.npoints
                assert len(stops) == 2 or budget != 1 << 40
                arrays = [np.concatenate(part, axis=1) for part in parts]
                one_block = walked.setdefault((nrows, slots), arrays)
                assert all(np.array_equal(x, y) for x, y in zip(arrays, one_block))
                # against the dense reference, which walks all its nodes as
                # one block
                ref = [np.concatenate(part, axis=1) for part in zip(
                    *((b[0], *b[1]) if slots else b for _, *b in dense.walk(a, slots=slots)))]
                assert len(ref) == len(arrays)
                assert all(_max_rel(x, y) <= 1e-13 for x, y in zip(arrays, ref))


@pytest.mark.parametrize("kappa", [0, 1])
@pytest.mark.parametrize("k, aliased", [(16, False), (64, True)])
@pytest.mark.parametrize("name", ["sphere-8", "sphere-12", "sphere-20", "ball-6x16"])
def test_mean_square_matches_weighted_sum(table, bump, name, k, aliased, kappa):
    # discrete Parseval: s^2 from the coefficients is sum w |f|^2 / sum w
    # on the nodes; at k = 16 no two degrees share a residue class on these
    # rules, at k = 64 some do (with the constant's class at kappa = 1), and
    # their cross terms enter
    rule = _grid_rule(name)
    ens = RandomEnsemble(table, bump, k, kappa=kappa, master_seed=13)
    ev = GridEvaluator(ens, rule)
    a = ens.draw_matrix(range(5))
    s2 = ev.mean_square(a)
    assert s2.shape == (5,)
    assert (ev._parseval[1].size > 0) == aliased
    fsq = np.abs(ev.values(a)) ** 2
    ref = fsq @ rule.weights / rule.weights.sum()
    assert np.all(np.abs(s2 - ref) <= 1e-13 * ref)
    if rule.npoints <= 4096:
        # the dense evaluator's direct weighted sum
        dense = NodeEvaluator(ens, rule.points, rule.weights).mean_square(a)
        assert np.all(np.abs(s2 - dense) <= 1e-13 * dense)
    # doubling the coefficients scales s^2 by exactly 4
    assert np.array_equal(ev.mean_square(2.0 * a), 4.0 * s2)


def test_mean_square_reads_only_the_rows_given(table, bump):
    # a synthesis pads its batch with zero rows to _ROW_MULTIPLE; s^2 comes
    # from the coefficient rows themselves, one value per row, and a row's
    # value does not depend on the rows around it beyond rounding
    ens = RandomEnsemble(table, bump, 64, kappa=1, master_seed=11)
    ev = GridEvaluator(ens, _grid_rule("sphere-12"))
    a = ens.draw_matrix(range(9))
    full = ev.mean_square(a)
    for start, size in [(0, 1), (5, 1), (1, 3), (3, 5), (1, 7)]:
        part = ev.mean_square(a[start:start + size])
        assert part.shape == (size,)
        assert np.all(np.abs(part - full[start:start + size]) <= 1e-15 * full[start:start + size])
    # the pairing's blocks of f carry the same rows, padding sliced off
    assert all(f.shape[0] == 5 for _, f, _ in ev.walk(a[:5], slots=True))


def test_mean_square_needs_weights_constant_per_modulus(table, bump):
    # the Parseval form holds only for weights that depend on the modulus
    # alone; synthesis does not read the weights and still runs
    rule = SphereRule(8)
    rule.weights = rule.weights * (1.0 + 1e-3 * (np.arange(rule.npoints) % 2))
    ens = RandomEnsemble(table, bump, 16, kappa=0, master_seed=11)
    ev = GridEvaluator(ens, rule)
    a = ens.draw_matrix(range(4))
    assert ev.values(a).shape == (4, rule.npoints)
    with pytest.raises(ValueError, match="vary over the angle grid"):
        ev.mean_square(a)


@pytest.mark.parametrize("kappa", [0, 1])
def test_batch_margins_grid_matches_dense(table, bump, kappa):
    ens = RandomEnsemble(table, bump, 24, kappa=kappa, master_seed=5)
    rows = ens.draw_matrix(range(256))
    grid = ens.batch_margins(rows)
    # the same margins from the dense evaluator at the same nodes
    dense = _batch_margins_allocating(ens, rows, NodeEvaluator(ens, SphereRule(8).points))
    assert np.allclose(grid, dense, rtol=1e-10, atol=0.0)
    for threshold in (1e-6, float(np.median(dense))):
        assert np.array_equal(grid >= threshold, dense >= threshold)
