import math

import numpy as np
import pytest

from spherelab.cutoffs import mean_value, variance
from spherelab.embedding import EmbeddingMap
from spherelab.geometry import hermitian_pair, random_sphere_points, tangent_frame


@pytest.fixture(scope="module")
def em64(table, bump):
    return EmbeddingMap(table, bump, 64)


@pytest.fixture(scope="module")
def em64_kappa(table, bump):
    return EmbeddingMap(table, bump, 64, kappa=1)


def test_component_length_identity(em64, em64_kappa, rng):
    x = random_sphere_points(1, rng=rng)
    for em in (em64, em64_kappa):
        comps = em.components(x)[0]
        assert np.sum(np.abs(comps) ** 2) == pytest.approx(em.squared_length(), rel=1e-12)


def test_overlap_identity(em64, rng):
    x = random_sphere_points(1, rng=rng)
    y = random_sphere_points(1, rng=rng)
    cx = em64.components(x)[0]
    cy = em64.components(y)[0]
    direct = np.sum(cx * np.conj(cy))
    assert direct == pytest.approx(complex(em64.overlap(x, y)[0]), rel=1e-12)


def test_equivariance(em64, rng):
    x = random_sphere_points(1, rng=rng)
    theta = 0.83
    rotated = em64.components(np.exp(1j * theta) * x)[0]
    base = em64.components(x)[0]
    degrees = np.array([sum(a) for a in em64.field.components[0]])
    phases = np.exp(1j * degrees * theta)
    assert np.allclose(rotated, phases * base, rtol=1e-12)


def test_overlap_range_and_symmetry(em64, rng):
    xs = random_sphere_points(60, rng=rng)
    ys = random_sphere_points(60, rng=rng)
    h = em64.normalized_overlap(xs, ys).real
    assert np.all(h >= -1e-15) and np.all(h <= 1.0 + 1e-12)
    h_t = em64.normalized_overlap(ys, xs).real
    assert np.allclose(h, h_t, atol=1e-13)
    x = xs[0]
    assert em64.normalized_overlap(x, x).real == pytest.approx(1.0, abs=1e-12)
    theta = 0.4
    assert em64.normalized_overlap(np.exp(1j * theta) * xs, np.exp(1j * theta) * ys).real == pytest.approx(h, abs=1e-12)


def test_orthogonal_pair_values(table, bump):
    x = np.array([1.0, 0.0], dtype=complex)
    y = np.array([0.0, 1.0], dtype=complex)
    em0 = EmbeddingMap(table, bump, 64, kappa=0)
    assert em0.normalized_overlap(x, y).real == pytest.approx(0.0, abs=1e-15)
    em1 = EmbeddingMap(table, bump, 64, kappa=1)
    expect = 1.0 / em1.squared_length() ** 2  # kappa^4 / (|F|^2 |F|^2)
    assert em1.normalized_overlap(x, y).real == pytest.approx(expect, rel=1e-12)


def test_fs_distance(em64, rng):
    x = random_sphere_points(1, rng=rng)[0]
    assert em64.fs_distance(x, x) == pytest.approx(0.0, abs=1e-7)
    y = random_sphere_points(1, rng=rng)[0]
    h = float(em64.normalized_overlap(x, y).real)
    assert float(em64.fs_distance(x, y)) == pytest.approx(math.sqrt(1.0 - math.sqrt(h)), rel=1e-12)


def test_pullback_hessian_identity(em64, rng):
    x = random_sphere_points(1, rng=rng)[0]
    fr = tangent_frame(x)
    for u in fr:
        for v in fr:
            lhs = em64.fs_pullback(x, u, v).real
            rhs = -em64.overlap_hessian_pair(x, u, v)
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


def test_hessian_matches_profile_curvature(em64, rng):
    # independent oracle: central differences of h(., y) at its maximum;
    # the curvature is exactly twice the displayed bilinear form
    x = random_sphere_points(1, rng=rng)[0]
    fr = tangent_frame(x)
    h = 5e-5
    for u in fr:
        def g(t):
            moved = (x + t * u)
            moved /= np.linalg.norm(moved)
            return float(em64.normalized_overlap(moved, x).real)
        fd = (g(h) + g(-h) - 2.0) / h ** 2
        assert 0.5 * fd == pytest.approx(em64.overlap_hessian_pair(x, u, u), rel=1e-4)


def test_hessian_negative_definite_and_invariant_spectrum(em64, rng):
    x = random_sphere_points(1, rng=rng)[0]
    m = em64.overlap_hessian_matrix(x)
    assert np.allclose(m, m.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(m)
    assert eigs.max() < 0.0
    rotated = em64.overlap_hessian_matrix(np.exp(0.9j) * x)
    assert np.allclose(np.linalg.eigvalsh(rotated), eigs, rtol=1e-8)


@pytest.mark.parametrize("kappa", [0, 1])
def test_hessian_matrix_matches_pair_loop(table, bump, rng, kappa):
    # the closed form against the symmetrized loop over the pair formula,
    # in the default frame and in a rotated (explicit) tangent frame
    em = EmbeddingMap(table, bump, 64, kappa=kappa)
    for x in random_sphere_points(5, rng=rng):
        rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        for frame in (None, rotation @ np.array(tangent_frame(x))):
            fr = tangent_frame(x) if frame is None else frame
            loop = np.array([[em.overlap_hessian_pair(x, u, v) for v in fr] for u in fr])
            loop = 0.5 * (loop + loop.T)
            closed = em.overlap_hessian_matrix(x, frame)
            assert np.linalg.norm(closed - loop) <= 1e-13 * np.linalg.norm(loop)


def test_fs_asymptotics(big_table, bump, rng):
    x = random_sphere_points(1, rng=rng)[0]
    reeb = 1j * x
    var_ref = variance(bump)
    mv_ref = mean_value(bump)
    errs = []
    for k in (64, 128, 256):
        em = EmbeddingMap(big_table, bump, k)
        errs.append(abs((em.fs_pullback(x, reeb, reeb) / k ** 2).real - var_ref))
    assert errs[2] < errs[1] < errs[0]
    em = EmbeddingMap(big_table, bump, 256)
    w = tangent_frame(x)[1]
    horiz = (em.fs_pullback(x, w, w) / 256).real
    ref = mv_ref * float(np.sum(np.abs(w) ** 2))
    assert abs(horiz - ref) <= 0.05 * ref
    # the horizontal reference is -i mv dxi(Z, conj Z), with dxi(Z_w, conj Z_w) = i <w, w>
    dxi_pair = 1j * hermitian_pair(w, w)
    assert (-1j * mv_ref * dxi_pair).real == pytest.approx(ref, rel=1e-12)


def test_scaled_hessian_structure(table, bump, rng):
    x = random_sphere_points(1, rng=rng)[0]
    limit = -np.diag([variance(bump), mean_value(bump), mean_value(bump)])
    devs = []
    for k in (32, 64, 128):
        em = EmbeddingMap(table, bump, k)
        devs.append(np.max(np.abs(em.scaled_hessian_matrix(x) - limit)))
    assert devs[1] <= 0.8 * devs[0] and devs[2] <= 0.8 * devs[1]


def test_separation_scan(em64):
    scan = em64.separation_scan(sample_size=300, min_distance=0.5, rng=3)
    assert scan["max_h"] <= 0.5
    assert scan["violations_above_one"] == 0
    assert scan["pairs"] > 100


def test_kappa_validation(table, bump):
    with pytest.raises(ValueError):
        EmbeddingMap(table, bump, 32, kappa=2)
