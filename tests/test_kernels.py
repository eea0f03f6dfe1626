import math

import numpy as np
import pytest

from spherelab import _accel
from spherelab.basis import DegreeTable
from spherelab.cutoffs import Cutoff, mean_value
from spherelab.geometry import ContactData, random_sphere_points, tangent_frame
from spherelab.kernels import KernelField

CD = ContactData()


@pytest.fixture(scope="module")
def field64(table, bump):
    return KernelField(table, bump, 64.0)


def test_band_truncation_exactness(table, bump):
    # weights vanish exactly outside the open band, so summing over every
    # degree of the table reproduces the banded sums bit for bit
    kf = KernelField(table, bump, 64.0)
    all_m = np.arange(table.max_degree + 1)
    w = bump.eta(all_m / 64.0)
    outside = (all_m <= 64 * bump.delta1) | (all_m >= 64 * bump.delta2)
    assert np.all(w[outside] == 0.0)
    keep = w != 0.0
    assert math.fsum(w[keep] * table.constants[keep]) == math.fsum(kf.coeffs)


def test_diag_positive_and_symmetry(field64, rng):
    assert field64.diag() > 0.0
    x = random_sphere_points(1, rng=rng)[0]
    y = random_sphere_points(1, rng=rng)[0]
    assert field64.kernel(x, y) == pytest.approx(np.conj(field64.kernel(y, x)), rel=1e-13)
    assert field64.kernel(x, x).real == pytest.approx(field64.diag(), rel=1e-12)


def test_circle_action_invariance(field64, rng):
    x = random_sphere_points(1, rng=rng)[0]
    y = random_sphere_points(1, rng=rng)[0]
    theta = 1.234
    a = field64.kernel(np.exp(1j * theta) * x, np.exp(1j * theta) * y)
    b = field64.kernel(x, y)
    assert a == pytest.approx(b, rel=1e-12)


def test_reproducing_on_band_monomials(table, bump, rule24):
    kf = KernelField(table, bump, 24.0)
    m = int(kf.degrees[len(kf.degrees) // 2])
    el = table.element((m, 0))
    pvals = el.evaluate(rule24.points)
    x = random_sphere_points(1, rng=np.random.default_rng(1))[0]
    kvals = kf.kernel(x[None, :], rule24.points)
    proj = rule24.integrate(kvals * pvals)
    expect = bump.eta(m / 24.0) * el.evaluate(x)[0]
    assert abs(proj - expect) <= 1e-8 * max(1.0, abs(expect))


def test_diag_reference_ratio(table, bump, rng):
    ratios = []
    for k in (32.0, 64.0):
        kf = KernelField(table, bump, k)
        ratios.append(kf.diag() / kf.diag_reference())
    # first-order convergence: gap roughly halves
    gaps = [abs(r - 1.0) for r in ratios]
    assert 0.4 <= gaps[1] / gaps[0] <= 0.6


def test_grad_matches_finite_differences(field64, rng):
    x = random_sphere_points(1, rng=rng)[0]
    h = 1e-5
    for u in tangent_frame(x):
        path = lambda t: (x + t * u) / np.linalg.norm(x + t * u)
        fd = (field64.kernel(path(h), x) - field64.kernel(path(-h), x)) / (2 * h)
        exact = field64.grad_diag_pair(x, u)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_second_derivative_reeb_reference(field64):
    x = np.array([1.0, 0.0], dtype=complex)
    reeb = CD.reeb(x)
    val = field64.second_diag_pair(x, reeb, reeb)
    # reference magnitude k^{n+3} (2 pi^{n+1})^{-1} moment2, first order in 1/k
    assert val.real == pytest.approx(field64.second_reference(), rel=0.1)
    assert abs(val.imag) <= 1e-12 * abs(val)


def test_beta_structure(field64, rng):
    x = random_sphere_points(1, rng=rng)[0]
    reeb = CD.reeb(x)
    beta_reeb = field64.beta_pair(x, reeb)
    assert abs(beta_reeb.imag) <= 1e-14 * abs(beta_reeb)
    # horizontal directions are annihilated exactly in the model
    frame = tangent_frame(x)
    assert abs(field64.beta_pair(x, frame[1])) <= 1e-12 * abs(beta_reeb)
    # scale identity beta = beta_scale * xi
    assert beta_reeb.real == pytest.approx(field64.beta_scale(), rel=1e-12)


def test_beta_limit_over_grid(table, bump):
    x = np.array([0.6, 0.8j], dtype=complex)
    mv = mean_value(bump, 1)
    errs = []
    for k in (32.0, 64.0, 128.0):
        kf = KernelField(table, bump, k)
        val = (2.0 * math.pi / k) * kf.beta_pair(x, CD.reeb(x))
        errs.append(abs(val - mv))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] * 128 <= 2.0 * errs[0] * 32  # fitted constant stays bounded


def test_ball_amplitude(field64, rng):
    zero = np.zeros((1, 2), dtype=complex)
    assert field64.ball_amplitude(zero)[0] == 0.0
    x = random_sphere_points(1, rng=rng)[0]
    assert field64.ball_amplitude(x[None, :])[0] == pytest.approx(field64.diag(), rel=1e-12)
    radii = np.linspace(0.1, 1.0, 12)
    vals = field64.ball_amplitude(radii[:, None] * x[None, :])
    assert np.all(np.diff(vals) > 0.0)


def test_ddbar_log_properties(field64, rng):
    zs = random_sphere_points(1000, rng=rng) * rng.uniform(0.05, 1.0, (1000, 1))
    h = field64.ddbar_log(zs, c=1.0)
    assert np.max(np.abs(h - np.conj(np.transpose(h, (0, 2, 1))))) <= 1e-12
    eigs = np.linalg.eigvalsh(h)
    assert eigs.min() >= -1e-10
    zero = field64.ddbar_log(np.zeros((1, 2), dtype=complex), c=1.0)
    assert np.max(np.abs(zero)) == 0.0
    with pytest.raises(ValueError):
        field64.ddbar_log(zs[:2], c=0.0)


def test_log_amplitude_bound(table, bump, rng):
    # |log(c + B_k)| <= C (log k + 1): the diagonal value grows like
    # k^{n+1}, so the normalized ratio tends to n + 1 from below; assert
    # that theoretical ceiling over the whole grid and that the fitted
    # global constant is attained at the largest scale.
    zs = random_sphere_points(400, rng=rng) * rng.uniform(0.0, 1.0, (400, 1))
    ratios = [KernelField(table, bump, k).log_amplitude_bound_constant(zs)
              for k in (16.0, 32.0, 64.0, 128.0)]
    assert max(ratios) <= 2.0
    assert max(ratios) == ratios[-1]


def test_compensated_band_sum_paths(rng):
    q = (rng.standard_normal(50) + 1j * rng.standard_normal(50)) * 0.3
    ms = np.arange(5, 40)
    coeffs = (10.0 ** rng.uniform(-12, 8, ms.size)).astype(complex)
    a = _accel.band_power_sum(q, ms, coeffs)
    ref = np.array([math.fsum((coeffs[i] * qq ** ms[i]).real for i in range(ms.size))
                    + 1j * math.fsum((coeffs[i] * qq ** ms[i]).imag for i in range(ms.size))
                    for qq in q])
    assert np.allclose(a, ref, rtol=1e-13)


def test_weight_kinds(table, bump):
    eta = KernelField(table, bump, 32.0, weight="squared")
    chi = KernelField(table, bump, 32.0, weight="plain")
    ws = bump.chi(eta.degrees / 32.0)
    assert np.allclose(eta.band_weights, ws * ws)
    assert np.allclose(chi.band_weights, bump.chi(chi.degrees / 32.0))
    with pytest.raises(ValueError):
        KernelField(table, bump, 32.0, weight="cubed")
    with pytest.raises(ValueError):
        KernelField(table, bump, 4000.0)  # band exceeds table
