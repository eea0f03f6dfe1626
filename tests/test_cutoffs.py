import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelab.cutoffs import Cutoff, band_moment, mean_value, variance


def composite_gauss_moment(cutoff, j, panels=64, order=24):
    """Independent refinement oracle: composite Gauss-Legendre panels."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(cutoff.delta1, cutoff.delta2, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (b - a) * x + 0.5 * (a + b)
        total += 0.5 * (b - a) * np.dot(w, t ** (1 + j) * cutoff.eta(t))
    return total


def test_chi_vanishes_outside_support(rng):
    c = Cutoff(0.25, 0.75)
    t = np.concatenate([rng.uniform(-1.0, 0.25, 50), rng.uniform(0.75, 3.0, 50)])
    assert np.all(c.chi(t) == 0.0)
    assert c.chi(0.25) == 0.0 and c.chi(0.75) == 0.0


def test_chi_next_to_endpoints_is_zero():
    # one ulp inside the support, u rounds to +-1 or beyond
    for c in (Cutoff(0.1, 2.0, sharpness=4.0), Cutoff(0.001, 0.5)):
        t = np.nextafter([c.delta1, c.delta2], [np.inf, 0.0])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            assert np.array_equal(c.chi(t), [0.0, 0.0])


def test_chi_k_is_exact_rescaling(rng):
    # chi_k(t) = chi(t / k) vanishes exactly outside k * supp(chi)
    c = Cutoff()
    t = rng.uniform(0.0, 40.0, 200)
    for k in (3.0, 17.0, 64.0):
        inside = (t > k * c.delta1) & (t < k * c.delta2)
        assert inside.any() and np.all(c.chi(t / k)[~inside] == 0.0)
    # band degrees live strictly inside (k d1, k d2)
    for k in (16, 64):
        ms = c.band_degrees(k)
        assert np.all(ms > k * c.delta1) and np.all(ms < k * c.delta2)


def test_bump_peak_value():
    c = Cutoff(0.25, 0.75, sharpness=1.0)
    mid = 0.5 * (c.delta1 + c.delta2)
    assert c.chi(mid) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_indicator_moments_unit_interval():
    ind = Cutoff(0.0, 1.0, "indicator")
    assert band_moment(ind, 0) == pytest.approx(0.5, abs=1e-12)
    assert band_moment(ind, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert mean_value(ind) == pytest.approx(2.0 / 3.0, abs=1e-12)
    # tau2/tau0 - mv^2 with tau2 = 1/4
    assert variance(ind) == pytest.approx(0.25 / 0.5 - 4.0 / 9.0, abs=1e-12)


def test_indicator_moments_match_closed_form():
    for a, b in ((0.0, 1.0), (0.25, 0.75), (0.1, 2.0)):
        ind = Cutoff(a, b, "indicator")
        for j in (0, 1, 2, 3):
            p = j + 2
            exact = (b ** p - a ** p) / p
            for squared in (True, False):
                assert band_moment(ind, j, squared) == pytest.approx(exact, rel=2e-15)


@pytest.mark.parametrize("d1, d2", [(0.25, 0.75), (0.05, 0.3), (0.4, 1.6)])
@pytest.mark.parametrize("sharp", [0.3, 1.0, 4.0])
def test_bump_moments_match_adaptive_quadrature(d1, d2, sharp):
    from scipy.integrate import quad

    c = Cutoff(d1, d2, sharpness=sharp)
    for squared in (True, False):
        weight = c.eta if squared else c.chi
        for j in (0, 1, 2, 3):
            ref, _ = quad(lambda t: t ** (1 + j) * weight(t), d1, d2,
                          epsabs=1e-13, epsrel=1e-13)
            assert band_moment(c, j, squared) == pytest.approx(ref, rel=1e-13)


def test_bump_moments_match_refinement_oracle():
    c = Cutoff()
    for j in (0, 1, 2):
        ref = composite_gauss_moment(c, j)
        assert band_moment(c, j) == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("s", [2.0, 3.0])
def test_scale_covariance(s):
    c = Cutoff(0.25, 0.75)
    scaled = Cutoff(s * 0.25, s * 0.75)
    for j in (0, 1, 2):
        expect = s ** (j + 2) * band_moment(c, j)
        assert band_moment(scaled, j) == pytest.approx(expect, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(d1=st.floats(0.05, 0.6), width=st.floats(0.05, 1.0), sharp=st.floats(0.3, 4.0))
def test_mean_in_support_and_variance_positive(d1, width, sharp):
    c = Cutoff(d1, d1 + width, sharpness=sharp)
    mv = mean_value(c)
    assert c.delta1 < mv < c.delta2
    assert variance(c) > 0.0
    # strict Cauchy-Schwarz between the band moments
    t0, t1, t2 = (band_moment(c, j) for j in (0, 1, 2))
    assert t1 < math.sqrt(t0 * t2)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        Cutoff(0.75, 0.25)
    with pytest.raises(ValueError):
        Cutoff(0.0, 1.0)  # smooth bump needs delta1 > 0
    with pytest.raises(ValueError):
        Cutoff(0.25, 0.75, "triangle")
