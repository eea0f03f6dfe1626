"""Smooth band cutoffs and the moments that drive every limit formula.

A cutoff is a function chi supported in (delta1, delta2) with
0 < delta1 < delta2.  The rescaled family chi_k(t) = chi(t / k) selects
the spectral band (k*delta1, k*delta2).  The weight eta = |chi|^2 enters
all second-moment quantities.  The moment of order j in dimension n is

    band_moment(eta, j, n) = integral of t^(n+j) * eta(t) dt,

and mean_value / variance are the mean and variance of the probability
density t^n eta(t) / band_moment(eta, 0, n) on (0, infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

__all__ = ["Cutoff", "band_moment", "mean_value", "variance"]

_QUAD_TOL = 1e-13


@dataclass(frozen=True)
class Cutoff:
    """Compactly supported spectral cutoff on (delta1, delta2).

    shape "smooth-bump" is exp(-sharpness / (1 - u^2)) with u the affine
    image of (delta1, delta2) onto (-1, 1); it vanishes with all
    derivatives at the endpoints.  shape "indicator" is the sharp band
    selector and is only admitted where an experiment explicitly allows
    a non-smooth weight.
    """

    delta1: float = 0.25
    delta2: float = 0.75
    shape: str = "smooth-bump"
    sharpness: float = 1.0

    def __post_init__(self):
        if self.shape not in ("smooth-bump", "indicator"):
            raise ValueError(f"unknown cutoff shape {self.shape!r}")
        # delta1 == 0 is admitted for the indicator only (the unit-interval
        # reference weight); a smooth bump needs an open gap at zero.
        lowest = 0.0 if self.shape == "indicator" else math.ulp(0.0)
        if not lowest <= self.delta1 < self.delta2:
            raise ValueError(f"bad support endpoints ({self.delta1}, {self.delta2})")
        if self.sharpness <= 0.0:
            raise ValueError("sharpness must be positive")

    def chi(self, t):
        """Evaluate the cutoff; exactly zero outside (delta1, delta2)."""
        t = np.asarray(t, dtype=float)
        inside = (t > self.delta1) & (t < self.delta2)
        out = np.zeros_like(t)
        if self.shape == "indicator":
            out[inside] = 1.0
            return out if out.ndim else float(out)
        u = (2.0 * t[inside] - (self.delta1 + self.delta2)) / (self.delta2 - self.delta1)
        out[inside] = np.exp(-self.sharpness / (1.0 - u * u))
        return out if out.ndim else float(out)

    def chi_k(self, t, k):
        """Rescaled cutoff chi(t / k); support is exactly k * supp(chi)."""
        if k <= 0:
            raise ValueError("k must be positive")
        return self.chi(np.asarray(t, dtype=float) / k)

    def eta(self, t):
        """Squared modulus |chi|^2 (chi is real here, so chi^2)."""
        c = self.chi(t)
        return c * c

    def band_degrees(self, k):
        """Integer degrees m with chi(m / k) possibly nonzero."""
        lo = int(math.floor(self.delta1 * k)) + 1
        hi = int(math.ceil(self.delta2 * k)) - 1
        return np.arange(max(lo, 0), hi + 1)


def band_moment(cutoff, j, n, squared=True):
    """Integral of t^(n+j) * w(t) over the support, w = chi^2 or chi.

    Adaptive quadrature at absolute/relative tolerance 1e-13; the bump
    is flat to all orders at the endpoints so the integrand is smooth.
    """
    if j < 0 or n < 1:
        raise ValueError("need j >= 0 and n >= 1")
    weight = cutoff.eta if squared else cutoff.chi
    fn = lambda t: t ** (n + j) * weight(t)
    val, err = quad(fn, cutoff.delta1, cutoff.delta2, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    if not math.isfinite(val):
        raise ArithmeticError("non-finite band moment")
    return val


def mean_value(cutoff, n, squared=True):
    """Mean of the density t^n w(t) / moment0; lies in (delta1, delta2)."""
    m0 = band_moment(cutoff, 0, n, squared)
    if m0 <= 0.0:
        raise ZeroDivisionError("zeroth band moment vanishes")
    return band_moment(cutoff, 1, n, squared) / m0


def variance(cutoff, n, squared=True):
    """Variance of the density t^n w(t) / moment0; strictly positive."""
    m0 = band_moment(cutoff, 0, n, squared)
    if m0 <= 0.0:
        raise ZeroDivisionError("zeroth band moment vanishes")
    mv = band_moment(cutoff, 1, n, squared) / m0
    return band_moment(cutoff, 2, n, squared) / m0 - mv * mv
