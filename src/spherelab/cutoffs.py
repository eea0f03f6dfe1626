"""Smooth band cutoffs and the moments that drive every limit formula.

A cutoff is a function chi supported in (delta1, delta2) with
0 < delta1 < delta2.  The rescaled family chi_k(t) = chi(t / k) selects
the spectral band (k*delta1, k*delta2).  The weight eta = |chi|^2 enters
all second-moment quantities.  On S^3 the moment of order j is

    band_moment(cutoff, j) = integral of t^(1+j) * eta(t) dt,

and mean_value / variance are the mean and variance of the probability
density t eta(t) / band_moment(cutoff, 0) on (0, infinity).

Moments are computed with one fixed tanh-sinh (double-exponential) rule
(Takahasi & Mori, Publ. RIMS 9, 1974): step 1/32 over |s| <= 4, 257
nodes, mapped onto the support and summed with math.fsum.  The bump is
flat to all orders at its endpoints and the indicator's integrand is a
polynomial, so the rule is accurate to rounding for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Cutoff", "band_moment", "mean_value", "variance"]

# Tanh-sinh rule on (-1, 1): x = tanh(u), u = (pi/2) sinh(s), s = i/32 for
# |i| <= 128.  The gap 1 - |x| = exp(-|u|) / cosh(u) is kept instead of x so
# that nodes next to an endpoint are placed without cancellation.
_TS_S = np.arange(-128, 129) / 32.0
_TS_U = 0.5 * math.pi * np.sinh(_TS_S)
_TS_GAP = np.exp(-np.abs(_TS_U)) / np.cosh(_TS_U)
_TS_WEIGHTS = (0.5 * math.pi / 32.0) * np.cosh(_TS_S) / np.cosh(_TS_U) ** 2


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
        q = 1.0 - u * u
        # next to an endpoint u can round to +-1 or beyond; chi is 0 there
        ratio = np.divide(-self.sharpness, q, out=np.full_like(q, -np.inf), where=q > 0.0)
        out[inside] = np.exp(ratio)
        return out if out.ndim else float(out)

    def eta(self, t):
        """Squared modulus |chi|^2 (chi is real here, so chi^2)."""
        c = self.chi(t)
        return c * c

    def band_degrees(self, k):
        """Integer degrees m with chi(m / k) possibly nonzero."""
        lo = int(math.floor(self.delta1 * k)) + 1
        hi = int(math.ceil(self.delta2 * k)) - 1
        return np.arange(max(lo, 0), hi + 1)


def band_moment(cutoff, j, squared=True):
    """Integral of t^(1+j) * w(t) over the support, w = chi^2 or chi.

    The fixed 257-node tanh-sinh rule of this module on (delta1, delta2),
    summed with math.fsum; relative error near rounding for the bump and
    the indicator.
    """
    if j < 0:
        raise ValueError("need j >= 0")
    weight = cutoff.eta if squared else cutoff.chi
    half = 0.5 * (cutoff.delta2 - cutoff.delta1)
    t = np.where(_TS_S < 0.0, cutoff.delta1 + half * _TS_GAP, cutoff.delta2 - half * _TS_GAP)
    val = half * math.fsum(_TS_WEIGHTS * t ** (1 + j) * weight(t))
    if not math.isfinite(val):
        raise ArithmeticError("non-finite band moment")
    return val


def mean_value(cutoff):
    """Mean of the density t eta(t) / moment0; lies in (delta1, delta2)."""
    m0 = band_moment(cutoff, 0)
    if m0 <= 0.0:
        raise ZeroDivisionError("zeroth band moment vanishes")
    return band_moment(cutoff, 1) / m0


def variance(cutoff):
    """Variance of the density t eta(t) / moment0; strictly positive."""
    m0 = band_moment(cutoff, 0)
    if m0 <= 0.0:
        raise ZeroDivisionError("zeroth band moment vanishes")
    mv = band_moment(cutoff, 1) / m0
    return band_moment(cutoff, 2) / m0 - mv * mv
