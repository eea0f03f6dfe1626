"""Numerical laboratory on the unit sphere S^3 in C^2.

The lab instantiates band-filtered reproducing kernels built from the
degree decomposition of boundary values of holomorphic functions on the
unit ball, the projective maps they induce, and Monte Carlo experiments
on the zero sets of random band-limited functions.  Everything is
desk-scale: exact product quadrature on the three-sphere and the ball,
and Monte Carlo over random draws.
"""

from spherelab.cutoffs import Cutoff, band_moment, mean_value, variance
from spherelab.basis import DegreeTable
from spherelab.kernels import KernelField
from spherelab.embedding import EmbeddingMap
from spherelab.ensemble import RandomEnsemble

__version__ = "0.1.0"

__all__ = [
    "Cutoff",
    "band_moment",
    "mean_value",
    "variance",
    "DegreeTable",
    "KernelField",
    "EmbeddingMap",
    "RandomEnsemble",
    "__version__",
]
