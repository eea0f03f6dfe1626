"""Gaussian ensembles of band-limited CR / holomorphic functions.

A draw is a vector of i.i.d. standard complex Gaussians (unit variance
per complex coordinate), one per cutoff-weighted component, plus a
leading coefficient for the constant component when kappa = 1.  Streams
are counter-based: the coefficients of trial i are produced by a Philox
generator keyed by hashing (master_seed, i), so any subset of trials can
be generated independently, in any order, on any worker, with identical
bits.

With this convention E f(x) conj(f(y)) = kappa^2 + S(x, y) where S is
the squared-weight band kernel; that identity is the load-bearing link
between the ensemble and the kernel engine and is tested to Monte Carlo
accuracy.

Draws are evaluated at a rule's nodes by one of two evaluators.  On the
product rules (SphereRule, BallRule) a monomial factors into a modulus
part and a character of the angle grid, so GridEvaluator sums the
coefficients per modulus into folded 2-D spectra and applies one inverse
FFT per modulus pair (sum factorization); it never builds a
nodes x components matrix.  Scattered point sets (the cell rule, random
points) use NodeEvaluator's dense design matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse

from spherelab.basis import DegreeTable, graded_indices
from spherelab.cutoffs import Cutoff
from spherelab.kernels import KernelField
from spherelab.quadrature import SphereCellRule, SphereRule

__all__ = ["GaussianDraw", "RandomEnsemble", "NodeEvaluator", "GridEvaluator"]


@dataclass(frozen=True)
class GaussianDraw:
    """Coefficient vector of one random function, with its provenance."""

    coefficients: np.ndarray
    trial: int
    master_seed: int

    def __len__(self):
        return len(self.coefficients)


class RandomEnsemble:
    """Random band functions f = sum a_j chi(m_j / k) (normalized monomial)_j,
    prefixed by a_0 * kappa when kappa = 1."""

    def __init__(self, table: DegreeTable, cutoff: Cutoff, k, kappa=0, master_seed=2024):
        if kappa not in (0, 1):
            raise ValueError("kappa must be 0 or 1")
        self.table = table
        self.cutoff = cutoff
        self.k = float(k)
        self.kappa = int(kappa)
        self.master_seed = int(master_seed)
        self.field = KernelField(table, cutoff, k, weight="squared", kappa=kappa)
        self.alphas = []
        self.component_weights = []
        for m in self.field.degrees:
            w = float(cutoff.chi(m / self.k))
            for alpha in graded_indices(int(m), table.n):
                self.alphas.append(alpha)
                self.component_weights.append(w)
        self.dim = len(self.alphas) + (1 if self.kappa else 0)

    # ------------------------------------------------------------ sampling
    def _generator(self, trial):
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(int(trial),))
        return np.random.Generator(np.random.Philox(seq))

    def draw(self, trial):
        rng = self._generator(trial)
        re = rng.standard_normal(self.dim)
        im = rng.standard_normal(self.dim)
        a = (re + 1j * im) / math.sqrt(2.0)
        return GaussianDraw(a, int(trial), self.master_seed)

    def draw_matrix(self, trials):
        """Coefficients of several trials stacked row-wise."""
        return np.vstack([self.draw(t).coefficients for t in trials])

    def dump_draws_csv(self, path, trials):
        """Audit dump: one row per (trial, component) coefficient."""
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["trial", "component", "re", "im"])
            for t in trials:
                a = self.draw(t).coefficients
                for j, c in enumerate(a):
                    writer.writerow([t, j, repr(c.real), repr(c.imag)])

    def evaluator(self, where):
        """Evaluator at a rule's nodes or at an array of points: the FFT
        evaluator on rules with a torus_grid, the dense one elsewhere."""
        if hasattr(where, "torus_grid"):
            return GridEvaluator(self, where)
        return NodeEvaluator(self, getattr(where, "points", where))

    # ------------------------------------------------------- regularity
    def regularity_filter(self, draw, threshold=1e-6, base_cells=6, depth=2):
        """Accept/reject on the zero-gradient margin near the zero set.

        Scans |f| on an adaptively subdivided sphere rule; near-zero
        cells are refined, then the margin is the minimum of |df| over
        near-zero nodes, normalized by k times the root mean square of
        |f|.  Draws with margin below threshold are rejected: they are
        measure zero in theory but numerically ill-conditioned.
        """
        rule = SphereCellRule(base_cells=base_cells, nodes_per_axis=3)
        ev = self.evaluator(rule)
        a = draw.coefficients[None, :]
        margin = None
        for round_idx in range(depth + 1):
            vals = ev.values(a)[0]
            rms = float(np.sqrt(np.mean(np.abs(vals) ** 2)))
            if rms == 0.0:
                return {"accept": False, "margin": 0.0, "rms": 0.0}
            x1, x2 = ev.slot1_sums(a)
            dfabs = ev.gradient_magnitude(x1, x2)[0]
            near = np.abs(vals) <= 0.3 * rms
            if not near.any():
                near = np.abs(vals) <= np.quantile(np.abs(vals), 0.05)
            margin = float(dfabs[near].min()) / (self.k * rms)
            if round_idx == depth:
                break
            flag_vals = rule.cell_min(np.abs(vals) / rms)
            cut = np.quantile(flag_vals, 0.15)
            rule.refine(flag_vals <= max(cut, 0.3))
            ev = self.evaluator(rule)
        return {"accept": margin >= threshold, "margin": margin, "rms": rms}

    def batch_margins(self, coefficient_rows, rule=None):
        """Coarse (non-adaptive) margins for many draws at once."""
        rule = rule or _margin_rule()
        ev = self.evaluator(rule)
        vals = ev.values(coefficient_rows)
        rms = np.sqrt(np.mean(np.abs(vals) ** 2, axis=1))
        x1, x2 = ev.slot1_sums(coefficient_rows)
        dfabs = ev.gradient_magnitude(x1, x2)
        near = np.abs(vals) <= 0.3 * rms[:, None]
        masked = np.where(near, dfabs, np.inf)
        margins = masked.min(axis=1) / (self.k * np.maximum(rms, 1e-300))
        margins[rms == 0.0] = 0.0
        return margins


@functools.cache
def _margin_rule():
    """Default rule of batch_margins, built once per process: rules are
    never mutated, and the build evaluates the contact volume symbolically."""
    return SphereRule(8)


class NodeEvaluator:
    """Design matrix of one ensemble bound to a fixed, scattered point set.

    values(A) is a plain matrix product, so batches of draws evaluate at
    BLAS speed; first derivatives reuse two auxiliary products (degree-
    weighted matrices) and are assembled pointwise for any direction
    field, exploiting that the monomial coordinates never vanish at
    interior quadrature nodes.  Product rules use GridEvaluator, which
    shares the derivative assembly.
    """

    def __init__(self, ensemble: RandomEnsemble, points):
        self._bind(ensemble, points)
        self.matrix = ensemble.table.design_matrix(ensemble.alphas, self.points,
                                                   extra_scale=ensemble.component_weights)

    def _bind(self, ensemble, points):
        """Nodes and degrees, which the derivative assembly reads."""
        self.ensemble = ensemble
        self.points = np.atleast_2d(np.asarray(points, dtype=complex))
        alphas = np.asarray(ensemble.alphas, dtype=float)
        self._deg1 = alphas[:, 0]
        self._deg2 = alphas[:, 1]
        self._z1 = self.points[:, 0]
        self._z2 = self.points[:, 1]

    def _split(self, a):
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        if self.ensemble.kappa:
            return a[:, 0], a[:, 1:]
        return None, a

    def values(self, a):
        """f at the nodes for each coefficient row: (ntrials, npoints)."""
        a0, rest = self._split(a)
        vals = rest @ self.matrix.T
        if a0 is not None:
            vals = vals + (self.ensemble.kappa * a0)[:, None]
        return vals

    def slot1_sums(self, a):
        """Degree-weighted sums feeding any directional derivative."""
        a0, rest = self._split(a)
        x1 = (rest * self._deg1[None, :]) @ self.matrix.T
        x2 = (rest * self._deg2[None, :]) @ self.matrix.T
        return x1, x2

    def directional_derivative(self, x1, x2, direction):
        """df along an ambient complex direction field (npoints, 2).

        For the monomial part, d(z^alpha)(u) = (alpha_1 u_1 / z_1 +
        alpha_2 u_2 / z_2) z^alpha; the constant component drops out.
        """
        u = np.atleast_2d(np.asarray(direction, dtype=complex))
        c1 = u[..., 0] / self._z1
        c2 = u[..., 1] / self._z2
        return x1 * c1[None, :] + x2 * c2[None, :]

    def gradient_magnitude(self, x1, x2):
        """|holomorphic gradient| = sqrt(|df/dz1|^2 + |df/dz2|^2) at nodes;
        it vanishes exactly where the full differential of the restriction
        to the sphere vanishes."""
        g1 = x1 / self._z1[None, :]
        g2 = x2 / self._z2[None, :]
        return np.sqrt(np.abs(g1) ** 2 + np.abs(g2) ** 2)


class GridEvaluator(NodeEvaluator):
    """Evaluator on a product rule by folded 2-D inverse FFTs.

    The rule's nodes are (rho1 e^{2 pi i i1/N}, rho2 e^{2 pi i i2/N}) over
    M modulus pairs (rule.torus_grid()), so the normalized monomial with
    exponents (a, b) is its value at (rho1, rho2) times the character
    e^{2 pi i (a i1 + b i2)/N}.  One sparse (M N^2, dim) matrix holds
    those modulus factors at bin (a mod N, b mod N) of modulus m: degrees
    of N and above fold onto the same bins and stay exact on the grid.  A
    batch of draws is one sparse product and one batched ifft2, each row
    independent of the others, with no nodes x dim matrix.
    """

    def __init__(self, ensemble: RandomEnsemble, rule):
        self._bind(ensemble, rule.points)
        moduli, nang = rule.torus_grid()
        factors = ensemble.table.design_matrix(ensemble.alphas, moduli,
                                               extra_scale=ensemble.component_weights)
        nmod, dim = factors.shape
        alphas = np.asarray(ensemble.alphas, dtype=np.int64)
        bins = (alphas[:, 0] % nang) * nang + alphas[:, 1] % nang
        rows = np.arange(nmod)[:, None] * nang ** 2 + bins[None, :]
        cols = np.broadcast_to(np.arange(dim)[None, :], (nmod, dim))
        self._fold = scipy.sparse.csr_matrix(
            (factors.ravel(), (rows.ravel(), cols.ravel())), shape=(nmod * nang ** 2, dim))
        self._grid = (nmod, nang, nang)

    def _synthesize(self, rest):
        """Monomial sums at the nodes for coefficient rows: (rows, npoints).

        The spectra keep the rows on the last axis, so the result is the
        transpose of a (npoints, rows) array, returned without a copy.
        """
        spectra = (self._fold @ rest.T).reshape(self._grid + (rest.shape[0],))
        return scipy.fft.ifft2(spectra, axes=(1, 2), norm="forward").reshape(-1, rest.shape[0]).T

    def values(self, a):
        a0, rest = self._split(a)
        vals = self._synthesize(rest)
        if a0 is not None:
            vals = vals + (self.ensemble.kappa * a0)[:, None]
        return vals

    def slot1_sums(self, a):
        _, rest = self._split(a)
        both = self._synthesize(np.concatenate([rest * self._deg1, rest * self._deg2]))
        return both[:rest.shape[0]], both[rest.shape[0]:]
