"""Gaussian ensembles of band-limited CR / holomorphic functions.

A draw is a plain coefficient vector of i.i.d. standard complex
Gaussians (unit variance per complex coordinate), one per component of
KernelField.components, which with kappa = 1 starts with the constant,
of degree (0, 0).  Streams are counter-based: the coefficients of trial
i are produced by a Philox generator keyed by hashing (master_seed, i),
so the trial index alone reproduces a draw: any subset of trials can be
generated independently, in any order, on any worker, with identical
bits.

With this convention E f(x) conj(f(y)) = kappa^2 + S(x, y) where S is
the squared-weight band kernel; that identity is the load-bearing link
between the ensemble and the kernel engine and is tested to Monte Carlo
accuracy.

Draws are evaluated at a rule's nodes by one of two evaluators.  On the
product rules (SphereRule, BallRule) a monomial factors into a modulus
part and a character of each angle grid, so GridEvaluator sums over the
second angle and the moduli in one small matrix product per residue of
the first degree, then over the first angle in one more (sum
factorization); it never builds a nodes x components matrix.  Plain
arrays of points get NodeEvaluator's dense design matrix, the reference
the grid evaluator is checked against.  Both evaluators synthesize f
and its slot sums one way, one block of nodes at a time (walk); the dense
one walks its nodes as one block.  A pairing's walk synthesizes only the
slot sums its forms read (RegularizedPairing.slots: vol-z2 reads x1
alone), so its block buffers are two, not three.  On a product rule a
block is a range of consecutive moduli, a contiguous node slice of
SphereRule and BallRule alike, synthesized into buffers of one block
that the next block reuses.  The Monte Carlo pairings consume f, its slot sums and the
ball values that way, and their s^2, the weighted mean square of f over
the rule that scales the regularization, comes from the coefficients by discrete Parseval
(GridEvaluator.mean_square), so no array of a micro-batch spans a rule.
batch_margins screens draws for a nondegenerate zero set on a coarse
product rule from the same walk, keeping only |f| and |df| on every
node; values and slot1_sums, the tests' references, gather the walk
into arrays over every node.
The module needs numpy alone; numpy.random is imported here, at
start-up, and not first inside an experiment.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from spherelab import _accel
from spherelab.basis import DegreeTable
from spherelab.cutoffs import Cutoff
from spherelab.kernels import KernelField
from spherelab.quadrature import SphereRule

__all__ = ["RandomEnsemble", "NodeEvaluator", "GridEvaluator"]


class RandomEnsemble:
    """Random band functions f = sum a_j w_j (normalized monomial)_j over
    KernelField.components: a_0 * kappa first when kappa = 1."""

    def __init__(self, table: DegreeTable, cutoff: Cutoff, k, kappa=0, master_seed=2024):
        self.table = table
        self.cutoff = cutoff
        self.k = float(k)
        self.master_seed = int(master_seed)
        self.field = KernelField(table, cutoff, k, weight="squared", kappa=kappa)
        self.alphas, self.component_weights = self.field.components
        self.dim = len(self.alphas)

    # ------------------------------------------------------------ sampling
    def _generator(self, trial):
        seq = SeedSequence(entropy=self.master_seed, spawn_key=(int(trial),))
        return Generator(Philox(seq))

    def draw(self, trial):
        """Coefficient vector of one trial."""
        rng = self._generator(trial)
        re = rng.standard_normal(self.dim)
        im = rng.standard_normal(self.dim)
        return (re + 1j * im) / math.sqrt(2.0)

    def draw_matrix(self, trials):
        """Coefficients of several trials stacked row-wise, each written
        into the result as it is drawn."""
        out = np.empty((len(trials), self.dim), dtype=complex)
        for i, trial in enumerate(trials):
            out[i] = self.draw(trial)
        return out

    # ------------------------------------------------------- regularity
    def batch_margins(self, coefficient_rows):
        """Zero-gradient margins of many draws at once, on a coarse product
        rule.

        A margin is the minimum of |df| over the near-zero nodes (|f| at
        most 0.3 times the root mean square of |f|), normalized by k times
        that root mean square; an all-zero draw gets 0.  Draws whose
        margin falls below a threshold are rejected: they are measure
        zero in theory but numerically ill-conditioned.  The rows are
        screened _MARGIN_BLOCK at a time, each batch read from the
        evaluator's walk, one block of moduli at a time: only |f| and |df|
        span the rule's nodes, and they do not grow with the number of
        draws.  A row's margin does not depend on its batch, since the
        evaluator pads every batch to its row multiple.
        """
        ev = GridEvaluator(self, _margin_rule())
        rows = np.atleast_2d(coefficient_rows)
        # a lone last row joins the block before it: numpy sums the rms of
        # a single row pairwise, but of a taller block one node at a time
        starts = list(range(0, rows.shape[0] - 1, _MARGIN_BLOCK)) or [0]
        return np.concatenate([self._margins(ev, rows[lo:hi])
                               for lo, hi in zip(starts, starts[1:] + [rows.shape[0]])])

    def _margins(self, ev, coefficient_rows):
        # |f| and |df| on every node, written block by block from the walk,
        # each the transpose of a contiguous (nodes, rows) array like the
        # walk's blocks: the layout fixes the order the rms sums in, and so
        # the bits of the margins
        shape = (len(ev.points), len(coefficient_rows))
        fabs, dfabs = np.empty(shape).T, np.empty(shape).T
        for nodes, f, (x1, x2) in ev.walk(coefficient_rows, slots=True):
            np.abs(f, out=fabs[:, nodes])
            ev.gradient_magnitude(x1, x2, nodes, out=dfabs[:, nodes])
        rms = np.sqrt(np.mean(np.square(fabs), axis=1))
        # the minimum of |df| over the near-zero nodes: mask the others in place
        near = fabs <= 0.3 * rms[:, None]
        np.copyto(dfabs, np.inf, where=~near)
        margins = dfabs.min(axis=1) / (self.k * np.maximum(rms, 1e-300))
        margins[rms == 0.0] = 0.0
        return margins


# Rows batch_margins screens at once: each of its node arrays holds this
# many rows, whatever the number of draws.
_MARGIN_BLOCK = 256


@functools.cache
def _margin_rule():
    """Default rule of batch_margins, built once per process: rules are
    never mutated, and the build evaluates the contact volume symbolically."""
    return SphereRule(8)


class NodeEvaluator:
    """Design matrix of one ensemble bound to a fixed, scattered point set.

    Its walk is one block of all nodes: f is a plain matrix product, so
    batches of draws evaluate at BLAS speed; first derivatives reuse two
    auxiliary products (degree-weighted matrices) and are assembled
    pointwise for any direction field, exploiting that the monomial
    coordinates never vanish at interior quadrature nodes.  values and
    slot1_sums gather the blocks of any walk, this one's or
    GridEvaluator's, into arrays over every node.  With node weights,
    mean_square is the direct weighted mean of |f|^2, the reference for
    GridEvaluator's.  Product rules use GridEvaluator, which overrides
    the walk alone and shares the rest.
    """

    def __init__(self, ensemble: RandomEnsemble, points, weights=None):
        self._bind(ensemble, points, weights)
        self.matrix = ensemble.table.design_matrix(ensemble.alphas, self.points,
                                                   extra_scale=ensemble.component_weights)

    def _bind(self, ensemble, points, weights):
        """Nodes, node weights and degrees, which the derivative assembly
        and mean_square read."""
        self.ensemble = ensemble
        self.points = np.atleast_2d(np.asarray(points, dtype=complex))
        self.weights = weights
        alphas = np.asarray(ensemble.alphas, dtype=float)
        self._deg1 = alphas[:, 0]
        self._deg2 = alphas[:, 1]
        self._z1 = self.points[:, 0]
        self._z2 = self.points[:, 1]

    def values(self, a):
        """f at the nodes for each coefficient row: (ntrials, npoints)."""
        return self._gather((nodes, (f,)) for nodes, f in self.walk(a))[0]

    def slot1_sums(self, a):
        """Degree-weighted sums feeding any directional derivative."""
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        return self._gather(self._walk(a, (self._deg1, self._deg2)))

    def _gather(self, blocks):
        """The (nodes, arrays) blocks of a walk copied into arrays over every
        node, each the transpose of a contiguous (nodes, rows) array."""
        outs = None
        for nodes, arrays in blocks:
            if outs is None:
                outs = tuple(np.empty((len(self.points), len(x)), dtype=x.dtype).T
                             for x in arrays)
            for out, x in zip(outs, arrays):
                out[:, nodes] = x
        return outs

    def mean_square(self, a):
        """s^2 = sum w |f|^2 / sum w over the nodes, one per coefficient
        row: the scale of the Monte Carlo pairing's regularization
        |f|^2 + delta s^2."""
        fsq = np.abs(self.values(a))
        np.square(fsq, out=fsq)
        return fsq @ (self.weights / self.weights.sum())

    def walk(self, a, slots=False):
        """f, and with slots its slot sums (x1, x2), for the rows of
        coefficients a, one block of nodes at a time.

        Yields (nodes, f) for consecutive node slices, or with slots
        (nodes, f, (x1, x2)), each array (rows, block nodes); the kappa = 1
        constant, of degree (0, 0), adds 0 to the slot sums.  slots is
        True for both slot sums or a pair of flags, one per slot: a slot
        whose flag is False is not synthesized, and yields None (a
        pairing's RegularizedPairing.slots).  A block's arrays are buffers
        that the next block overwrites, so the caller may consume them in
        place but must not keep them.
        """
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        live = (slots, slots) if isinstance(slots, bool) else tuple(slots)
        degrees = [d for d, keep in zip((self._deg1, self._deg2), live) if keep]
        for nodes, (vals, *sums) in self._walk(a, (None, *degrees)):
            if not slots:
                yield nodes, vals
                continue
            sums = iter(sums)
            yield nodes, vals, tuple(next(sums) if keep else None for keep in live)

    def _walk(self, a, degrees):
        """(nodes, (sums of the coefficient rows a times each degree vector
        on those nodes)), None standing for a itself; the dense reference
        walks all its nodes as one block."""
        yield slice(None), tuple((a if d is None else a * d) @ self.matrix.T
                                 for d in degrees)

    def directional_derivative(self, x1, x2, direction):
        """df along an ambient complex direction field (npoints, 2).

        For the monomial part, d(z^alpha)(u) = (alpha_1 u_1 / z_1 +
        alpha_2 u_2 / z_2) z^alpha; the constant, alpha = (0, 0), drops out.
        """
        u = np.atleast_2d(np.asarray(direction, dtype=complex))
        c1 = u[..., 0] / self._z1
        c2 = u[..., 1] / self._z2
        return x1 * c1[None, :] + x2 * c2[None, :]

    def gradient_magnitude(self, x1, x2, nodes=slice(None), out=None):
        """|holomorphic gradient| = sqrt(|df/dz1|^2 + |df/dz2|^2) from the
        slot sums on the nodes given (into out, if given); it vanishes
        exactly where the full differential of the restriction to the
        sphere vanishes."""
        return _accel.gradient_norm(x1 / self._z1[None, nodes],
                                    x2 / self._z2[None, nodes], out)


# Batches are padded with zero rows to a multiple of this: BLAS blocks
# the row dimension by it and rounds a remainder block differently.
_ROW_MULTIPLE = 4


class GridEvaluator(NodeEvaluator):
    """Evaluator on a product rule by two dense matrix products per batch.

    The rule's nodes are (rho1 e^{2 pi i i1/N}, rho2 e^{2 pi i i2/N}) over
    M modulus pairs (rule.torus_grid()), so the normalized monomial with
    exponents (a, b) is its value at (rho1, rho2) times the character
    e^{2 pi i (a i1 + b i2)/N}.  The components fall into A groups by
    a' = a mod N.  Each group has an (M N, |group|) matrix K of modulus
    factor times i2-character, rows in (m, i2) order, and one (N, A)
    matrix E[i1, a'] holds the i1-characters (sum factorization): M N dim
    numbers in all, never nodes x dim.  Degrees of N and above share the
    character of their residue and stay exact on the grid.

    Synthesis runs over blocks of consecutive moduli, each a contiguous
    slice of N^2 nodes per modulus: one product K[block] @ coefficients
    per group gives H[a', (m, i2), row] in a work buffer, then
    out[m] = E @ H[:, m] for every modulus of the block, in node order.
    A block holds as many moduli as keep one (rows, block nodes) complex
    array within BLOCK_BYTES, and at least one.  walk is the only
    synthesis: f and its slot sums go block by block into buffers of one
    block, which the next block reuses, so a Monte Carlo micro-batch
    holds no array over the whole rule.  Its s^2 comes from the
    coefficients instead (mean_square, by discrete Parseval).  Each
    walk makes one allocation for its buffers and H: split over several
    smaller arrays, a micro-batch's memory went back to the system and
    came back as fresh pages every batch (variance-cr on the mc-scan
    benchmark config: 53k minor faults, against 13k in one).  Blocks
    keep the rows on the last axis: each is the transpose of a
    contiguous (nodes, rows) array, which numpy's elementwise loops run
    over fastest.  Each row's values are bitwise independent of the
    batch it came in, since batches are padded to _ROW_MULTIPLE rows,
    and of the block budget, since every modulus runs the same products.
    """

    def __init__(self, ensemble: RandomEnsemble, rule):
        self._bind(ensemble, rule.points, rule.weights)
        moduli, nang = rule.torus_grid()
        factors = ensemble.table.design_matrix(ensemble.alphas, moduli,
                                               extra_scale=ensemble.component_weights)
        alphas = np.asarray(ensemble.alphas, dtype=np.int64)
        residues = alphas[:, 0] % nang
        self._order = np.argsort(residues, kind="stable")
        bins, counts = np.unique(residues, return_counts=True)
        ends = np.cumsum(counts)
        self._groups = list(zip(ends - counts, ends))
        angles = np.arange(nang)
        # e^{2 pi i j / N} looked up by j mod N, so that equal phases are equal numbers
        chars = np.exp(2j * math.pi * angles / nang)
        self._factors = [
            (factors[:, None, group] * chars[np.outer(angles, alphas[group, 1]) % nang])
            .reshape(-1, len(group))
            for group in (self._order[lo:hi] for lo, hi in self._groups)]
        self._chars = chars[np.outer(angles, bins) % nang]
        self._grid = (factors.shape[0], nang)
        # the moduli are real, and so is every modulus factor
        self._modulus_factors = factors.real

    @functools.cached_property
    def _parseval(self):
        """The quadratic form of s^2 in the coefficients, built on first use.

        A node (m, i1, i2) has weight w_m, and f there is sum_alpha c_alpha
        P[m, alpha] e^{2 pi i (alpha . i)/N} with P the real modulus
        factors (the kappa = 1 constant: alpha = (0, 0), factor kappa).
        Summing the characters over both angles leaves N^2 for alpha = beta
        mod N and 0 otherwise, so

            sum w |f|^2 = N^2 sum_{alpha = beta mod N} M[alpha, beta] Re(conj(c_alpha) c_beta),

        with M = sum_m w_m P[m, alpha] P[m, beta].  Returns the diagonal
        weights of |c_alpha|^2, the pairs alpha != beta of one residue class
        (each once) and their weights (twice M), all divided by sum w.
        """
        nmod, nang = self._grid
        w = self.weights.reshape(nmod, nang * nang)
        if np.any(w != w[:, :1]):
            raise ValueError("the rule's weights vary over the angle grid of a modulus")
        factors = self._modulus_factors
        alphas = np.asarray(self.ensemble.alphas, dtype=np.int64)
        classes = alphas[:, 0] % nang * nang + alphas[:, 1] % nang
        order = np.argsort(classes, kind="stable")
        members = np.split(order, np.flatnonzero(np.diff(classes[order])) + 1)
        first, second = np.array([pair for group in members
                                  for pair in itertools.combinations(group, 2)],
                                 dtype=np.int64).reshape(-1, 2).T
        wm = w[:, 0] * (nang * nang / self.weights.sum())
        return (wm @ np.square(factors), first, second,
                2.0 * (wm @ (factors[:, first] * factors[:, second])))

    def mean_square(self, a):
        """s^2 = sum w |f|^2 / sum w over the rule, one per coefficient row,
        from the coefficients alone (_parseval): no node array is made, and
        the padding rows of a synthesis never enter.  Raises ValueError if
        the rule's weights vary within a modulus."""
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        diag, first, second, cross = self._parseval
        x, y = a[:, first], a[:, second]
        return ((np.square(a.real) + np.square(a.imag)) @ diag
                + (x.real * y.real + x.imag * y.imag) @ cross)

    def _fill(self, coeffs, m0, m1, dest, work):
        """Monomial sums of the moduli m0 <= m < m1 into dest, shaped
        (m1 - m0, N, N rows)."""
        nang = self._grid[1]
        h = work[:, :(m1 - m0) * nang]
        for factor, (lo, hi), part in zip(self._factors, self._groups, h):
            np.matmul(factor[m0 * nang:m1 * nang], coeffs[lo:hi], out=part)
        np.matmul(self._chars, h.reshape(len(h), m1 - m0, -1).transpose(1, 0, 2), out=dest)

    def _walk(self, a, degrees):
        """Monomial sums of the coefficient rows a times each degree
        vector (None: a itself), one block of moduli at a time: yields
        (node slice, (one array per entry)), buffers of one block that the
        next block overwrites.  One allocation holds them and the work
        buffer H."""
        nrows, ncomp = a.shape
        pad = np.zeros((-nrows % _ROW_MULTIPLE, ncomp), dtype=complex)
        coeffs = np.concatenate([a, pad]).T[self._order]
        rows = coeffs.shape[1]
        nmod, nang = self._grid
        step = min(nmod, max(1, _accel.BLOCK_BYTES // (16 * nang * nang * rows)))
        size = len(degrees) * step * nang * nang * rows
        arena = np.empty(size + len(self._groups) * step * nang * rows, dtype=complex)
        outs = arena[:size].reshape(len(degrees), step, nang, nang * rows)
        work = arena[size:].reshape(len(self._groups), step * nang, rows)
        cs = [coeffs if d is None else coeffs * d[self._order][:, None] for d in degrees]
        for m0 in range(0, nmod, step):
            m1 = min(m0 + step, nmod)
            dests = [out[:m1 - m0] for out in outs]
            for c, dest in zip(cs, dests):
                self._fill(c, m0, m1, dest, work)
            yield (slice(m0 * nang * nang, m1 * nang * nang),
                   tuple(dest.reshape(-1, rows).T[:nrows] for dest in dests))
