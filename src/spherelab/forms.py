"""Exact exterior calculus for polynomial-coefficient ambient forms on C^2.

Forms live on R^4 identified with C^2.  Internally every form is stored
in the complex covector basis dz_j, dconj(z_j) with monomial
coefficients in z and conj(z); this makes the exterior derivative and
its (1,0)/(0,1) split exact term manipulations, with no numerical
differentiation anywhere.  Constructors accept the real coordinates
x_0, ..., x_3 (x_{2j} + i x_{2j+1} = z_j) and convert exactly.

Coefficients are exact Gaussian rationals: a binary float converts to a
fraction without rounding, and d, the type split and the wedge product
only add and multiply them, so identities such as d(d(form)) = 0 hold
term by term rather than up to rounding.  Evaluation converts each
coefficient to a complex float once per call.

A direction for evaluation is a real tangent vector u in complex
packing, which evaluates covectors as dz_j -> u_j, dconj(z_j) ->
conj(u_j).  It is an array of shape (2,) or (npoints, 2), or a tuple of
the two per-coordinate columns in which None marks a component that
vanishes identically; evaluation then skips every product that contains
it.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

__all__ = ["PolyForm", "dz", "dzbar", "dx", "z_coord", "zbar_coord", "x_coord"]


def _permutation_sign(seq):
    """Sign (+1 or -1) of the permutation that sorts distinct items."""
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return (-1) ** inv


def _merge_sign(word_a, word_b):
    """Concatenate two strictly increasing covector words; None if repeated."""
    merged = tuple(word_a) + tuple(word_b)
    if len(set(merged)) != len(merged):
        return None, 0
    return tuple(sorted(merged)), _permutation_sign(merged)


class _Coeff:
    """Exact Gaussian rational re + i*im with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @classmethod
    def of(cls, value):
        """Exact coefficient of a number; floats convert without rounding."""
        if isinstance(value, cls):
            return value
        if isinstance(value, (int, np.integer)):
            return cls(Fraction(int(value)), Fraction(0))
        z = complex(value)
        try:
            return cls(Fraction(z.real), Fraction(z.imag))
        except (ValueError, OverflowError):
            raise ValueError(f"form coefficient must be finite, got {value!r}") from None

    def __add__(self, other):
        other = _Coeff.of(other)
        return _Coeff(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _Coeff(-self.re, -self.im)

    def __mul__(self, other):
        other = _Coeff.of(other)
        return _Coeff(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        try:
            other = _Coeff.of(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    __hash__ = None

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"_Coeff({complex(self)!r})"


@functools.cache
def _signed_permutations(p):
    """Permutations of range(p) with their signs, for Leibniz determinants."""
    return tuple((perm, _permutation_sign(perm)) for perm in itertools.permutations(range(p)))


class PolyForm:
    """Differential form with polynomial coefficients, complex basis.

    terms maps (word, exps) -> exact coefficient, where word is a
    strictly increasing tuple of covector ids (2j = dz_j, 2j+1 =
    dconj(z_j)) and exps is a tuple of 4 nonnegative exponents
    (z_0, conj(z_0), z_1, conj(z_1)).  PolyForm() is the zero form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = _Coeff.of(c)
                if c:
                    self.terms[key] = self.terms[key] + c if key in self.terms else c
            self.terms = {k: v for k, v in self.terms.items() if v}

    # ------------------------------------------------------------- basics
    @classmethod
    def constant(cls, value):
        return cls({((), (0, 0, 0, 0)): value})

    @classmethod
    def monomial(cls, coeff, exps, word=()):
        word = tuple(word)
        if any(word[i] >= word[i + 1] for i in range(len(word) - 1)):
            raise ValueError("covector word must be strictly increasing")
        return cls({(word, tuple(exps)): coeff})

    @property
    def degree(self):
        degs = {len(w) for w, _ in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("mixed-degree form has no single degree")
        return degs.pop()

    @property
    def bidegree(self):
        """(p, q) type; raises for mixed-type forms."""
        types = set()
        for word, _ in self.terms:
            p = sum(1 for c in word if c % 2 == 0)
            types.add((p, len(word) - p))
        if not types:
            return (0, 0)
        if len(types) > 1:
            raise ValueError("mixed-type form has no single bidegree")
        return types.pop()

    def __add__(self, other):
        if not isinstance(other, PolyForm):
            other = PolyForm.constant(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return PolyForm(out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return PolyForm({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, PolyForm):
            other = PolyForm.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, scalar):
        if isinstance(scalar, PolyForm):
            return self.wedge(scalar)
        scalar = _Coeff.of(scalar)
        return PolyForm({k: c * scalar for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        return self.__mul__(scalar)

    # ---------------------------------------------------------- operations
    def wedge(self, other):
        out = {}
        for (wa, ea), ca in self.terms.items():
            for (wb, eb), cb in other.terms.items():
                word, sign = _merge_sign(wa, wb)
                if sign == 0:
                    continue
                exps = tuple(a + b for a, b in zip(ea, eb))
                key = (word, exps)
                c = ca * cb if sign > 0 else -(ca * cb)
                out[key] = out[key] + c if key in out else c
        return PolyForm(out)

    def _derive(self, holomorphic):
        out = {}
        for (word, exps), c in self.terms.items():
            for j in range(2):
                # the exponent slot of z_j (or conj(z_j)) is also its covector id
                slot = 2 * j if holomorphic else 2 * j + 1
                e = exps[slot]
                if e == 0 or slot in word:
                    continue
                new_exps = list(exps)
                new_exps[slot] -= 1
                # prepend the covector, then sort into the word
                merged, sign = _merge_sign((slot,), word)
                if sign == 0:
                    continue
                key = (merged, tuple(new_exps))
                term = c * (sign * int(e))
                out[key] = out[key] + term if key in out else term
        return PolyForm(out)

    def partial_z(self):
        """Holomorphic exterior derivative (the (1,0) part of d)."""
        return self._derive(True)

    def partial_zbar(self):
        """Antiholomorphic exterior derivative (the (0,1) part of d)."""
        return self._derive(False)

    def d(self):
        """Exterior derivative; d(d(form)) vanishes identically."""
        return self.partial_z() + self.partial_zbar()

    # ---------------------------------------------------------- evaluation
    def _coefficient(self, points, word):
        """Coefficient polynomial of one covector word at points."""
        total = None
        for (w, exps), c in self.terms.items():
            if w != word:
                continue
            c = complex(c)
            mono = None
            for slot, e in enumerate(exps):
                if e:
                    z = points[:, slot // 2]
                    z = np.conj(z) if slot % 2 else z
                    # keep the power an unnamed temporary: numpy may then
                    # reuse its buffer with the operands swapped, and the
                    # rounding of a complex product depends on their order
                    mono = z ** e if mono is None else mono * z ** e
            value = np.full(points.shape[0], c) if mono is None else c * mono
            total = value if total is None else total + value
        return total

    def _words(self):
        """Covector words in order of first appearance."""
        return dict.fromkeys(word for word, _ in self.terms)

    def coefficient_values(self, points):
        """Coefficient polynomials evaluated at points, keyed by word."""
        points = np.atleast_2d(np.asarray(points, dtype=complex))
        return {word: self._coefficient(points, word) for word in self._words()}

    def evaluate(self, points, directions):
        """Value of the p-form on p direction fields at each point.

        directions is a sequence of real tangent vectors in complex
        packing: arrays of shape (2,) or (npoints, 2), or tuples of two
        columns with None for structural zeros.  Each word's determinant
        is the Leibniz sum over permutations of products of covector values,
        without the products that contain a structural zero; a constant
        direction stays a scalar per covector.  Coefficients are only
        evaluated for words whose determinant is not structurally zero.
        """
        points = np.atleast_2d(np.asarray(points, dtype=complex))
        npts = points.shape[0]
        if not self.terms:
            return np.zeros(npts, dtype=complex)
        p = self.degree
        if len(directions) != p:
            raise ValueError(f"form of degree {p} requires {p} directions")
        out = np.zeros(npts, dtype=complex)
        if p == 0:
            out += self._coefficient(points, ())
            return out
        # columns[s][c]: covector c (2j = dz_j, 2j+1 = dconj(z_j)) on direction s
        columns = [_covector_columns(u) for u in directions]
        perms = _signed_permutations(p)
        for word in self._words():
            det = None
            for perm, sign in perms:
                factors = [columns[perm[r]][word[r]] for r in range(p)]
                if any(f is None for f in factors):
                    continue
                term = factors[0]
                for f in factors[1:]:
                    term = term * f
                if det is None:
                    det = term if sign > 0 else -term
                else:
                    det = det + term if sign > 0 else det - term
            if det is not None:
                coeff = self._coefficient(points, word)
                out += coeff * det
        return out

    def sampled_cnorm(self, points, order=0):
        """Sup over sample points of coefficient magnitudes and their
        z/zbar-derivatives up to the given order; a sampling proxy for the
        C^order norm sufficient for polynomial coefficients."""
        best = 0.0
        stack = [self]
        for _ in range(order + 1):
            next_stack = []
            for form in stack:
                for vals in form.coefficient_values(points).values():
                    m = float(np.max(np.abs(vals))) if vals.size else 0.0
                    best = max(best, m)
                next_stack.extend([form.partial_z(), form.partial_zbar()])
            stack = next_stack
        return best

    def __repr__(self):
        return f"PolyForm(nterms={len(self.terms)})"


# ------------------------------------------------------------ constructors
def dz(j):
    return PolyForm.monomial(1.0, (0, 0, 0, 0), (2 * j,))


def dzbar(j):
    return PolyForm.monomial(1.0, (0, 0, 0, 0), (2 * j + 1,))


def z_coord(j):
    exps = [0, 0, 0, 0]
    exps[2 * j] = 1
    return PolyForm.monomial(1.0, exps)


def zbar_coord(j):
    exps = [0, 0, 0, 0]
    exps[2 * j + 1] = 1
    return PolyForm.monomial(1.0, exps)


def x_coord(i):
    """Real coordinate x_i as a 0-form (x_{2j} = Re z_j, x_{2j+1} = Im z_j)."""
    j, odd = divmod(i, 2)
    if odd:
        return (z_coord(j) - zbar_coord(j)) * (1.0 / 2j)
    return (z_coord(j) + zbar_coord(j)) * 0.5


def dx(i):
    """Real coordinate covector dx_i."""
    j, odd = divmod(i, 2)
    if odd:
        return (dz(j) - dzbar(j)) * (1.0 / 2j)
    return (dz(j) + dzbar(j)) * 0.5


def _covector_columns(u):
    """Values of dz_0, dconj(z_0), dz_1, dconj(z_1) on the direction u."""
    if not isinstance(u, tuple):
        u = np.asarray(u, dtype=complex)
        u = (u[..., 0], u[..., 1])
    return [None if c is None else part(c) for c in u for part in (np.asarray, np.conj)]
