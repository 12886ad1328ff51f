"""Dense univariate polynomials with rational coefficients and one certified sign kernel.

A polynomial is a coefficient vector (index i = coefficient of x**i), and
``Polynomial`` is its one class.  Every coefficient -- an int, ``Fraction``,
float or numpy integer -- is read as the exact rational it denotes.  At
construction a polynomial stores

- ``_ints``: the coefficients as integers c_i over their positive lcm
  denominator ``_den``;
- ``_floats``: each c_i / den correctly rounded to float64, stored from the
  leading coefficient down, in Horner's order;
- ``_bound``: an a priori bound on |fl(p^(x)) - p(x)| for float points
  |x| <= 1, where fl(p^(x)) is float64 Horner on ``_floats`` (no fused
  multiply-add).

``_bound`` covers three errors.  With u = 2^-53, eta = 2^-1075 (the largest
error of a product that underflows; float sums never err by underflow) and
S = sum |c^_i|:

- rounding the coefficients: |c_i - c^_i| <= u |c^_i| + eta, so p and p^
  differ by at most u S + (d + 1) eta;
- Horner on p^: at most gamma_2d S, gamma_k = k u / (1 - k u) (Higham,
  *Accuracy and Stability of Numerical Algorithms*, 2nd ed., eq. 5.3, with
  sum |c^_i| |x|^i <= S for |x| <= 1);
- underflow in Horner's d products: at most d eta (1 + gamma_2d) <= 2 d eta,
  since each such error is only scaled by later factors |x| <= 1.

The stored bound is 2 (gamma_2d + u) S + (3 d + 2) 2^-1074; the factor 2
absorbs the rounding of this float computation.  A polynomial whose S is
above 2^1000 or whose float copy overflows gets an infinite bound, so its
float Horner (which could overflow) never decides a sign.

Sign evaluation is one kernel, a float filter in front of integer Horner
(the adaptive-predicate pattern of Shewchuk, 1997).  ``eval_sign`` returns
the sign of the float Horner value at a float point with |x| <= 1 when that
value is above ``_bound`` or below ``-_bound``; the true value then has the
same sign.  A Python float takes this path as it is; a numpy float64 is
converted to one first.
``eval_sign_block`` does the same for a block of polynomials (rows) at an
array of points (columns): one array Horner pass over the whole block, on a
matrix of the rows' ``_floats`` right-aligned, zeros above each row's degree,
with each row certified by its own ``_bound``.  A leading zero leaves
Horner's value exactly as without it, so a padded row's floats are its own.
``eval_sign_many`` is the block's one-row case.  Every other point --
uncertified, |x| > 1, or not a float (huge ints, ``Fraction``) -- gets
integer Horner: at x = a/b (b > 0) the sign of
sum(c_i a**i b**(deg-i)) = D * b**deg * p(x).  NaN and infinite points and
coefficients raise (ValueError and OverflowError, from ``as_integer_ratio``);
they get no sign.

A derivative (i * c_i over the same D) and an exact ``from_roots`` expansion
(the integers of prod(b_i x - a_i)) are built by ``_from_ints`` from their
integers alone.  Draws are exact by default, so the float ``from_roots``
branch serves only the uniform roots of callers that name the ``FLOAT``
draw mode (Dirichlet roots are ``Fraction``s in both modes).  Until it goes,
``coeffs`` has two meanings: as given to ``Polynomial(coeffs)``, or
``Fraction``s made from the integers on first read and kept.

These signs are what the oracle answers.  Ground truth for labels does not
come from here: ``instances.true_labels`` reads it off the hidden
polynomial's roots.

Sign convention: sign(0) = +1 everywhere, with no tolerance band.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction, float]

_U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1074  # smallest subnormal, twice the underflow error eta
_MAX_SUM = 2.0**1000  # above this, float Horner could overflow


class DuplicateRoots(ValueError):
    """Raised when a root list contains a repeated value."""


def sign_of(value) -> int:
    """Sign in {-1, +1} with sign(0) = +1."""
    return -1 if value < 0 else 1


def _ratio(v) -> tuple[int, int]:
    """(a, b) with v = a / b and b > 0; raises on NaN and infinities."""
    try:
        return v.as_integer_ratio()  # int, Fraction, float and numpy floats
    except AttributeError:  # numpy integers
        return int(v.numerator), int(v.denominator)


_set = object.__setattr__  # bypasses Polynomial.__setattr__, which forbids mutation


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients, made by
    ``Polynomial(coeffs)`` or, from integers over a denominator, ``_from_ints``.

    ``coeffs`` has trailing zeros stripped, so the last entry is the leading
    coefficient unless the polynomial is identically zero (empty tuple,
    degree -1).  ``degree`` is the highest index with a nonzero coefficient.
    """

    __slots__ = ("_coeffs", "degree", "_ints", "_den", "_floats", "_bound")

    def __init__(self, coeffs: Iterable[Scalar]):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        ratios = [_ratio(c) for c in coeffs]
        den = math.lcm(*(b for _, b in ratios))
        self._set_exact(tuple(a * (den // b) for a, b in ratios), den, tuple(coeffs))

    def _set_exact(self, ints: tuple[int, ...], den: int, coeffs: tuple | None) -> None:
        """Store the coefficients (None: made on first read), integers, floats and bound."""
        _set(self, "_coeffs", coeffs)
        _set(self, "_ints", ints)
        _set(self, "_den", den)
        try:
            floats = tuple(c / den for c in reversed(ints))  # int / int rounds correctly
            total = math.fsum(map(abs, floats))
        except OverflowError:
            floats, total = (), math.inf
        deg = len(ints) - 1
        if not ints:
            bound = -1.0  # the zero polynomial's Horner value 0.0 is exact
        elif total <= _MAX_SUM:
            gamma = 2 * deg * _U / (1 - 2 * deg * _U)
            bound = 2 * (gamma + _U) * total + (3 * deg + 2) * _TINY
        else:
            bound = math.inf
        _set(self, "degree", deg)
        _set(self, "_floats", floats)
        _set(self, "_bound", bound)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as given, or, for a polynomial built from
        integers, ``Fraction``s made on first read and kept."""
        coeffs = self._coeffs
        if coeffs is None:
            coeffs = tuple(Fraction(c, self._den) for c in self._ints)
            _set(self, "_coeffs", coeffs)
        return coeffs

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        """Copy and pickle through the constructor; ``__setattr__`` forbids restoring slots."""
        return Polynomial, (self.coeffs,)

    @property
    def leading_sign(self) -> int:
        """Sign of the leading coefficient; +1 for the zero polynomial."""
        return -1 if self._ints and self._ints[-1] < 0 else 1

    def _exact_sign(self, x) -> int:
        """Sign of p(x) by integer Horner on ``_ints``."""
        a, b = _ratio(x)
        ints = self._ints
        if not ints:
            return 1
        acc, bpow = ints[-1], 1
        for c in ints[-2::-1]:
            bpow *= b
            acc = acc * a + c * bpow
        return sign_of(acc)

    def eval_sign(self, x: Scalar) -> int:
        """Exact sign of p(x), sign(0) = +1: certified float Horner, else integer Horner."""
        if type(x) is not float:
            if not isinstance(x, float):
                return self._exact_sign(x)
            x = float(x)  # numpy scalars make Python arithmetic slow
        if -1.0 <= x <= 1.0:
            acc = 0.0
            for c in self._floats:
                acc = acc * x + c
            bound = self._bound
            if acc > bound:
                return 1
            if acc < -bound:
                return -1
        return self._exact_sign(x)

    def eval_sign_many(self, xs: Sequence[Scalar]) -> np.ndarray:
        """``eval_sign`` at every point of xs, as an int8 array: a one-row block."""
        return eval_sign_block((self,), xs)[0]

    def derivative(self, order: int = 1) -> "Polynomial":
        """Formal derivative applied ``order`` times (order 0 returns self)."""
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        if order == 0:
            return self
        ints = self._ints
        for _ in range(order):
            ints = tuple(i * ints[i] for i in range(1, len(ints)))
        return _from_ints(ints, self._den)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def eval_sign_block(polys: Sequence[Polynomial], xs: Sequence[Scalar]) -> np.ndarray:
    """``polys[i].eval_sign(xs[j])`` as entry (i, j) of an int8 array."""
    pts, xs = xs, np.asarray(xs)
    # the filter runs on float arrays inside [-1, 1] (NaN fails the test)
    if xs.dtype != np.float64 or not (xs.size and np.abs(xs).max() <= 1.0):
        # the points as given: asarray rounds ints to floats beside a float
        # or beside ints of both signs that do not all fit in int64
        pts = pts.tolist() if isinstance(pts, np.ndarray) else list(pts)
        signs = [p.eval_sign(x) for p in polys for x in pts]
        return np.array(signs, dtype=np.int8).reshape(len(polys), len(pts))
    width = max([1] + [len(p._floats) for p in polys])
    cs = np.zeros((len(polys), width))
    for row, p in zip(cs, polys):
        row[width - len(p._floats) :] = p._floats
    if width == 1:
        vals = np.repeat(cs, len(xs), axis=1)
    else:  # Horner, one rounding per product and per sum
        vals = cs[:, :1] * xs
        vals += cs[:, 1:2]
        for k in range(2, width):
            vals *= xs
            vals += cs[:, k : k + 1]
    signs = np.where(vals < 0, np.int8(-1), np.int8(1))
    np.abs(vals, out=vals)
    unsure = vals <= np.array([p._bound for p in polys])[:, None]
    if unsure.any():
        for i, j in np.argwhere(unsure).tolist():
            signs[i, j] = polys[i]._exact_sign(float(xs[j]))
    return signs


def _from_ints(ints: tuple[int, ...], den: int) -> Polynomial:
    """sum(ints[i] x**i) / den as stored (den > 0, no trailing zero)."""
    p = object.__new__(Polynomial)
    p._set_exact(ints, den, None)
    return p


def from_roots(roots: Sequence[Scalar], leading: int = 1) -> Polynomial:
    """Expand ``leading * prod(x - r_i)`` to a coefficient vector.

    The expansion is exact when every root is an int or ``Fraction``, and in
    float64 otherwise.  Roots must be pairwise distinct (the constructions
    this feeds require simple roots); equality is checked exactly, with no
    tolerance.

    The exact expansion is prod(b_i x - a_i) over prod(b_i), for roots
    a_i / b_i, in integers; dividing out the common gcd leaves the integers
    over the lcm denominator that ``Polynomial`` itself would store.
    """
    if leading not in (-1, 1):
        raise ValueError("leading sign must be -1 or +1")
    roots = sorted(roots)
    for a, b in zip(roots, roots[1:]):
        if a == b:
            raise DuplicateRoots(f"repeated root {a!r}")
    if all(isinstance(r, Rational) for r in roots):
        ints, den = [leading], 1
        for r in roots:
            a, b = _ratio(r)
            nxt = [0] * (len(ints) + 1)
            for i, c in enumerate(ints):
                nxt[i] -= a * c
                nxt[i + 1] += b * c
            ints, den = nxt, den * b
        g = math.gcd(den, *ints)
        return _from_ints(tuple(c // g for c in ints), den // g)
    coeffs = [1.0]
    for r in roots:
        r = r * 1.0
        nxt = [0.0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += -r * c
            nxt[i + 1] += c
        coeffs = nxt
    if leading < 0:
        coeffs = [-c for c in coeffs]
    return Polynomial(coeffs)
