"""Dense univariate polynomials over two numeric backends.

A polynomial is a coefficient vector (index i = coefficient of x**i) over
either exact rationals (``fractions.Fraction`` / ``int``) or float64.  The
exact backend never rounds, which is what the adversarial constructions and
small-scale ground-truth checks need; the float backend is for large sweeps.

Exact signs come from one integer kernel.  At construction an exact
polynomial also stores its coefficients as integers c_i over their positive
lcm denominator D.  ``eval_sign`` at x = a/b (b > 0) returns the sign of
sum(c_i a**i b**(deg-i)) = D * b**deg * p(x), computed by integer Horner
with no gcds and no ``Fraction`` objects.  ``eval_sign_many`` gives the
same signs at many points: float Horner in numpy on the float backend (the
same operations, in the same order, as ``eval``), and ``eval_sign`` per
point on the exact backend.  ``eval`` is for values: on the exact backend it
is ``Fraction`` Horner.  An exact derivative is built on the integers alone
(i * c_i over the same D); its ``Fraction`` coefficients are made only when
``coeffs`` is read.

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

EXACT = "exact"
FLOAT = "float"

Scalar = Union[int, Fraction, float]
SignPattern = tuple[int, ...]


class DuplicateRoots(ValueError):
    """Raised when a root list contains a repeated value."""


class BackendMismatch(TypeError):
    """Raised when exact and float values would silently mix."""


def sign_of(value) -> int:
    """Sign in {-1, +1} with sign(0) = +1."""
    return -1 if value < 0 else 1


def _is_exact(value) -> bool:
    return isinstance(value, Rational)  # int and Fraction, not float


_set = object.__setattr__  # bypasses Polynomial.__setattr__, which forbids mutation


class Polynomial:
    """Immutable dense polynomial tagged with its numeric backend.

    ``coeffs`` has trailing zeros stripped, so the last entry is the leading
    coefficient unless the polynomial is identically zero (empty tuple,
    degree -1).  ``degree`` is the highest index with a nonzero coefficient.
    An exact polynomial also keeps ``_ints``, the coefficients times their
    positive lcm denominator ``_den``, for ``eval_sign``.
    """

    __slots__ = ("coeffs", "backend", "degree", "_ints", "_den")

    def __init__(self, coeffs: Iterable[Scalar], backend: str | None = None):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if backend is None:
            backend = EXACT if all(_is_exact(c) for c in coeffs) else FLOAT
        ints = den = None
        if backend == EXACT:
            if not all(_is_exact(c) for c in coeffs):
                raise BackendMismatch("exact polynomial given non-rational coefficients")
            # int() keeps numpy integers from wrapping in the Horner products
            den = math.lcm(*(int(c.denominator) for c in coeffs))
            ints = tuple(int(c.numerator) * (den // int(c.denominator)) for c in coeffs)
        elif backend == FLOAT:
            coeffs = [float(c) for c in coeffs]
        else:
            raise ValueError(f"unknown backend {backend!r}")
        coeffs = tuple(coeffs)
        _set(self, "coeffs", coeffs)
        _set(self, "backend", backend)
        _set(self, "degree", len(coeffs) - 1)
        _set(self, "_ints", ints)
        _set(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def _check_point(self, x):
        if self.backend == EXACT:
            if not (type(x) is Fraction or type(x) is int or _is_exact(x)):
                raise BackendMismatch("exact polynomial evaluated at non-rational point")
            return x
        return float(x)

    def eval(self, x: Scalar):
        """Horner evaluation of p(x) in the polynomial's own backend."""
        x = self._check_point(x)
        acc = 0 if self.backend == EXACT else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_sign(self, x: Scalar) -> int:
        """Sign of p(x); exact polynomials use integer Horner on ``_ints``."""
        if self.backend == FLOAT:
            return sign_of(self.eval(x))
        x = self._check_point(x)
        ints = self._ints
        if not ints:
            return 1
        a, b = int(x.numerator), int(x.denominator)
        acc, bpow = ints[-1], 1
        for c in ints[-2::-1]:
            bpow *= b
            acc = acc * a + c * bpow
        return sign_of(acc)

    def eval_sign_many(self, xs: Sequence[Scalar]) -> np.ndarray:
        """``eval_sign`` at every point of xs, as an int8 array."""
        if self.backend == FLOAT:
            xs = np.asarray(xs, dtype=np.float64)
            vals = np.polynomial.polynomial.polyval(xs, self.coeffs or (0.0,))
            return np.where(vals < 0, -1, 1).astype(np.int8)
        return np.fromiter((self.eval_sign(x) for x in xs), dtype=np.int8, count=len(xs))

    def derivative(self, order: int = 1) -> "Polynomial":
        """Formal derivative applied ``order`` times (order 0 returns self)."""
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        if order == 0:
            return self
        if self.backend == EXACT:
            ints = self._ints
            for _ in range(order):
                ints = tuple(i * ints[i] for i in range(1, len(ints)))
            return _ExactDerivative(ints, self._den)
        coeffs = self.coeffs
        for _ in range(order):
            coeffs = tuple(i * coeffs[i] for i in range(1, len(coeffs)))
        return Polynomial(coeffs, backend=FLOAT)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.backend == other.backend
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.backend, self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r}, backend={self.backend!r})"

    def to_json(self) -> dict:
        if self.backend == EXACT:
            coeffs = [f"{Fraction(c).numerator}/{Fraction(c).denominator}" for c in self.coeffs]
        else:
            coeffs = list(self.coeffs)
        return {"coeffs": coeffs, "backend": self.backend}

    @classmethod
    def from_json(cls, obj: dict) -> "Polynomial":
        backend = obj["backend"]
        if backend == EXACT:
            coeffs = [Fraction(c) for c in obj["coeffs"]]
        else:
            coeffs = [float(c) for c in obj["coeffs"]]
        return cls(coeffs, backend=backend)


class _ExactDerivative(Polynomial):
    """An exact derivative, built as the integers i * c_i over the parent's
    denominator.  Its ``Fraction`` coefficients, which the oracle never reads,
    are made on first use of ``coeffs``."""

    __slots__ = ()

    def __init__(self, ints: tuple[int, ...], den: int):
        _set(self, "backend", EXACT)
        _set(self, "degree", len(ints) - 1)
        _set(self, "_ints", ints)
        _set(self, "_den", den)

    @property
    def coeffs(self) -> tuple:
        try:
            return _COEFFS_SLOT.__get__(self)
        except AttributeError:
            coeffs = tuple(Fraction(c, self._den) for c in self._ints)
            _COEFFS_SLOT.__set__(self, coeffs)
            return coeffs


_COEFFS_SLOT = Polynomial.coeffs


def from_roots(roots: Sequence[Scalar], leading: int = 1, backend: str | None = None) -> Polynomial:
    """Expand ``leading * prod(x - r_i)`` to a coefficient vector.

    Roots must be pairwise distinct (the constructions this feeds require
    simple roots); equality is checked exactly, with no tolerance.
    """
    if leading not in (-1, 1):
        raise ValueError("leading sign must be -1 or +1")
    roots = sorted(roots)
    for a, b in zip(roots, roots[1:]):
        if a == b:
            raise DuplicateRoots(f"repeated root {a!r}")
    if backend is None:
        backend = EXACT if all(_is_exact(r) for r in roots) else FLOAT
    one = 1 if backend == EXACT else 1.0
    coeffs = [one]
    for r in roots:
        r = r if backend == EXACT else float(r)
        nxt = [0 * one] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += -r * c
            nxt[i + 1] += c
        coeffs = nxt
    if leading < 0:
        coeffs = [-c for c in coeffs]
    return Polynomial(coeffs, backend=backend)


def sign_pattern(p: Polynomial, x: Scalar, d: int) -> SignPattern:
    """Signs of p and its first d derivatives at x, as a (d+1)-tuple."""
    if p.degree > d:
        raise ValueError(f"polynomial degree {p.degree} exceeds ambient bound {d}")
    out = []
    q = p
    for _ in range(d + 1):
        out.append(q.eval_sign(x))
        q = q.derivative()
    return tuple(out)
