"""Checks of the sweep benchmark that share no code with ptf_lab.

The label reference is the exact sign of the hidden polynomial's own
coefficients at each sample point, with sign(0) = +1.  It never calls
``Polynomial.eval*``, ``Oracle`` or ``true_labels``: exact coefficients and
points are read as integers over a common denominator and evaluated by
homogeneous integer Horner.  Float inputs first go through a float64 filter
whose a priori error bound certifies the sign; only points the bound cannot
certify are evaluated exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

_U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1000  # covers the absolute error of products that underflow


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def iterative_query_bound(d: int, n: int) -> int:
    """Sum over k = 1..d of (k(k-1)/2 + 1)(ceil(log2 n) + 2)."""
    return sum((k * (k - 1) // 2 + 1) * (ceil_log2(n) + 2) for k in range(1, d + 1))


def search_query_bound(d: int, n: int) -> int:
    """sample_search's second phase: one binary search per root, d(ceil(log2 n) + 2)."""
    return d * (ceil_log2(n) + 2)


def _integer_coeffs(coeffs: Sequence) -> list[int]:
    """Coefficients times the positive lcm of their denominators."""
    fracs = [Fraction(c) for c in coeffs]  # exact for int, Fraction and float
    den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [f.numerator * (den // f.denominator) for f in fracs]


def _exact_sign(ints: list[int], x: Fraction) -> int:
    """Sign of sum(ints[i] * x**i) as b**deg * p(a/b) = sum(ints[i] a**i b**(deg-i))."""
    if not ints:
        return 1
    a, b = x.numerator, x.denominator
    acc, bpow = ints[-1], 1
    for c in reversed(ints[:-1]):
        bpow *= b
        acc = acc * a + c * bpow
    return -1 if acc < 0 else 1


def _float_filter(coeffs: Sequence[float], xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float64 Horner signs and a mask of the signs the error bound certifies.

    For Horner's rule without fused multiply-add, |p(x) - fl(p(x))| <=
    gamma_{2d} * sum |c_i| |x|^i with gamma_k = k u / (1 - k u) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 5.3).  The
    sum is itself computed by Horner on non-negative data, which errs by the
    same relative gamma_{2d}; the factor 4 covers that and the rounding of
    the bound.  Products that underflow add at most 2^-1075 each, amplified
    by at most 1 where |x| <= 1, which _TINY covers; points with |x| > 1 are
    left uncertified.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    deg = len(c) - 1
    value = np.full(xs.shape, c[-1])
    absum = np.full(xs.shape, abs(c[-1]))
    ax = np.abs(xs)
    for ci in c[-2::-1]:
        value = value * xs + ci
        absum = absum * ax + abs(ci)
    k = 2 * deg
    gamma = k * _U / (1 - k * _U)
    certified = (np.abs(value) > 4 * gamma * absum + _TINY) & (ax <= 1.0)
    return np.where(value < 0, -1, 1).astype(np.int8), certified


def exact_labels(coeffs: Sequence, points) -> np.ndarray:
    """Exact sign, in {-1, +1} with sign(0) = +1, of sum(coeffs[i] x**i) at each point.

    ``coeffs`` are ints, Fractions or floats, each read as the rational it
    denotes; ``points`` is a float64 array or a sequence of Fractions.  The
    float filter runs only when both are float, so it never rounds an input.
    """
    ints = _integer_coeffs(coeffs)
    if isinstance(points, np.ndarray) and ints and all(isinstance(c, float) for c in coeffs):
        signs, certified = _float_filter(coeffs, points.astype(np.float64))
        for i in np.flatnonzero(~certified):
            signs[i] = _exact_sign(ints, Fraction(float(points[i])))
        return signs
    return np.array([_exact_sign(ints, Fraction(x)) for x in points], dtype=np.int8)


def label_mismatches(labels, reference: np.ndarray) -> int:
    """Number of points whose label differs from the reference; all of them on a shape error."""
    labels = np.asarray(labels)
    if labels.shape != reference.shape:
        return len(reference)
    return int(np.count_nonzero(labels != reference))
