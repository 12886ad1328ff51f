"""Labeled-sample instances: a sorted point set, the hidden classifier and its roots.

The hidden polynomial is what the oracle answers about; learners reach it
only through an Oracle.  Ground truth comes from the roots instead.  The
hidden polynomial is lead * prod(x - r) over its listed roots r, times a
factor that is positive at every sample point (1 for every instance the
library draws), so its label at x is lead * (-1)**#{roots > x}, and +1 on a
root (sign(0) = +1).  ``true_labels`` finds each root's place among the
points by bisection and never evaluates the polynomial, so it shares no code
with the oracle's sign evaluation.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Union

import numpy as np

from .polynomial import Polynomial

Points = Union[np.ndarray, tuple]


@dataclass(frozen=True)
class Instance:
    points: Points  # strictly increasing; ndarray (float) or tuple of Fraction (exact)
    hidden: Polynomial
    d: int
    roots: tuple  # strictly increasing real roots where hidden changes sign

    def __post_init__(self):
        degree = self.hidden.degree
        if degree > self.d:
            raise ValueError("hidden degree exceeds the instance degree bound")
        pts = self.points
        if isinstance(pts, np.ndarray):
            if not np.all(pts[1:] > pts[:-1]):
                raise ValueError("points must be strictly increasing")
            roots = tuple(map(float, self.roots))
        else:
            pts = tuple(pts)
            object.__setattr__(self, "points", pts)
            if not all(map(operator.lt, pts, pts[1:])):
                raise ValueError("points must be strictly increasing")
            roots = tuple(self.roots)
        object.__setattr__(self, "roots", roots)
        if not all(map(operator.lt, roots, roots[1:])):
            raise ValueError("roots must be strictly increasing")
        # non-real roots and even multiplicities pair up, so the sign changes
        # number at most the degree and share its parity
        if len(roots) > max(degree, 0) or (degree >= 0 and (degree - len(roots)) % 2):
            raise ValueError(f"a degree-{degree} polynomial cannot change sign {len(roots)} times")

    @property
    def n(self) -> int:
        return len(self.points)


def true_labels(instance: Instance) -> np.ndarray:
    """Ground-truth labels at all points, from the roots and the leading sign.

    Points below every root get lead * (-1)**len(roots), each root passed
    flips the sign, and points on a root get +1.
    """
    pts, roots = instance.points, instance.roots
    if isinstance(pts, np.ndarray):
        below = np.searchsorted(pts, roots, side="left").tolist()
        upto = np.searchsorted(pts, roots, side="right").tolist()
    else:
        below = [bisect_left(pts, r) for r in roots]
        upto = [bisect_right(pts, r) for r in roots]
    coeffs = instance.hidden.coeffs
    sign = -1 if coeffs and coeffs[-1] < 0 else 1
    if len(roots) % 2:
        sign = -sign
    labels = np.empty(len(pts), dtype=np.int8)
    start = 0
    for lo, hi in zip(below, upto):
        labels[start:lo] = sign
        labels[lo:hi] = 1
        start = hi
        sign = -sign
    labels[start:] = sign
    return labels
