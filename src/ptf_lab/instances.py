"""Labeled-sample instances: a sorted point set, the hidden classifier and its roots.

The points are a strictly increasing float64 array; both draw modes make
such points.  A point given in another type must be a value float64 holds
exactly: one that would be rounded is rejected.

The hidden polynomial is what the oracle answers about; learners reach it
only through an Oracle.  Ground truth comes from the roots instead.  The
hidden polynomial is lead * prod(x - r) over its listed roots r, times a
factor that is positive at every sample point (1 for every instance the
library draws exactly, as it does by default), so its label at x is
lead * (-1)**#{roots > x}, and +1 on a root (sign(0) = +1).  Only callers
that name the ``FLOAT`` draw mode get a float64 expansion of uniform roots,
whose rounded coefficients need not change sign at those roots.  Roots keep
their own type (Dirichlet roots, in either draw mode, are ``Fraction``s off
the float grid).  ``true_labels`` places each root among the points with
``np.searchsorted`` on the root's nearest float, then compares the one point
that can equal that float with the root exactly.  It never evaluates the
polynomial, so it shares no code with the oracle's sign evaluation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polynomial import Polynomial


@dataclass(frozen=True)
class Instance:
    """Points, hidden polynomial, degree bound and roots, checked when made.

    Float64 points are checked in one strictly-increasing pass; NaN fails
    every comparison, so only the two ends need a finiteness test.
    """

    points: np.ndarray  # strictly increasing float64
    hidden: Polynomial
    d: int
    roots: tuple  # strictly increasing real roots where hidden changes sign

    def __post_init__(self):
        degree = self.hidden.degree
        if degree > self.d:
            raise ValueError("hidden degree exceeds the instance degree bound")
        pts = self.points
        if not (isinstance(pts, np.ndarray) and pts.dtype == np.float64):
            given = list(pts)
            pts = np.array([float(p) for p in given], dtype=np.float64)
            if any(Fraction(f) != p for f, p in zip(pts.tolist(), given)):
                raise ValueError("points must be float64 values; one would be rounded")
            object.__setattr__(self, "points", pts)
        # one pass: NaN fails every comparison, so strictly increasing points
        # are finite when their two ends are
        if pts.size and not (
            math.isfinite(pts[0]) and math.isfinite(pts[-1]) and (pts[1:] > pts[:-1]).all()
        ):
            raise ValueError("points must be finite and strictly increasing")
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
    # float(r) is the float nearest r, so a point equal to float(r) is the
    # only one that can lie on another side of r than of float(r); a
    # Fraction's int / int division rounds as float(r) does, and is faster
    keys = [r.numerator / r.denominator if type(r) is Fraction else float(r) for r in roots]
    sign = instance.hidden.leading_sign
    if len(roots) % 2:
        sign = -sign
    # runs of equal labels: below each root, on it, and above the last one
    values, counts, start = [], [], 0
    for lo, key, r in zip(np.searchsorted(pts, keys).tolist(), keys, roots):
        hi = lo
        if lo < len(pts) and pts[lo] == key:  # place that point exactly
            if key < r:
                lo = hi = lo + 1
            elif key == r:
                hi = lo + 1
        values += (sign, 1)
        counts += (lo - start, hi - lo)
        start = hi
        sign = -sign
    values.append(sign)
    counts.append(len(pts) - start)
    return np.repeat(np.array(values, dtype=np.int8), counts)
