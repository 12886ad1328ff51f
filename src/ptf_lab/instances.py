"""Labeled-sample instances: a sorted point set plus the hidden classifier.

The hidden polynomial is ground truth for verification only; learners must
reach it exclusively through an Oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .polynomial import EXACT, FLOAT, Polynomial

Points = Union[np.ndarray, tuple]


@dataclass(frozen=True)
class Instance:
    points: Points  # strictly increasing; ndarray (float) or tuple of Fraction (exact)
    hidden: Polynomial
    d: int

    def __post_init__(self):
        if self.hidden.degree > self.d:
            raise ValueError("hidden degree exceeds the instance degree bound")
        pts = self.points
        if isinstance(pts, np.ndarray):
            if not np.all(pts[1:] > pts[:-1]):
                raise ValueError("points must be strictly increasing")
        else:
            object.__setattr__(self, "points", tuple(pts))
            pts = self.points
            if any(a >= b for a, b in zip(pts, pts[1:])):
                raise ValueError("points must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def backend(self) -> str:
        return FLOAT if isinstance(self.points, np.ndarray) else EXACT


def true_signs(instance: Instance, order: int = 0) -> np.ndarray:
    """Ground-truth signs of the hidden polynomial's order-th derivative at all points."""
    return instance.hidden.derivative(order).eval_sign_many(instance.points)


def true_labels(instance: Instance) -> np.ndarray:
    return true_signs(instance, 0)
