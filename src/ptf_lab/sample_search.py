"""Label-only average-case learner: random probing, then per-gap binary search.

Phase 1 queries uniformly random not-yet-queried points until either every
point has been queried (case "a") or the queried points, read in sorted
order, show d sign flips (case "b").  With a hidden polynomial of exactly d
real roots, d flips pin one root per flip gap, so each gap's boundary is
found by binary search (``iterative.find_flip``, the same search the
iterative learner runs on a segment) and every other point inherits the
sign of its bracketing queried neighbours.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .instances import Instance
from .iterative import find_flip
from .oracle import Oracle


class DegreeViolation(RuntimeError):
    """More sign flips observed than the promised number of real roots."""


@dataclass
class AvgCaseResult:
    """Outcome of one sample_and_search run.

    ``z`` is the probe count Z of phase 1.  For d distinct i.i.d. uniform
    roots and n i.i.d. uniform points, the first z probes and the roots are
    exchangeable, and d flips show exactly when each of the d+1 root gaps
    holds a probe, so P(Z <= z) = C(z-1, d) / C(z+d, d) for z < n.  Z = n in
    case "a".  For d = 1 this gives E[Z] = 2 H_n - 1 (H_n the n-th harmonic
    number) and Var Z ~ 4n: Z is heavy-tailed, so sample means of Z are
    poor estimators of E[Z].
    """

    labels: np.ndarray
    z: int  # queries spent in the probing phase
    search_queries: int
    case: str  # "a" (exhausted) or "b" (d flips seen)
    flips: int

    @property
    def total(self) -> int:
        return self.z + self.search_queries


def sample_and_search(
    instance: Instance, oracle: Oracle, d_roots: int, rng: np.random.Generator
) -> AvgCaseResult:
    """Perfectly label the sample using label queries only.

    ``d_roots`` is the promised number of distinct real roots of the hidden
    polynomial; phase 1 stops early once that many flips are visible.
    Raises DegreeViolation if more flips than promised ever show up.
    """
    n = instance.n
    points = instance.points
    order_of_query = rng.permutation(n)  # uniform probing without replacement

    queried: list[int] = []  # sorted point indices
    signs: dict[int, int] = {}
    flips = 0
    z = 0
    case = "a"

    def flip_delta(pos: int, idx: int, s: int) -> int:
        delta = 0
        left = queried[pos - 1] if pos > 0 else None
        right = queried[pos] if pos < len(queried) else None
        if left is not None and signs[left] != s:
            delta += 1
        if right is not None and signs[right] != s:
            delta += 1
        if left is not None and right is not None and signs[left] != signs[right]:
            delta -= 1
        return delta

    for idx in order_of_query:
        idx = int(idx)
        s = oracle.query(points[idx], 0)
        z += 1
        pos = bisect.bisect_left(queried, idx)
        flips += flip_delta(pos, idx, s)
        queried.insert(pos, idx)
        signs[idx] = s
        if flips > d_roots:
            raise DegreeViolation(f"{flips} flips seen but only {d_roots} roots promised")
        if flips == d_roots and d_roots > 0:
            case = "b"
            break

    labels = np.zeros(n, dtype=np.int8)
    search_queries = 0

    if case == "a":
        for idx, s in signs.items():
            labels[idx] = s
        return AvgCaseResult(labels=labels, z=z, search_queries=search_queries, case="a", flips=flips)

    def ask(idx: int) -> int:
        nonlocal search_queries
        search_queries += 1
        return oracle.query(points[idx], 0)

    # locate each flip boundary among the points strictly inside its gap
    boundaries = []  # index b: sign changes between points b and b+1
    for lo, hi in zip(queried, queried[1:]):
        if signs[lo] != signs[hi]:
            boundaries.append(find_flip(ask, lo, hi, signs[lo]))

    sign = signs[queried[0]]
    prev = 0
    for b in boundaries:
        labels[prev : b + 1] = sign
        sign = -sign
        prev = b + 1
    labels[prev:] = sign
    return AvgCaseResult(labels=labels, z=z, search_queries=search_queries, case="b", flips=flips)
