"""Label-only average-case learner: random probing, then per-gap binary search.

Phase 1 queries uniformly random not-yet-queried points until either every
point has been queried (case "a") or the queried points, read in sorted
order, show d sign flips (case "b").  With a hidden polynomial of exactly d
real roots, d flips pin one root per flip gap, so each gap's boundary is
found by binary search (``iterative.find_flip``, the same search the
iterative learner runs on a segment) and every other point inherits the
sign of its bracketing queried neighbours.

Phase 1 keeps each probe's sign in a list beside the sorted probe indices
and updates the flip count from the new probe's neighbours alone.  It reads
the probe order and the points one Python scalar at a time (``.item``), so
no numpy scalar is made per probe and the permutation is never converted
whole.  Phase 2's query count is the oracle's, taken before and after.
"""

from __future__ import annotations

from bisect import bisect_left
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
    at = rng.permutation(n).item  # uniform probing without replacement
    point = instance.points.item  # Python scalars: no numpy scalar per probe
    query = oracle.query

    queried: list[int] = []  # sorted point indices
    signs: list[int] = []  # signs[j] is the sign at queried[j]
    flips = 0
    case = "a"
    for k in range(n):  # k points queried so far
        idx = at(k)
        s = query(point(idx), 0)
        pos = bisect_left(queried, idx)
        # s between two queried neighbours adds 2 flips if they agree and it
        # differs, else none; at an end it adds 1 if it differs from the one
        if 0 < pos < k:
            if signs[pos - 1] == signs[pos] != s:
                flips += 2
        elif k and signs[pos - 1 if pos else 0] != s:
            flips += 1
        queried.insert(pos, idx)
        signs.insert(pos, s)
        if flips > d_roots:
            raise DegreeViolation(f"{flips} flips seen but only {d_roots} roots promised")
        if flips == d_roots and d_roots > 0:
            case = "b"
            break

    z = len(queried)
    labels = np.zeros(n, dtype=np.int8)
    if case == "a":
        labels[queried] = signs
        return AvgCaseResult(labels=labels, z=z, search_queries=0, case="a", flips=flips)

    def ask(i: int) -> int:
        return query(point(i), 0)

    # locate each flip boundary among the points strictly inside its gap
    before = oracle.ledger.total
    boundaries = []  # index b: sign changes between points b and b+1
    for j in range(z - 1):
        if signs[j] != signs[j + 1]:
            boundaries.append(find_flip(ask, queried[j], queried[j + 1], signs[j]))
    search_queries = oracle.ledger.total - before

    sign = signs[0]
    prev = 0
    for b in boundaries:
        labels[prev : b + 1] = sign
        sign = -sign
        prev = b + 1
    labels[prev:] = sign
    return AvgCaseResult(labels=labels, z=z, search_queries=search_queries, case="b", flips=flips)
