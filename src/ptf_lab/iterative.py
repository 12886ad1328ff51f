"""Deterministic level-by-level learner.

Works down from the highest informative derivative (order d-1, a linear
function) to the labels (order 0).  At each level the points fall into
segments on which every higher level's sign is constant, so the level's
derivative is monotone there: equal endpoint signs (sign(0) = +1) label a
segment, and otherwise one binary search finds its flip.  The segments are
a list of their last indices carried down from level to level, since a
level's sign changes only at those ends or at its flips, which join the
next level's list.  A level keeps its signs as runs, not as n-point arrays.

No (point, order) query is asked twice, so there is no memo: a level asks
about one order, its segments are disjoint, and a search asks its two ends,
then only midpoints strictly inside a shrinking bracket.  The worst case is
``query_bound(d, n)``; no d-th order query is issued.  ``find_flip``, the
package's one monotone flip search, serves ``sample_search`` as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .instances import Instance
from .oracle import Oracle


def segment_bound(d: int, level: int) -> int:
    """Max number of fixed-pattern segments at a level: k(k-1)/2 + 1, k = d - level."""
    k = d - level
    return k * (k - 1) // 2 + 1


def query_bound(d: int, n: int) -> int:
    """Deterministic worst-case query count of learn_all; d and n must be >= 1."""
    if d < 1 or n < 1:
        raise ValueError(f"query_bound needs d >= 1 and n >= 1, got d={d}, n={n}")
    log_term = (n - 1).bit_length() + 2  # ceil(log2 n) + 2, exact for every n >= 1
    return sum(segment_bound(d, level) for level in range(d)) * log_term


def find_flip(ask: Callable[[int], int], a: int, b: int, s_a: int) -> int:
    """Last index of a monotone stretch a..b that still has sign s_a.

    Needs ask(a) = s_a != ask(b), which the caller has already seen.  Probes
    the midpoint (a + b) // 2 until a and b are adjacent: at most
    ceil(log2(b - a)) calls of ask.
    """
    while b - a > 1:
        mid = (a + b) // 2
        if ask(mid) == s_a:
            a = mid
        else:
            b = mid
    return a


@dataclass
class IterativeResult:
    """Labels, segment counts and each level's runs, left to right, as [sign,
    length, sign, length, ...]; ``level_signs`` expands them to n signs on read."""

    labels: np.ndarray
    runs: dict[int, list[int]]
    segment_counts: dict[int, int]  # order -> number of segments searched

    @property
    def level_signs(self) -> dict[int, np.ndarray]:
        return {order: _expand(run) for order, run in self.runs.items()}


def _expand(run: list[int]) -> np.ndarray:
    return np.repeat(np.array(run[::2], dtype=np.int8), run[1::2])


def learn_all(instance: Instance, oracle: Oracle) -> IterativeResult:
    """Learn signs of every derivative level from d-1 down to 0.

    Requires a full oracle (orders 0..d-1).  Output labels are exact on
    every instance; total queries never exceed query_bound(d, n).
    """
    if oracle.orders != instance.d:
        raise ValueError("iterative learner needs orders 0..d-1")
    xs = instance.points.tolist()  # Python floats: no numpy scalar per probe
    query = oracle.query
    ends = [len(xs) - 1] if xs else []  # the last index of each segment of the level
    runs, segment_counts = {}, {}
    for order in reversed(range(instance.d)):
        def ask(i: int) -> int:
            return query(xs[i], order)

        run, next_ends, lo = [], [], 0
        for hi in ends:  # the segment lo..hi, on which this order is monotone
            s_lo = query(xs[lo], order)
            s_hi = query(xs[hi], order) if hi > lo else s_lo
            if s_lo != s_hi:
                a = find_flip(ask, lo, hi, s_lo)
                run += s_lo, a + 1 - lo
                next_ends.append(a)
                lo = a + 1
            run += s_hi, hi + 1 - lo
            next_ends.append(hi)
            lo = hi + 1
        runs[order] = run
        segment_counts[order] = len(ends)
        ends = next_ends
    return IterativeResult(_expand(runs[0]), runs, segment_counts)
