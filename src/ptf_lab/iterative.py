"""Deterministic level-by-level learner.

Works down from the highest informative derivative (order d-1, a linear
function) to the labels (order 0).  At each level the points are split into
contiguous segments on which all higher, already-learned derivative signs
are constant; the current derivative is monotone on each such segment, so a
single binary search per segment labels it.  Equal endpoint signs
short-circuit the search: a monotone function whose endpoints share a sign
(with sign(0) = +1) has that sign on the whole segment.

No (point, order) query is ever asked twice, so the learner keeps no memo:
a level asks about one order only, its segments are disjoint, and a
segment's search asks its two endpoints, then only midpoints strictly inside
a bracket that shrinks with every probe.

The resulting worst-case query count is the assertable bound
``query_bound(d, n)``; no d-th order query is ever issued.

``find_flip`` is the one monotone flip search of the package: it serves the
segment search here and the per-gap search of ``sample_search``.
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
    labels: np.ndarray
    level_signs: dict[int, np.ndarray]  # order -> signs at every point
    segment_counts: dict[int, int]  # order -> number of segments searched


def learn_all(instance: Instance, oracle: Oracle) -> IterativeResult:
    """Learn signs of every derivative level from d-1 down to 0.

    Requires a full oracle (orders 0..d-1).  Output labels are exact on
    every instance; total queries never exceed query_bound(d, n).
    """
    d = instance.d
    if oracle.orders != d:
        raise ValueError("iterative learner needs orders 0..d-1")
    xs = instance.points.tolist()  # Python floats: no numpy scalar per probe
    n = len(xs)
    query = oracle.query
    changes = np.zeros(max(n - 1, 0), dtype=bool)  # a higher level's sign changes after i
    level_signs: dict[int, np.ndarray] = {}
    segment_counts: dict[int, int] = {}
    for order in range(d - 1, -1, -1):

        def ask(i: int) -> int:
            return query(xs[i], order)

        signs = np.empty(n, dtype=np.int8)
        ends = np.flatnonzero(changes).tolist() + [n - 1] if n else []
        lo = 0
        for hi in ends:  # the segment lo..hi, on which this order is monotone
            s_lo = ask(lo)
            s_hi = ask(hi) if hi > lo else s_lo
            if s_lo == s_hi:
                signs[lo : hi + 1] = s_lo
            else:
                a = find_flip(ask, lo, hi, s_lo)
                signs[lo : a + 1] = s_lo
                signs[a + 1 : hi + 1] = s_hi
            lo = hi + 1
        changes |= signs[1:] != signs[:-1]
        level_signs[order] = signs
        segment_counts[order] = len(ends)
    return IterativeResult(
        labels=level_signs[0], level_signs=level_signs, segment_counts=segment_counts
    )
