"""Deterministic level-by-level learner.

Works down from the highest informative derivative (order d-1, a linear
function) to the labels (order 0).  At each level the points are split into
contiguous segments on which all higher, already-learned derivative signs
are constant; the current derivative is monotone on each such segment, so a
single binary search per segment labels it.  Equal endpoint signs
short-circuit the search: a monotone function whose endpoints share a sign
(with sign(0) = +1) has that sign on the whole segment.

The resulting worst-case query count is the assertable bound
``query_bound(d, n)``; no d-th order query is ever issued.

``find_flip`` is the one monotone flip search of the package: it serves
``binary_search_segment`` here and the per-gap search of ``sample_search``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .instances import Instance
from .oracle import Oracle

Segment = tuple[int, int]  # inclusive point-index range


def segment_bound(d: int, level: int) -> int:
    """Max number of fixed-pattern segments at a level: k(k-1)/2 + 1, k = d - level."""
    k = d - level
    return k * (k - 1) // 2 + 1


def query_bound(d: int, n: int) -> int:
    """Deterministic worst-case query count of learn_all for any instance."""
    log_term = math.ceil(math.log2(n)) + 2 if n > 1 else 2
    return sum((k * (k - 1) // 2 + 1) * log_term for k in range(1, d + 1))


def partition_fixed_pattern(points: Sequence, higher_signs: Sequence[np.ndarray]) -> list[Segment]:
    """Contiguous segments on which every provided sign vector is constant."""
    n = len(points)
    if n == 0:
        return []
    if not higher_signs:
        return [(0, n - 1)]
    stacked = np.vstack(higher_signs)
    change = np.any(stacked[:, 1:] != stacked[:, :-1], axis=0)
    segments = []
    lo = 0
    for b in np.flatnonzero(change):
        segments.append((lo, int(b)))
        lo = int(b) + 1
    segments.append((lo, n - 1))
    return segments


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


def binary_search_segment(
    points: Sequence,
    seg: Segment,
    order: int,
    oracle: Oracle,
    memo: dict | None = None,
) -> np.ndarray:
    """Signs of the order-th derivative on a segment it is monotone on.

    Queries the two endpoints; if they agree the interior is inferred for
    free, otherwise the unique flip index is located by binary search.
    """
    lo, hi = seg
    if hi < lo:
        raise ValueError("empty segment")

    def ask(idx: int) -> int:
        if memo is not None:
            key = (idx, order)
            if key in memo:
                return memo[key]
            memo[key] = oracle.query(points[idx], order)
            return memo[key]
        return oracle.query(points[idx], order)

    out = np.empty(hi - lo + 1, dtype=np.int8)
    s_lo = ask(lo)
    if hi == lo:
        out[0] = s_lo
        return out
    s_hi = ask(hi)
    if s_lo == s_hi:
        out[:] = s_lo
        return out
    a = find_flip(ask, lo, hi, s_lo)
    out[: a - lo + 1] = s_lo
    out[a - lo + 1 :] = s_hi
    return out


@dataclass
class IterativeResult:
    labels: np.ndarray
    level_signs: dict[int, np.ndarray]  # order -> signs at every point
    segment_counts: dict[int, int]  # order -> number of segments searched


def learn_all(instance: Instance, oracle: Oracle) -> IterativeResult:
    """Learn signs of every derivative level from d-1 down to 0.

    Requires the full query set (orders 0..d-1).  Output labels are exact on
    every instance; total queries never exceed query_bound(d, n).
    """
    d = instance.d
    if not oracle.qset.is_full() or oracle.d != d:
        raise ValueError("iterative learner needs orders 0..d-1")
    points = instance.points
    memo: dict = {}
    level_signs: dict[int, np.ndarray] = {}
    segment_counts: dict[int, int] = {}
    for order in range(d - 1, -1, -1):
        higher = [level_signs[j] for j in range(order + 1, d)]
        segments = partition_fixed_pattern(points, higher)
        signs = np.empty(instance.n, dtype=np.int8)
        for seg in segments:
            signs[seg[0] : seg[1] + 1] = binary_search_segment(points, seg, order, oracle, memo)
        level_signs[order] = signs
        segment_counts[order] = len(segments)
    return IterativeResult(
        labels=level_signs[0], level_signs=level_signs, segment_counts=segment_counts
    )
