"""Randomized batch learner with the restricted monotone inference rule.

The learner takes alpha; d and n come from the instance.  Each outer
iteration repeatedly samples a batch of m points (with replacement),
queries their full sign patterns in one round, and stops once the batch's
patterns cover enough of the still-unknown points.  A point is inferred
exactly when it is sandwiched between two adjacent queried points with
identical full sign patterns: such a stretch is monotone with equal
endpoint labels, so the inferred label is always correct.  Once few enough
points remain they are queried exhaustively in a single final round.

The restricted rule needs the sign of every order 0..d-1 at both sandwich
endpoints; no inference is attempted from partial patterns.  The rule lives
in ``infer_labels``, which ``adversarial.count_restricted_inferences`` also
uses to count the points a witness leaves inferable.

Each round is one block request, ``oracle.query_batch(xs, range(d))``, and
its answer keeps the oracle's (orders x points) layout: row o holds the
signs of derivative o at the batch's points in x order, and row 0 is their
labels.  The bookkeeping is one sort of the m draws and a few linear array
passes per batch, with no binary search: the sampled positions are the
sorted draws with repeats dropped (no n-length mask); ``infer_labels``
labels every remaining point from its gap between queried points, repeating
each gap's label by the gap's length, taken from the positions by one
subtraction; and one ``known == 0`` pass per body finds the points still
unknown, whose count gives the body's coverage.  While every point
remains (the first outer iteration) the points are addressed directly,
with no index array over all n of them.  The generator is called exactly
once per batch, as ``rng.integers(0, len(remaining), size=m)``, and
nowhere else, so a seed fixes every batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import Instance
from .oracle import Oracle

# expected while-loop length per iteration is at most 2 batches
_LOOP_GUARD_FACTOR = 64


class NonTermination(RuntimeError):
    """A coverage loop ran far past its expected length; parameter or soundness bug."""


@dataclass(frozen=True)
class BatchParams:
    """Batch size and iteration cutoff derived from (d, n, alpha).

    k = d^2 + d + 3 points always contain three consecutive ones with equal
    sign patterns, so k bounds how many points per batch can stay
    uninferable; m = ceil(2k n^alpha) and t = ceil(log n / log(m / 2k)).
    """

    d: int
    n: int
    alpha: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not (1.0 / math.log(self.n) < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (1/log n, 1]")

    @property
    def k(self) -> int:
        return self.d * self.d + self.d + 3

    @property
    def m(self) -> int:
        return math.ceil(2 * self.k * self.n**self.alpha)

    @property
    def t(self) -> int:
        return math.ceil(math.log(self.n) / math.log(self.m / (2 * self.k)))

    @property
    def coverage_threshold(self) -> float:
        return (self.m - 2 * self.k) / self.m


def infer_labels(at: np.ndarray, size: int, patterns: np.ndarray) -> np.ndarray:
    """Labels known from one round: the queried points' own and the sandwiched ones.

    The ``size`` points are in x order; ``at`` holds the increasing positions
    of the queried ones, and ``patterns`` their sign patterns as a
    (d, len(at)) int8 block, row o holding the signs of order o.  A point
    strictly between two adjacent queried points whose patterns are
    identical gets their shared label (row 0).  Returns an int8 array over
    all points: the label at queried points, the inferred label, or 0 at
    points the rule cannot label.

    Gap g holds the points with exactly g of the q queried points below
    them.  A per-gap table holds the shared label of each gap whose
    bracketing patterns are equal and 0 for the others, the open gaps 0 and
    q included; repeating each entry by its gap's length labels every point.
    The cost is linear in the number of points, with no search.
    """
    q = len(at)
    labels = patterns[0]
    equal = labels[1:] == labels[:-1]
    for row in patterns[1:]:
        equal &= row[1:] == row[:-1]
    table = np.zeros(q + 1, dtype=np.int8)
    table[1:q] = np.where(equal, labels[:-1], 0)
    # gap g runs from queried point g - 1 (point 0 for g = 0) up to queried point g
    gaps = np.empty(q + 1, dtype=np.intp)
    gaps[:q] = at
    gaps[q] = size
    gaps[1:] -= at
    known = np.repeat(table, gaps)
    known[at] = labels
    return known


@dataclass
class BatchResult:
    labels: np.ndarray
    iterations: int  # outer iterations that ran a coverage loop
    loop_rounds: int  # total while-loop bodies (= pattern batches sent)
    final_round: bool  # whether the exhaustive final batch was sent


def learn_all(
    instance: Instance, oracle: Oracle, alpha: float, rng: np.random.Generator
) -> BatchResult:
    """Label every point using batched pattern queries plus restricted inference.

    d and n come from the instance, m and t from ``BatchParams(d, n, alpha)``.
    Requires a full oracle (orders 0..d-1).
    """
    d, n = instance.d, instance.n
    if oracle.orders != d:
        raise ValueError("batch learner needs orders 0..d-1")
    params = BatchParams(d, n, alpha)
    m, t, threshold = params.m, params.t, params.coverage_threshold
    guard = _LOOP_GUARD_FACTOR * 2
    orders = range(d)

    points = instance.points
    labels = np.zeros(n, dtype=np.int8)
    remaining = slice(None)  # every point, or the sorted positions of those left
    iterations = 0
    loop_rounds = 0
    final_round = False

    for _ in range(t):
        xs = points[remaining]
        size = len(xs)
        if size <= m:
            break
        iterations += 1
        bodies = 0
        while True:
            bodies += 1
            if bodies > guard:
                raise NonTermination(f"coverage loop exceeded {guard} batches")
            at = np.sort(rng.integers(0, size, size=m))
            at = at[np.concatenate(([True], at[1:] != at[:-1]))]  # drop repeats
            known = infer_labels(at, size, oracle.query_batch(xs[at], orders))
            loop_rounds += 1
            unknown = np.flatnonzero(known == 0)
            unqueried = size - len(at)
            cov = 1.0 if unqueried == 0 else (unqueried - len(unknown)) / unqueried
            if cov >= threshold:
                break
        labels[remaining] = known  # 0 where still unknown, set by a later batch
        remaining = unknown if isinstance(remaining, slice) else remaining[unknown]

    xs = points[remaining]
    if len(xs) > 0:
        labels[remaining] = oracle.query_batch(xs, orders)[0]
        final_round = True

    return BatchResult(
        labels=labels, iterations=iterations, loop_rounds=loop_rounds, final_round=final_round
    )
