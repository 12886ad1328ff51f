"""Hidden-classifier query oracle with per-order and per-round counters.

The oracle answers sign queries about a hidden polynomial and its
derivatives, in one of the paper's two query models.  ``Oracle(hidden, d)``
answers orders 0..d-1, the labels and derivative signs that the iterative
and batch learners ask about.  ``Oracle(hidden, d, label_only=True)``
answers order 0 only, the labels that sample_search asks about, and builds
no derivative.

It never caches: a repeated query is counted again.  The iterative and
sample_search learners never repeat one (the iterative learner's segments
are disjoint, and sample_search's flip searches probe only points strictly
between two it has asked about), so neither keeps a memo.  The batch
learner draws a batch again when its coverage falls short, and the points
it asks about again are counted again.

There are two request shapes.  ``query(x, order)`` asks one question and
costs 1 query and 1 round.  ``query_batch(xs, orders)`` asks a block: every
order in ``orders`` at every point of ``xs``.  It returns an int8 array of
shape (len(orders), len(xs)), row i holding the signs of derivative
``orders[i]``, and costs len(xs) queries per order but only 1 round.  The
block is one ``polynomial.eval_sign_block`` call, whose signs equal
``eval_sign``'s entry by entry, so a block answers exactly what the same
questions asked one by one would.

Both shapes count into one list of per-order counters: a scalar query adds
1 to its order's counter, a block adds len(xs) to each order it asks.  One
more integer counts the queries that shared a block's round with an earlier
one, len(xs) * len(orders) - 1 per non-empty block.  Four read-only
properties report the counts: ``queries`` (the total so far), ``rounds``
(the total less the shared queries), ``per_order`` (one count per
answerable order) and ``orders`` (the number of answerable orders: d, or 1
when label-only).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .polynomial import Polynomial, Scalar, eval_sign_block


class DisallowedOrder(Exception):
    """A query asked for a derivative order the oracle does not answer."""


class Oracle:
    """Answers sign(hidden^(order))(x) for orders 0..d-1, or order 0 if label-only.

    The hidden polynomial is private; learners see only query answers.  The
    oracle does not check x against any sample (adversarial verification
    probes arbitrary points), and it is deterministic in (hidden, x, order).
    """

    def __init__(self, hidden: Polynomial, d: int, label_only: bool = False):
        if d < 1:
            raise ValueError("degree bound must be at least 1")
        if hidden.degree > d:
            raise ValueError("hidden polynomial degree exceeds the ambient bound")
        orders = 1 if label_only else d  # a label-only oracle builds no derivative
        self._derivs = [hidden]
        for _ in range(orders - 1):  # each from the last: cheaper than hidden.derivative(o)
            self._derivs.append(self._derivs[-1].derivative())
        self._allowed = frozenset(range(orders))  # faster to test than a range
        self._asked = [0] * orders  # queries per order, both request shapes
        self._shared = 0  # queries that shared a block's round with an earlier one

    @property
    def queries(self) -> int:
        """The queries answered so far."""
        return sum(self._asked)

    @property
    def rounds(self) -> int:
        """The rounds used so far: a scalar query or a non-empty block is one."""
        return self.queries - self._shared

    @property
    def per_order(self) -> tuple[int, ...]:
        """The queries answered so far about each order, from order 0 up."""
        return tuple(self._asked)

    @property
    def orders(self) -> int:
        """The number of answerable orders: d, or 1 when label-only."""
        return len(self._derivs)

    def query(self, x: Scalar, order: int) -> int:
        """One sign query; counts 1 query and 1 round."""
        if order not in self._allowed:
            raise DisallowedOrder(f"order {order} not answered by this oracle")
        ans = self._derivs[order].eval_sign(x)
        self._asked[order] += 1
        return ans

    def query_batch(self, xs: Sequence[Scalar], orders: Sequence[int]) -> np.ndarray:
        """Answer sign(hidden^(orders[i]))(xs[j]) as entry (i, j), in one round.

        A bad order rejects the whole block before anything is counted.  An
        empty block (no points or no orders) is free: no queries, no round.
        """
        orders = list(orders)
        for order in orders:
            if order not in self._allowed:
                raise DisallowedOrder(f"order {order} not answered by this oracle")
        if not (len(xs) and orders):
            return np.empty((len(orders), len(xs)), dtype=np.int8)
        answers = eval_sign_block([self._derivs[o] for o in orders], xs)
        for order in orders:
            self._asked[order] += len(xs)
        self._shared += len(xs) * len(orders) - 1
        return answers
