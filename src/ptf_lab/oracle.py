"""Hidden-classifier query oracle with per-order and per-round accounting.

The oracle answers sign queries about a hidden polynomial and its
derivatives, and counts every answered query.  It never caches: a repeated
query is counted again.  The iterative and sample_search learners never
repeat one (the iterative learner's segments are disjoint, and
sample_search's flip searches probe only points strictly between two it has
asked about), so neither keeps a memo.  The batch learner draws a batch
again when its coverage falls short, and the points it asks about again are
counted again.

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
one, len(xs) * len(orders) - 1 per non-empty block, so rounds are the total
less that count.  ``Oracle.ledger`` builds a new ``QueryLedger`` from these
counters on every read, so a read is always current and a ledger held
across later queries is a snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .polynomial import Polynomial, Scalar, eval_sign_block


class DisallowedOrder(Exception):
    """A query asked for a derivative order outside the oracle's query set."""


@dataclass(frozen=True)
class QuerySet:
    """Derivative orders a learner may ask about; order 0 is the label."""

    d: int
    allowed_orders: frozenset[int]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("degree bound must be at least 1")
        if not self.allowed_orders <= frozenset(range(self.d)):
            raise ValueError("allowed orders must be a subset of {0..d-1}")
        if 0 not in self.allowed_orders:
            raise ValueError("label queries (order 0) must always be allowed")

    @classmethod
    def full(cls, d: int) -> "QuerySet":
        return cls(d, frozenset(range(d)))

    @classmethod
    def label_only(cls, d: int) -> "QuerySet":
        return cls(d, frozenset({0}))

    def is_full(self) -> bool:
        return self.allowed_orders == frozenset(range(self.d))


@dataclass
class QueryLedger:
    """Counts so far: total queries, rounds, and queries per order asked.

    ``Oracle.ledger`` builds one on each read; ``per_order`` holds only the
    orders asked, and its counts sum to ``total``.
    """

    total: int
    rounds: int
    per_order: dict[int, int]


class Oracle:
    """Answers sign(hidden^(order))(x) for orders in the query set.

    The hidden polynomial is private; learners see only query answers.  The
    oracle does not check x against any sample (adversarial verification
    probes arbitrary points), and it is deterministic in (hidden, x, order).
    ``ledger`` is a snapshot: each read returns a new QueryLedger of the
    counts so far, and one held across later queries is not live.
    """

    def __init__(self, hidden: Polynomial, qset: QuerySet):
        if hidden.degree > qset.d:
            raise ValueError("hidden polynomial degree exceeds the ambient bound")
        self.qset = qset
        derivs = [hidden]  # orders 0..max allowed; a label-only oracle builds none
        for _ in range(max(qset.allowed_orders)):
            derivs.append(derivs[-1].derivative())
        self._derivs = derivs
        self._asked = [0] * len(derivs)  # queries per order, both request shapes
        self._shared = 0  # queries that shared a block's round with an earlier one

    @property
    def ledger(self) -> QueryLedger:
        """The queries and rounds counted so far, as a new QueryLedger."""
        total = sum(self._asked)
        per_order = {o: c for o, c in enumerate(self._asked) if c}
        return QueryLedger(total, total - self._shared, per_order)

    @property
    def d(self) -> int:
        return self.qset.d

    def query(self, x: Scalar, order: int) -> int:
        """One sign query; counts 1 query and 1 round."""
        if order not in self.qset.allowed_orders:
            raise DisallowedOrder(f"order {order} not in query set")
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
            if order not in self.qset.allowed_orders:
                raise DisallowedOrder(f"order {order} not in query set")
        if not (len(xs) and orders):
            return np.empty((len(orders), len(xs)), dtype=np.int8)
        answers = eval_sign_block([self._derivs[o] for o in orders], xs)
        for order in orders:
            self._asked[order] += len(xs)
        self._shared += len(xs) * len(orders) - 1
        return answers
