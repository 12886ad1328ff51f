"""Hidden-classifier query oracle with per-order and per-round accounting.

The oracle answers sign queries about a hidden polynomial and its
derivatives, and counts every answered query.  It never caches: repeated
queries are re-counted, so honest memoization is the learner's job.

There are two request shapes.  ``query(x, order)`` asks one question and
costs 1 query and 1 round.  ``query_batch(xs, orders)`` asks question i
about ``xs[i]`` and ``orders[i]`` and returns an int8 array of answers; a
batch of m requests costs m queries but only 1 round.  It evaluates each
order's points with one ``eval_sign_many`` call, whose signs equal
``eval_sign``'s point by point, so a batch answers exactly what the same
requests asked one by one would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .polynomial import Polynomial, Scalar


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
    """Non-decreasing counters: total queries, per-order queries, rounds."""

    total: int = 0
    rounds: int = 0
    per_order: dict[int, int] = field(default_factory=dict)

    def record(self, orders: Sequence[int], counts: Sequence[int]) -> None:
        """Count one round of counts[i] queries about orders[i]."""
        for o, c in zip(orders, counts):
            self.per_order[o] = self.per_order.get(o, 0) + c
            self.total += c
        self.rounds += 1


class Oracle:
    """Answers sign(hidden^(order))(x) for orders in the query set.

    The hidden polynomial is private; learners see only query answers.  The
    oracle does not check x against any sample (adversarial verification
    probes arbitrary points), and it is deterministic in (hidden, x, order).
    """

    def __init__(self, hidden: Polynomial, qset: QuerySet):
        if hidden.degree > qset.d:
            raise ValueError("hidden polynomial degree exceeds the ambient bound")
        self.qset = qset
        self.ledger = QueryLedger()
        derivs = [hidden]  # orders 0..max allowed; a label-only oracle builds none
        for _ in range(max(qset.allowed_orders)):
            derivs.append(derivs[-1].derivative())
        self._derivs = derivs

    @property
    def d(self) -> int:
        return self.qset.d

    def query(self, x: Scalar, order: int) -> int:
        """One sign query; counts 1 query and 1 round."""
        if order not in self.qset.allowed_orders:
            raise DisallowedOrder(f"order {order} not in query set")
        ans = self._derivs[order].eval_sign(x)
        ledger = self.ledger
        ledger.per_order[order] = ledger.per_order.get(order, 0) + 1
        ledger.total += 1
        ledger.rounds += 1
        return ans

    def query_batch(self, xs: Sequence[Scalar], orders: Sequence[int]) -> np.ndarray:
        """Answer sign(hidden^(orders[i]))(xs[i]) for every i as one round.

        A bad order rejects the whole batch before anything is counted.  An
        empty batch is free: no queries, no round.
        """
        if len(xs) != len(orders):
            raise ValueError("xs and orders must have equal length")
        orders = np.asarray(orders, dtype=np.int64)
        present, counts = np.unique(orders, return_counts=True)
        present = present.tolist()
        for order in present:
            if order not in self.qset.allowed_orders:
                raise DisallowedOrder(f"order {order} not in query set")
        answers = np.empty(len(orders), dtype=np.int8)
        if present:
            xs = np.asarray(xs)
            for order in present:
                sel = orders == order
                answers[sel] = self._derivs[order].eval_sign_many(xs[sel])
            self.ledger.record(present, counts.tolist())
        return answers
