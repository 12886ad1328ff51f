"""Oracle accounting, atomicity, and restriction tests."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptf_lab.oracle import DisallowedOrder, Oracle, QueryLedger, QuerySet
from ptf_lab.polynomial import Polynomial, from_roots

F = Fraction


def quad_oracle():
    # hidden x^2 - 3x + 2
    return Oracle(Polynomial([2, -3, 1]), QuerySet.full(2))


class TestQuery:
    def test_label_query_counts_one(self):
        o = quad_oracle()
        assert o.query(0, 0) == 1
        assert o.ledger.total == 1
        assert o.ledger.rounds == 1
        assert o.ledger.per_order == {0: 1}

    def test_sign_zero_convention(self):
        # derivative 2x - 3 vanishes at 1.5; answer is +1
        o = Oracle(Polynomial([2.0, -3.0, 1.0]), QuerySet.full(2))
        assert o.query(1.5, 1) == 1
        exact = quad_oracle()
        assert exact.query(F(3, 2), 1) == 1

    def test_disallowed_order(self):
        o = Oracle(Polynomial([0, 0, 1]), QuerySet.label_only(2))
        with pytest.raises(DisallowedOrder):
            o.query(5, 1)
        assert o.ledger.total == 0

    def test_missing_order_query_set(self):
        qs = QuerySet(4, frozenset({0, 1, 3}))
        assert not qs.is_full()
        o = Oracle(Polynomial([0, 0, 0, 0, 1]), qs)
        with pytest.raises(DisallowedOrder):
            o.query(1, 2)
        o.query(1, 3)  # other orders still fine
        with pytest.raises(DisallowedOrder):
            o.query_batch([1, 1], [0, 2])
        with pytest.raises(DisallowedOrder):
            o.query_batch([1] * 4, range(4))  # a full pattern needs order 2
        assert o.ledger.total == 1


class TestQueryBatch:
    def test_batch_costs_len_but_one_round(self):
        o = quad_oracle()
        answers = o.query_batch([0, 1, 3], [0, 0, 0])
        assert answers.dtype == np.int8
        assert answers.tolist() == [1, 1, 1]
        assert o.ledger.total == 3
        assert o.ledger.rounds == 1

    def test_empty_batch_is_free(self):
        o = quad_oracle()
        assert o.query_batch([], []).tolist() == []
        assert o.ledger.total == 0
        assert o.ledger.rounds == 0

    def test_bad_order_rejects_whole_batch(self):
        o = Oracle(Polynomial([0, 0, 1]), QuerySet.label_only(2))
        with pytest.raises(DisallowedOrder):
            o.query_batch([1, 1], [0, 1])
        assert o.ledger.total == 0
        assert o.ledger.rounds == 0

    def test_order_outside_query_set_rejects_batch(self):
        # 1 lies between the allowed orders 0 and 2; -1 and 10**12 lie outside both
        o = Oracle(Polynomial([0, 0, 0, 1]), QuerySet(3, frozenset({0, 2})))
        for bad in (1, -1, 10**12):
            with pytest.raises(DisallowedOrder, match=f"order {bad} "):
                o.query_batch([1, 2, 3], [0, bad, 2])
        assert o.ledger.total == 0
        assert o.ledger.rounds == 0

    def test_vectorized_path_matches_scalar(self):
        # hidden x^3 - 3x: order 0 vanishes at 0, order 1 at -1 and 1, order 2
        # at 0, and on floats these are exact zeros as well
        roots = [(0, 0), (-1, 1), (1, 1), (0, 2)]
        for exact in (False, True):
            hidden = Polynomial([0, -3, 0, 1] if exact else [0.0, -3.0, 0.0, 1.0])
            for size in (1, 31, 32, 120):
                rng = np.random.default_rng(size)
                xs = [F(int(k), 64) for k in rng.integers(-96, 97, size=size)]
                orders = rng.integers(0, 3, size=size).tolist()
                for i, (x, order) in enumerate(roots[:size]):
                    xs[i], orders[i] = x, order
                if not exact:  # also one ulp either side of each root
                    xs = [float(x) for x in xs]
                    ulps = [np.nextafter(x, side) for x, _ in roots for side in (-2.0, 2.0)]
                    for i, x in enumerate(ulps[: max(0, size - len(roots))]):
                        xs[len(roots) + i] = float(x)
                perm = rng.permutation(size)  # unsorted xs, mixed orders
                xs = [xs[i] for i in perm]
                orders = [orders[i] for i in perm]
                o1 = Oracle(hidden, QuerySet.full(3))
                answers = o1.query_batch(xs, orders)
                o2 = Oracle(hidden, QuerySet.full(3))
                scalar = [o2.query(x, order) for x, order in zip(xs, orders)]
                assert answers.tolist() == scalar, (exact, size)
                assert o1.ledger.per_order == o2.ledger.per_order
                assert o1.ledger.total == o2.ledger.total == size
                assert o1.ledger.rounds == 1


class TestFullPattern:
    # a full sign pattern at x is one batch over every queryable order
    def test_costs_d_queries_one_round(self):
        o = quad_oracle()
        assert o.query_batch([-1, -1], [0, 1]).tolist() == [1, -1]
        assert o.ledger.total == 2
        assert o.ledger.rounds == 1

    def test_repeat_recounts(self):
        o = quad_oracle()
        first = o.query_batch([0, 0], [0, 1])
        second = o.query_batch([0, 0], [0, 1])
        assert first.tolist() == second.tolist()
        assert o.ledger.total == 4

    def test_degree_five_costs_five(self):
        o = Oracle(Polynomial([0, 0, 0, 0, 0, 1]), QuerySet.full(5))
        o.query_batch([2] * 5, range(5))
        assert o.ledger.total == 5


class TestLedger:
    def test_counters_after_scalar_queries(self):
        o = quad_oracle()
        o.query(0, 0)
        o.query(0, 1)
        o.query(1, 1)
        assert (o.ledger.total, o.ledger.rounds) == (3, 3)
        assert o.ledger.per_order == {0: 1, 1: 2}

    def test_total_equals_per_order_sum(self):
        ledger = QueryLedger()
        ledger.record([0, 1], [2, 1])
        ledger.record([1], [1])
        assert ledger.total == sum(ledger.per_order.values()) == 4
        assert ledger.rounds == 2


@given(
    x=st.fractions(min_value=-4, max_value=4, max_denominator=32),
    order=st.integers(min_value=0, max_value=1),
)
@settings(max_examples=50, deadline=None)
def test_determinism(x, order):
    hidden = from_roots([F(1, 3), F(5, 3)])
    o = Oracle(hidden, QuerySet.full(2))
    assert o.query(x, order) == o.query(x, order)
    assert o.ledger.total == 2


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6)
)
@settings(max_examples=50, deadline=None)
def test_ledger_conservation(sizes):
    o = quad_oracle()
    expected = 0
    for k in sizes:
        o.query_batch(list(range(k)), [i % 2 for i in range(k)])
        expected += k
    assert o.ledger.total == expected
    assert o.ledger.rounds == sum(1 for k in sizes if k > 0)
