"""Oracle accounting, atomicity, and restriction tests."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptf_lab.distributions import EXACT, FLOAT, RootModel, Seed, random_instance
from ptf_lab.oracle import DisallowedOrder, Oracle, QuerySet
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
            o.query_batch([1], [0, 2])
        with pytest.raises(DisallowedOrder):
            o.query_batch([1], range(4))  # a full pattern needs order 2
        assert o.ledger.total == 1


def scalar_block(hidden, qset, xs, orders):
    """The block's answers asked one question at a time, with that oracle's ledger."""
    o = Oracle(hidden, qset)
    return [[o.query(x, order) for x in xs] for order in orders], o.ledger


def block_cases():
    """(hidden, d, points) for the differential test of query_batch against query.

    Exact and float draws with uniform and Dirichlet(0.1) roots, each at its
    sample points, a few of their negatives, on its roots and one ulp either
    side of them; Dirichlet roots cluster, so float Horner gets some signs
    near them wrong.  Then a hidden polynomial of degree 2 under d = 4, whose
    rows have degrees 2, 1, 0 and -1, and the zero polynomial.
    """
    models = (RootModel("uniform", 6), RootModel("dirichlet", 8, 0.1))
    for k, (backend, model) in enumerate((b, m) for b in (EXACT, FLOAT) for m in models):
        inst = random_instance(48, model, Seed(61, k).rng(), backend=backend)
        on = [float(r) for r in inst.roots]
        near = [np.nextafter(r, side) for r in on for side in (-np.inf, np.inf)]
        yield inst.hidden, model.d, np.concatenate([inst.points, -inst.points[:8], on, near])
    xs = np.array([-1.0, -0.5, 0.0, 0.25, np.nextafter(0.25, 1.0), 0.5, 0.75, 1.0])
    yield from_roots([F(1, 4), F(3, 4)]), 4, xs
    yield Polynomial([]), 3, xs


class TestQueryBatch:
    def test_batch_costs_len_but_one_round(self):
        o = quad_oracle()
        answers = o.query_batch([0, 1, 3], [0])
        assert answers.dtype == np.int8
        assert answers.tolist() == [[1, 1, 1]]
        assert o.ledger.total == 3
        assert o.ledger.rounds == 1
        assert o.query_batch([0, 1, 3], [1, 0]).tolist() == [[-1, -1, 1], [1, 1, 1]]
        assert o.ledger.per_order == {0: 6, 1: 3}
        assert o.ledger.rounds == 2

    def test_empty_batch_is_free(self):
        o = quad_oracle()
        assert o.query_batch([], [0, 1]).shape == (2, 0)
        assert o.query_batch([0, 1], []).shape == (0, 2)
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
        # at 0; on floats these are exact zeros too, which the filter leaves
        # to integer Horner
        ks = np.random.default_rng(5).integers(-64, 65, size=40).tolist()
        ulps = [np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0), -(2.0**-1074), 2.0**-1074]
        inside = [0.0, -1.0, 1.0] + ulps + [k / 64 for k in ks]  # the float filter
        mixed = [0, -1, 1] + [F(k, 64) for k in ks] + [1.5]  # integer Horner
        for hidden in (Polynomial([0, -3, 0, 1]), Polynomial([0.0, -3.0, 0.0, 1.0])):
            for xs in (inside, mixed):
                answers = Oracle(hidden, QuerySet.full(3)).query_batch(xs, [2, 0, 1])
                assert answers.tolist() == scalar_block(hidden, QuerySet.full(3), xs, [2, 0, 1])[0]

    @pytest.mark.parametrize("case", range(6))
    def test_block_equals_scalar_queries(self, case):
        hidden, d, xs = list(block_cases())[case]
        orders = list(range(d))[::-1]  # rows of rising degree, so the top row comes last
        # inside [-1, 1] (the float filter), outside it, and as Fractions (integer Horner)
        for points in (xs, np.append(xs, [1.5, -2.0]), [F(x) for x in xs[:24]]):
            o = Oracle(hidden, QuerySet.full(d))
            answers = o.query_batch(points, orders)
            assert answers.shape == (d, len(points))
            want, ledger = scalar_block(hidden, QuerySet.full(d), points, orders)
            assert answers.tolist() == want
            assert o.ledger.per_order == ledger.per_order
            assert o.ledger.total == ledger.total == d * len(points)
            assert o.ledger.rounds == 1


class TestFullPattern:
    # a full sign pattern at x is one block over every queryable order
    def test_costs_d_queries_one_round(self):
        o = quad_oracle()
        assert o.query_batch([-1], [0, 1]).tolist() == [[1], [-1]]
        assert o.ledger.total == 2
        assert o.ledger.rounds == 1

    def test_repeat_recounts(self):
        o = quad_oracle()
        first = o.query_batch([0, 2], [0, 1])
        second = o.query_batch([0, 2], [0, 1])
        assert first.tolist() == second.tolist()
        assert o.ledger.total == 8
        assert o.ledger.rounds == 2

    def test_degree_five_costs_five(self):
        o = Oracle(Polynomial([0, 0, 0, 0, 0, 1]), QuerySet.full(5))
        o.query_batch([2], range(5))
        assert o.ledger.total == 5


class TestLedger:
    def test_counters_after_scalar_queries(self):
        o = quad_oracle()
        o.query(0, 0)
        o.query(0, 1)
        o.query(1, 1)
        assert (o.ledger.total, o.ledger.rounds) == (3, 3)
        assert o.ledger.per_order == {0: 1, 1: 2}


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
    # len(xs) queries per order in the block, one round per non-empty block
    o = quad_oracle()
    expected = {0: 0, 1: 0}
    for k in sizes:
        orders = [0, 1][: 1 + k % 2]
        o.query_batch(list(range(k)), orders)
        for order in orders:
            expected[order] += k
    assert o.ledger.per_order == {order: c for order, c in expected.items() if c}
    assert o.ledger.total == sum(expected.values())
    assert o.ledger.rounds == sum(1 for k in sizes if k > 0)


# a mix of requests on a query set without order 2: scalar (x, order) and
# block (xs, orders); the fixed prefix holds a rejected scalar query and a
# rejected block, and the empty blocks are free
MIXED_QSET = QuerySet(4, frozenset({0, 1, 3}))
MIXED_PREFIX = [
    (1, 0),
    ([0, 2, 3], [1, 3]),
    (2, 2),
    (3, 3),
    ([1], [0, 2]),
    ([], [0]),
    ([4, 5], []),
    (F(1, 2), 0),
]
scalar_steps = st.tuples(st.integers(-3, 3), st.integers(0, 3))
block_steps = st.tuples(
    st.lists(st.integers(-3, 3), max_size=3), st.lists(st.integers(0, 3), max_size=4)
)


class EagerLedger:
    """Reference counts, updated as each round is answered."""

    def __init__(self):
        self.total = self.rounds = 0
        self.per_order = {}

    def round(self, orders, size):
        """One round of ``size`` queries about each of ``orders``."""
        for order in orders:
            self.per_order[order] = self.per_order.get(order, 0) + size
            self.total += size
        self.rounds += 1

    def equals(self, ledger):
        return (ledger.total, ledger.rounds, ledger.per_order) == (
            self.total,
            self.rounds,
            self.per_order,
        )


@given(steps=st.lists(st.one_of(scalar_steps, block_steps), max_size=12))
@settings(max_examples=50, deadline=None)
def test_ledger_equals_an_eager_reference(steps):
    o = Oracle(Polynomial([1, -2, 0, 3, 1]), MIXED_QSET)
    want = EagerLedger()
    for request in MIXED_PREFIX + steps:
        scalar = not isinstance(request[0], list)
        before = o.ledger
        try:
            (o.query if scalar else o.query_batch)(*request)
        except DisallowedOrder:
            assert o.ledger == before  # a rejected request counts nothing
        else:
            if scalar:
                want.round([request[1]], 1)
            elif request[0] and request[1]:
                want.round(request[1], len(request[0]))
        assert want.equals(o.ledger)
        assert 0 not in o.ledger.per_order.values()


def test_held_ledger_is_a_snapshot():
    o = quad_oracle()
    o.query(0, 0)
    held = o.ledger
    o.query(0, 1)
    o.query_batch([0, 1], [0])
    assert (held.total, held.rounds, held.per_order) == (1, 1, {0: 1})
    assert (o.ledger.total, o.ledger.rounds, o.ledger.per_order) == (4, 3, {0: 3, 1: 1})


def test_ledger_read_inside_query_is_current():
    class Peeking(Oracle):
        def query(self, x, order):
            answer = super().query(x, order)
            self.totals.append(self.ledger.total)
            return answer

    o = Peeking(Polynomial([2, -3, 1]), QuerySet.full(2))
    o.totals = []
    o.query(0, 0)
    o.query_batch([0, 1, 2], [0, 1])
    o.query(1, 1)
    assert o.totals == [1, 8]
