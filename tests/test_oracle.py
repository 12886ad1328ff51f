"""Oracle accounting, atomicity, and restriction tests."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptf_lab.distributions import EXACT, FLOAT, RootModel, random_instance, trial_rng
from ptf_lab.oracle import DisallowedOrder, Oracle
from ptf_lab.polynomial import Polynomial, from_roots

F = Fraction


def quad_oracle():
    # hidden x^2 - 3x + 2
    return Oracle(Polynomial([2, -3, 1]), 2)


class TestQuery:
    def test_label_query_counts_one(self):
        o = quad_oracle()
        assert o.query(0, 0) == 1
        assert o.queries == 1
        assert o.rounds == 1
        assert o.per_order == (1, 0)

    def test_sign_zero_convention(self):
        # derivative 2x - 3 vanishes at 1.5; answer is +1
        o = Oracle(Polynomial([2.0, -3.0, 1.0]), 2)
        assert o.query(1.5, 1) == 1
        exact = quad_oracle()
        assert exact.query(F(3, 2), 1) == 1

    def test_disallowed_order(self):
        o = Oracle(Polynomial([0, 0, 1]), 2, label_only=True)
        assert (o.orders, o.per_order) == (1, (0,))
        with pytest.raises(DisallowedOrder):
            o.query(5, 1)
        assert o.queries == 0

    def test_construction_checks(self):
        with pytest.raises(ValueError, match="at least 1"):
            Oracle(Polynomial([1]), 0)
        with pytest.raises(ValueError, match="exceeds the ambient bound"):
            Oracle(Polynomial([0, 0, 0, 1]), 2, label_only=True)
        assert Oracle(Polynomial([0, 0, 0, 1]), 5).orders == 5


def scalar_block(hidden, d, xs, orders):
    """The block's answers asked one question at a time, and the oracle asked."""
    o = Oracle(hidden, d)
    return [[o.query(x, order) for x in xs] for order in orders], o


def near_roots(inst):
    """An instance's sample points, a few of their negatives, its roots and one
    ulp either side of each root, as floats."""
    on = [float(r) for r in inst.roots]
    near = [np.nextafter(r, side) for r in on for side in (-np.inf, np.inf)]
    return np.concatenate([inst.points, -inst.points[:8], on, near])


def block_cases():
    """(hidden, d, points) for the differential test of query_batch against query.

    Exact and float draws with uniform and Dirichlet(0.1) roots, each at its
    ``near_roots`` points; Dirichlet roots cluster, so float Horner gets some
    signs near them wrong.  Then a hidden polynomial of degree 2 under d = 4,
    whose rows have degrees 2, 1, 0 and -1, and the zero polynomial.  Then
    the derivative family of an exact uniform draw at d = 20, whose float
    filter leaves 496 of its 2,320 entries (116 points) uncertified, in the
    8 rows of orders 0..7, so that each row's integer Horner is asked; and
    a cubic with a root at 0, at points that include -0.0 and the smallest
    subnormals.
    """
    models = (RootModel(6), RootModel(8, 0.1))
    for k, (backend, model) in enumerate((b, m) for b in (EXACT, FLOAT) for m in models):
        inst = random_instance(48, model, trial_rng(61, k), backend=backend)
        yield inst.hidden, model.d, near_roots(inst)
    xs = np.array([-1.0, -0.5, 0.0, 0.25, np.nextafter(0.25, 1.0), 0.5, 0.75, 1.0])
    yield from_roots([F(1, 4), F(3, 4)]), 4, xs
    yield Polynomial([]), 3, xs
    inst = random_instance(48, RootModel(20), trial_rng(61, 4), backend=EXACT)
    yield inst.hidden, 20, near_roots(inst)
    tiny = 2.0**-1074
    xs = np.array([-1.0, -0.5, -tiny, -0.0, 0.0, tiny, 0.5, np.nextafter(0.5, 0.0), 1.0])
    yield from_roots([F(-1, 2), 0, F(1, 2)]), 3, xs


class TestQueryBatch:
    def test_batch_costs_len_but_one_round(self):
        o = quad_oracle()
        answers = o.query_batch([0, 1, 3], [0])
        assert answers.dtype == np.int8
        assert answers.tolist() == [[1, 1, 1]]
        assert o.queries == 3
        assert o.rounds == 1
        assert o.query_batch([0, 1, 3], [1, 0]).tolist() == [[-1, -1, 1], [1, 1, 1]]
        assert o.per_order == (6, 3)
        assert o.rounds == 2

    def test_empty_batch_is_free(self):
        o = quad_oracle()
        assert o.query_batch([], [0, 1]).shape == (2, 0)
        assert o.query_batch([0, 1], []).shape == (0, 2)
        assert o.queries == 0
        assert o.rounds == 0

    def test_bad_order_rejects_whole_batch(self):
        o = Oracle(Polynomial([0, 0, 1]), 2, label_only=True)
        with pytest.raises(DisallowedOrder):
            o.query_batch([1, 1], [0, 1])
        assert o.queries == 0
        assert o.rounds == 0

    def test_order_outside_query_set_rejects_batch(self):
        # the oracle answers orders 0..2; -1, d = 3 and 10**12 lie outside them
        o = Oracle(Polynomial([0, 0, 0, 1]), 3)
        for bad in (-1, 3, 10**12):
            with pytest.raises(DisallowedOrder, match=f"order {bad} "):
                o.query_batch([1, 2, 3], [0, bad, 2])
            with pytest.raises(DisallowedOrder, match=f"order {bad} "):
                o.query(1, bad)
        assert o.queries == 0
        assert o.rounds == 0

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
                answers = Oracle(hidden, 3).query_batch(xs, [2, 0, 1])
                assert answers.tolist() == scalar_block(hidden, 3, xs, [2, 0, 1])[0]

    @pytest.mark.parametrize("case", range(8))
    def test_block_equals_scalar_queries(self, case):
        hidden, d, xs = list(block_cases())[case]
        orders = list(range(d))[::-1]  # rows of rising degree, so the top row comes last
        # inside [-1, 1] (the float filter), outside it, and as Fractions (integer Horner)
        for points in (xs, np.append(xs, [1.5, -2.0]), [F(x) for x in xs[:24]]):
            o = Oracle(hidden, d)
            answers = o.query_batch(points, orders)
            assert answers.shape == (d, len(points))
            want, one_by_one = scalar_block(hidden, d, points, orders)
            assert answers.tolist() == want
            assert o.per_order == one_by_one.per_order
            assert o.queries == one_by_one.queries == d * len(points)
            assert o.rounds == 1


class TestFullPattern:
    # a full sign pattern at x is one block over every queryable order
    def test_costs_d_queries_one_round(self):
        o = quad_oracle()
        assert o.query_batch([-1], [0, 1]).tolist() == [[1], [-1]]
        assert o.queries == 2
        assert o.rounds == 1

    def test_repeat_recounts(self):
        o = quad_oracle()
        first = o.query_batch([0, 2], [0, 1])
        second = o.query_batch([0, 2], [0, 1])
        assert first.tolist() == second.tolist()
        assert o.queries == 8
        assert o.rounds == 2

    def test_degree_five_costs_five(self):
        o = Oracle(Polynomial([0, 0, 0, 0, 0, 1]), 5)
        o.query_batch([2], range(5))
        assert o.queries == 5


class TestLedger:
    def test_counters_after_scalar_queries(self):
        o = quad_oracle()
        o.query(0, 0)
        o.query(0, 1)
        o.query(1, 1)
        assert (o.queries, o.rounds) == (3, 3)
        assert o.per_order == (1, 2)


@given(
    x=st.fractions(min_value=-4, max_value=4, max_denominator=32),
    order=st.integers(min_value=0, max_value=1),
)
@settings(max_examples=50, deadline=None)
def test_determinism(x, order):
    hidden = from_roots([F(1, 3), F(5, 3)])
    o = Oracle(hidden, 2)
    assert o.query(x, order) == o.query(x, order)
    assert o.queries == 2


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6)
)
@settings(max_examples=50, deadline=None)
def test_ledger_conservation(sizes):
    # len(xs) queries per order in the block, one round per non-empty block
    o = quad_oracle()
    expected = [0, 0]
    for k in sizes:
        orders = [0, 1][: 1 + k % 2]
        o.query_batch(list(range(k)), orders)
        for order in orders:
            expected[order] += k
    assert o.per_order == tuple(expected)
    assert o.queries == sum(expected)
    assert o.rounds == sum(1 for k in sizes if k > 0)


# a mix of requests on a full d = 4 oracle: scalar (x, order) and block
# (xs, orders); the fixed prefix holds a rejected scalar query (order 4) and a
# rejected block, and the empty blocks are free
MIXED_PREFIX = [
    (1, 0),
    ([0, 2, 3], [1, 3]),
    (2, 4),
    (3, 3),
    ([1], [0, 4]),
    ([], [0]),
    ([4, 5], []),
    (F(1, 2), 0),
]
scalar_steps = st.tuples(st.integers(-3, 3), st.integers(-1, 4))
block_steps = st.tuples(
    st.lists(st.integers(-3, 3), max_size=3), st.lists(st.integers(-1, 4), max_size=4)
)


class EagerLedger:
    """Reference counts, updated as each round is answered."""

    def __init__(self, orders):
        self.queries = self.rounds = 0
        self.per_order = [0] * orders

    def round(self, orders, size):
        """One round of ``size`` queries about each of ``orders``."""
        for order in orders:
            self.per_order[order] += size
            self.queries += size
        self.rounds += 1

    def counts(self):
        return (self.queries, self.rounds, tuple(self.per_order))


def counts(oracle):
    return (oracle.queries, oracle.rounds, oracle.per_order)


@given(steps=st.lists(st.one_of(scalar_steps, block_steps), max_size=12))
@settings(max_examples=50, deadline=None)
def test_ledger_equals_an_eager_reference(steps):
    o = Oracle(Polynomial([1, -2, 0, 3, 1]), 4)
    want = EagerLedger(4)
    for request in MIXED_PREFIX + steps:
        scalar = not isinstance(request[0], list)
        before = counts(o)
        try:
            (o.query if scalar else o.query_batch)(*request)
        except DisallowedOrder:
            assert counts(o) == before  # a rejected request counts nothing
        else:
            if scalar:
                want.round([request[1]], 1)
            elif request[0] and request[1]:
                want.round(request[1], len(request[0]))
        assert counts(o) == want.counts()


def test_held_ledger_is_a_snapshot():
    o = quad_oracle()
    o.query(0, 0)
    held = counts(o)
    o.query(0, 1)
    o.query_batch([0, 1], [0])
    assert held == (1, 1, (1, 0))
    assert counts(o) == (4, 3, (3, 1))


def test_ledger_read_inside_query_is_current():
    class Peeking(Oracle):
        def query(self, x, order):
            answer = super().query(x, order)
            self.totals.append(self.queries)
            return answer

    o = Peeking(Polynomial([2, -3, 1]), 2)
    o.totals = []
    o.query(0, 0)
    o.query_batch([0, 1, 2], [0, 1])
    o.query(1, 1)
    assert o.totals == [1, 8]
