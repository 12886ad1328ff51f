"""Level-by-level learner tests: partitioning, search, bounds, soundness."""

from fractions import Fraction

import numpy as np
import pytest

from ptf_lab.instances import Instance, true_labels
from ptf_lab.iterative import (
    binary_search_segment,
    learn_all,
    partition_fixed_pattern,
    query_bound,
    segment_bound,
)
from ptf_lab.oracle import Oracle, QuerySet
from ptf_lab.polynomial import Polynomial, from_roots

from util import full_oracle, make_instance, true_signs

F = Fraction


class TestPartition:
    def test_single_sign_change(self):
        signs = [np.array([1, 1, -1, -1], dtype=np.int8)]
        assert partition_fixed_pattern(range(4), signs) == [(0, 1), (2, 3)]

    def test_all_equal_is_one_segment(self):
        signs = [np.ones(6, dtype=np.int8), np.ones(6, dtype=np.int8)]
        assert partition_fixed_pattern(range(6), signs) == [(0, 5)]

    def test_no_levels_is_one_segment(self):
        assert partition_fixed_pattern(range(5), []) == [(0, 4)]

    def test_cubic_on_equispaced_points(self):
        # hidden (x-9/4)(x-9/2)(x-27/4); the sign vectors of its first and
        # second derivatives at the integers 1..8 split them into 4 segments
        # (the cubic with roots 1/4, 1/2, 3/4 at k/9, scaled by 9 so that
        # float64 holds the points)
        roots = (F(9, 4), F(9, 2), F(27, 4))
        points = list(range(1, 9))
        inst = Instance(points=tuple(points), hidden=from_roots(roots), d=3, roots=roots)
        higher = [true_signs(inst, 1), true_signs(inst, 2)]
        segs = partition_fixed_pattern(points, higher)
        assert segs == [(0, 2), (3, 3), (4, 4), (5, 7)]
        assert len(segs) <= segment_bound(3, 0) == 4


class TestBinarySearchSegment:
    def test_flip_located_with_few_queries(self):
        # first derivative of x^2 - 3x + 2 is 2x - 3: negative then positive
        inst = Instance(points=(1, 2, 3, 4), hidden=Polynomial([2, -3, 1]), d=2, roots=(1, 2))
        oracle = full_oracle(inst)
        signs = binary_search_segment(inst.points, (0, 3), 1, oracle)
        assert list(signs) == [-1, 1, 1, 1]
        assert oracle.ledger.total == 3  # endpoints plus one midpoint
        assert oracle.ledger.total <= 2 + 2  # stated budget: 2 + ceil(log2 3)

    def test_equal_endpoints_cost_two(self):
        inst = Instance(points=(3, 4, 5, 6, 7), hidden=Polynomial([2, -3, 1]), d=2, roots=(1, 2))
        oracle = full_oracle(inst)
        signs = binary_search_segment(inst.points, (0, 4), 0, oracle)
        assert list(signs) == [1] * 5
        assert oracle.ledger.total == 2

    def test_single_point_costs_one(self):
        inst = Instance(points=(3,), hidden=Polynomial([2, -3, 1]), d=2, roots=(1, 2))
        oracle = full_oracle(inst)
        signs = binary_search_segment(inst.points, (0, 0), 0, oracle)
        assert list(signs) == [1]
        assert oracle.ledger.total == 1

    def test_memo_prevents_requery(self):
        inst = Instance(points=(1, 2, 3, 4), hidden=Polynomial([2, -3, 1]), d=2, roots=(1, 2))
        oracle = full_oracle(inst)
        memo = {}
        binary_search_segment(inst.points, (0, 3), 1, oracle, memo)
        before = oracle.ledger.total
        binary_search_segment(inst.points, (0, 3), 1, oracle, memo)
        assert oracle.ledger.total == before


class TestLearnAll:
    def test_pure_threshold_base_case(self):
        inst = make_instance(1024, 1, seed=3)
        oracle = full_oracle(inst)
        res = learn_all(inst, oracle)
        assert np.array_equal(res.labels, true_labels(inst))
        assert oracle.ledger.total <= query_bound(1, 1024) == 12

    def test_quadratic_fixed_roots(self):
        rng = np.random.default_rng(5)
        points = np.sort(rng.random(1024))
        inst = Instance(points=points, hidden=from_roots([0.3, 0.7]), d=2, roots=(0.3, 0.7))
        oracle = full_oracle(inst)
        res = learn_all(inst, oracle)
        assert np.array_equal(res.labels, true_labels(inst))
        assert oracle.ledger.total <= query_bound(2, 1024) == 36

    def test_cubic_bound_over_seeds(self):
        bound = query_bound(3, 4096)
        assert bound == 98
        for seed in range(100):
            inst = make_instance(4096, 3, seed=seed)
            oracle = full_oracle(inst)
            res = learn_all(inst, oracle)
            assert oracle.ledger.total <= bound
            assert np.array_equal(res.labels, true_labels(inst))

    def test_level_soundness_and_segment_bounds(self):
        for seed in range(20):
            inst = make_instance(200, 4, seed=seed, backend="exact")
            oracle = full_oracle(inst)
            res = learn_all(inst, oracle)
            for order, signs in res.level_signs.items():
                assert np.array_equal(signs, true_signs(inst, order)), order
            for order, count in res.segment_counts.items():
                assert count <= segment_bound(inst.d, order)

    def test_never_queries_top_order(self):
        inst = make_instance(256, 3, seed=1)
        oracle = full_oracle(inst)
        learn_all(inst, oracle)
        assert all(order < inst.d for order in oracle.ledger.per_order)

    def test_rejects_restricted_oracle(self):
        inst = make_instance(64, 3, seed=2)
        oracle = Oracle(inst.hidden, QuerySet(3, frozenset({0, 2})))
        with pytest.raises(ValueError):
            learn_all(inst, oracle)

    def test_exact_perfectness_small_instances(self):
        for seed in range(30):
            d = 1 + seed % 5
            inst = make_instance(40, d, seed=seed, backend="exact")
            oracle = full_oracle(inst)
            res = learn_all(inst, oracle)
            assert np.array_equal(res.labels, true_labels(inst))
            assert oracle.ledger.total <= query_bound(d, 40)
