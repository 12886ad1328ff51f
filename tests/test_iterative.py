"""Level-by-level learner tests: segment search, query order, bounds, soundness."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptf_lab import harness
from ptf_lab.distributions import EXACT, FLOAT, RootModel, random_instance, trial_rng
from ptf_lab.instances import Instance, true_labels
from ptf_lab.iterative import learn_all, query_bound, segment_bound
from ptf_lab.oracle import Oracle
from ptf_lab.polynomial import Polynomial, from_roots

from util import full_oracle, label_oracle, make_instance, query_sandwich, true_signs

F = Fraction


class RecordingOracle(Oracle):
    """An oracle that keeps every (x, order) it is asked, in order."""

    def __init__(self, instance):
        super().__init__(instance.hidden, instance.d)
        self.asked = []

    def query(self, x, order):
        self.asked.append((x, order))
        return super().query(x, order)


class TestPartition:
    """Segments of a level: maximal runs on which every higher level's sign is constant."""

    def test_single_sign_change(self):
        # first derivative of x^2 - 3x + 2 is 2x - 3: negative at 1, positive at 2..4
        inst = Instance(points=(1, 2, 3, 4), hidden=Polynomial([2, -3, 1]), d=2, roots=(1, 2))
        oracle = RecordingOracle(inst)
        res = learn_all(inst, oracle)
        assert res.segment_counts[0] == 2
        assert [x for x, order in oracle.asked if order == 0] == [1, 2, 4]  # 0..0, 1..3

    def test_all_equal_is_one_segment(self):
        # every derivative of (x-1)(x-2)(x-3) is positive on 10..15
        roots = (1, 2, 3)
        inst = Instance(points=tuple(range(10, 16)), hidden=from_roots(roots), d=3, roots=roots)
        res = learn_all(inst, full_oracle(inst))
        assert res.segment_counts == {2: 1, 1: 1, 0: 1}

    def test_no_levels_is_one_segment(self):
        for d in (1, 4):
            inst = make_instance(64, d, seed=d)
            assert learn_all(inst, full_oracle(inst)).segment_counts[d - 1] == 1

    def test_cubic_on_equispaced_points(self):
        # hidden (x-9/4)(x-9/2)(x-27/4) at the integers 1..8 (the cubic with
        # roots 1/4, 1/2, 3/4 at k/9, scaled by 9 so that float64 holds the
        # points).  Levels run d-1 down to 0, segments left to right, and each
        # segment asks lo, then hi, then the midpoints of its flip search.
        roots = (F(9, 4), F(9, 2), F(27, 4))
        inst = Instance(points=tuple(range(1, 9)), hidden=from_roots(roots), d=3, roots=roots)
        oracle = RecordingOracle(inst)
        res = learn_all(inst, oracle)
        level2 = [(1, 2), (8, 2), (4, 2), (6, 2), (5, 2)]  # one segment 0..7
        level1 = [(1, 1), (4, 1), (2, 1), (3, 1), (5, 1), (8, 1), (6, 1)]  # 0..3, 4..7
        level0 = [(1, 0), (3, 0), (2, 0), (4, 0), (5, 0), (6, 0), (8, 0), (7, 0)]
        assert oracle.asked == level2 + level1 + level0  # 0..2, 3..3, 4..4, 5..7
        assert res.segment_counts == {2: 1, 1: 2, 0: 4}
        assert res.segment_counts[0] <= segment_bound(3, 0) == 4
        assert np.array_equal(res.labels, true_labels(inst))


class TestBinarySearchSegment:
    """The search on one segment, on which the level's derivative is monotone."""

    def test_flip_located_with_few_queries(self):
        # first derivative of x^2 - 3x + 2 is 2x - 3: negative then positive
        inst = Instance(points=(1, 2, 3, 4), hidden=Polynomial([2, -3, 1]), d=2, roots=(1, 2))
        oracle = full_oracle(inst)
        res = learn_all(inst, oracle)
        assert list(res.level_signs[1]) == [-1, 1, 1, 1]
        assert oracle.per_order[1] == 3  # endpoints plus one midpoint
        assert oracle.per_order[1] <= 2 + 2  # stated budget: 2 + ceil(log2 3)

    def test_equal_endpoints_cost_two(self):
        inst = Instance(points=(3, 4, 5, 6, 7), hidden=Polynomial([2, -3, 1]), d=2, roots=(1, 2))
        oracle = full_oracle(inst)
        res = learn_all(inst, oracle)
        assert list(res.labels) == [1] * 5
        assert oracle.per_order == (2, 2)

    def test_single_point_costs_one(self):
        inst = Instance(points=(3,), hidden=Polynomial([2, -3, 1]), d=2, roots=(1, 2))
        oracle = full_oracle(inst)
        res = learn_all(inst, oracle)
        assert list(res.labels) == [1]
        assert oracle.per_order == (1, 1)


class TestLearnAll:
    def test_pure_threshold_base_case(self):
        inst = make_instance(1024, 1, seed=3)
        oracle = full_oracle(inst)
        res = learn_all(inst, oracle)
        assert np.array_equal(res.labels, true_labels(inst))
        assert oracle.queries <= query_bound(1, 1024) == 12

    def test_quadratic_fixed_roots(self):
        rng = np.random.default_rng(5)
        points = np.sort(rng.random(1024))
        inst = Instance(points=points, hidden=from_roots([0.3, 0.7]), d=2, roots=(0.3, 0.7))
        oracle = full_oracle(inst)
        res = learn_all(inst, oracle)
        assert np.array_equal(res.labels, true_labels(inst))
        assert oracle.queries <= query_bound(2, 1024) == 36

    @pytest.mark.parametrize("d", range(1, 11))
    def test_query_bound_closed_form(self, d):
        # sum over k = 1..d of k(k-1)/2 + 1 segments, ceil(log2 n) + 2 queries each
        for n in (1, 2, 3, 1024, 4096):
            assert query_bound(d, n) == (d**3 + 5 * d) // 6 * ((n - 1).bit_length() + 2)

    def test_query_bound_log_term_is_exact(self):
        # a float log2 rounds 2^k + 1 down to 2^k from k = 49 on
        for k in range(81):
            assert query_bound(1, 2**k) == k + 2, k
            assert query_bound(1, 2**k + 1) == k + 3, k

    def test_cubic_bound_over_seeds(self):
        bound = query_bound(3, 4096)
        assert bound == 98
        for seed in range(100):
            inst = make_instance(4096, 3, seed=seed)
            oracle = full_oracle(inst)
            res = learn_all(inst, oracle)
            assert oracle.queries <= bound
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
        # each of orders 0..d-1 is asked, and no other
        assert len(oracle.per_order) == inst.d and all(oracle.per_order)

    def test_rejects_restricted_oracle(self):
        # a label-only oracle, and a full one of another degree bound
        inst = make_instance(64, 3, seed=2)
        for oracle in (label_oracle(inst), Oracle(inst.hidden, 4)):
            with pytest.raises(ValueError, match="needs orders 0..d-1"):
                learn_all(inst, oracle)
            assert oracle.queries == 0

    def test_exact_perfectness_small_instances(self):
        for seed in range(30):
            d = 1 + seed % 5
            inst = make_instance(40, d, seed=seed, backend="exact")
            oracle = full_oracle(inst)
            res = learn_all(inst, oracle)
            assert np.array_equal(res.labels, true_labels(inst))
            assert oracle.queries <= query_bound(d, 40)

    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_no_query_is_asked_twice(self, backend, d):
        models = [RootModel(d)]
        if backend == EXACT:
            models.append(RootModel(d, 0.2))
        for model in models:
            for n in (1, 2, 3, 256):
                for seed in range(5):
                    rng = trial_rng(seed, 100 * d + n)
                    inst = random_instance(n, model, rng, backend=backend, random_leading=True)
                    oracle = RecordingOracle(inst)
                    res = learn_all(inst, oracle)
                    assert len(set(oracle.asked)) == len(oracle.asked), (model, n, seed)
                    assert len(oracle.asked) == oracle.queries <= query_bound(d, n)
                    assert np.array_equal(res.labels, true_labels(inst))


@given(
    master=st.integers(0, 2**32 - 1),
    stream=st.integers(0, 2**16),
    d=st.integers(1, 12),
    n=st.integers(1, 2**12),
    alpha=st.one_of(st.none(), st.floats(0.05, 4)),
    random_leading=st.booleans(),
)
# the float draw mode mislabels these three trials, so the draws must be exact
@example(master=3, stream=3, d=16, n=1024, alpha=None, random_leading=False)
@example(master=3, stream=0, d=20, n=1024, alpha=None, random_leading=False)
@example(master=3, stream=0, d=24, n=1024, alpha=None, random_leading=False)
@example(master=0, stream=0, d=1, n=1, alpha=None, random_leading=False)
@example(master=1, stream=2, d=5, n=2, alpha=0.05, random_leading=True)
@example(master=2, stream=7, d=1, n=4096, alpha=None, random_leading=True)
@settings(max_examples=150, deadline=None)
def test_trials_keep_their_accounting(master, stream, d, n, alpha, random_leading):
    # one trial of every configuration the harness takes for iterative, on default draws
    config = harness.ExperimentConfig(
        harness.ITERATIVE, (d,), (n,), 1, master,
        dirichlet_alpha=alpha, random_leading=random_leading,
    )
    trial = harness.run_trial(config, config.cells()[0], stream)
    row = trial.row
    assert trial.result is not None, row["case"]
    assert row["correct"], row
    least, most = query_sandwich(trial.result.level_signs, n)
    assert least <= row["queries_total"] <= min(most, query_bound(d, n)), (row, least, most)
    assert row["rounds"] == row["queries_total"]
