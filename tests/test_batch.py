"""Batch learner tests: inference rule, coverage, parameters, soundness."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptf_lab import harness
from ptf_lab.batch import BatchParams, infer_labels, learn_all
from ptf_lab.distributions import random_instance, trial_rng
from ptf_lab.instances import true_labels
from ptf_lab.oracle import Oracle

from util import (
    full_oracle,
    infer_at,
    label_oracle,
    make_instance,
    pattern_block,
    restricted_infer,
)


PAT_A = (1, 1)
PAT_B = (1, -1)


def infer(queried, targets):
    """infer_labels on (index, pattern) pairs and target indices, as (position, sign) pairs."""
    idx = np.array([i for i, _ in queried], dtype=np.int64)
    patterns = np.array([p for _, p in queried], dtype=np.int8).reshape(len(queried), -1).T
    positions, signs = infer_at(idx, patterns, np.array(targets, dtype=np.int64))
    return [(int(p), int(s)) for p, s in zip(positions, signs)]


class TestRestrictedInfer:
    # points are named by their index in x order
    def test_identical_patterns_sandwich(self):
        queried = [(1, PAT_A), (9, PAT_A)]
        assert infer(queried, [5]) == [(0, 1)]

    def test_differing_patterns_block_inference(self):
        queried = [(1, PAT_A), (9, PAT_B)]
        assert infer(queried, [5]) == []

    def test_target_outside_queried_range(self):
        queried = [(3, PAT_A), (9, PAT_A)]
        assert infer(queried, [1]) == []
        assert infer(queried, [10]) == []

    def test_target_equal_to_queried_point_not_inferred(self):
        # queried 5 is never a target: it ends the pair (1, 5), which labels
        # its left neighbour 4, and starts (5, 9), which cannot label 6
        queried = [(1, PAT_A), (5, PAT_A), (9, PAT_B)]
        assert infer(queried, [4, 6]) == [(0, 1)]

    def test_negative_label_inferred(self):
        queried = [(1, (-1, 1)), (9, (-1, 1))]
        assert infer(queried, [5]) == [(0, -1)]

    def test_adjacency_matters(self):
        # equal outer patterns but a different one in between blocks the pair
        queried = [(1, PAT_A), (5, PAT_B), (9, PAT_A)]
        assert infer(queried, [2, 7]) == []


class TestCoverage:
    # learn_all's coverage is the share of unqueried points infer_labels labels
    def test_all_inferred(self):
        queried = [(0, PAT_A), (10, PAT_A)]
        assert infer(queried, [2, 4, 6]) == [(0, 1), (1, 1), (2, 1)]

    def test_none_inferred(self):
        queried = [(0, PAT_A), (10, PAT_B)]
        assert infer(queried, [2, 4]) == []

    def test_fractional(self):
        queried = [(0, PAT_A), (10, PAT_A)]
        remaining = list(range(1, 7)) + [20, 30, 40, 50]
        assert len(infer(queried, remaining)) / len(remaining) == pytest.approx(0.6)

    def test_empty_remaining(self):
        assert infer([(0, PAT_A)], []) == []


class TestBatchParams:
    def test_reference_values(self):
        p = BatchParams(d=2, n=10_000, alpha=0.5)
        assert p.k == 9
        assert p.m == 1800
        assert p.t == 2
        assert p.coverage_threshold == pytest.approx((1800 - 18) / 1800)

    def test_m_exceeds_2k(self):
        for d in range(1, 7):
            for alpha in (0.3, 0.5, 1.0):
                p = BatchParams(d=d, n=256, alpha=alpha)
                assert p.m > 2 * p.k

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            BatchParams(d=2, n=1024, alpha=0.05)
        with pytest.raises(ValueError):
            BatchParams(d=2, n=1024, alpha=1.5)

    @given(
        st.integers(1, 12),
        st.integers(3, 10**9),
        st.sampled_from(["edge", "middle", "one"]),
    )
    @example(1, 3, "edge")
    @example(12, 10**9, "edge")
    def test_batch_ratio_exceeds_e_over_the_alpha_range(self, d, n, where):
        # 1/ln n < alpha gives m / 2k >= n^alpha > e, so t needs no guard
        low = 1 / math.log(n)
        alpha = {"edge": math.nextafter(low, 2.0), "middle": (low + 1) / 2, "one": 1.0}[where]
        p = BatchParams(d=d, n=n, alpha=alpha)
        assert p.m / (2 * p.k) > math.e
        assert p.t >= 1


class TestInferIndicesFastPath:
    def test_matches_generic_rule(self):
        rng = trial_rng(21)
        for _ in range(50):
            n = 40
            q = np.sort(rng.choice(n, size=10, replace=False))
            t = np.setdiff1d(np.arange(n), q)
            patterns = rng.choice([-1, 1], size=(3, 10)).astype(np.int8)
            patterns[0] = 1
            pos, signs = infer_at(q, patterns, t)
            generic = restricted_infer(
                [(int(x), tuple(int(v) for v in p)) for x, p in zip(q, patterns.T)],
                [int(x) for x in t],
            )
            assert [(int(a), int(b)) for a, b in zip(pos, signs)] == generic


def _pattern(kind: int, d: int) -> tuple[int, ...]:
    """One of four sign patterns (two when d = 1), so equal neighbours are common."""
    return tuple(-1 if (kind >> j) & 1 else 1 for j in range(d))


def _points(roles: str, kind: int = 0) -> list[tuple[bool, int]]:
    return [(r == "q", kind) for r in roles]


@st.composite
def _many_points(draw):
    """Up to 400 points with a random share of queried ones."""
    n = draw(st.integers(0, 400))
    share = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    queried = rng.integers(0, 20, size=n) < share
    return list(zip(queried.tolist(), rng.integers(0, 4, size=n).tolist()))


@given(
    points=st.one_of(
        st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=40), _many_points()
    ),
    d=st.integers(1, 5),
)
@example(points=[], d=1)
@example(points=_points("tqt"), d=2)  # one queried point
@example(points=_points("qqq"), d=3)  # nothing to infer
@example(points=_points("ttqtqtt"), d=2)  # points outside the queried span
@example(points=_points("qqtqqttqq", kind=1), d=4)  # adjacent queried points
@settings(max_examples=300, deadline=None)
def test_infer_labels_matches_reference_rule(points, d):
    # point i is queried when points[i][0], with pattern kind points[i][1]
    queried = [i for i, (q, _) in enumerate(points) if q]
    others = [i for i, (q, _) in enumerate(points) if not q]
    patterns = [_pattern(points[i][1], d) for i in queried]
    known = infer_labels(
        np.array(queried, dtype=np.int64),
        len(points),
        np.array(patterns, dtype=np.int8).reshape(len(queried), d).T,
    )
    assert known.dtype == np.int8 and len(known) == len(points)
    expected = np.zeros(len(points), dtype=np.int8)
    expected[queried] = [p[0] for p in patterns]
    for pos, sign in restricted_infer(list(zip(queried, patterns)), others):
        expected[others[pos]] = sign
    assert np.array_equal(known, expected)


class TestLearnAll:
    def test_degenerate_single_exhaustive_batch(self):
        inst = make_instance(100, 2, seed=31)
        oracle = full_oracle(inst)
        res = learn_all(inst, oracle, 1.0, trial_rng(32))  # m = 1800 >= n
        assert np.array_equal(res.labels, true_labels(inst))
        assert oracle.rounds == 1
        assert res.loop_rounds == 0 and res.final_round

    def test_rounds_accounting(self):
        for seed in range(10):
            inst = make_instance(4000, 2, seed=seed)
            oracle = full_oracle(inst)
            res = learn_all(inst, oracle, 0.4, trial_rng(seed + 100))
            assert oracle.rounds == res.loop_rounds + int(res.final_round)
            assert np.array_equal(res.labels, true_labels(inst))

    def test_exact_backend_perfect(self):
        for seed in range(10):
            d = 1 + seed % 3
            inst = make_instance(120, d, seed=seed, backend="exact")
            oracle = full_oracle(inst)
            res = learn_all(inst, oracle, 0.5, trial_rng(seed + 200))
            assert np.array_equal(res.labels, true_labels(inst))

    def test_generator_called_once_per_batch(self):
        # the only draw is integers(0, len(remaining), size=m), once per batch
        class Recording:
            def __init__(self, rng):
                self.rng, self.calls = rng, []

            def integers(self, *args, **kwargs):
                self.calls.append((args, kwargs))
                return self.rng.integers(*args, **kwargs)

        inst = make_instance(4096, 2, seed=7)
        params = BatchParams(d=2, n=4096, alpha=0.2)
        rec = Recording(trial_rng(8))
        res = learn_all(inst, full_oracle(inst), params.alpha, rec)
        assert np.array_equal(res.labels, true_labels(inst))
        assert res.iterations >= 2 and len(rec.calls) == res.loop_rounds
        sizes = [args[1] for args, _ in rec.calls]
        assert all(args[0] == 0 and kw == {"size": params.m} for args, kw in rec.calls)
        assert sizes[0] == 4096 and sizes == sorted(sizes, reverse=True)

    def test_rejects_restricted_oracle(self):
        # a label-only oracle, and a full one of another degree bound
        inst = make_instance(64, 3, seed=1)
        for oracle in (label_oracle(inst), Oracle(inst.hidden, 4)):
            with pytest.raises(ValueError, match="needs orders 0..d-1"):
                learn_all(inst, oracle, 0.5, trial_rng(0))
            assert oracle.queries == 0


class BlockRecordingOracle(Oracle):
    """An oracle that keeps the points, orders and answers of every block it is asked."""

    def __init__(self, hidden, d, **kw):
        super().__init__(hidden, d, **kw)
        self.blocks = []

    def query_batch(self, xs, orders):
        answers = super().query_batch(xs, orders)
        self.blocks.append((np.asarray(xs), list(orders), answers))
        return answers


def check_coverage_blocks(config, trial, blocks) -> None:
    """Assert that a batch trial's blocks are the ones its stream implies.

    The trial's stream is replayed: ``random_instance``, then one
    ``rng.integers(0, len(unknown), size=m)`` per loop block, where unknown
    holds the points still unlabelled at the start of the outer iteration.
    An outer iteration ends at the first block whose patterns let the
    reference sandwich rule (``restricted_infer``) label a share of the
    other unknown points of at least the coverage threshold; the points it
    asked and labelled are then known.  The final block asks exactly the
    points left unknown, and no block follows it.
    """
    row = trial.row
    d, n = row["d"], row["n"]
    params = BatchParams(d=d, n=n, alpha=row["alpha"])
    rng = trial_rng(config.master_seed, row["seed_stream"])
    inst = random_instance(
        n, config.root_model(d), rng, backend=config.backend, random_leading=config.random_leading
    )
    points = inst.points
    assert np.array_equal(points, trial.instance.points), "replay draws other points"
    unknown = np.arange(n)  # positions unlabelled at the start of the outer iteration
    left = iter(blocks)
    iterations = 0
    for _ in range(params.t):
        if len(unknown) <= params.m:
            break
        iterations += 1
        while True:
            xs, orders, answers = next(left)
            asked = np.searchsorted(points, xs)
            assert orders == list(range(d))
            assert np.array_equal(points[asked], xs) and np.all(np.diff(asked) > 0)
            assert np.all(np.isin(asked, unknown)), "a loop block asks a known point"
            drawn = np.unique(rng.integers(0, len(unknown), size=params.m))
            assert np.array_equal(asked, unknown[drawn]), "a loop block is not its draw"
            targets = np.setdiff1d(unknown, asked)
            queried = list(zip(xs.tolist(), answers.T.tolist()))
            hits = restricted_infer(queried, points[targets].tolist())
            labelled = targets[[i for i, _ in hits]]
            cover = 1.0 if len(targets) == 0 else len(hits) / len(targets)
            if cover >= params.coverage_threshold:
                break
        unknown = np.setdiff1d(targets, labelled)
    if len(unknown):
        xs, orders, _ = next(left)
        assert orders == list(range(d))
        assert np.array_equal(xs, points[unknown]), "the final block is not the unknown points"
    assert next(left, None) is None, "a block follows the final one"
    assert row["queries_total"] == d * sum(len(xs) for xs, _, _ in blocks)
    assert row["rounds"] == len(blocks)
    assert row["iterations"] == iterations <= params.t
    assert row["final_round"] == bool(len(unknown))
    assert row["correct"], row


# (d, n, batch alpha, trials): m < n, so the coverage loop runs; the
# n = 2^16 cell's trials take two outer iterations
COVERAGE_CELLS = (
    [(d, 2**14, 0.5, 3) for d in range(1, 7)]
    + [(2, 2**16, 0.25, 3)]
    + [(d, 2**14, 0.35, 3) for d in (8, 12)]  # m = 4,479 and 9,495
)


def test_coverage_loop_blocks_are_their_draws(monkeypatch):
    oracles = []

    def recording(hidden, d, **kw):
        oracles.append(BlockRecordingOracle(hidden, d, **kw))
        return oracles[-1]

    monkeypatch.setattr(harness, "Oracle", recording)
    iterations = []
    for d, n, alpha, trials in COVERAGE_CELLS:
        assert BatchParams(d=d, n=n, alpha=alpha).m < n
        config = harness.ExperimentConfig(harness.BATCH, (d,), (n,), trials, 23, alphas=(alpha,))
        for stream in range(trials):
            trial = harness.run_trial(config, config.cells()[0], stream)
            assert trial.result is not None, trial.row["case"]
            check_coverage_blocks(config, trial, oracles[-1].blocks)
            iterations.append(trial.row["iterations"])
    assert max(iterations) >= 2, iterations


class TestLogScaling:
    def test_query_total_scales_with_log_n(self):
        # alpha = 2/log2(n) keeps the batch-size ratio m/2k at 4; a pilot run
        # at the smallest n calibrates the constant, larger n must stay under
        # C * d^3 * log2(n).  Polynomial growth in n would blow the budget.
        d = 2

        def mean_total(n, seed0, trials=40):
            alpha = 2 / math.log2(n)
            totals = []
            for t in range(trials):
                rng = trial_rng(seed0, t)
                inst = make_instance(n, d, seed=seed0 * 1000 + t)
                oracle = full_oracle(inst)
                res = learn_all(inst, oracle, alpha, rng)
                assert np.array_equal(res.labels, true_labels(inst))
                totals.append(oracle.queries)
            return float(np.mean(totals))

        pilot = mean_total(2**10, seed0=51)
        scale = 2.0 * pilot / (d**3 * 10)
        for exp in (12, 14, 16):
            assert mean_total(2**exp, seed0=50 + exp) <= scale * d**3 * exp


class TestInferenceSoundness:
    def test_inferred_labels_always_correct(self):
        # restricted inference from random queried subsets is never wrong
        rng = trial_rng(41)
        for seed in range(40):
            d = 1 + seed % 4
            inst = make_instance(60, d, seed=seed + 300, backend="exact")
            idx = np.sort(rng.choice(60, size=12, replace=False))
            patterns = pattern_block(inst.hidden, [inst.points[i] for i in idx], d)
            target_idx = np.setdiff1d(np.arange(60), idx)
            truth = true_labels(inst)
            positions, signs = infer_at(idx, patterns, target_idx)
            assert np.array_equal(signs, truth[target_idx[positions]])

    def test_pigeonhole_witness_small(self):
        # with |S| = d^2 + d + 3, full patterns on the rest always recover
        # at least one withheld point
        for d in (2, 3):
            size = d * d + d + 3
            for seed in range(25):
                inst = make_instance(size, d, seed=seed + 400, backend="exact")
                patterns = pattern_block(inst.hidden, inst.points, d)
                idx = np.arange(size)
                recovered = 0
                for i in range(size):
                    positions, _ = infer_at(
                        np.delete(idx, i), np.delete(patterns, i, axis=1), idx[i : i + 1]
                    )
                    recovered += len(positions)
                assert recovered >= 1
