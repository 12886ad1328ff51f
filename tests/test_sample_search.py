"""Sample-and-search learner tests."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptf_lab.distributions import EXACT, FLOAT, RootModel, random_instance
from ptf_lab.instances import Instance, true_labels
from ptf_lab.oracle import Oracle, QuerySet
from ptf_lab.polynomial import Polynomial, from_roots
from ptf_lab.sample_search import DegreeViolation, sample_and_search

from util import label_oracle, make_instance, reference_sample_and_search, trial_rng, z_law_cdf


class TestSampleAndSearch:
    def test_no_roots_queries_everything(self):
        # hidden strictly positive on the sample: no flip can ever appear
        rng = trial_rng(1)
        points = np.sort(rng.random(50))
        inst = Instance(points=points, hidden=Polynomial([1.0, 0.0, 1.0]), d=2, roots=())
        oracle = label_oracle(inst)
        res = sample_and_search(inst, oracle, 0, trial_rng(2))
        assert res.case == "a"
        assert res.z == 50
        assert res.search_queries == 0
        assert np.array_equal(res.labels, true_labels(inst))

    def test_two_points_one_root(self):
        inst = Instance(points=np.array([0.1, 0.9]), hidden=from_roots([0.5]), d=1, roots=(0.5,))
        oracle = label_oracle(inst)
        res = sample_and_search(inst, oracle, 1, trial_rng(3))
        assert res.case == "b"
        assert res.z == 2
        assert list(res.labels) == [-1, 1]
        assert res.total == oracle.ledger.total

    def test_perfect_labeling_over_seeds(self):
        for seed in range(60):
            d = 1 + seed % 5
            inst = make_instance(300, d, seed=seed + 500)
            oracle = label_oracle(inst)
            res = sample_and_search(inst, oracle, d, trial_rng(seed + 600))
            assert np.array_equal(res.labels, true_labels(inst)), seed
            assert res.flips <= d
            assert res.search_queries <= d * (math.ceil(math.log2(300)) + 2)
            assert res.total == res.z + res.search_queries == oracle.ledger.total

    def test_exact_backend(self):
        for seed in range(10):
            inst = make_instance(64, 2, seed=seed + 700, backend="exact")
            oracle = label_oracle(inst)
            res = sample_and_search(inst, oracle, 2, trial_rng(seed + 800))
            assert np.array_equal(res.labels, true_labels(inst))

    def test_fallback_when_flips_hide(self):
        # both roots between the same adjacent points: only case (a) possible
        inst = Instance(
            points=np.array([0.1, 0.2, 0.8, 0.9]),
            hidden=from_roots([0.4, 0.6]),
            d=2,
            roots=(0.4, 0.6),
        )
        oracle = label_oracle(inst)
        res = sample_and_search(inst, oracle, 2, trial_rng(4))
        assert res.case == "a"
        assert np.array_equal(res.labels, true_labels(inst))

    def test_degree_violation_on_bad_promise(self):
        class FixedOrder:
            def permutation(self, n):
                return np.array([0, 2, 1])

        inst = Instance(
            points=np.array([0.1, 0.5, 0.9]),
            hidden=from_roots([0.3, 0.7]),
            d=2,
            roots=(0.3, 0.7),
        )
        oracle = label_oracle(inst)
        with pytest.raises(DegreeViolation):
            sample_and_search(inst, oracle, 1, FixedOrder())

    def test_only_label_queries_needed(self):
        inst = make_instance(100, 3, seed=900)
        oracle = Oracle(inst.hidden, QuerySet.label_only(3))
        res = sample_and_search(inst, oracle, 3, trial_rng(901))
        assert set(oracle.ledger.per_order) <= {0}
        assert np.array_equal(res.labels, true_labels(inst))


class RecordingOracle(Oracle):
    """A label-only oracle that keeps every (x, order) it is asked, in order."""

    def __init__(self, instance):
        super().__init__(instance.hidden, QuerySet.label_only(instance.d))
        self.asked = []

    def query(self, x, order):
        self.asked.append((x, order))
        return super().query(x, order)


def run_recorded(learner, inst, d_roots, seed):
    oracle = RecordingOracle(inst)
    try:
        res = learner(inst, oracle, d_roots, trial_rng(seed, 1))
        out = (res.z, res.case, res.flips, res.search_queries, res.labels.tolist())
    except DegreeViolation as exc:
        out = str(exc)
    return out, oracle.asked, oracle.ledger


@pytest.mark.parametrize("alpha", [None, 0.1])
@pytest.mark.parametrize("n", [1, 2, 17, 4096])
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    backend=st.sampled_from([EXACT, FLOAT]),
    fewer=st.integers(0, 2),
)
@settings(max_examples=20, deadline=None)
def test_matches_reference_rule(n, alpha, seed, d, backend, fewer):
    # d_roots below the root count d may raise DegreeViolation; both must
    # then raise after the same queries
    model = RootModel("uniform", d) if alpha is None else RootModel("dirichlet", d, alpha)
    inst = random_instance(n, model, trial_rng(seed), backend=backend, random_leading=True)
    d_roots = max(d - fewer, 0)
    got, got_asked, got_ledger = run_recorded(sample_and_search, inst, d_roots, seed)
    want, want_asked, want_ledger = run_recorded(reference_sample_and_search, inst, d_roots, seed)
    assert got_asked == want_asked
    assert got == want
    assert got_ledger == want_ledger


def enumerated_z_law(n, d):
    """Law of the probe count Z by enumeration, without the learner or oracle.

    Uniform points and roots make all C(n+d, d) interleavings equally likely,
    and the probe order is a uniform permutation.  Z is the number of probes
    after which the probed points, read in sorted order, show d sign flips,
    or n if they never do.  Returns P(Z = z) for z = 0..n.
    """
    counts = [0] * (n + 1)
    total = 0
    for root_slots in itertools.combinations(range(n + d), d):
        # sign of each point: (-1) ** (number of roots to its right)
        signs = []
        for slot in range(n + d):
            if slot not in root_slots:
                signs.append((-1) ** sum(r > slot for r in root_slots))
        for order in itertools.permutations(range(n)):
            z = n
            for t in range(1, n + 1):
                seen = [signs[i] for i in sorted(order[:t])]
                if sum(a != b for a, b in zip(seen, seen[1:])) == d:
                    z = t
                    break
            counts[z] += 1
            total += 1
    return [Fraction(c, total) for c in counts]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_z_law_closed_form_matches_enumeration(n, d):
    pmf = enumerated_z_law(n, d)
    cdf = list(itertools.accumulate(pmf))
    assert cdf == [z_law_cdf(z, n, d) for z in range(n + 1)]
