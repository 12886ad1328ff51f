"""Sample-and-search learner tests."""

import itertools
import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptf_lab import harness, sample_search
from ptf_lab.distributions import (
    EXACT,
    FLOAT,
    RootModel,
    random_instance,
    sample_roots,
    trial_rng,
    uniform_points,
)
from ptf_lab.instances import Instance, true_labels
from ptf_lab.oracle import Oracle
from ptf_lab.polynomial import Polynomial, from_roots
from ptf_lab.sample_search import DegreeViolation, sample_and_search

from util import (
    check_sample_search_accounting,
    label_oracle,
    make_instance,
    reference_sample_and_search,
    z_law_cdf,
)


class FixedOrder:
    """A generator whose permutation is the given probe order."""

    def __init__(self, order):
        self.order = order

    def permutation(self, n):
        assert sorted(self.order) == list(range(n))
        return np.array(self.order)


def promising(points, d):
    """An instance over ``points`` that promises at most d sign changes.

    Its own polynomial is the constant 1; paired with an oracle for a
    polynomial with more sign changes, it is a broken promise.
    """
    return Instance(np.array(points), Polynomial([1.0]), d, ())


class TestSampleAndSearch:
    def test_no_roots_queries_everything(self):
        # hidden strictly positive on the sample: no flip can ever appear
        rng = trial_rng(1)
        points = np.sort(rng.random(50))
        inst = Instance(points=points, hidden=Polynomial([1.0, 0.0, 1.0]), d=2, roots=())
        oracle = label_oracle(inst)
        res = sample_and_search(inst, oracle, trial_rng(2))
        assert res.case == "a"
        assert res.z == 50
        assert res.search_queries == 0
        assert np.array_equal(res.labels, true_labels(inst))

    def test_two_points_one_root(self):
        inst = Instance(points=np.array([0.1, 0.9]), hidden=from_roots([0.5]), d=1, roots=(0.5,))
        oracle = label_oracle(inst)
        res = sample_and_search(inst, oracle, trial_rng(3))
        assert res.case == "b"
        assert res.z == 2
        assert list(res.labels) == [-1, 1]
        assert res.z + res.search_queries == oracle.queries

    def test_perfect_labeling_over_seeds(self):
        for seed in range(60):
            d = 1 + seed % 5
            inst = make_instance(300, d, seed=seed + 500)
            oracle = label_oracle(inst)
            res = sample_and_search(inst, oracle, trial_rng(seed + 600))
            assert np.array_equal(res.labels, true_labels(inst)), seed
            assert res.search_queries <= d * (math.ceil(math.log2(300)) + 2)
            assert res.z + res.search_queries == oracle.queries

    def test_exact_backend(self):
        for seed in range(10):
            inst = make_instance(64, 2, seed=seed + 700, backend="exact")
            oracle = label_oracle(inst)
            res = sample_and_search(inst, oracle, trial_rng(seed + 800))
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
        res = sample_and_search(inst, oracle, trial_rng(4))
        assert res.case == "a"
        assert np.array_equal(res.labels, true_labels(inst))

    def test_degree_violation_on_bad_promise(self):
        # the instance promises 1 sign change; the oracle's polynomial has 2
        inst = promising([0.1, 0.5, 0.9], 1)
        oracle = Oracle(from_roots([0.3, 0.7]), 2, label_only=True)
        with pytest.raises(DegreeViolation):
            sample_and_search(inst, oracle, FixedOrder([0, 2, 1]))

    def test_only_label_queries_needed(self):
        inst = make_instance(100, 3, seed=900)
        oracle = Oracle(inst.hidden, 3, label_only=True)
        res = sample_and_search(inst, oracle, trial_rng(901))
        assert oracle.per_order == (oracle.queries,)
        assert np.array_equal(res.labels, true_labels(inst))


class RecordingOracle(Oracle):
    """A label-only oracle for ``hidden`` that keeps every (x, order) it is asked, in order."""

    def __init__(self, hidden):
        super().__init__(hidden, max(hidden.degree, 1), label_only=True)
        self.asked = []

    def query(self, x, order):
        self.asked.append((x, order))
        return super().query(x, order)


def run_recorded(learner, inst, seed, hidden=None):
    return run_with(learner, inst, trial_rng(seed, 1), hidden)


def run_with(learner, inst, rng, hidden=None):
    """The learner's result (or DegreeViolation message), queries and counts.

    The oracle answers for ``hidden``, by default the instance's own polynomial.
    """
    oracle = RecordingOracle(inst.hidden if hidden is None else hidden)
    try:
        res = learner(inst, oracle, rng)
        out = (res.z, res.case, res.search_queries, res.labels.tolist())
    except DegreeViolation as exc:
        out = str(exc)
    return out, oracle.asked, (oracle.queries, oracle.rounds, oracle.per_order)


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
    # a promise below the root count d may raise DegreeViolation; both must
    # then raise after the same queries
    rng = trial_rng(seed)
    inst = random_instance(n, RootModel(d, alpha), rng, backend=backend, random_leading=True)
    promised = promising(inst.points, max(d - fewer, 0)) if fewer else inst
    got, got_asked, got_counts = run_recorded(sample_and_search, promised, seed, inst.hidden)
    want, want_asked, want_counts = run_recorded(
        reference_sample_and_search, promised, seed, inst.hidden
    )
    assert got_asked == want_asked
    assert got == want
    assert got_counts == want_counts


TEN_POINTS = [(i + 0.5) / 10 for i in range(10)]
THREE_ROOTS = (Fraction(1, 10), Fraction(6, 10), Fraction(9, 10))  # signs - + + + + + - - - +
TWO_ROOTS = (Fraction(42, 100), Fraction(58, 100))  # signs + + + + - - + + + +

# name: (points, roots, leading sign, degree bound d, probe order, (case, z, search queries));
# a d below the root count breaks the promise, so the learner must raise DegreeViolation
PHASE_ONE_CASES = {
    # 4 lands between the runs [2]+ and [7]- and joins the + run on its left
    "gap-joins-left-run": (
        TEN_POINTS, THREE_ROOTS, 1, 3, [2, 7, 4, 0, 9, 1, 3, 5, 6, 8], ("b", 5, 4)
    ),
    # 6 lands between the same runs and joins the - run on its right
    "gap-joins-right-run": (
        TEN_POINTS, THREE_ROOTS, 1, 3, [2, 7, 6, 0, 9, 1, 3, 4, 5, 8], ("b", 5, 4)
    ),
    # 2 and 8 extend the end runs; 0 and 9 then open a new run at each end
    "new-run-at-each-end": (
        TEN_POINTS, THREE_ROOTS, 1, 3, [4, 7, 2, 8, 0, 9, 1, 3, 5, 6], ("b", 6, 3)
    ),
    # 4 splits the run 0..9 between its interior probes 2 and 7
    "split-between-interior-probes": (
        TEN_POINTS, TWO_ROOTS, 1, 2, [0, 9, 2, 7, 4, 1, 3, 5, 6, 8], ("b", 5, 3)
    ),
    "case-a-after-a-split": (
        TEN_POINTS, TWO_ROOTS, -1, 3, [0, 9, 4, 2, 7, 5, 3, 6, 1, 8], ("a", 10, 0)
    ),
    "case-a-four-runs": (
        TEN_POINTS, THREE_ROOTS, 1, 4, [5, 0, 9, 3, 7, 1, 8, 2, 6, 4], ("a", 10, 0)
    ),
    "one-point": ([0.5], (Fraction(1, 4),), -1, 1, [0], ("a", 1, 0)),
    "no-roots-promised-one-root": (
        TEN_POINTS, (Fraction(1, 2),), 1, 0, [3, 1, 4, 6, 0, 2, 5, 7, 8, 9], None
    ),
}


@pytest.mark.parametrize("name", PHASE_ONE_CASES)
def test_phase_one_branches_match_reference(name):
    points, roots, leading, d, order, want = PHASE_ONE_CASES[name]
    hidden = from_roots(roots, leading=leading)
    inst = promising(points, d) if d < len(roots) else Instance(np.array(points), hidden, d, roots)
    got, got_asked, got_counts = run_with(sample_and_search, inst, FixedOrder(order), hidden)
    ref = run_with(reference_sample_and_search, inst, FixedOrder(order), hidden)
    assert (got, got_asked, got_counts) == ref
    if want is None:
        assert got == f"1 flips seen but only {d} roots promised"
    else:
        z, case, search_queries, labels = got
        assert (case, z, search_queries) == want
        assert labels == true_labels(inst).tolist()


def test_phase_one_keeps_at_most_two_ends_per_run(monkeypatch):
    # phase 1 searches only the ends of the runs of equal sign, never a list
    # of every probe
    searched = []

    def counting_bisect_left(a, x):
        searched.append(len(a))
        return bisect_left(a, x)

    monkeypatch.setattr(sample_search, "bisect_left", counting_bisect_left)
    inst = make_instance(4096, 6, seed=21)
    res = sample_and_search(inst, label_oracle(inst), trial_rng(22))
    assert res.case == "b" and res.z > 2 * (6 + 1) + 1
    assert len(searched) == res.z
    assert max(searched) <= 2 * (6 + 1)


def on_and_beside_roots(points, roots):
    """The points, plus each root's nearest float and the floats one ulp either side."""
    on = [float(r) for r in roots]
    beside = [np.nextafter(x, side) for x in on for side in (-np.inf, np.inf)]
    return np.unique(np.concatenate([points, on, beside]))


@pytest.mark.parametrize("leading", [1, -1])
@pytest.mark.parametrize(
    "n,beside_roots", [(1, False), (2, False), (1, True), (2, True), (64, True)]
)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    fewer=st.integers(0, 2),
    alpha=st.sampled_from([None, 0.1]),
)
@settings(max_examples=10, deadline=None)
def test_exact_edge_cases_match_reference(n, beside_roots, leading, seed, d, fewer, alpha):
    # the hidden polynomial has d_roots = d - fewer roots, and its instance
    # promises exactly that many
    d_roots = max(d - fewer, 1)
    model = RootModel(d_roots, alpha)
    rng = trial_rng(seed)
    roots = tuple(sample_roots(model, rng, backend=EXACT))
    points = uniform_points(n, rng)
    if beside_roots:
        points = on_and_beside_roots(points, roots)
    inst = Instance(points, from_roots(roots, leading=leading), d_roots, roots)
    got, got_asked, got_counts = run_recorded(sample_and_search, inst, seed)
    want = run_recorded(reference_sample_and_search, inst, seed)
    assert (got, got_asked, got_counts) == want
    assert not isinstance(got, str), got  # the promise holds, so nothing raises
    *_, search_queries, labels = got
    assert labels == true_labels(inst).tolist()
    assert search_queries <= d_roots * (math.ceil(math.log2(inst.n)) + 2)


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


@given(
    master=st.integers(0, 2**32 - 1),
    stream=st.integers(0, 2**16),
    d=st.integers(1, 8),
    n=st.integers(1, 2**12),
    alpha=st.one_of(st.none(), st.floats(0.05, 4)),
    backend=st.sampled_from([EXACT, FLOAT]),
    random_leading=st.booleans(),
)
@example(master=0, stream=0, d=1, n=1, alpha=None, backend=FLOAT, random_leading=False)
@example(master=1, stream=2, d=8, n=2, alpha=0.05, backend=EXACT, random_leading=True)
@example(master=99, stream=6, d=8, n=4096, alpha=0.1, backend=FLOAT, random_leading=False)
@settings(max_examples=60, deadline=None)
def test_trials_keep_their_accounting(master, stream, d, n, alpha, backend, random_leading):
    # every configuration the harness takes for sample_search, one trial each
    config = harness.ExperimentConfig(
        harness.SAMPLE_SEARCH, (d,), (n,), 1, master, backend=backend,
        dirichlet_alpha=alpha, random_leading=random_leading,
    )
    trial = harness.run_trial(config, config.cells()[0], stream)
    assert trial.result is not None, trial.row["case"]
    check_sample_search_accounting(config, trial)
